//! The live streaming driver: a long-running sensor process with the
//! bs-live observability stack attached.
//!
//! [`run_live_stream`] feeds a query log through a streaming sensor
//! one record at a time — optionally *paced* to a target
//! records-per-second so a replayed log exercises the system the way a
//! real tap would — while a [`bs_live::LiveHandle`] (when attached)
//! samples the registry, serves scrapes, and runs the health watchdog.
//! The watchdog's shared [`bs_live::HealthState`] is wired into the
//! sensor as its pressure hook, closing the graceful-degradation loop:
//! an eviction storm trips the watchdog, the sensor tightens its
//! probation decay, the storm's memory footprint drains, and the
//! watchdog clears. With more than one shard the hook broadcasts to
//! every lane.
//!
//! The `shards` parameter picks the engine: `0` (auto) and `1` run the
//! plain [`StreamingSensor`], `> 1` runs the hash-sharded
//! [`ShardedStreamingSensor`]. Auto picks the plain sensor because it
//! measured faster than two sharded lanes on a 2-core host. The two
//! engines agree only while no memory cap binds: the sharded engine
//! splits `max_originators` and the probation cap across its slices,
//! so under pressure it admits and evicts differently (see
//! `bs_sensor::shard`).

use bs_netsim::log::QueryLogRecord;
use bs_sensor::qmeta::QuerierMetaCache;
use bs_sensor::{
    extract_with_meta_cache, FeatureConfig, OriginatorFeatures, QuerierInfo,
    ShardedStreamingSensor, StreamConfig, StreamingSensor, WindowSummary,
};
use std::time::{Duration, Instant};

/// What one [`run_live_stream`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRunStats {
    /// Records fed to the sensor.
    pub records: u64,
    /// Completed windows emitted (including the final partial one).
    pub windows: usize,
    /// Originators evicted across all windows.
    pub evicted: usize,
}

/// Between pacing sleeps, feed this many records. Sleeping per record
/// would turn pacing into a syscall benchmark; batches keep the duty
/// cycle honest at any realistic rate.
const PACE_BATCH: u64 = 64;

/// Resolve a requested shard count: `0` (auto) means one lane, the
/// plain sensor; anything else is clamped to `1..=SHARD_SLICES`.
pub fn resolve_shards(requested: usize) -> usize {
    requested.clamp(1, bs_sensor::SHARD_SLICES)
}

/// The two ingest engines behind one driver loop.
enum Engine {
    Single(Box<StreamingSensor>),
    Sharded(Box<ShardedStreamingSensor>),
}

impl Engine {
    fn push(&mut self, r: QueryLogRecord) -> Option<WindowSummary> {
        match self {
            Engine::Single(s) => s.push(r),
            Engine::Sharded(s) => s.push(r),
        }
    }

    fn finish(self) -> Option<WindowSummary> {
        match self {
            Engine::Single(s) => s.finish(),
            Engine::Sharded(s) => s.finish(),
        }
    }
}

/// Stream `records` through a sensor configured by `config`, invoking
/// `on_window` for every completed window (and the final partial one).
///
/// * `shards`: ingest lanes — see [`resolve_shards`]; `1` is the plain
///   single sensor, and so is `0` (auto).
/// * `live`: when given, its health state becomes the sensor's
///   pressure hook and a sample is forced at every window boundary so
///   scrapes see fresh window counters immediately.
/// * `pace_rps`: target ingest rate in records/second; `0` replays as
///   fast as possible.
///
/// Records must be in time order (the streaming sensor's contract;
/// late records are counted and dropped, never reordered).
pub fn run_live_stream<F>(
    records: &[QueryLogRecord],
    config: StreamConfig,
    shards: usize,
    live: Option<&bs_live::LiveHandle>,
    pace_rps: u64,
    mut on_window: F,
) -> StreamRunStats
where
    F: FnMut(&WindowSummary),
{
    let _span = bs_telemetry::span("core.stream");
    let mut engine = match resolve_shards(shards) {
        1 => {
            let mut sensor = StreamingSensor::new(config);
            if let Some(handle) = live {
                sensor.set_pressure_hook(handle.health_state());
            }
            Engine::Single(Box::new(sensor))
        }
        n => {
            let mut sensor = ShardedStreamingSensor::new(config, n);
            if let Some(handle) = live {
                sensor.set_pressure_hook(handle.health_state());
            }
            Engine::Sharded(Box::new(sensor))
        }
    };

    let started = Instant::now();
    let mut stats = StreamRunStats { records: 0, windows: 0, evicted: 0 };
    for r in records {
        if pace_rps > 0 && stats.records.is_multiple_of(PACE_BATCH) {
            // Sleep off any lead over the pace schedule.
            let due = Duration::from_nanos(stats.records.saturating_mul(1_000_000_000) / pace_rps);
            let elapsed = started.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
        stats.records += 1;
        if let Some(w) = engine.push(*r) {
            stats.windows += 1;
            stats.evicted += w.evicted;
            if let Some(handle) = live {
                handle.sample_now(started.elapsed().as_millis() as u64);
            }
            on_window(&w);
        }
    }
    if let Some(w) = engine.finish() {
        stats.windows += 1;
        stats.evicted += w.evicted;
        on_window(&w);
    }
    if let Some(handle) = live {
        handle.sample_now(started.elapsed().as_millis() as u64);
    }
    stats
}

/// [`run_live_stream`] plus per-window feature extraction through the
/// querier metadata plane: every completed window runs
/// [`extract_with_meta_cache`] against `info`, with one
/// [`QuerierMetaCache`] persisting across windows so queriers that
/// recur between windows skip re-resolution (the ROADMAP item-3
/// online-serving posture: resolve metadata once, serve features per
/// window). The caller owns the cache, so successive calls — or a
/// restart-with-state — keep their warmth; `on_window` receives each
/// window summary together with its extracted features.
///
/// Extraction output is cache-invariant and bit-identical to the
/// batch fast path (and therefore to the retained per-pair
/// reference); the property tests in `bs-sensor` pin this down.
#[allow(clippy::too_many_arguments)]
pub fn run_live_stream_extracting<F>(
    records: &[QueryLogRecord],
    config: StreamConfig,
    shards: usize,
    live: Option<&bs_live::LiveHandle>,
    pace_rps: u64,
    info: &(impl QuerierInfo + Sync),
    feature_config: &FeatureConfig,
    cache: &mut QuerierMetaCache,
    mut on_window: F,
) -> StreamRunStats
where
    F: FnMut(&WindowSummary, &[OriginatorFeatures]),
{
    run_live_stream(records, config, shards, live, pace_rps, |w| {
        let features = extract_with_meta_cache(&w.observations, info, feature_config, Some(cache));
        on_window(w, &features);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_dns::{SimDuration, SimTime};
    use bs_netsim::log::QueryLogRecord;
    use bs_sensor::{ReferenceShardedStreamingSensor, ReferenceStreamingSensor};

    fn rec(t: u64, q: u32, o: u32) -> QueryLogRecord {
        QueryLogRecord {
            time: SimTime(t),
            querier: std::net::Ipv4Addr::from(0x0A00_0000 | q),
            originator: std::net::Ipv4Addr::from(0xCB00_0000 | o),
            rcode: bs_dns::Rcode::NoError,
        }
    }

    fn sample_records() -> Vec<QueryLogRecord> {
        // Three windows of 100 s: two originators, several queriers.
        let mut out = Vec::new();
        for w in 0..3u64 {
            for i in 0..50u32 {
                out.push(rec(w * 100 + (i % 90) as u64, i % 7, i % 2));
            }
        }
        out
    }

    #[test]
    fn driver_matches_reference_sensor_windows() {
        let records = sample_records();
        let cfg = StreamConfig { window: SimDuration::from_secs(100), ..Default::default() };

        let mut driven = Vec::new();
        let stats = run_live_stream(&records, cfg, 1, None, 0, |w| driven.push(w.clone()));
        assert_eq!(stats.records, records.len() as u64);
        assert_eq!(stats.windows, driven.len());

        let mut reference = ReferenceStreamingSensor::new(cfg);
        let mut expect = Vec::new();
        for r in &records {
            if let Some(w) = reference.push(*r) {
                expect.push(w);
            }
        }
        if let Some(w) = reference.finish() {
            expect.push(w);
        }
        assert_eq!(driven, expect, "driver must not change sensor semantics");
    }

    #[test]
    fn sharded_driver_matches_sharded_reference() {
        let records = sample_records();
        let cfg = StreamConfig { window: SimDuration::from_secs(100), ..Default::default() };

        let mut reference = ReferenceShardedStreamingSensor::new(cfg);
        let mut expect = Vec::new();
        for r in &records {
            if let Some(w) = reference.push(*r) {
                expect.push(w);
            }
        }
        if let Some(w) = reference.finish() {
            expect.push(w);
        }

        for shards in [2, 4, 8] {
            let mut driven = Vec::new();
            let stats = run_live_stream(&records, cfg, shards, None, 0, |w| driven.push(w.clone()));
            assert_eq!(stats.records, records.len() as u64);
            assert_eq!(driven, expect, "shards={shards}: output must be shard-count invariant");
        }
    }

    #[test]
    fn extracting_driver_matches_reference_extraction_per_window() {
        use bs_netsim::types::{AsId, CountryCode, NameOutcome};

        struct ToyInfo;
        impl QuerierInfo for ToyInfo {
            fn querier_name(&self, addr: std::net::Ipv4Addr) -> NameOutcome {
                if addr.octets()[3].is_multiple_of(2) {
                    NameOutcome::Name(bs_dns::DomainName::parse("mail.example.com").unwrap())
                } else {
                    NameOutcome::NxDomain
                }
            }
            fn querier_as(&self, addr: std::net::Ipv4Addr) -> Option<AsId> {
                Some(AsId(addr.octets()[3] as u32 % 3))
            }
            fn querier_country(&self, _addr: std::net::Ipv4Addr) -> Option<CountryCode> {
                Some(CountryCode::new("jp").unwrap())
            }
        }

        let records = sample_records();
        let cfg = StreamConfig { window: SimDuration::from_secs(100), ..Default::default() };
        let fc = FeatureConfig { min_queriers: 1, top_n: None };

        let mut cache = QuerierMetaCache::default();
        let mut windows = Vec::new();
        let stats = run_live_stream_extracting(
            &records,
            cfg,
            1,
            None,
            0,
            &ToyInfo,
            &fc,
            &mut cache,
            |w, f| {
                windows.push((w.clone(), f.to_vec()));
            },
        );
        assert_eq!(stats.windows, windows.len());
        assert!(!windows.is_empty());
        assert!(
            cache.hits() > 0,
            "queriers recur across the sample windows: the cache must serve hits"
        );

        for (w, features) in &windows {
            let expect =
                bs_sensor::extract_from_observations_reference(&w.observations, &ToyInfo, &fc);
            assert_eq!(features, &expect, "warm-cache extraction must equal the reference");
        }
    }

    #[test]
    fn shard_resolution_clamps_and_autosizes() {
        assert_eq!(resolve_shards(1), 1);
        assert_eq!(resolve_shards(4), 4);
        assert_eq!(resolve_shards(10_000), bs_sensor::SHARD_SLICES);
        assert_eq!(resolve_shards(0), 1, "auto runs the plain sensor");
    }

    #[test]
    fn pacing_slows_replay_to_the_target_rate() {
        let records = sample_records();
        let cfg = StreamConfig { window: SimDuration::from_secs(100), ..Default::default() };
        let started = Instant::now();
        // 150 records at 1000 rps ≥ 150 ms of wall clock.
        let stats = run_live_stream(&records, cfg, 1, None, 1_000, |_| {});
        assert_eq!(stats.records, 150);
        let elapsed = started.elapsed();
        assert!(
            elapsed >= Duration::from_millis(80),
            "pacing had no effect: {elapsed:?} for 150 records at 1000 rps"
        );
    }
}
