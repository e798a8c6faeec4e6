//! Property-tested equivalence between the production fast paths and
//! their retained executable references.
//!
//! The claims are **bit-identity**, not approximate agreement:
//!
//! * batch tree and forest prediction (`predict_all`) ≡ per-row
//!   `predict` ≡ the boxed [`ReferenceTree`] grower, on arbitrary
//!   forests and rows — including rows placed **exactly on split
//!   thresholds** (training values live on a 0.5 grid, so every CART
//!   threshold `(v + v_next)/2` lands on the 0.25 grid the probes are
//!   drawn from) and ragged batch sizes;
//! * the packed static-feature matcher ≡ the byte-at-a-time reference
//!   on arbitrary querier names over the full DNS label charset;
//! * the sorted-run entropy accumulator ≡ the `BTreeMap` histogram
//!   reference, to the last bit of the float sum.
//!
//! The CI gate runs this suite under `BS_THREADS=1` and `BS_THREADS=8`
//! (`scripts/ci.sh`): forest training parallelizes over the pool, so
//! equality at both widths also pins thread-count invariance of the
//! models the batch path serves.

use bs_dns::DomainName;
use bs_ml::dataset::{Dataset, Sample};
use bs_ml::forest::{Forest, ForestParams};
use bs_ml::tree::{CartParams, DecisionTree, ReferenceTree};
use bs_sensor::dynamic::{normalized_entropy, normalized_entropy_reference};
use bs_sensor::static_features::{
    classify_name_with_order, classify_name_with_order_reference, MatchOrder,
};
use dns_backscatter::par::{check, Rng};

/// 2–4 classes, 1–5 features, 10–40 training samples on a coarse 0.5
/// grid (so split thresholds land on the 0.25 grid and duplicate
/// values are common), paired with 0–19 probe rows on the **0.25**
/// grid: every CART threshold is the midpoint of two adjacent
/// 0.5-grid values, so probes land exactly on split boundaries (the
/// adversarial `x == threshold` case, which must go left in every
/// implementation). Probe count runs through ragged batch sizes.
fn arb_dataset_and_probes(g: &mut Rng) -> (Dataset, Vec<Vec<f64>>) {
    let (n_classes, n_features) = (g.range(2usize..=4), g.range(1usize..=5));
    let mut d = Dataset::new(
        (0..n_features).map(|i| format!("f{i}")).collect(),
        (0..n_classes).map(|i| format!("c{i}")).collect(),
    );
    for _ in 0..g.range(10usize..40) {
        let features = (0..n_features).map(|_| g.range(-8i64..8) as f64 * 0.5).collect();
        d.push(Sample { features, label: g.range(0..n_classes) });
    }
    let probes =
        g.vec(0..20, |g| (0..n_features).map(|_| g.range(-16i64..16) as f64 * 0.25).collect());
    (d, probes)
}

/// A label matching `[A-Za-z0-9_-]{1,16}`: the full DNS label charset,
/// length uniform in 1..=16.
fn arb_raw_label(g: &mut Rng) -> String {
    const CHARSET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-";
    (0..g.range(1..=16usize)).map(|_| CHARSET[g.range(0..CHARSET.len())] as char).collect()
}

/// Keyword fragments spliced into random names so rule hits, boundary
/// cases and near-misses all occur in `static_matcher_equals_reference`.
const SPLICES: [&str; 14] = [
    "",
    "mail",
    "MAIL",
    "mailing",
    "ns",
    "pop3",
    "newsletter",
    "newsletter7",
    "chinacache",
    "amazonaws",
    "google",
    "customer-1",
    "fw",
    "wallet",
];

/// Alphabet sizes for the entropy property: the degenerate/edge values
/// the reference special-cases, plus an arbitrary positive draw.
const ALPHABETS: [f64; 4] = [0.5, 1.0, 2.0, 256.0];

/// Batch predict ≡ per-row predict ≡ boxed reference recursion, for a
/// single CART tree on boundary-adversarial probes.
#[test]
fn tree_batch_predict_equals_scalar_and_boxed() {
    check(32, |g| {
        let (data, probes) = arb_dataset_and_probes(g);
        let seed = g.range(0u64..50);
        let params = CartParams { min_samples_split: 2, ..CartParams::default() };
        let fast = DecisionTree::fit(&data, &params, seed);
        let boxed = ReferenceTree::fit(&data, &params, seed);
        let batch = fast.predict_all(&probes);
        assert_eq!(batch.len(), probes.len());
        for (x, &got) in probes.iter().zip(&batch) {
            assert_eq!(got, fast.predict(x), "batch ≡ scalar predict");
            assert_eq!(got, boxed.predict(x), "batch ≡ boxed reference");
        }
    });
}

/// Forest batch voting ≡ per-row prediction ≡ a forest grown through
/// the boxed reference trees, with the training rows themselves and
/// boundary probes mixed into one ragged batch.
#[test]
fn forest_batch_predict_equals_scalar() {
    check(32, |g| {
        let (data, probes) = arb_dataset_and_probes(g);
        let seed = g.range(0u64..50);
        let params = ForestParams { n_trees: 5, ..ForestParams::default() };
        let forest = Forest::fit(&data, &params, seed);
        let mut batch: Vec<Vec<f64>> = data.samples.iter().map(|s| s.features.clone()).collect();
        batch.extend(probes);
        let boxed = Forest::fit_reference(&data, &params, seed);
        let votes = forest.predict_all(&batch);
        assert_eq!(&votes, &boxed.predict_all(&batch), "batch ≡ boxed reference");
        for (x, &got) in batch.iter().zip(&votes) {
            assert_eq!(got, forest.predict(x), "batch ≡ per-row predict");
        }
    });
}

/// The packed keyword matcher classifies every parseable name
/// identically to the byte-at-a-time reference, under both scan
/// orders. Labels draw from the full DNS charset (mixed case,
/// digits, `-`, `_`) with keyword fragments spliced in so rule
/// hits, boundary cases and near-misses all occur.
#[test]
fn static_matcher_equals_reference() {
    check(32, |g| {
        let raw_labels = g.vec(1..5, arb_raw_label);
        let splice_idx = g.range(0usize..SPLICES.len());
        let splice_at = g.range(0usize..5);
        let splice = SPLICES[splice_idx];
        let mut labels = raw_labels;
        if !splice.is_empty() {
            labels.insert(splice_at.min(labels.len()), splice.to_string());
        }
        let name = labels.join(".");
        if let Ok(name) = DomainName::parse(&name) {
            for order in [MatchOrder::LeftmostFirst, MatchOrder::RightmostFirst] {
                assert_eq!(
                    classify_name_with_order(&name, order),
                    classify_name_with_order_reference(&name, order),
                    "name {:?} under {:?}",
                    name,
                    order
                );
            }
        }
    });
}

/// The sorted-run entropy fast path returns the same bits as the
/// `BTreeMap` histogram reference for every histogram shape and
/// alphabet, including the degenerate single-run case where the
/// sum is `-0.0`.
#[test]
fn entropy_equals_reference_bitwise() {
    check(32, |g| {
        let values = g.vec(0..200, |g| g.range(0u32..64));
        let alphabet = {
            let (i, free) = (g.range(0usize..=ALPHABETS.len()), g.range(1.0..1e6));
            ALPHABETS.get(i).copied().unwrap_or(free)
        };
        assert_eq!(
            normalized_entropy(&values, alphabet).to_bits(),
            normalized_entropy_reference(&values, alphabet).to_bits(),
            "values {:?} alphabet {}",
            values,
            alphabet
        );
    });
}

/// Deterministic (non-property) pin of batch voting at every small
/// batch size: each row's vote depends on that row alone.
#[test]
fn forest_batch_predict_ragged_tails_pinned() {
    let mut d =
        Dataset::new(vec!["x".into(), "y".into()], vec!["a".into(), "b".into(), "c".into()]);
    for i in 0..30 {
        d.push(Sample { features: vec![(i % 5) as f64 * 0.5, (i % 3) as f64 - 1.0], label: i % 3 });
    }
    let forest = Forest::fit(&d, &ForestParams { n_trees: 7, ..ForestParams::default() }, 3);
    let all: Vec<Vec<f64>> = d.samples.iter().map(|s| s.features.clone()).collect();
    for n in 0..=all.len() {
        let batch = &all[..n];
        let per_row: Vec<usize> = batch.iter().map(|x| forest.predict(x)).collect();
        assert_eq!(forest.predict_all(batch), per_row, "batch size {n}");
    }
}
