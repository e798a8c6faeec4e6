//! Flat pre-order tree arenas.
//!
//! A `Box`-recursive tree costs a heap allocation, a pointer chase and
//! unpredictable locality per level of every `predict`. The arena
//! stores nodes in **pre-order** in one `Vec`: a split's left child is
//! implicitly the next node, only the right child needs an offset, and
//! descending a path walks mostly-forward through one allocation.
//! Pre-order is also exactly the order of the `bs-forest v1` wire
//! format, so serialization is a linear scan and the format stays
//! byte-identical to the boxed original.

/// Sentinel feature index marking a leaf node.
pub const LEAF: u32 = u32::MAX;

/// One arena node.
///
/// Splits: `feature`/`threshold` describe the test (`x[feature] <=
/// threshold` goes left), the left child sits at `index + 1`, and
/// `right` is the right child's arena index. Leaves: `feature` is
/// [`LEAF`], `right` holds the class, `threshold` is zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatNode {
    /// Split feature, or [`LEAF`].
    pub feature: u32,
    /// Split threshold; zero for leaves.
    pub threshold: f64,
    /// Right-child index for splits; class for leaves.
    pub right: u32,
}

/// A pre-order flat tree, grown through [`FlatTree::push_leaf`] /
/// [`FlatTree::begin_split`] / [`FlatTree::finish_split`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatTree {
    nodes: Vec<FlatNode>,
}

impl FlatTree {
    /// An empty tree.
    pub fn new() -> Self {
        FlatTree { nodes: Vec::new() }
    }

    /// Append a leaf for `class`; returns its index.
    pub fn push_leaf(&mut self, class: u32) -> usize {
        self.nodes.push(FlatNode { feature: LEAF, threshold: 0.0, right: class });
        self.nodes.len() - 1
    }

    /// Append a split whose left subtree will be built next (pre-order).
    /// Returns the split's index for [`FlatTree::finish_split`].
    pub fn begin_split(&mut self, feature: u32, threshold: f64) -> usize {
        assert_ne!(feature, LEAF, "feature index collides with the leaf sentinel");
        self.nodes.push(FlatNode { feature, threshold, right: 0 });
        self.nodes.len() - 1
    }

    /// Seal split `idx` after its left subtree is fully built: the next
    /// node appended becomes its right child.
    pub fn finish_split(&mut self, idx: usize) {
        self.nodes[idx].right = self.nodes.len() as u32;
    }

    /// Iterative root-to-leaf descent; returns the class.
    pub fn predict(&self, x: &[f64]) -> u32 {
        let mut i = 0usize;
        loop {
            let node = &self.nodes[i];
            if node.feature == LEAF {
                return node.right;
            }
            i = if x[node.feature as usize] <= node.threshold {
                i + 1
            } else {
                node.right as usize
            };
        }
    }

    /// Batch predict: one pass over the arena-resident tree per row.
    pub fn predict_all<R: AsRef<[f64]>>(&self, rows: &[R]) -> Vec<u32> {
        rows.iter().map(|r| self.predict(r.as_ref())).collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes exist yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes in pre-order (serialization support).
    pub fn nodes(&self) -> &[FlatNode] {
        &self.nodes
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.feature == LEAF).count()
    }

    /// Depth (a leaf-only tree has depth 0).
    pub fn depth(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut max = 0;
        let mut stack = vec![(0usize, 0usize)];
        while let Some((i, d)) = stack.pop() {
            let node = &self.nodes[i];
            if node.feature == LEAF {
                max = max.max(d);
            } else {
                stack.push((i + 1, d + 1));
                stack.push((node.right as usize, d + 1));
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// x0 <= 1.0 ? (x1 <= 5.0 ? A : B) : C
    fn two_level() -> FlatTree {
        let mut t = FlatTree::new();
        let root = t.begin_split(0, 1.0);
        let inner = t.begin_split(1, 5.0);
        t.push_leaf(0);
        t.finish_split(inner);
        t.push_leaf(1);
        t.finish_split(root);
        t.push_leaf(2);
        t
    }

    #[test]
    fn builder_produces_preorder_layout() {
        let t = two_level();
        assert_eq!(t.len(), 5);
        let n = t.nodes();
        assert_eq!(n[0].feature, 0);
        assert_eq!(n[0].right, 4, "right child after the whole left subtree");
        assert_eq!(n[1].feature, 1);
        assert_eq!(n[1].right, 3);
        assert_eq!(n[2].feature, LEAF);
        assert_eq!(n[4].right, 2, "leaf stores its class");
    }

    #[test]
    fn iterative_predict_follows_thresholds() {
        let t = two_level();
        assert_eq!(t.predict(&[0.0, 3.0]), 0);
        assert_eq!(t.predict(&[0.0, 9.0]), 1);
        assert_eq!(t.predict(&[2.0, 0.0]), 2);
        assert_eq!(t.predict(&[1.0, 5.0]), 0, "boundaries go left");
    }

    #[test]
    fn predict_all_matches_predict() {
        let t = two_level();
        // Rows stop at different depths (the depth-1 leaf C or a
        // depth-2 leaf), with boundary values at both levels.
        let rows: Vec<Vec<f64>> = vec![
            vec![0.0, 3.0],
            vec![0.0, 9.0],
            vec![2.0, 0.0],
            vec![1.0, 5.0],
            vec![9.0, 9.0],
            vec![0.5, 5.0],
            vec![1.0, 5.1],
            vec![-1.0, -1.0],
        ];
        let batch = t.predict_all(&rows);
        let single: Vec<u32> = rows.iter().map(|r| t.predict(r)).collect();
        assert_eq!(batch, single);
        assert_eq!(batch, vec![0, 1, 2, 0, 2, 0, 1, 0]);
        let mut stump = FlatTree::new();
        stump.push_leaf(7);
        assert_eq!(stump.predict_all(&[[0.0f64; 0]; 3]), vec![7, 7, 7]);
    }

    #[test]
    fn depth_and_leaves() {
        let t = two_level();
        assert_eq!(t.depth(), 2);
        assert_eq!(t.leaves(), 3);
        let mut stump = FlatTree::new();
        stump.push_leaf(7);
        assert_eq!(stump.depth(), 0);
        assert_eq!(stump.leaves(), 1);
        assert_eq!(stump.predict(&[]), 7);
        assert_eq!(FlatTree::new().depth(), 0);
    }

    #[test]
    #[should_panic(expected = "leaf sentinel")]
    fn split_on_sentinel_feature_is_rejected() {
        FlatTree::new().begin_split(LEAF, 0.0);
    }
}
