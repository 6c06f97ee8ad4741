//! The frozen SoA index must reproduce the pointer tree it was compiled
//! from, node by node. For random datasets, mixed-sign weights (so both
//! the P⁺ and the P⁻ tree exist), both index families, every kernel and
//! both bound methods (SOTA and KARL), every node of every frozen tree
//! must carry the pointer node's topology — leaf flag, point range, depth
//! and children in refinement order — and its fused bound kernels must
//! return `[LB, UB]` pairs **bitwise identical** to [`node_bounds`] on the
//! pointer node, for 16 queries. No tolerance anywhere: freezing the tree
//! and fusing the bound kernels may not change a single bit.
//!
//! Both frozen paths are checked: the one-node [`node_bounds_frozen`] and
//! the two-pass frontier kernel ([`node_intervals_frozen`] then
//! [`assemble_interval`]) that the refinement loop runs on each pop's
//! children. The pointer node computes each quantity with the original
//! separate primitives, so any reassociation sneaking into the fused
//! kernels fails here immediately.

use karl::core::{
    assemble_interval, node_bounds, node_bounds_frozen, node_intervals_frozen, BoundMethod,
    BoundPair, Evaluator, Kernel, QueryContext,
};
use karl::geom::{norm2, Ball, PointSet, Rect};
use karl::tree::{FrozenTree, NodeId, NodeShape, Tree};
use karl_testkit::rng::{Rng, SeedableRng, StdRng};
use karl_testkit::{prop_assert_eq, props};

/// Two Gaussian blobs plus a uniform background (same shape as the batch
/// equivalence test) so the trees get some depth.
fn clustered(n: usize, d: usize, rng: &mut StdRng) -> PointSet {
    let mut data = Vec::with_capacity(n * d);
    for i in 0..n {
        match i % 3 {
            0 => data.extend((0..d).map(|_| -1.5 + rng.random_range(-0.4..0.4))),
            1 => data.extend((0..d).map(|_| 1.5 + rng.random_range(-0.4..0.4))),
            _ => data.extend((0..d).map(|_| rng.random_range(-3.0..3.0))),
        }
    }
    PointSet::new(d, data)
}

fn mixed_weights(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let w: f64 = rng.random_range(0.1..1.5);
            if rng.random_bool(0.35) {
                -w
            } else {
                w
            }
        })
        .collect()
}

fn bits(b: BoundPair) -> (u64, u64) {
    (b.lb.to_bits(), b.ub.to_bits())
}

/// Asserts that `frozen` reproduces `tree` at every node: topology, and
/// bound pairs for every query under both bound methods.
fn assert_nodes_match<S: NodeShape>(
    tree: &Tree<S>,
    frozen: &FrozenTree,
    kernel: &Kernel,
    queries: &PointSet,
) {
    prop_assert_eq!(frozen.num_nodes(), tree.num_nodes());
    prop_assert_eq!(frozen.dims(), tree.dims());
    let mut gathered = Vec::new();
    for (id, node) in tree.iter_nodes() {
        prop_assert_eq!(frozen.is_leaf(id), node.is_leaf(), "node {}", id);
        prop_assert_eq!(frozen.range(id), (node.start, node.end), "node {}", id);
        prop_assert_eq!(frozen.depth(id), node.depth, "node {}", id);
        gathered.clear();
        let has_children = frozen.gather_children(id, &mut gathered);
        prop_assert_eq!(has_children, node.children.is_some(), "node {}", id);
        let children: Vec<NodeId> = node.children.map_or(Vec::new(), |(l, r)| vec![l, r]);
        prop_assert_eq!(&gathered, &children, "node {}", id);
    }

    let mut intervals = Vec::new();
    for method in [BoundMethod::Sota, BoundMethod::Karl] {
        for q in queries.iter() {
            let qn = norm2(q);
            let ctx = QueryContext::new(kernel, method, q);
            let pointer = |id: NodeId| {
                let node = tree.node(id);
                bits(node_bounds(method, kernel, &node.shape, &node.stats, q, qn))
            };
            // The loop's first frontier: the root alone.
            node_intervals_frozen(&ctx, frozen, &[frozen.root()], &mut intervals);
            let got = bits(assemble_interval(method, kernel.curve(), &intervals[0]));
            prop_assert_eq!(got, pointer(tree.root()), "{:?} root q {:?}", method, q);
            for (id, node) in tree.iter_nodes() {
                let want = pointer(id);
                let got = bits(node_bounds_frozen(&ctx, frozen, id));
                prop_assert_eq!(got, want, "{:?} node {} q {:?}", method, id, q);
                // The frontier pass of one heap pop: the node's children,
                // gathered in refinement order, through the batched kernel.
                let Some((l, r)) = node.children else {
                    continue;
                };
                node_intervals_frozen(&ctx, frozen, &[l, r], &mut intervals);
                prop_assert_eq!(intervals.len(), 2);
                for (iv, child) in intervals.iter().zip([l, r]) {
                    prop_assert_eq!(iv.node, child);
                    let got = bits(assemble_interval(method, kernel.curve(), iv));
                    prop_assert_eq!(
                        got,
                        pointer(child),
                        "{:?} child {} q {:?}",
                        method,
                        child,
                        q
                    );
                }
            }
        }
    }
}

/// Checks both sides of one evaluator.
fn assert_evaluator_matches<S: NodeShape>(
    eval: &Evaluator<S>,
    kernel: &Kernel,
    queries: &PointSet,
) {
    for (tree, frozen) in [
        (eval.pos_tree(), eval.pos_frozen()),
        (eval.neg_tree(), eval.neg_frozen()),
    ] {
        let (Some(tree), Some(frozen)) = (tree, frozen) else {
            panic!("mixed-sign weights build both the P+ and the P- tree");
        };
        assert_nodes_match(tree, frozen, kernel, queries);
    }
}

props! {
    #[test]
    fn frozen_index_matches_pointer_tree_per_node(
        seed in 0u64..1_000_000,
        n in 30usize..170,
        d in 1usize..9,
        leaf in 1usize..24,
        kernel_id in 0usize..4
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = clustered(n, d, &mut rng);
        let mut weights = mixed_weights(n, &mut rng);
        // Pin one point to each sign so both trees always exist.
        weights[0] = weights[0].abs();
        weights[1] = -weights[1].abs();
        let kernel = match kernel_id {
            0 => Kernel::gaussian(rng.random_range(0.3..1.5)),
            1 => Kernel::laplacian(rng.random_range(0.3..1.2)),
            2 => Kernel::polynomial(rng.random_range(0.1..0.5), 0.2, 2),
            _ => Kernel::sigmoid(rng.random_range(0.1..0.6), 0.1),
        };
        let queries = clustered(16, d, &mut rng);

        // The bound method is a query-time choice: one build per family
        // serves both, and `assert_nodes_match` runs SOTA and KARL.
        let kd = Evaluator::<Rect>::build(&points, &weights, kernel, BoundMethod::Karl, leaf);
        assert_evaluator_matches(&kd, &kernel, &queries);

        let ball = Evaluator::<Ball>::build(&points, &weights, kernel, BoundMethod::Karl, leaf);
        assert_evaluator_matches(&ball, &kernel, &queries);
    }
}
