//! Property tests for the irregular-topology generators: for *any*
//! admissible (n, m/radius, seed), scale-free and random-geometric graphs
//! are connected, structurally consistent (degree sum = 2·|E|, symmetric
//! adjacency, no self-loops) and a deterministic function of their seed.

use pp_topology::graph::Topology;
use proptest::prelude::*;

fn check_structure(t: &Topology) {
    assert!(t.is_connected(), "generator must yield a connected graph");
    let degree_sum: usize = t.nodes().map(|v| t.degree(v)).sum();
    assert_eq!(degree_sum, 2 * t.edge_count(), "degree sum must be 2·|E|");
    for u in t.nodes() {
        for &v in t.neighbors(u) {
            assert_ne!(u, v, "no self-loops");
            assert!(t.neighbors(v).contains(&u), "adjacency must be symmetric ({u} lists {v})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scale_free_is_connected_and_consistent(
        extra in 1usize..92,
        m in 1usize..4,
        seed in 0u64..1000,
    ) {
        // n > m always holds by construction of the inputs.
        let n = m + 1 + extra;
        let t = Topology::scale_free(n, m, seed);
        prop_assert_eq!(t.node_count(), n);
        check_structure(&t);
        // BA attaches m distinct targets per node past the clique, so the
        // edge count is exact: C(m+1, 2) + m·(n − m − 1).
        let clique = m + 1;
        let expected = clique * (clique - 1) / 2 + m * (n - m - 1);
        prop_assert_eq!(t.edge_count(), expected);
    }

    #[test]
    fn scale_free_is_deterministic_per_seed(
        extra in 1usize..60,
        m in 1usize..4,
        seed in 0u64..1000,
    ) {
        let n = m + 1 + extra;
        let a = Topology::scale_free(n, m, seed);
        let b = Topology::scale_free(n, m, seed);
        prop_assert_eq!(a.edge_slice(), b.edge_slice());
    }

    #[test]
    fn random_geometric_is_connected_and_consistent(
        n in 2usize..64,
        radius_milli in 20u32..800,
        seed in 0u64..1000,
    ) {
        // Radii down to 0.02 exercise the component-stitching augmentation
        // hard (most nodes start isolated).
        let radius = radius_milli as f64 / 1000.0;
        let t = Topology::random_geometric(n, radius, seed);
        prop_assert_eq!(t.node_count(), n);
        check_structure(&t);
    }

    #[test]
    fn random_geometric_is_deterministic_per_seed(
        n in 2usize..48,
        radius_milli in 20u32..800,
        seed in 0u64..1000,
    ) {
        let radius = radius_milli as f64 / 1000.0;
        let a = Topology::random_geometric(n, radius, seed);
        let b = Topology::random_geometric(n, radius, seed);
        prop_assert_eq!(a.edge_slice(), b.edge_slice());
    }

    #[test]
    fn geometric_complete_graph_limit(
        n in 2usize..32,
        seed in 0u64..1000,
    ) {
        // A radius covering the whole unit square links every pair exactly
        // once — the augmentation must not add duplicates.
        let t = Topology::random_geometric(n, 1.5, seed);
        prop_assert_eq!(t.edge_count(), n * (n - 1) / 2);
        for v in t.nodes() {
            prop_assert_eq!(t.degree(v), n - 1);
        }
    }
}

#[test]
fn scale_free_grows_hubs() {
    // Not a proptest (hub growth is probabilistic per seed) but a fixed
    // check that preferential attachment produces the heavy tail the
    // scenario frontier is about: on a decent-sized instance the max
    // degree dwarfs the attachment count.
    let t = Topology::scale_free(256, 2, 7);
    let max_deg = t.nodes().map(|v| t.degree(v)).max().unwrap();
    assert!(max_deg >= 8, "expected a hub, max degree {max_deg}");
}
