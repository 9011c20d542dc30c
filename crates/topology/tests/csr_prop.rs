//! Differential tests for the counting-sort CSR build: `from_edges` and the
//! grid/hypercube generators against naive `BTreeSet` references. Equal
//! node counts, per-node neighbour slices (the CSR offsets and targets),
//! per-slot edge ids and `edge_slice` mean the CSR arrays are equal.

use pp_topology::graph::{EdgeId, NodeId, Topology};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Asserts that `t` is the CSR of the undirected simple graph `edges`
/// (pairs `(u, v)`, `u < v`) over `n` nodes, with edge ids in set order.
fn assert_csr_matches(t: &Topology, n: usize, edges: &BTreeSet<(u32, u32)>) {
    let list: Vec<(u32, u32)> = edges.iter().copied().collect();
    let id = |u: u32, v: u32| EdgeId(list.binary_search(&(u.min(v), u.max(v))).unwrap() as u32);
    assert_eq!(t.node_count(), n);
    assert_eq!(t.edge_count(), list.len());
    let slice: Vec<(u32, u32)> = t.edge_slice().iter().map(|&(u, v)| (u.0, v.0)).collect();
    assert_eq!(slice, list, "edge_slice");
    for u in 0..n as u32 {
        let nbrs: Vec<NodeId> = list
            .iter()
            .filter_map(|&(a, b)| match (a == u, b == u) {
                (true, _) => Some(NodeId(b)),
                (_, true) => Some(NodeId(a)),
                _ => None,
            })
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let eids: Vec<EdgeId> = nbrs.iter().map(|v| id(u, v.0)).collect();
        assert_eq!(t.neighbors(NodeId(u)), &nbrs[..], "targets of v{u}");
        assert_eq!(t.neighbor_edge_ids(NodeId(u)), &eids[..], "slot edge ids of v{u}");
    }
}

/// Coordinate-walk grid reference: every node links to its ±1 neighbour
/// on each axis (wrapping on a torus); the set drops self-loops (extent 1)
/// and the duplicate extent-2 wrap link.
fn grid_reference(dims: &[usize], wrap: bool) -> BTreeSet<(u32, u32)> {
    let n: usize = dims.iter().product();
    let index = |c: &[usize]| c.iter().zip(dims).fold(0, |acc, (&x, &d)| acc * d + x);
    let mut set = BTreeSet::new();
    for i in 0..n {
        let mut coords = vec![0; dims.len()];
        let mut rest = i;
        for axis in (0..dims.len()).rev() {
            coords[axis] = rest % dims[axis];
            rest /= dims[axis];
        }
        for axis in 0..dims.len() {
            let d = dims[axis];
            let mut steps = vec![];
            if coords[axis] + 1 < d {
                steps.push(coords[axis] + 1);
            } else if wrap {
                steps.push(0);
            }
            if coords[axis] > 0 {
                steps.push(coords[axis] - 1);
            } else if wrap {
                steps.push(d - 1);
            }
            for s in steps {
                let mut other = coords.clone();
                other[axis] = s;
                let j = index(&other);
                if j != i {
                    set.insert((i.min(j) as u32, i.max(j) as u32));
                }
            }
        }
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn from_edges_matches_btreeset_reference(
        n in 1usize..24,
        raw in prop::collection::vec((0u32..1000, 0u32..1000), 0..80),
        reversed in 0usize..20,
        loops in prop::collection::vec(0u32..1000, 0..4),
    ) {
        let n32 = n as u32;
        let mut edges: Vec<(u32, u32)> = raw.iter().map(|&(u, v)| (u % n32, v % n32)).collect();
        let flipped: Vec<(u32, u32)> = edges.iter().take(reversed).map(|&(u, v)| (v, u)).collect();
        edges.extend(flipped);
        edges.extend(loops.iter().map(|&x| (x % n32, x % n32)));
        let reference: BTreeSet<(u32, u32)> =
            edges.iter().filter(|&&(u, v)| u != v).map(|&(u, v)| (u.min(v), u.max(v))).collect();
        assert_csr_matches(&Topology::from_edges(n, &edges), n, &reference);
    }

    #[test]
    fn grids_match_coordinate_walk(dims in prop::collection::vec(1usize..6, 1..4)) {
        let n: usize = dims.iter().product();
        assert_csr_matches(&Topology::mesh(&dims), n, &grid_reference(&dims, false));
        assert_csr_matches(&Topology::torus(&dims), n, &grid_reference(&dims, true));
    }

    #[test]
    fn hypercube_matches_bit_flip_reference(dim in 0usize..8) {
        let n = 1u32 << dim;
        let reference: BTreeSet<(u32, u32)> = (0..n)
            .flat_map(|u| (0..dim).map(move |b| (u, u ^ (1 << b))))
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        assert_csr_matches(&Topology::hypercube(dim), n as usize, &reference);
    }
}

#[test]
fn extent_one_and_two_grids_match() {
    for dims in [vec![1], vec![2], vec![2, 2], vec![1, 3], vec![2, 1, 3], vec![3, 2, 2]] {
        let n: usize = dims.iter().product();
        assert_csr_matches(&Topology::mesh(&dims), n, &grid_reference(&dims, false));
        assert_csr_matches(&Topology::torus(&dims), n, &grid_reference(&dims, true));
    }
}
