//! Weighted shortest paths over the link-weight matrix: the network-side
//! counterpart of the physical model's "shortest escape path" (Theorem 1's
//! `r_{c,p}` measured in accumulated `e_{i,j}` instead of metres).
//!
//! Used by the experiments to relate a load's energy budget to the set of
//! nodes it can still reach (`reachable_within`), and for topology
//! statistics (weighted diameter, mean path weight).

use crate::graph::{NodeId, Topology};
use crate::links::LinkTable;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; ties by node id for determinism.
        other.dist.total_cmp(&self.dist).then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra from `from` over `e_{i,j}` link weights (with constant `c`).
/// Unreachable nodes get `f64::INFINITY`.
pub fn dijkstra(topo: &Topology, links: &LinkTable, c: f64, from: NodeId) -> Vec<f64> {
    dijkstra_weighted(topo, &links.weights(c), from)
}

/// Dijkstra over precomputed edge-id-indexed weights.
fn dijkstra_weighted(topo: &Topology, weights: &[f64], from: NodeId) -> Vec<f64> {
    let n = topo.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[from.idx()] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: from });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u.idx()] {
            continue;
        }
        done[u.idx()] = true;
        for (&v, &e) in topo.neighbors(u).iter().zip(topo.neighbor_edge_ids(u)) {
            let nd = d + weights[e.idx()];
            if nd < dist[v.idx()] {
                dist[v.idx()] = nd;
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    dist
}

/// Nodes whose weighted distance from `from` is at most `budget` — the set
/// a load with flag headroom `budget/µ_k` could possibly reach (discrete
/// Corollary 3).
pub fn reachable_within(
    topo: &Topology,
    links: &LinkTable,
    c: f64,
    from: NodeId,
    budget: f64,
) -> Vec<NodeId> {
    dijkstra(topo, links, c, from)
        .into_iter()
        .enumerate()
        .filter(|&(_, d)| d <= budget)
        .map(|(i, _)| NodeId(i as u32))
        .collect()
}

/// Weighted diameter: the largest finite pairwise distance; `None` when the
/// graph is disconnected or empty.
pub fn weighted_diameter(topo: &Topology, links: &LinkTable, c: f64) -> Option<f64> {
    let mut best: f64 = 0.0;
    if topo.node_count() == 0 {
        return None;
    }
    let weights = links.weights(c);
    for u in topo.nodes() {
        let d = dijkstra_weighted(topo, &weights, u);
        for x in d {
            if x.is_infinite() {
                return None;
            }
            best = best.max(x);
        }
    }
    Some(best)
}

/// Mean weighted distance over all ordered pairs (excluding self-pairs);
/// `None` when disconnected or fewer than 2 nodes.
pub fn mean_path_weight(topo: &Topology, links: &LinkTable, c: f64) -> Option<f64> {
    let n = topo.node_count();
    if n < 2 {
        return None;
    }
    let mut sum = 0.0;
    let weights = links.weights(c);
    for u in topo.nodes() {
        for (i, d) in dijkstra_weighted(topo, &weights, u).into_iter().enumerate() {
            if i as u32 != u.0 {
                if d.is_infinite() {
                    return None;
                }
                sum += d;
            }
        }
    }
    Some(sum / (n * (n - 1)) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::LinkAttrs;

    fn unit_links(topo: &Topology) -> LinkTable {
        LinkTable::uniform(topo, LinkAttrs::default())
    }

    #[test]
    fn dijkstra_matches_bfs_on_unit_links() {
        let topo = Topology::torus(&[4, 4]);
        let links = unit_links(&topo);
        let d = dijkstra(&topo, &links, 1.0, NodeId(0));
        let bfs = topo.bfs_distances(NodeId(0));
        for (a, b) in d.iter().zip(bfs) {
            assert!((a - b as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn heavier_link_is_bypassed() {
        // Triangle 0-1-2 where the direct 0→2 link is very heavy: the
        // two-hop route wins.
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let links = LinkTable::from_fn(&topo, |u, v| match (u.0, v.0) {
            (0, 2) => LinkAttrs { bandwidth: 0.1, distance: 5.0, fault_prob: 0.0 },
            _ => LinkAttrs::default(),
        });
        let d = dijkstra(&topo, &links, 1.0, NodeId(0));
        assert!((d[2] - 2.0).abs() < 1e-12, "route should go via node 1: {}", d[2]);
    }

    #[test]
    fn reachable_within_budget() {
        let topo = Topology::mesh(&[5]);
        let links = unit_links(&topo);
        let r = reachable_within(&topo, &links, 1.0, NodeId(0), 2.0);
        assert_eq!(r, vec![NodeId(0), NodeId(1), NodeId(2)]);
        let all = reachable_within(&topo, &links, 1.0, NodeId(0), 10.0);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn weighted_diameter_of_ring() {
        let topo = Topology::ring(6);
        let links = unit_links(&topo);
        assert_eq!(weighted_diameter(&topo, &links, 1.0), Some(3.0));
    }

    #[test]
    fn disconnected_graph_has_no_diameter() {
        let topo = Topology::from_edges(4, &[(0, 1), (2, 3)]);
        let links = unit_links(&topo);
        assert_eq!(weighted_diameter(&topo, &links, 1.0), None);
        assert_eq!(mean_path_weight(&topo, &links, 1.0), None);
    }

    #[test]
    fn mean_path_weight_of_complete_graph_is_one() {
        let topo = Topology::complete(5);
        let links = unit_links(&topo);
        assert!((mean_path_weight(&topo, &links, 1.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn faulty_links_lengthen_paths() {
        let topo = Topology::ring(8);
        let clean = unit_links(&topo);
        let faulty =
            LinkTable::uniform(&topo, LinkAttrs { bandwidth: 1.0, distance: 1.0, fault_prob: 0.3 });
        let d_clean = weighted_diameter(&topo, &clean, 1.0).unwrap();
        let d_faulty = weighted_diameter(&topo, &faulty, 1.0).unwrap();
        assert!(d_faulty > d_clean);
    }

    /// Distances over a random-link torus, pinned to the values these
    /// functions returned when link attributes were looked up by `(u, v)`
    /// pair instead of by edge id: same draws, same summation order, so
    /// the same bits.
    #[test]
    fn random_link_distances_are_pinned() {
        let topo = Topology::torus(&[4, 5]);
        let links = LinkTable::random(&topo, 21, (0.5, 2.0), (0.5, 3.0), 0.1);
        let d = dijkstra(&topo, &links, 2.0, NodeId(0));
        let pinned = [
            0.0,
            0.9594682413962847,
            3.736013874015994,
            2.9203292125300955,
            2.3756847075652954,
            3.0186523843824866,
            1.7961559379510903,
            3.6951226214990447,
            4.357704197677919,
            3.4511896770820707,
            4.003751213987697,
            3.3055254663098523,
            3.9643339712144816,
            4.288807207555856,
            4.292927319253629,
            2.3349589919929596,
            2.3784778584024835,
            3.3588472214549405,
            3.6967280956194486,
            3.057393741999567,
        ];
        assert_eq!(d, pinned);
        assert_eq!(weighted_diameter(&topo, &links, 2.0), Some(4.789611667690753));
        assert_eq!(mean_path_weight(&topo, &links, 2.0), Some(2.6370488219027783));
        let reach: Vec<u32> =
            reachable_within(&topo, &links, 2.0, NodeId(0), 3.0).iter().map(|v| v.0).collect();
        assert_eq!(reach, [0, 1, 3, 4, 6, 15, 16]);
    }
}
