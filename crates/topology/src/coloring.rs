//! Edge colourings, used by the *dimension exchange* baseline: each colour
//! class is a matching, and one exchange sweep visits the classes in order
//! (on a hypercube the classes are exactly the dimensions).

use crate::graph::{NodeId, Topology, TopologyKind};

/// Partition of the edge set into matchings (colour classes).
#[derive(Debug, Clone)]
pub struct EdgeColoring {
    classes: Vec<Vec<(NodeId, NodeId)>>,
}

impl EdgeColoring {
    /// Colours the edges of `topo`.
    ///
    /// * Hypercubes get their natural dimension colouring (exactly `d`
    ///   classes);
    /// * everything else is coloured greedily (at most `2Δ − 1` classes).
    pub fn new(topo: &Topology) -> Self {
        if let TopologyKind::Hypercube(dim) = topo.kind() {
            let mut classes = vec![Vec::new(); *dim];
            for &(u, v) in topo.edge_slice() {
                let bit = (u.0 ^ v.0).trailing_zeros() as usize;
                classes[bit].push((u, v));
            }
            return EdgeColoring { classes };
        }
        let mut classes: Vec<Vec<(NodeId, NodeId)>> = Vec::new();
        // colour_used[c] tracks, per class, which nodes are already matched.
        let n = topo.node_count();
        let mut used: Vec<Vec<bool>> = Vec::new();
        for &(u, v) in topo.edge_slice() {
            let mut placed = false;
            for (c, class) in classes.iter_mut().enumerate() {
                if !used[c][u.idx()] && !used[c][v.idx()] {
                    class.push((u, v));
                    used[c][u.idx()] = true;
                    used[c][v.idx()] = true;
                    placed = true;
                    break;
                }
            }
            if !placed {
                let mut mask = vec![false; n];
                mask[u.idx()] = true;
                mask[v.idx()] = true;
                classes.push(vec![(u, v)]);
                used.push(mask);
            }
        }
        EdgeColoring { classes }
    }

    /// The colour classes, each a matching.
    pub fn classes(&self) -> &[Vec<(NodeId, NodeId)>] {
        &self.classes
    }

    /// Number of colours used.
    pub fn color_count(&self) -> usize {
        self.classes.len()
    }

    /// Checks the matching property of every class (used by tests and debug
    /// assertions).
    pub fn is_valid(&self, topo: &Topology) -> bool {
        let mut total = 0;
        for class in &self.classes {
            let mut seen = vec![false; topo.node_count()];
            for &(u, v) in class {
                if seen[u.idx()] || seen[v.idx()] || !topo.has_edge(u, v) {
                    return false;
                }
                seen[u.idx()] = true;
                seen[v.idx()] = true;
                total += 1;
            }
        }
        total == topo.edge_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_uses_dimension_classes() {
        let t = Topology::hypercube(4);
        let c = EdgeColoring::new(&t);
        assert_eq!(c.color_count(), 4);
        assert!(c.is_valid(&t));
        // Each class has 2^(d−1) edges.
        for class in c.classes() {
            assert_eq!(class.len(), 8);
        }
    }

    #[test]
    fn mesh_coloring_valid_and_bounded() {
        let t = Topology::mesh(&[5, 5]);
        let c = EdgeColoring::new(&t);
        assert!(c.is_valid(&t));
        assert!(c.color_count() < 2 * t.max_degree());
    }

    #[test]
    fn ring_coloring() {
        let t = Topology::ring(6);
        let c = EdgeColoring::new(&t);
        assert!(c.is_valid(&t));
        assert!(c.color_count() >= 2);
    }

    #[test]
    fn odd_ring_needs_three_colors() {
        let t = Topology::ring(5);
        let c = EdgeColoring::new(&t);
        assert!(c.is_valid(&t));
        assert!(c.color_count() >= 3);
    }

    #[test]
    fn random_graph_coloring_valid() {
        let t = Topology::random(24, 0.15, 11);
        let c = EdgeColoring::new(&t);
        assert!(c.is_valid(&t));
    }

    #[test]
    fn classes_cover_all_edges_exactly_once() {
        let t = Topology::torus(&[4, 4]);
        let c = EdgeColoring::new(&t);
        let covered: usize = c.classes().iter().map(|cl| cl.len()).sum();
        assert_eq!(covered, t.edge_count());
    }
}
