//! Declarative topology selection: a small, validatable description of
//! which generator to run with which parameters, so experiment harnesses
//! (`pp-scenario`, `pp-lab`) can name a network instead of hand-wiring a
//! constructor call. Mirrors the constructors in [`crate::generators`].

use crate::generators::{grid_node_count, tree_node_count};
use crate::graph::Topology;

/// A generator choice plus its parameters. [`TopologySpec::build`] runs the
/// corresponding constructor from [`crate::generators`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// k-ary n-dimensional mesh (no wraparound).
    Mesh {
        /// Extent per dimension, e.g. `[8, 8]`.
        dims: Vec<usize>,
    },
    /// k-ary n-dimensional torus (wraparound).
    Torus {
        /// Extent per dimension.
        dims: Vec<usize>,
    },
    /// n-dimensional hypercube (`2^dim` nodes).
    Hypercube {
        /// Dimension.
        dim: usize,
    },
    /// Simple cycle of `n ≥ 3` nodes.
    Ring {
        /// Node count.
        n: usize,
    },
    /// Hub-and-leaves star on `n ≥ 2` nodes.
    Star {
        /// Node count.
        n: usize,
    },
    /// Complete graph on `n` nodes.
    Complete {
        /// Node count.
        n: usize,
    },
    /// Balanced tree: each internal node has `arity` children.
    Tree {
        /// Children per internal node.
        arity: usize,
        /// Levels below the root (0 = a single root).
        depth: usize,
    },
    /// Connected seeded random graph (spanning tree + extra edges with
    /// probability `p`).
    Random {
        /// Node count (≥ 2).
        n: usize,
        /// Extra-edge probability.
        p: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Barabási–Albert preferential-attachment scale-free graph.
    ScaleFree {
        /// Node count (> m).
        n: usize,
        /// Edges each new node attaches with (≥ 1).
        m: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Random geometric graph on the unit square, augmented to
    /// connectivity.
    Geometric {
        /// Node count (≥ 2).
        n: usize,
        /// Link radius (> 0).
        radius: f64,
        /// Generator seed.
        seed: u64,
    },
}

impl TopologySpec {
    /// Checks parameter ranges without building the (possibly large) graph.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            TopologySpec::Mesh { dims } | TopologySpec::Torus { dims } => {
                if dims.is_empty() {
                    return Err("grid needs at least one dimension".into());
                }
                if dims.contains(&0) {
                    return Err("grid dimensions must be ≥ 1".into());
                }
            }
            TopologySpec::Hypercube { dim } => {
                if *dim == 0 {
                    return Err("hypercube dimension must be ≥ 1 (dim 0 is a single \
                                isolated node)"
                        .into());
                }
                if *dim > 20 {
                    return Err(format!("hypercube dimension {dim} unreasonably large"));
                }
            }
            TopologySpec::Ring { n } => {
                if *n < 3 {
                    return Err("a ring needs at least 3 nodes".into());
                }
            }
            TopologySpec::Star { n } => {
                if *n < 2 {
                    return Err("a star needs at least 2 nodes".into());
                }
            }
            TopologySpec::Complete { n } => {
                if *n == 0 {
                    return Err("a complete graph needs at least 1 node".into());
                }
            }
            TopologySpec::Tree { arity, .. } => {
                if *arity == 0 {
                    return Err("tree arity must be ≥ 1".into());
                }
            }
            TopologySpec::Random { n, p, .. } => {
                if *n < 2 {
                    return Err("a random graph needs at least 2 nodes".into());
                }
                if !(0.0..=1.0).contains(p) {
                    return Err(format!("random edge probability {p} not in [0, 1]"));
                }
            }
            TopologySpec::ScaleFree { n, m, .. } => {
                if *m == 0 {
                    return Err("scale-free attachment count m must be ≥ 1".into());
                }
                if *n <= *m {
                    return Err(format!("scale-free graph needs n > m (n={n}, m={m})"));
                }
            }
            TopologySpec::Geometric { n, radius, .. } => {
                if *n < 2 {
                    return Err("a geometric graph needs at least 2 nodes".into());
                }
                if !(*radius > 0.0 && radius.is_finite()) {
                    return Err(format!("geometric radius {radius} must be finite and > 0"));
                }
            }
        }
        // Sizes come from arithmetic alone, so a hostile spec is refused
        // before anything is allocated.
        let limit = u32::MAX as usize;
        match self.checked_node_count() {
            Some(n) if n <= limit => {}
            _ => return Err(format!("{}: node count exceeds the u32 node-id space", self.label())),
        }
        match self.slot_bound() {
            Some(slots) if slots <= limit => Ok(()),
            _ => Err(format!("{}: directed link slots exceed the u32 CSR offsets", self.label())),
        }
    }

    /// Number of nodes, or `None` when it overflows `usize`.
    fn checked_node_count(&self) -> Option<usize> {
        match self {
            TopologySpec::Mesh { dims } | TopologySpec::Torus { dims } => grid_node_count(dims),
            TopologySpec::Hypercube { dim } => 1usize.checked_shl(u32::try_from(*dim).ok()?),
            TopologySpec::Tree { arity, depth } => tree_node_count(*arity, *depth),
            TopologySpec::Ring { n }
            | TopologySpec::Star { n }
            | TopologySpec::Complete { n }
            | TopologySpec::Random { n, .. }
            | TopologySpec::ScaleFree { n, .. }
            | TopologySpec::Geometric { n, .. } => Some(*n),
        }
    }

    /// The most directed CSR slots (twice the edge-list entries) the
    /// generator can emit, or `None` on overflow. Exact except for
    /// `random` with `p > 0` (a spanning tree plus possibly every pair)
    /// and `geometric` (possibly a complete graph).
    fn slot_bound(&self) -> Option<usize> {
        let n = self.checked_node_count()?;
        let edges = match self {
            TopologySpec::Mesh { dims } | TopologySpec::Torus { dims } => {
                // Per axis of extent e ≥ 2: n/e · (e − 1) links, plus n/e
                // wraparound links on a torus with e > 2.
                let wrap = matches!(self, TopologySpec::Torus { .. });
                dims.iter().filter(|&&e| e >= 2).try_fold(0usize, |acc, &e| {
                    acc.checked_add(n / e * (e - 1 + usize::from(wrap && e > 2)))
                })?
            }
            TopologySpec::Hypercube { dim } => n.checked_mul(*dim)? / 2,
            TopologySpec::Ring { .. } => n,
            TopologySpec::Star { .. } | TopologySpec::Tree { .. } => n.saturating_sub(1),
            TopologySpec::Random { p, .. } if *p == 0.0 => n.saturating_sub(1),
            TopologySpec::ScaleFree { m, .. } => {
                let clique = m.checked_add(1)?.checked_mul(*m)? / 2;
                clique.checked_add(m.checked_mul(n.checked_sub(m + 1)?)?)?
            }
            TopologySpec::Random { .. } => {
                n.saturating_sub(1).checked_add(n.checked_mul(n.saturating_sub(1))? / 2)?
            }
            TopologySpec::Complete { .. } | TopologySpec::Geometric { .. } => {
                n.checked_mul(n.saturating_sub(1))? / 2
            }
        };
        edges.checked_mul(2)
    }

    /// Number of nodes the built topology will have.
    ///
    /// # Panics
    /// Panics if the count overflows `usize`; [`TopologySpec::validate`]
    /// rejects such specs.
    pub fn node_count(&self) -> usize {
        self.checked_node_count().expect("topology node count overflows usize")
    }

    /// Runs the generator.
    ///
    /// # Panics
    /// Panics on invalid parameters; call [`TopologySpec::validate`] first
    /// for a `Result`.
    pub fn build(&self) -> Topology {
        match self {
            TopologySpec::Mesh { dims } => Topology::mesh(dims),
            TopologySpec::Torus { dims } => Topology::torus(dims),
            TopologySpec::Hypercube { dim } => Topology::hypercube(*dim),
            TopologySpec::Ring { n } => Topology::ring(*n),
            TopologySpec::Star { n } => Topology::star(*n),
            TopologySpec::Complete { n } => Topology::complete(*n),
            TopologySpec::Tree { arity, depth } => Topology::tree(*arity, *depth),
            TopologySpec::Random { n, p, seed } => Topology::random(*n, *p, *seed),
            TopologySpec::ScaleFree { n, m, seed } => Topology::scale_free(*n, *m, *seed),
            TopologySpec::Geometric { n, radius, seed } => {
                Topology::random_geometric(*n, *radius, *seed)
            }
        }
    }

    /// Short human-readable label, e.g. `torus 8x8` or `random 64 (p=0.05)`.
    pub fn label(&self) -> String {
        fn dims_label(dims: &[usize]) -> String {
            dims.iter().map(usize::to_string).collect::<Vec<_>>().join("x")
        }
        match self {
            TopologySpec::Mesh { dims } => format!("mesh {}", dims_label(dims)),
            TopologySpec::Torus { dims } => format!("torus {}", dims_label(dims)),
            TopologySpec::Hypercube { dim } => format!("hypercube {dim}"),
            TopologySpec::Ring { n } => format!("ring {n}"),
            TopologySpec::Star { n } => format!("star {n}"),
            TopologySpec::Complete { n } => format!("complete {n}"),
            TopologySpec::Tree { arity, depth } => format!("tree {arity}^{depth}"),
            TopologySpec::Random { n, p, .. } => format!("random {n} (p={p})"),
            TopologySpec::ScaleFree { n, m, .. } => format!("scale-free {n} (m={m})"),
            TopologySpec::Geometric { n, radius, .. } => format!("geometric {n} (r={radius})"),
        }
    }
}

impl serde::Serialize for TopologySpec {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let tagged = |kind: &str, mut fields: Vec<(String, Value)>| {
            let mut entries = vec![("kind".to_string(), Value::Str(kind.to_string()))];
            entries.append(&mut fields);
            Value::Object(entries)
        };
        match self {
            TopologySpec::Mesh { dims } => {
                tagged("mesh", vec![("dims".to_string(), dims.to_value())])
            }
            TopologySpec::Torus { dims } => {
                tagged("torus", vec![("dims".to_string(), dims.to_value())])
            }
            TopologySpec::Hypercube { dim } => {
                tagged("hypercube", vec![("dim".to_string(), dim.to_value())])
            }
            TopologySpec::Ring { n } => tagged("ring", vec![("n".to_string(), n.to_value())]),
            TopologySpec::Star { n } => tagged("star", vec![("n".to_string(), n.to_value())]),
            TopologySpec::Complete { n } => {
                tagged("complete", vec![("n".to_string(), n.to_value())])
            }
            TopologySpec::Tree { arity, depth } => tagged(
                "tree",
                vec![
                    ("arity".to_string(), arity.to_value()),
                    ("depth".to_string(), depth.to_value()),
                ],
            ),
            TopologySpec::Random { n, p, seed } => tagged(
                "random",
                vec![
                    ("n".to_string(), n.to_value()),
                    ("p".to_string(), p.to_value()),
                    ("seed".to_string(), seed.to_value()),
                ],
            ),
            TopologySpec::ScaleFree { n, m, seed } => tagged(
                "scale-free",
                vec![
                    ("n".to_string(), n.to_value()),
                    ("m".to_string(), m.to_value()),
                    ("seed".to_string(), seed.to_value()),
                ],
            ),
            TopologySpec::Geometric { n, radius, seed } => tagged(
                "geometric",
                vec![
                    ("n".to_string(), n.to_value()),
                    ("radius".to_string(), radius.to_value()),
                    ("seed".to_string(), seed.to_value()),
                ],
            ),
        }
    }
}

impl serde::Deserialize for TopologySpec {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let kind: String = v.field("kind")?;
        match kind.as_str() {
            "mesh" => Ok(TopologySpec::Mesh { dims: v.field("dims")? }),
            "torus" => Ok(TopologySpec::Torus { dims: v.field("dims")? }),
            "hypercube" => Ok(TopologySpec::Hypercube { dim: v.field("dim")? }),
            "ring" => Ok(TopologySpec::Ring { n: v.field("n")? }),
            "star" => Ok(TopologySpec::Star { n: v.field("n")? }),
            "complete" => Ok(TopologySpec::Complete { n: v.field("n")? }),
            "tree" => Ok(TopologySpec::Tree { arity: v.field("arity")?, depth: v.field("depth")? }),
            "random" => Ok(TopologySpec::Random {
                n: v.field("n")?,
                p: v.field("p")?,
                seed: v.field("seed")?,
            }),
            "scale-free" => Ok(TopologySpec::ScaleFree {
                n: v.field("n")?,
                m: v.field("m")?,
                seed: v.field("seed")?,
            }),
            "geometric" => Ok(TopologySpec::Geometric {
                n: v.field("n")?,
                radius: v.field("radius")?,
                seed: v.field("seed")?,
            }),
            other => Err(format!("unknown topology kind `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_matches_direct_constructors() {
        let cases = vec![
            (TopologySpec::Mesh { dims: vec![3, 4] }, Topology::mesh(&[3, 4])),
            (TopologySpec::Torus { dims: vec![4, 4] }, Topology::torus(&[4, 4])),
            (TopologySpec::Torus { dims: vec![2, 3, 1] }, Topology::torus(&[2, 3, 1])),
            (TopologySpec::Mesh { dims: vec![1, 5] }, Topology::mesh(&[1, 5])),
            (TopologySpec::Hypercube { dim: 3 }, Topology::hypercube(3)),
            (TopologySpec::Ring { n: 7 }, Topology::ring(7)),
            (TopologySpec::Star { n: 5 }, Topology::star(5)),
            (TopologySpec::Complete { n: 5 }, Topology::complete(5)),
            (TopologySpec::Tree { arity: 2, depth: 3 }, Topology::tree(2, 3)),
            (TopologySpec::Random { n: 16, p: 0.1, seed: 3 }, Topology::random(16, 0.1, 3)),
            (TopologySpec::ScaleFree { n: 24, m: 2, seed: 3 }, Topology::scale_free(24, 2, 3)),
            (
                TopologySpec::Geometric { n: 24, radius: 0.3, seed: 3 },
                Topology::random_geometric(24, 0.3, 3),
            ),
        ];
        for (spec, direct) in cases {
            spec.validate().expect("valid spec");
            let built = spec.build();
            assert_eq!(built.node_count(), direct.node_count(), "{}", spec.label());
            assert_eq!(built.edge_slice(), direct.edge_slice(), "{}", spec.label());
            assert_eq!(spec.node_count(), direct.node_count(), "{}", spec.label());
            let slots = 2 * built.edge_count();
            match spec {
                TopologySpec::Random { .. } | TopologySpec::Geometric { .. } => {
                    assert!(spec.slot_bound().unwrap() >= slots, "{}", spec.label())
                }
                _ => assert_eq!(spec.slot_bound(), Some(slots), "{}", spec.label()),
            }
        }
    }

    #[test]
    fn tree_node_count_closed_form() {
        for (arity, depth) in [(1, 4), (2, 0), (2, 3), (3, 2)] {
            let spec = TopologySpec::Tree { arity, depth };
            assert_eq!(spec.node_count(), spec.build().node_count(), "arity {arity} depth {depth}");
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(TopologySpec::Mesh { dims: vec![] }.validate().is_err());
        assert!(TopologySpec::Torus { dims: vec![4, 0] }.validate().is_err());
        assert!(TopologySpec::Hypercube { dim: 64 }.validate().is_err());
        assert!(TopologySpec::Ring { n: 2 }.validate().is_err());
        assert!(TopologySpec::Star { n: 1 }.validate().is_err());
        assert!(TopologySpec::Tree { arity: 0, depth: 2 }.validate().is_err());
        assert!(TopologySpec::Random { n: 8, p: 1.5, seed: 0 }.validate().is_err());
        assert!(TopologySpec::Random { n: 1, p: 0.5, seed: 0 }.validate().is_err());
        assert!(TopologySpec::ScaleFree { n: 8, m: 0, seed: 0 }.validate().is_err());
        assert!(TopologySpec::ScaleFree { n: 3, m: 3, seed: 0 }.validate().is_err());
        assert!(TopologySpec::Geometric { n: 1, radius: 0.3, seed: 0 }.validate().is_err());
        assert!(TopologySpec::Geometric { n: 8, radius: 0.0, seed: 0 }.validate().is_err());
        assert!(TopologySpec::Geometric { n: 8, radius: f64::NAN, seed: 0 }.validate().is_err());
    }

    /// Hostile sizes are refused by arithmetic alone: none of these specs
    /// is built (each would need gigabytes or wrap an index).
    #[test]
    fn oversized_specs_are_rejected_without_building() {
        let big = 1usize << 32;
        let rejected = [
            TopologySpec::Torus { dims: vec![100_000, 100_000] },
            TopologySpec::Mesh { dims: vec![65_536, 65_536] },
            // The product wraps usize.
            TopologySpec::Torus { dims: vec![big, big, big] },
            // Fits the node ids (4 294 836 225 nodes), not the slots.
            TopologySpec::Mesh { dims: vec![65_535, 65_535] },
            TopologySpec::Ring { n: big },
            TopologySpec::Ring { n: (u32::MAX / 2) as usize + 1 },
            TopologySpec::Star { n: usize::MAX },
            TopologySpec::Complete { n: 70_000 },
            // 2^41 − 1 nodes; arity^depth wraps usize at depth 70.
            TopologySpec::Tree { arity: 2, depth: 40 },
            TopologySpec::Tree { arity: 2, depth: 70 },
            TopologySpec::Tree { arity: usize::MAX, depth: 2 },
            TopologySpec::Random { n: 70_000, p: 0.001, seed: 1 },
            TopologySpec::ScaleFree { n: 1 << 31, m: 2, seed: 1 },
            TopologySpec::ScaleFree { n: usize::MAX, m: usize::MAX - 1, seed: 1 },
            TopologySpec::Geometric { n: 70_000, radius: 0.01, seed: 1 },
        ];
        for spec in rejected {
            let err = spec.validate().unwrap_err();
            assert!(err.contains("u32"), "{}: {err}", spec.label());
        }
        let accepted = [
            TopologySpec::Torus { dims: vec![1024, 1024] },
            TopologySpec::Ring { n: (u32::MAX / 2) as usize },
            TopologySpec::Tree { arity: 2, depth: 30 },
            TopologySpec::Random { n: 100_000, p: 0.0, seed: 1 },
            TopologySpec::Complete { n: 65_536 },
        ];
        for spec in accepted {
            assert_eq!(spec.validate(), Ok(()), "{}", spec.label());
        }
    }

    #[test]
    fn degenerate_hypercube_rejected() {
        // dim 0 is a single isolated node: dimension exchange's edge
        // coloring has no classes to cycle through, so the spec layer
        // refuses to describe it rather than let every downstream balancer
        // define its own behavior.
        let err = TopologySpec::Hypercube { dim: 0 }.validate().unwrap_err();
        assert!(err.contains("≥ 1"), "got: {err}");
        assert!(TopologySpec::Hypercube { dim: 1 }.validate().is_ok());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TopologySpec::Torus { dims: vec![8, 8] }.label(), "torus 8x8");
        assert_eq!(TopologySpec::Hypercube { dim: 6 }.label(), "hypercube 6");
        assert_eq!(TopologySpec::Random { n: 64, p: 0.05, seed: 1 }.label(), "random 64 (p=0.05)");
        assert_eq!(TopologySpec::ScaleFree { n: 64, m: 2, seed: 1 }.label(), "scale-free 64 (m=2)");
        assert_eq!(
            TopologySpec::Geometric { n: 64, radius: 0.2, seed: 1 }.label(),
            "geometric 64 (r=0.2)"
        );
    }
}
