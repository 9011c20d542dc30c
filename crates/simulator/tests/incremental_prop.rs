//! Property test: the incrementally maintained height cache and imbalance
//! sufficient statistics (`Σh`, `Σh²`) must agree with a from-scratch
//! recompute after *any* interleaving of task adds, removals (migrations),
//! and work consumption.

use pp_metrics::imbalance::Imbalance;
use pp_sim::state::SystemState;
use pp_tasking::graph::TaskGraph;
use pp_tasking::resources::ResourceMatrix;
use pp_tasking::task::{Task, TaskId};
use pp_topology::graph::{NodeId, Topology};
use pp_topology::links::{LinkAttrs, LinkTable};
use proptest::prelude::*;

const NODES: usize = 6;

fn fresh_state() -> SystemState {
    let topo = Topology::ring(NODES);
    let links = LinkTable::uniform(&topo, LinkAttrs::default());
    SystemState::new(topo, links, TaskGraph::new(), ResourceMatrix::none())
}

/// From-scratch recompute of every statistic the state maintains
/// incrementally: per-node height = Σ resident task sizes.
fn check_against_scratch(s: &SystemState) -> Result<(), String> {
    for i in 0..NODES {
        let node = s.node(NodeId(i as u32));
        let expect: f64 = node.tasks().iter().map(|t| t.size).sum();
        let cached = s.height_slice()[i];
        if (cached - node.height()).abs() > 1e-9 {
            return Err(format!("cache {cached} != node height {}", node.height()));
        }
        if (cached - expect).abs() > 1e-6 {
            return Err(format!("node {i}: cached {cached} vs recomputed {expect}"));
        }
    }
    let expect = Imbalance::of(s.height_slice());
    if (s.cov() - expect.cov).abs() > 1e-6 * (1.0 + expect.cov) {
        return Err(format!("cov {} vs recomputed {}", s.cov(), expect.cov));
    }
    if (s.mean_height() - expect.mean).abs() > 1e-6 * (1.0 + expect.mean.abs()) {
        return Err(format!("mean {} vs recomputed {}", s.mean_height(), expect.mean));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ops are encoded as (selector, node, size) triples:
    /// selector % 3 == 0 → add a task; 1 → migrate the front task of `node`
    /// to the next node (remove + add, what the engine's launch/arrival
    /// path does); 2 → consume work on `node`.
    #[test]
    fn incremental_stats_match_recompute(
        ops in prop::collection::vec((0u8..3, 0usize..NODES, 0.1f64..4.0), 1..=120),
    ) {
        let mut s = fresh_state();
        let mut next_id = 0u64;
        for (sel, node, size) in ops {
            let v = NodeId(node as u32);
            match sel {
                0 => {
                    s.add_task(v, Task::new(TaskId(next_id), size, v.0));
                    next_id += 1;
                }
                1 => {
                    let front = s.node(v).tasks().first().map(|t| t.id);
                    if let Some(id) = front {
                        let task = s.remove_task(v, id).expect("front task is resident");
                        let dest = NodeId(((node + 1) % NODES) as u32);
                        s.add_task(dest, task);
                    }
                }
                _ => {
                    s.consume_work(v, size);
                }
            }
            // The invariant holds after *every* mutation, not just at the end.
            if let Err(e) = check_against_scratch(&s) {
                prop_assert!(false, "{e}");
            }
        }
    }

    /// Long consume-heavy sequences drive heights to zero and back; the
    /// sufficient statistics must never drift into a negative variance (the
    /// `cov` clamp) or a stale cache.
    #[test]
    fn repeated_fill_and_drain_does_not_drift(
        rounds in 1usize..20,
        size in 0.5f64..3.0,
    ) {
        let mut s = fresh_state();
        let mut id = 0u64;
        for _ in 0..rounds {
            for i in 0..NODES {
                s.add_task(NodeId(i as u32), Task::new(TaskId(id), size, i as u32));
                id += 1;
            }
            for i in 0..NODES {
                s.consume_work(NodeId(i as u32), size * 2.0);
            }
        }
        if let Err(e) = check_against_scratch(&s) {
            prop_assert!(false, "{e}");
        }
        // Everything consumed: flat surface, zero CoV.
        prop_assert!(s.cov().abs() < 1e-9, "cov {}", s.cov());
    }
}
