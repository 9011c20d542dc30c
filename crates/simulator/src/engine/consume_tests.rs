//! Differential test of the active-set consumption sweep against the
//! per-node loop it replaced, kept here as the reference.

use super::*;
use crate::balancer::NullBalancer;
use pp_tasking::task::TaskId;
use proptest::prelude::*;

impl Engine {
    /// The per-node consumption loop the active-set sweep replaced: every
    /// node, in ascending order, through `consume_work`, marked dirty at
    /// every sweep it consumes in.
    fn advance_time_to_reference(&mut self, t: f64) {
        let dt = t - self.time;
        if dt > 0.0 && self.config.consume_rate > 0.0 {
            let amount = dt * self.config.consume_rate;
            for i in 0..self.state.node_count() {
                if self.state.task_count_slice()[i] == 0 {
                    continue;
                }
                if !self.down_nodes.is_empty() && self.down_nodes[i] {
                    continue;
                }
                let scaled = if self.speeds.is_empty() { amount } else { amount * self.speeds[i] };
                if scaled > 0.0 {
                    let v = NodeId(i as u32);
                    let (done, used) = self.state.consume_work(v, scaled);
                    self.completed_tasks += done;
                    if done > 0 || used > 0.0 {
                        self.mark_node_dirty(v);
                    }
                }
            }
        }
        self.time = self.time.max(t);
    }

    /// What `eval_shard` does to the flags of a sweep that emitted nothing,
    /// applied to every shard: the start of a new dirty epoch.
    fn clear_dirty_flags(&mut self) {
        self.shards.iter_mut().for_each(|s| s.dirty = false);
        self.consumers_marked = false;
    }
}

fn engine(w: usize, h: usize, shards: usize, rate: f64, speeds: &[f64]) -> Engine {
    EngineBuilder::new(Topology::torus(&[w, h]))
        .balancer(NullBalancer)
        .config(EngineConfig { shards, consume_rate: rate, ..Default::default() })
        .node_speeds(speeds.to_vec())
        .seed(1)
        .build()
}

/// Bit-level equality of everything the sweep can touch. The candidate's
/// task records are compared after a write-back on a clone, so comparing
/// never changes when the candidate itself writes back.
fn assert_same(cand: &Engine, reference: &Engine, step: usize) {
    let mut synced = cand.state.clone();
    synced.sync_work();
    let (a, b) = (&synced, &reference.state);
    for i in 0..a.node_count() {
        let v = NodeId(i as u32);
        let bits = |s: &SystemState| -> Vec<(TaskId, u64, u64)> {
            s.node(v).tasks().iter().map(|t| (t.id, t.size.to_bits(), t.work.to_bits())).collect()
        };
        assert_eq!(bits(a), bits(b), "step {step}: tasks of node {i}");
        assert_eq!(a.height_slice()[i].to_bits(), b.height_slice()[i].to_bits(), "step {step}");
    }
    let stats = |s: &SystemState| {
        let x = s.stat_snapshot();
        let f = [x.height_sum, x.height_sq_sum, x.stat_peak_sum, x.stat_peak_sq].map(f64::to_bits);
        (f, x.stat_ops)
    };
    assert_eq!(stats(a), stats(b), "step {step}: incremental statistics");
    assert_eq!(a.resident_tasks(), b.resident_tasks(), "step {step}");
    assert_eq!(cand.completed_tasks, reference.completed_tasks, "step {step}: completions");
    let flags = |e: &Engine| e.shards.iter().map(|s| s.dirty).collect::<Vec<_>>();
    assert_eq!(flags(cand), flags(reference), "step {step}: shard dirty flags");
    assert_eq!(cand.time.to_bits(), reference.time.to_bits(), "step {step}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Ops are `(selector, node, x, y)`: selector 0–5 advances the clock by
    /// a random step (1 in 6 of them by an ulp-scale one), 6 starts a new
    /// dirty epoch, 7 adds a task (a tenth of them with zero work), 8
    /// migrates a node's front task away, 9 flips a node's down flag when
    /// churn is on, 10 writes work back, 11 advances past several tasks.
    #[test]
    fn active_set_sweep_matches_per_node_loop(
        shape in (2usize..7, 2usize..7, 1usize..5, 0.05f64..2.0),
        tasks in prop::collection::vec((0usize..36, 0.1f64..4.0, 0.0f64..3.0), 0..80),
        knobs in (0u8..2, prop::collection::vec(0.25f64..4.0, 36), 0u8..2,
                  prop::collection::vec(0u8..4, 36)),
        ops in prop::collection::vec((0u8..12, 0usize..36, 0.0f64..1.0, 0.1f64..3.0), 1..70),
    ) {
        let (w, h, shards, rate) = shape;
        let n = w * h;
        let (hetero, speeds, churn, down) = knobs;
        let speeds = if hetero == 1 { speeds[..n].to_vec() } else { Vec::new() };
        let mut cand = engine(w, h, shards, rate, &speeds);
        let mut reference = engine(w, h, shards, rate, &speeds);
        if churn == 1 {
            let down: Vec<bool> = down[..n].iter().map(|&d| d == 0).collect();
            cand.down_nodes = down.clone();
            reference.down_nodes = down;
        }
        let mut next_id = 0u64;
        let add = |e: &mut Engine, node: usize, size: f64, work: f64, id: u64| {
            let work = if work < 0.3 { 0.0 } else { work };
            let v = NodeId(node as u32);
            e.state.add_task(v, Task::new(TaskId(id), size, node as u32).with_work(work));
            e.mark_node_dirty(v);
        };
        for &(node, size, work) in &tasks {
            for e in [&mut cand, &mut reference] {
                add(e, node % n, size, work, next_id);
            }
            next_id += 1;
        }
        cand.clear_dirty_flags();
        reference.clear_dirty_flags();
        assert_same(&cand, &reference, 0);

        for (step, &(sel, node, x, y)) in ops.iter().enumerate() {
            let v = NodeId((node % n) as u32);
            match sel {
                0..=5 | 11 => {
                    let dt = match sel {
                        0 => x * 1e-12,
                        11 => 2.0 + 4.0 * x,
                        _ => x,
                    };
                    let t = cand.time + dt;
                    cand.advance_time_to(t);
                    reference.advance_time_to_reference(t);
                }
                6 => {
                    cand.clear_dirty_flags();
                    reference.clear_dirty_flags();
                }
                7 => {
                    for e in [&mut cand, &mut reference] {
                        add(e, v.idx(), y, x * 3.0, next_id);
                    }
                    next_id += 1;
                }
                8 => {
                    let Some(front) = reference.state.node(v).tasks().first().map(|t| t.id) else {
                        continue;
                    };
                    let a = cand.state.remove_task(v, front).expect("resident in candidate");
                    let b = reference.state.remove_task(v, front).expect("resident");
                    prop_assert_eq!(a.work.to_bits(), b.work.to_bits(), "migrated work");
                    cand.mark_node_dirty(v);
                    reference.mark_node_dirty(v);
                }
                9 if churn == 1 => {
                    for e in [&mut cand, &mut reference] {
                        e.down_nodes[v.idx()] = !e.down_nodes[v.idx()];
                        e.mark_node_dirty(v);
                    }
                }
                10 => cand.state.sync_work(),
                _ => {}
            }
            assert_same(&cand, &reference, step + 1);
        }
    }
}

/// The sweep must stop visiting nodes as they empty and pick them up again
/// when work lands, so a drained system sweeps nothing.
#[test]
fn active_set_follows_tasks_in_and_out() {
    let mut e = engine(2, 2, 1, 1.0, &[]);
    let active = |e: &Engine| e.state.active_words()[0];
    assert_eq!(active(&e), 0);
    e.state.add_task(NodeId(2), Task::new(TaskId(0), 1.0, 2).with_work(0.5));
    e.state.add_task(NodeId(2), Task::new(TaskId(1), 1.0, 2).with_work(0.5));
    assert_eq!(active(&e), 0b100);
    e.advance_time_to(0.25);
    assert_eq!(active(&e), 0b100);
    assert_eq!(e.completed_tasks, 0);
    e.advance_time_to(1.0);
    assert_eq!((active(&e), e.completed_tasks), (0, 2));
    e.state.restore_node(NodeId(1), vec![Task::new(TaskId(2), 1.0, 1)], 1.0);
    assert_eq!(active(&e), 0b10);
}
