//! Layer probes: calls that time one layer on its own, for the per-layer
//! metrics a workload's run does not produce by itself.

use crate::op::{self, Options, Outcome};
use crate::stats::Spread;
use crate::workloads;
use pp_scenario::spec::{
    ArrivalSpec, BalancerSpec, ChurnSpec, FaultPlanSpec, ScenarioSpec, WorkloadSpec,
};
use pp_sim::balancer::{build_view, GlobalView, LinkView, ViewScratch};
use pp_sim::engine::Engine;
use pp_sim::pool::ShardPool;
use pp_sim::strategy::SimulationStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Repeats `f` until five calls or 0.2 s, whichever is later, and returns
/// the median of its results.
fn repeat(mut f: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 5 || start.elapsed().as_secs_f64() < 0.2 {
        out.push(f());
    }
    Spread::of(&out).expect("at least five samples").median
}

/// ns per node of a one-thread replay of `build_view` + `decide_into` over
/// `engine`'s current state, every link up, with a fresh policy instance
/// built from the spec (so the engine's own policy and RNG streams are
/// untouched).
pub fn decide_replay(engine: &Engine, spec: &ScenarioSpec) -> f64 {
    let state = engine.state();
    let heights = state.height_slice();
    let (round, time) = (engine.round(), engine.time());
    let mut policy = spec.balancer.build(&state.topo);
    policy.begin_round(&GlobalView { topo: &state.topo, heights, round, time });
    let links = LinkView::all_up(state, spec.engine.weight_c);
    let mut scratch = ViewScratch::new();
    let mut out = Vec::new();
    let n = state.node_count() as f64;
    repeat(|| {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let t = Instant::now();
        for v in state.topo.nodes() {
            let view = build_view(&mut scratch, state, v, heights, &links, round, time);
            policy.decide_into(&view, &mut rng, &mut out);
            out.clear();
        }
        t.elapsed().as_nanos() as f64 / n
    })
}

/// ns per no-op `ShardPool::run_shards` call, 2 workers × 64 shards: the
/// pool's publish, wake and done-barrier with no sweep work.
pub fn barrier_ns() -> f64 {
    const CALLS: u32 = 1000;
    let pool = ShardPool::new(2, 64);
    let mut slots = vec![0u8; 64];
    for _ in 0..CALLS / 10 {
        pool.run_shards(&mut slots, &|_, _| {});
    }
    repeat(|| {
        let t = Instant::now();
        for _ in 0..CALLS {
            pool.run_shards(&mut slots, &|_, _| {});
        }
        t.elapsed().as_nanos() as f64 / f64::from(CALLS)
    })
}

/// ns per fast-forwarded round on an idle copy of `spec`: same topology
/// and shard count, no load, arrivals, faults or churn, a policy without
/// jitter and the event strategy, so every round takes the skip path.
pub fn skipped_round_ns(spec: &ScenarioSpec) -> Result<f64, String> {
    const ROUNDS: u64 = 1000;
    let mut idle = spec.clone();
    idle.workload = WorkloadSpec::Empty;
    idle.arrival = ArrivalSpec::Quiescent;
    idle.faults = FaultPlanSpec::default();
    idle.churn = ChurnSpec::None;
    idle.balancer = BalancerSpec::default();
    idle.engine.strategy = SimulationStrategy::Event;
    idle.engine.threads = 1;
    idle.checkpoint = None;
    let mut engine = idle.build_engine()?;
    // The first round sweeps every shard once; after it all are clean.
    engine.run_rounds(2);
    let executed = engine.executed_rounds();
    let ns = repeat(|| {
        let t = Instant::now();
        for _ in 0..ROUNDS {
            black_box(engine.run_rounds(1));
        }
        t.elapsed().as_nanos() as f64 / ROUNDS as f64
    });
    if engine.executed_rounds() != executed {
        return Err("idle engine executed a round".into());
    }
    Ok(ns)
}

/// A traced run of the scaled-down `churn-ckpt-16k` (see
/// [`workloads::scaled_down`]), for the checkpoint layer's metrics on
/// workloads that take no checkpoints.
pub fn checkpoint_run() -> Result<Outcome, String> {
    let spec = workloads::scaled_down(workloads::load("churn-ckpt-16k")?);
    op::run(&spec.to_json_pretty(), Options { traced: true, resume: true })
}
