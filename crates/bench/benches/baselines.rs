//! Per-decision cost of every balancing policy (E7 substrate): one
//! `decide()` call on a loaded 8×8 torus node view.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pp_core::balancer::ParticlePlaneBalancer;
use pp_core::baselines::*;
use pp_core::params::PhysicsConfig;
use pp_sim::balancer::{build_view, GlobalView, LinkView, LoadBalancer, ViewScratch};
use pp_sim::state::SystemState;
use pp_tasking::graph::TaskGraph;
use pp_tasking::resources::ResourceMatrix;
use pp_tasking::task::{Task, TaskId};
use pp_topology::graph::{NodeId, Topology};
use pp_topology::links::{LinkAttrs, LinkTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn loaded_state() -> SystemState {
    let topo = Topology::torus(&[8, 8]);
    let links = LinkTable::uniform(&topo, LinkAttrs::default());
    let mut s = SystemState::new(topo, links, TaskGraph::new(), ResourceMatrix::none());
    let mut id = 0u64;
    for i in 0..64u32 {
        let count = if i == 0 { 64 } else { i % 3 };
        for _ in 0..count {
            s.add_task(NodeId(i), Task::new(TaskId(id), 1.0, i));
            id += 1;
        }
    }
    s
}

fn bench_decide(c: &mut Criterion) {
    let mut group = c.benchmark_group("decide_hot_node");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(2));

    let state = loaded_state();
    let heights = state.heights();
    let topo = state.topo.clone();
    let balancers: Vec<Box<dyn LoadBalancer>> = vec![
        Box::new(ParticlePlaneBalancer::new(PhysicsConfig::default())),
        Box::new(DiffusionBalancer::optimal(&topo)),
        Box::new(DimensionExchangeBalancer::new(&topo)),
        Box::new(GradientModelBalancer::new(1.0, 2.0)),
        Box::new(CwnBalancer::new(1.0)),
        Box::new(RandomNeighborBalancer::new(1.0)),
        Box::new(SenderInitiatedBalancer::new(3.0, 2.0, 2)),
    ];
    for mut balancer in balancers {
        let name = balancer.name().to_string();
        let global = GlobalView { topo: &state.topo, heights: &heights, round: 1, time: 1.0 };
        balancer.begin_round(&global);
        group.bench_function(BenchmarkId::from_parameter(&name), |b| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut scratch = ViewScratch::new();
            let view = build_view(
                &mut scratch,
                &state,
                NodeId(0),
                &heights,
                &LinkView::all_up(&state, 1.0),
                1,
                1.0,
            );
            b.iter(|| balancer.decide(&view, &mut rng).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decide);
criterion_main!(benches);
