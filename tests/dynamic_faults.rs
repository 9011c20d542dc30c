//! Integration tests for the non-quiescent regime (§1): dynamic task
//! arrivals, work consumption, and link faults — the conditions the paper
//! says real systems impose and static schemes cannot handle.

use particle_plane::prelude::*;

#[test]
fn arrivals_plus_balancing_keep_cov_bounded() {
    let topo = Topology::torus(&[6, 6]);
    let mut engine = EngineBuilder::new(topo)
        .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
        .config(EngineConfig {
            arrival: ArrivalProcess::Poisson { rate: 10.0, size_min: 1.0, size_max: 1.0 },
            ..Default::default()
        })
        .seed(3)
        .build();
    engine.run_rounds(300);
    let r = engine.report();
    // Arrivals are uniform, so even unbalanced they stay moderate; the
    // balancer should keep the tail of the CoV series bounded.
    let tail: Vec<f64> = r.series.points().iter().rev().take(50).map(|&(_, v)| v).collect();
    let tail_mean = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(tail_mean < 1.0, "steady-state CoV {tail_mean}");
    assert!(r.total_load > 0.0);
}

#[test]
fn consumption_drains_the_system() {
    let topo = Topology::torus(&[4, 4]);
    let w = Workload::hotspot(16, 0, 64.0);
    let mut engine = EngineBuilder::new(topo)
        .workload(w)
        .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
        .config(EngineConfig { consume_rate: 0.5, ..Default::default() })
        .seed(5)
        .build();
    engine.run_rounds(400).drain(100.0);
    let r = engine.report();
    assert!(r.completed_tasks > 0, "tasks should complete");
    assert!(r.total_load < 64.0, "consumption should have drained load: {}", r.total_load);
}

#[test]
fn balancing_speeds_up_completion_under_hotspot() {
    // With work consumed at each node, spreading the hotspot lets idle
    // nodes contribute: the balanced system must finish more work.
    let run = |balance: bool| {
        let topo = Topology::torus(&[4, 4]);
        let w = Workload::hotspot(16, 0, 64.0);
        let mut builder = EngineBuilder::new(topo)
            .workload(w)
            .config(EngineConfig { consume_rate: 0.25, ..Default::default() })
            .seed(8);
        builder = if balance {
            builder.balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
        } else {
            builder.balancer(NullBalancer)
        };
        let mut engine = builder.build();
        engine.run_rounds(60);
        engine.report().completed_tasks
    };
    let with = run(true);
    let without = run(false);
    assert!(with > without, "balancing should raise throughput: {with} vs {without} tasks done");
}

#[test]
fn fault_storm_does_not_lose_load() {
    let topo = Topology::torus(&[5, 5]);
    let links =
        LinkTable::uniform(&topo, LinkAttrs { bandwidth: 1.0, distance: 1.0, fault_prob: 0.3 });
    let w = Workload::hotspot(25, 0, 100.0);
    let mut engine = EngineBuilder::new(topo)
        .links(links)
        .workload(w)
        .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
        .config(EngineConfig {
            fault_model: Some(FaultModel { p_down: 0.1, p_up: 0.3 }),
            ..Default::default()
        })
        .seed(2)
        .build();
    for _ in 0..30 {
        engine.run_rounds(5);
        assert!((engine.system_load() - 100.0).abs() < 1e-6);
    }
    engine.drain(500.0);
    let r = engine.report();
    assert!(r.ledger.fault_count() > 0, "the storm should have hit some transfers");
    assert!((r.total_load - 100.0).abs() < 1e-6);
}

#[test]
fn balancer_still_converges_with_faulty_links() {
    let topo = Topology::torus(&[6, 6]);
    let links =
        LinkTable::uniform(&topo, LinkAttrs { bandwidth: 1.0, distance: 1.0, fault_prob: 0.1 });
    let w = Workload::hotspot(36, 0, 72.0);
    let before = Imbalance::of(&w.heights()).cov;
    let mut engine = EngineBuilder::new(topo)
        .links(links)
        .workload(w)
        .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
        .seed(4)
        .build();
    engine.run_rounds(400).drain(500.0);
    let r = engine.report();
    assert!(
        r.final_imbalance.cov < 0.3 * before,
        "cov {} should be well below {before}",
        r.final_imbalance.cov
    );
}

#[test]
fn heat_equals_traffic_for_particle_plane() {
    // §4.1's analogy: the heat billed by the energy model must correlate
    // (≈ perfectly) with measured load·weight traffic. Heterogeneous links
    // and fractional task sizes give the records real variance.
    let topo = Topology::torus(&[6, 6]);
    let links = LinkTable::random(&topo, 12, (0.5, 2.0), (0.5, 3.0), 0.0);
    let w = Workload::bimodal(36, 0.3, 6.3, 1.7, 9);
    let mut engine = EngineBuilder::new(topo)
        .links(links)
        .workload(w)
        .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
        .seed(6)
        .build();
    engine.run_rounds(200).drain(200.0);
    let r = engine.report();
    assert!(r.ledger.migration_count() > 10, "need data");
    let corr = r.ledger.heat_traffic_correlation().expect("variance present");
    assert!(corr > 0.99, "heat/traffic correlation {corr}");
}
