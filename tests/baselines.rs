//! Integration tests for the §2 baseline algorithms on the full engine:
//! each must reduce imbalance on its home turf, and the classical exact
//! results (dimension exchange on a hypercube) must hold.

use particle_plane::prelude::*;

/// Links so fast that transfers complete within the same tick — the
/// synchronous-network assumption under which the classical convergence
/// results were proven.
fn instant_links(topo: &Topology) -> LinkTable {
    LinkTable::uniform(topo, LinkAttrs { bandwidth: 1e9, distance: 1e-9, fault_prob: 0.0 })
}

fn run_with(
    topo: Topology,
    balancer: Box<dyn LoadBalancer>,
    workload: Workload,
    rounds: u64,
) -> RunReport {
    let links = instant_links(&topo);
    let mut engine = EngineBuilder::new(topo)
        .links(links)
        .workload(workload)
        .balancer_boxed(balancer)
        .seed(19)
        .build();
    engine.run_rounds(rounds).drain(10.0);
    engine.report()
}

#[test]
fn dimension_exchange_balances_hypercube_in_d_sweeps() {
    // The classical §2 result: on a hypercube the system is balanced after
    // every processor has exchanged with each neighbour once — one sweep of
    // the d dimensions. 2^d·k units on node 0 halve cleanly each round.
    let d = 4;
    let topo = Topology::hypercube(d);
    let n = topo.node_count();
    let w = Workload::hotspot(n, 0, (n * 4) as f64);
    let r = run_with(topo.clone(), Box::new(DimensionExchangeBalancer::new(&topo)), w, d as u64);
    assert_eq!(
        r.final_imbalance.spread, 0.0,
        "hypercube must be perfectly balanced after {d} rounds: {:?}",
        r.final_imbalance
    );
}

#[test]
fn diffusion_reduces_hotspot() {
    let topo = Topology::torus(&[6, 6]);
    let w = Workload::hotspot(36, 0, 72.0);
    let before = Imbalance::of(&w.heights()).cov;
    for b in [
        Box::new(DiffusionBalancer::optimal(&topo)) as Box<dyn LoadBalancer>,
        Box::new(DiffusionBalancer::safe(&topo)),
    ] {
        let r = run_with(topo.clone(), b, Workload::hotspot(36, 0, 72.0), 200);
        assert!(
            r.final_imbalance.cov < 0.5 * before,
            "{}: cov {} vs {before}",
            r.balancer,
            r.final_imbalance.cov
        );
    }
}

#[test]
fn optimal_diffusion_converges_no_slower_than_safe() {
    let topo = Topology::torus(&[8, 8]);
    let w = || Workload::hotspot(64, 0, 128.0);
    let opt = run_with(topo.clone(), Box::new(DiffusionBalancer::optimal(&topo)), w(), 300);
    let safe = run_with(topo.clone(), Box::new(DiffusionBalancer::safe(&topo)), w(), 300);
    // Compare cumulative imbalance (area under the CoV curve): the Xu–Lau
    // parameter must not be worse.
    assert!(
        opt.series.auc() <= safe.series.auc() * 1.05,
        "opt AUC {} vs safe AUC {}",
        opt.series.auc(),
        safe.series.auc()
    );
}

#[test]
fn gm_drains_overload_toward_light_region() {
    let topo = Topology::mesh(&[8, 8]);
    let w = Workload::hotspot(64, 0, 128.0);
    let before = Imbalance::of(&w.heights()).cov;
    let r = run_with(topo, Box::new(GradientModelBalancer::new(1.5, 2.5)), w, 400);
    assert!(r.final_imbalance.cov < 0.3 * before);
}

#[test]
fn cwn_reaches_unit_granularity_balance() {
    let topo = Topology::torus(&[4, 4]);
    let w = Workload::hotspot(16, 0, 32.0);
    let r = run_with(topo, Box::new(CwnBalancer::new(1.0)), w, 150);
    assert!(r.final_imbalance.spread <= 2.0, "{:?}", r.final_imbalance);
}

#[test]
fn random_balancer_helps_but_less_than_cwn() {
    let topo = Topology::torus(&[6, 6]);
    let w = || Workload::hotspot(36, 0, 108.0);
    let before = Imbalance::of(&w().heights()).cov;
    let rnd = run_with(topo.clone(), Box::new(RandomNeighborBalancer::new(1.0)), w(), 300);
    let cwn = run_with(topo.clone(), Box::new(CwnBalancer::new(1.0)), w(), 300);
    assert!(rnd.final_imbalance.cov < before);
    assert!(cwn.series.auc() <= rnd.series.auc());
}

#[test]
fn sender_initiated_fires_only_above_watermark() {
    let topo = Topology::torus(&[4, 4]);
    // Everything below the high watermark: nothing should ever move.
    let w = Workload::from_loads(&[2.0; 16], 1.0);
    let r = run_with(topo, Box::new(SenderInitiatedBalancer::new(3.0, 2.0, 2)), w, 50);
    assert_eq!(r.ledger.migration_count(), 0);
}

#[test]
fn every_balancer_conserves_load() {
    let topo = Topology::torus(&[4, 4]);
    let total = 48.0;
    let balancers: Vec<Box<dyn LoadBalancer>> = vec![
        Box::new(ParticlePlaneBalancer::new(PhysicsConfig::default())),
        Box::new(DiffusionBalancer::safe(&topo)),
        Box::new(DimensionExchangeBalancer::new(&topo)),
        Box::new(GradientModelBalancer::new(2.0, 4.0)),
        Box::new(CwnBalancer::new(1.0)),
        Box::new(RandomNeighborBalancer::new(1.0)),
        Box::new(SenderInitiatedBalancer::new(4.0, 3.0, 2)),
    ];
    for b in balancers {
        let name = b.name().to_string();
        let r = run_with(Topology::torus(&[4, 4]), b, Workload::hotspot(16, 3, total), 120);
        assert!(
            (r.total_load + r.in_flight_load - total).abs() < 1e-6,
            "{name} lost load: resident {} in-flight {}",
            r.total_load,
            r.in_flight_load
        );
    }
}

#[test]
fn particle_plane_beats_no_balancing_everywhere() {
    for topo in [Topology::mesh(&[5, 5]), Topology::ring(25), Topology::hypercube(5)] {
        let n = topo.node_count();
        let w = Workload::bimodal(n, 0.2, 8.0, 1.0, 6);
        let before = Imbalance::of(&w.heights()).cov;
        let r =
            run_with(topo, Box::new(ParticlePlaneBalancer::new(PhysicsConfig::default())), w, 250);
        assert!(r.final_imbalance.cov < before, "cov {} vs {before}", r.final_imbalance.cov);
    }
}
