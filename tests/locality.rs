//! The network-side Corollary 3: a load's final resting node can never be
//! farther (in accumulated link weight) from its origin than its initial
//! energy budget allows — `Σ e_hops ≤ h₀/(c₀·µ_k)` — because every hop
//! debits the potential-height flag by `c₀·µ_k·e`.
//!
//! This ties together pp-physics (the theorem), pp-topology (weighted
//! shortest paths), pp-core (the energy flag) and pp-sim (the engine).

use particle_plane::prelude::*;
use particle_plane::topology::paths::{dijkstra, reachable_within};

#[test]
fn tasks_never_rest_beyond_their_energy_radius() {
    let topo = Topology::torus(&[8, 8]);
    let n = topo.node_count();
    let h0 = 2.0 * n as f64; // hotspot height = every task's initial flag bound
    let cfg = PhysicsConfig::default();
    let links = LinkTable::uniform(&topo, LinkAttrs::default());
    let origin = NodeId(0);

    let mut engine = EngineBuilder::new(topo.clone())
        .links(links.clone())
        .workload(Workload::hotspot(n, 0, h0))
        .balancer(ParticlePlaneBalancer::new(cfg))
        .seed(3)
        .build();
    engine.run_rounds(400).drain(1000.0);

    // Smallest possible µ_k along any hop (no dependencies ⇒ µ_s = base).
    let mu_k_min = kinetic_friction(&cfg, cfg.mu_s_base);
    let budget = h0 / (cfg.c0 * mu_k_min);
    let dist = dijkstra(&topo, &links, 1.0, origin);

    for v in topo.nodes() {
        for task in engine.state().node(v).tasks() {
            if task.origin == origin.0 {
                assert!(
                    dist[v.idx()] <= budget + 1e-9,
                    "task {} rested at {} (weighted distance {}) beyond budget {}",
                    task.id,
                    v,
                    dist[v.idx()],
                    budget
                );
            }
        }
    }
}

#[test]
fn tighter_friction_shrinks_the_migration_footprint() {
    // Measure how far from the origin the hotspot's tasks settle for two
    // friction levels: heavier friction ⇒ smaller mean displacement.
    let run = |mu_base: f64| {
        let topo = Topology::torus(&[10, 10]);
        let n = topo.node_count();
        let cfg = PhysicsConfig {
            mu_s_base: mu_base,
            // Keep the movement threshold constant across the sweep so only
            // the kinetic drain changes.
            ..PhysicsConfig::default()
        };
        let mut engine = EngineBuilder::new(topo.clone())
            .workload(Workload::hotspot(n, 0, n as f64))
            .balancer(ParticlePlaneBalancer::new(cfg))
            .seed(8)
            .build();
        engine.run_rounds(300).drain(500.0);
        let hop_dist = topo.bfs_distances(NodeId(0));
        let mut total = 0.0;
        let mut count = 0usize;
        for v in topo.nodes() {
            for t in engine.state().node(v).tasks() {
                if t.origin == 0 {
                    total += hop_dist[v.idx()] as f64;
                    count += 1;
                }
            }
        }
        total / count.max(1) as f64
    };
    let light = run(1.0);
    let heavy = run(4.0);
    assert!(
        heavy < light,
        "mean displacement should shrink with friction: µ=1 → {light}, µ=4 → {heavy}"
    );
}

#[test]
fn reachable_set_bounds_actual_migrations() {
    // Same invariant expressed through the paths API: the set of nodes
    // holding origin tasks is a subset of reachable_within(budget).
    let topo = Topology::mesh(&[12]);
    let n = topo.node_count();
    let h0 = 12.0;
    let cfg = PhysicsConfig::default();
    let links = LinkTable::uniform(&topo, LinkAttrs::default());
    let mut engine = EngineBuilder::new(topo.clone())
        .links(links.clone())
        .workload(Workload::hotspot(n, 0, h0))
        .balancer(ParticlePlaneBalancer::new(cfg))
        .seed(5)
        .build();
    engine.run_rounds(200).drain(500.0);

    let mu_k_min = kinetic_friction(&cfg, cfg.mu_s_base);
    let budget = h0 / (cfg.c0 * mu_k_min);
    let allowed: Vec<NodeId> = reachable_within(&topo, &links, 1.0, NodeId(0), budget);
    for v in topo.nodes() {
        let holds_origin_task = engine.state().node(v).tasks().iter().any(|t| t.origin == 0);
        if holds_origin_task {
            assert!(allowed.contains(&v), "{v} outside the energy-reachable set");
        }
    }
}
