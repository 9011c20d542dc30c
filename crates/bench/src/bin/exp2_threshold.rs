//! E2 — Eq. (1) / Fig. 1–2: the movement threshold. On a two-node system we
//! sweep the height difference and measure exactly where migration starts;
//! the measured frontier must match `Δh* = µ_s·e + 2l` (the feasibility
//! rule with the self-correction term).

use pp_bench::{banner, dump_json};
use pp_core::balancer::ParticlePlaneBalancer;
use pp_core::feasibility::movement_threshold;
use pp_core::params::PhysicsConfig;
use pp_metrics::summary::{fmt, TextTable};
use pp_sim::engine::{EngineBuilder, EngineConfig};
use pp_tasking::resources::ResourceMatrix;
use pp_tasking::task::TaskId;
use pp_tasking::workload::Workload;
use pp_topology::graph::{NodeId, Topology};
use pp_topology::links::{LinkAttrs, LinkTable};
use serde::Serialize;

/// Does a transfer start in round 1 for the given gap and parameters?
fn moves(gap: f64, mu_extra: f64, e: f64) -> bool {
    let topo = Topology::mesh(&[2]);
    let links =
        LinkTable::uniform(&topo, LinkAttrs { bandwidth: 1.0 / e, distance: 1.0, fault_prob: 0.0 });
    let w = Workload::from_loads(&[gap, 0.0], 1.0);
    // Give every task an extra resource affinity to raise µ_s beyond base.
    let mut res = ResourceMatrix::none();
    if mu_extra > 0.0 {
        for id in 0..(gap.ceil() as u64 + 1) {
            res.set(TaskId(id), NodeId(0), mu_extra);
        }
    }
    let mut engine = EngineBuilder::new(topo)
        .links(links)
        .workload(w)
        .resources(res)
        .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
        .config(EngineConfig::default())
        .seed(1)
        .build();
    engine.run_rounds(1);
    engine.drain(100.0); // migrations are recorded on arrival
    engine.report().ledger.migration_count() > 0
}

#[derive(Serialize)]
struct Row {
    mu_s: f64,
    e: f64,
    predicted_gap: f64,
    measured_gap: f64,
}

fn main() {
    banner("E2", "movement threshold frontier", "Eq. (1), Fig. 1–2");
    let cfg = PhysicsConfig::default();
    let mut table = TextTable::new(vec!["µ_s", "e_{i,j}", "predicted Δh*", "measured Δh*", "ok"]);
    let mut rows = Vec::new();
    // µ_s = base (1.0) + resource extra; unit loads l = 1.
    for &(mu_extra, e) in &[(0.0, 1.0), (0.0, 2.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (4.0, 0.5)]
    {
        let mu_s = cfg.mu_s_base + cfg.c_resource * mu_extra;
        let predicted = movement_threshold(&cfg, mu_s, e, 1.0);
        // Sweep integer gaps (so every task has exactly size l = 1) and find
        // the smallest at which migration fires. The condition is strict, so
        // the frontier sits within one unit above the predicted threshold.
        let mut measured = f64::NAN;
        let mut gap = 1.0;
        while gap < 40.0 {
            if moves(gap, mu_extra, e) {
                measured = gap;
                break;
            }
            gap += 1.0;
        }
        let ok = measured > predicted && measured <= predicted + 1.0 + 1e-9;
        table.row(vec![
            fmt(mu_s, 2),
            fmt(e, 2),
            fmt(predicted, 2),
            fmt(measured, 2),
            if ok { "✓".to_string() } else { "✗".to_string() },
        ]);
        assert!(
            ok,
            "frontier mismatch: µ_s={mu_s} e={e} predicted {predicted} measured {measured}"
        );
        rows.push(Row { mu_s, e, predicted_gap: predicted, measured_gap: measured });
    }
    println!("{}", table.render());
    println!("Movement starts strictly above Δh* = µ_s·e + 2l, as Eq. (1) dictates.");
    dump_json("exp2_threshold", &rows);
}
