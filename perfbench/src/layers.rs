//! Per-layer metrics of one traced operation.

use crate::op::Outcome;
use crate::probe;
use crate::stats::Spread;
use pp_scenario::spec::ScenarioSpec;

/// One per-layer value and where it was measured.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// `workload`, `derived`, or the probe that produced it.
    pub source: &'static str,
}

fn median(samples: &[f64]) -> f64 {
    Spread::of(samples).map_or(0.0, |s| s.median)
}

fn median_ns(samples: &[u64]) -> f64 {
    median(&samples.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

fn first(o: &Outcome, span: &str) -> f64 {
    o.tracer.durations(span).first().copied().unwrap_or(0.0)
}

const WORKLOAD: &str = "workload";
const CHECKPOINT_PROBE: &str = "probe: scaled-down churn-ckpt-16k";

/// The per-layer metrics of the traced operation `o` on `spec`, running
/// the probes for the layers the workload itself bypasses.
pub fn metrics(o: &Outcome, spec: &ScenarioSpec) -> Result<Vec<LayerMetric>, String> {
    let m = |name, unit, value, source| LayerMetric { name, unit, value, source };
    let topo = first(o, "topology.build");
    let work = first(o, "tasking.workload_build");
    let build = first(o, "scenario.build_engine");
    let c = &o.counts;
    let executed_ns: u64 = o.samples.executed_ns.iter().sum();

    let (skipped_ns, skipped_src) = if o.samples.skipped_ns.is_empty() {
        (probe::skipped_round_ns(spec)?, "probe: idle event-strategy copy of the workload")
    } else {
        (median_ns(&o.samples.skipped_ns), WORKLOAD)
    };
    let probe_run;
    let (ck, ck_src) = if o.checkpoint_s.is_empty() {
        probe_run = probe::checkpoint_run()?;
        (&probe_run, CHECKPOINT_PROBE)
    } else {
        (o, WORKLOAD)
    };
    let ck_bytes: Vec<f64> = ck.checkpoint_bytes.iter().map(|&b| b as f64).collect();
    let shard_rounds = (o.shards as u64 * c.rounds) as f64;
    let ratio = |a: u64, b: f64| if b > 0.0 { a as f64 / b } else { 0.0 };

    Ok(vec![
        m("topology.build_s", "s", topo, WORKLOAD),
        m("tasking.workload_build_s", "s", work, WORKLOAD),
        m("engine.build_s", "s", build - topo - work, "derived: build_engine minus the two above"),
        m("engine.executed_round_ns", "ns", median_ns(&o.samples.executed_ns), WORKLOAD),
        m("engine.ns_per_decision", "ns", ratio(executed_ns, c.nodes_evaluated as f64), WORKLOAD),
        m("engine.skipped_round_ns", "ns", skipped_ns, skipped_src),
        m("strategy.next_wake_ns", "ns", median_ns(&o.samples.next_wake_ns), WORKLOAD),
        m(
            "core.decide_ns_per_node",
            "ns",
            o.decide_ns_per_node.unwrap_or(0.0),
            "replay of the midpoint-round state",
        ),
        m("pool.barrier_ns", "ns", probe::barrier_ns(), "probe: no-op run_shards, 2 x 64"),
        m("engine.drain_s", "s", first(o, "engine.drain"), WORKLOAD),
        m("checkpoint.capture_s", "s", median(&ck.tracer.durations("checkpoint.capture")), ck_src),
        m(
            "checkpoint.serialize_s",
            "s",
            median(&ck.tracer.durations("checkpoint.serialize")),
            ck_src,
        ),
        m("checkpoint.parse_s", "s", median(&ck.tracer.durations("checkpoint.parse")), ck_src),
        m("checkpoint.restore_s", "s", median(&ck.tracer.durations("checkpoint.restore")), ck_src),
        m("checkpoint.bytes", "bytes", median(&ck_bytes), ck_src),
        m("scenario.report_s", "s", first(o, "scenario.report"), WORKLOAD),
        m("scenario.report_bytes", "bytes", o.report.len() as f64, WORKLOAD),
        m("engine.executed_rounds", "count", c.executed_rounds as f64, WORKLOAD),
        m("engine.nodes_evaluated", "count", c.nodes_evaluated as f64, WORKLOAD),
        m(
            "engine.skip_ratio",
            "ratio",
            1.0 - ratio(c.shard_ticks_evaluated, shard_rounds),
            WORKLOAD,
        ),
        m("engine.intents", "count", c.intents as f64, WORKLOAD),
        m("engine.migrations", "count", c.migrations as f64, WORKLOAD),
        m("engine.launch_ratio", "ratio", ratio(c.migrations, c.intents as f64), WORKLOAD),
        m("engine.completed_tasks", "count", c.completed_tasks as f64, WORKLOAD),
    ])
}
