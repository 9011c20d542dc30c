//! One benchmark operation: spec text → engine → rounds, with the spec's
//! checkpoints and one resume → drain → canonical report bytes, all
//! through the public API.
//!
//! A spec with the `checkpoint` knob is checkpointed at the rounds
//! `ScenarioSpec::finish_engine` would write (every `every` rounds and
//! after the last): each checkpoint is captured and serialized, then
//! parsed back and compared with the capture. The first one is also
//! restored into a freshly built engine, which runs the rest of the
//! scenario, so every such operation exercises a resume.

use crate::probe;
use crate::trace::{CountLedger, Counts, Tracer};
use pp_scenario::report::GoldenReport;
use pp_scenario::spec::ScenarioSpec;
use pp_sim::checkpoint::Checkpoint;
use pp_sim::engine::{Engine, RunReport};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How to run an operation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Record spans, per-round samples and counters, and replay the
    /// decide kernel at the midpoint round.
    pub traced: bool,
    /// Resume from the first checkpoint (ignored without the knob).
    pub resume: bool,
}

/// Per-call samples a traced operation takes, in nanoseconds.
#[derive(Debug, Default)]
pub struct RoundSamples {
    /// `run_rounds(1)` calls during which `executed_rounds` advanced.
    pub executed_ns: Vec<u64>,
    /// `run_rounds(1)` calls during which it did not.
    pub skipped_ns: Vec<u64>,
    /// `Engine::next_wake` calls, one before each round.
    pub next_wake_ns: Vec<u64>,
}

/// What one operation measured.
pub struct Outcome {
    /// Spec text to canonical report bytes, the benchmark's own checks
    /// (and, when traced, the decide replay) excluded.
    pub wall_s: f64,
    /// `ScenarioSpec::from_json` + `build_engine`.
    pub setup_s: f64,
    /// Time inside `run_rounds`.
    pub run_s: f64,
    /// Rounds run by `run_rounds`.
    pub rounds: u64,
    /// Rounds whose sweep evaluated a shard, summed over engines.
    pub executed_rounds: u64,
    /// Capture + serialize, per checkpoint.
    pub checkpoint_s: Vec<f64>,
    /// Serialized size, per checkpoint.
    pub checkpoint_bytes: Vec<usize>,
    /// Parse + build + restore, per resume.
    pub resume_s: Vec<f64>,
    /// Checkpoint round trips attempted.
    pub checkpoint_trips: u64,
    /// Round trips that failed, with the reason.
    pub checkpoint_errors: Vec<String>,
    /// Canonical report bytes.
    pub report: String,
    /// Shard count `K` of the engine.
    pub shards: usize,
    /// Spans (empty unless traced).
    pub tracer: Tracer,
    /// Per-round samples (empty unless traced).
    pub samples: RoundSamples,
    /// Counter deltas summed over engines (zero unless traced).
    pub counts: Counts,
    /// Decide-kernel replay cost at the midpoint round (traced only).
    pub decide_ns_per_node: Option<f64>,
}

/// The canonical report bytes, exactly as `lab --out` writes them: shard
/// layout metadata is attached when the spec asks for explicit sharding
/// without adaptive repartitioning.
pub fn canonical_report(spec: &ScenarioSpec, engine: &Engine, report: &RunReport) -> String {
    let mut g = GoldenReport::from_run(&spec.name, spec.seed, spec.topology.node_count(), report);
    if spec.engine.shards >= 2 && spec.engine.repartition.is_none() {
        let layout = engine.shard_layout();
        g = g.with_shard_layout(format!(
            "shards={} boundary={}",
            layout.shards, layout.boundary_nodes
        ));
    }
    g.to_canonical_json()
}

fn counts_of(engine: &Engine) -> Counts {
    Counts::of(engine, &engine.report())
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Runs `n` rounds one `run_rounds(1)` at a time, timing each, with an
/// `Engine::next_wake` call before each.
fn traced_rounds(engine: &mut Engine, n: u64, s: &mut RoundSamples) {
    for _ in 0..n {
        let a = Instant::now();
        black_box(engine.next_wake());
        let b = Instant::now();
        let before = engine.executed_rounds();
        engine.run_rounds(1);
        let c = Instant::now();
        s.next_wake_ns.push(nanos(b - a));
        if engine.executed_rounds() > before {
            s.executed_ns.push(nanos(c - b));
        } else {
            s.skipped_ns.push(nanos(c - b));
        }
    }
}

/// Runs one operation on `spec_text`.
pub fn run(spec_text: &str, opts: Options) -> Result<Outcome, String> {
    let mut tr = Tracer::new(opts.traced);
    let mut samples = RoundSamples::default();
    let mut ledger = CountLedger::default();
    // Time the benchmark spends on its own checks, kept out of `wall_s`.
    let mut paused = Duration::ZERO;

    tr.enter("op");
    let t0 = Instant::now();
    tr.enter("setup");
    let spec = tr.span("scenario.from_json", || ScenarioSpec::from_json(spec_text))?;
    if opts.traced {
        // `build_engine` cannot be entered, so the topology and initial
        // workload are built once more on their own to time those layers.
        let n = tr.span("topology.build", || black_box(spec.topology.build()).node_count());
        tr.span("tasking.workload_build", || drop(black_box(spec.workload.build(n))));
    }
    let mut engine = tr.span("scenario.build_engine", || spec.build_engine())?;
    tr.exit();
    let setup_s = t0.elapsed().as_secs_f64();
    if opts.traced {
        ledger.start(counts_of(&engine));
    }

    let rounds = spec.duration.rounds;
    let every = spec.checkpoint.as_ref().map(|c| c.every);
    let replay_at = opts.traced.then_some(rounds / 2);
    let mut resume_pending = opts.resume;
    let mut run = Duration::ZERO;
    // `executed_rounds` restarts on a restored engine: sum per engine.
    let (mut executed, mut executed_base) = (0, 0);
    let mut decide_ns_per_node = None;
    let mut checkpoint_s = Vec::new();
    let mut checkpoint_bytes = Vec::new();
    let mut resume_s = Vec::new();
    let mut checkpoint_errors = Vec::new();
    while engine.round() < rounds {
        let round = engine.round();
        let boundary = every.map_or(rounds, |e| (round / e + 1) * e).min(rounds);
        let stop = match replay_at {
            Some(r) if round < r && r < boundary => r,
            _ => boundary,
        };
        tr.enter("engine.run_rounds");
        let t = Instant::now();
        if opts.traced {
            traced_rounds(&mut engine, stop - round, &mut samples);
        } else {
            engine.run_rounds(stop - round);
        }
        run += t.elapsed();
        tr.exit();
        if replay_at == Some(stop) {
            let t = Instant::now();
            decide_ns_per_node =
                Some(tr.span("core.decide_replay", || probe::decide_replay(&engine, &spec)));
            paused += t.elapsed();
        }
        if stop != boundary || every.is_none() {
            continue;
        }
        let t = Instant::now();
        let cp = tr.span("checkpoint.capture", || engine.checkpoint());
        let text = tr.span("checkpoint.serialize", || cp.to_json());
        checkpoint_s.push(t.elapsed().as_secs_f64());
        checkpoint_bytes.push(text.len());
        let parsed = if resume_pending {
            resume_pending = false;
            let t = Instant::now();
            let parsed = tr.span("checkpoint.parse", || Checkpoint::from_json(&text))?;
            let mut fresh = tr.span("checkpoint.build_engine", || spec.build_engine())?;
            tr.span("checkpoint.restore", || fresh.restore(&parsed))?;
            resume_s.push(t.elapsed().as_secs_f64());
            if opts.traced {
                ledger.stop(counts_of(&engine));
                ledger.start(counts_of(&fresh));
            }
            executed += engine.executed_rounds() - executed_base;
            engine = fresh;
            executed_base = engine.executed_rounds();
            Ok(parsed)
        } else {
            let t = Instant::now();
            let parsed = tr.span("checkpoint.parse", || Checkpoint::from_json(&text));
            paused += t.elapsed();
            parsed
        };
        let t = Instant::now();
        match parsed {
            Ok(p) if p == cp => {}
            Ok(_) => {
                checkpoint_errors.push(format!("round {}: parsed checkpoint differs", cp.round))
            }
            Err(e) => checkpoint_errors.push(format!("round {}: {e}", cp.round)),
        }
        paused += t.elapsed();
    }
    tr.span("engine.drain", || engine.drain(spec.duration.drain));
    let (report, text) = tr.span("scenario.report", || {
        let report = engine.report();
        let text = canonical_report(&spec, &engine, &report);
        (report, text)
    });
    let wall_s = (t0.elapsed() - paused).as_secs_f64();
    tr.exit();
    if opts.traced {
        ledger.stop(Counts::of(&engine, &report));
    }
    executed += engine.executed_rounds() - executed_base;

    Ok(Outcome {
        wall_s,
        setup_s,
        run_s: run.as_secs_f64(),
        rounds,
        executed_rounds: executed,
        checkpoint_trips: checkpoint_s.len() as u64,
        checkpoint_s,
        checkpoint_bytes,
        resume_s,
        checkpoint_errors,
        report: text,
        shards: engine.partition().shard_count(),
        tracer: tr,
        samples,
        counts: ledger.total(),
        decide_ns_per_node,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn scaled_churn() -> String {
        let spec = workloads::load("churn-ckpt-16k").expect("workload file");
        workloads::scaled_down(spec).to_json_pretty()
    }

    #[test]
    fn resume_keeps_counts_and_report_bytes() {
        let text = scaled_churn();
        let straight = run(&text, Options { traced: true, resume: false }).expect("straight");
        let resumed = run(&text, Options { traced: true, resume: true }).expect("resumed");
        assert!(straight.resume_s.is_empty());
        assert_eq!(resumed.resume_s.len(), 1, "the resumed leg ran");
        assert_eq!(resumed.checkpoint_trips, 3);
        assert!(resumed.checkpoint_errors.is_empty(), "{:?}", resumed.checkpoint_errors);
        assert_eq!(straight.report, resumed.report);
        assert_eq!(straight.counts, resumed.counts);
        assert_eq!(straight.executed_rounds, resumed.executed_rounds);
        assert_eq!(resumed.counts.executed_rounds, resumed.executed_rounds);
        assert_eq!(resumed.counts.rounds, 30);
        assert!(resumed.counts.nodes_evaluated > 0 && resumed.counts.migrations > 0);
    }

    #[test]
    fn tracing_does_not_change_report_bytes() {
        let text = scaled_churn();
        let plain = run(&text, Options { traced: false, resume: true }).expect("untraced");
        let traced = run(&text, Options { traced: true, resume: true }).expect("traced");
        assert_eq!(plain.report, traced.report);
        assert_eq!(plain.executed_rounds, traced.executed_rounds);
        assert!(traced.decide_ns_per_node.is_some());
        assert_eq!(traced.samples.next_wake_ns.len(), 30);
    }
}
