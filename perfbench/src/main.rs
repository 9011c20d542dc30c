//! perfbench — the repository benchmark (see README.md).
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs the workload's operations back to back for `--seconds`, each in a
//! fresh child process of this binary (so peak RSS is per operation),
//! checks every operation's report bytes, and prints a table and, as the
//! last line, `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 1` the operations alternate untraced and traced, and the
//! metrics are the per-layer ones. Full results, with the host and every
//! sample, go to `.bench_out/`.

mod host;
mod layers;
mod op;
mod probe;
mod stats;
mod trace;
mod workloads;

use serde::Value;
use stats::Spread;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]";
/// Where results and traces are written, relative to the working directory.
const OUT_DIR: &str = ".bench_out";
/// Fresh-process setups per run: operations first, then set-up-only
/// children until there are this many.
const MIN_SETUP_SAMPLES: usize = 7;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    /// Set in child processes: `op` or `setup`.
    child: Option<String>,
    /// Child sequence number, naming its trace file.
    index: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10,
        trace: false,
        child: None,
        index: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(number(value()?)?),
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0,
            "--child" => args.child = Some(value()?),
            "--index" => args.index = number(value()?)? as usize,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.child.as_deref() {
        Some(kind) => child_main(kind, &args),
        None => parent_main(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- child

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn floats(v: &[f64]) -> Value {
    Value::Array(v.iter().map(|&x| Value::Float(x)).collect())
}

/// Peak resident set of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One operation in this process; prints its measurements as one JSON
/// line. A setup child only parses the spec and builds the engine.
fn child_main(kind: &str, args: &Args) -> Result<(), String> {
    let text = workloads::text(&args.workload)?;
    let seed = args.seed.map_or_else(|| workloads::default_seed(&text), Ok)?;
    let text = workloads::reseed(&text, seed)?;
    let line = match kind {
        "setup" => {
            let t = Instant::now();
            let engine = pp_scenario::spec::ScenarioSpec::from_json(&text)?.build_engine()?;
            let setup_s = t.elapsed().as_secs_f64();
            drop(engine);
            obj(vec![("setup_s", Value::Float(setup_s))])
        }
        "op" => {
            let o = op::run(&text, op::Options { traced: args.trace, resume: true })?;
            let rss = peak_rss_mib();
            let mut fields = vec![
                ("wall_s", Value::Float(o.wall_s)),
                ("setup_s", Value::Float(o.setup_s)),
                ("run_s", Value::Float(o.run_s)),
                ("rounds", Value::UInt(o.rounds)),
                ("executed_rounds", Value::UInt(o.executed_rounds)),
                ("checkpoint_s", floats(&o.checkpoint_s)),
                ("resume_s", floats(&o.resume_s)),
                ("checkpoint_trips", Value::UInt(o.checkpoint_trips)),
                (
                    "checkpoint_errors",
                    Value::Array(o.checkpoint_errors.iter().cloned().map(Value::Str).collect()),
                ),
                ("digest", Value::Str(format!("{:016x}", stats::fnv1a64(o.report.as_bytes())))),
                ("peak_rss_mb", Value::Float(rss)),
            ];
            if args.trace {
                let spec = pp_scenario::spec::ScenarioSpec::from_json(&text)?;
                let layer = layers::metrics(&o, &spec)?;
                write_trace(args, seed, &o, &layer)?;
                fields.push((
                    "layers",
                    Value::Array(
                        layer
                            .iter()
                            .map(|m| {
                                obj(vec![
                                    ("name", Value::Str(m.name.into())),
                                    ("unit", Value::Str(m.unit.into())),
                                    ("value", Value::Float(m.value)),
                                    ("source", Value::Str(m.source.into())),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            obj(fields)
        }
        other => return Err(format!("unknown child kind `{other}`")),
    };
    println!("{}", serde_json::to_string(&line).map_err(|e| e.to_string())?);
    Ok(())
}

/// Writes the traced operation's spans, per-round sample summaries and
/// counters to `.bench_out/trace/`.
fn write_trace(
    args: &Args,
    seed: u64,
    o: &op::Outcome,
    layer: &[layers::LayerMetric],
) -> Result<(), String> {
    let summary = |ns: &[u64]| {
        let v: Vec<f64> = ns.iter().map(|&x| x as f64).collect();
        let s = Spread::of(&v);
        obj(vec![
            ("calls", Value::UInt(ns.len() as u64)),
            ("total_ns", Value::UInt(ns.iter().sum())),
            ("median_ns", s.map_or(Value::Null, |s| Value::Float(s.median))),
        ])
    };
    let c = o.counts;
    let doc = obj(vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::UInt(seed)),
        ("spans", o.tracer.to_value()),
        (
            "round_samples",
            obj(vec![
                ("engine.executed_round", summary(&o.samples.executed_ns)),
                ("engine.skipped_round", summary(&o.samples.skipped_ns)),
                ("strategy.next_wake", summary(&o.samples.next_wake_ns)),
            ]),
        ),
        (
            "counts",
            obj(vec![
                ("rounds", Value::UInt(c.rounds)),
                ("executed_rounds", Value::UInt(c.executed_rounds)),
                ("shard_ticks_evaluated", Value::UInt(c.shard_ticks_evaluated)),
                ("nodes_evaluated", Value::UInt(c.nodes_evaluated)),
                ("intents", Value::UInt(c.intents)),
                ("migrations", Value::UInt(c.migrations)),
                ("completed_tasks", Value::UInt(c.completed_tasks)),
            ]),
        ),
        (
            "layers",
            Value::Object(
                layer.iter().map(|m| (m.name.to_string(), Value::Float(m.value))).collect(),
            ),
        ),
    ]);
    let dir = Path::new(OUT_DIR).join("trace");
    let path = dir.join(format!("{}-seed{seed}-{}.json", args.workload, args.index));
    write_json(&path, &doc)
}

fn write_json(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())? + "\n";
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

// --------------------------------------------------------------- parent

/// Runs one child of this binary and parses its JSON line.
fn spawn(
    kind: &str,
    workload: &str,
    seed: u64,
    trace: bool,
    index: usize,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", kind, "--workload", workload])
        .args(["--seed", &seed.to_string(), "--trace", if trace { "1" } else { "0" }])
        .args(["--index", &index.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let why: Vec<&str> = stderr.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
        return Err(format!("{kind} child failed ({}): {}", out.status, why.join(" | ")));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("{kind} child printed no result: {e}"))
}

fn f64s(v: &Value, key: &str) -> Vec<f64> {
    v.get(key).and_then(Value::as_array).unwrap_or(&[]).iter().filter_map(Value::as_f64).collect()
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_f64).ok_or(format!("child result lacks `{key}`"))
}

/// The expected report digest, when `seed` is the one it was recorded at.
fn expected_digest(workload: &str, seed: u64) -> Result<Option<String>, String> {
    let path = workloads::bench_dir().join("expected.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let Some(entry) = doc.get("workloads").and_then(|w| w.get(workload)) else {
        return Ok(None);
    };
    let recorded: u64 = entry.field("seed")?;
    (recorded == seed).then(|| entry.field("fnv1a64")).transpose()
}

/// A per-layer metric's samples across traced operations.
struct LayerSamples {
    name: String,
    unit: String,
    source: String,
    values: Vec<f64>,
}

/// Everything one run collects from its children.
#[derive(Default)]
struct Run {
    wall: Vec<f64>,
    traced_wall: Vec<f64>,
    setup: Vec<f64>,
    /// Time inside `run_rounds`, per untraced operation.
    run_s: Vec<f64>,
    checkpoint: Vec<f64>,
    resume: Vec<f64>,
    rss: Vec<f64>,
    /// Rounds per operation (the spec's duration).
    rounds: u64,
    executed_rounds: Vec<f64>,
    layers: Vec<LayerSamples>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Digest every report must match: the committed one at the default
    /// seed, else the first operation's.
    reference: Option<String>,
    digests_checked: u64,
    /// Seconds the run took, and the CPU time stolen by the hypervisor
    /// meanwhile: the context for a noisy run.
    elapsed_s: f64,
    steal_s: Option<f64>,
}

impl Run {
    fn fail(&mut self, e: String) {
        eprintln!("perfbench: {e}");
        self.failed += 1;
        self.errors.push(e);
    }

    /// Folds one operation child's result in.
    fn absorb_op(&mut self, v: &Value, traced: bool) -> Result<(), String> {
        let digest: String = v.field("digest")?;
        match &self.reference {
            None => self.reference = Some(digest),
            Some(r) if *r == digest => {}
            Some(r) => return Err(format!("report digest {digest} differs from {r}")),
        }
        self.digests_checked += 1;
        let trips = num(v, "checkpoint_trips")? as u64;
        self.attempted += trips;
        for e in v.get("checkpoint_errors").and_then(Value::as_array).unwrap_or(&[]) {
            self.fail(format!("checkpoint round trip: {}", e.as_str().unwrap_or("?")));
        }
        if traced {
            self.traced_wall.push(num(v, "wall_s")?);
            for m in v.get("layers").and_then(Value::as_array).unwrap_or(&[]) {
                let name: String = m.field("name")?;
                let value: f64 = m.field("value")?;
                match self.layers.iter_mut().find(|l| l.name == name) {
                    Some(l) => l.values.push(value),
                    None => self.layers.push(LayerSamples {
                        name,
                        unit: m.field("unit")?,
                        source: m.field("source")?,
                        values: vec![value],
                    }),
                }
            }
            return Ok(());
        }
        self.wall.push(num(v, "wall_s")?);
        self.setup.push(num(v, "setup_s")?);
        self.rounds = num(v, "rounds")? as u64;
        self.run_s.push(num(v, "run_s")?);
        self.executed_rounds.push(num(v, "executed_rounds")?);
        self.checkpoint.extend(f64s(v, "checkpoint_s"));
        self.resume.extend(f64s(v, "resume_s"));
        self.rss.push(num(v, "peak_rss_mb")?);
        Ok(())
    }
}

/// Runs workload `name` for `seconds` and collects the results.
fn measure(name: &str, seed: u64, seconds: u64, trace: bool) -> Result<Run, String> {
    let mut run = Run { reference: expected_digest(name, seed)?, ..Run::default() };
    let start = Instant::now();
    let steal_before = host::steal_s();
    // Child durations, untraced and traced, to decide whether another fits.
    let mut took: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut index = 0;
    loop {
        let traced = trace && took[0].len() > took[1].len();
        let enough = !took[0].is_empty() && (!trace || !took[1].is_empty());
        let next = Spread::of(&took[traced as usize])
            .or(Spread::of(&took[!traced as usize]))
            .map_or(0.0, |s| s.median);
        if enough && start.elapsed().as_secs_f64() + next > seconds as f64 {
            break;
        }
        let t = Instant::now();
        run.attempted += 1;
        match spawn("op", name, seed, traced, index).and_then(|v| run.absorb_op(&v, traced)) {
            Ok(()) => {}
            Err(e) => run.fail(e),
        }
        took[traced as usize].push(t.elapsed().as_secs_f64());
        index += 1;
    }
    while !trace && run.setup.len() < MIN_SETUP_SAMPLES && run.failed == 0 {
        run.attempted += 1;
        match spawn("setup", name, seed, false, index).and_then(|v| num(&v, "setup_s")) {
            Ok(s) => run.setup.push(s),
            Err(e) => run.fail(e),
        }
        index += 1;
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    run.steal_s = host::steal_s().zip(steal_before).map(|(after, before)| after - before);
    Ok(run)
}

/// A reported metric: its value, the samples it reduces, and a note.
struct Metric {
    name: String,
    unit: String,
    /// `None` when there are no samples.
    value: Option<f64>,
    samples: Vec<f64>,
    note: String,
}

fn median(v: &[f64]) -> Option<f64> {
    Spread::of(v).map(|s| s.median)
}

/// A metric whose value is the median of `samples`.
fn metric(name: &str, unit: &str, samples: &[f64], note: &str) -> Metric {
    Metric {
        name: name.into(),
        unit: unit.into(),
        value: median(samples),
        samples: samples.to_vec(),
        note: note.into(),
    }
}

/// The metrics printed on the result line, then the ones only the table
/// and the results file carry. Every value is the median of its samples,
/// except `error_rate` and `trace.overhead_s`.
fn metrics_of(name: &str, run: &Run, trace: bool) -> (Vec<Metric>, Vec<Metric>) {
    if trace {
        let mut out: Vec<Metric> =
            run.layers.iter().map(|l| metric(&l.name, &l.unit, &l.values, &l.source)).collect();
        let overhead = median(&run.traced_wall).zip(median(&run.wall)).map(|(t, u)| t - u);
        let mut m = metric("trace.overhead_s", "s", &[], "median traced minus untraced wall_s");
        m.value = overhead;
        out.push(m);
        return (out, vec![]);
    }
    let rates: Vec<f64> = run.run_s.iter().map(|&t| run.rounds as f64 / t).collect();
    let executed = median(&run.executed_rounds).unwrap_or(0.0);
    let rate_note = if name == "sparse-event-1m" {
        format!("skip rate, not kernel throughput: {executed} of {} rounds executed", run.rounds)
    } else {
        format!("{executed} of {} rounds executed", run.rounds)
    };
    let main = vec![
        metric("wall_s", "s", &run.wall, "spec text to canonical report bytes"),
        metric("setup_s", "s", &run.setup, "from_json + build_engine, fresh process"),
        metric("rounds_per_s", "1/s", &rates, &rate_note),
        metric("peak_rss_mb", "MiB", &run.rss, "VmHWM of each operation's process"),
    ];
    let ckpt_note = |v: &[f64]| if v.is_empty() { "n/a: no checkpoints" } else { "" };
    let errors = run.failed as f64 / run.attempted.max(1) as f64;
    let mut error_rate =
        metric("error_rate", "ratio", &[], &format!("{} of {} failed", run.failed, run.attempted));
    error_rate.value = Some(errors);
    let extra = vec![
        metric("checkpoint_s", "s", &run.checkpoint, ckpt_note(&run.checkpoint)),
        metric("resume_s", "s", &run.resume, ckpt_note(&run.resume)),
        error_rate,
    ];
    (main, extra)
}

fn spread_value(m: &Metric) -> Value {
    let mut fields = vec![
        ("unit", Value::Str(m.unit.clone())),
        ("value", m.value.map_or(Value::Null, Value::Float)),
    ];
    if let Some(s) = Spread::of(&m.samples) {
        fields.extend([
            ("median", Value::Float(s.median)),
            ("q1", Value::Float(s.q1)),
            ("q3", Value::Float(s.q3)),
            ("n", Value::UInt(s.n as u64)),
        ]);
    }
    fields.push(("samples", floats(&m.samples)));
    if !m.note.is_empty() {
        fields.push(("note", Value::Str(m.note.clone())));
    }
    obj(fields)
}

fn print_table(name: &str, seed: u64, run: &Run, metrics: &[&Metric]) {
    println!(
        "{name}  seed {seed}  {} operations attempted, {} failed, {} report digests checked",
        run.attempted, run.failed, run.digests_checked
    );
    let steal = run.steal_s.map_or("unknown".to_string(), |s| format!("{s:.2} s"));
    println!("  {:.1} s elapsed, CPU time stolen by the hypervisor: {steal}", run.elapsed_s);
    println!(
        "  {:26} {:>14} {:>14} {:>14} {:>14} {:>4} {:>8}  unit",
        "metric", "value", "median", "q1", "q3", "n", "iqr/med"
    );
    for m in metrics {
        let value = m.value.map_or("-".to_string(), |v| format!("{v:.6}"));
        match Spread::of(&m.samples) {
            Some(s) => println!(
                "  {:26} {:>14} {:>14.6} {:>14.6} {:>14.6} {:>4} {:>7.1}%  {:5} {}",
                m.name,
                value,
                s.median,
                s.q1,
                s.q3,
                s.n,
                100.0 * s.relative_iqr(),
                m.unit,
                m.note
            ),
            None => println!("  {:26} {:>14} {:>57}  {:5} {}", m.name, value, "", m.unit, m.note),
        }
    }
}

fn parent_main(args: &Args) -> Result<(), String> {
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    // Fail before measuring anything if a workload or its digest is missing.
    let mut seeds = Vec::new();
    for name in &names {
        let text = workloads::text(name)?;
        let seed = args.seed.map_or_else(|| workloads::default_seed(&text), Ok)?;
        expected_digest(name, seed)?;
        seeds.push(seed);
    }
    let host = host::describe();
    println!("host: {}", serde_json::to_string(&host).map_err(|e| e.to_string())?);
    let (mut attempted, mut failed, mut line) = (0, 0, Vec::new());
    for (name, &seed) in names.iter().zip(&seeds) {
        let run = measure(name, seed, args.seconds, args.trace)?;
        let (main, extra) = metrics_of(name, &run, args.trace);
        let all: Vec<&Metric> = main.iter().chain(&extra).collect();
        print_table(name, seed, &run, &all);
        attempted += run.attempted;
        failed += run.failed;
        for m in &main {
            let key = if names.len() > 1 { format!("{name}.{}", m.name) } else { m.name.clone() };
            let value = Value::Float(m.value.unwrap_or(0.0));
            line.push((key, obj(vec![("value", value), ("unit", Value::Str(m.unit.clone()))])));
        }
        let doc = obj(vec![
            ("workload", Value::Str(name.to_string())),
            ("seed", Value::UInt(seed)),
            ("seconds", Value::UInt(args.seconds)),
            ("trace", Value::Bool(args.trace)),
            ("host", host.clone()),
            ("attempted", Value::UInt(run.attempted)),
            ("failed", Value::UInt(run.failed)),
            ("errors", Value::Array(run.errors.iter().cloned().map(Value::Str).collect())),
            ("report_digest", run.reference.clone().map_or(Value::Null, Value::Str)),
            ("elapsed_s", Value::Float(run.elapsed_s)),
            ("host_steal_s", run.steal_s.map_or(Value::Null, Value::Float)),
            (
                "metrics",
                Value::Object(all.iter().map(|m| (m.name.clone(), spread_value(m))).collect()),
            ),
        ]);
        let file = format!("{name}-seed{seed}-trace{}.json", args.trace as u8);
        write_json(&Path::new(OUT_DIR).join(file), &doc)?;
    }
    let result = obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", Value::Object(line)),
    ]);
    println!("{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
    Ok(())
}
