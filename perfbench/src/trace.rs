//! In-memory tracing for the traced run: spans recorded around calls into
//! each layer's public functions, plus the engine's counters, written out
//! once the measurement is over.
//!
//! The untraced run uses the same [`Tracer`] disabled: `span` then only
//! calls its closure, so end-to-end timings carry no tracing cost.

use pp_sim::engine::{Engine, RunReport};
use serde::Value;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.drain`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. Disabled tracers record nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// The spans as JSON, each with its self time: its duration minus the
    /// part its child spans cover.
    pub fn to_value(&self) -> Value {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        Value::Array(
            self.spans
                .iter()
                .zip(&child_ns)
                .map(|(s, &c)| {
                    let dur = s.end_ns - s.start_ns;
                    Value::Object(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("parent".into(), s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                        ("start_ns".into(), Value::UInt(s.start_ns)),
                        ("end_ns".into(), Value::UInt(s.end_ns)),
                        ("self_ns".into(), Value::UInt(dur.saturating_sub(c))),
                    ])
                })
                .collect(),
        )
    }
}

/// The engine's monotone counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Balance rounds run (executed or fast-forwarded).
    pub rounds: u64,
    /// Rounds whose sweep evaluated at least one shard.
    pub executed_rounds: u64,
    /// Shard-rounds whose shard was swept.
    pub shard_ticks_evaluated: u64,
    /// Node decisions evaluated.
    pub nodes_evaluated: u64,
    /// Migration intents emitted.
    pub intents: u64,
    /// Migration hops recorded in the ledger.
    pub migrations: u64,
    /// Tasks completed by work consumption.
    pub completed_tasks: u64,
}

impl Counts {
    /// Reads the counters of `engine`, whose current report is `report`.
    pub fn of(engine: &Engine, report: &RunReport) -> Counts {
        let acc = engine.shard_stats();
        Counts {
            rounds: engine.round(),
            executed_rounds: engine.executed_rounds(),
            shard_ticks_evaluated: acc.ticks_evaluated,
            nodes_evaluated: acc.nodes_evaluated,
            intents: acc.intents_emitted,
            migrations: report.ledger.migration_count() as u64,
            completed_tasks: report.completed_tasks as u64,
        }
    }

    /// `self − base`, field by field.
    pub fn since(&self, base: &Counts) -> Counts {
        Counts {
            rounds: self.rounds - base.rounds,
            executed_rounds: self.executed_rounds - base.executed_rounds,
            shard_ticks_evaluated: self.shard_ticks_evaluated - base.shard_ticks_evaluated,
            nodes_evaluated: self.nodes_evaluated - base.nodes_evaluated,
            intents: self.intents - base.intents,
            migrations: self.migrations - base.migrations,
            completed_tasks: self.completed_tasks - base.completed_tasks,
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, d: &Counts) {
        self.rounds += d.rounds;
        self.executed_rounds += d.executed_rounds;
        self.shard_ticks_evaluated += d.shard_ticks_evaluated;
        self.nodes_evaluated += d.nodes_evaluated;
        self.intents += d.intents;
        self.migrations += d.migrations;
        self.completed_tasks += d.completed_tasks;
    }
}

/// Counter deltas summed over every engine an operation used. A restored
/// engine restarts `executed_rounds` at 0 but resumes the shard
/// accumulators and the ledger from the checkpoint, so each engine's own
/// delta — from its first reading to its last — is what adds up.
#[derive(Debug, Default)]
pub struct CountLedger {
    total: Counts,
    base: Counts,
}

impl CountLedger {
    /// Starts counting on an engine whose counters read `base` now.
    pub fn start(&mut self, base: Counts) {
        self.base = base;
    }

    /// Stops counting on the current engine, whose counters read `end`.
    pub fn stop(&mut self, end: Counts) {
        self.total.add(&end.since(&self.base));
    }

    /// The summed deltas.
    pub fn total(&self) -> Counts {
        self.total
    }
}
