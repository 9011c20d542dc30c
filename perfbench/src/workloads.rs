//! The workload files: plain `ScenarioSpec` JSON under `workloads/`, so
//! `lab --file perfbench/workloads/<name>.json` runs any of them without
//! this crate.

use pp_scenario::spec::{ArrivalSpec, ScenarioSpec};
use pp_topology::spec::TopologySpec;
use serde::Value;
use std::path::PathBuf;

/// Every workload, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["dense-sweep-64k", "sparse-event-1m", "churn-ckpt-16k"];

/// The benchmark's own directory.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The spec text of workload `name`, as committed.
pub fn text(name: &str) -> Result<String, String> {
    if !NAMES.contains(&name) {
        return Err(format!("unknown workload `{name}` (known: {})", NAMES.join(", ")));
    }
    let path = bench_dir().join("workloads").join(format!("{name}.json"));
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The committed spec of workload `name`.
pub fn load(name: &str) -> Result<ScenarioSpec, String> {
    ScenarioSpec::from_json(&text(name)?)
}

/// The spec's top-level seed: the workload's default seed.
pub fn default_seed(text: &str) -> Result<u64, String> {
    Ok(ScenarioSpec::from_json(text)?.seed)
}

/// `text` with every `seed` field, at any depth, set to `seed`. The
/// committed files give all their seed fields one value, so reseeding with
/// the default seed yields the committed spec.
pub fn reseed(text: &str, seed: u64) -> Result<String, String> {
    fn walk(v: &mut Value, seed: u64) {
        match v {
            Value::Object(entries) => {
                for (k, x) in entries {
                    if k == "seed" {
                        *x = Value::UInt(seed);
                    } else {
                        walk(x, seed);
                    }
                }
            }
            Value::Array(items) => items.iter_mut().for_each(|x| walk(x, seed)),
            _ => {}
        }
    }
    let mut v = serde_json::from_str(text).map_err(|e| e.to_string())?;
    walk(&mut v, seed);
    serde_json::to_string_pretty(&v).map_err(|e| e.to_string())
}

/// A 32×32-torus, 30-round copy of `spec` (checkpoints every 10 rounds,
/// Poisson arrival rate scaled with the node count): small enough for
/// tests and for the checkpoint layer probe.
pub fn scaled_down(mut spec: ScenarioSpec) -> ScenarioSpec {
    let scale = 1024.0 / spec.topology.node_count() as f64;
    spec.topology = TopologySpec::Torus { dims: vec![32, 32] };
    if let ArrivalSpec::Poisson { rate, .. } = &mut spec.arrival {
        *rate *= scale;
    }
    spec.duration.rounds = 30;
    spec.duration.drain = spec.duration.drain.min(20.0);
    if let Some(ck) = &mut spec.checkpoint {
        ck.every = 10;
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_specs_are_valid_and_default_reseed_is_identity() {
        for name in NAMES {
            let text = text(name).unwrap();
            let spec = ScenarioSpec::from_json(&text).unwrap();
            spec.validate().unwrap();
            assert_eq!(spec.name, name);
            let same = reseed(&text, spec.seed).unwrap();
            assert_eq!(ScenarioSpec::from_json(&same).unwrap(), spec, "{name}");
            let other = ScenarioSpec::from_json(&reseed(&text, spec.seed + 1).unwrap()).unwrap();
            assert_eq!(other.seed, spec.seed + 1);
            assert_ne!(other, spec);
        }
    }
}
