//! # pp-bench — the experiment harness
//!
//! One binary per paper artifact (see DESIGN.md §5 and EXPERIMENTS.md):
//! `cargo run --release -p pp-bench --bin expN` prints the regenerated
//! table and writes a JSON copy under `target/experiments/`. The Criterion
//! benches in `benches/` time the underlying machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pp_metrics::imbalance::Imbalance;
use pp_sim::balancer::LoadBalancer;
use pp_sim::engine::{Engine, EngineBuilder, EngineConfig, RunReport};
use pp_tasking::workload::Workload;
use pp_topology::graph::Topology;
use pp_topology::links::{LinkAttrs, LinkTable};
use serde::Serialize;
use std::path::PathBuf;

/// Links fast enough that transfers land within the tick — the synchronous
/// assumption of the classical convergence analyses.
pub fn instant_links(topo: &Topology) -> LinkTable {
    LinkTable::uniform(topo, LinkAttrs { bandwidth: 1e9, distance: 1e-9, fault_prob: 0.0 })
}

/// Builds and runs one simulation to completion (rounds + drain) and
/// returns the report.
pub fn run_once(
    topo: Topology,
    links: Option<LinkTable>,
    workload: Workload,
    balancer: Box<dyn LoadBalancer>,
    config: EngineConfig,
    rounds: u64,
    seed: u64,
) -> RunReport {
    let mut builder = EngineBuilder::new(topo)
        .workload(workload)
        .balancer_boxed(balancer)
        .config(config)
        .seed(seed);
    if let Some(l) = links {
        builder = builder.links(l);
    }
    let mut engine: Engine = builder.build();
    engine.run_rounds(rounds).drain(1000.0);
    engine.report()
}

/// Initial CoV of a workload (before any balancing).
pub fn initial_cov(w: &Workload) -> f64 {
    Imbalance::of(&w.heights()).cov
}

/// Prints the experiment banner.
pub fn banner(id: &str, title: &str, paper_ref: &str) {
    println!("=== {id}: {title}");
    println!("    paper artifact: {paper_ref}\n");
}

/// Why a JSON artifact check failed: the file is absent/unreadable, or it
/// exists but does not parse. The distinction matters for CI diagnostics —
/// a parse error on a missing file sends people hunting for corruption
/// that is not there.
#[derive(Debug)]
pub enum CheckError {
    /// The path does not exist.
    NotFound(String),
    /// The path exists but cannot be read.
    Unreadable(String),
    /// The contents are not valid JSON.
    Invalid(String),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::NotFound(e) => write!(f, "NOT FOUND ({e})"),
            CheckError::Unreadable(e) => write!(f, "UNREADABLE ({e})"),
            CheckError::Invalid(e) => write!(f, "INVALID: {e}"),
        }
    }
}

/// Reads an artifact file, classifying the failure as missing vs
/// unreadable (the distinction [`CheckError`] exists for).
pub fn read_artifact(path: &str) -> Result<String, CheckError> {
    std::fs::read_to_string(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            CheckError::NotFound(e.to_string())
        } else {
            CheckError::Unreadable(e.to_string())
        }
    })
}

/// Checks that `path` exists and parses as JSON, distinguishing a missing
/// file from a corrupt one.
pub fn check_json_file(path: &str) -> Result<(), CheckError> {
    let text = read_artifact(path)?;
    serde_json::from_str(&text).map(|_| ()).map_err(|e| CheckError::Invalid(e.to_string()))
}

/// Writes a JSON artifact for EXPERIMENTS.md bookkeeping. Failures to
/// create the directory are reported but non-fatal (the table on stdout is
/// the primary output).
pub fn dump_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("target/experiments");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warn: cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warn: cannot write {path:?}: {e}");
            } else {
                println!("[json artifact: {}]", path.display());
            }
        }
        Err(e) => eprintln!("warn: cannot serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::balancer::ParticlePlaneBalancer;
    use pp_core::params::PhysicsConfig;

    #[test]
    fn run_once_produces_report() {
        let topo = Topology::torus(&[4, 4]);
        let w = Workload::hotspot(16, 0, 32.0);
        let r = run_once(
            topo,
            None,
            w,
            Box::new(ParticlePlaneBalancer::new(PhysicsConfig::default())),
            EngineConfig::default(),
            50,
            1,
        );
        assert_eq!(r.rounds, 50);
        assert!(r.final_imbalance.cov.is_finite());
    }

    #[test]
    fn instant_links_cover_topology() {
        let topo = Topology::hypercube(3);
        let l = instant_links(&topo);
        assert_eq!(l.len(), topo.edge_count());
    }

    #[test]
    fn initial_cov_of_hotspot() {
        let w = Workload::hotspot(16, 0, 16.0);
        assert!(initial_cov(&w) > 3.0);
    }

    #[test]
    fn check_json_file_distinguishes_failure_modes() {
        let dir = std::env::temp_dir().join("pp-bench-check-test");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("no-such-file.json");
        let _ = std::fs::remove_file(&missing);
        match check_json_file(missing.to_str().unwrap()) {
            Err(CheckError::NotFound(_)) => {}
            other => panic!("expected NotFound, got {other:?}"),
        }

        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, "{ not json").unwrap();
        match check_json_file(corrupt.to_str().unwrap()) {
            Err(CheckError::Invalid(e)) => assert!(e.contains("parse error"), "{e}"),
            other => panic!("expected Invalid, got {other:?}"),
        }

        let good = dir.join("good.json");
        std::fs::write(&good, r#"{"a": [1, 2.5], "b": null}"#).unwrap();
        assert!(check_json_file(good.to_str().unwrap()).is_ok());
    }
}
