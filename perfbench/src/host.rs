//! The host descriptor every result carries.

use serde::Value;
use std::process::Command;

/// Trimmed standard output of `cmd args`, or `"unknown"`.
fn command_output(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU time the hypervisor took from this machine's CPUs so far (the
/// `steal` column of `/proc/stat`, summed over CPUs), in seconds at the
/// usual 100 ticks per second; `None` where it cannot be read.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// `nproc`, `available_parallelism`, CPU model, rustc version and commit
/// (`unknown` unless the working directory is the top of a git checkout).
pub fn describe() -> Value {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let commit = if std::path::Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    Value::Object(vec![
        ("nproc".into(), Value::Str(command_output("nproc", &[]))),
        ("available_parallelism".into(), Value::UInt(parallelism)),
        ("cpu_model".into(), Value::Str(cpu_model())),
        ("rustc".into(), Value::Str(command_output("rustc", &["--version"]))),
        ("commit".into(), Value::Str(commit)),
    ])
}
