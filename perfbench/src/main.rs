//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload, prints run metadata and details, then as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits non-zero if any output check failed.

use lfm_core::monitor::summary::JsonObject;
use perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, NAMES};
use perfbench::{RunConfig, Scale, DEFAULT_SEED};
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !NAMES.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            NAMES.join(", "),
            out.workload
        ));
    }
    if !(out.seconds.is_finite() && out.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

/// The commit of the checkout, read from `.git` if there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        scale: Scale::Full,
    };
    let out = workloads::run(&args.workload, &cfg).expect("workload name was checked");

    let mut meta = JsonObject::new();
    meta.field_str("workload", &args.workload)
        .field_u64("seed", args.seed)
        .field_u64("trace", args.trace as u64)
        .field_str("commit", &commit())
        .field_u64(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .field_str("rustc", &rustc_version())
        .field_f64("host_wall_s", start.elapsed().as_secs_f64());
    println!("meta {}", meta.finish());
    for line in &out.details {
        println!("{line}");
    }
    for v in &out.checks.violations {
        println!("CHECK FAILED: {v}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(&out.checks, &out.values, table));
    if out.checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
