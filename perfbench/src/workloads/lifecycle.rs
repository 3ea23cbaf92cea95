//! `lifecycle`: seeded mini-Python sources import one to three packages of
//! the builtin index, and every third repeats an earlier import set. Each
//! function goes analyze → resolve → environment → pack → to/from bytes →
//! unpack, then runs one real command under `Lfm::run` (default 250 ms
//! poll). The traced run also runs each command under a bare `Command`.
//! One caller, closed loop.

use super::{end_to_end, overhead, set_up, Outcome, Reps};
use crate::host::{reset_peak_rss, HostClock};
use crate::metrics::{digest, median, Checks};
use crate::spans::{Tracer, REP};
use crate::{repeat_for, timed, RunConfig, Scale};
use lfm_core::monitor::lfm::Lfm;
use lfm_core::pyenv::analyze::analyze_source;
use lfm_core::pyenv::environment::Environment;
use lfm_core::pyenv::index::PackageIndex;
use lfm_core::pyenv::pack::{fnv1a, PackedEnv};
use lfm_core::pyenv::requirements::RequirementSet;
use lfm_core::pyenv::resolve::ResolveCache;
use lfm_core::simcluster::rng::SimRng;
use std::collections::BTreeSet;
use std::process::Command;

/// Top-level modules of builtin-index packages that functions import.
const MODULES: &[&str] = &[
    "numpy",
    "scipy",
    "pandas",
    "requests",
    "sklearn",
    "tensorflow",
    "keras",
    "matplotlib",
    "rdkit",
    "mordred",
    "PIL",
    "h5py",
    "numba",
    "sympy",
    "Bio",
    "pysam",
    "uproot",
    "absl",
    "grpc",
    "psutil",
    "tqdm",
    "joblib",
    "pytz",
    "dateutil",
    "six",
    "lz4",
    "cloudpickle",
];
/// Every `REPEAT_EVERY`-th function repeats an earlier import set.
const REPEAT_EVERY: usize = 3;
/// Functions per repetition: three short sleeps and one process tree that
/// end before the first poll, and two sleeps that end between the first and
/// second poll.
const CYCLE: usize = 6;
/// Functions generated per set-up; a run that needs more wraps around.
const POOL: usize = 1200;

/// The real command a function runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// `sleep <secs>`.
    Sleep(f64),
    /// `sh -c "sleep <a> & sleep <b>; wait"`: a parent with two children.
    Tree(f64, f64),
}

impl Job {
    pub fn command(&self) -> Command {
        match self {
            Job::Sleep(s) => {
                let mut c = Command::new("sleep");
                c.arg(format!("{s:.3}"));
                c
            }
            Job::Tree(a, b) => {
                let mut c = Command::new("sh");
                c.arg("-c")
                    .arg(format!("sleep {a:.3} & sleep {b:.3}; wait"));
                c
            }
        }
    }
}

#[derive(Debug, Clone)]
pub struct Function {
    pub source: String,
    pub imports: Vec<&'static str>,
    pub job: Job,
}

/// `count` seeded functions.
fn functions(count: usize, seed: u64) -> Vec<Function> {
    let mut rng = SimRng::seeded(seed);
    let mut out: Vec<Function> = Vec::with_capacity(count);
    for i in 0..count {
        let imports = if i % REPEAT_EVERY == REPEAT_EVERY - 1 {
            out[rng.uniform_int(0, i as u64 - 1) as usize]
                .imports
                .clone()
        } else {
            let k = rng.uniform_int(1, 3) as usize;
            let mut set = Vec::with_capacity(k);
            while set.len() < k {
                let m = MODULES[rng.uniform_int(0, MODULES.len() as u64 - 1) as usize];
                if !set.contains(&m) {
                    set.push(m);
                }
            }
            set
        };
        let mut source = format!("def fn_{i}(x):\n");
        for m in &imports {
            source.push_str(&format!("    import {m}\n"));
        }
        source.push_str("    return x\n");
        let short = |rng: &mut SimRng| rng.uniform(0.02, 0.18);
        let job = match i % CYCLE {
            2 => Job::Tree(short(&mut rng), short(&mut rng)),
            4 | 5 => Job::Sleep(rng.uniform(0.30, 0.45)),
            _ => Job::Sleep(short(&mut rng)),
        };
        out.push(Function {
            source,
            imports,
            job,
        });
    }
    out
}

/// The inputs: the package index and the function pool.
pub struct Inputs {
    pub index: PackageIndex,
    pub functions: Vec<Function>,
}

pub fn inputs(seed: u64) -> Inputs {
    Inputs {
        index: PackageIndex::builtin(),
        functions: functions(POOL, seed),
    }
}

/// Prepare one function's environment through the whole `pyenv` chain and
/// check the round trip. Returns the archive bytes.
pub fn prepare(
    tracer: &Tracer,
    index: &PackageIndex,
    cache: &ResolveCache,
    f: &Function,
    name: &str,
) -> Result<Vec<u8>, String> {
    let analysis = tracer
        .within("pyenv.analyze", || analyze_source(&f.source))
        .map_err(|e| e.to_string())?;
    let env = tracer
        .within("pyenv.resolve", || {
            let reqs = RequirementSet::from_analysis(&analysis, index)?;
            let resolution = cache.resolve(index, &reqs)?;
            Environment::from_resolution(name, format!("/envs/{name}"), index, &resolution)
        })
        .map_err(|e| e.to_string())?;
    let packed = tracer.within("pyenv.pack", || PackedEnv::pack(&env));
    let (bytes, decoded) = tracer.within("pyenv.codec", || {
        let bytes = packed.to_bytes();
        let decoded = PackedEnv::from_bytes(&bytes);
        (bytes, decoded)
    });
    let decoded = decoded.map_err(|e| e.to_string())?;
    let unpacked = tracer
        .within("pyenv.unpack", || {
            decoded.unpack(format!("/sandbox/{name}"))
        })
        .map_err(|e| e.to_string())?;
    tracer.within("check", || {
        check_round_trip(&env, &packed, &decoded, &unpacked)
    })?;
    Ok(bytes.to_vec())
}

/// The bytes round-trip to the same archive, and the unpacked environment
/// holds the same distributions as the packed one.
pub fn check_round_trip(
    env: &Environment,
    packed: &PackedEnv,
    decoded: &PackedEnv,
    unpacked: &Environment,
) -> Result<(), String> {
    if decoded != packed {
        return Err("archive changed in a to/from bytes round trip".into());
    }
    let dists = |e: &Environment| -> BTreeSet<(String, String)> {
        e.releases()
            .map(|r| (r.name.clone(), r.version.to_string()))
            .collect()
    };
    if dists(env) != dists(unpacked) {
        return Err(format!(
            "unpacked {:?} != packed {:?}",
            dists(unpacked),
            dists(env)
        ));
    }
    Ok(())
}

/// Per-function results of one repetition.
#[derive(Debug, Default)]
struct Cycle {
    lfm_secs: Vec<f64>,
    polls: u64,
    poll_cpu_secs: f64,
    archive_bytes: u64,
    /// FNV-1a of each archive, in function order.
    archives: Vec<String>,
}

/// Run functions `first..first + CYCLE` of the pool.
fn cycle(
    tracer: &Tracer,
    inputs: &Inputs,
    cache: &ResolveCache,
    first: usize,
    checks: &mut Checks,
) -> Cycle {
    let mut c = Cycle::default();
    for i in first..first + CYCLE {
        let f = &inputs.functions[i % POOL];
        let name = format!("fn-{i}");
        let prepared = prepare(tracer, &inputs.index, cache, f, &name);
        let (outcome, secs) =
            timed(|| tracer.within("lfm.run", || Lfm::new().run(&mut f.job.command())));
        c.lfm_secs.push(secs);
        let ran = match &outcome {
            Ok(o) => {
                c.polls += o.report().polls;
                c.poll_cpu_secs += o.report().monitor_overhead_secs;
                o.is_success()
            }
            Err(_) => false,
        };
        let ok = checks.expect(prepared.is_ok(), || {
            format!("{name}: {}", prepared.clone().err().unwrap_or_default())
        }) & checks.expect(ran, || format!("{name}: {:?} ended {outcome:?}", f.job));
        checks.attempt(1, !ok as u64);
        let archive = prepared.unwrap_or_default();
        c.archive_bytes += archive.len() as u64;
        c.archives.push(format!("{:016x}", fnv1a(&archive)));
    }
    c
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let tracer = Tracer::new(cfg.trace);
    let mut clock = HostClock::new();
    let (inputs, setup_secs) = set_up(&tracer, &mut clock, || inputs(cfg.seed));
    let cache = ResolveCache::new();
    let mut out = Outcome::default();
    let mut next = 0;
    let min_reps = if cfg.scale == Scale::Smoke { 1 } else { 3 };
    let untraced_tracer = Tracer::new(false);

    if !cfg.trace {
        let mut reps = Reps::default();
        let mut call_secs = Vec::new();
        let mut first = None;
        repeat_for(cfg.budget, min_reps, || {
            reset_peak_rss();
            let (c, secs) =
                timed(|| cycle(&untraced_tracer, &inputs, &cache, next, &mut out.checks));
            first.get_or_insert_with(|| digest(&c.archives.join(",")));
            next += CYCLE;
            // Sleep-bound: wall time, not scaled to host speed.
            reps.push(secs, secs);
            call_secs.extend(c.lfm_secs);
        });
        end_to_end(
            &mut out,
            CYCLE as f64,
            &reps,
            &call_secs,
            &setup_secs,
            &clock,
        );
        out.details
            .push(format!("digest {}", first.unwrap_or_default()));
        return out;
    }

    let mut untraced = Vec::new();
    let mut lags = Vec::new();
    let mut traced = Cycle::default();
    let mut functions = 0;
    let mut first = None;
    repeat_for(cfg.budget, 1, || {
        let (c, secs) = timed(|| cycle(&untraced_tracer, &inputs, &cache, next, &mut out.checks));
        first.get_or_insert_with(|| digest(&c.archives.join(",")));
        untraced.push(secs);
        next += CYCLE;
        let rep = tracer.span(REP);
        let c = cycle(&tracer, &inputs, &cache, next, &mut out.checks);
        drop(rep);
        // Bare runs of the same commands, in a root span of their own.
        let _bare = tracer.span("lfm.bare");
        for (k, lfm_secs) in c.lfm_secs.iter().enumerate() {
            let job = &inputs.functions[(next + k) % POOL].job;
            let (status, bare_secs) = timed(|| job.command().status());
            out.checks
                .expect(status.as_ref().is_ok_and(|s| s.success()), || {
                    format!("bare {job:?} ended {status:?}")
                });
            lags.push((lfm_secs - bare_secs) * 1e3);
        }
        next += CYCLE;
        functions += CYCLE;
        traced.polls += c.polls;
        traced.poll_cpu_secs += c.poll_cpu_secs;
        traced.archive_bytes += c.archive_bytes;
    });
    let shares = tracer.shares();
    shares.record(&mut out.values);
    overhead(&mut out, shares.root_secs(REP), &untraced);
    let stats = cache.stats();
    let v = &mut out.values;
    v.set(
        "pyenv.archive_bytes",
        traced.archive_bytes as f64 / functions as f64,
    );
    v.set(
        "pyenv.resolve_cache_hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    v.set("lfm.exit_lag_ms", median(&lags));
    v.set("lfm.polls", traced.polls as f64 / functions as f64);
    v.set("lfm.poll_cpu_ms", traced.poll_cpu_secs * 1e3);
    out.details
        .push(format!("digest {}", first.unwrap_or_default()));
    out
}
