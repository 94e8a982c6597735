//! The repository's benchmark: one command, three workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--heldout-seed <m>]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. Lines
//! before it carry the run's facts (`nproc`, rustc version, commit, seed,
//! sample counts, per-seed simulated counts). A wrong output makes
//! `correct` false and the exit code 1. See `README.md` beside this package
//! for the workloads and what each metric should move.

mod report;
mod sim;
mod svc;
mod trace;
mod wrap;

use report::{json_str, object, RunResult};
use sim::SimWorkload;
use std::io::Write as _;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("instances_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("cpu_ms_per_instance", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_frac", "frac"),
];

/// Per-layer metrics, printed with `--trace 1`. A workload that bypasses a
/// layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.step_ns_per_event", "ns"),
    ("sim.engine.self_ns_per_event", "ns"),
    ("sim.events_per_instance", "count"),
    ("sim.adversary.decide_ns_per_event", "ns"),
    ("core.step_ns_per_event", "ns"),
    ("core.messages_per_instance", "count"),
    ("core.max_communicate_calls", "count"),
    ("core.renaming.elections_per_name", "ratio"),
    ("sim.partition.ns_per_event", "ns"),
    ("sim.partition.speedup_vs_p1", "x"),
    ("runtime.exec.instance_us_p50", "us"),
    ("runtime.exec.instance_us_p99", "us"),
    ("runtime.exec.op_gap_ns", "ns"),
    ("runtime.exec.peak_in_flight", "count"),
    ("runtime.shm.propagate_ns", "ns"),
    ("runtime.shm.collect_ns", "ns"),
    ("runtime.shm.flip_ns", "ns"),
    ("runtime.shm.ops_per_instance.propagate", "count"),
    ("runtime.shm.ops_per_instance.collect", "count"),
    ("runtime.shm.ops_per_instance.flip", "count"),
    ("runtime.shm.ops_per_instance.choose", "count"),
    ("runtime.shm.collect_entries", "count"),
    ("service.submit_us", "us"),
    ("service.queue_wait_us_p50", "us"),
    ("service.queue_wait_us_p99", "us"),
    ("service.run_us_p50", "us"),
    ("service.run_us_p99", "us"),
    ("service.handoff_us_mean", "us"),
    ("service.queue_high_water", "count"),
    ("service.live_namespaces_end", "count"),
    ("service.shutdown_us", "us"),
    ("trace.overhead_frac", "frac"),
];

const WORKLOADS: &[&str] = &[
    "sim-election-n128",
    "svc-async-renaming-n16",
    "sim-partitioned-n1024-k64",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub heldout_seed: Option<u64>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut heldout_seed = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(number()?),
            "--heldout-seed" => heldout_seed = Some(number()?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds takes a number, got {value:?}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must lie in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        heldout_seed,
    })
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_once(opts: &Opts, digest: &str) -> RunResult {
    let mut result = match opts.workload.as_str() {
        "sim-election-n128" => sim::run_workload(SimWorkload::Election, opts, digest),
        "sim-partitioned-n1024-k64" => sim::run_workload(SimWorkload::Partitioned, opts, digest),
        svc::NAME => svc::run_workload(opts),
        other => unreachable!("parse() admits only known workloads, got {other}"),
    };
    if !opts.trace {
        let success = 1.0 - report::ratio(result.failed as f64, result.attempted as f64);
        result.metric("success_frac", success);
    }
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    for (name, value) in &result.metrics {
        if !value.is_finite() {
            result.errors.push(format!("metric {name} is not finite"));
        }
        if !table.iter().any(|(known, _)| known == name) {
            result
                .errors
                .push(format!("metric {name} is not in the metric table"));
        }
    }
    if result.attempted == 0 {
        result.errors.push("no instance was attempted".to_string());
    }
    result
}

/// Run the same workload with seed `heldout` in a fresh process of this
/// program, so neither run inherits the other's allocator, executor or peak
/// memory. Returns the child's output lines (JSON objects, result last).
fn run_heldout(opts: &Opts, heldout: u64) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("held-out seed: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", &opts.workload])
        .args(["--seed", &heldout.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("held-out seed: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "the held-out seed's run was incorrect ({})",
            output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    Ok(text.lines().map(str::to_string).collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    };
    let digest = report::source_digest();
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut result = run_once(&opts, &digest);
    let mut stdout = std::io::stdout().lock();
    if let Some(heldout) = opts.heldout_seed {
        match run_heldout(&opts, heldout) {
            Ok(lines) => {
                let _ = writeln!(stdout, "{{\"heldout\": [{}]}}", lines.join(", "));
            }
            Err(error) => result.errors.push(error),
        }
    }
    // What the run records besides its measurements.
    let commit = report::commit().map_or("null".to_string(), |c| json_str(&c));
    let fields = [
        ("workload".to_string(), json_str(&opts.workload)),
        ("seed".to_string(), opts.seed.to_string()),
        ("seconds".to_string(), report::json_num(opts.seconds)),
        ("trace".to_string(), opts.trace.to_string()),
        ("nproc".to_string(), nproc().to_string()),
        (
            "rustc".to_string(),
            json_str(env!("PERFBENCH_RUSTC_VERSION")),
        ),
        ("commit".to_string(), commit),
        ("source_digest".to_string(), json_str(&digest)),
        ("run".to_string(), result.info_json()),
    ];
    let _ = writeln!(stdout, "{{\"info\": {}}}", object(&fields));
    for error in result.errors.iter().take(50) {
        eprintln!("perfbench: {error}");
    }
    let line = result.result_json(table);
    let _ = writeln!(stdout, "{line}");
    let _ = stdout.flush();
    std::process::exit(if result.correct() { 0 } else { 1 });
}
