//! The simulator workloads: `sim-election-n128` (sequential engine) and
//! `sim-partitioned-n1024-k64` (partitioned engine, canonical rounds).
//!
//! One instance is one election with its own seed. A run times a fixed
//! number of instances, `--seconds` times the workload's planned rate, not
//! as many as fit in the time: the same seed and seconds always time the
//! same instances, however fast the host is. Construction of the simulator
//! and its participants is set-up and stays out of the measured window; the
//! window is the sum of the `run` / `run_canonical` times.
//!
//! An untraced run executes its instance list three times over, in the
//! same order, and counts for each instance its fastest run. The runs of
//! one instance execute the same events (the counts are checked equal), so
//! they differ only by what the host added: on a shared host, spells of
//! several seconds in which every instruction costs up to half as much
//! again.

use crate::report::{input, median, process_cpu_s, ratio, thread_cpu_ns, Histogram, RunResult};
use crate::trace;
use crate::wrap::{StepTally, TimedAdversary, TimedProtocol};
use crate::Opts;
use fle_core::{checks, LeaderElection};
use fle_model::{splitmix64, ProcId, Protocol};
use fle_sim::{
    Adversary, ExecutionReport, ParallelSimulator, RandomAdversary, RoundCrashPlan, SimConfig,
    SimError, Simulator,
};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The count metrics of a traced run average over this many first
/// instances, so they are a pure function of the seed; a traced pass runs
/// at least this many.
const COUNT_INSTANCES: usize = 2;

#[derive(Debug, Clone, Copy)]
pub enum SimWorkload {
    /// Full-participation election, n = 128, random adversary, one thread.
    Election,
    /// k = 64 of n = 1024, canonical super-rounds, one partition per CPU.
    Partitioned,
}

impl SimWorkload {
    fn n(self) -> usize {
        match self {
            SimWorkload::Election => 128,
            SimWorkload::Partitioned => 1024,
        }
    }

    fn k(self) -> usize {
        match self {
            SimWorkload::Election => 128,
            SimWorkload::Partitioned => 64,
        }
    }

    fn name(self) -> &'static str {
        match self {
            SimWorkload::Election => "sim-election-n128",
            SimWorkload::Partitioned => "sim-partitioned-n1024-k64",
        }
    }

    /// Distinct instances a run times per second of `--seconds`: about
    /// what a 2-CPU x86-64 host completes in a second, divided by the
    /// repeats.
    fn planned_per_s(self) -> f64 {
        let runs_per_s = match self {
            SimWorkload::Election => 7.0,
            SimWorkload::Partitioned => 0.7,
        };
        runs_per_s / REPEATS as f64
    }
}

/// The simulated costs of one instance: a pure function of its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    events: u64,
    messages: u64,
    max_communicate_calls: u64,
}

// One engine lives per instance; its size does not matter.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Sequential(Simulator),
    Partitioned(ParallelSimulator),
}

fn build(
    workload: SimWorkload,
    seed: u64,
    partitions: usize,
    tally: Option<&Arc<Mutex<StepTally>>>,
    key: u64,
) -> Engine {
    let protocol = |p: ProcId| -> Box<dyn Protocol> {
        let election = LeaderElection::new(p);
        match tally {
            Some(tally) => Box::new(TimedProtocol::new(election, key, Arc::clone(tally))),
            None => Box::new(election),
        }
    };
    match workload {
        SimWorkload::Election => {
            let mut sim = Simulator::new(SimConfig::new(workload.n()).with_seed(seed));
            for i in 0..workload.k() {
                sim.add_participant(ProcId(i), protocol(ProcId(i)));
            }
            Engine::Sequential(sim)
        }
        SimWorkload::Partitioned => {
            let config = SimConfig::new(workload.n())
                .with_seed(seed)
                .with_partitions(partitions);
            let mut sim = ParallelSimulator::new(config);
            for i in 0..workload.k() {
                sim.add_participant(ProcId(i), protocol(ProcId(i)));
            }
            Engine::Partitioned(sim)
        }
    }
}

/// Times an untraced run executes its instance list; each instance counts
/// with its fastest run.
const REPEATS: u64 = 3;

/// One in this many `step_once` calls is timed for the latency metrics.
const STEP_SAMPLE: u64 = 16;

/// Run one instance through the engine's advance call — `step_once`, the
/// loop `Simulator::run` is made of, or `step_round`, the loop of
/// `ParallelSimulator::run_canonical` — and record, per executed event, the
/// latency of the call that executed it into `latencies`: sampled
/// `step_once` latencies with weight one, every round's latency weighted by
/// its events.
fn run(
    engine: &mut Engine,
    seed: u64,
    traced: bool,
    key: u64,
    latencies: &mut Histogram,
) -> Result<ExecutionReport, SimError> {
    match engine {
        Engine::Sequential(sim) => {
            let _instance = traced.then(|| trace::coarse("sim.instance", key));
            let adversary = RandomAdversary::with_seed(splitmix64(seed));
            let mut adversary: Box<dyn Adversary> = if traced {
                Box::new(TimedAdversary::new(adversary, key))
            } else {
                Box::new(adversary)
            };
            for call in 0u64.. {
                let _event = traced.then(|| trace::fine("sim.step", key));
                let start = (call % STEP_SAMPLE == 0).then(Instant::now);
                if !sim.step_once(adversary.as_mut())? {
                    break;
                }
                if let Some(start) = start {
                    latencies.record(start.elapsed().as_nanos() as u64, 1);
                }
            }
            Ok(sim.finish())
        }
        Engine::Partitioned(sim) => {
            let _instance = traced.then(|| trace::coarse("sim.partition.instance", key));
            sim.set_crash_plan(&RoundCrashPlan::none())?;
            loop {
                let events = sim.events_executed();
                let start = Instant::now();
                if !sim.step_round()? {
                    break;
                }
                let latency = start.elapsed().as_nanos() as u64;
                latencies.record(latency, sim.events_executed() - events);
            }
            Ok(sim.finish())
        }
    }
}

/// One measured pass over instances `0, 1, …` of a seed.
struct Phase {
    result: RunResult,
    /// Run time of each instance (its fastest run): on the sequential
    /// engine, the on-CPU time of the thread that ran it, which leaves out
    /// time the hypervisor gave to other guests and time other processes
    /// held the CPU; on the partitioned engine, whose threads run in
    /// parallel, wall time.
    run_ns: Vec<u64>,
    cpu_s: Vec<f64>,
    /// Per-event latencies of each instance's fastest run.
    latencies: Histogram,
    setup_s: Vec<f64>,
    counts: Vec<(u64, Counts)>,
}

impl Phase {
    fn events(&self) -> u64 {
        self.counts.iter().map(|(_, c)| c.events).sum()
    }
}

/// How one pass runs.
#[derive(Clone, Copy)]
struct Pass {
    partitions: usize,
    /// Instances `0..instances` of the seed.
    instances: u64,
    /// Times the whole instance list runs, in the same order.
    repeats: u64,
    traced: bool,
}

impl Pass {
    /// Instance 0 alone, once, untraced.
    fn single(partitions: usize) -> Self {
        Pass {
            partitions,
            instances: 1,
            repeats: 1,
            traced: false,
        }
    }
}

/// The fastest run so far of one instance.
struct Best {
    run_ns: u64,
    cpu_s: f64,
    latencies: Histogram,
    counts: Counts,
}

fn phase(workload: SimWorkload, seed: u64, pass: Pass) -> Phase {
    let Pass {
        partitions,
        instances,
        repeats,
        traced,
    } = pass;
    let mut out = Phase {
        result: RunResult::default(),
        run_ns: Vec::new(),
        cpu_s: Vec::new(),
        latencies: Histogram::default(),
        setup_s: Vec::new(),
        counts: Vec::new(),
    };
    let mut best: Vec<Option<Best>> = (0..instances).map(|_| None).collect();
    // The simulator passes read protocol time from spans, not the tally.
    let tally = traced.then(|| Arc::new(Mutex::new(StepTally::default())));
    for _ in 0..repeats {
        for index in 0..instances {
            let s = input(seed, index);
            let start = Instant::now();
            let mut engine = build(workload, s, partitions, tally.as_ref(), index);
            out.setup_s.push(start.elapsed().as_secs_f64());
            let mut latencies = Histogram::default();
            let cpu = process_cpu_s();
            let (start, on_cpu) = (Instant::now(), thread_cpu_ns());
            let report = run(&mut engine, s, traced, index, &mut latencies);
            let run_ns = match workload {
                SimWorkload::Election => thread_cpu_ns() - on_cpu,
                SimWorkload::Partitioned => start.elapsed().as_nanos() as u64,
            };
            let cpu_s = process_cpu_s() - cpu;
            drop(engine);
            out.result.attempted += 1;
            let report = match report {
                Ok(report) => report,
                Err(error) => {
                    out.result.failed += 1;
                    out.result.error(format!(
                        "{} seed {s}: simulation failed: {error}",
                        workload.name()
                    ));
                    continue;
                }
            };
            let participants: Vec<ProcId> = (0..workload.k()).map(ProcId).collect();
            if !checks::unique_winner(&report) || !checks::all_returned(&report, &participants) {
                out.result.failed += 1;
                out.result.error(format!(
                    "{} seed {s}: {} winners, {} of {} returned",
                    workload.name(),
                    report.winners().len(),
                    report.outcomes.len(),
                    workload.k()
                ));
            }
            let counts = Counts {
                events: report.events_executed,
                messages: report.total_messages(),
                max_communicate_calls: report.max_communicate_calls(),
            };
            let slot = &mut best[index as usize];
            if let Some(earlier) = slot.as_ref().filter(|b| b.counts != counts) {
                out.result.error(format!(
                    "non-determinism (repeat of an instance) at instance seed {s}: {:?} vs {counts:?}",
                    earlier.counts
                ));
            }
            if slot.as_ref().is_none_or(|b| run_ns < b.run_ns) {
                *slot = Some(Best {
                    run_ns,
                    cpu_s,
                    latencies,
                    counts,
                });
            }
        }
    }
    for (index, best) in (0..).zip(best) {
        if let Some(best) = best {
            out.run_ns.push(best.run_ns);
            out.cpu_s.push(best.cpu_s);
            out.latencies.merge(&best.latencies);
            out.counts.push((input(seed, index), best.counts));
        }
    }
    out
}

/// Counts of the same seed must agree between phases of one run.
fn check_same_counts(result: &mut RunResult, what: &str, a: &[(u64, Counts)], b: &[(u64, Counts)]) {
    for ((seed_a, ca), (seed_b, cb)) in a.iter().zip(b) {
        if seed_a == seed_b && ca != cb {
            result.error(format!(
                "non-determinism ({what}) at instance seed {seed_a}: {ca:?} vs {cb:?}"
            ));
        }
    }
}

/// Append this run's per-seed counts to the ledger and flag any that
/// disagree with an earlier run of the same sources.
fn ledger(result: &mut RunResult, workload: SimWorkload, digest: &str, counts: &[(u64, Counts)]) {
    let dir = crate::report::out_dir();
    let path = dir.join("sim_counts.tsv");
    let mut known: BTreeMap<u64, Counts> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 6 || fields[0] != digest || fields[1] != workload.name() {
                continue;
            }
            let parsed: Vec<u64> = fields[2..].iter().filter_map(|f| f.parse().ok()).collect();
            if let [seed, events, messages, max_communicate_calls] = parsed[..] {
                known.insert(
                    seed,
                    Counts {
                        events,
                        messages,
                        max_communicate_calls,
                    },
                );
            }
        }
    }
    let mut lines = String::new();
    for (seed, counts) in counts {
        match known.get(seed) {
            Some(earlier) if earlier != counts => result.error(format!(
                "non-determinism (earlier run of the same sources) at instance seed {seed}: \
                 {earlier:?} vs {counts:?}"
            )),
            Some(_) => {}
            None => {
                known.insert(*seed, *counts);
                lines.push_str(&format!(
                    "{digest}\t{}\t{seed}\t{}\t{}\t{}\n",
                    workload.name(),
                    counts.events,
                    counts.messages,
                    counts.max_communicate_calls
                ));
            }
        }
    }
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?
            .write_all(lines.as_bytes())
    });
    if let Err(error) = written {
        eprintln!("perfbench: could not append to {}: {error}", path.display());
    }
}

fn counts_json(counts: &[(u64, Counts)]) -> String {
    let rows: Vec<String> = counts
        .iter()
        .map(|(seed, c)| {
            format!(
                "{{\"seed\": {seed}, \"events\": {}, \"messages\": {}, \"max_communicate_calls\": {}}}",
                c.events, c.messages, c.max_communicate_calls
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

pub fn run_workload(workload: SimWorkload, opts: &Opts, digest: &str) -> RunResult {
    let partitions = match workload {
        SimWorkload::Election => 0,
        SimWorkload::Partitioned => crate::nproc(),
    };
    let planned = (opts.seconds * workload.planned_per_s()).round() as u64;
    let mut pass = Pass {
        partitions,
        instances: planned.max(1),
        repeats: REPEATS,
        traced: false,
    };
    let mut result = RunResult::default();
    if opts.trace {
        // The traced run spends its seconds over an untraced and a traced
        // pass of the same instances, each run once, after one instance
        // that warms the allocator and the engine's arena pools so the two
        // compare like with like.
        pass.instances = (planned * pass.repeats / 2).max(COUNT_INSTANCES as u64);
        pass.repeats = 1;
        result.absorb(phase(workload, opts.seed, Pass::single(partitions)).result);
    }
    let (steal, begun) = (crate::report::host_steal_s(), Instant::now());
    let main = phase(workload, opts.seed, pass);
    let steal = crate::report::host_steal_s() - steal;
    let elapsed = begun.elapsed().as_secs_f64();
    let mut all_counts = main.counts.clone();
    if opts.trace {
        let traced = phase(
            workload,
            opts.seed,
            Pass {
                traced: true,
                ..pass
            },
        );
        check_same_counts(
            &mut result,
            "traced vs untraced",
            &main.counts,
            &traced.counts,
        );
        let mut speedup = None;
        if let SimWorkload::Partitioned = workload {
            // Instance 0 at one partition and again at `nproc`, both warm.
            let single = phase(workload, opts.seed, Pass::single(1));
            let parallel = phase(workload, opts.seed, Pass::single(partitions));
            check_same_counts(
                &mut result,
                "1 partition vs nproc",
                &main.counts,
                &single.counts,
            );
            if let (Some(p1), Some(pn)) = (single.run_ns.first(), parallel.run_ns.first()) {
                speedup = Some(ratio(*p1 as f64, *pn as f64));
            }
            result.absorb(single.result);
            result.absorb(parallel.result);
        }
        let (spans, totals) = trace::take();
        let total = |name: &str| totals.get(name).copied().unwrap_or_default();
        let instances = traced.counts.len().min(COUNT_INSTANCES);
        let per_instance = |f: fn(&Counts) -> u64| {
            let sum: u64 = traced
                .counts
                .iter()
                .take(instances)
                .map(|(_, c)| f(c))
                .sum();
            ratio(sum as f64, instances as f64)
        };
        let events = traced.events() as f64;
        // CPU time, which other tenants of the host do not move.
        let common = main.cpu_s.len().min(traced.cpu_s.len());
        let untraced_cpu: f64 = main.cpu_s[..common].iter().sum();
        let traced_cpu: f64 = traced.cpu_s[..common].iter().sum();
        let step = total("sim.step");
        result.metric("sim.step_ns_per_event", ratio(step.total_ns as f64, events));
        result.metric(
            "sim.engine.self_ns_per_event",
            ratio(step.self_ns as f64, events),
        );
        result.metric("sim.events_per_instance", per_instance(|c| c.events));
        result.metric(
            "sim.adversary.decide_ns_per_event",
            ratio(total("sim.adversary.decide").total_ns as f64, events),
        );
        result.metric(
            "core.step_ns_per_event",
            ratio(total("core.step").total_ns as f64, events),
        );
        result.metric("core.messages_per_instance", per_instance(|c| c.messages));
        result.metric(
            "core.max_communicate_calls",
            per_instance(|c| c.max_communicate_calls),
        );
        if let Some(speedup) = speedup {
            result.metric(
                "sim.partition.ns_per_event",
                ratio(total("sim.partition.instance").total_ns as f64, events),
            );
            result.metric("sim.partition.speedup_vs_p1", speedup);
        }
        result.metric("trace.overhead_frac", ratio(traced_cpu, untraced_cpu) - 1.0);
        result.info("traced_instances", traced.counts.len().to_string());
        result.info("span_totals", trace::totals_json(&totals));
        result.info("layer_self_ns", trace::layer_self_json(&totals));
        trace::write_spans(&mut result, workload.name(), opts.seed, &spans);
        all_counts.extend(traced.counts.iter().copied());
        result.absorb(traced.result);
    } else {
        let completed = main.run_ns.len() as f64;
        let run_s: f64 = main.run_ns.iter().map(|ns| *ns as f64 / 1e9).sum();
        let cpu_s: f64 = main.cpu_s.iter().sum();
        if run_s == 0.0 {
            result.error(
                "no run time was measured (is /proc/thread-self/schedstat readable?)".into(),
            );
        }
        result.metric("instances_per_s", ratio(completed, run_s));
        result.metric("p50_us", main.latencies.quantile(0.5) / 1e3);
        result.metric("p99_us", main.latencies.quantile(0.99) / 1e3);
        result.metric("cpu_ms_per_instance", ratio(cpu_s * 1e3, completed));
        result.metric("setup_s", median(&main.setup_s));
        result.metric("peak_rss_mb", crate::report::peak_rss_mb().unwrap_or(0.0));
        result.info("instances", main.run_ns.len().to_string());
        result.info("repeats", pass.repeats.to_string());
        result.info("latency_events", main.latencies.total.to_string());
        result.info(
            "host_steal_frac",
            crate::report::json_num(ratio(steal, elapsed * crate::nproc() as f64)),
        );
        let run_ms: Vec<String> = main
            .run_ns
            .iter()
            .map(|ns| format!("{:.1}", *ns as f64 / 1e6))
            .collect();
        result.info("instance_run_ms", format!("[{}]", run_ms.join(", ")));
    }
    all_counts.sort_unstable_by_key(|(seed, _)| *seed);
    all_counts.dedup_by_key(|(seed, _)| *seed);
    ledger(&mut result, workload, digest, &all_counts);
    result.info("sim_counts", counts_json(&main.counts));
    result.info("partitions", partitions.to_string());
    result.absorb(main.result);
    result
}
