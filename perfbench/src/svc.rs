//! The service workload `svc-async-renaming-n16`: tight renaming, n = 16,
//! through `ElectionService` on the task-multiplexed async backend.
//!
//! Load shape: a closed loop. `nproc` client threads each submit one
//! instance, wait for its result, check it and submit the next; the service
//! has `nproc` shards. Every key is distinct and generated from the seed;
//! each instance's seed is its key (the service's default). Throughput is
//! completed instances over the loop's elapsed time, and the latency
//! quantiles are over every completed instance.
//!
//! An untraced run makes three passes of a third of the seconds each, each
//! through a fresh service over the same key stream from its start, and
//! reports the pass with the highest throughput. The passes do the same
//! work; on a shared host they differ by the spells, some seconds long, in
//! which the host slows the virtual CPUs or takes time from them.
//!
//! The traced run measures four passes over the same key stream: the
//! closed loop untraced (the base for `trace.overhead_frac`), the closed
//! loop traced (`service` layer), the same specs through
//! `Executor::submit` directly (`runtime.exec`, `core`), and the same specs
//! through `SharedMemory` handles driven on one thread (`runtime.shm`).

use crate::report::{self, input, median, ratio, Histogram, RunResult};
use crate::trace;
use crate::wrap::{StepTally, TimedMemory, TimedProtocol};
use crate::Opts;
use fle_core::{Renaming, RenamingConfig};
use fle_model::{CancelToken, DriveMachine, DriveStep, Outcome, ProcId, Protocol};
use fle_runtime::{ExecResult, Executor, FaultPlan, RegisterHandle, SharedRegisters};
use fle_service::{BackendKind, ElectionService, InstanceSpec, ServiceConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const N: usize = 16;
/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Closed-loop passes per untraced run; the one with the highest
/// throughput counts.
const PASSES: usize = 3;
/// Warm-up keys come from a part of the key stream the measured loop never
/// reaches.
const WARMUP_BASE: u64 = 1 << 62;

pub const NAME: &str = "svc-async-renaming-n16";

fn spec(key: u64) -> InstanceSpec {
    InstanceSpec::renaming(key, N)
}

/// Every participant returned, and the names are a permutation of `1..=n`.
fn check(outcomes: &BTreeMap<ProcId, Outcome>) -> Result<(), String> {
    if outcomes.len() != N || outcomes.keys().copied().ne((0..N).map(ProcId)) {
        return Err(format!("{} of {N} participants returned", outcomes.len()));
    }
    let mut names: Vec<usize> = outcomes
        .values()
        .filter_map(|o| match o {
            Outcome::Name(name) => Some(*name),
            _ => None,
        })
        .collect();
    names.sort_unstable();
    // Names are 1-based, as in the paper: a tight renaming hands out
    // exactly 1..=n.
    if names.iter().copied().eq(1..=N) {
        Ok(())
    } else {
        Err(format!("names {names:?} are not a permutation of 1..={N}"))
    }
}

/// The participants of instance `key`, each protocol timed into `tally`.
fn timed_participants(
    key: u64,
    tally: &Arc<Mutex<StepTally>>,
) -> Vec<(ProcId, Box<dyn Protocol + Send>)> {
    (0..N)
        .map(|i| {
            let p = ProcId(i);
            let protocol: Box<dyn Protocol + Send> = Box::new(TimedProtocol::new(
                Renaming::new(p, RenamingConfig::new(N)),
                key,
                Arc::clone(tally),
            ));
            (p, protocol)
        })
        .collect()
}

fn config() -> ServiceConfig {
    ServiceConfig::new(crate::nproc(), BackendKind::Async)
}

/// A closed loop's observations.
#[derive(Default)]
struct LoopOut {
    result: RunResult,
    /// Submit-to-result latency of every completed instance, in ns.
    latencies: Histogram,
    completed: u64,
    /// From the first submit until the last client has its last result.
    elapsed: Duration,
    /// CPU time of the process over the same interval.
    cpu_s: f64,
}

/// Run `clients` closed-loop clients over the key stream of `seed` for
/// `budget`; `one` runs and checks one instance.
fn closed_loop(
    seed: u64,
    clients: usize,
    budget: Duration,
    one: &(dyn Fn(u64) -> Result<BTreeMap<ProcId, Outcome>, String> + Sync),
) -> LoopOut {
    let mut per_client: Vec<LoopOut> = (0..clients).map(|_| LoopOut::default()).collect();
    let next = AtomicU64::new(0);
    let cpu = report::process_cpu_s();
    let start = Instant::now();
    let deadline = start + budget;
    std::thread::scope(|scope| {
        for out in &mut per_client {
            let next = &next;
            scope.spawn(move || {
                while Instant::now() < deadline {
                    let k = input(seed, next.fetch_add(1, Ordering::Relaxed));
                    out.result.attempted += 1;
                    let begun = Instant::now();
                    let done = one(k);
                    let latency = begun.elapsed();
                    match done.and_then(|outcomes| check(&outcomes)) {
                        Ok(()) => {
                            out.completed += 1;
                            out.latencies.record(latency.as_nanos() as u64, 1);
                        }
                        Err(error) => {
                            out.result.failed += 1;
                            out.result.error(format!("key {k}: {error}"));
                        }
                    }
                }
                trace::flush();
            });
        }
    });
    let mut total = LoopOut {
        elapsed: start.elapsed(),
        cpu_s: report::process_cpu_s() - cpu,
        ..LoopOut::default()
    };
    for out in per_client {
        total.result.absorb(out.result);
        total.latencies.merge(&out.latencies);
        total.completed += out.completed;
    }
    total
}

/// Build a service and start an executor exactly as the async backend's
/// lazy start does, timing both as the set-up; the executor's shutdown is
/// not timed.
fn timed_setup() -> (ElectionService, f64) {
    let start = Instant::now();
    let service = ElectionService::new(config());
    let executor = Executor::with_default_config();
    let setup = start.elapsed().as_secs_f64();
    executor.shutdown();
    (service, setup)
}

/// A set-up service that has taken one untimed warm-up instance per shard.
/// Returns the service, the warm-up count and the set-up time.
fn build_service(seed: u64, result: &mut RunResult) -> (ElectionService, u64, f64) {
    let (service, setup) = timed_setup();
    let warmups = config().shards as u64;
    for j in 0..warmups {
        let k = input(seed, WARMUP_BASE + j);
        match service.submit_wait(spec(k)) {
            Ok(done) if done.key == k => {
                if let Err(error) = check(&done.outcomes) {
                    result.error(format!("warm-up key {k}: {error}"));
                }
            }
            Ok(done) => result.error(format!("warm-up key {k} answered for key {}", done.key)),
            Err(error) => result.error(format!("warm-up key {k}: {error}")),
        }
    }
    (service, warmups, setup)
}

/// Shut the service down and check its accounting against the loop's.
fn shut_down(
    service: ElectionService,
    warmups: u64,
    out: Option<&LoopOut>,
    traced: bool,
    result: &mut RunResult,
) -> (
    fle_service::ServiceStats,
    Option<fle_service::MetricsSnapshot>,
) {
    let (stats, snapshot) = {
        let _span = traced.then(|| trace::coarse("service.shutdown", 0));
        service.shutdown_with_metrics()
    };
    if let Err(error) = stats.check_invariant() {
        result.error(error);
    }
    match &snapshot {
        Some(snapshot) => {
            if let Err(error) = stats.check_metrics(snapshot) {
                result.error(error);
            }
        }
        None => result.error("the service kept no metrics".to_string()),
    }
    let (attempted, completed) = out.map_or((0, 0), |o| (o.result.attempted, o.completed));
    if stats.submitted != warmups + attempted || stats.completed != warmups + completed {
        result.error(format!(
            "lost or duplicate tickets: service submitted {} completed {}, clients submitted {} \
             completed {}",
            stats.submitted,
            stats.completed,
            warmups + attempted,
            warmups + completed
        ));
    }
    (stats, snapshot)
}

fn through_service(
    service: &ElectionService,
    traced: bool,
) -> impl Fn(u64) -> Result<BTreeMap<ProcId, Outcome>, String> + Sync + '_ {
    move |k| {
        let _instance = traced.then(|| trace::coarse("svc.instance", k));
        let ticket = {
            let _span = traced.then(|| trace::coarse("service.submit", k));
            service.submit(spec(k))
        };
        let done = {
            let _span = traced.then(|| trace::coarse("service.wait", k));
            ticket.and_then(|ticket| ticket.wait())
        };
        match done {
            Ok(done) if done.key == k => Ok(done.outcomes),
            Ok(done) => Err(format!("ticket answered for key {}", done.key)),
            Err(error) => Err(error.to_string()),
        }
    }
}

pub fn run_workload(opts: &Opts) -> RunResult {
    let budget = Duration::from_secs_f64(opts.seconds);
    let clients = crate::nproc();
    let mut result = RunResult::default();
    if !opts.trace {
        // Each set-up starts from the same quiescent process: the services
        // before a measured one are shut down before the next is built.
        let mut setups = Vec::new();
        for _ in PASSES..SETUP_REPS {
            let (service, setup) = timed_setup();
            setups.push(setup);
            shut_down(service, 0, None, false, &mut result);
        }
        let rate = |out: &LoopOut| ratio(out.completed as f64, out.elapsed.as_secs_f64());
        let (mut best, mut rates, mut steal_fracs) = (None::<LoopOut>, Vec::new(), Vec::new());
        for _ in 0..PASSES {
            let (service, warmups, setup) = build_service(opts.seed, &mut result);
            setups.push(setup);
            let steal = report::host_steal_s();
            let mut out = closed_loop(
                opts.seed,
                clients,
                budget / PASSES as u32,
                &through_service(&service, false),
            );
            let steal = report::host_steal_s() - steal;
            shut_down(service, warmups, Some(&out), false, &mut result);
            result.absorb(std::mem::take(&mut out.result));
            rates.push(report::json_num(rate(&out)));
            steal_fracs.push(report::json_num(ratio(
                steal,
                out.elapsed.as_secs_f64() * crate::nproc() as f64,
            )));
            if best.as_ref().is_none_or(|b| rate(&out) > rate(b)) {
                best = Some(out);
            }
        }
        let out = best.expect("PASSES is at least one");
        result.metric("instances_per_s", rate(&out));
        result.metric("p50_us", out.latencies.quantile(0.5) / 1e3);
        result.metric("p99_us", out.latencies.quantile(0.99) / 1e3);
        result.metric(
            "cpu_ms_per_instance",
            ratio(out.cpu_s * 1e3, out.completed as f64),
        );
        result.metric("setup_s", median(&setups));
        result.metric("peak_rss_mb", report::peak_rss_mb().unwrap_or(0.0));
        result.info("latency_samples", out.latencies.total.to_string());
        result.info("setups", setups.len().to_string());
        result.info("pass_instances_per_s", format!("[{}]", rates.join(", ")));
        result.info("host_steal_frac", format!("[{}]", steal_fracs.join(", ")));
        result.info("clients", clients.to_string());
        return result;
    }

    // The traced run spends its seconds over four passes.
    let budget = budget / 4;
    // Untraced base for the tracing overhead.
    let (service, warmups, _) = build_service(opts.seed, &mut result);
    let base = closed_loop(
        opts.seed,
        clients,
        budget,
        &through_service(&service, false),
    );
    shut_down(service, warmups, Some(&base), false, &mut result);

    // `service`: the same loop with spans around submit and wait.
    let (service, warmups, _) = build_service(opts.seed, &mut result);
    let traced = closed_loop(opts.seed, clients, budget, &through_service(&service, true));
    let (stats, snapshot) = shut_down(service, warmups, Some(&traced), true, &mut result);
    let aggregate = snapshot
        .map(|s| s.aggregate())
        .unwrap_or_else(|| fle_obs::ShardSnapshot::empty(0));
    let (mut spans, totals) = trace::take();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let wait = &aggregate.queue_wait_micros;
    let run = &aggregate.run_micros;

    // `runtime.exec` and `core`: the same specs through the executor.
    let exec = exec_pass(opts.seed, clients, budget);
    // `runtime.shm`: the same specs over timed register handles.
    let shm = shm_pass(opts.seed, budget);
    let (more_spans, exec_totals) = trace::take();
    spans.extend(more_spans);
    let exec_total = |name: &str| exec_totals.get(name).copied().unwrap_or_default();

    let core_step = exec_total("core.step");
    result.metric("core.step_ns_per_event", core_step.mean_ns());
    result.metric(
        "core.max_communicate_calls",
        ratio(shm.max_communicate_calls as f64, shm.instances as f64),
    );
    result.metric(
        "core.renaming.elections_per_name",
        ratio(exec.tally.elections as f64, exec.tally.participants as f64),
    );
    let exec_latencies = &exec.out.latencies;
    result.metric(
        "runtime.exec.instance_us_p50",
        exec_latencies.quantile(0.5) / 1e3,
    );
    result.metric(
        "runtime.exec.instance_us_p99",
        exec_latencies.quantile(0.99) / 1e3,
    );
    result.metric(
        "runtime.exec.op_gap_ns",
        ratio(exec.tally.gap_ns as f64, exec.tally.gaps as f64),
    );
    result.metric("runtime.exec.peak_in_flight", exec.peak_in_flight as f64);
    result.metric(
        "runtime.shm.propagate_ns",
        exec_total("runtime.shm.propagate").mean_ns(),
    );
    result.metric(
        "runtime.shm.collect_ns",
        exec_total("runtime.shm.collect").mean_ns(),
    );
    result.metric(
        "runtime.shm.flip_ns",
        exec_total("runtime.shm.flip").mean_ns(),
    );
    for (name, span) in [
        (
            "runtime.shm.ops_per_instance.propagate",
            "runtime.shm.propagate",
        ),
        (
            "runtime.shm.ops_per_instance.collect",
            "runtime.shm.collect",
        ),
        ("runtime.shm.ops_per_instance.flip", "runtime.shm.flip"),
        ("runtime.shm.ops_per_instance.choose", "runtime.shm.choose"),
    ] {
        result.metric(
            name,
            ratio(exec_total(span).count as f64, shm.instances as f64),
        );
    }
    result.metric(
        "runtime.shm.collect_entries",
        ratio(
            shm.collect_entries as f64,
            exec_total("runtime.shm.collect").count as f64,
        ),
    );
    let latency_mean_us = total("svc.instance").mean_ns() / 1e3;
    result.metric("service.submit_us", total("service.submit").mean_ns() / 1e3);
    result.metric(
        "service.queue_wait_us_p50",
        wait.value_at_quantile(0.5) as f64,
    );
    result.metric(
        "service.queue_wait_us_p99",
        wait.value_at_quantile(0.99) as f64,
    );
    result.metric("service.run_us_p50", run.value_at_quantile(0.5) as f64);
    result.metric("service.run_us_p99", run.value_at_quantile(0.99) as f64);
    result.metric(
        "service.handoff_us_mean",
        latency_mean_us - wait.mean() - run.mean(),
    );
    result.metric(
        "service.queue_high_water",
        aggregate.queue_high_water as f64,
    );
    result.metric(
        "service.live_namespaces_end",
        stats.live_register_namespaces as f64,
    );
    result.metric(
        "service.shutdown_us",
        total("service.shutdown").mean_ns() / 1e3,
    );
    // CPU time per instance, which other tenants of the host do not move.
    let cpu_per = |out: &LoopOut| ratio(out.cpu_s, out.completed as f64);
    result.metric(
        "trace.overhead_frac",
        ratio(cpu_per(&traced), cpu_per(&base)) - 1.0,
    );

    let mut all_totals = totals;
    for (name, t) in exec_totals {
        all_totals.insert(name, t);
    }
    result.info("span_totals", trace::totals_json(&all_totals));
    result.info("layer_self_ns", trace::layer_self_json(&all_totals));
    result.info("service_latency_samples", traced.completed.to_string());
    result.info("exec_latency_samples", exec_latencies.total.to_string());
    result.info("shm_instances", shm.instances.to_string());
    result.info("clients", clients.to_string());
    trace::write_spans(&mut result, NAME, opts.seed, &spans);
    result.absorb(base.result);
    result.absorb(traced.result);
    result.absorb(exec.out.result);
    result.absorb(shm.result);
    result
}

struct ExecPass {
    out: LoopOut,
    tally: StepTally,
    peak_in_flight: usize,
}

/// The service's specs submitted straight to an executor configured like
/// the async backend's, each participant's protocol timed.
fn exec_pass(seed: u64, clients: usize, budget: Duration) -> ExecPass {
    let executor = Executor::with_default_config();
    let registers = Arc::new(SharedRegisters::new(config().register_shards));
    let tally = Arc::new(Mutex::new(StepTally::default()));
    let one = |k: u64| {
        let _instance = trace::coarse("exec.instance", k);
        let in_flight = {
            let _span = trace::coarse("runtime.exec.submit", k);
            executor.submit(
                &registers,
                k,
                k,
                timed_participants(k, &tally),
                &FaultPlan::default(),
                CancelToken::none(),
            )
        };
        let done = {
            let _span = trace::coarse("runtime.exec.wait", k);
            in_flight.wait()
        };
        registers.retire(k);
        match done {
            ExecResult::Completed(report) => Ok(report.outcomes),
            ExecResult::Cancelled => Err("cancelled".to_string()),
            ExecResult::Panicked(_) => Err("a participant panicked".to_string()),
        }
    };
    let out = closed_loop(seed, clients, budget, &one);
    let peak_in_flight = executor.stats().peak_in_flight;
    // Joining the workers flushes the spans they recorded.
    executor.shutdown();
    let tally = *tally
        .lock()
        .expect("no step panics while holding the tally");
    ExecPass {
        out,
        tally,
        peak_in_flight,
    }
}

/// One participant of the register pass: its driver, protocol and handle.
type Task = (
    ProcId,
    DriveMachine,
    Box<dyn Protocol + Send>,
    TimedMemory<RegisterHandle>,
);

#[derive(Default)]
struct ShmPass {
    result: RunResult,
    instances: u64,
    collect_entries: u64,
    max_communicate_calls: u64,
}

/// The service's specs over timed [`RegisterHandle`]s, participants driven
/// round-robin one operation at a time on this thread, so every register
/// operation is timed without contention from other threads.
fn shm_pass(seed: u64, budget: Duration) -> ShmPass {
    let registers = Arc::new(SharedRegisters::new(config().register_shards));
    let mut out = ShmPass::default();
    let deadline = Instant::now() + budget;
    let mut index = 0u64;
    while Instant::now() < deadline {
        let k = input(seed, index);
        index += 1;
        let _instance = trace::coarse("shm.instance", k);
        let mut tasks: Vec<Task> = fle_runtime::renaming_participants(N, N)
            .into_iter()
            .map(|(p, protocol)| {
                (
                    p,
                    DriveMachine::new(),
                    protocol,
                    TimedMemory::new(registers.handle(k, p, k), k),
                )
            })
            .collect();
        let mut outcomes = BTreeMap::new();
        while outcomes.len() < tasks.len() {
            for (p, machine, protocol, memory) in &mut tasks {
                if outcomes.contains_key(p) {
                    continue;
                }
                match machine.step(protocol.as_mut()) {
                    DriveStep::NeedOp(op) => {
                        let response = op.perform(memory);
                        machine.resume(response);
                    }
                    DriveStep::Done(outcome) => {
                        outcomes.insert(*p, outcome);
                    }
                }
            }
        }
        registers.retire(k);
        out.result.attempted += 1;
        out.instances += 1;
        for (_, _, _, memory) in &tasks {
            out.collect_entries += memory.collect_entries;
        }
        out.max_communicate_calls += tasks
            .iter()
            .map(|(_, _, _, memory)| memory.inner().metrics().communicate_calls)
            .max()
            .unwrap_or(0);
        if let Err(error) = check(&outcomes) {
            out.result.failed += 1;
            out.result
                .error(format!("direct register drive, key {k}: {error}"));
        }
    }
    out
}
