//! Differential tests: the partitioned [`ParallelSimulator`] must reproduce
//! the sequential [`Simulator`] *exactly* when the latter is driven by the
//! [`SuperRoundAdversary`] — same outcomes, same intervals, same metrics,
//! same crash list, same event count, same trace digest — for every
//! partition count.

use fle_core::LeaderElection;
use fle_model::ProcId;
use fle_sim::{
    ParallelSimulator, RoundCrashPlan, SimConfig, Simulator, SuperRoundAdversary, TraceEvent,
};

fn config(n: usize, seed: u64) -> SimConfig {
    SimConfig::new(n).with_seed(seed).with_trace()
}

/// Run the sequential reference under the super-round schedule.
fn sequential_reference(
    n: usize,
    seed: u64,
    contenders: usize,
    plan: &RoundCrashPlan,
) -> fle_sim::ExecutionReport {
    let mut sim = Simulator::new(config(n, seed));
    for i in 0..contenders {
        sim.add_participant(ProcId(i), Box::new(LeaderElection::new(ProcId(i))));
    }
    sim.run(&mut SuperRoundAdversary::new(plan))
        .expect("sequential reference run failed")
}

/// Run the partitioned engine in canonical mode.
fn partitioned(
    n: usize,
    seed: u64,
    contenders: usize,
    partitions: usize,
    plan: &RoundCrashPlan,
) -> fle_sim::ExecutionReport {
    let mut sim = ParallelSimulator::new(config(n, seed).with_partitions(partitions));
    for i in 0..contenders {
        sim.add_participant(ProcId(i), Box::new(LeaderElection::new(ProcId(i))));
    }
    sim.run_canonical(plan).expect("partitioned run failed")
}

fn assert_reports_identical(
    n: usize,
    reference: &fle_sim::ExecutionReport,
    candidate: &fle_sim::ExecutionReport,
    label: &str,
) {
    assert_eq!(reference.outcomes, candidate.outcomes, "{label}: outcomes");
    assert_eq!(
        reference.intervals, candidate.intervals,
        "{label}: intervals"
    );
    assert_eq!(reference.crashed, candidate.crashed, "{label}: crash list");
    assert_eq!(
        reference.events_executed, candidate.events_executed,
        "{label}: event count"
    );
    assert_eq!(
        reference.trace.digest(),
        candidate.trace.digest(),
        "{label}: trace digest\nreference: {:?}\ncandidate: {:?}",
        reference.trace.events().iter().take(40).collect::<Vec<_>>(),
        candidate.trace.events().iter().take(40).collect::<Vec<_>>(),
    );
    // Per-processor metrics, not just the totals.
    for i in 0..n {
        assert_eq!(
            reference
                .metrics
                .proc(ProcId(i))
                .copied()
                .unwrap_or_default(),
            candidate
                .metrics
                .proc(ProcId(i))
                .copied()
                .unwrap_or_default(),
            "{label}: metrics of p{i}"
        );
    }
}

fn partition_counts(n: usize) -> Vec<usize> {
    let cpus = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1);
    let mut counts = vec![2, 3, cpus.clamp(1, n)];
    counts.sort_unstable();
    counts.dedup();
    counts
}

#[test]
fn crash_free_elections_match_the_sequential_reference() {
    // n = 256 runs one seed only: a full-participation n = 256 election is
    // the slow case in debug builds and one seed already exercises every
    // partition boundary.
    for (n, seeds) in [
        (16usize, &[1u64, 42, 0xFEED][..]),
        (64, &[1, 42, 0xFEED][..]),
        (256, &[42][..]),
    ] {
        for &seed in seeds {
            let plan = RoundCrashPlan::none();
            let reference = sequential_reference(n, seed, n, &plan);
            assert_eq!(
                reference.winners().len(),
                1,
                "sanity: the election elects exactly one leader"
            );
            for p in partition_counts(n) {
                let candidate = partitioned(n, seed, n, p, &plan);
                assert_reports_identical(
                    n,
                    &reference,
                    &candidate,
                    &format!("n={n} seed={seed} partitions={p}"),
                );
            }
        }
    }
}

#[test]
fn crash_heavy_elections_match_the_sequential_reference() {
    for n in [16usize, 64] {
        for seed in [7u64, 1234] {
            // Crash nearly the full budget, spread over the early rounds and
            // across the whole processor range (so every partition loses
            // someone).
            let budget = n.div_ceil(2) - 1;
            let victims = budget - 1;
            let entries: Vec<(u64, ProcId)> = (0..victims)
                .map(|k| {
                    let round = (k % 5) as u64;
                    // Stride through the id space; victims stay distinct
                    // because victims < n/2 and the stride is 2.
                    let victim = ProcId((k * 2 + 1) % n);
                    (round, victim)
                })
                .collect();
            let plan = RoundCrashPlan::new(entries);
            let reference = sequential_reference(n, seed, n, &plan);
            assert!(reference.winners().len() <= 1, "sanity: at most one winner");
            assert_eq!(
                reference.crashed.len(),
                victims,
                "sanity: all crashes applied"
            );
            for p in partition_counts(n) {
                let candidate = partitioned(n, seed, n, p, &plan);
                assert_reports_identical(
                    n,
                    &reference,
                    &candidate,
                    &format!("crash-heavy n={n} seed={seed} partitions={p}"),
                );
            }
        }
    }
}

#[test]
fn partial_participation_matches_the_sequential_reference() {
    // k-of-n contention — the shape the parallel benchmarks use.
    let (n, k) = (256usize, 24usize);
    for seed in [3u64, 99] {
        let plan = RoundCrashPlan::new(vec![(0, ProcId(1)), (2, ProcId(7))]);
        let reference = sequential_reference(n, seed, k, &plan);
        for p in partition_counts(n) {
            let candidate = partitioned(n, seed, k, p, &plan);
            assert_reports_identical(
                n,
                &reference,
                &candidate,
                &format!("k-of-n n={n} k={k} seed={seed} partitions={p}"),
            );
        }
    }
}

#[test]
fn partitioned_reports_are_partition_count_invariant() {
    // Directly compare partition counts against each other on a size where
    // every count from 1 to 8 divides the work differently.
    let (n, seed) = (64usize, 0xC0FFEE_u64);
    let plan = RoundCrashPlan::new(vec![(1, ProcId(5)), (1, ProcId(40))]);
    let reference = partitioned(n, seed, n, 1, &plan);
    for p in [2usize, 3, 5, 8, 64] {
        let candidate = partitioned(n, seed, n, p, &plan);
        assert_reports_identical(n, &reference, &candidate, &format!("p={p} vs p=1"));
    }
}

#[test]
fn super_round_adversary_decides_deliveries_before_new_sends() {
    // Spot-check the canonical schedule shape on a tiny system: the trace
    // must consist of alternating blocks — deliveries in ascending id order,
    // then steps in ascending processor order — with crashes only at round
    // boundaries.
    let plan = RoundCrashPlan::none();
    let report = sequential_reference(8, 5, 8, &plan);
    let events = report.trace.events();
    assert!(!events.is_empty());
    let mut last_delivery_id: Option<u64> = None;
    for window in events.windows(2) {
        if let [TraceEvent::Deliver { id: a, .. }, TraceEvent::Deliver { id: b, .. }] = window {
            // Within one round's delivery block ids ascend; a new round may
            // restart lower only after a step block in between.
            if a.0 > b.0 {
                panic!("delivery ids regressed within a block: {a:?} then {b:?}");
            }
        }
        last_delivery_id = match window[1] {
            TraceEvent::Deliver { id, .. } => Some(id.0),
            _ => None,
        };
    }
    let _ = last_delivery_id;
    assert_eq!(report.winners().len(), 1);
}
