//! Cross-backend corpus replay: traces recorded on the simulator are *valid
//! schedules* on the gated shared-register backend (the tolerant replayers
//! guarantee it), and the gate makes every replay deterministic, so a corpus
//! trace must replay to the **same oracle verdict** every time, whatever
//! that verdict is.
//!
//! Two layers:
//!
//! * healthy corpus entries (recorded by a Sim coverage hunt over the real
//!   election) replay clean on the gated executor;
//! * sabotage counterexamples found on Sim replay to repeatable verdicts on
//!   the gated executor — and at least two of them *transfer* (refire
//!   `unique-leader`), which is what makes a Sim-built corpus worth seeding
//!   gated hunts with.

use fle_explore::sabotage::SabotagedElectionScenario;
use fle_explore::{
    replay_exec, CoverageConfig, CoverageExplorer, ElectionScenario, Explorer, ShmConfig,
};

#[test]
fn healthy_sim_corpus_traces_replay_clean_on_the_gated_executor() {
    let scenario = ElectionScenario { n: 4, k: 4 };
    let report = CoverageExplorer::new(&scenario)
        .with_config(CoverageConfig {
            budget: 24,
            batch: 8,
            sim_seeds: vec![0, 1],
            ..CoverageConfig::default()
        })
        .with_threads(4)
        .explore();
    assert!(
        report.corpus.len() >= 2,
        "the hunt retains several healthy traces, got {}",
        report.corpus.len()
    );
    let config = ShmConfig::default();
    for entry in report.corpus.entries() {
        let (first, first_consumed) = replay_exec(&scenario, entry.sim_seed, &entry.trace, &config);
        let (again, again_consumed) = replay_exec(&scenario, entry.sim_seed, &entry.trace, &config);
        assert!(
            first.is_none(),
            "healthy corpus trace flagged on the executor: {first:?}"
        );
        assert!(again.is_none());
        assert_eq!(
            first_consumed, again_consumed,
            "the gate makes every replay consume the identical prefix"
        );
    }
}

#[test]
fn sabotage_counterexamples_replay_repeatably_and_some_transfer() {
    let scenario = SabotagedElectionScenario { n: 4, k: 4 };
    // Sim-side hunt: the DropWrites mutant yields a pile of unique-leader
    // counterexamples across the seed grid.
    let report = Explorer::new(&scenario).with_sim_seeds(0..8).hunt();
    assert!(
        report.violations.len() >= 10,
        "the sabotaged election is easy to kill on the simulator"
    );
    let config = ShmConfig::default();
    let mut transferred = 0usize;
    for found in &report.violations {
        assert_eq!(found.violation.oracle, "unique-leader");
        let seed = found.plan.sim_seed;
        let (first, _) = replay_exec(&scenario, seed, &found.decisions, &config);
        let (again, _) = replay_exec(&scenario, seed, &found.decisions, &config);
        // The gate serializes the executor: every trace replays to the
        // identical verdict, transferred or not.
        assert_eq!(first, again, "replays disagree on seed {seed}");
        if first.as_ref().map(|v| v.oracle) == Some("unique-leader") {
            transferred += 1;
        }
    }
    // Pinned empirically (seeds 0..8, default library): starve@1,
    // split-brain@4 and several weighted walks refire on the gated
    // executor. A regression here means Sim decision indices stopped
    // mapping onto gated grant indices closely enough to transfer.
    assert!(
        transferred >= 2,
        "expected at least two Sim counterexamples to transfer, got {transferred}"
    );
}
