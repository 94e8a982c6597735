//! The Heterogeneous PoisonPill sifting phase (Figure 2 of the paper).
//!
//! The plain PoisonPill cannot beat Ω(√n) expected survivors: the fixed coin
//! bias `1/√n` perfectly balances the group that survives by flipping high
//! against the group that survives by flipping low before the first high
//! flip (Section 3.2). The heterogeneous variant breaks the balance by making
//! each processor's bias depend on the set `ℓ` of participants it has
//! observed *after committing*:
//!
//! * `prob = 1` when `|ℓ| = 1`, else `prob = log|ℓ| / |ℓ|`,
//! * the priority propagated to the quorum carries `ℓ`,
//! * a low-priority processor computes `L` — the union of every `ℓ` list it
//!   observed plus every participant it observed directly — and dies if some
//!   processor in `L` is *not* reported as low priority by any view.
//!
//! Claim 3.3 (closure of survivor views), Claim 3.5 (probability of `z`
//! low-flip survivors is O(1/z)), Lemma 3.6 (O(log k) expected low-flip
//! survivors) and Lemma 3.7 (O(log² k) expected high-flip survivors) together
//! bound the expected survivor count by O(log² k) under any schedule.

use fle_model::{
    Action, BitRow, CollectedViews, ElectionContext, InstanceId, Key, LocalStateView, Outcome,
    Priority, ProcId, Protocol, Response, Slot, Status, Value,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Init,
    Committing,
    CollectingParticipants,
    Flipping,
    PropagatingPriority,
    CollectingStatuses,
    Done,
}

/// One Heterogeneous PoisonPill sifting phase (Figure 2).
#[derive(Debug)]
pub struct HeterogeneousPoisonPill {
    me: ProcId,
    instance: InstanceId,
    stage: Stage,
    observed: Vec<ProcId>,
    coin: Option<bool>,
    round: u32,
}

impl HeterogeneousPoisonPill {
    /// A phase for processor `me` in a standalone context, round 1.
    pub fn new(me: ProcId) -> Self {
        Self::for_round(me, ElectionContext::Standalone, 1)
    }

    /// A phase bound to an election context and a round number, so that the
    /// sifting rounds of the full leader election use disjoint registers.
    pub fn for_round(me: ProcId, ctx: ElectionContext, round: u32) -> Self {
        HeterogeneousPoisonPill {
            me,
            instance: InstanceId::status(ctx, round),
            stage: Stage::Init,
            observed: Vec::new(),
            coin: None,
            round,
        }
    }

    /// The heterogeneous bias of Figure 2, lines 18–19: `1` for a single
    /// observed participant, `ln ℓ / ℓ` otherwise.
    pub fn bias_for(observed_participants: usize) -> f64 {
        if observed_participants <= 1 {
            1.0
        } else {
            let l = observed_participants as f64;
            (l.ln() / l).clamp(0.0, 1.0)
        }
    }

    fn my_key(&self) -> Key {
        Key::proc(self.instance, self.me)
    }

    /// The death rule of Figure 2, lines 26–29: build `L` as the union of all
    /// observed `ℓ` lists and all directly observed participants, and die if
    /// some member of `L` is never reported with low priority.
    ///
    /// One sweep over every view entry marks `L` and the "reported low" set
    /// in bitmaps, and merges each list only when its storage differs from
    /// the last list merged for the same processor slot. A status slot has a
    /// single writer that resolves it once, and a spilled `ℓ` is one shared
    /// allocation however many replicas hold it, so the copies of one `ℓ`
    /// across a quorum merge once. The cost is O(quorum · entries + Σ|ℓ|)
    /// over the distinct lists, not O(quorum · entries · |ℓ|). Identical
    /// storage means identical contents while the views are borrowed, so the
    /// union, and the answer, is the same for any input: a slot reporting
    /// different lists merges each, and lists in other slot families always
    /// merge.
    fn should_die(views: &CollectedViews) -> bool {
        let mut l_set = BitRow::new();
        let mut low = BitRow::new();
        // last_merged[j]: the list last merged from processor j's slot.
        let mut last_merged: Vec<&[ProcId]> = Vec::new();
        for (_, view) in views.responses() {
            view.for_each(|slot, value| {
                let status = value.as_status();
                let list = status.map_or(&[][..], Status::list);
                if let Slot::Proc(j) = slot {
                    let j = j.index();
                    l_set.set(j);
                    if status.is_some_and(|s| s.priority() == Some(Priority::Low)) {
                        low.set(j);
                    }
                    if j >= last_merged.len() {
                        last_merged.resize(j + 1, &[]);
                    }
                    if std::ptr::eq(last_merged[j], list) {
                        return;
                    }
                    last_merged[j] = list;
                }
                for member in list {
                    l_set.set(member.index());
                }
            });
        }
        // Bound to a local because the iterator temporary in tail position
        // would otherwise outlive the bitmaps it borrows (E0597).
        let dies = l_set.iter().any(|j| !low.contains(j));
        dies
    }
}

impl Protocol for HeterogeneousPoisonPill {
    fn step(&mut self, response: Response) -> Action {
        match self.stage {
            Stage::Init => {
                debug_assert_eq!(response, Response::Start);
                self.stage = Stage::Committing;
                // Lines 14-15: commit (empty list) and propagate.
                Action::Propagate {
                    entries: vec![(self.my_key(), Value::Status(Status::Commit))],
                }
            }
            Stage::Committing => {
                // Line 16: collect to learn the participant set ℓ.
                self.stage = Stage::CollectingParticipants;
                Action::Collect {
                    instance: self.instance,
                }
            }
            Stage::CollectingParticipants => {
                let views = response.expect_views();
                // Line 17: ℓ ← processors with a non-⊥ status in some view.
                self.observed = views.observed_procs();
                if !self.observed.contains(&self.me) {
                    // The collect always includes the caller's own view, which
                    // already has our Commit; this is only a safeguard.
                    self.observed.push(self.me);
                    self.observed.sort_unstable();
                }
                self.stage = Stage::Flipping;
                // Lines 18-20: bias depends on |ℓ|.
                Action::Flip {
                    prob_one: Self::bias_for(self.observed.len()),
                }
            }
            Stage::Flipping => {
                let coin = response.expect_coin();
                self.coin = Some(coin);
                self.stage = Stage::PropagatingPriority;
                let priority = if coin { Priority::High } else { Priority::Low };
                // Lines 21-23: the propagated priority carries ℓ.
                Action::Propagate {
                    entries: vec![(
                        self.my_key(),
                        Value::Status(Status::resolved_with_list(priority, self.observed.clone())),
                    )],
                }
            }
            Stage::PropagatingPriority => {
                // Line 24: collect statuses from a quorum.
                self.stage = Stage::CollectingStatuses;
                Action::Collect {
                    instance: self.instance,
                }
            }
            Stage::CollectingStatuses => {
                let views = response.expect_views();
                self.stage = Stage::Done;
                let survived = match self.coin {
                    Some(true) => true,
                    // Lines 25-29.
                    _ => !Self::should_die(&views),
                };
                Action::Return(if survived {
                    Outcome::Survive
                } else {
                    Outcome::Die
                })
            }
            Stage::Done => Action::Return(Outcome::Die),
        }
    }

    fn adversary_view(&self) -> LocalStateView {
        let phase = match self.stage {
            Stage::Init => "init",
            Stage::Committing => "committing",
            Stage::CollectingParticipants => "collecting-participants",
            Stage::Flipping => "flipping",
            Stage::PropagatingPriority => "propagating-priority",
            Stage::CollectingStatuses => "collecting-statuses",
            Stage::Done => "done",
        };
        LocalStateView::new("het-poison-pill", phase)
            .with_round(u64::from(self.round))
            .with_coin(self.coin)
            .with_detail("observed", self.observed.len() as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fle_model::{ProcSet, View};
    use fle_sim::{
        Adversary, CoinAwareAdversary, RandomAdversary, SequentialAdversary, SimConfig, Simulator,
    };
    use std::collections::BTreeSet;

    fn run_phase(n: usize, seed: u64, adversary: &mut dyn Adversary) -> fle_sim::ExecutionReport {
        let mut sim = Simulator::new(SimConfig::new(n).with_seed(seed));
        for i in 0..n {
            sim.add_participant(ProcId(i), Box::new(HeterogeneousPoisonPill::new(ProcId(i))));
        }
        sim.run(adversary).expect("phase terminates")
    }

    #[test]
    fn bias_matches_figure_two() {
        assert_eq!(HeterogeneousPoisonPill::bias_for(0), 1.0);
        assert_eq!(HeterogeneousPoisonPill::bias_for(1), 1.0);
        let b2 = HeterogeneousPoisonPill::bias_for(2);
        assert!((b2 - 2f64.ln() / 2.0).abs() < 1e-12);
        let b100 = HeterogeneousPoisonPill::bias_for(100);
        assert!(
            b100 < b2,
            "bias decreases with the number of observed participants"
        );
        assert!(b100 > 0.0);
    }

    #[test]
    fn at_least_one_survivor_under_every_adversary() {
        for n in [1usize, 2, 3, 6, 12] {
            for seed in 0..4u64 {
                let adversaries: Vec<Box<dyn Adversary>> = vec![
                    Box::new(RandomAdversary::with_seed(seed)),
                    Box::new(SequentialAdversary::new()),
                    Box::new(CoinAwareAdversary::with_seed(seed)),
                ];
                for mut adversary in adversaries {
                    let report = run_phase(n, seed, adversary.as_mut());
                    assert!(
                        !report.survivors().is_empty(),
                        "n={n} seed={seed} adversary={}",
                        adversary.name()
                    );
                    assert_eq!(report.outcomes.len(), n);
                }
            }
        }
    }

    #[test]
    fn lone_participant_survives_with_certainty() {
        // |ℓ| = 1 ⇒ bias 1 ⇒ the processor flips high and survives.
        for seed in 0..5 {
            let mut sim = Simulator::new(SimConfig::new(8).with_seed(seed));
            sim.add_participant(ProcId(3), Box::new(HeterogeneousPoisonPill::new(ProcId(3))));
            let report = sim
                .run(&mut RandomAdversary::with_seed(seed))
                .expect("terminates");
            assert_eq!(report.outcome(ProcId(3)), Some(Outcome::Survive));
        }
    }

    #[test]
    fn survivors_scale_sub_polynomially_under_sequential_adversary() {
        // Lemma 3.6 + 3.7: O(log² k) expected survivors. With n = 64 the
        // expectation is ≈ log²(64) ≈ 17 at the very worst; compare with the
        // ≈ 2·√64 = 16 of the plain PoisonPill — on average the heterogeneous
        // sift must do no worse, and for larger n strictly better. Here we
        // only check the phase keeps survivors well below n/2 on average.
        let n = 64;
        let trials = 15;
        let mut total = 0usize;
        for seed in 0..trials {
            let report = run_phase(n, seed, &mut SequentialAdversary::new());
            total += report.survivors().len();
        }
        let average = total as f64 / trials as f64;
        assert!(
            average < n as f64 / 2.0,
            "heterogeneous sifting must eliminate most participants, got {average}"
        );
        assert!(average >= 1.0);
    }

    #[test]
    fn death_rule_uses_observed_lists() {
        // A survivor's view reports only processor 2 (low priority), but
        // processor 2's list mentions processor 7, which nobody reports as
        // low: the current processor must die (line 28).
        let view: View = [(
            Slot::Proc(ProcId(2)),
            Value::Status(Status::resolved_with_list(
                Priority::Low,
                vec![ProcId(2), ProcId(7)],
            )),
        )]
        .into_iter()
        .collect();
        let views = CollectedViews::new(vec![(ProcId(0), view)]);
        assert!(HeterogeneousPoisonPill::should_die(&views));

        // If processor 7 is also reported low somewhere, the rule passes.
        let view2: View = [(
            Slot::Proc(ProcId(7)),
            Value::Status(Status::resolved_with_list(Priority::Low, vec![ProcId(7)])),
        )]
        .into_iter()
        .collect();
        let views = CollectedViews::new(vec![
            (
                ProcId(0),
                [(
                    Slot::Proc(ProcId(2)),
                    Value::Status(Status::resolved_with_list(
                        Priority::Low,
                        vec![ProcId(2), ProcId(7)],
                    )),
                )]
                .into_iter()
                .collect::<View>(),
            ),
            (ProcId(1), view2),
        ]);
        assert!(!HeterogeneousPoisonPill::should_die(&views));
    }

    /// The literal Figure 2 rule: visit every list of every view into `L`,
    /// with no bitmaps and no sharing shortcuts.
    fn reference_should_die(views: &CollectedViews) -> bool {
        let mut l_set = BTreeSet::new();
        let mut low = BTreeSet::new();
        for (_, view) in views.responses() {
            for (slot, value) in view.iter() {
                if let Slot::Proc(j) = slot {
                    l_set.insert(j);
                    if value
                        .as_status()
                        .is_some_and(|s| s.priority() == Some(Priority::Low))
                    {
                        low.insert(j);
                    }
                }
                if let Some(status) = value.as_status() {
                    l_set.extend(status.list().iter().copied());
                }
            }
        }
        !l_set.is_subset(&low)
    }

    /// A counter-based test stream: `below(b)` is uniform in `0..b`.
    struct Draws {
        seed: u64,
        count: u64,
    }

    impl Draws {
        fn below(&mut self, bound: usize) -> usize {
            self.count += 1;
            let word = fle_model::coin_word(self.seed, ProcId(0), self.count);
            (word % bound as u64) as usize
        }

        /// A list of up to 11 members drawn from `0..bound`.
        fn list(&mut self, bound: usize) -> ProcSet {
            let len = self.below(12);
            (0..len).map(|_| ProcId(self.below(bound))).collect()
        }
    }

    /// Seeded random collects that stress the list-sharing shortcut of
    /// `should_die`. Views report processors `0..n`. Each slot's `ℓ` is one
    /// `Arc` reused across many views (what its single writer resolves to
    /// once), sometimes repeated with equal contents in a separate
    /// allocation, and drawn from `0..n`. Rarer values may also name `n` or
    /// `n + 1`, which no view reports, so the answer hinges on whether they
    /// are merged: a conflicting `Resolved` value for one slot, and statuses
    /// in `Name`/`Global` slots. `Commit` and non-status entries are mixed in.
    fn random_views(seed: u64) -> CollectedViews {
        let mut draws = Draws { seed, count: 0 };
        let n = 1 + draws.below(40);
        // Most trials mark nearly everything low, so both answers occur.
        let low_per_mille = [0, 990, 1000, 1000][draws.below(4)];
        let conflicts_per_mille = [0, 2, 20][draws.below(3)];
        let side_slots = draws.below(3) == 0;
        let shared: Vec<ProcSet> = (0..n).map(|_| draws.list(n)).collect();
        let priority = |draws: &mut Draws| {
            if draws.below(1000) < low_per_mille {
                Priority::Low
            } else {
                Priority::High
            }
        };
        let quorum = 1 + draws.below(24);
        let responses = (0..quorum)
            .map(|r| {
                let mut view = View::new();
                for (j, own) in shared.iter().enumerate() {
                    if draws.below(5) == 0 {
                        continue;
                    }
                    let roll = draws.below(1000);
                    let list = if roll < conflicts_per_mille {
                        draws.list(n + 2)
                    } else {
                        match roll % 10 {
                            0 => {
                                view.insert(Slot::Proc(ProcId(j)), Value::Status(Status::Commit));
                                continue;
                            }
                            1 => {
                                view.insert(Slot::Proc(ProcId(j)), Value::Round(1));
                                continue;
                            }
                            2 => own.as_slice().iter().copied().collect(),
                            _ => own.clone(),
                        }
                    };
                    let priority = priority(&mut draws);
                    view.insert(
                        Slot::Proc(ProcId(j)),
                        Value::Status(Status::Resolved { priority, list }),
                    );
                }
                for slot in [Slot::Name(draws.below(4)), Slot::Global] {
                    if side_slots && draws.below(4) == 0 {
                        let priority = priority(&mut draws);
                        let list = draws.list(n + 2);
                        view.insert(slot, Value::Status(Status::Resolved { priority, list }));
                    }
                }
                (ProcId(r), view)
            })
            .collect();
        CollectedViews::new(responses)
    }

    #[test]
    fn death_rule_matches_the_literal_figure_two_rule() {
        let mut deaths = 0;
        let trials = 2000;
        for seed in 0..trials {
            let views = random_views(seed);
            let dies = HeterogeneousPoisonPill::should_die(&views);
            assert_eq!(dies, reference_should_die(&views), "seed {seed}");
            deaths += usize::from(dies);
        }
        assert!(
            (trials as usize / 10..trials as usize * 9 / 10).contains(&deaths),
            "both answers must be exercised, got {deaths} deaths of {trials}"
        );
    }

    #[test]
    fn commit_without_low_report_still_kills() {
        // Same catch-22 as the basic PoisonPill: a Commit with no Low report
        // anywhere is fatal to low-priority observers.
        let view: View = [(Slot::Proc(ProcId(4)), Value::Status(Status::Commit))]
            .into_iter()
            .collect();
        let views = CollectedViews::new(vec![(ProcId(0), view)]);
        assert!(HeterogeneousPoisonPill::should_die(&views));
    }

    #[test]
    fn adversary_view_reports_observed_count() {
        let mut pp = HeterogeneousPoisonPill::new(ProcId(0));
        let _ = pp.step(Response::Start);
        let _ = pp.step(Response::AckQuorum);
        // Simulate a collect response that observed processors 0 and 5.
        let view: View = [
            (Slot::Proc(ProcId(0)), Value::Status(Status::Commit)),
            (Slot::Proc(ProcId(5)), Value::Status(Status::Commit)),
        ]
        .into_iter()
        .collect();
        let action = pp.step(Response::Views(CollectedViews::new(vec![(
            ProcId(0),
            view,
        )])));
        match action {
            Action::Flip { prob_one } => {
                assert!((prob_one - HeterogeneousPoisonPill::bias_for(2)).abs() < 1e-12);
            }
            other => panic!("expected a flip, got {other}"),
        }
        assert_eq!(pp.adversary_view().detail("observed"), Some(2));
    }
}
