//! The sequential simulation engine: the event loop and the adversary
//! interface. Per-processor work — steps, coins, quorums, deliveries,
//! crashes — is the kernel shared with the partitioned engine; this engine
//! makes every sent message deliverable at once.
//!
//! # Per-event cost
//!
//! The scheduling hot path is incremental: the engine maintains the set of
//! enabled events (step-ready processors in an [`crate::IndexedBitSet`],
//! deliverable messages in an [`crate::OrderedMsgSet`] over a
//! [`crate::MessageSlab`]) as state changes,
//! so offering the adversary its choices costs O(1) per event plus O(log)
//! index maintenance — not a scan over all `n` processes and every in-flight
//! message as in the original implementation. Two reference modes exist for
//! testing and benchmarking:
//!
//! * [`SimConfig::with_naive_event_set`] rebuilds the enabled-event vector
//!   from scratch before every decision (the historical O(n + messages)
//!   behaviour). Executions are **byte-identical** to the incremental mode —
//!   the differential tests and the `BENCH_baseline` speedup measurement rely
//!   on this.
//! * [`SimConfig::with_event_set_validation`] asserts before every decision
//!   that the incremental indexes agree with a brute-force recomputation.
//!
//! Payload cost is O(1) per event as well: a propagate broadcast builds its
//! entry list once and refcount-shares it across all `n − 1` sends, collect
//! replies are copy-on-write snapshots or per-responder deltas (only the
//! entries the requester has not seen), and back-to-back trials recycle the
//! engine's buffers through a [`crate::SimArena`]. The historical
//! clone-per-message payload path survives behind
//! [`SimConfig::with_naive_payloads`] — it too is **byte-identical** in
//! schedules, reports and metrics, which the differential tests assert.

use crate::adversary::Adversary;
use crate::arena::SimArena;
use crate::error::SimError;
use crate::kernel::{Kernel, Outbox};
use crate::message::{InFlightMessage, MessageId};
use crate::observation::{Decision, EnabledEvent, EnabledEvents, SystemObservation};
use crate::report::ExecutionReport;
use fle_model::{ProcId, Protocol, RouteKey, WireMessage};

/// Configuration of a simulated execution.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of processors in the system.
    pub n: usize,
    /// Failure budget `t`. Defaults to `⌈n/2⌉ − 1`, the maximum the paper's
    /// algorithms tolerate.
    pub crash_budget: usize,
    /// Seed of every processor's coin stream ([`fle_model::CoinStream`]).
    pub seed: u64,
    /// Upper bound on executed events, to turn accidental livelock into an
    /// error instead of a hang.
    pub max_events: u64,
    /// Whether to record the full execution trace.
    pub record_trace: bool,
    /// Rebuild the enabled-event list from scratch before every decision
    /// instead of serving it from the incremental indexes. Semantically
    /// identical (same schedules, same reports); kept as the performance
    /// baseline and as the reference half of the differential tests.
    pub naive_event_set: bool,
    /// Assert before every decision that the incremental enabled-event
    /// indexes exactly match a brute-force recomputation. For tests; costs
    /// O(n + messages) per event.
    pub validate_event_set: bool,
    /// Use the historical clone-per-message payload path: every propagate
    /// send carries its own copy of the entry list and every collect reply a
    /// freshly cloned full view, instead of refcount-shared broadcasts and
    /// copy-on-write/delta view transfers. Semantically identical (same
    /// schedules, same reports); kept as the payload-cost baseline and as
    /// the reference half of the payload differential tests.
    pub naive_payloads: bool,
    /// Number of partitions of the partitioned parallel engine
    /// ([`crate::ParallelSimulator`]); `0`, the default, means 1. The
    /// sequential [`Simulator`] ignores it: coins are per-processor streams
    /// (see [`fle_model::coin_word`]) in every engine, so a sequential run
    /// is a differential reference for a partitioned run of any count.
    pub partitions: usize,
}

impl SimConfig {
    /// A configuration for `n` processors with the default failure budget
    /// (`⌈n/2⌉ − 1`), seed 0 and an event budget proportional to `n²`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a system needs at least one processor");
        SimConfig {
            n,
            crash_budget: n.div_ceil(2).saturating_sub(1),
            seed: 0,
            max_events: default_event_budget(n),
            record_trace: false,
            naive_event_set: false,
            validate_event_set: false,
            naive_payloads: false,
            partitions: 0,
        }
    }

    /// Set the random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the crash budget (clamped to `⌈n/2⌉ − 1`).
    #[must_use]
    pub fn with_crash_budget(mut self, budget: usize) -> Self {
        self.crash_budget = budget.min(self.n.div_ceil(2).saturating_sub(1));
        self
    }

    /// Enable trace recording.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Override the event budget.
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Use the naive rebuild-per-event scheduler (performance baseline).
    #[must_use]
    pub fn with_naive_event_set(mut self) -> Self {
        self.naive_event_set = true;
        self
    }

    /// Cross-check the incremental event indexes against brute force before
    /// every decision.
    #[must_use]
    pub fn with_event_set_validation(mut self) -> Self {
        self.validate_event_set = true;
        self
    }

    /// Use the historical clone-per-message payload path (performance
    /// baseline; schedules and reports are identical to the shared path).
    #[must_use]
    pub fn with_naive_payloads(mut self) -> Self {
        self.naive_payloads = true;
        self
    }

    /// Split a [`crate::ParallelSimulator`] run into `partitions` engines
    /// (at most `n`; `0` means 1). Has no effect on the sequential
    /// [`Simulator`].
    #[must_use]
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions.min(self.n);
        self
    }

    /// Quorum size: `⌊n/2⌋ + 1`.
    pub fn quorum(&self) -> usize {
        self.n / 2 + 1
    }
}

fn default_event_budget(n: usize) -> u64 {
    // Every communicate call generates O(n) messages and each participant
    // performs O(log* n) + O(log^2 n) of them across all algorithms in this
    // workspace; n^2 * 700 leaves ample slack for the renaming algorithm,
    // which performs O(log^2 n) calls per processor.
    (n as u64).saturating_mul(n as u64).saturating_mul(700) + 200_000
}

/// The deterministic discrete-event simulator.
///
/// See the crate-level documentation for the model. Typical use:
/// create a [`SimConfig`], add participants with
/// [`Simulator::add_participant`], and call [`Simulator::run`] with an
/// [`Adversary`].
pub struct Simulator {
    /// All `n` processors, their messages and the enabled-event indexes.
    core: Kernel,
    outbox: Immediate,
    events_executed: u64,
}

/// The sequential engine's [`Outbox`]: a sent message gets the next message
/// id and is deliverable at once.
struct Immediate {
    next_message_id: u64,
    /// The current event count, stamped on sent messages.
    now: u64,
}

impl Outbox for Immediate {
    fn send(
        &mut self,
        kernel: &mut Kernel,
        _key: RouteKey,
        from: ProcId,
        to: ProcId,
        payload: WireMessage,
    ) {
        let id = MessageId(self.next_message_id);
        self.next_message_id += 1;
        let is_request = payload.is_request();
        let slot = kernel.admit(InFlightMessage {
            id,
            from,
            to,
            payload,
            sent_at: self.now,
        });
        if is_request {
            // The request waits in the sender's own slab, so its call can
            // purge it once the quorum is reached.
            kernel.file(from, slot);
        }
    }
}

impl Simulator {
    /// Create a simulator with `config.n` processors, none of which
    /// participates yet.
    ///
    /// The engine buffers (message slab, event indexes, processor shells) are
    /// drawn from a thread-local [`SimArena`] pool and returned on drop, so
    /// back-to-back trials on one thread allocate almost nothing after the
    /// first. This is purely an allocator optimization: a recycled simulator
    /// is indistinguishable from a freshly allocated one.
    pub fn new(config: SimConfig) -> Self {
        let mut sim = Simulator::from_arena(config, SimArena::take_pooled());
        sim.core.pooled = true;
        sim
    }

    /// Create a simulator that reuses the buffers of `arena` (see
    /// [`SimArena`]); recover them afterwards with
    /// [`Simulator::into_arena`].
    pub fn from_arena(config: SimConfig, arena: SimArena) -> Self {
        Simulator {
            core: Kernel::new(&config, 0..config.n, arena, true),
            outbox: Immediate {
                next_message_id: 0,
                now: 0,
            },
            events_executed: 0,
        }
    }

    /// How many times this simulator's buffers had been recycled through the
    /// arena pool when it was created (0 = cold allocation). See
    /// [`SimArena::reuses`].
    pub fn arena_reuses(&self) -> u64 {
        self.core.arena_reuses
    }

    /// Recover the engine buffers for the next trial (counterpart of
    /// [`Simulator::from_arena`]).
    pub fn into_arena(mut self) -> SimArena {
        self.core.pooled = false;
        self.core.park()
    }

    /// Register `proc` as a participant running `protocol`.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidParticipant`] if the processor id is out of
    /// range or already participates.
    pub fn try_add_participant(
        &mut self,
        proc: ProcId,
        protocol: Box<dyn Protocol>,
    ) -> Result<(), SimError> {
        self.core.try_add_participant(proc, protocol)
    }

    /// Register `proc` as a participant running `protocol`.
    ///
    /// # Panics
    /// Panics on the error conditions of [`Simulator::try_add_participant`];
    /// use that method to handle them gracefully.
    pub fn add_participant(&mut self, proc: ProcId, protocol: Box<dyn Protocol>) {
        self.try_add_participant(proc, protocol)
            .expect("invalid participant registration");
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &SimConfig {
        &self.core.config
    }

    /// Run the execution to completion under the given adversary.
    ///
    /// The run ends when every live participant has returned. The adversary
    /// chooses every step, delivery and crash; if it declines to decide the
    /// engine falls back to the oldest enabled event, so executions always
    /// make progress.
    ///
    /// Equivalent to driving [`Simulator::step_once`] until it reports
    /// completion and then calling [`Simulator::finish`]; callers that need
    /// to inspect the execution between decisions (e.g. online safety
    /// oracles) use those directly.
    ///
    /// # Errors
    /// * [`SimError::EventBudgetExhausted`] if the event budget runs out.
    /// * [`SimError::CrashBudgetExceeded`] if the adversary exceeds `t`.
    /// * [`SimError::InvalidDecision`] if the adversary returns a decision
    ///   that does not refer to an enabled event.
    pub fn run(&mut self, adversary: &mut dyn Adversary) -> Result<ExecutionReport, SimError> {
        while self.step_once(adversary)? {}
        Ok(self.finish())
    }

    /// Obtain and execute **one** adversary decision (a step, a delivery, or
    /// a crash). Returns `Ok(false)` — without consulting the adversary —
    /// once every live participant has returned.
    ///
    /// This is the granular form of [`Simulator::run`]: driving it in a loop
    /// executes the identical schedule, but the caller regains control after
    /// every decision and may inspect the in-progress execution through
    /// [`Simulator::report_so_far`], [`Simulator::events_executed`] and the
    /// trace — which is what lets the exploration subsystem evaluate safety
    /// oracles *online* and stop at the first violating event.
    ///
    /// # Errors
    /// Same conditions as [`Simulator::run`].
    pub fn step_once(&mut self, adversary: &mut dyn Adversary) -> Result<bool, SimError> {
        if self.core.live == 0 {
            return Ok(false);
        }
        if self.events_executed >= self.core.config.max_events {
            return Err(self.budget_exhausted());
        }

        // In naive mode the event list is rebuilt from scratch for every
        // decision — the historical cost profile the benchmarks compare
        // against. The rebuilt list is identical, element for element, to
        // the incremental view, so schedules and reports do not change.
        let snapshot: Option<Vec<EnabledEvent>> = self
            .core
            .config
            .naive_event_set
            .then(|| self.naive_snapshot());
        let enabled_len = match &snapshot {
            Some(events) => events.len(),
            None => self.core.enabled_len(),
        };

        if enabled_len == 0 {
            // Every live participant is blocked on a quorum that can never
            // form (too many crashes for the remaining replicas). The
            // model guarantees termination only for t < n/2, so this can
            // only be reached by misconfiguration; treat it as budget
            // exhaustion for reporting purposes.
            return Err(self.budget_exhausted());
        }

        self.core.refresh_header(self.events_executed);

        if self.core.config.validate_event_set {
            self.assert_event_set_matches_brute_force();
        }

        let decision = {
            let enabled = match &snapshot {
                Some(events) => EnabledEvents::from_slice(events),
                None => self.core.enabled(),
            };
            adversary.decide(self.observation(), &enabled)
        };

        match decision {
            Decision::Crash(victim) => {
                self.core.crash(victim)?;
            }
            Decision::Schedule(index) => {
                let resolved = match &snapshot {
                    Some(events) => events.get(index).copied().map(|event| {
                        let slot = match event {
                            EnabledEvent::Deliver { id, .. } => Some(
                                *self
                                    .core
                                    .naive_index
                                    .as_ref()
                                    .expect("naive index exists in naive mode")
                                    .get(&id)
                                    .expect("enabled message is in the naive index"),
                            ),
                            EnabledEvent::Step(_) => None,
                        };
                        (event, slot)
                    }),
                    None => self.core.resolve(index),
                };
                let Some((event, slot)) = resolved else {
                    return Err(SimError::InvalidDecision {
                        reason: format!(
                            "index {index} out of bounds for {enabled_len} enabled events"
                        ),
                    });
                };
                self.events_executed += 1;
                self.outbox.now = self.events_executed;
                match event {
                    EnabledEvent::Step(proc) => {
                        self.core
                            .execute_step(proc, self.events_executed, &mut self.outbox);
                    }
                    EnabledEvent::Deliver { .. } => {
                        let slot = slot.expect("delivery events carry their slab slot");
                        self.core.execute_delivery(slot, &mut self.outbox);
                    }
                }
            }
        }
        // Re-sync the observation's scalar header so callers inspecting the
        // simulator *between* decisions (online oracles) see the post-event
        // event count and crash budget, not values one decision stale. The
        // adversary path is unaffected: its refresh above still runs first.
        self.core.refresh_header(self.events_executed);
        Ok(true)
    }

    /// Finalize the bookkeeping and take the report of a completed
    /// execution (counterpart of driving [`Simulator::step_once`] to
    /// completion; [`Simulator::run`] calls this internally).
    ///
    /// Callers should only invoke this once [`Simulator::is_complete`]
    /// holds. Finishing earlier yields a snapshot report over the partial
    /// execution and is safe — the engine's own crash accounting (budget
    /// enforcement, adversary observation) is unaffected — but the taken
    /// outcomes, metrics and trace are gone from any later report.
    pub fn finish(&mut self) -> ExecutionReport {
        let report = &mut self.core.report;
        report.events_executed = self.events_executed;
        report.crashed = if self.core.live == 0 {
            // The crash list is only needed by the report from here on; move
            // it instead of cloning (the drained engine copy is never read
            // again on a completed run).
            std::mem::take(&mut self.core.crashes)
        } else {
            // Partial finish: the engine keeps stepping afterwards, and both
            // the crash-budget check and the adversary observation read
            // the crash list — draining it here would hand the adversary a
            // second budget and lose the early crashes from later reports.
            self.core.crashes.clone()
        };
        std::mem::take(report)
    }

    /// Whether every live participant has returned (the run is over).
    pub fn is_complete(&self) -> bool {
        self.core.live == 0
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// The in-progress report: outcomes and intervals of the participants
    /// that returned so far, the metrics and the trace. `events_executed`
    /// and `crashed` are only filled in by [`Simulator::finish`]; use
    /// [`Simulator::events_executed`] and the observation while the run is
    /// still going.
    pub fn report_so_far(&self) -> &ExecutionReport {
        &self.core.report
    }

    /// The adversary-visible system observation as of the last executed
    /// event.
    pub fn observation(&self) -> &SystemObservation {
        self.core
            .observation
            .as_ref()
            .expect("the sequential engine always maintains an observation")
    }

    /// Convenience wrapper: run and panic on simulator errors. Useful in
    /// benchmarks and examples where an error is always a bug.
    ///
    /// # Panics
    /// Panics if [`Simulator::run`] returns an error.
    pub fn run_to_completion(&mut self, adversary: &mut dyn Adversary) -> ExecutionReport {
        self.run(adversary).expect("simulation failed")
    }

    fn budget_exhausted(&self) -> SimError {
        SimError::EventBudgetExhausted {
            budget: self.core.config.max_events,
            unfinished: self.core.live_participants().collect(),
        }
    }

    /// The historical per-event rebuild: scan every processor, then walk the
    /// id-ordered message index, skipping messages to crashed recipients.
    fn naive_snapshot(&self) -> Vec<EnabledEvent> {
        let mut events = Vec::new();
        for process in &self.core.processes {
            if process.step_enabled() {
                events.push(EnabledEvent::Step(process.id));
            }
        }
        let index = self
            .core
            .naive_index
            .as_ref()
            .expect("naive index exists in naive mode");
        for (&id, &slot) in index {
            let message = self
                .core
                .slab
                .get(slot)
                .expect("naive index mirrors the slab");
            debug_assert_eq!(message.id, id);
            // Messages to crashed processors remain deliverable (they are
            // simply ignored on arrival), but there is no point offering them
            // to the adversary: delivering them can never unblock anyone.
            if !self.core.process(message.to).crashed {
                events.push(message.to_event());
            }
        }
        events
    }

    /// The enabled events as the adversary would see them, materialized.
    /// In pure naive mode the incremental indexes are not maintained, so the
    /// list is served from the naive rebuild instead (same contents, same
    /// order).
    pub fn enabled_events_vec(&self) -> Vec<EnabledEvent> {
        if self.core.incremental {
            self.core.enabled().to_vec()
        } else {
            self.naive_snapshot()
        }
    }

    /// The enabled events recomputed from first principles: a full scan of
    /// all processors and all in-flight messages, ignoring the incremental
    /// indexes. Reference implementation for the differential tests.
    pub fn enabled_events_brute_force(&self) -> Vec<EnabledEvent> {
        let mut events: Vec<EnabledEvent> = self
            .core
            .processes
            .iter()
            .filter(|p| p.step_enabled())
            .map(|p| EnabledEvent::Step(p.id))
            .collect();
        let mut deliveries: Vec<&InFlightMessage> = self
            .core
            .slab
            .iter()
            .map(|(_, message)| message)
            .filter(|message| !self.core.process(message.to).crashed)
            .collect();
        deliveries.sort_by_key(|message| message.id);
        events.extend(deliveries.into_iter().map(InFlightMessage::to_event));
        events
    }

    fn assert_event_set_matches_brute_force(&self) {
        let incremental = self.enabled_events_vec();
        let brute_force = self.enabled_events_brute_force();
        assert_eq!(
            incremental, brute_force,
            "incremental enabled-event set diverged from brute force after {} events",
            self.events_executed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{RandomAdversary, SequentialAdversary};
    use crate::observation::ProcessPhase;
    use fle_model::{Action, InstanceId, Key, LocalStateView, Outcome, Response, Slot, Value};

    /// A protocol that propagates a flag, collects, and returns WIN if it saw
    /// its own flag in some view (it always should).
    struct PropagateCollect {
        me: ProcId,
        saw_self: bool,
        phase: u8,
    }

    impl PropagateCollect {
        fn new(me: ProcId) -> Self {
            PropagateCollect {
                me,
                saw_self: false,
                phase: 0,
            }
        }
    }

    impl Protocol for PropagateCollect {
        fn step(&mut self, response: Response) -> Action {
            match self.phase {
                0 => {
                    assert_eq!(response, Response::Start);
                    self.phase = 1;
                    Action::Propagate {
                        entries: vec![(
                            Key::proc(InstanceId::custom(1, 1), self.me),
                            Value::Flag(true),
                        )],
                    }
                }
                1 => {
                    assert_eq!(response, Response::AckQuorum);
                    self.phase = 2;
                    Action::Collect {
                        instance: InstanceId::custom(1, 1),
                    }
                }
                _ => {
                    let views = response.expect_views();
                    self.saw_self = views.any_view_has(&Slot::Proc(self.me));
                    Action::Return(if self.saw_self {
                        Outcome::Win
                    } else {
                        Outcome::Lose
                    })
                }
            }
        }

        fn adversary_view(&self) -> LocalStateView {
            LocalStateView::new("propagate-collect", "running").with_round(self.phase as u64)
        }
    }

    #[test]
    fn propagate_then_collect_sees_own_write() {
        for n in [1usize, 2, 3, 5, 8] {
            let mut sim = Simulator::new(SimConfig::new(n).with_seed(1));
            for i in 0..n {
                sim.add_participant(ProcId(i), Box::new(PropagateCollect::new(ProcId(i))));
            }
            let report = sim.run(&mut RandomAdversary::with_seed(42)).unwrap();
            for i in 0..n {
                assert_eq!(
                    report.outcome(ProcId(i)),
                    Some(Outcome::Win),
                    "n={n}, processor {i} must observe its own propagated write"
                );
            }
        }
    }

    #[test]
    fn message_complexity_is_linear_per_communicate_call() {
        let n = 10;
        let mut sim = Simulator::new(SimConfig::new(n));
        sim.add_participant(ProcId(0), Box::new(PropagateCollect::new(ProcId(0))));
        let report = sim.run(&mut SequentialAdversary::new()).unwrap();
        // Two communicate calls: each sends n-1 requests; replicas send back
        // up to n-1 replies each. Self-delivery is free.
        let sent = report.total_messages();
        assert!(
            sent >= 2 * (n as u64 - 1),
            "requests must be counted: {sent}"
        );
        assert!(
            sent <= 4 * (n as u64 - 1),
            "no more than requests + replies may be counted: {sent}"
        );
        assert_eq!(report.max_communicate_calls(), 2);
    }

    #[test]
    fn crash_budget_is_enforced() {
        let mut sim = Simulator::new(SimConfig::new(4));
        sim.add_participant(ProcId(0), Box::new(PropagateCollect::new(ProcId(0))));

        struct CrashHappy;
        impl Adversary for CrashHappy {
            fn decide(
                &mut self,
                obs: &SystemObservation,
                _enabled: &EnabledEvents<'_>,
            ) -> Decision {
                // Keep crashing replicas (never the participant p0) until the
                // budget runs out.
                let victim = obs
                    .processes
                    .iter()
                    .skip(1)
                    .find(|p| !matches!(p.phase, ProcessPhase::Crashed))
                    .map(|p| p.proc)
                    .unwrap_or(ProcId(1));
                Decision::Crash(victim)
            }
            fn name(&self) -> &'static str {
                "crash-happy"
            }
        }

        let err = sim.run(&mut CrashHappy).unwrap_err();
        assert!(matches!(err, SimError::CrashBudgetExceeded { .. }));
    }

    #[test]
    fn single_processor_system_terminates_immediately() {
        let mut sim = Simulator::new(SimConfig::new(1));
        sim.add_participant(ProcId(0), Box::new(PropagateCollect::new(ProcId(0))));
        let report = sim.run(&mut RandomAdversary::with_seed(0)).unwrap();
        assert_eq!(report.outcome(ProcId(0)), Some(Outcome::Win));
        assert_eq!(report.total_messages(), 0, "a lone processor sends nothing");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = Simulator::new(SimConfig::new(6).with_seed(3).with_trace());
            for i in 0..6 {
                sim.add_participant(ProcId(i), Box::new(PropagateCollect::new(ProcId(i))));
            }
            sim.run(&mut RandomAdversary::with_seed(seed)).unwrap()
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a.trace.digest(), b.trace.digest());
        assert_eq!(a.total_messages(), b.total_messages());
        // A different adversary seed virtually always yields a different schedule.
        assert_ne!(a.trace.digest(), c.trace.digest());
    }

    #[test]
    fn naive_and_incremental_event_sets_agree() {
        let run = |naive: bool, validate: bool| {
            let mut config = SimConfig::new(7).with_seed(5).with_trace();
            if naive {
                config = config.with_naive_event_set();
            }
            if validate {
                config = config.with_event_set_validation();
            }
            let mut sim = Simulator::new(config);
            for i in 0..7 {
                sim.add_participant(ProcId(i), Box::new(PropagateCollect::new(ProcId(i))));
            }
            sim.run(&mut RandomAdversary::with_seed(23)).unwrap()
        };
        let incremental = run(false, true);
        let naive = run(true, false);
        assert_eq!(incremental.trace.digest(), naive.trace.digest());
        assert_eq!(incremental.trace.len(), naive.trace.len());
        assert_eq!(incremental.total_messages(), naive.total_messages());
        assert_eq!(incremental.outcomes, naive.outcomes);
        assert_eq!(incremental.events_executed, naive.events_executed);
    }

    #[test]
    fn naive_and_shared_payloads_agree() {
        let run = |naive_payloads: bool| {
            let mut config = SimConfig::new(7).with_seed(5).with_trace();
            if naive_payloads {
                config = config.with_naive_payloads();
            }
            let mut sim = Simulator::new(config);
            for i in 0..7 {
                sim.add_participant(ProcId(i), Box::new(PropagateCollect::new(ProcId(i))));
            }
            sim.run(&mut RandomAdversary::with_seed(23)).unwrap()
        };
        let shared = run(false);
        let naive = run(true);
        assert_eq!(shared.trace.digest(), naive.trace.digest());
        assert_eq!(shared.total_messages(), naive.total_messages());
        assert_eq!(shared.outcomes, naive.outcomes);
        assert_eq!(shared.events_executed, naive.events_executed);
    }

    #[test]
    fn early_finish_keeps_crash_accounting_intact() {
        // n = 5 ⇒ crash budget 2. Crash once, take a partial report, and
        // verify the engine still counts that crash: the budget must run out
        // after one *more* crash, not two, and the partial report must list
        // the crash it observed.
        struct CrashThenOldest {
            victims: Vec<ProcId>,
        }
        impl Adversary for CrashThenOldest {
            fn decide(
                &mut self,
                _obs: &SystemObservation,
                _enabled: &EnabledEvents<'_>,
            ) -> Decision {
                match self.victims.pop() {
                    Some(victim) => Decision::Crash(victim),
                    None => Decision::Schedule(0),
                }
            }
            fn name(&self) -> &'static str {
                "crash-then-oldest"
            }
        }

        let mut sim = Simulator::new(SimConfig::new(5));
        for i in 0..3 {
            sim.add_participant(ProcId(i), Box::new(PropagateCollect::new(ProcId(i))));
        }
        let mut adversary = CrashThenOldest {
            victims: vec![ProcId(3)],
        };
        assert!(sim.step_once(&mut adversary).unwrap());
        let partial = sim.finish();
        assert_eq!(
            partial.crashed,
            vec![ProcId(3)],
            "partial report sees the crash"
        );
        assert!(!sim.is_complete());

        // One more crash fits the budget of 2; the next must be rejected —
        // an early finish must not have handed the adversary a fresh budget.
        let mut adversary = CrashThenOldest {
            victims: vec![ProcId(2), ProcId(4)],
        };
        assert!(sim.step_once(&mut adversary).unwrap());
        let err = sim.step_once(&mut adversary).unwrap_err();
        assert!(matches!(err, SimError::CrashBudgetExceeded { .. }));
    }

    #[test]
    fn early_finish_keeps_later_reports_internally_consistent() {
        let mut sim = Simulator::new(SimConfig::new(3));
        for i in 0..2 {
            sim.add_participant(ProcId(i), Box::new(PropagateCollect::new(ProcId(i))));
        }
        let mut adversary = RandomAdversary::with_seed(1);
        // Let participants start, then take a partial snapshot (which also
        // takes the interval-start entries with it).
        for _ in 0..3 {
            assert!(sim.step_once(&mut adversary).unwrap());
        }
        let _partial = sim.finish();
        // The final report must still pair every outcome it carries with a
        // complete interval, or the linearizability checker false-fires.
        while sim.step_once(&mut adversary).unwrap() {}
        let report = sim.finish();
        assert!(!report.outcomes.is_empty());
        for proc in report.outcomes.keys() {
            assert!(
                report
                    .intervals
                    .get(proc)
                    .is_some_and(|(_, end)| end.is_some()),
                "{proc} returned but its interval is missing or open"
            );
        }
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut sim = Simulator::new(SimConfig::new(2));
        sim.add_participant(ProcId(0), Box::new(PropagateCollect::new(ProcId(0))));
        let err = sim
            .try_add_participant(ProcId(0), Box::new(PropagateCollect::new(ProcId(0))))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidParticipant { .. }));
        let err = sim
            .try_add_participant(ProcId(7), Box::new(PropagateCollect::new(ProcId(7))))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidParticipant { .. }));
    }

    #[test]
    fn crashed_minority_does_not_block_termination() {
        let n = 5;
        let mut sim = Simulator::new(SimConfig::new(n));
        for i in 0..n {
            sim.add_participant(ProcId(i), Box::new(PropagateCollect::new(ProcId(i))));
        }

        /// Crash processors 3 and 4 immediately, then schedule fairly.
        struct CrashTwoThenFair {
            inner: RandomAdversary,
            crashed: usize,
        }
        impl Adversary for CrashTwoThenFair {
            fn decide(&mut self, obs: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
                if self.crashed < 2 && obs.crash_budget_left > 0 {
                    let victim = ProcId(3 + self.crashed);
                    self.crashed += 1;
                    return Decision::Crash(victim);
                }
                self.inner.decide(obs, enabled)
            }
            fn name(&self) -> &'static str {
                "crash-two-then-fair"
            }
        }

        let report = sim
            .run(&mut CrashTwoThenFair {
                inner: RandomAdversary::with_seed(5),
                crashed: 0,
            })
            .unwrap();
        for i in 0..3 {
            assert_eq!(
                report.outcome(ProcId(i)),
                Some(Outcome::Win),
                "correct processor {i} must terminate despite 2 crashes"
            );
        }
        assert_eq!(report.crashed.len(), 2);
        assert_eq!(report.outcome(ProcId(3)), None);
    }
}
