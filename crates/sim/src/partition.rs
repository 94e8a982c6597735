//! The partitioned parallel simulator: one giant election across all cores.
//!
//! [`ParallelSimulator`] splits one simulation's `n` processors into
//! contiguous partitions ([`fle_model::PartitionMap`]), gives each partition
//! its own engine (message slab, event indexes, processor state) and advances
//! all partitions in deterministic **super-rounds**:
//!
//! 1. **Barrier (leader, serial):** apply the crashes due this round, one at
//!    a time in ascending victim order, stopping early if the last live
//!    participant dies (mirroring the sequential engine's check before every
//!    decision).
//! 2. **Round (workers, parallel):** every partition *intakes* the messages
//!    routed to it at the previous barrier, then delivers **all** of them in
//!    ascending message-id order, then runs step-runs in ascending processor
//!    order (a processor keeps stepping until it blocks). Every message a
//!    partition sends — local or remote — goes to its *outbox* tagged with a
//!    [`RouteKey`] and becomes deliverable only next round, so partitions are
//!    causally isolated within a round and the execution cannot depend on
//!    which worker thread ran which partition.
//! 3. **Barrier (leader, serial):** merge the outboxes in [`RouteKey`] order,
//!    assign global message ids in that order, and route each message to its
//!    recipient's partition. The key is a pure function of what *triggered*
//!    the send (the delivered message id for replies, the stepping processor
//!    for broadcasts), so the id sequence is independent of the partition
//!    count — and in this canonical mode it reproduces the sequential
//!    engine's send order exactly.
//!
//! The same schedule can be driven through the sequential [`crate::Simulator`]
//! by the [`SuperRoundAdversary`], which is how the differential tests pin the
//! partitioned engine to the reference engine event for event (same reports,
//! same metrics, same trace digests).
//!
//! Two scheduling modes:
//!
//! * **Canonical** ([`ParallelSimulator::run_canonical`]): crashes come from a
//!   pre-declared [`RoundCrashPlan`]; the schedule — and therefore every
//!   report field — is a pure function of `(seed, n, crash plan)` and is
//!   *identical for every partition count*. This is the mode the benchmarks
//!   and differential tests use.
//! * **Adversarial** ([`ParallelSimulator::run_adversarial`]): each partition
//!   gets its own [`Adversary`] (seeded by a pure function of the
//!   configuration seed and the partition index) which orders that
//!   partition's events within each round and spends a partition share of the
//!   crash budget. Deterministic for a fixed `(seed, n, partitions)` and
//!   independent of the worker-thread count, but *not* partition-count
//!   independent (different partition counts are simply different
//!   adversaries).

use crate::adversary::Adversary;
use crate::arena::SimArena;
use crate::engine::SimConfig;
use crate::error::SimError;
use crate::kernel::{observation_of, Kernel, Outbox};
use crate::message::{InFlightMessage, MessageId};
use crate::observation::{Decision, EnabledEvent, EnabledEvents, SystemObservation};
use crate::report::ExecutionReport;
use crate::trace::{Trace, TraceEvent};
use fle_model::{splitmix64, Outcome, PartitionMap, ProcId, Protocol, RouteKey, WireMessage};

// ---------------------------------------------------------------------------
// Partition adversary seeds
// ---------------------------------------------------------------------------

/// The seed handed to partition `partition`'s adversary in adversarial mode:
/// `splitmix64(seed ^ splitmix64(0xAD5E_0000_0000_0000 | partition))`.
pub fn partition_adversary_seed(seed: u64, partition: usize) -> u64 {
    splitmix64(seed ^ splitmix64(0xAD5E_0000_0000_0000 | partition as u64))
}

// ---------------------------------------------------------------------------
// Crash plans
// ---------------------------------------------------------------------------

/// A pre-declared crash schedule for canonical mode: `(round, victim)` pairs,
/// applied at the start of the given super-round in ascending victim order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundCrashPlan {
    entries: Vec<(u64, ProcId)>,
}

impl RoundCrashPlan {
    /// A plan with no crashes.
    pub fn none() -> Self {
        RoundCrashPlan::default()
    }

    /// Build a plan from `(round, victim)` pairs; entries are sorted by
    /// `(round, victim)` so same-round crashes apply in ascending victim
    /// order.
    pub fn new(mut entries: Vec<(u64, ProcId)>) -> Self {
        entries.sort();
        RoundCrashPlan { entries }
    }

    /// The sorted `(round, victim)` entries.
    pub fn entries(&self) -> &[(u64, ProcId)] {
        &self.entries
    }

    /// Check the plan against a configuration: victims must be in range,
    /// pairwise distinct, and no more numerous than the crash budget.
    ///
    /// # Errors
    /// [`SimError::InvalidDecision`] for out-of-range or duplicate victims,
    /// [`SimError::CrashBudgetExceeded`] for too many crashes.
    pub fn validate(&self, config: &SimConfig) -> Result<(), SimError> {
        if self.entries.len() > config.crash_budget {
            return Err(SimError::CrashBudgetExceeded {
                victim: self.entries[config.crash_budget].1,
                budget: config.crash_budget,
            });
        }
        let mut victims: Vec<ProcId> = self.entries.iter().map(|&(_, v)| v).collect();
        victims.sort();
        for pair in victims.windows(2) {
            if pair[0] == pair[1] {
                return Err(SimError::InvalidDecision {
                    reason: format!("crash plan names {} twice", pair[0]),
                });
            }
        }
        for &(_, victim) in &self.entries {
            if victim.index() >= config.n {
                return Err(SimError::InvalidDecision {
                    reason: format!("cannot crash non-existent processor {victim}"),
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Per-partition engine
// ---------------------------------------------------------------------------

/// A message leaving a partition during a round, waiting for the barrier to
/// assign it a global id and route it.
struct Outbound {
    key: RouteKey,
    from: ProcId,
    to: ProcId,
    payload: WireMessage,
}

impl Outbound {
    /// Placeholder left behind when the router moves a message out of an
    /// outbox slot (the outbox is cleared wholesale right after the merge).
    fn tombstone() -> Self {
        Outbound {
            key: RouteKey::reply(u64::MAX),
            from: ProcId(0),
            to: ProcId(0),
            payload: WireMessage::Ack { seq: 0 },
        }
    }
}

/// An invocation (`outcome == None`) or return observed by a worker
/// mid-round; the leader assigns its global event number at the barrier.
struct Marker {
    /// Position of the triggering event inside this partition's round:
    /// canonical mode counts step-phase events only (1-based local step
    /// index), adversarial mode counts all local events (1-based).
    pos: u64,
    proc: ProcId,
    outcome: Option<Outcome>,
}

/// A partition's [`Outbox`]: everything the barrier reads after a round.
#[derive(Default)]
struct RoundBuffers {
    /// Messages sent this round, in [`RouteKey`] order by construction
    /// (canonical) or after the end-of-round sort (adversarial).
    outbox: Vec<Outbound>,
    markers: Vec<Marker>,
    /// Canonical mode: this round's `Deliver` trace events, ascending message
    /// id (merged by id across partitions at the barrier). Adversarial rounds
    /// trace deliveries in execution order with the kernel's other events.
    deliveries: Trace,
    /// Whether the current round is ordered by the partition's adversary.
    adversarial: bool,
}

impl Outbox for RoundBuffers {
    fn send(
        &mut self,
        _kernel: &mut Kernel,
        key: RouteKey,
        from: ProcId,
        to: ProcId,
        payload: WireMessage,
    ) {
        // The canonical phase order (all deliveries, then step-runs in
        // ascending processor order) produces keys in strictly ascending
        // order by construction; an adversarial round interleaves freely and
        // sorts its outbox at the end of the round instead.
        debug_assert!(
            self.adversarial || self.outbox.last().is_none_or(|last| last.key < key),
            "outbox keys must be generated in strictly ascending order"
        );
        self.outbox.push(Outbound {
            key,
            from,
            to,
            payload,
        });
    }

    fn mark(&mut self, _kernel: &mut Kernel, proc: ProcId, pos: u64, outcome: Option<Outcome>) {
        self.markers.push(Marker { pos, proc, outcome });
    }

    fn trace_delivery(&mut self, kernel: &mut Kernel, event: TraceEvent) {
        if self.adversarial {
            kernel.report.trace.push(event);
        } else {
            self.deliveries.push(event);
        }
    }
}

/// One partition's share of the simulation: a [`Kernel`] over the local
/// processors plus the round buffers the barrier reads.
///
/// Under super-round semantics every request of a call is delivered one
/// round after it was sent, and every reply one round after that — so by the
/// time a quorum completes, the only leftovers are replies sitting in the
/// caller's own partition, which the kernel purges. Requests addressed to
/// processors that crashed before delivery stay in their partitions' slabs
/// forever (never enabled, never reported), where the sequential engine
/// reclaims them; this is behaviourally invisible.
struct PartitionEngine {
    core: Kernel,
    round: RoundBuffers,
    /// Messages routed to this partition at the last barrier.
    inbox: Vec<InFlightMessage>,
    round_delivered: u64,
    round_steps: u64,
    /// Events this partition executed before the current round (adversarial
    /// observations report this partition-local count).
    events_before_round: u64,
    /// Error raised by this partition during the round, if any.
    round_error: Option<SimError>,
    /// Adversarial mode only: this partition's adversary. It sees a full-`n`
    /// observation in which remote processors appear as
    /// [`crate::ProcessPhase::Idle`], and spends the kernel's share of the
    /// crash budget.
    adversary: Option<Box<dyn Adversary>>,
}

impl PartitionEngine {
    fn new(part: usize, map: &PartitionMap, config: &SimConfig) -> Self {
        let mut core = Kernel::new(config, map.range_of(part), SimArena::take_pooled(), false);
        core.pooled = true;
        PartitionEngine {
            core,
            round: RoundBuffers {
                deliveries: Trace::new(config.record_trace),
                ..RoundBuffers::default()
            },
            inbox: Vec::new(),
            round_delivered: 0,
            round_steps: 0,
            events_before_round: 0,
            round_error: None,
            adversary: None,
        }
    }

    /// Start a round: pull the messages routed to this partition at the last
    /// barrier into the kernel. Deliveries to crashed recipients are never
    /// enabled, which mirrors the sequential engine retiring a victim's
    /// deliveries at crash time.
    fn begin_round(&mut self, adversarial: bool) {
        self.round.adversarial = adversarial;
        self.events_before_round += self.round_delivered + self.round_steps;
        self.round_delivered = 0;
        self.round_steps = 0;
        for message in self.inbox.drain(..) {
            debug_assert!(
                self.core.owns(message.to),
                "message routed to wrong partition"
            );
            self.core.admit(message);
        }
    }

    /// Run one super-round body, canonical or adversarial.
    fn run_round(&mut self, adversarial: bool) {
        self.begin_round(adversarial);
        if adversarial {
            self.run_round_adversarial();
        } else {
            self.run_round_canonical();
        }
    }

    /// Run one canonical super-round: deliver everything in ascending id
    /// order, then step-runs in ascending processor order.
    fn run_round_canonical(&mut self) {
        while let Some((_, slot)) = self.core.enabled_msgs.select(0) {
            self.round_delivered += 1;
            self.core.execute_delivery(slot, &mut self.round);
        }
        while let Some(index) = self.core.enabled_steps.select(0) {
            self.round_steps += 1;
            self.core
                .execute_step(ProcId(index), self.round_steps, &mut self.round);
        }
    }

    /// Run one adversarial super-round: let this partition's adversary order
    /// (and crash) until every enabled event is consumed.
    fn run_round_adversarial(&mut self) {
        while self.core.enabled_len() > 0 {
            let events = self.events_before_round + self.round_delivered + self.round_steps;
            self.core.refresh_header(events);
            let decision = {
                let observation = self
                    .core
                    .observation
                    .as_ref()
                    .expect("adversarial mode maintains an observation");
                let adversary = self
                    .adversary
                    .as_mut()
                    .expect("adversarial mode installs an adversary");
                adversary.decide(observation, &self.core.enabled())
            };
            let outcome = match decision {
                Decision::Crash(victim) => self.core.crash(victim),
                Decision::Schedule(index) => match self.core.resolve(index) {
                    Some((EnabledEvent::Step(proc), _)) => {
                        self.round_steps += 1;
                        let pos = self.round_delivered + self.round_steps;
                        self.core.execute_step(proc, pos, &mut self.round);
                        Ok(())
                    }
                    Some((_, Some(slot))) => {
                        self.round_delivered += 1;
                        self.core.execute_delivery(slot, &mut self.round);
                        Ok(())
                    }
                    _ => Err(SimError::InvalidDecision {
                        reason: format!(
                            "index {index} out of bounds for {} enabled events",
                            self.core.enabled_len()
                        ),
                    }),
                },
            };
            if let Err(error) = outcome {
                self.round_error = Some(error);
                return;
            }
        }
        // The barrier's p-way merge requires key-sorted outboxes. Keys are
        // unique within a round (replies carry distinct trigger ids; a
        // processor sends at most one broadcast batch per round, since a
        // fresh communicate call cannot complete before the next barrier),
        // so this sort is deterministic regardless of adversary order.
        self.round.outbox.sort_by_key(|out| out.key);
    }
}

// ---------------------------------------------------------------------------
// The parallel simulator (leader + barrier)
// ---------------------------------------------------------------------------

/// What drives a run: a pre-declared crash plan (canonical mode) or one
/// adversary per partition (adversarial mode).
enum RoundMode {
    Canonical { plan: RoundCrashPlan, cursor: usize },
    Adversarial,
}

/// The partitioned parallel simulator. See the module documentation for the
/// super-round execution model.
///
/// Construction mirrors the sequential [`crate::Simulator`]: build a
/// [`SimConfig`] (with [`SimConfig::with_partitions`]), register
/// participants, then either [`ParallelSimulator::run_canonical`] /
/// [`ParallelSimulator::run_adversarial`] to completion or drive
/// [`ParallelSimulator::step_round`] round by round (online oracles).
pub struct ParallelSimulator {
    config: SimConfig,
    map: PartitionMap,
    engines: Vec<PartitionEngine>,
    workers: usize,
    mode: RoundMode,
    round: u64,
    next_message_id: u64,
    events_executed: u64,
    /// Canonical-mode crash log, in application order.
    crashes: Vec<ProcId>,
    report: ExecutionReport,
}

impl ParallelSimulator {
    /// Create a parallel simulator over `config.partitions` partitions
    /// (a value of 0 means 1). Defaults to canonical mode with no crashes.
    ///
    /// # Panics
    /// Panics if the config enables `naive_event_set`, `naive_payloads` or
    /// `validate_event_set` — those reference modes exist only in the
    /// sequential engine.
    pub fn new(mut config: SimConfig) -> Self {
        assert!(
            !config.naive_event_set && !config.naive_payloads && !config.validate_event_set,
            "the partitioned engine does not support the naive/validation reference modes"
        );
        config.partitions = config.partitions.clamp(1, config.n);
        let map = PartitionMap::new(config.n, config.partitions);
        let engines = (0..map.partitions())
            .map(|part| PartitionEngine::new(part, &map, &config))
            .collect();
        let trace = Trace::new(config.record_trace);
        ParallelSimulator {
            map,
            engines,
            workers: 0,
            mode: RoundMode::Canonical {
                plan: RoundCrashPlan::none(),
                cursor: 0,
            },
            round: 0,
            next_message_id: 0,
            events_executed: 0,
            crashes: Vec::new(),
            report: ExecutionReport {
                trace,
                ..ExecutionReport::default()
            },
            config,
        }
    }

    /// Cap the number of worker threads (0 = one per partition, up to
    /// [`std::thread::available_parallelism`]). Purely a resource knob:
    /// partitions do not interact within a round, so results are byte-for-
    /// byte identical for every worker count — the determinism regression
    /// tests run the same configuration at several worker counts and require
    /// it.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The configuration this simulator was built with (with `partitions`
    /// clamped to `1..=n`).
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.map.partitions()
    }

    /// Register `proc` as a participant running `protocol` (routed to the
    /// partition that owns `proc`).
    ///
    /// # Errors
    /// Returns [`SimError::InvalidParticipant`] if the processor id is out of
    /// range or already participates.
    pub fn try_add_participant(
        &mut self,
        proc: ProcId,
        protocol: Box<dyn Protocol>,
    ) -> Result<(), SimError> {
        // An out-of-range id goes to the last partition, which rejects it.
        let part = self
            .map
            .partition_of(ProcId(proc.index().min(self.config.n - 1)));
        self.engines[part].core.try_add_participant(proc, protocol)
    }

    /// Register `proc` as a participant running `protocol`.
    ///
    /// # Panics
    /// Panics on the error conditions of
    /// [`ParallelSimulator::try_add_participant`].
    pub fn add_participant(&mut self, proc: ProcId, protocol: Box<dyn Protocol>) {
        self.try_add_participant(proc, protocol)
            .expect("invalid participant registration");
    }

    /// Switch to canonical mode with the given crash plan.
    ///
    /// # Errors
    /// The plan's [`RoundCrashPlan::validate`] errors.
    pub fn set_crash_plan(&mut self, plan: &RoundCrashPlan) -> Result<(), SimError> {
        plan.validate(&self.config)?;
        self.mode = RoundMode::Canonical {
            plan: plan.clone(),
            cursor: 0,
        };
        Ok(())
    }

    /// Switch to adversarial mode: `factory(partition, seed)` builds one
    /// adversary per partition, where `seed` is
    /// [`partition_adversary_seed`]`(config.seed, partition)`. Each partition
    /// gets `budget/p` of the crash budget plus one of the first
    /// `budget % p` remainder units, and may only crash its own processors.
    pub fn set_adversaries(&mut self, mut factory: impl FnMut(usize, u64) -> Box<dyn Adversary>) {
        let parts = self.engines.len();
        let budget = self.config.crash_budget;
        for (part, engine) in self.engines.iter_mut().enumerate() {
            engine.adversary = Some(factory(
                part,
                partition_adversary_seed(self.config.seed, part),
            ));
            engine.core.crash_budget = budget / parts + usize::from(part < budget % parts);
            if engine.core.observation.is_none() {
                engine.core.observe(Vec::new());
            }
        }
        self.mode = RoundMode::Adversarial;
    }

    /// Whether every live participant has returned.
    pub fn is_complete(&self) -> bool {
        self.live() == 0
    }

    /// Number of events executed so far (sum over all partitions).
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// The current super-round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    fn live(&self) -> usize {
        self.engines.iter().map(|e| e.core.live).sum()
    }

    fn budget_exhausted(&self) -> SimError {
        SimError::EventBudgetExhausted {
            budget: self.config.max_events,
            unfinished: self
                .engines
                .iter()
                .flat_map(|e| e.core.live_participants())
                .collect(),
        }
    }

    /// Apply one canonical-mode crash at the barrier. The enabled-message
    /// indexes are empty between rounds, so there is nothing to retire;
    /// undelivered messages to the victim are simply never enabled at intake.
    fn crash_at_barrier(&mut self, victim: ProcId) {
        let engine = &mut self.engines[self.map.partition_of(victim)];
        debug_assert!(
            !engine.core.process(victim).crashed,
            "plan victims are unique"
        );
        engine.core.retire(victim);
        self.crashes.push(victim);
        self.report.trace.push(TraceEvent::Crash { proc: victim });
    }

    /// Run the per-partition round bodies, inline or on scoped worker
    /// threads. The partition-to-worker assignment cannot affect results —
    /// partitions share no state within a round — which is what the
    /// worker-count determinism tests pin down.
    fn dispatch_round(&mut self) {
        let adversarial = matches!(self.mode, RoundMode::Adversarial);
        let parts = self.engines.len();
        let workers = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|w| w.get())
                .unwrap_or(1)
                .min(parts)
        } else {
            self.workers.min(parts)
        };
        if workers <= 1 || parts == 1 {
            for engine in &mut self.engines {
                engine.run_round(adversarial);
            }
            return;
        }
        let chunk = parts.div_ceil(workers);
        std::thread::scope(|scope| {
            for engines in self.engines.chunks_mut(chunk) {
                scope.spawn(move || {
                    for engine in engines {
                        engine.run_round(adversarial);
                    }
                });
            }
        });
    }

    /// Execute one super-round. Returns `Ok(false)` — without running
    /// anything — once every live participant has returned.
    ///
    /// # Errors
    /// * [`SimError::EventBudgetExhausted`] if the event budget ran out or
    ///   the system can no longer make progress (quorums that can never
    ///   form). Unlike the sequential engine, the budget is enforced at
    ///   round granularity, so a run may overshoot `max_events` by up to one
    ///   round before erroring.
    /// * Adversarial mode: any error a partition adversary provokes
    ///   ([`SimError::InvalidDecision`], [`SimError::CrashBudgetExceeded`]),
    ///   reported for the lowest-numbered failing partition.
    pub fn step_round(&mut self) -> Result<bool, SimError> {
        if self.live() == 0 {
            return Ok(false);
        }
        if self.events_executed >= self.config.max_events {
            return Err(self.budget_exhausted());
        }

        // Barrier, part 1: due crashes (canonical mode), applied one at a
        // time with the sequential engine's "did the last live participant
        // just die" check between them.
        let mut crashes_this_round = 0u64;
        if let RoundMode::Canonical { plan, cursor } = &mut self.mode {
            let mut due = Vec::new();
            while *cursor < plan.entries().len() && plan.entries()[*cursor].0 <= self.round {
                due.push(plan.entries()[*cursor].1);
                *cursor += 1;
            }
            for victim in due {
                if self.live() == 0 {
                    return Ok(false);
                }
                self.crash_at_barrier(victim);
                crashes_this_round += 1;
            }
            if self.live() == 0 {
                return Ok(false);
            }
        }

        // The round body: all partitions in parallel.
        self.dispatch_round();
        for engine in &self.engines {
            if let Some(error) = &engine.round_error {
                return Err(error.clone());
            }
        }

        // Barrier, part 2: global event numbering and interval/outcome
        // bookkeeping from the markers — O(partitions + markers), not
        // O(events), so the serial fraction stays flat as n grows.
        let adversarial = matches!(self.mode, RoundMode::Adversarial);
        let base = self.events_executed;
        let d_total: u64 = self.engines.iter().map(|e| e.round_delivered).sum();
        let s_total: u64 = self.engines.iter().map(|e| e.round_steps).sum();
        let mut prefix = 0u64;
        for engine in &mut self.engines {
            let marker_base = if adversarial {
                base + prefix
            } else {
                base + d_total + prefix
            };
            for marker in engine.round.markers.drain(..) {
                let global = marker_base + marker.pos;
                match marker.outcome {
                    None => {
                        self.report.intervals.insert(marker.proc, (global, None));
                    }
                    Some(outcome) => {
                        self.report.outcomes.insert(marker.proc, outcome);
                        self.report
                            .intervals
                            .entry(marker.proc)
                            .or_insert((global, None))
                            .1 = Some(global);
                    }
                }
            }
            prefix += if adversarial {
                engine.round_delivered + engine.round_steps
            } else {
                engine.round_steps
            };
        }
        self.events_executed += d_total + s_total;

        // Trace merge (only when recording): canonical rounds interleave the
        // delivery sections by message id and concatenate the step sections
        // in partition order (= ascending processor order, since partitions
        // are contiguous); adversarial rounds concatenate each partition's
        // local event sequence.
        if self.config.record_trace {
            if !adversarial {
                let mut cursors = vec![0usize; self.engines.len()];
                loop {
                    let mut best: Option<(u64, usize)> = None;
                    for (part, engine) in self.engines.iter().enumerate() {
                        if let Some(TraceEvent::Deliver { id, .. }) =
                            engine.round.deliveries.events().get(cursors[part])
                        {
                            if best.is_none_or(|(bid, _)| id.0 < bid) {
                                best = Some((id.0, part));
                            }
                        }
                    }
                    let Some((_, part)) = best else { break };
                    let event = self.engines[part].round.deliveries.events()[cursors[part]];
                    self.report.trace.push(event);
                    cursors[part] += 1;
                }
            }
            for engine in &mut self.engines {
                engine.round.deliveries.clear();
                self.report.trace.append(&mut engine.core.report.trace);
            }
        }

        // Barrier, part 3: merge the outboxes in RouteKey order, assign
        // global message ids, and route each message to its recipient's
        // partition. Each outbox is already key-sorted (keys are generated
        // in ascending trigger order), so this is a p-way merge.
        let mut outboxes: Vec<Vec<Outbound>> = self
            .engines
            .iter_mut()
            .map(|e| std::mem::take(&mut e.round.outbox))
            .collect();
        let mut inboxes: Vec<Vec<InFlightMessage>> = self
            .engines
            .iter_mut()
            .map(|e| std::mem::take(&mut e.inbox))
            .collect();
        let mut cursors = vec![0usize; outboxes.len()];
        let mut routed = 0u64;
        loop {
            let mut best: Option<(RouteKey, usize)> = None;
            for (part, outbox) in outboxes.iter().enumerate() {
                if let Some(out) = outbox.get(cursors[part]) {
                    if best.is_none_or(|(key, _)| out.key < key) {
                        best = Some((out.key, part));
                    }
                }
            }
            let Some((_, part)) = best else { break };
            let out = std::mem::replace(&mut outboxes[part][cursors[part]], Outbound::tombstone());
            cursors[part] += 1;
            let id = MessageId(self.next_message_id);
            self.next_message_id += 1;
            let dest = self.map.partition_of(out.to);
            inboxes[dest].push(InFlightMessage {
                id,
                from: out.from,
                to: out.to,
                payload: out.payload,
                // Messages live exactly one barrier; the send round is
                // recorded for diagnostics only (the sequential engine
                // stamps an event count here — neither value reaches any
                // report).
                sent_at: self.round,
            });
            routed += 1;
        }
        for (engine, mut outbox) in self.engines.iter_mut().zip(outboxes) {
            outbox.clear();
            engine.round.outbox = outbox;
        }
        for (engine, inbox) in self.engines.iter_mut().zip(inboxes) {
            engine.inbox = inbox;
        }

        if d_total + s_total == 0 && crashes_this_round == 0 && routed == 0 && self.live() > 0 {
            // Every live participant is blocked on a quorum that can never
            // form. The sequential engine reports this as budget exhaustion
            // the moment its enabled-event set empties; mirror that.
            return Err(self.budget_exhausted());
        }

        self.round += 1;
        Ok(true)
    }

    /// Run to completion in canonical mode under `plan`.
    ///
    /// # Errors
    /// [`RoundCrashPlan::validate`] errors and [`ParallelSimulator::step_round`]
    /// errors.
    pub fn run_canonical(&mut self, plan: &RoundCrashPlan) -> Result<ExecutionReport, SimError> {
        self.set_crash_plan(plan)?;
        while self.step_round()? {}
        Ok(self.finish())
    }

    /// Run to completion in adversarial mode; see
    /// [`ParallelSimulator::set_adversaries`] for the factory contract.
    ///
    /// # Errors
    /// [`ParallelSimulator::step_round`] errors.
    pub fn run_adversarial(
        &mut self,
        factory: impl FnMut(usize, u64) -> Box<dyn Adversary>,
    ) -> Result<ExecutionReport, SimError> {
        self.set_adversaries(factory);
        while self.step_round()? {}
        Ok(self.finish())
    }

    /// Merge and take the report (counterpart of the sequential engine's
    /// [`crate::Simulator::finish`]). Metrics are absorbed from every
    /// partition; crashes are reported in application order (canonical) or
    /// partition order (adversarial).
    pub fn finish(&mut self) -> ExecutionReport {
        let report = std::mem::take(&mut self.report);
        self.merged(report)
    }

    /// A merged snapshot of the in-progress report (outcomes, intervals,
    /// metrics, crashes, trace so far). O(n) — built for online oracles
    /// between rounds, not for hot loops.
    pub fn merged_report_so_far(&self) -> ExecutionReport {
        self.merged(self.report.clone())
    }

    /// Complete the leader's `report` with the event count, every
    /// partition's metrics and the crash list.
    fn merged(&self, mut report: ExecutionReport) -> ExecutionReport {
        report.events_executed = self.events_executed;
        for engine in &self.engines {
            report.metrics.absorb(&engine.core.report.metrics);
        }
        report.crashed = self.crashed();
        report
    }

    /// The crashes so far, in application order (canonical) or partition
    /// order (adversarial).
    fn crashed(&self) -> Vec<ProcId> {
        match self.mode {
            RoundMode::Adversarial => self
                .engines
                .iter()
                .flat_map(|e| e.core.crashes.iter().copied())
                .collect(),
            RoundMode::Canonical { .. } => self.crashes.clone(),
        }
    }

    /// A merged full-system observation as of the last barrier (O(n); for
    /// online oracles between rounds).
    pub fn merged_observation(&self) -> SystemObservation {
        let crashes = self.crashed().len();
        let processes = self
            .engines
            .iter()
            .flat_map(|e| e.core.processes.iter().map(observation_of))
            .collect();
        SystemObservation {
            n: self.config.n,
            events_executed: self.events_executed,
            crash_budget_left: self.config.crash_budget.saturating_sub(crashes),
            processes,
        }
    }

    /// Smallest arena-recycle count over this simulator's partitions
    /// (diagnostic for the arena-pool tests: > 0 means every partition got a
    /// recycled buffer set instead of fresh allocations).
    pub fn min_arena_reuses(&self) -> u64 {
        self.engines
            .iter()
            .map(|e| e.core.arena_reuses)
            .min()
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// The sequential reference adversary
// ---------------------------------------------------------------------------

/// An [`Adversary`] that makes the sequential [`crate::Simulator`] execute
/// the exact super-round schedule of canonical-mode [`ParallelSimulator`]:
/// per round, due crashes first, then every *ripe* delivery in ascending
/// message-id order, then step-runs in ascending processor order. A message
/// is ripe if it was sent in an earlier round (tracked with a message-id
/// watermark: ids below the watermark are ripe).
///
/// Both engines draw every coin from the same per-processor streams, so under
/// this adversary they produce byte-identical reports for the same
/// configuration — the differential tests' foundation.
#[derive(Debug, Clone)]
pub struct SuperRoundAdversary {
    watermark: u64,
    round: u64,
    plan: Vec<(u64, ProcId)>,
    cursor: usize,
}

impl SuperRoundAdversary {
    /// Drive the schedule of `plan` (use [`RoundCrashPlan::none`] for a
    /// crash-free run).
    pub fn new(plan: &RoundCrashPlan) -> Self {
        SuperRoundAdversary {
            watermark: 0,
            round: 0,
            plan: plan.entries().to_vec(),
            cursor: 0,
        }
    }

    /// First enabled-event index that is a delivery (== the number of
    /// enabled steps), found by binary search over the stable order.
    fn step_boundary(enabled: &EnabledEvents<'_>) -> usize {
        let mut lo = 0;
        let mut hi = enabled.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match enabled.get(mid) {
                Some(EnabledEvent::Step(_)) => lo = mid + 1,
                _ => hi = mid,
            }
        }
        lo
    }
}

impl Adversary for SuperRoundAdversary {
    fn decide(
        &mut self,
        _observation: &SystemObservation,
        enabled: &EnabledEvents<'_>,
    ) -> Decision {
        loop {
            if let Some(&(round, victim)) = self.plan.get(self.cursor) {
                if round <= self.round {
                    self.cursor += 1;
                    return Decision::Crash(victim);
                }
            }
            let boundary = Self::step_boundary(enabled);
            if let Some(EnabledEvent::Deliver { id, .. }) = enabled.get(boundary) {
                if id.0 < self.watermark {
                    // Ripe deliveries drain first, ascending id.
                    return Decision::Schedule(boundary);
                }
            }
            if boundary > 0 {
                // No ripe deliveries left: step-runs, ascending processor.
                return Decision::Schedule(0);
            }
            // Only unripe deliveries remain: the round is over. Everything
            // currently in flight becomes ripe and the next round begins.
            let last = enabled
                .get(enabled.len() - 1)
                .expect("the engine never offers an empty event set");
            let EnabledEvent::Deliver { id, .. } = last else {
                unreachable!("boundary == 0 means every enabled event is a delivery");
            };
            self.watermark = id.0 + 1;
            self.round += 1;
        }
    }

    fn name(&self) -> &'static str {
        "super-round"
    }
}
