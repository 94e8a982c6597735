//! The per-processor kernel shared by the sequential [`crate::Simulator`] and
//! the partitioned engine behind [`crate::ParallelSimulator`]: protocol
//! steps, coin flips, the quorum state machine of `communicate`, message
//! delivery, crashes and the adversary-visible phase of every processor.
//!
//! A [`Kernel`] owns a contiguous range of processors (all `n` of them in the
//! sequential engine, one partition in the partitioned one), the in-flight
//! messages addressed to them and the enabled-event indexes over both. The
//! little that differs between the two engines — how a sent message gets its
//! id and becomes deliverable, where invocation/return markers go, where a
//! delivery's trace event goes — is the [`Outbox`] each engine passes in. The
//! outbox is a generic parameter, so each engine runs its own monomorphized
//! copy of the kernel with no dynamic dispatch on the hot path.

use crate::arena::SimArena;
use crate::engine::SimConfig;
use crate::error::SimError;
use crate::event_set::{IndexedBitSet, OrderedMsgSet};
use crate::message::{InFlightMessage, MessageId, MessageSlab};
use crate::observation::{
    EnabledEvent, EnabledEvents, ProcessObservation, ProcessPhase, SystemObservation,
};
use crate::process::{PendingWork, SimProcess};
use crate::report::ExecutionReport;
use crate::trace::{Trace, TraceEvent};
use fle_model::{
    Action, BitRow, CollectedViews, Key, Outcome, ProcId, Protocol, Response, RouteKey, Value,
    ViewTransfer, WireMessage,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Where the kernel's engine-specific effects go.
///
/// The provided methods are the sequential engine's behaviour: markers and
/// delivery trace events are recorded straight into the kernel's report.
pub(crate) trait Outbox {
    /// Take a freshly sent message. `key` names what triggered the send (the
    /// sender's broadcast, or the delivered request being answered).
    fn send(
        &mut self,
        kernel: &mut Kernel,
        key: RouteKey,
        from: ProcId,
        to: ProcId,
        payload: WireMessage,
    );

    /// `proc` invoked its protocol (`outcome == None`) or returned `outcome`
    /// at local event number `clock`.
    fn mark(&mut self, kernel: &mut Kernel, proc: ProcId, clock: u64, outcome: Option<Outcome>) {
        match outcome {
            None => {
                kernel.report.intervals.insert(proc, (clock, None));
            }
            Some(outcome) => {
                // The interval entry normally exists since the first step,
                // but an early `finish()` takes the report with it; rebuild
                // the start from `started_at` (which survives the take) so a
                // later report never carries an outcome without an interval.
                let started = kernel
                    .process(proc)
                    .started_at
                    .expect("a returning participant has taken at least one step");
                kernel.report.outcomes.insert(proc, outcome);
                kernel
                    .report
                    .intervals
                    .entry(proc)
                    .or_insert((started, None))
                    .1 = Some(clock);
            }
        }
    }

    /// Record the trace event of a delivery.
    fn trace_delivery(&mut self, kernel: &mut Kernel, event: TraceEvent) {
        kernel.report.trace.push(event);
    }
}

/// The responder set of a fresh communicate call: the caller answers itself.
fn answered_by(caller: ProcId) -> BitRow {
    let mut seen = BitRow::new();
    seen.set(caller.index());
    seen
}

/// The adversary's view of one processor.
pub(crate) fn observation_of(process: &SimProcess) -> ProcessObservation {
    let phase = if process.crashed {
        ProcessPhase::Crashed
    } else if !process.participates() {
        ProcessPhase::Idle
    } else {
        match &process.pending {
            PendingWork::NotStarted => ProcessPhase::NotStarted,
            PendingWork::LocalResponse(_) | PendingWork::ResponseReady(_) => {
                ProcessPhase::StepReady
            }
            PendingWork::AwaitingAcks { .. } | PendingWork::AwaitingViews { .. } => {
                ProcessPhase::AwaitingQuorum
            }
            PendingWork::Finished(_) => ProcessPhase::Finished,
        }
    };
    ProcessObservation {
        proc: process.id,
        phase,
        local_state: process
            .protocol
            .as_ref()
            .map(|protocol| protocol.adversary_view()),
    }
}

/// The processors `lo..lo + processes.len()` of one engine, their messages
/// and the enabled-event indexes over them.
pub(crate) struct Kernel {
    pub(crate) config: SimConfig,
    lo: usize,
    /// Local processors, indexed by `proc - lo`.
    pub(crate) processes: Vec<SimProcess>,
    /// In-flight messages addressed to local processors.
    pub(crate) slab: MessageSlab,
    /// Deliverable messages (recipient not crashed), ascending by id.
    pub(crate) enabled_msgs: OrderedMsgSet,
    /// Step-enabled processors, indexed by **global** id (only local bits
    /// are ever set) so enabled-event views carry global `ProcId`s.
    pub(crate) enabled_steps: IndexedBitSet,
    /// Whether `enabled_msgs`/`enabled_steps` are maintained: always, except
    /// in pure naive mode, which keeps only `naive_index` so the recorded
    /// naive-vs-incremental speedup measures the historical cost profile
    /// without paying for both bookkeeping schemes. Validation mode needs the
    /// incremental indexes even when naive mode is on.
    pub(crate) incremental: bool,
    /// Mirror of the slab keyed by message id; maintained only in naive mode,
    /// where the per-event rebuild iterates it exactly like the historical
    /// `BTreeMap<MessageId, InFlightMessage>` scan.
    pub(crate) naive_index: Option<BTreeMap<MessageId, u32>>,
    /// Live (registered, not crashed, not returned) local participants.
    pub(crate) live: usize,
    /// Crashes this kernel applied on an adversary's decision, in order.
    pub(crate) crashes: Vec<ProcId>,
    /// How many crashes the adversary deciding for this kernel may spend.
    pub(crate) crash_budget: usize,
    /// Reusable buffer for the slots retired at a crash, so a crash does not
    /// allocate on the hot path.
    scratch_slots: Vec<u32>,
    /// Metrics and trace of the local events; the sequential engine also
    /// keeps its outcomes and intervals here.
    pub(crate) report: ExecutionReport,
    /// The adversary-visible observation over all `n` processors, refreshed
    /// entry by entry as local processors change state (remote processors
    /// stay [`ProcessPhase::Idle`]). `None` when no adversary watches.
    pub(crate) observation: Option<SystemObservation>,
    /// Pool-recycle count of the arena the buffers came from.
    pub(crate) arena_reuses: u64,
    /// Whether the buffers return to the arena pool on drop.
    pub(crate) pooled: bool,
}

impl Kernel {
    /// A kernel for the processors in `range`, built on `arena`'s buffers.
    /// With `observe`, it maintains an adversary observation from the start.
    pub(crate) fn new(
        config: &SimConfig,
        range: Range<usize>,
        arena: SimArena,
        observe: bool,
    ) -> Self {
        let SimArena {
            mut slab,
            mut enabled_msgs,
            mut enabled_steps,
            mut processes,
            mut crashes,
            mut scratch_slots,
            observations,
            reuses,
        } = arena;
        slab.clear();
        enabled_msgs.clear();
        enabled_steps.reset(config.n);
        crashes.clear();
        scratch_slots.clear();
        let lo = range.start;
        for (offset, process) in processes.iter_mut().enumerate().take(range.len()) {
            process.recycle(ProcId(lo + offset));
        }
        processes.truncate(range.len());
        while processes.len() < range.len() {
            processes.push(SimProcess::replica_only(ProcId(lo + processes.len())));
        }
        let trace = Trace::new(config.record_trace);
        let mut kernel = Kernel {
            incremental: !config.naive_event_set || config.validate_event_set,
            naive_index: config.naive_event_set.then(BTreeMap::new),
            crash_budget: config.crash_budget,
            config: config.clone(),
            lo,
            processes,
            slab,
            enabled_msgs,
            enabled_steps,
            live: 0,
            crashes,
            scratch_slots,
            report: ExecutionReport {
                trace,
                ..ExecutionReport::default()
            },
            observation: None,
            arena_reuses: reuses,
            pooled: false,
        };
        if observe {
            kernel.observe(observations);
        }
        kernel
    }

    /// Start maintaining an adversary observation, built in `entries`.
    pub(crate) fn observe(&mut self, mut entries: Vec<ProcessObservation>) {
        entries.clear();
        entries.extend((0..self.config.n).map(|i| ProcessObservation {
            proc: ProcId(i),
            phase: ProcessPhase::Idle,
            local_state: None,
        }));
        self.observation = Some(SystemObservation {
            n: self.config.n,
            events_executed: 0,
            crash_budget_left: self.crash_budget,
            processes: entries,
        });
        // A processor that never participated nor crashed is already
        // observed correctly as idle.
        for index in self.lo..self.lo + self.processes.len() {
            let process = &self.processes[index - self.lo];
            if process.participates() || process.crashed {
                self.sync(ProcId(index));
            }
        }
    }

    /// Empty every buffer (keeping its capacity) and hand them back. An arena
    /// parked in the pool must hold only capacity, not the last trial's
    /// protocol boxes, replica contents and undelivered payloads.
    pub(crate) fn park(&mut self) -> SimArena {
        let mut arena = SimArena {
            slab: std::mem::take(&mut self.slab),
            enabled_msgs: std::mem::take(&mut self.enabled_msgs),
            enabled_steps: std::mem::take(&mut self.enabled_steps),
            processes: std::mem::take(&mut self.processes),
            crashes: std::mem::take(&mut self.crashes),
            scratch_slots: std::mem::take(&mut self.scratch_slots),
            observations: self
                .observation
                .take()
                .map(|observation| observation.processes)
                .unwrap_or_default(),
            reuses: self.arena_reuses,
        };
        arena.slab.clear();
        arena.enabled_msgs.clear();
        arena.crashes.clear();
        arena.scratch_slots.clear();
        arena.observations.clear();
        for process in &mut arena.processes {
            process.recycle(process.id);
        }
        arena
    }

    pub(crate) fn owns(&self, proc: ProcId) -> bool {
        (self.lo..self.lo + self.processes.len()).contains(&proc.index())
    }

    pub(crate) fn process(&self, proc: ProcId) -> &SimProcess {
        &self.processes[proc.index() - self.lo]
    }

    fn process_mut(&mut self, proc: ProcId) -> &mut SimProcess {
        &mut self.processes[proc.index() - self.lo]
    }

    /// The local participants that have neither returned nor crashed.
    pub(crate) fn live_participants(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.processes
            .iter()
            .filter(|p| p.is_live_participant())
            .map(|p| p.id)
    }

    /// Register `proc` as a participant running `protocol`.
    pub(crate) fn try_add_participant(
        &mut self,
        proc: ProcId,
        protocol: Box<dyn Protocol>,
    ) -> Result<(), SimError> {
        if !self.owns(proc) {
            return Err(SimError::InvalidParticipant {
                proc,
                reason: format!("system only has {} processors", self.config.n),
            });
        }
        if self.process(proc).participates() {
            return Err(SimError::InvalidParticipant {
                proc,
                reason: "already registered".to_string(),
            });
        }
        let seed = self.config.seed;
        self.process_mut(proc).participate(protocol, seed);
        self.live += 1;
        self.sync(proc);
        Ok(())
    }

    /// Re-sync `proc`'s step-enabled bit and observation entry after its
    /// state changed.
    pub(crate) fn sync(&mut self, proc: ProcId) {
        let process = &self.processes[proc.index() - self.lo];
        if self.incremental {
            self.enabled_steps.set(proc.index(), process.step_enabled());
        }
        if let Some(observation) = self.observation.as_mut() {
            observation.processes[proc.index()] = observation_of(process);
        }
    }

    /// Update the observation's scalar header. The per-processor entries are
    /// kept current by [`Kernel::sync`], so each event costs O(1)
    /// observation upkeep.
    pub(crate) fn refresh_header(&mut self, events_executed: u64) {
        if let Some(observation) = self.observation.as_mut() {
            observation.events_executed = events_executed;
            observation.crash_budget_left = self.crash_budget.saturating_sub(self.crashes.len());
        }
    }

    /// Number of enabled events.
    pub(crate) fn enabled_len(&self) -> usize {
        self.enabled_steps.len() + self.enabled_msgs.len()
    }

    /// The enabled events, served from the incremental indexes.
    pub(crate) fn enabled(&self) -> EnabledEvents<'_> {
        EnabledEvents::live(&self.enabled_steps, &self.enabled_msgs, &self.slab)
    }

    /// Resolve an index into [`Kernel::enabled`]: steps (ascending processor
    /// id) first, then deliveries (ascending message id) with their slot.
    pub(crate) fn resolve(&self, index: usize) -> Option<(EnabledEvent, Option<u32>)> {
        if index < self.enabled_steps.len() {
            let proc = ProcId(self.enabled_steps.select(index)?);
            return Some((EnabledEvent::Step(proc), None));
        }
        let (_, slot) = self.enabled_msgs.select(index - self.enabled_steps.len())?;
        let message = self
            .slab
            .get(slot)
            .expect("enabled message indexes a live slab slot");
        Some((message.to_event(), Some(slot)))
    }

    /// Apply an adversary's crash decision: `victim` must be local, not yet
    /// crashed, and the budget must not be spent.
    pub(crate) fn crash(&mut self, victim: ProcId) -> Result<(), SimError> {
        if self.crashes.len() >= self.crash_budget {
            return Err(SimError::CrashBudgetExceeded {
                victim,
                budget: self.crash_budget,
            });
        }
        if !self.owns(victim) {
            let reason = if victim.index() >= self.config.n {
                format!("cannot crash non-existent processor {victim}")
            } else {
                format!("cannot crash {victim}: it belongs to another partition")
            };
            return Err(SimError::InvalidDecision { reason });
        }
        if self.process(victim).crashed {
            return Err(SimError::InvalidDecision {
                reason: format!("{victim} is already crashed"),
            });
        }
        self.crashes.push(victim);
        self.report.trace.push(TraceEvent::Crash { proc: victim });
        self.retire(victim);
        Ok(())
    }

    /// Mark `victim` crashed. Deliveries to it can never unblock anyone now,
    /// so they leave the enabled set; the messages stay in flight, matching
    /// the historical semantics of filtering them out of every rebuild.
    pub(crate) fn retire(&mut self, victim: ProcId) {
        if self.process(victim).is_live_participant() {
            self.live -= 1;
        }
        self.process_mut(victim).crashed = true;
        if self.incremental {
            let mut doomed = std::mem::take(&mut self.scratch_slots);
            doomed.clear();
            doomed.extend(
                self.enabled_msgs
                    .iter()
                    .filter(|&(_, slot)| {
                        self.slab
                            .get(slot)
                            .expect("enabled message indexes a live slab slot")
                            .to
                            == victim
                    })
                    .map(|(_, slot)| slot),
            );
            for &slot in &doomed {
                self.enabled_msgs.remove_slot(slot);
            }
            self.scratch_slots = doomed;
        }
        self.sync(victim);
    }

    /// Take a message addressed to a local processor into the slab and the
    /// indexes; a reply is filed under the call it answers. Returns the slot.
    pub(crate) fn admit(&mut self, message: InFlightMessage) -> u32 {
        let (id, to) = (message.id, message.to);
        let is_reply = message.is_reply();
        let slot = self.slab.insert(message);
        if is_reply {
            self.file(to, slot);
        }
        if self.incremental && !self.process(to).crashed {
            self.enabled_msgs.insert(id, slot);
        }
        if let Some(index) = self.naive_index.as_mut() {
            index.insert(id, slot);
        }
        slot
    }

    /// File `slot` under `caller`'s current communicate call, for
    /// [`Kernel::purge_completed_call`].
    pub(crate) fn file(&mut self, caller: ProcId, slot: u32) {
        self.process_mut(caller).call_msgs.push(slot);
    }

    /// Remove a message from the slab and every index that may reference it.
    fn remove(&mut self, slot: u32) -> Option<InFlightMessage> {
        let message = self.slab.remove(slot)?;
        if self.incremental {
            self.enabled_msgs.remove_slot(slot);
        }
        if let Some(index) = self.naive_index.as_mut() {
            index.remove(&message.id);
        }
        Some(message)
    }

    /// Execute a computation step of `proc` at local event number `clock`:
    /// feed its ready response to the protocol and apply the action.
    pub(crate) fn execute_step<O: Outbox>(&mut self, proc: ProcId, clock: u64, out: &mut O) {
        self.report.trace.push(TraceEvent::Step { proc });
        if self.process(proc).started_at.is_none() {
            self.process_mut(proc).started_at = Some(clock);
            out.mark(self, proc, clock, None);
        }
        let process = self.process_mut(proc);
        let response = match std::mem::replace(&mut process.pending, PendingWork::NotStarted) {
            PendingWork::NotStarted => Response::Start,
            PendingWork::LocalResponse(r) | PendingWork::ResponseReady(r) => r,
            other => {
                // step_enabled() guarantees this cannot happen; restore and bail.
                process.pending = other;
                return;
            }
        };
        let action = process
            .protocol
            .as_mut()
            .expect("only participants take steps")
            .step(response);
        self.apply_action(proc, action, clock, out);
        self.sync(proc);
    }

    fn apply_action<O: Outbox>(&mut self, proc: ProcId, action: Action, clock: u64, out: &mut O) {
        let naive = self.config.naive_payloads;
        match action {
            Action::Propagate { entries } => {
                let process = self.process_mut(proc);
                let seq = process.fresh_seq();
                process.replica.apply_all(&entries);
                process.call_msgs.clear();
                process.pending = PendingWork::AwaitingAcks {
                    seq,
                    acked: 1,
                    seen: answered_by(proc),
                };
                self.report.metrics.proc_mut(proc).communicate_calls += 1;
                // One shared payload for the whole broadcast: every send is a
                // refcount bump. The naive baseline clones the entry list per
                // target instead (the historical cost profile).
                let shared: Arc<[(Key, Value)]> = entries.into();
                self.broadcast(proc, out, |_, _| WireMessage::Propagate {
                    seq,
                    entries: if naive {
                        Arc::from(&*shared)
                    } else {
                        shared.clone()
                    },
                });
            }
            Action::Collect { instance } => {
                let n = self.config.n;
                let process = self.process_mut(proc);
                let seq = process.fresh_seq();
                let own_view = if naive {
                    Arc::new(process.replica.view_of(instance))
                } else {
                    process.collect_cache.prepare(instance, n);
                    process.replica.view_arc(instance)
                };
                process.call_msgs.clear();
                process.pending = PendingWork::AwaitingViews {
                    seq,
                    views: vec![(proc, own_view)],
                    seen: answered_by(proc),
                };
                self.report.metrics.proc_mut(proc).communicate_calls += 1;
                // Tell each responder which of its versions we already hold,
                // so it can reply with a delta.
                self.broadcast(proc, out, |kernel, target| WireMessage::Collect {
                    seq,
                    instance,
                    known: if naive {
                        0
                    } else {
                        kernel.process(proc).collect_cache.known(target)
                    },
                });
            }
            Action::Flip { prob_one } => {
                let value = self.process_mut(proc).coins.flip(prob_one);
                self.report.metrics.proc_mut(proc).coin_flips += 1;
                self.report.trace.push(TraceEvent::Coin { proc, value });
                self.process_mut(proc).pending = PendingWork::LocalResponse(Response::Coin(value));
            }
            Action::Choose { choices } => {
                self.report.metrics.proc_mut(proc).coin_flips += 1;
                let process = self.process_mut(proc);
                let chosen = process.coins.choose(&choices);
                process.pending = PendingWork::LocalResponse(Response::Chosen(chosen));
            }
            Action::Return(outcome) => {
                let process = self.process_mut(proc);
                process.pending = PendingWork::Finished(outcome);
                process.finished_at = Some(clock);
                self.live -= 1;
                out.mark(self, proc, clock, Some(outcome));
                self.report.trace.push(TraceEvent::Return { proc, outcome });
            }
        }
    }

    /// Send `payload(kernel, target)` from `proc` to every other processor,
    /// then complete the call at once if the caller alone is a quorum.
    fn broadcast<O: Outbox>(
        &mut self,
        proc: ProcId,
        out: &mut O,
        mut payload: impl FnMut(&Kernel, ProcId) -> WireMessage,
    ) {
        let targets = (0..self.config.n).map(ProcId).filter(|&t| t != proc);
        for (sub, target) in (0u32..).zip(targets) {
            let message = payload(self, target);
            self.send(RouteKey::broadcast(proc, sub), proc, target, message, out);
        }
        self.complete_degenerate_quorum(proc);
    }

    fn send<O: Outbox>(
        &mut self,
        key: RouteKey,
        from: ProcId,
        to: ProcId,
        payload: WireMessage,
        out: &mut O,
    ) {
        self.report.metrics.proc_mut(from).messages_sent += 1;
        out.send(self, key, from, to, payload);
    }

    /// In degenerate systems (n = 1, or a quorum of 1) the caller's own
    /// acknowledgement already forms a quorum; promote the pending state.
    fn complete_degenerate_quorum(&mut self, proc: ProcId) {
        let quorum = self.config.quorum();
        let process = self.process_mut(proc);
        let completed_seq = match &mut process.pending {
            PendingWork::AwaitingAcks { seq, acked, .. } if *acked >= quorum => {
                let seq = *seq;
                process.pending = PendingWork::ResponseReady(Response::AckQuorum);
                Some(seq)
            }
            PendingWork::AwaitingViews { seq, views, .. } if views.len() >= quorum => {
                let seq = *seq;
                let collected = std::mem::take(views);
                process.pending = PendingWork::ResponseReady(Response::Views(
                    CollectedViews::from_shared(collected),
                ));
                Some(seq)
            }
            _ => None,
        };
        if let Some(seq) = completed_seq {
            self.purge_completed_call(proc, seq);
        }
    }

    /// Drop the in-flight messages of a communicate call that has already
    /// reached its quorum: the leftover requests and replies can never affect
    /// the caller again, and keeping them around only slows the adversary
    /// down. Semantically this is the adversary delaying them forever, which
    /// the asynchronous model allows.
    ///
    /// The caller's `call_msgs` list records exactly the local slots its
    /// current call touched (its outgoing requests plus the replies addressed
    /// back to it), so this costs O(call size) — not a scan of every in-flight
    /// message. A listed slot may have been delivered and re-used by an
    /// unrelated message in the meantime; the sequence-number-and-direction
    /// check below rejects those, because sequence numbers are scoped to
    /// their caller.
    fn purge_completed_call(&mut self, caller: ProcId, seq: u64) {
        let candidates = std::mem::take(&mut self.process_mut(caller).call_msgs);
        for slot in candidates {
            let Some(message) = self.slab.get(slot) else {
                continue;
            };
            let belongs_to_call = message.payload.seq() == seq
                && ((message.from == caller && message.is_request())
                    || (message.to == caller && message.is_reply()));
            if belongs_to_call {
                self.remove(slot);
            }
        }
    }

    /// After a reply was recorded, purge the call's leftover traffic if the
    /// quorum has just been reached.
    fn purge_if_completed(&mut self, caller: ProcId) {
        let process = self.process(caller);
        if matches!(process.pending, PendingWork::ResponseReady(_)) {
            // The completed call's sequence number is the caller's latest.
            let seq = process.next_seq;
            self.purge_completed_call(caller, seq);
        }
    }

    /// Whether a request of `caller`'s call `seq` still needs an answer.
    /// Replying to a call the caller has already completed can never matter,
    /// so the reply is skipped (equivalently: delayed forever). A remote
    /// caller (partitioned engine) always has the call outstanding: requests
    /// are delivered one super-round after they were sent, and the quorum
    /// needs the replies of the round after that.
    fn call_outstanding(&self, caller: ProcId, seq: u64) -> bool {
        if !self.owns(caller) {
            return true;
        }
        match &self.process(caller).pending {
            PendingWork::AwaitingAcks { seq: s, .. }
            | PendingWork::AwaitingViews { seq: s, .. } => *s == seq,
            _ => false,
        }
    }

    /// Deliver the message in `slot`.
    pub(crate) fn execute_delivery<O: Outbox>(&mut self, slot: u32, out: &mut O) {
        let Some(message) = self.remove(slot) else {
            return;
        };
        let (id, from, to) = (message.id, message.from, message.to);
        out.trace_delivery(self, TraceEvent::Deliver { id, from, to });
        self.report.metrics.proc_mut(to).messages_received += 1;
        if self.process(to).crashed {
            // Messages are delivered to faulty processors but produce no
            // replies and no protocol progress.
            return;
        }
        let quorum = self.config.quorum();
        let naive = self.config.naive_payloads;
        let reply = RouteKey::reply(id.0);
        match message.payload {
            WireMessage::Propagate { seq, entries } => {
                self.process_mut(to).replica.apply_all(&entries);
                if self.call_outstanding(from, seq) {
                    self.send(reply, to, from, WireMessage::Ack { seq }, out);
                }
            }
            WireMessage::Collect {
                seq,
                instance,
                known,
            } => {
                if self.call_outstanding(from, seq) {
                    // Shared path: a copy-on-write snapshot when the
                    // requester holds nothing, otherwise only the entries
                    // written since the version it reported. Naive path:
                    // the historical full deep clone per reply.
                    let replica = &self.process(to).replica;
                    let view = if naive {
                        ViewTransfer::Full(Arc::new(replica.view_of(instance)))
                    } else {
                        replica.transfer_since(instance, known)
                    };
                    self.send(
                        reply,
                        to,
                        from,
                        WireMessage::CollectReply { seq, view },
                        out,
                    );
                }
            }
            WireMessage::Ack { seq } => {
                self.process_mut(to).record_ack(from, seq, quorum);
                self.purge_if_completed(to);
            }
            WireMessage::CollectReply { seq, view } => {
                self.process_mut(to)
                    .record_view(from, seq, view, naive, quorum);
                self.purge_if_completed(to);
            }
        }
        self.sync(to);
    }
}

impl Drop for Kernel {
    fn drop(&mut self) {
        if self.pooled {
            SimArena::pool(self.park());
        }
    }
}
