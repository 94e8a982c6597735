//! Wrappers that time calls into the workspace's trait objects.
//!
//! Each wrapper delegates every method unchanged, so a wrapped run executes
//! the same schedule and draws the same coins as an unwrapped one; the
//! benchmark checks this by comparing the simulated counts of traced and
//! untraced runs of the same seeds.

use crate::trace;
use fle_core::{LeaderElection, Renaming};
use fle_model::{
    Action, CollectedViews, InstanceId, Key, LocalStateView, Protocol, Response, SharedMemory,
    Value,
};
use fle_sim::{Adversary, Decision, EnabledEvents, SystemObservation};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Times [`Adversary::decide`] as `sim.adversary.decide`.
pub struct TimedAdversary<A> {
    inner: A,
    key: u64,
}

impl<A> TimedAdversary<A> {
    pub fn new(inner: A, key: u64) -> Self {
        TimedAdversary { inner, key }
    }
}

impl<A: Adversary> Adversary for TimedAdversary<A> {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        let _span = trace::fine("sim.adversary.decide", self.key);
        self.inner.decide(observation, enabled)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// How many per-name elections a finished participant entered.
pub trait Elections {
    fn elections(&self) -> u64;
}

impl Elections for LeaderElection {
    fn elections(&self) -> u64 {
        1
    }
}

impl Elections for Renaming {
    fn elections(&self) -> u64 {
        u64::from(self.elections_entered())
    }
}

/// What the [`TimedProtocol`]s of one phase did, merged as each returns.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepTally {
    pub participants: u64,
    /// Gaps between one participant's consecutive steps: the time its
    /// shared-memory operation took plus the time it waited to be polled.
    pub gaps: u64,
    pub gap_ns: u64,
    pub elections: u64,
}

/// Times [`Protocol::step`] as `core.step` and the gaps between a
/// participant's consecutive steps.
pub struct TimedProtocol<P> {
    inner: P,
    key: u64,
    last_step_end: Option<Instant>,
    gaps: u64,
    gap_ns: u64,
    tally: Arc<Mutex<StepTally>>,
}

impl<P> TimedProtocol<P> {
    pub fn new(inner: P, key: u64, tally: Arc<Mutex<StepTally>>) -> Self {
        TimedProtocol {
            inner,
            key,
            last_step_end: None,
            gaps: 0,
            gap_ns: 0,
            tally,
        }
    }
}

impl<P: Protocol + Elections> Protocol for TimedProtocol<P> {
    fn step(&mut self, response: Response) -> Action {
        if let Some(last) = self.last_step_end {
            self.gaps += 1;
            self.gap_ns += last.elapsed().as_nanos() as u64;
        }
        let action = {
            let _span = trace::fine("core.step", self.key);
            self.inner.step(response)
        };
        if action.is_return() {
            let mut tally = self
                .tally
                .lock()
                .expect("no step panics while holding the tally");
            tally.participants += 1;
            tally.gaps += self.gaps;
            tally.gap_ns += self.gap_ns;
            tally.elections += self.inner.elections();
        }
        self.last_step_end = Some(Instant::now());
        action
    }

    fn adversary_view(&self) -> LocalStateView {
        self.inner.adversary_view()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Times each [`SharedMemory`] operation as `runtime.shm.<op>` and counts
/// the register entries collects return.
pub struct TimedMemory<M> {
    inner: M,
    key: u64,
    pub collect_entries: u64,
}

impl<M> TimedMemory<M> {
    pub fn new(inner: M, key: u64) -> Self {
        TimedMemory {
            inner,
            key,
            collect_entries: 0,
        }
    }

    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: SharedMemory> SharedMemory for TimedMemory<M> {
    fn propagate(&mut self, entries: Vec<(Key, Value)>) {
        let _span = trace::fine("runtime.shm.propagate", self.key);
        self.inner.propagate(entries);
    }

    fn collect(&mut self, instance: InstanceId) -> CollectedViews {
        let views = {
            let _span = trace::fine("runtime.shm.collect", self.key);
            self.inner.collect(instance)
        };
        self.collect_entries += views
            .responses()
            .iter()
            .map(|(_, view)| view.len() as u64)
            .sum::<u64>();
        views
    }

    fn flip(&mut self, prob_one: f64) -> bool {
        let _span = trace::fine("runtime.shm.flip", self.key);
        self.inner.flip(prob_one)
    }

    fn choose(&mut self, choices: &[u64]) -> u64 {
        let _span = trace::fine("runtime.shm.choose", self.key);
        self.inner.choose(choices)
    }
}
