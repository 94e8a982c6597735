//! Schedule points: the granularity at which an external controller may
//! interleave processors on a shared-memory backend.
//!
//! The discrete-event simulator gives the adversary total control over
//! interleavings because *it* owns the event loop. A shared-register backend
//! does not: its participants run on a worker pool. A *schedule gate* closes
//! that gap — every upcoming shared-memory operation is announced as a
//! [`SchedulePoint`] and held until an external controller grants it. A
//! controller that only ever grants one processor at a time serializes the
//! execution into an adversary-chosen interleaving of the *real* backend's
//! operations — same locks, same copy-on-write snapshots, same register bank
//! — while staying deterministic enough to record, replay and delta-debug
//! (see `fle_runtime::run_gated` and `fle_explore::concurrent`).
//!
//! # Determinism guarantee
//!
//! If (a) the controller's grant sequence is a deterministic function of the
//! observable gate states, and (b) each processor's local computation and
//! randomness are deterministic between gates (seeded RNGs), then the entire
//! execution — every register state, coin flip and outcome — is a
//! deterministic function of the grant sequence. This is what makes a
//! recorded decision trace on the shared-register backend replayable.

use std::fmt;

/// The kind of shared-memory operation a processor is about to perform — the
/// granularity at which an external controller may interleave processors.
///
/// One `SchedulePoint` is the gated backend's analogue of one schedulable
/// event in the simulator: everything a processor does *between* two points
/// is local computation the adversary cannot subdivide (matching the paper's
/// model, where a step is "a local computation followed by one shared-memory
/// operation"). [`crate::Op::point`] maps an operation to its point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulePoint {
    /// About to merge register writes into the shared memory.
    Propagate,
    /// About to read register views.
    Collect,
    /// About to flip a coin (visible to the strong adversary afterwards).
    Flip,
    /// About to pick among explicit choices.
    Choose,
    /// About to return from the protocol — gated so the adversary controls
    /// the order in which outcomes become visible (linearizability).
    Return,
}

impl fmt::Display for SchedulePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SchedulePoint::Propagate => "propagate",
            SchedulePoint::Collect => "collect",
            SchedulePoint::Flip => "flip",
            SchedulePoint::Choose => "choose",
            SchedulePoint::Return => "return",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Op;
    use crate::ids::InstanceId;

    #[test]
    fn schedule_points_map_operations_and_display() {
        assert_eq!(
            Op::Propagate {
                entries: Vec::new()
            }
            .point(),
            SchedulePoint::Propagate
        );
        assert_eq!(
            Op::Collect {
                instance: InstanceId::Contended
            }
            .point(),
            SchedulePoint::Collect
        );
        assert_eq!(Op::Flip { prob_one: 0.5 }.point(), SchedulePoint::Flip);
        assert_eq!(
            Op::Choose { choices: vec![1] }.point(),
            SchedulePoint::Choose
        );
        assert_eq!(SchedulePoint::Collect.to_string(), "collect");
        assert_eq!(SchedulePoint::Return.to_string(), "return");
    }
}
