//! Identifiers: processors, register instances, slots and election contexts,
//! plus the deterministic hash and per-processor coin streams derived from
//! them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The splitmix64 finalizer: mixes a key into a uniformly distributed value.
///
/// Used wherever the workspace needs a *deterministic* hash — coin streams,
/// shard routing in the shared register bank and the service front-end —
/// where the std hasher's documented freedom to change across releases would
/// silently reshuffle placements.
pub fn splitmix64(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `k`-th raw coin word of processor `proc` under seed `seed`:
/// `splitmix64(splitmix64(seed ^ splitmix64(p + 1)) ^ k)`.
///
/// The paper's processors draw randomness only from their own local coins,
/// so a coin is a property of `(seed, proc, k)` alone — never of the
/// schedule, the engine, the partition count or what other processors do.
/// Every substrate (simulator, partitioned simulator, `SimMemory`, shared
/// registers, threaded nodes) flips through [`CoinStream`], so the same
/// seed yields the same flips everywhere.
pub fn coin_word(seed: u64, proc: ProcId, k: u64) -> u64 {
    let stream = splitmix64(seed ^ splitmix64(proc.index() as u64 + 1));
    splitmix64(stream ^ k)
}

/// Turn a raw coin word into a biased boolean: the top 53 bits as a uniform
/// float in `[0, 1)`, compared against `prob_one` (clamped to `[0, 1]`).
pub fn coin_bool(word: u64, prob_one: f64) -> bool {
    let unit = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    unit < prob_one.clamp(0.0, 1.0)
}

/// One processor's local coin: the successive words
/// [`coin_word`]`(seed, proc, 0)`, `(…, 1)`, … in draw order.
///
/// A flip is [`coin_bool`] of the next word; a choice picks
/// `choices[word % len]` (an empty choice list yields 0 without drawing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoinStream {
    seed: u64,
    proc: ProcId,
    drawn: u64,
}

impl CoinStream {
    /// The stream of processor `proc` under seed `seed`, before its first
    /// draw.
    pub fn new(seed: u64, proc: ProcId) -> Self {
        CoinStream {
            seed,
            proc,
            drawn: 0,
        }
    }

    fn next_word(&mut self) -> u64 {
        let word = coin_word(self.seed, self.proc, self.drawn);
        self.drawn += 1;
        word
    }

    /// Flip a coin that shows `true` with probability `prob_one`.
    pub fn flip(&mut self, prob_one: f64) -> bool {
        coin_bool(self.next_word(), prob_one)
    }

    /// Pick one of `choices` uniformly (0 for an empty list).
    pub fn choose(&mut self, choices: &[u64]) -> u64 {
        if choices.is_empty() {
            0
        } else {
            choices[(self.next_word() % choices.len() as u64) as usize]
        }
    }
}

/// Identifier of a processor in the system.
///
/// Processors are numbered `0..n`. The identifier is used both as the address
/// of a node on the network and as the *slot* a processor owns inside
/// single-writer register arrays such as `Status[i]` or `Round[i]`.
///
/// # Example
/// ```
/// use fle_model::ProcId;
/// let p = ProcId(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(format!("{p}"), "p3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId(pub usize);

impl ProcId {
    /// The zero-based index of the processor.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcId {
    fn from(value: usize) -> Self {
        ProcId(value)
    }
}

/// The election context a register instance belongs to.
///
/// A standalone leader election uses [`ElectionContext::Standalone`]. The
/// renaming algorithm of the paper (Section 4) runs one independent leader
/// election *per name*; those use [`ElectionContext::ForName`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ElectionContext {
    /// A single top-level leader election.
    Standalone,
    /// The leader election guarding name `name` in the renaming algorithm.
    ForName(usize),
    /// An election scoped to an arbitrary sub-object, e.g. one node of the
    /// tournament-tree baseline.
    Scoped(u32),
}

impl ElectionContext {
    /// A compact integer encoding used when building [`InstanceId`]s.
    pub fn code(self) -> u32 {
        match self {
            ElectionContext::Standalone => 0,
            ElectionContext::ForName(name) => 1 + 2 * name as u32,
            ElectionContext::Scoped(id) => 2 + 2 * id,
        }
    }

    /// Inverse of [`ElectionContext::code`].
    pub fn from_code(code: u32) -> Self {
        if code == 0 {
            ElectionContext::Standalone
        } else if code % 2 == 1 {
            ElectionContext::ForName(((code - 1) / 2) as usize)
        } else {
            ElectionContext::Scoped((code - 2) / 2)
        }
    }
}

impl fmt::Display for ElectionContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElectionContext::Standalone => write!(f, "standalone"),
            ElectionContext::ForName(name) => write!(f, "name{name}"),
            ElectionContext::Scoped(id) => write!(f, "scope{id}"),
        }
    }
}

/// Identifier of a replicated register array (an "instance").
///
/// Every processor in the system keeps a local view of every instance and
/// answers `propagate`/`collect` requests for it, exactly as in the
/// `communicate` primitive of ABND95 used throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum InstanceId {
    /// The `Status[n]` array of a (heterogeneous) PoisonPill phase.
    ///
    /// `ctx` identifies the surrounding election, `round` the sifting round.
    Status {
        /// Encoded [`ElectionContext`].
        ctx: u32,
        /// Sifting round number (1-based in the full algorithm).
        round: u32,
    },
    /// The `Round[n]` array used by the `PreRound` procedure (Figure 4).
    Round {
        /// Encoded [`ElectionContext`].
        ctx: u32,
    },
    /// The doorway bit of Figure 5 (a sticky multi-writer boolean).
    Door {
        /// Encoded [`ElectionContext`].
        ctx: u32,
    },
    /// The `Contended[n]` array of the renaming algorithm (Figure 3).
    Contended,
    /// Registers used by the tournament-tree baseline.
    ///
    /// `node` identifies the tournament-tree node, `reg` the register within
    /// the two-processor consensus object at that node.
    Tournament {
        /// Encoded [`ElectionContext`].
        ctx: u32,
        /// Tournament-tree node index (heap order, root = 1).
        node: u32,
        /// Register index within the node.
        reg: u8,
    },
    /// An escape hatch for tests and ad-hoc protocols.
    Custom {
        /// Namespace chosen by the caller.
        ns: u32,
        /// Identifier within the namespace.
        id: u64,
    },
}

impl InstanceId {
    /// Status array of round `round` for election `ctx`.
    pub fn status(ctx: ElectionContext, round: u32) -> Self {
        InstanceId::Status {
            ctx: ctx.code(),
            round,
        }
    }

    /// Round-number array for election `ctx`.
    pub fn round(ctx: ElectionContext) -> Self {
        InstanceId::Round { ctx: ctx.code() }
    }

    /// Doorway flag for election `ctx`.
    pub fn door(ctx: ElectionContext) -> Self {
        InstanceId::Door { ctx: ctx.code() }
    }

    /// Register `reg` of tournament node `node` for election `ctx`.
    pub fn tournament(ctx: ElectionContext, node: u32, reg: u8) -> Self {
        InstanceId::Tournament {
            ctx: ctx.code(),
            node,
            reg,
        }
    }

    /// A custom instance (tests, ad-hoc protocols).
    pub fn custom(ns: u32, id: u64) -> Self {
        InstanceId::Custom { ns, id }
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceId::Status { ctx, round } => write!(f, "status[ctx={ctx},r={round}]"),
            InstanceId::Round { ctx } => write!(f, "round[ctx={ctx}]"),
            InstanceId::Door { ctx } => write!(f, "door[ctx={ctx}]"),
            InstanceId::Contended => write!(f, "contended"),
            InstanceId::Tournament { ctx, node, reg } => {
                write!(f, "tournament[ctx={ctx},node={node},reg={reg}]")
            }
            InstanceId::Custom { ns, id } => write!(f, "custom[{ns}:{id}]"),
        }
    }
}

/// The slot of a register within an instance.
///
/// Single-writer arrays such as `Status[n]` use [`Slot::Proc`]; the renaming
/// algorithm's `Contended[n]` array is indexed by name ([`Slot::Name`]);
/// multi-writer scalars such as the doorway bit use [`Slot::Global`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Slot {
    /// The slot owned by a processor.
    Proc(ProcId),
    /// The slot associated with a name (renaming).
    Name(usize),
    /// A single shared slot.
    Global,
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Proc(p) => write!(f, "{p}"),
            Slot::Name(u) => write!(f, "name{u}"),
            Slot::Global => write!(f, "global"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_id_roundtrip_and_display() {
        let p: ProcId = 7usize.into();
        assert_eq!(p.index(), 7);
        assert_eq!(p.to_string(), "p7");
    }

    #[test]
    fn election_context_code_roundtrip() {
        for ctx in [
            ElectionContext::Standalone,
            ElectionContext::ForName(0),
            ElectionContext::ForName(17),
            ElectionContext::Scoped(0),
            ElectionContext::Scoped(31),
        ] {
            assert_eq!(ElectionContext::from_code(ctx.code()), ctx);
        }
        // Codes never collide across variants.
        let codes: std::collections::BTreeSet<u32> = [
            ElectionContext::Standalone,
            ElectionContext::ForName(0),
            ElectionContext::ForName(1),
            ElectionContext::Scoped(0),
            ElectionContext::Scoped(1),
        ]
        .into_iter()
        .map(ElectionContext::code)
        .collect();
        assert_eq!(codes.len(), 5);
    }

    #[test]
    fn instance_ids_are_distinct() {
        let a = InstanceId::status(ElectionContext::Standalone, 1);
        let b = InstanceId::status(ElectionContext::Standalone, 2);
        let c = InstanceId::status(ElectionContext::ForName(0), 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn instance_display_is_informative() {
        let id = InstanceId::tournament(ElectionContext::Standalone, 3, 1);
        assert!(id.to_string().contains("tournament"));
        assert!(id.to_string().contains("node=3"));
    }

    #[test]
    fn slots_order_consistently() {
        let mut slots = [Slot::Global, Slot::Proc(ProcId(1)), Slot::Name(0)];
        slots.sort();
        // Ordering is only required to be total and stable.
        assert_eq!(slots.len(), 3);
    }
}
