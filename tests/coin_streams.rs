//! One coin stream everywhere: a processor's coins are a pure function of
//! `(seed, proc, k)` — [`fle_model::coin_word`] — on every substrate, under
//! every schedule.
//!
//! A coin-probe protocol flips biased coins and makes random choices, and
//! returns `Win` iff every draw it was handed equals the one predicted from
//! `coin_word(seed, proc, k)`. Each substrate runs the probe for several
//! seeds; any processor that returns `Lose` saw a coin from some other
//! stream.

use fast_leader_election::prelude::*;
use fle_model::{coin_bool, coin_word};
use fle_sim::{ParallelSimulator, RoundCrashPlan, SimMemory};
use std::collections::BTreeMap;
use std::sync::Arc;

const N: usize = 5;
const DRAWS: u64 = 16;
const SEEDS: [u64; 3] = [0, 7, 0x9e37];

/// Flips and chooses `DRAWS` times, checking each draw against the
/// predicted coin word.
struct CoinProbe {
    seed: u64,
    me: ProcId,
    /// Index of the next coin word this processor should receive.
    k: u64,
    /// The last action, to check its answer against.
    asked: Option<Action>,
    /// Whether the empty choice (answered 0, no coin word drawn) was asked.
    asked_empty: bool,
    faithful: bool,
}

impl CoinProbe {
    fn new(seed: u64, me: ProcId) -> Self {
        CoinProbe {
            seed,
            me,
            k: 0,
            asked: None,
            asked_empty: false,
            faithful: true,
        }
    }

    fn next_action(&mut self) -> Action {
        let k = self.k;
        if k == DRAWS / 2 && !self.asked_empty {
            self.asked_empty = true;
            Action::Choose {
                choices: Vec::new(),
            }
        } else if k.is_multiple_of(2) {
            Action::Flip {
                prob_one: [0.5, 0.25, 0.9][(k / 2 % 3) as usize],
            }
        } else {
            Action::Choose {
                choices: (0..2 + k % 5).map(|i| 100 * k + i).collect(),
            }
        }
    }
}

impl Protocol for CoinProbe {
    fn step(&mut self, response: Response) -> Action {
        match (self.asked.take(), response) {
            (None, Response::Start) => {}
            (Some(Action::Flip { prob_one }), Response::Coin(value)) => {
                let word = coin_word(self.seed, self.me, self.k);
                self.faithful &= value == coin_bool(word, prob_one);
                self.k += 1;
            }
            (Some(Action::Choose { choices }), Response::Chosen(chosen)) if choices.is_empty() => {
                self.faithful &= chosen == 0;
            }
            (Some(Action::Choose { choices }), Response::Chosen(chosen)) => {
                let word = coin_word(self.seed, self.me, self.k);
                self.faithful &= chosen == choices[(word % choices.len() as u64) as usize];
                self.k += 1;
            }
            (asked, response) => panic!("{asked:?} answered with {response:?}"),
        }
        if self.k == DRAWS {
            return Action::Return(if self.faithful {
                Outcome::Win
            } else {
                Outcome::Lose
            });
        }
        let action = self.next_action();
        self.asked = Some(action.clone());
        action
    }

    fn adversary_view(&self) -> LocalStateView {
        LocalStateView::new("coin-probe", "drawing").with_round(self.k)
    }
}

fn probes(seed: u64) -> Vec<(ProcId, Box<dyn Protocol + Send>)> {
    (0..N)
        .map(|i| {
            let probe: Box<dyn Protocol + Send> = Box::new(CoinProbe::new(seed, ProcId(i)));
            (ProcId(i), probe)
        })
        .collect()
}

fn assert_all_faithful(substrate: &str, seed: u64, outcomes: &BTreeMap<ProcId, Outcome>) {
    assert_eq!(
        outcomes.len(),
        N,
        "{substrate} seed={seed}: every probe returns"
    );
    for (proc, outcome) in outcomes {
        assert_eq!(
            *outcome,
            Outcome::Win,
            "{substrate} seed={seed}: {proc} drew a coin off its (seed, proc, k) stream"
        );
    }
}

#[test]
fn every_substrate_draws_coins_from_coin_word() {
    let executor = Executor::new(ExecutorConfig::new(2));
    for seed in SEEDS {
        let mut sim = Simulator::new(SimConfig::new(N).with_seed(seed));
        for (proc, probe) in probes(seed) {
            sim.add_participant(proc, probe);
        }
        let report = sim.run(&mut RandomAdversary::with_seed(seed)).unwrap();
        assert_all_faithful("Simulator", seed, &report.outcomes);

        let mut parallel =
            ParallelSimulator::new(SimConfig::new(N).with_seed(seed).with_partitions(2));
        for (proc, probe) in probes(seed) {
            parallel.add_participant(proc, probe);
        }
        let report = parallel.run_canonical(&RoundCrashPlan::none()).unwrap();
        assert_all_faithful("ParallelSimulator", seed, &report.outcomes);

        let outcomes = SimMemory::new(N, seed).run_all(probes(seed));
        assert_all_faithful("SimMemory", seed, &outcomes);

        let registers = Arc::new(SharedRegisters::new(2));
        let report = run_gated_fifo(&executor, &registers, 3, seed, probes(seed));
        assert_all_faithful("run_gated_fifo", seed, &report.progress.outcomes);

        let runtime = ThreadedRuntime::new(RuntimeConfig::new(N).with_seed(seed));
        let report = runtime.run(probes(seed)).unwrap();
        assert_all_faithful("ThreadedRuntime", seed, &report.outcomes);
    }
}

/// `count` draws from a handle: alternating fair flips and choices among
/// 1000 values.
fn draw(memory: &mut impl SharedMemory, count: usize) -> Vec<u64> {
    let choices: Vec<u64> = (0..1000).collect();
    (0..count)
        .map(|i| {
            if i.is_multiple_of(2) {
                u64::from(memory.flip(0.5))
            } else {
                memory.choose(&choices)
            }
        })
        .collect()
}

#[test]
fn nearby_seeds_do_not_share_a_coin_stream() {
    // Seeding a processor's stream with `seed + proc·0x9e37` made processor 1
    // under seed `s` replay processor 0 under seed `s + 0x9e37`.
    for seed in SEEDS {
        let shifted = seed + 0x9e37;
        let mut memory = SimMemory::new(2, seed);
        let mut shifted_memory = SimMemory::new(2, shifted);
        assert_ne!(
            draw(&mut memory.handle(ProcId(1)), 64),
            draw(&mut shifted_memory.handle(ProcId(0)), 64),
            "SimMemory seed={seed}"
        );

        let registers = Arc::new(SharedRegisters::new(1));
        assert_ne!(
            draw(&mut registers.handle(0, ProcId(1), seed), 64),
            draw(&mut registers.handle(0, ProcId(0), shifted), 64),
            "RegisterHandle seed={seed}"
        );
    }
}
