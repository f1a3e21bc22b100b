//! §7 "Low Contention": lock-free linked lists, skiplists, binary trees,
//! and lock-based hash tables with 20% updates / 80% searches on uniform
//! random keys. The paper finds identical throughput, with leases adding
//! ≤ 5% at ≥ 32 threads.

use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario, ScenarioKind};
use lr_ds::{Bst, HarrisList, HashTable, LockingSkipList};
use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};

const KEY_RANGE: u64 = 512;
const PREFILL: u64 = 128;

pub static SCENARIO: Scenario = Scenario {
    name: "tab_low_contention",
    title: "Low contention: list/skiplist/BST/hashtable, 20% updates, uniform keys",
    paper_ref: "§7",
    series: &[
        "harris-list-base",
        "hashtable-base",
        "bst-base",
        "harris-list-lease",
        "hashtable-lease",
        "bst-lease",
        "skiplist-set-base",
    ],
    default_ops: 40,
    ops_env: None,
    kind: ScenarioKind::Sim,
    run_cell,
    annotate: None,
    footer: None,
};

/// The set under test.
enum KeySet {
    List(HarrisList),
    Hash(HashTable),
    Bst(Bst),
    Skip(LockingSkipList),
}

impl KeySet {
    /// `dice` 0 inserts `k`, 1 removes it, anything else looks it up.
    async fn apply(&self, ctx: &mut ThreadCtx, dice: u8, k: u64) {
        match (self, dice) {
            (KeySet::List(l), 0) => l.insert(ctx, k).await,
            (KeySet::List(l), 1) => l.remove(ctx, k).await,
            (KeySet::List(l), _) => l.contains(ctx, k).await,
            (KeySet::Hash(h), 0) => h.insert(ctx, k).await,
            (KeySet::Hash(h), 1) => h.remove(ctx, k).await,
            (KeySet::Hash(h), _) => h.contains(ctx, k).await,
            (KeySet::Bst(b), 0) => b.insert(ctx, k).await,
            (KeySet::Bst(b), 1) => b.remove(ctx, k).await,
            (KeySet::Bst(b), _) => b.contains(ctx, k).await,
            (KeySet::Skip(sl), 0) => sl.insert(ctx, k, k).await,
            (KeySet::Skip(sl), 1) => sl.remove(ctx, k).await,
            (KeySet::Skip(sl), _) => sl.contains(ctx, k).await,
        };
    }
}

/// One op: 80% contains, 10% insert, 10% remove, uniform keys.
async fn mixed_op(ctx: &mut ThreadCtx, set: &KeySet) {
    let k: u64 = ctx.rng().gen_range(1..KEY_RANGE);
    let dice: u8 = ctx.rng().gen_range(0..10);
    set.apply(ctx, dice, k).await;
    ctx.count_op();
}

fn sweep<F>(ctx: &CellCtx, name: &str, build: F) -> BenchRow
where
    F: Fn(&mut Machine) -> KeySet,
{
    let (threads, ops) = (ctx.threads, ctx.ops);
    let cfg = SystemConfig::with_cores(threads.max(2));
    let mut m = ctx.prepare(Machine::new(cfg.clone()));
    let set = std::sync::Arc::new(build(&mut m));
    let stripe = PREFILL / threads as u64 + 1;
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|tid| {
            let set = set.clone();
            program(async move |ctx: &mut ThreadCtx| {
                // Pre-fill a disjoint key stripe (uncounted).
                for i in 0..stripe {
                    let k = (tid as u64 * stripe + i) % (KEY_RANGE - 1) + 1;
                    set.apply(ctx, 0, k).await;
                }
                for _ in 0..ops {
                    mixed_op(ctx, &set).await;
                }
            })
        })
        .collect();
    let stats = m.run(progs);
    BenchRow::from_stats(name, threads, &cfg, &stats)
}

fn run_cell(ctx: &CellCtx) -> CellOut {
    let series = ctx.series;
    let name = SCENARIO.series[series];
    let leased = (3..6).contains(&series);
    let row = match series {
        0 | 3 => sweep(ctx, name, |m| {
            KeySet::List(m.setup(|mem| HarrisList::init(mem, leased)))
        }),
        1 | 4 => sweep(ctx, name, |m| {
            KeySet::Hash(m.setup(|mem| HashTable::init(mem, 256, leased)))
        }),
        2 | 5 => sweep(ctx, name, |m| {
            KeySet::Bst(m.setup(|mem| Bst::init(mem, leased)))
        }),
        // Locking skiplist set (lease variant not applicable: its locks
        // are per-node and short; the paper's skiplist-set numbers are
        // base-only here).
        _ => sweep(ctx, name, |m| KeySet::Skip(m.setup(LockingSkipList::init))),
    };
    CellOut::row(row)
}
