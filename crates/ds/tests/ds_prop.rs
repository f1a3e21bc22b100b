//! Randomized tests for the data structures: model-based single-thread
//! checks and multiset-preservation under randomized concurrent
//! schedules, driven by the in-tree [`SplitMix64`] generator.

use lr_ds::*;
use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_sim_core::SplitMix64;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::{Arc, Mutex};

fn cfg(cores: usize) -> SystemConfig {
    SystemConfig::with_cores(cores)
}

#[derive(Debug, Clone, Copy)]
enum SetOp {
    Insert(u16),
    Remove(u16),
    Contains(u16),
}

fn random_set_op(rng: &mut SplitMix64) -> SetOp {
    let k = rng.gen_range(1u16..200);
    match rng.gen_range(0u8..3) {
        0 => SetOp::Insert(k),
        1 => SetOp::Remove(k),
        _ => SetOp::Contains(k),
    }
}

fn random_set_ops(rng: &mut SplitMix64, max: usize) -> Vec<SetOp> {
    let n = rng.gen_range(1usize..max);
    (0..n).map(|_| random_set_op(rng)).collect()
}

/// Harris list behaves exactly like BTreeSet for a single thread.
#[test]
fn harris_list_matches_btreeset() {
    for case in 0..16u64 {
        let mut rng = SplitMix64::new(0xd5_0000 + case);
        let ops = random_set_ops(&mut rng, 80);

        let mut m = Machine::new(cfg(1));
        let l = m.setup(|mem| HarrisList::init(mem, false));
        let results: Arc<Mutex<Vec<bool>>> = Arc::new(Mutex::new(Vec::new()));
        let r2 = results.clone();
        let ops2 = ops.clone();
        m.run(vec![program(async move |ctx: &mut ThreadCtx| {
            let mut out = Vec::new();
            for op in &ops2 {
                out.push(match *op {
                    SetOp::Insert(k) => l.insert(ctx, k as u64).await,
                    SetOp::Remove(k) => l.remove(ctx, k as u64).await,
                    SetOp::Contains(k) => l.contains(ctx, k as u64).await,
                });
            }
            r2.lock().unwrap().extend(out);
        })]);

        let mut model = BTreeSet::new();
        let expected: Vec<bool> = ops
            .iter()
            .map(|op| match *op {
                SetOp::Insert(k) => model.insert(k),
                SetOp::Remove(k) => model.remove(&k),
                SetOp::Contains(k) => model.contains(&k),
            })
            .collect();
        assert_eq!(&*results.lock().unwrap(), &expected, "case {case}");
    }
}

/// The locking skiplist matches BTreeSet for a single thread.
#[test]
fn locking_skiplist_matches_btreeset() {
    for case in 0..16u64 {
        let mut rng = SplitMix64::new(0xd5_1000 + case);
        let ops = random_set_ops(&mut rng, 60);

        let mut m = Machine::new(cfg(1));
        let sl = m.setup(LockingSkipList::init);
        let results: Arc<Mutex<Vec<bool>>> = Arc::new(Mutex::new(Vec::new()));
        let r2 = results.clone();
        let ops2 = ops.clone();
        m.run(vec![program(async move |ctx: &mut ThreadCtx| {
            let mut out = Vec::new();
            for op in &ops2 {
                out.push(match *op {
                    SetOp::Insert(k) => sl.insert(ctx, k as u64, k as u64).await,
                    SetOp::Remove(k) => sl.remove(ctx, k as u64).await,
                    SetOp::Contains(k) => sl.contains(ctx, k as u64).await,
                });
            }
            r2.lock().unwrap().extend(out);
        })]);

        let mut model = BTreeSet::new();
        let expected: Vec<bool> = ops
            .iter()
            .map(|op| match *op {
                SetOp::Insert(k) => model.insert(k),
                SetOp::Remove(k) => model.remove(&k),
                SetOp::Contains(k) => model.contains(&k),
            })
            .collect();
        assert_eq!(&*results.lock().unwrap(), &expected, "case {case}");
    }
}

/// The sequential skiplist drains like a BTreeMap-backed priority
/// queue (duplicates included).
#[test]
fn seq_skiplist_matches_heap() {
    for case in 0..16u64 {
        let mut rng = SplitMix64::new(0xd5_2000 + case);
        let n = rng.gen_range(1usize..80);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..500)).collect();

        let mut m = Machine::new(cfg(1));
        let sl = m.setup(SeqSkipList::init);
        let drained: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let d2 = drained.clone();
        let keys2 = keys.clone();
        m.run(vec![program(async move |ctx: &mut ThreadCtx| {
            for &k in &keys2 {
                sl.insert(ctx, k, k + 7).await;
            }
            let mut out = Vec::new();
            while let Some((k, v)) = sl.delete_min(ctx).await {
                assert_eq!(v, k + 7);
                out.push(k);
            }
            d2.lock().unwrap().extend(out);
        })]);

        let mut expected: BTreeMap<u64, usize> = BTreeMap::new();
        for k in keys {
            *expected.entry(k).or_default() += 1;
        }
        let expected: Vec<u64> = expected
            .into_iter()
            .flat_map(|(k, n)| std::iter::repeat_n(k, n))
            .collect();
        assert_eq!(&*drained.lock().unwrap(), &expected, "case {case}");
    }
}

/// Concurrent stack schedules preserve the multiset: every popped
/// value was pushed exactly once, across all variants.
#[test]
fn stack_multiset_preserved() {
    for case in 0..16u64 {
        let mut rng = SplitMix64::new(0xd5_3000 + case);
        let seed = rng.next_u64();
        let threads = rng.gen_range(2usize..5);
        let per = rng.gen_range(5u64..25);
        let variant = [
            StackVariant::Base,
            StackVariant::Backoff,
            StackVariant::Leased,
        ][rng.gen_range(0usize..3)];

        let mut config = cfg(threads);
        config.seed = seed;
        let mut m = Machine::new(config);
        let s = m.setup(|mem| TreiberStack::init(mem, variant));
        let popped: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let progs: Vec<ThreadFn> = (0..threads)
            .map(|tid| {
                let popped = popped.clone();
                program(async move |ctx: &mut ThreadCtx| {
                    let base = (tid as u64 + 1) * 100_000;
                    let mut got = Vec::new();
                    for i in 0..per {
                        s.push(ctx, base + i).await;
                        if let Some(v) = s.pop(ctx).await {
                            got.push(v);
                        }
                    }
                    popped.lock().unwrap().extend(got);
                })
            })
            .collect();
        m.run(progs);
        let popped = popped.lock().unwrap();
        let unique: HashSet<u64> = popped.iter().copied().collect();
        assert_eq!(unique.len(), popped.len(), "case {case}: duplicate pop");
        // At most one pop per push; a pop may observe an empty stack if a
        // racing thread drained it first.
        assert!(popped.len() as u64 <= threads as u64 * per, "case {case}");
        for v in popped.iter() {
            let tid = v / 100_000 - 1;
            assert!(tid < threads as u64, "case {case}: alien value {v}");
            assert!(v % 100_000 < per, "case {case}");
        }
    }
}
