//! Behavioural tests for every data structure, run on the simulated
//! machine at small scale. Each variant (base / leased / backoff /
//! multi-leased) gets the same semantic checks.

use lr_ds::*;
use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

fn cfg(cores: usize) -> SystemConfig {
    SystemConfig::with_cores(cores)
}

// ---------------------------------------------------------------- stack

fn stack_push_pop_all(variant: StackVariant) {
    let n = 4;
    let per = 25u64;
    let mut m = Machine::new(cfg(n));
    let s = m.setup(|mem| TreiberStack::init(mem, variant));
    let popped = Arc::new(Mutex::new(Vec::<u64>::new()));
    let progs: Vec<ThreadFn> = (0..n)
        .map(|tid| {
            let popped = popped.clone();
            program(async move |ctx: &mut ThreadCtx| {
                let base = (tid as u64 + 1) * 1000;
                let mut mine = Vec::new();
                for i in 0..per {
                    s.push(ctx, base + i).await;
                    if let Some(v) = s.pop(ctx).await {
                        mine.push(v);
                    }
                }
                popped.lock().unwrap().extend(mine);
            })
        })
        .collect();
    let stats = m.run(progs);

    // Whatever remains on the stack + popped values = all pushed values.
    let popped = popped.lock().unwrap().clone();
    let total_pushed = n as u64 * per;
    assert!(popped.len() as u64 <= total_pushed);
    let unique: HashSet<u64> = popped.iter().copied().collect();
    assert_eq!(unique.len(), popped.len(), "a value was popped twice");
    for v in &popped {
        assert!(*v >= 1000 && *v < (n as u64 + 1) * 1000, "alien value {v}");
    }
    if variant == StackVariant::Leased {
        let t = stats.core_totals();
        assert_eq!(t.cas_failures, 0, "leased stack must not retry");
    }
}

#[test]
fn stack_base_semantics() {
    stack_push_pop_all(StackVariant::Base);
}

#[test]
fn stack_backoff_semantics() {
    stack_push_pop_all(StackVariant::Backoff);
}

#[test]
fn stack_leased_semantics() {
    stack_push_pop_all(StackVariant::Leased);
}

#[test]
fn stack_is_lifo_single_thread() {
    let mut m = Machine::new(cfg(1));
    let s = m.setup(|mem| TreiberStack::init(mem, StackVariant::Base));
    m.run(vec![program(async move |ctx: &mut ThreadCtx| {
        assert_eq!(s.pop(ctx).await, None);
        s.push(ctx, 1).await;
        s.push(ctx, 2).await;
        s.push(ctx, 3).await;
        assert_eq!(s.pop(ctx).await, Some(3));
        assert_eq!(s.pop(ctx).await, Some(2));
        s.push(ctx, 4).await;
        assert_eq!(s.pop(ctx).await, Some(4));
        assert_eq!(s.pop(ctx).await, Some(1));
        assert_eq!(s.pop(ctx).await, None);
    })]);
}

#[test]
fn stack_adaptive_semantics_and_suppression() {
    // Healthy lease time: adaptive behaves like leased (no suppression).
    let n = 4;
    let per = 25u64;
    let mut m = Machine::new(cfg(n));
    let s = m.setup(|mem| TreiberStack::init(mem, StackVariant::Leased));
    let popped = Arc::new(Mutex::new(Vec::<u64>::new()));
    let progs: Vec<ThreadFn> = (0..n)
        .map(|tid| {
            let popped = popped.clone();
            program(async move |ctx: &mut ThreadCtx| {
                let mut al = lr_lease::AdaptiveLease::default();
                let base = (tid as u64 + 1) * 1000;
                let mut mine = Vec::new();
                for i in 0..per {
                    s.push_adaptive(ctx, &mut al, base + i).await;
                    if let Some(v) = s.pop_adaptive(ctx, &mut al).await {
                        mine.push(v);
                    }
                }
                assert!(
                    !al.predictor().is_suppressed(TreiberStack::SITE_PUSH),
                    "healthy site wrongly suppressed"
                );
                popped.lock().unwrap().extend(mine);
            })
        })
        .collect();
    let stats = m.run(progs);
    assert_eq!(stats.core_totals().cas_failures, 0);
    let popped = popped.lock().unwrap();
    let unique: HashSet<u64> = popped.iter().copied().collect();
    assert_eq!(unique.len(), popped.len());
}

// ---------------------------------------------------------------- queue

fn queue_fifo_per_producer(variant: QueueVariant) {
    let producers = 3usize;
    let per = 30u64;
    let mut m = Machine::new(cfg(producers + 1));
    let q = m.setup(|mem| MsQueue::init(mem, variant));
    let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
    let mut progs: Vec<ThreadFn> = Vec::new();
    for tid in 0..producers {
        progs.push(program(async move |ctx: &mut ThreadCtx| {
            let base = (tid as u64 + 1) * 1000;
            for i in 0..per {
                q.enqueue(ctx, base + i).await;
            }
        }));
    }
    let seen2 = seen.clone();
    progs.push(program(async move |ctx: &mut ThreadCtx| {
        let mut got = Vec::new();
        while got.len() < (producers as u64 * per) as usize {
            if let Some(v) = q.dequeue(ctx).await {
                got.push(v);
            } else {
                ctx.work(100);
            }
        }
        assert_eq!(q.dequeue(ctx).await, None, "queue should now be empty");
        seen2.lock().unwrap().extend(got);
    }));
    m.run(progs);

    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), producers * per as usize);
    // Per-producer FIFO: each producer's values appear in order.
    for p in 0..producers as u64 {
        let base = (p + 1) * 1000;
        let order: Vec<u64> = seen
            .iter()
            .copied()
            .filter(|v| *v >= base && *v < base + 1000)
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "producer {p} order violated");
        assert_eq!(order.len(), per as usize);
    }
}

#[test]
fn queue_base_fifo() {
    queue_fifo_per_producer(QueueVariant::Base);
}

#[test]
fn queue_leased_fifo() {
    queue_fifo_per_producer(QueueVariant::Leased);
}

#[test]
fn queue_multileased_fifo() {
    queue_fifo_per_producer(QueueVariant::MultiLeased);
}

fn two_lock_queue_fifo(variant: TwoLockVariant) {
    let producers = 3usize;
    let per = 25u64;
    let mut m = Machine::new(cfg(producers + 1));
    let q = m.setup(|mem| TwoLockQueue::init(mem, variant));
    let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
    let mut progs: Vec<ThreadFn> = Vec::new();
    for tid in 0..producers {
        progs.push(program(async move |ctx: &mut ThreadCtx| {
            let base = (tid as u64 + 1) * 1000;
            for i in 0..per {
                q.enqueue(ctx, base + i).await;
            }
        }));
    }
    let seen2 = seen.clone();
    progs.push(program(async move |ctx: &mut ThreadCtx| {
        let mut got = Vec::new();
        while got.len() < (producers as u64 * per) as usize {
            if let Some(v) = q.dequeue(ctx).await {
                got.push(v);
            } else {
                ctx.work(100);
            }
        }
        assert_eq!(q.dequeue(ctx).await, None);
        seen2.lock().unwrap().extend(got);
    }));
    m.run(progs);
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), producers * per as usize);
    for p in 0..producers as u64 {
        let base = (p + 1) * 1000;
        let order: Vec<u64> = seen
            .iter()
            .copied()
            .filter(|v| *v >= base && *v < base + 1000)
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "producer {p} order violated");
    }
}

#[test]
fn two_lock_queue_base_fifo() {
    two_lock_queue_fifo(TwoLockVariant::Base);
}

#[test]
fn two_lock_queue_leased_fifo() {
    two_lock_queue_fifo(TwoLockVariant::Leased);
}

#[test]
fn two_lock_queue_lease_reduces_traffic() {
    let run = |variant: TwoLockVariant| {
        let n = 6;
        let mut m = Machine::new(cfg(n));
        let q = m.setup(|mem| TwoLockQueue::init(mem, variant));
        let progs: Vec<ThreadFn> = (0..n)
            .map(|_| {
                program(async move |ctx: &mut ThreadCtx| {
                    for i in 0..30 {
                        q.enqueue(ctx, i + 1).await;
                        q.dequeue(ctx).await;
                    }
                })
            })
            .collect();
        m.run(progs)
    };
    let base = run(TwoLockVariant::Base);
    let leased = run(TwoLockVariant::Leased);
    assert!(
        leased.coherence_messages() < base.coherence_messages(),
        "leased locks must cut queue traffic: {} vs {}",
        leased.coherence_messages(),
        base.coherence_messages()
    );
    assert!(leased.total_cycles < base.total_cycles);
}

// ------------------------------------------------------- priority queue

fn pq_drains_sorted(init: fn(&mut lr_sim_mem::SimMemory) -> PriorityQueue, cores: usize) {
    let per = 20u64;
    let mut m = Machine::new(cfg(cores));
    let pq = m.setup(init);
    let out = Arc::new(Mutex::new(Vec::<u64>::new()));
    let progs: Vec<ThreadFn> = (0..cores)
        .map(|tid| {
            let out = out.clone();
            program(async move |ctx: &mut ThreadCtx| {
                // Insert a private key range, then drain some.
                let base = (tid as u64 + 1) * 10_000;
                for i in 0..per {
                    pq.insert(ctx, base + i * 7 + 1, tid as u64).await;
                }
                let mut got = Vec::new();
                for _ in 0..per / 2 {
                    if let Some((k, _)) = pq.delete_min(ctx).await {
                        got.push(k);
                    }
                }
                out.lock().unwrap().extend(got);
            })
        })
        .collect();
    m.run(progs);
    let drained = out.lock().unwrap();
    // All drained keys are unique and were inserted.
    let unique: HashSet<u64> = drained.iter().copied().collect();
    assert_eq!(unique.len(), drained.len(), "duplicate deleteMin result");
    assert_eq!(drained.len() as u64, cores as u64 * (per / 2));
}

#[test]
fn pq_lotan_shavit_concurrent_drain() {
    pq_drains_sorted(PriorityQueue::init_lotan_shavit, 4);
}

#[test]
fn pq_global_lock_concurrent_drain() {
    pq_drains_sorted(PriorityQueue::init_global_lock, 4);
}

#[test]
fn pq_global_leased_concurrent_drain() {
    pq_drains_sorted(PriorityQueue::init_global_leased, 4);
}

#[test]
fn pq_global_leased_sorted_single_thread() {
    let mut m = Machine::new(cfg(1));
    let pq = m.setup(PriorityQueue::init_global_leased);
    m.run(vec![program(async move |ctx: &mut ThreadCtx| {
        for k in [5u64, 3, 9, 1, 7] {
            pq.insert(ctx, k, 100 + k).await;
        }
        let mut prev = 0;
        for _ in 0..5 {
            let (k, v) = pq.delete_min(ctx).await.unwrap();
            assert!(k > prev, "not sorted: {k} after {prev}");
            assert_eq!(v, 100 + k);
            prev = k;
        }
        assert!(pq.delete_min(ctx).await.is_none());
    })]);
}

// ----------------------------------------------------------- multiqueue

fn multiqueue_roundtrip(variant: MqVariant) {
    let n = 4;
    let per = 15u64;
    let mut m = Machine::new(cfg(n));
    let mq = m.setup(|mem| MultiQueue::init(mem, 8, variant));
    let out = Arc::new(Mutex::new(Vec::<u64>::new()));
    let progs: Vec<ThreadFn> = (0..n)
        .map(|tid| {
            let mq = mq.clone();
            let out = out.clone();
            program(async move |ctx: &mut ThreadCtx| {
                let base = (tid as u64 + 1) * 1000;
                let mut got = Vec::new();
                for i in 0..per {
                    mq.insert(ctx, base + i, tid as u64).await;
                    if let Some((k, _)) = mq.delete_min(ctx).await {
                        got.push(k);
                    }
                }
                out.lock().unwrap().extend(got);
            })
        })
        .collect();
    m.run(progs);
    let drained = out.lock().unwrap();
    let unique: HashSet<u64> = drained.iter().copied().collect();
    assert_eq!(unique.len(), drained.len(), "duplicate deleteMin");
    for k in drained.iter() {
        assert!(*k >= 1000 && *k < 1000 * (n as u64 + 1));
    }
}

#[test]
fn multiqueue_base_roundtrip() {
    multiqueue_roundtrip(MqVariant::Base);
}

#[test]
fn multiqueue_leased_roundtrip() {
    multiqueue_roundtrip(MqVariant::Leased);
}

// ---------------------------------------------------------- harris list

fn list_set_semantics(leased: bool) {
    let n = 4;
    let mut m = Machine::new(cfg(n));
    let l = m.setup(|mem| HarrisList::init(mem, leased));
    let progs: Vec<ThreadFn> = (0..n)
        .map(|tid| {
            program(async move |ctx: &mut ThreadCtx| {
                // Private key stripe: operations must behave sequentially.
                let base = (tid as u64) * 1_000 + 1;
                for i in 0..20 {
                    assert!(l.insert(ctx, base + i).await, "fresh insert failed");
                    assert!(!l.insert(ctx, base + i).await, "duplicate insert succeeded");
                    assert!(l.contains(ctx, base + i).await);
                }
                for i in 0..10 {
                    assert!(l.remove(ctx, base + i).await, "remove failed");
                    assert!(!l.remove(ctx, base + i).await, "double remove succeeded");
                    assert!(!l.contains(ctx, base + i).await);
                }
                for i in 10..20 {
                    assert!(l.contains(ctx, base + i).await, "survivor vanished");
                }
            })
        })
        .collect();
    m.run(progs);
}

#[test]
fn harris_list_base() {
    list_set_semantics(false);
}

#[test]
fn harris_list_leased() {
    list_set_semantics(true);
}

#[test]
fn harris_list_contended_same_keys() {
    // All threads fight over the same small key space; final state must
    // be consistent (each key present or absent, no torn state).
    let n = 4;
    let mut m = Machine::new(cfg(n));
    let l = m.setup(|mem| HarrisList::init(mem, false));
    let progs: Vec<ThreadFn> = (0..n)
        .map(|_| {
            program(async move |ctx: &mut ThreadCtx| {
                for round in 0..15u64 {
                    let k = (round % 5) + 1;
                    if round % 2 == 0 {
                        l.insert(ctx, k).await;
                    } else {
                        l.remove(ctx, k).await;
                    }
                    l.contains(ctx, k).await;
                }
            })
        })
        .collect();
    m.run(progs);
}

#[test]
fn harris_list_search_cleans_marked_chains() {
    // Insert a run of keys, remove the middle ones, then verify a
    // traversal no longer walks the removed nodes: inserting just after
    // the gap must find its predecessor directly.
    let mut m = Machine::new(cfg(1));
    let l = m.setup(|mem| HarrisList::init(mem, false));
    m.run(vec![program(async move |ctx: &mut ThreadCtx| {
        for k in 1..=20u64 {
            assert!(l.insert(ctx, k).await);
        }
        for k in 5..=15u64 {
            assert!(l.remove(ctx, k).await);
        }
        // The survivors and only the survivors remain.
        for k in 1..=20u64 {
            assert_eq!(l.contains(ctx, k).await, !(5..=15).contains(&k), "key {k}");
        }
        // Re-inserting a removed key works (fresh node, not resurrection).
        assert!(l.insert(ctx, 10).await);
        assert!(l.contains(ctx, 10).await);
    })]);
}

// ------------------------------------------------------------ hashtable

fn hashtable_semantics(leased: bool) {
    let n = 4;
    let mut m = Machine::new(cfg(n));
    let h = m.setup(|mem| HashTable::init(mem, 64, leased));
    let progs: Vec<ThreadFn> = (0..n)
        .map(|tid| {
            let h = h.clone();
            program(async move |ctx: &mut ThreadCtx| {
                let base = (tid as u64) * 1_000 + 1;
                for i in 0..25 {
                    assert!(h.insert(ctx, base + i).await);
                    assert!(!h.insert(ctx, base + i).await);
                    assert!(h.contains(ctx, base + i).await);
                }
                for i in 0..10 {
                    assert!(h.remove(ctx, base + i).await);
                    assert!(!h.contains(ctx, base + i).await);
                }
            })
        })
        .collect();
    m.run(progs);
}

#[test]
fn hashtable_base() {
    hashtable_semantics(false);
}

#[test]
fn hashtable_leased() {
    hashtable_semantics(true);
}

// ------------------------------------------------------------------ bst

fn bst_semantics(leased: bool) {
    let n = 4;
    let mut m = Machine::new(cfg(n));
    let t = m.setup(|mem| Bst::init(mem, leased));
    let progs: Vec<ThreadFn> = (0..n)
        .map(|tid| {
            program(async move |ctx: &mut ThreadCtx| {
                let base = (tid as u64) * 1_000 + 1;
                for i in 0..25 {
                    // Scatter the keys so the tree is not a path.
                    let k = base + (i * 37) % 500;
                    assert!(t.insert(ctx, k).await);
                    assert!(!t.insert(ctx, k).await);
                    assert!(t.contains(ctx, k).await);
                }
                let k = base + 37;
                assert!(t.remove(ctx, k).await);
                assert!(!t.contains(ctx, k).await);
                assert!(t.insert(ctx, k).await, "resurrection after logical delete");
                assert!(t.contains(ctx, k).await);
            })
        })
        .collect();
    m.run(progs);
}

#[test]
fn bst_base() {
    bst_semantics(false);
}

#[test]
fn bst_leased() {
    bst_semantics(true);
}

// ------------------------------------------------- locking skiplist set

#[test]
fn locking_skiplist_set_semantics() {
    let n = 4;
    let mut m = Machine::new(cfg(n));
    let sl = m.setup(LockingSkipList::init);
    let progs: Vec<ThreadFn> = (0..n)
        .map(|tid| {
            program(async move |ctx: &mut ThreadCtx| {
                let base = (tid as u64) * 1_000 + 1;
                for i in 0..20 {
                    assert!(sl.insert(ctx, base + i, i).await);
                    assert!(!sl.insert(ctx, base + i, i).await);
                    assert!(sl.contains(ctx, base + i).await);
                }
                for i in 0..8 {
                    assert!(sl.remove(ctx, base + i).await);
                    assert!(!sl.contains(ctx, base + i).await);
                    assert!(!sl.remove(ctx, base + i).await);
                }
            })
        })
        .collect();
    m.run(progs);
}

#[test]
fn locking_skiplist_delete_min_is_min() {
    let mut m = Machine::new(cfg(1));
    let sl = m.setup(LockingSkipList::init);
    m.run(vec![program(async move |ctx: &mut ThreadCtx| {
        for k in [50u64, 20, 80, 10, 60, 30] {
            sl.insert(ctx, k, k * 2).await;
        }
        let mut prev = 0;
        for _ in 0..6 {
            let (k, v) = sl.delete_min(ctx).await.unwrap();
            assert!(k > prev);
            assert_eq!(v, k * 2);
            prev = k;
        }
        assert!(sl.delete_min(ctx).await.is_none());
    })]);
}

#[test]
fn lotan_shavit_concurrent_delete_min_unique() {
    let n = 4;
    let per = 20u64;
    let mut m = Machine::new(cfg(n));
    let sl = m.setup(LockingSkipList::init);
    let out = Arc::new(Mutex::new(Vec::<u64>::new()));
    let progs: Vec<ThreadFn> = (0..n)
        .map(|tid| {
            let out = out.clone();
            program(async move |ctx: &mut ThreadCtx| {
                let base = (tid as u64 + 1) * 10_000;
                for i in 0..per {
                    assert!(sl.insert(ctx, base + i, tid as u64).await);
                }
                let mut got = Vec::new();
                for _ in 0..per {
                    if let Some((k, _)) = sl.delete_min(ctx).await {
                        got.push(k);
                    }
                }
                out.lock().unwrap().extend(got);
            })
        })
        .collect();
    m.run(progs);
    let drained = out.lock().unwrap();
    assert_eq!(drained.len() as u64, n as u64 * per, "one pop per push");
    let unique: HashSet<u64> = drained.iter().copied().collect();
    assert_eq!(
        unique.len(),
        drained.len(),
        "deleteMin returned a key twice"
    );
}

// ------------------------------------------------------- seq skiplist

#[test]
fn seq_skiplist_sorted_drain() {
    let mut m = Machine::new(cfg(1));
    let sl = m.setup(SeqSkipList::init);
    m.run(vec![program(async move |ctx: &mut ThreadCtx| {
        assert!(sl.is_empty(ctx).await);
        let keys = [9u64, 4, 7, 1, 8, 2, 6, 3, 5, 10];
        for &k in &keys {
            sl.insert(ctx, k, k + 100).await;
        }
        assert_eq!(sl.peek_min(ctx).await, Some(1));
        for want in 1..=10u64 {
            let (k, v) = sl.delete_min(ctx).await.unwrap();
            assert_eq!(k, want);
            assert_eq!(v, k + 100);
        }
        assert!(sl.delete_min(ctx).await.is_none());
    })]);
}
