//! Randomized property tests for the wheel-backed discrete-event
//! queue: pops must be a stable sort of pushes by timestamp, checked
//! against a sorted-oracle model and against an independent
//! `BinaryHeap` reference queue. Driven by the in-tree [`SplitMix64`]
//! generator, so every case is reproducible from its loop index.

use lr_sim_core::{EventQueue, SplitMix64};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference model: a `BinaryHeap` over `(time, push seq)`, so ties pop
/// in push order — the queue contract, built without the wheel.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    seq: u64,
    now: u64,
}

impl HeapQueue {
    fn push_after(&mut self, delay: u64, id: usize) {
        self.heap.push(Reverse((self.now + delay, self.seq, id)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let Reverse((t, _, id)) = self.heap.pop()?;
        self.now = t;
        Some((t, id))
    }
}

/// The oracle: replay an interleaved push/pop schedule through the
/// queue and demand the popped stream equal a stable sort (by time, ties in
/// push order) of everything pushed.
///
/// A schedule is a list of steps; `Push(delay)` schedules the next id at
/// `now + delay`, `Pop` pops one event (skipped while empty). Trailing
/// drain is implicit.
#[derive(Debug, Clone, Copy)]
enum Step {
    Push(u64),
    Pop,
}

fn run_schedule(steps: &[Step], label: &str) {
    let mut q = EventQueue::new();
    let mut pushed: Vec<(u64, usize)> = Vec::new();
    let mut popped: Vec<(u64, usize)> = Vec::new();
    let mut next_id = 0usize;
    let mut last_time = 0u64;
    for &s in steps {
        match s {
            Step::Push(d) => {
                q.push_after(d, next_id);
                pushed.push((q.now() + d, next_id));
                next_id += 1;
            }
            Step::Pop => {
                if let Some((t, id)) = q.pop() {
                    assert!(t >= last_time, "{label}: time went backwards");
                    last_time = t;
                    popped.push((t, id));
                }
            }
        }
    }
    while let Some((t, id)) = q.pop() {
        assert!(t >= last_time, "{label}: time went backwards");
        last_time = t;
        popped.push((t, id));
    }
    assert_eq!(q.processed() as usize, pushed.len(), "{label}");
    assert!(q.is_empty(), "{label}");
    // Oracle: stable sort by time (ties keep push order).
    let mut expected = pushed;
    expected.sort_by_key(|&(t, _)| t);
    assert_eq!(popped, expected, "{label}");
}

fn random_schedule(seed: u64, max_delay: u64, push_bias: f64) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed);
    let steps = rng.gen_range(1usize..300);
    (0..steps)
        .map(|_| {
            if rng.gen_bool(push_bias) {
                Step::Push(rng.gen_range(0u64..max_delay))
            } else {
                Step::Pop
            }
        })
        .collect()
}

/// Push-only schedules pop as a stable sort on the wheel-backed queue.
#[test]
fn pops_are_a_stable_sort() {
    for case in 0..256u64 {
        let sched = random_schedule(0xe_7e47_0000 + case, 50, 1.0);
        run_schedule(&sched, &format!("case {case}"));
    }
}

/// Interleaved push/pop schedules never pop backwards in time.
#[test]
fn interleaved_push_pop_never_goes_backwards() {
    for case in 0..256u64 {
        let sched = random_schedule(0xe_7e47_1000 + case, 100, 0.5);
        run_schedule(&sched, &format!("case {case}"));
    }
}

/// Far-future horizon: delays at and far beyond `MAX_LEASE_TIME`
/// (20 000 cycles — the regime lease-timeout events live in), which in
/// the wheel land two-plus levels up and must cascade back down in
/// order.
#[test]
fn far_future_delays_stay_sorted() {
    const MAX_LEASE_TIME: u64 = 20_000;
    for case in 0..128u64 {
        let mut rng = SplitMix64::new(0xe_7e47_2000 + case);
        let steps = rng.gen_range(1usize..200);
        let sched: Vec<Step> = (0..steps)
            .map(|_| {
                if rng.gen_bool(0.6) {
                    // Mix near-horizon work with lease-timeout-scale and
                    // multi-level (beyond 2^24) delays.
                    let d = match rng.gen_range(0u64..3) {
                        0 => rng.gen_range(0u64..100),
                        1 => MAX_LEASE_TIME + rng.gen_range(0u64..MAX_LEASE_TIME),
                        _ => rng.gen_range(0u64..1 << 40),
                    };
                    Step::Push(d)
                } else {
                    Step::Pop
                }
            })
            .collect();
        run_schedule(&sched, &format!("far-future case {case}"));
    }
}

/// Dense same-cycle bursts: many events per timestamp, where stability
/// (FIFO within a cycle) is the entire contract.
#[test]
fn dense_same_cycle_bursts_keep_fifo_order() {
    for case in 0..128u64 {
        let mut rng = SplitMix64::new(0xe_7e47_3000 + case);
        let mut sched = Vec::new();
        for _ in 0..rng.gen_range(1usize..20) {
            // A burst: 1..32 events across at most 3 distinct delays,
            // so several events collide on each target cycle.
            let base = rng.gen_range(0u64..64);
            for _ in 0..rng.gen_range(1usize..32) {
                sched.push(Step::Push(base + rng.gen_range(0u64..3) * 7));
            }
            for _ in 0..rng.gen_range(0usize..8) {
                sched.push(Step::Pop);
            }
        }
        run_schedule(&sched, &format!("burst case {case}"));
    }
}

/// Deterministic wheel-wrap / overflow-cascade patterns: delays pinned
/// to the wheel's 256-cycle and 65 536-cycle window boundaries (one
/// below, at, and above each), pushed while the clock sits just before
/// a window edge — the exact geometry where a wrap or cascade bug would
/// misfile an event.
#[test]
fn window_boundary_patterns_stay_sorted() {
    let boundary_delays = [255u64, 256, 257, 65_535, 65_536, 65_537, (1 << 24) + 1];
    // Walk the clock toward successive window edges, seeding boundary
    // pushes from each offset.
    let mut sched = Vec::new();
    for &edge_approach in &[250u64, 254, 255, 65_530, 65_535] {
        sched.push(Step::Push(edge_approach));
        sched.push(Step::Pop); // advance now to the edge's shadow
        for &d in &boundary_delays {
            sched.push(Step::Push(d));
            sched.push(Step::Push(d)); // same-cycle tie across the edge
        }
        for _ in 0..4 {
            sched.push(Step::Pop);
        }
    }
    run_schedule(&sched, "window boundaries");
}

/// The wheel agrees with the independent `BinaryHeap` reference model:
/// one random schedule, both queues, element-for-element identical pop
/// streams.
#[test]
fn heap_and_wheel_agree_event_for_event() {
    for case in 0..128u64 {
        let sched = random_schedule(0xe_7e47_4000 + case, 30_000, 0.7);
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::default();
        let (mut from_wheel, mut from_heap) = (Vec::new(), Vec::new());
        for (id, &s) in sched.iter().enumerate() {
            match s {
                Step::Push(d) => {
                    wheel.push_after(d, id);
                    heap.push_after(d, id);
                }
                Step::Pop => {
                    from_wheel.extend(wheel.pop());
                    from_heap.extend(heap.pop());
                }
            }
        }
        from_wheel.extend(std::iter::from_fn(|| wheel.pop()));
        from_heap.extend(std::iter::from_fn(|| heap.pop()));
        assert_eq!(from_heap, from_wheel, "case {case}");
    }
}
