//! Randomized property tests for the tile-keyed queue: driving the
//! same interleaved push/pop schedule through a [`TileQueue`] and a
//! plain [`EventQueue`] fed hand-computed canonical keys must produce
//! element-for-element identical pop streams — the tile queue's
//! stamping *is* the `(time, key)` total order, where the key is the
//! canonical `(src_tile << 48) | per-src-tile counter` stamp. Same
//! sorted-oracle model as `event_prop.rs`, extended with random source
//! and destination tiles per push.

use lr_sim_core::{EventQueue, SplitMix64, TileQueue};

const TILES: usize = 8;

/// One schedule step: `Push(src_tile, dest_tile, delay)` schedules the
/// next id at `now + delay` for `dest_tile` as a push by
/// `src_tile`; `Pop` pops one event (skipped while empty). Trailing
/// drain is implicit.
#[derive(Debug, Clone, Copy)]
enum Step {
    Push(usize, usize, u64),
    Pop,
}

/// Mirror of the queue's canonical key stamping.
fn next_key(ctrs: &mut [u64; TILES], src: usize) -> u64 {
    let k = ((src as u64) << 48) | ctrs[src];
    ctrs[src] += 1;
    k
}

fn random_schedule(seed: u64, max_delay: u64, push_bias: f64) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed);
    let steps = rng.gen_range(1usize..300);
    (0..steps)
        .map(|_| {
            if rng.gen_bool(push_bias) {
                Step::Push(
                    rng.gen_range(0u64..TILES as u64) as usize,
                    rng.gen_range(0u64..TILES as u64) as usize,
                    rng.gen_range(0u64..max_delay),
                )
            } else {
                Step::Pop
            }
        })
        .collect()
}

/// Pop stream of the tile queue. Cross-tile bound 0: these schedules
/// model arbitrary delays, not NoC-stamped ones.
fn drive_tiled(steps: &[Step]) -> Vec<(u64, usize)> {
    let mut q: TileQueue<usize> = TileQueue::new(TILES, 0);
    let mut out = Vec::new();
    let mut id = 0usize;
    for &s in steps {
        match s {
            Step::Push(src, dest, d) => {
                q.push(src, q.now(), dest, q.now() + d, id);
                id += 1;
            }
            Step::Pop => out.extend(q.pop_global()),
        }
    }
    out.extend(std::iter::from_fn(|| q.pop_global()));
    assert!(q.is_empty());
    assert_eq!(q.processed() as usize, out.len());
    out
}

/// Pop stream of the plain-queue reference for the same schedule,
/// stamped with hand-computed canonical keys.
fn drive_single(steps: &[Step]) -> Vec<(u64, usize)> {
    let mut q: EventQueue<usize> = EventQueue::new();
    let mut ctrs = [0u64; TILES];
    let mut now = 0u64;
    let mut out = Vec::new();
    let mut id = 0usize;
    for &s in steps {
        match s {
            Step::Push(src, _, d) => {
                let key = next_key(&mut ctrs, src);
                q.push_at_seq(now + d, key, id);
                id += 1;
            }
            Step::Pop => {
                if let Some((t, e)) = q.pop() {
                    now = t;
                    out.push((t, e));
                }
            }
        }
    }
    while let Some((t, e)) = q.pop() {
        out.push((t, e));
    }
    out
}

/// Full cross-check for one schedule: the tile-queue run equals the
/// plain-queue run equals the sorted-by-(time, key) oracle.
fn check_schedule(steps: &[Step], label: &str) {
    let reference = drive_single(steps);
    // Oracle: a naive O(n) discrete-event simulation over a flat
    // pending set — pop removes the `(time, key)` minimum. (A
    // retrospective full sort would be wrong: a push *after* a pop can
    // carry the popped time with a smaller canonical key — same cycle,
    // lower source tile — and legitimately pops later.)
    let expected: Vec<(u64, usize)> = {
        let mut ctrs = [0u64; TILES];
        let mut now = 0u64;
        let mut pending: Vec<(u64, u64, usize)> = Vec::new();
        let mut out = Vec::new();
        let mut id = 0usize;
        for &s in steps {
            match s {
                Step::Push(src, _, d) => {
                    let key = next_key(&mut ctrs, src);
                    pending.push((now + d, key, id));
                    id += 1;
                }
                Step::Pop => {
                    if let Some(i) =
                        (0..pending.len()).min_by_key(|&i| (pending[i].0, pending[i].1))
                    {
                        let (t, _, e) = pending.swap_remove(i);
                        now = t;
                        out.push((t, e));
                    }
                }
            }
        }
        pending.sort();
        out.extend(pending.into_iter().map(|(t, _, e)| (t, e)));
        out
    };
    assert_eq!(
        reference, expected,
        "{label}: single-queue vs sorted oracle"
    );
    assert_eq!(drive_tiled(steps), reference, "{label}: tile queue");
}

/// Push-only schedules: the tile queue matches the plain queue.
#[test]
fn sharded_pop_stream_equals_single_queue_push_only() {
    for case in 0..128u64 {
        let sched = random_schedule(0x5a4d_0000 + case, 50, 1.0);
        check_schedule(&sched, &format!("case {case}"));
    }
}

/// Interleaved push/pop schedules: the tile queue matches the plain queue.
#[test]
fn sharded_pop_stream_equals_single_queue_interleaved() {
    for case in 0..128u64 {
        let sched = random_schedule(0x5a4d_1000 + case, 100, 0.5);
        check_schedule(&sched, &format!("interleaved case {case}"));
    }
}

/// Far-future delays (lease-timeout scale and beyond) keep canonical
/// `(time, key)` order through the wheel's cascades.
#[test]
fn sharded_far_future_delays_stay_sorted() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x5a4d_2000 + case);
        let steps = rng.gen_range(1usize..200);
        let sched: Vec<Step> = (0..steps)
            .map(|_| {
                if rng.gen_bool(0.6) {
                    let d = match rng.gen_range(0u64..3) {
                        0 => rng.gen_range(0u64..100),
                        1 => 20_000 + rng.gen_range(0u64..20_000),
                        _ => rng.gen_range(0u64..1 << 40),
                    };
                    Step::Push(
                        rng.gen_range(0u64..TILES as u64) as usize,
                        rng.gen_range(0u64..TILES as u64) as usize,
                        d,
                    )
                } else {
                    Step::Pop
                }
            })
            .collect();
        check_schedule(&sched, &format!("far-future case {case}"));
    }
}

/// Dense same-cycle bursts across tiles pop in canonical-key order — by
/// source tile, then by each tile's own push order — independent of
/// the order the pushes were made in.
#[test]
fn sharded_same_cycle_bursts_keep_canonical_key_order() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x5a4d_3000 + case);
        let mut sched = Vec::new();
        for _ in 0..rng.gen_range(1usize..20) {
            let base = rng.gen_range(0u64..64);
            for _ in 0..rng.gen_range(1usize..32) {
                sched.push(Step::Push(
                    rng.gen_range(0u64..TILES as u64) as usize,
                    rng.gen_range(0u64..TILES as u64) as usize,
                    base + rng.gen_range(0u64..3) * 7,
                ));
            }
            for _ in 0..rng.gen_range(0usize..8) {
                sched.push(Step::Pop);
            }
        }
        check_schedule(&sched, &format!("burst case {case}"));
    }
}
