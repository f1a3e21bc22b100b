//! Randomized tests at the whole-machine level: memory semantics and
//! lease-pattern robustness under randomized programs, driven by the
//! in-tree [`SplitMix64`] generator.

use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_sim_core::{Addr, SplitMix64};
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone)]
enum SeqOp {
    Write { slot: u8, val: u64 },
    Read { slot: u8 },
    Cas { slot: u8, expected: u64, new: u64 },
    Faa { slot: u8, delta: u32 },
    Xchg { slot: u8, val: u64 },
}

fn random_seq_op(rng: &mut SplitMix64) -> SeqOp {
    let slot = (rng.next_u64() & 0xff) as u8;
    match rng.gen_range(0u8..5) {
        0 => SeqOp::Write {
            slot,
            val: rng.next_u64(),
        },
        1 => SeqOp::Read { slot },
        2 => SeqOp::Cas {
            slot,
            expected: rng.gen_range(0u64..4),
            new: rng.next_u64(),
        },
        3 => SeqOp::Faa {
            slot,
            delta: (rng.next_u64() & 0xffff_ffff) as u32,
        },
        _ => SeqOp::Xchg {
            slot,
            val: rng.next_u64(),
        },
    }
}

/// A single simulated thread sees exactly the semantics of a plain
/// array: the cache hierarchy and coherence protocol must be
/// transparent to data values.
#[test]
fn single_thread_memory_is_an_array() {
    // Machine runs are comparatively slow; keep the case counts modest.
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0x3_ac41_0000 + case);
        let nops = rng.gen_range(1usize..60);
        let ops: Vec<SeqOp> = (0..nops).map(|_| random_seq_op(&mut rng)).collect();

        let mut m = Machine::new(SystemConfig::with_cores(1));
        let slots: Vec<Addr> = m.setup(|mem| (0..8).map(|_| mem.alloc_line_aligned(8)).collect());
        let trace: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let trace2 = trace.clone();
        let ops2 = ops.clone();
        let slots2 = slots.clone();
        m.run(vec![program(async move |ctx: &mut ThreadCtx| {
            let mut out = Vec::new();
            for op in &ops2 {
                match *op {
                    SeqOp::Write { slot, val } => ctx.write(slots2[slot as usize % 8], val).await,
                    SeqOp::Read { slot } => out.push(ctx.read(slots2[slot as usize % 8]).await),
                    SeqOp::Cas {
                        slot,
                        expected,
                        new,
                    } => {
                        let (_, old) = ctx.cas_val(slots2[slot as usize % 8], expected, new).await;
                        out.push(old);
                    }
                    SeqOp::Faa { slot, delta } => {
                        out.push(ctx.faa(slots2[slot as usize % 8], delta as u64).await)
                    }
                    SeqOp::Xchg { slot, val } => {
                        out.push(ctx.xchg(slots2[slot as usize % 8], val).await)
                    }
                }
            }
            trace2.lock().unwrap().extend(out);
        })]);

        // Reference interpretation.
        let mut model = [0u64; 8];
        let mut expected_out = Vec::new();
        for op in &ops {
            match *op {
                SeqOp::Write { slot, val } => model[slot as usize % 8] = val,
                SeqOp::Read { slot } => expected_out.push(model[slot as usize % 8]),
                SeqOp::Cas {
                    slot,
                    expected,
                    new,
                } => {
                    let s = slot as usize % 8;
                    expected_out.push(model[s]);
                    if model[s] == expected {
                        model[s] = new;
                    }
                }
                SeqOp::Faa { slot, delta } => {
                    let s = slot as usize % 8;
                    expected_out.push(model[s]);
                    model[s] = model[s].wrapping_add(delta as u64);
                }
                SeqOp::Xchg { slot, val } => {
                    let s = slot as usize % 8;
                    expected_out.push(model[s]);
                    model[s] = val;
                }
            }
        }
        assert_eq!(&*trace.lock().unwrap(), &expected_out, "case {case}");
    }
}

/// Concurrent increments with arbitrary per-thread lease decorations
/// (lease or not, random durations, forgotten releases) never lose an
/// update and never deadlock: leases are advisory.
#[test]
fn random_lease_patterns_preserve_counts() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0x3_ac41_1000 + case);
        let threads = rng.gen_range(2usize..5);
        let plans: Vec<Vec<(bool, u64, bool)>> = (0..threads)
            .map(|_| {
                let n = rng.gen_range(5usize..25);
                (0..n)
                    .map(|_| {
                        (
                            rng.gen_bool(0.5),
                            rng.gen_range(1u64..3000),
                            rng.gen_bool(0.5),
                        )
                    })
                    .collect()
            })
            .collect();

        let mut m = Machine::new(SystemConfig::with_cores(threads));
        let cell = m.setup(|mem| mem.alloc_line_aligned(8));
        let total: u64 = plans.iter().map(|p| p.len() as u64).sum();
        let progs: Vec<ThreadFn> = plans
            .into_iter()
            .map(|plan| {
                program(async move |ctx: &mut ThreadCtx| {
                    for (use_lease, dur, forget_release) in plan {
                        loop {
                            if use_lease {
                                ctx.lease(cell, dur).await;
                            }
                            let v = ctx.read(cell).await;
                            let ok = ctx.cas(cell, v, v + 1).await;
                            if use_lease && !forget_release {
                                ctx.release(cell).await;
                            }
                            if ok {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        let (_, mem) = m.run_with_memory(progs);
        assert_eq!(mem.read_word(cell), total, "case {case}");
    }
}

/// Random MultiLease groups over a small set of lines, issued by
/// several threads, complete without deadlock and keep per-line sums
/// exact (Proposition 3, stress-tested).
#[test]
fn random_multilease_groups_terminate_and_are_atomic() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0x3_ac41_2000 + case);
        let threads = rng.gen_range(2usize..5);
        let plans: Vec<Vec<Vec<usize>>> = (0..threads)
            .map(|_| {
                let n = rng.gen_range(3usize..12);
                (0..n)
                    .map(|_| {
                        let g = rng.gen_range(1usize..4);
                        (0..g).map(|_| rng.gen_range(0usize..5)).collect()
                    })
                    .collect()
            })
            .collect();

        let mut m = Machine::new(SystemConfig::with_cores(threads));
        let lines: Vec<Addr> = m.setup(|mem| (0..5).map(|_| mem.alloc_line_aligned(8)).collect());
        let mut expected = [0u64; 5];
        for plan in &plans {
            for group in plan {
                let mut seen = [false; 5];
                for &g in group {
                    if !seen[g] {
                        seen[g] = true;
                        expected[g] += 1;
                    }
                }
            }
        }
        let lines2 = lines.clone();
        let progs: Vec<ThreadFn> = plans
            .into_iter()
            .map(|plan| {
                let lines = lines2.clone();
                program(async move |ctx: &mut ThreadCtx| {
                    for group in plan {
                        let addrs: Vec<Addr> = group.iter().map(|&g| lines[g]).collect();
                        let admitted = ctx.multi_lease(&addrs, ctx.max_lease_time()).await;
                        assert!(admitted, "groups of ≤4 fit MAX_NUM_LEASES");
                        // Increment every *distinct* member once.
                        let mut seen = [false; 5];
                        for (&g, &a) in group.iter().zip(&addrs) {
                            if !seen[g] {
                                seen[g] = true;
                                let v = ctx.read(a).await;
                                ctx.write(a, v + 1).await;
                            }
                        }
                        ctx.release_all().await;
                    }
                })
            })
            .collect();
        let (_, mem) = m.run_with_memory(progs);
        for (i, &line) in lines.iter().enumerate() {
            assert_eq!(
                mem.read_word(line),
                expected[i],
                "case {case}: line {i} sum wrong"
            );
        }
    }
}
