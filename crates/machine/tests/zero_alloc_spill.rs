//! Steady-state allocation audit for wide sharing: past 64 cores a
//! directory sharer set spanning two 64-core windows spills to its home
//! tile's slab. Every round here spills the flag line's set (71 readers
//! on cores 1..=71) and the writer's invalidation frees it again, so
//! the slab must recycle its slot: the extra rounds of a run 8x longer
//! must add exactly zero allocations.
//!
//! This file holds a single test on purpose — the counting allocator is
//! global, so a concurrently running test would perturb the count.

use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

const CORES: usize = 72;
const READERS: u64 = CORES as u64 - 1;

/// `rounds` rounds of: the writer (core 0) publishes the round number,
/// every reader sees it and checks in, the writer waits for all
/// check-ins. Returns the allocations the run itself performed, from
/// the first instruction through join.
fn allocs_for(rounds: u64) -> u64 {
    let mut m = Machine::new(SystemConfig::with_cores(CORES));
    let (flag, acks) = m.setup(|mem| (mem.alloc_line_aligned(8), mem.alloc_line_aligned(8)));
    let progs: Vec<ThreadFn> = (0..CORES)
        .map(|tid| {
            program(async move |ctx: &mut ThreadCtx| {
                for r in 1..=rounds {
                    if tid == 0 {
                        ctx.write(flag, r).await;
                        while ctx.read(acks).await < r * READERS {
                            ctx.work(20);
                        }
                    } else {
                        while ctx.read(flag).await < r {
                            ctx.work(20);
                        }
                        ctx.faa(acks, 1).await;
                    }
                    ctx.count_op();
                }
            })
        })
        .collect();
    let before = ALLOCS.load(Ordering::Relaxed);
    let stats = m.run(progs);
    assert_eq!(stats.app_ops, rounds * CORES as u64);
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn spilling_sharer_sets_make_no_steady_state_allocations() {
    // Warm up the process itself (thread-spawn TLS, panic hooks, ...).
    allocs_for(2);
    let short = allocs_for(4);
    let long = allocs_for(4 * 8);
    assert_eq!(
        long, short,
        "wide read sharing allocated per round: {short} allocs for 4 rounds vs {long} for 32"
    );
}
