//! Steady-state allocation audit: once a simulation is warmed up (lines
//! resident, scratch buffers at their high-water capacity), the engine
//! loop must retire Read/Write/CAS/FAA instructions without touching
//! the heap. Guarded by comparing the *process-wide* allocation count
//! of a short run against a run 8x longer over the same working set:
//! the extra instructions must add exactly zero allocations.
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

/// One fixed-shape run: a single worker mixing every fast-path
/// instruction over two private lines. Returns the allocations the
/// whole run performed (machine construction through join).
fn allocs_for(ops: u64) -> u64 {
    let mut m = Machine::new(SystemConfig::with_cores(2));
    let (a, b) = m.setup(|mem| (mem.alloc_line_aligned(8), mem.alloc_line_aligned(8)));
    let progs: Vec<ThreadFn> = vec![program(async move |ctx: &mut ThreadCtx| {
        for i in 0..ops {
            ctx.faa(a, 1).await;
            ctx.write(b, i).await;
            ctx.read(b).await;
            ctx.cas(a, i + 1, i + 1).await;
            ctx.count_op();
        }
    })];
    let before = ALLOCS.load(Ordering::Relaxed);
    let stats = m.run(progs);
    assert_eq!(stats.app_ops, ops);
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn hot_loop_makes_no_steady_state_allocations() {
    // Warm up the process itself (thread-spawn TLS, panic hooks, ...).
    allocs_for(16);
    let short = allocs_for(512);
    let long = allocs_for(512 * 8);
    assert_eq!(
        long, short,
        "engine loop allocated on the Read/Write/CAS/FAA fast path: \
         {short} allocs for 512 ops vs {long} for 4096"
    );
}
