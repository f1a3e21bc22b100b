use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};

#[test]
fn two_threads_one_multilease_each() {
    let mut m = Machine::new(SystemConfig::with_cores(2));
    let (a, b) = m.setup(|mem| (mem.alloc_line_aligned(8), mem.alloc_line_aligned(8)));
    let progs: Vec<ThreadFn> = (0..2)
        .map(|_| {
            program(async move |ctx: &mut ThreadCtx| {
                assert!(ctx.multi_lease(&[a, b], 5_000).await);
                let va = ctx.read(a).await;
                ctx.write(a, va + 1).await;
                ctx.release(a).await;
            })
        })
        .collect();
    m.run(progs);
}

#[test]
fn four_threads_iterated_multilease() {
    let mut m = Machine::new(SystemConfig::with_cores(4));
    let (a, b) = m.setup(|mem| (mem.alloc_line_aligned(8), mem.alloc_line_aligned(8)));
    for iters in 1..=20u64 {
        let mut m2 = Machine::new(SystemConfig::with_cores(4));
        let (a2, b2) = m2.setup(|mem| (mem.alloc_line_aligned(8), mem.alloc_line_aligned(8)));
        let progs: Vec<ThreadFn> = (0..4)
            .map(|_| {
                program(async move |ctx: &mut ThreadCtx| {
                    for _ in 0..iters {
                        assert!(ctx.multi_lease(&[a2, b2], ctx.max_lease_time()).await);
                        let va = ctx.read(a2).await;
                        let vb = ctx.read(b2).await;
                        ctx.write(a2, va.wrapping_add(1)).await;
                        ctx.write(b2, vb.wrapping_sub(1)).await;
                        ctx.release(a2).await;
                    }
                })
            })
            .collect();
        eprintln!("iters={iters}");
        m2.run(progs);
    }
    let _ = (a, b, m);
}
