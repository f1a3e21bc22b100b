//! Host-side facts the benchmark controls or reports: confinement to a
//! single CPU, which goes straight to libc (which std already links), so
//! the package needs no dependency; and peak resident memory, which the
//! kernel reports in `/proc/self/status`.

/// `cpu_set_t` as glibc lays it out: 1024 bits.
const CPU_WORDS: usize = 16;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// The CPU the process was confined to, and how many CPUs it was
/// allowed before (what `nproc` prints).
#[derive(Debug, Clone, Copy)]
pub struct Confinement {
    pub cpu: usize,
    pub nproc: usize,
}

/// Confine the calling thread, and every thread it spawns afterwards,
/// to the highest-numbered CPU it may run on. Call before any thread is
/// spawned: affinity is inherited at spawn time.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn confine_to_one_cpu() -> Result<Confinement, String> {
    let mut mask = [0u64; CPU_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let nproc: usize = mask.iter().map(|w| w.count_ones() as usize).sum();
    let cpu = (0..CPU_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask allows no CPU")?;
    let mut one = [0u64; CPU_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity to CPU {cpu} failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(Confinement { cpu, nproc })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn confine_to_one_cpu() -> Result<Confinement, String> {
    Err("single-CPU confinement is implemented for 64-bit Linux only".into())
}

/// Peak resident set size of this process so far, in MiB: `VmHWM`, the
/// high-water mark of this program's own address space. `getrusage`'s
/// `ru_maxrss` is not used because it survives `execve`: under
/// `cargo run` it reads cargo's resident set whenever that is larger.
#[cfg(target_os = "linux")]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .expect("/proc/self/status has VmHWM")
        / 1024.0
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mib() -> f64 {
    f64::NAN
}
