//! CPU placement of the whole process, for phases that must not hinge
//! on where the scheduler puts a client thread and the daemon worker it
//! waits on.
//!
//! When the two sit on different vCPUs, each request pays a cross-CPU
//! wake-up of an idle vCPU; when they share one, it pays two context
//! switches. On a 2-vCPU guest the scheduler flips between the two
//! placements from one phase to the next, and closed-loop warm latency
//! is then bimodal (about 26 µs against 50–60 µs). Pinning every thread
//! to one vCPU for such a phase makes each request cost its service time
//! plus two context switches, every time.

/// A CPU set as the kernel takes it (`cpu_set_t`: 1024 CPUs).
pub type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU set, or `None` if it cannot be read.
pub fn current() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0 && set.iter().any(|w| *w != 0)).then_some(set)
}

/// The lowest CPU of `set`, alone.
pub fn first_of(set: &CpuSet) -> CpuSet {
    let mut one: CpuSet = [0; 16];
    if let Some(i) = set.iter().position(|w| *w != 0) {
        one[i] = 1 << set[i].trailing_zeros();
    }
    one
}

/// Moves every thread of this process to `set`. Threads started later
/// inherit their creator's set. Placement is best effort: a thread that
/// cannot be moved stays where it is.
pub fn set_all(set: &CpuSet) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<i32>().ok())
        else {
            continue;
        };
        // SAFETY: `set` is a live, readable buffer of exactly the size
        // passed; the kernel only reads it.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    }
}
