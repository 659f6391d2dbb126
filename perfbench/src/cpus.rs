//! CPU placement. The CPUs of a virtual host need not run at one speed (a
//! CPU whose physical core is shared with a busy neighbour runs slower),
//! and the scheduler keeps a busy thread on the CPU it started on, so a
//! single-threaded measurement would time one CPU or the other at random
//! and runs would split into a fast and a slow group. The benchmark
//! spreads each single-threaded measurement evenly over every CPU it may
//! use instead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Size of glibc's `cpu_set_t`: a bit mask of 1024 CPUs.
const CPU_SET_BYTES: usize = 128;
type CpuSet = [u64; CPU_SET_BYTES / 8];

/// How long the rotated thread stays on one CPU before it moves on.
const DWELL: Duration = Duration::from_millis(50);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs thread `tid` may run on (0: the calling thread).
fn get(tid: i32) -> Option<CpuSet> {
    let mut mask: CpuSet = [0; CPU_SET_BYTES / 8];
    // SAFETY: `mask` is a writable buffer of exactly `CPU_SET_BYTES`
    // bytes, the size passed; the call writes nothing beyond it.
    let rc = unsafe { sched_getaffinity(tid, CPU_SET_BYTES, mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Restricts thread `tid` (0: the calling thread) to `mask`.
fn set(tid: i32, mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly `CPU_SET_BYTES`
    // bytes, the size passed; the call only reads it.
    unsafe { sched_setaffinity(tid, CPU_SET_BYTES, mask.as_ptr()) == 0 }
}

fn only(cpu: usize) -> CpuSet {
    let mut mask: CpuSet = [0; CPU_SET_BYTES / 8];
    mask[cpu / 64] |= 1 << (cpu % 64);
    mask
}

/// The CPUs the calling thread may run on.
pub fn allowed() -> Vec<usize> {
    let Some(mask) = get(0) else {
        return Vec::new();
    };
    (0..CPU_SET_BYTES * 8)
        .filter(|&cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1)
        .collect()
}

/// Runs `f` with the calling thread pinned to `cpu`, then gives the
/// thread back its previous CPUs. Processes spawned meanwhile inherit
/// the pin.
pub fn on_cpu<T>(cpu: usize, f: impl FnOnce() -> T) -> T {
    let previous = get(0);
    let pinned = previous.is_some() && set(0, &only(cpu));
    let out = f();
    if let (true, Some(previous)) = (pinned, previous) {
        set(0, &previous);
    }
    out
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Runs `f` on the main thread while a helper thread moves the main
/// thread round-robin over every allowed CPU, [`DWELL`] on each, and
/// gives it back its previous CPUs afterwards. A thread `f` spawned would
/// inherit the single CPU the main thread held at that moment, so `f`
/// must not spawn threads.
pub fn rotating<T>(f: impl FnOnce() -> T) -> T {
    assert_eq!(
        std::thread::current().name(),
        Some("main"),
        "only the main thread is rotated"
    );
    let cpus = allowed();
    let Some(previous) = get(0).filter(|_| cpus.len() > 1) else {
        return f();
    };
    // The main thread's id is the process id.
    let main = std::process::id() as i32;
    // A stop flag that publishes no other data: `Relaxed` suffices.
    let done = AtomicBool::new(false);
    let out = std::thread::scope(|scope| {
        scope.spawn(|| {
            for &cpu in cpus.iter().cycle() {
                if done.load(Ordering::Relaxed) {
                    break;
                }
                set(main, &only(cpu));
                std::thread::sleep(DWELL);
            }
        });
        // Stops the helper even if `f` panics, so the scope can join it.
        let _stop = StopOnDrop(&done);
        f()
    });
    // The helper has been joined, so nothing moves the thread any more.
    set(main, &previous);
    out
}
