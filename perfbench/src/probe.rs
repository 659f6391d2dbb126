//! Process probes: an allocation counter, process CPU time, peak
//! resident memory from `/proc`, and the host descriptor printed with
//! every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to the system allocator and, while counting is switched on,
/// tallies calls and requested bytes. Counting is on only inside the
/// traced run, so the timed run pays one relaxed load per allocation.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// The counters are statistics that publish no other data, so `Relaxed`
// suffices throughout.
fn tally(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each upholds exactly the contract its caller already guarantees; the
// tally touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's `layout` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with `layout`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (`System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls and requested bytes counted so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

/// Runs `f` with allocation counting switched on and returns its result
/// with the allocations made while it ran (by any thread).
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, AllocCount) {
    let before = AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    };
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let count = AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed) - before.allocs,
        bytes: BYTES.load(Ordering::Relaxed) - before.bytes,
    };
    (out, count)
}

/// `clockid_t` of the clock that counts this process's CPU time.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on Linux: both fields are a C `long`.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has used, all threads, user plus system, in
/// seconds. It is the `utime + stime` of `/proc/self/stat`, read from
/// `CLOCK_PROCESS_CPUTIME_ID` at nanosecond resolution instead of in
/// clock ticks, so stretches of about a second time to well under 1%.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `struct timespec`; the call writes only it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// One line naming the host and build: available parallelism, the Rust
/// compiler, and the source revision when the tree is a git checkout.
pub fn host_descriptor() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "host: nproc={nproc} rustc=\"{rustc}\" git={}",
        git_revision().unwrap_or_else(|| "unknown".to_owned())
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (and without looking above this directory).
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_owned())
    })
}
