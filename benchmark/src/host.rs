//! Host facts the harness needs that `std` does not expose: CPU affinity,
//! CPU-time clocks, peak RSS and the hypervisor's steal counter. Linux only
//! (the `extern "C"` idiom of `shims/polling`; no libc crate offline).

use std::fs;

/// `cpu_set_t` is 1024 bits.
const CPU_SET_WORDS: usize = 16;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
}

/// Pins the calling thread to the first CPU of its allowed mask and returns
/// that CPU, or `None` when the kernel refuses either call. Threads spawned
/// afterwards inherit the mask, so calling this before `Server::start` puts
/// the event loop, the worker and the client loop on one CPU: on a box of
/// shared vCPUs the alternative is a placement that is bimodal for the whole
/// life of the process (see README, "Why one CPU").
pub fn pin_to_first_allowed_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed and
    // is only read by the call.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

fn cpu_clock_ns(clk: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout Linux uses
    // on 64-bit targets.
    let rc = unsafe { clock_gettime(clk, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `(steal, total)` jiffies from `/proc/stat`: the line of `cpu` when
/// pinned, else the all-CPU line. The share of ticks the hypervisor gave to
/// a neighbour over an interval is `Δsteal / Δtotal`.
pub fn steal_ticks(cpu: Option<usize>) -> (u64, u64) {
    let label = cpu.map_or_else(|| "cpu".to_string(), |c| format!("cpu{c}"));
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s
                .lines()
                .find(|l| l.split_whitespace().next() == Some(&label))?;
            let fields: Vec<u64> = line
                .split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect();
            // user nice system idle iowait irq softirq steal [guest guest_nice];
            // the guest columns are already inside user/nice.
            let total = fields.iter().take(8).sum();
            Some((*fields.get(7)?, total))
        })
        .unwrap_or((0, 0))
}

/// CPUs this process may run on (before pinning: the box's `nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
