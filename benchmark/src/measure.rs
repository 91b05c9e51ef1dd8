//! The measured pass and its estimator.
//!
//! A pass is a run of *windows*, each the same fixed number of logical ops.
//! On a box of shared vCPUs a neighbour's burst steals whole seconds, and
//! interference only ever adds time: so the **quiet decile** - the tenth of
//! windows with the smallest wall time - estimates the program's own cost,
//! and every timing-based end-to-end metric is computed over the ops of
//! those windows only. What the decile leaves out is reported, ungated, in
//! the `client.*` per-layer metrics.

use std::ops::Range;
use std::time::{Duration, Instant};

use crate::corpus::Model;
use crate::host;
use crate::ops::{execute, Stream, Transport, Workload};
use crate::trace::{median, quantile_sorted};
use crate::wire::Wire;

/// Windows per requested second: fixed-count windows are sized to ~40 ms.
const WINDOWS_PER_SECOND: usize = 24;
/// Untimed windows run before the first measured one (inside `setup_s`).
pub const WARMUP_WINDOWS: usize = 16;

/// How long a pass runs.
#[derive(Clone, Copy)]
pub struct Plan {
    pub ops_per_window: usize,
    /// Stop after this many windows...
    pub windows: usize,
    /// ...or when this much wall time is gone, whichever is first.
    pub wall_cap: Duration,
    /// Fewer windows than this is a failed run, not a result.
    pub min_windows: usize,
}

impl Plan {
    /// `seconds` of measurement at the reference speed: 24 windows per
    /// second, a wall cap of one and a half times that, and at least a
    /// quarter of the windows (10 s -> 240 windows, 15 s cap, 60 minimum).
    pub fn for_seconds(workload: Workload, seconds: f64) -> Plan {
        let windows = ((WINDOWS_PER_SECOND as f64 * seconds).round() as usize).max(10);
        Plan {
            ops_per_window: workload.ops_per_window(),
            windows,
            wall_cap: Duration::from_secs_f64(1.5 * seconds),
            min_windows: (windows / 4).max(1),
        }
    }
}

pub struct Window {
    pub wall_ns: u64,
    /// CPU time of the whole process minus the client thread's: the server.
    pub server_cpu_ns: u64,
    /// Primary-op round trips of this window, as a range of `Pass::rtts`.
    pub rtts: Range<usize>,
    /// A window with a failed op is never timed as a success.
    pub failed: u64,
}

/// Everything one pass observed.
#[derive(Default)]
pub struct Pass {
    pub ops_per_window: usize,
    pub windows: Vec<Window>,
    pub rtts: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Server-side heap allocations over the pass (count, bytes).
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub requests: u64,
    /// `/proc/stat` ticks of the pinned CPU over the pass: stolen, total.
    pub steal_ticks: u64,
    pub cpu_ticks: u64,
}

/// Runs windows of `plan.ops_per_window` ops until the plan is met.
pub fn run_pass(
    plan: Plan,
    stream: &mut Stream,
    model: &mut Model,
    wire: &mut Wire,
    cpu: Option<usize>,
) -> Pass {
    let mut pass = Pass {
        ops_per_window: plan.ops_per_window,
        windows: Vec::with_capacity(plan.windows),
        rtts: Vec::with_capacity(plan.windows * plan.ops_per_window),
        ..Default::default()
    };
    let (allocs0, alloc_bytes0) = crate::alloc::counters();
    let (out0, in0, req0) = (wire.bytes_out, wire.bytes_in, wire.requests);
    let (steal0, ticks0) = host::steal_ticks(cpu);
    let started = Instant::now();
    while pass.windows.len() < plan.windows && started.elapsed() < plan.wall_cap {
        let first_rtt = pass.rtts.len();
        let mut failed = 0;
        let (cpu0, client0) = (host::process_cpu_ns(), host::thread_cpu_ns());
        let t0 = Instant::now();
        for _ in 0..plan.ops_per_window {
            let op = stream.next_op(model);
            match execute(&op, model, wire) {
                Ok(rtt_ns) => pass.rtts.push(rtt_ns.min(u32::MAX as u64) as u32),
                Err(why) => {
                    failed += 1;
                    pass.first_failure.get_or_insert(why);
                }
            }
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let (cpu1, client1) = (host::process_cpu_ns(), host::thread_cpu_ns());
        pass.attempted += plan.ops_per_window as u64;
        pass.failed += failed;
        pass.windows.push(Window {
            wall_ns,
            server_cpu_ns: (cpu1 - cpu0).saturating_sub(client1 - client0),
            rtts: first_rtt..pass.rtts.len(),
            failed,
        });
    }
    let (allocs1, alloc_bytes1) = crate::alloc::counters();
    let (steal1, ticks1) = host::steal_ticks(cpu);
    pass.allocs = allocs1 - allocs0;
    pass.alloc_bytes = alloc_bytes1 - alloc_bytes0;
    pass.bytes_out = wire.bytes_out - out0;
    pass.bytes_in = wire.bytes_in - in0;
    pass.requests = wire.requests - req0;
    pass.steal_ticks = steal1 - steal0;
    pass.cpu_ticks = ticks1 - ticks0;
    pass
}

/// Untimed ops that fill caches and finish lazy set-up before the first
/// measured window. Returns `(attempted, failed, first failure)`.
pub fn warm_up(
    workload: Workload,
    stream: &mut Stream,
    model: &mut Model,
    tp: &mut impl Transport,
) -> (u64, u64, Option<String>) {
    let ops = WARMUP_WINDOWS * workload.ops_per_window();
    let (mut failed, mut first) = (0, None);
    for _ in 0..ops {
        let op = stream.next_op(model);
        if let Err(why) = execute(&op, model, tp) {
            failed += 1;
            first.get_or_insert(why);
        }
    }
    (ops as u64, failed, first)
}

/// The timing estimates of one pass.
pub struct Timing {
    pub ops_per_s: f64,
    pub rtt_p50_us: f64,
    /// Round trips the median was taken over.
    pub rtt_samples: usize,
    pub server_cpu_us_per_op: f64,
    /// Windows the estimates were taken over.
    pub windows: usize,
}

impl Pass {
    /// Pools `other`'s windows and counts into this pass. An untraced run
    /// measures a share of its windows on each of its set-ups, so that one
    /// heap layout or one bad stretch of seconds is not the whole sample.
    pub fn absorb(&mut self, other: Pass) {
        let shift = self.rtts.len();
        self.rtts.extend(other.rtts);
        self.windows.extend(other.windows.into_iter().map(|mut w| {
            w.rtts = w.rtts.start + shift..w.rtts.end + shift;
            w
        }));
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        self.requests += other.requests;
        self.steal_ticks += other.steal_ticks;
        self.cpu_ticks += other.cpu_ticks;
    }

    /// Share of the pinned CPU's ticks the hypervisor gave to a neighbour.
    pub fn steal_share(&self) -> f64 {
        self.steal_ticks as f64 / self.cpu_ticks.max(1) as f64
    }

    /// Windows without a failed op, fastest first.
    fn clean_by_wall(&self) -> Vec<&Window> {
        let mut clean: Vec<&Window> = self.windows.iter().filter(|w| w.failed == 0).collect();
        clean.sort_by_key(|w| w.wall_ns);
        clean
    }

    /// Estimates over the quiet decile. `None` when no window is clean.
    pub fn quiet(&self) -> Option<Timing> {
        let clean = self.clean_by_wall();
        let n = clean.len().div_ceil(10);
        self.timing(&clean[..n])
    }

    /// The same estimates over every clean window, unfiltered.
    pub fn all(&self) -> Option<Timing> {
        self.timing(&self.clean_by_wall())
    }

    fn timing(&self, windows: &[&Window]) -> Option<Timing> {
        if windows.is_empty() {
            return None;
        }
        let ops = (windows.len() * self.ops_per_window) as f64;
        let wall_ns: u64 = windows.iter().map(|w| w.wall_ns).sum();
        let cpu_ns: u64 = windows.iter().map(|w| w.server_cpu_ns).sum();
        let rtts: Vec<f64> = windows
            .iter()
            .flat_map(|w| &self.rtts[w.rtts.clone()])
            .map(|ns| *ns as f64)
            .collect();
        let rtt_samples = rtts.len();
        Some(Timing {
            ops_per_s: ops * 1e9 / wall_ns as f64,
            rtt_p50_us: median(rtts) / 1e3,
            rtt_samples,
            server_cpu_us_per_op: cpu_ns as f64 / 1e3 / ops,
            windows: windows.len(),
        })
    }

    /// p99 of every clean primary round trip, in us.
    pub fn rtt_p99_us(&self) -> f64 {
        let mut rtts: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.failed == 0)
            .flat_map(|w| &self.rtts[w.rtts.clone()])
            .map(|ns| *ns as f64 / 1e3)
            .collect();
        rtts.sort_by(f64::total_cmp);
        quantile_sorted(&rtts, 0.99)
    }

    /// p10 / p50 of window wall time: 1.0 on an undisturbed box.
    pub fn quiet_spread(&self) -> f64 {
        let walls: Vec<f64> = self
            .clean_by_wall()
            .iter()
            .map(|w| w.wall_ns as f64)
            .collect();
        let p50 = quantile_sorted(&walls, 0.5);
        if p50 == 0.0 {
            return 0.0;
        }
        quantile_sorted(&walls, 0.1) / p50
    }

    /// Median wall time of a clean window, unfiltered.
    pub fn median_window_ns(&self) -> f64 {
        median(
            self.clean_by_wall()
                .iter()
                .map(|w| w.wall_ns as f64)
                .collect(),
        )
    }

    pub fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass_with(walls: &[u64]) -> Pass {
        let mut rtts = Vec::new();
        let windows = walls
            .iter()
            .map(|&wall_ns| {
                let first = rtts.len();
                rtts.extend([wall_ns as u32 / 2; 2]);
                Window {
                    wall_ns,
                    server_cpu_ns: wall_ns / 4,
                    rtts: first..rtts.len(),
                    failed: 0,
                }
            })
            .collect();
        Pass {
            ops_per_window: 2,
            windows,
            rtts,
            attempted: 2 * walls.len() as u64,
            ..Default::default()
        }
    }

    #[test]
    fn quiet_decile_is_the_fastest_tenth_and_ignores_bursts() {
        // 18 undisturbed windows of 2 ops in 1000 ns, two hit by a burst.
        let mut walls = vec![1000u64; 18];
        walls.extend([50_000, 90_000]);
        let pass = pass_with(&walls);
        let quiet = pass.quiet().unwrap();
        assert_eq!(quiet.windows, 2);
        assert_eq!(quiet.ops_per_s, 2.0 * 1e9 / 1000.0);
        assert_eq!(quiet.rtt_p50_us, 0.5);
        assert_eq!(quiet.rtt_samples, 4);
        assert_eq!(quiet.server_cpu_us_per_op, 0.125);
        // The whole-run mean is what the earlier attempts reported.
        assert!(pass.all().unwrap().ops_per_s < quiet.ops_per_s / 5.0);
    }

    #[test]
    fn a_window_with_a_failed_op_is_never_timed() {
        let mut pass = pass_with(&[10, 1000, 1000]);
        pass.windows[0].failed = 1;
        assert_eq!(pass.quiet().unwrap().ops_per_s, 2.0 * 1e9 / 1000.0);
        pass.windows[1].failed = 1;
        pass.windows[2].failed = 1;
        assert!(pass.quiet().is_none());
    }

    #[test]
    fn plan_matches_the_issue_at_ten_seconds() {
        let plan = Plan::for_seconds(Workload::Propagate, 10.0);
        assert_eq!(
            (plan.windows, plan.min_windows, plan.ops_per_window),
            (240, 60, 16)
        );
        assert_eq!(plan.wall_cap, Duration::from_secs(15));
    }
}
