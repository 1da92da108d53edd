//! What every workload shares: the closed loop's measured window,
//! set-up repetition, and the outcome it reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use perfbench::stats;
use perfbench::{alloc, host};

/// Deadline every op carries; an op that misses it counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(5);

/// Ops run before the measured window opens.
pub const WARMUP: Duration = Duration::from_millis(1000);

/// Length of one slice of the measured window. Each slice records its
/// ops, its CPU time, and the CPU steal the host saw in it: time the
/// hypervisor ran other guests on this machine's CPUs.
pub const SLICE: Duration = Duration::from_millis(100);

/// Steal levels (in clock ticks per slice) kept apart; more steal than
/// this counts as this level.
pub const MAX_STEAL_LEVEL: usize = 20;

/// Latency samples per group. Each group keeps only its p50 and p99, so
/// memory stays flat however many ops a run makes, and 11 samples lie
/// beyond each group's p99.
pub const LAT_GROUP: usize = 1100;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Ops per trace block. The traced run interleaves untraced blocks with
/// traced ones, so drift hits both sides of `trace.ops_per_s_ratio`
/// alike.
pub const BLOCK: u64 = 64;

/// Which blocks a run traces: every `stride`-th, none when 0. Workloads
/// pick the stride that keeps a traced run's span store to a few tens
/// of thousands of ops.
#[derive(Debug, Clone, Copy)]
pub struct Tracing(pub u64);

impl Tracing {
    /// Whether op `op` records spans. Every thread of a workload
    /// derives this from the op index alone, so all agree without
    /// talking.
    pub fn traces(self, op: u64) -> bool {
        self.0 > 0 && (op / BLOCK) % self.0 == self.0 - 1
    }

    /// Whether the run traces at all.
    pub fn on(self) -> bool {
        self.0 > 0
    }
}

/// Runs `setup` [`SETUP_REPS`] times, dropping each result but the
/// last (teardown is not timed), and returns it with every set-up time
/// in seconds.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let rig = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(rig);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Of those, ops that returned an error or missed their deadline.
    pub failed: u64,
    /// Output-check violations; any one fails the run.
    pub errors: Vec<String>,
    /// The measured window, cut into [`SLICE`]s.
    pub slices: Vec<Slice>,
    /// p50 and p99 latency (ns) of each full group of [`LAT_GROUP`]
    /// successful measured ops, grouped by the steal level of the slice
    /// each op completed in.
    pub lat_groups: Vec<Vec<(u64, u64)>>,
    /// Set-up times in seconds, one per repetition.
    pub setup_s: Vec<f64>,
    /// First and one-past-last op index of the measured window.
    pub ops: (u64, u64),
    /// Ops and wall nanoseconds of untraced `[0]` and traced `[1]`
    /// blocks in the measured window.
    pub block_ops: [u64; 2],
    /// See `block_ops`.
    pub block_ns: [u64; 2],
    /// Per-layer values the workload measured directly (counters and
    /// the like), by metric name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Peak thread count seen during the run (traced runs only).
    pub threads_peak: u64,
    /// Peak RSS (KiB) when the leading generator's `rss_at`-th op
    /// completed, or at the end of the window if the run made fewer ops.
    pub peak_rss_kib: u64,
}

impl Outcome {
    /// Records an output-check violation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// One slice of the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Wall seconds the slice lasted.
    pub secs: f64,
    /// Ops that succeeded in it.
    pub ok: u64,
    /// Process CPU seconds spent in it.
    pub cpu_s: f64,
    /// Host CPU steal during it, in clock ticks summed over CPUs,
    /// capped at [`MAX_STEAL_LEVEL`].
    pub steal: usize,
}

/// The leading generator thread's view of the run: when the warm-up
/// ends, when the measured window closes, and what happened in it.
#[derive(Debug)]
pub struct Window {
    tracing: Tracing,
    warm_end: Instant,
    end: Instant,
    measuring: bool,
    slice_start: Instant,
    slice_cpu: Duration,
    slice_steal: u64,
    slice_ok: u64,
    slice_lat: Vec<u64>,
    /// Per steal level, the group being filled.
    group: Vec<Vec<u64>>,
    prev_end: Instant,
    op: u64,
    rss_at: u64,
    traced: bool,
    out: Outcome,
}

impl Window {
    /// Starts the warm-up now; the window then lasts `seconds`. Peak
    /// RSS is read when op `rss_at` (counted from the first warm-up op)
    /// completes: a fixed op count, so state that grows per op, such as
    /// the fleet's placement table, is the same size in every run
    /// however fast the machine ran.
    pub fn new(tracing: Tracing, seconds: f64, rss_at: u64) -> Self {
        let now = Instant::now();
        let warm_end = now + WARMUP;
        Self {
            tracing,
            warm_end,
            end: warm_end + Duration::from_secs_f64(seconds),
            measuring: false,
            slice_start: now,
            slice_cpu: Duration::ZERO,
            slice_steal: 0,
            slice_ok: 0,
            slice_lat: Vec::new(),
            group: vec![Vec::new(); MAX_STEAL_LEVEL + 1],
            prev_end: now,
            op: 0,
            rss_at,
            traced: false,
            out: Outcome {
                lat_groups: vec![Vec::new(); MAX_STEAL_LEVEL + 1],
                ..Outcome::default()
            },
        }
    }

    /// The next op's index and whether it is traced, or `None` once the
    /// measured window has closed.
    pub fn next(&mut self) -> Option<(u64, bool)> {
        let now = Instant::now();
        if !self.measuring && now >= self.warm_end {
            self.measuring = true;
            self.prev_end = now;
            self.slice_start = now;
            self.slice_cpu = host::cpu_time();
            self.slice_steal = host::steal_ticks();
            self.out.ops.0 = self.op;
        }
        if self.measuring && now >= self.slice_start + SLICE {
            self.close_slice(now);
        }
        if self.measuring && now >= self.end {
            return None;
        }
        self.traced = self.tracing.traces(self.op);
        if self.tracing.on() {
            alloc::set_counting(self.measuring && self.traced);
            if self.measuring && self.traced && self.op.is_multiple_of(8) {
                self.out.threads_peak = self.out.threads_peak.max(host::threads());
            }
        }
        Some((self.op, self.traced))
    }

    /// Whether the measured window has opened.
    pub fn measuring(&self) -> bool {
        self.measuring
    }

    /// Ends the current op: `lat` is its latency when it succeeded.
    pub fn done(&mut self, lat: Option<Duration>) {
        let end = Instant::now();
        if self.measuring {
            self.out.attempted += 1;
            match lat {
                Some(l) => {
                    self.slice_ok += 1;
                    self.slice_lat.push(l.as_nanos() as u64);
                }
                None => self.out.failed += 1,
            }
            let k = usize::from(self.traced);
            self.out.block_ops[k] += 1;
            self.out.block_ns[k] += (end - self.prev_end).as_nanos() as u64;
        }
        self.prev_end = end;
        self.op += 1;
        if self.op == self.rss_at {
            self.out.peak_rss_kib = host::peak_rss_kib();
        }
    }

    fn close_slice(&mut self, now: Instant) {
        let cpu = host::cpu_time();
        let steal = host::steal_ticks();
        let level = (steal.saturating_sub(self.slice_steal) as usize).min(MAX_STEAL_LEVEL);
        self.out.slices.push(Slice {
            secs: (now - self.slice_start).as_secs_f64(),
            ok: self.slice_ok,
            cpu_s: cpu.saturating_sub(self.slice_cpu).as_secs_f64(),
            steal: level,
        });
        let group = &mut self.group[level];
        for ns in self.slice_lat.drain(..) {
            group.push(ns);
            if group.len() == LAT_GROUP {
                group.sort_unstable();
                let at = |p| stats::quantile(group, p).unwrap_or(0);
                self.out.lat_groups[level].push((at(0.5), at(0.99)));
                group.clear();
            }
        }
        self.slice_start = now;
        self.slice_cpu = cpu;
        self.slice_steal = steal;
        self.slice_ok = 0;
    }

    /// Closes the window and returns what it measured. A last slice
    /// shorter than half a [`SLICE`] is dropped.
    pub fn finish(mut self) -> Outcome {
        alloc::set_counting(false);
        let end = self.prev_end;
        if end - self.slice_start >= SLICE / 2 {
            self.close_slice(end);
        }
        self.out.ops.1 = self.op;
        if self.op < self.rss_at {
            self.out.peak_rss_kib = host::peak_rss_kib();
            println!(
                "# rss: read at the window's end, op {} of {}",
                self.op, self.rss_at
            );
        }
        self.out
    }
}
