//! Turns a run's outcome and spans into the named metrics, and prints
//! the result line.

use std::collections::BTreeMap;

use perfbench::alloc;
use perfbench::stats::{self, quantile};
use perfbench::trace::Span;

use crate::run::{Outcome, Slice, LAT_GROUP};

/// One metric: name, unit, and value.
pub type Metric = (&'static str, &'static str, f64);

/// A per-layer metric: name, unit, the end-to-end metric it should
/// move, and the workloads where it does work.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub on: &'static [&'static str],
}

const INPROC: &str = "perf_inproc";
const RPC: &str = "rpc_socket";
const FED: &str = "perf_federated";

macro_rules! lm {
    ($name:expr, $unit:expr, $moves:expr, [$($on:expr),*]) => {
        LayerMetric { name: $name, unit: $unit, moves: $moves, on: &[$($on),*] }
    };
}

/// Every per-layer metric the traced run prints, in print order.
pub const LAYER_METRICS: &[LayerMetric] = &[
    lm!(
        "engine.enroll_wait_us.p50",
        "us",
        "op_p50_us",
        [INPROC, FED]
    ),
    lm!(
        "engine.enroll_wait_us.p99",
        "us",
        "op_p99_us",
        [INPROC, FED]
    ),
    lm!(
        "engine.release_wait_us.p50",
        "us",
        "op_p50_us",
        [INPROC, FED]
    ),
    lm!("engine.factory_us.p50", "us", "op_p50_us", [FED]),
    lm!(
        "engine.completed",
        "count",
        "check: equals ops",
        [INPROC, FED]
    ),
    lm!("chan.send_us.p50", "us", "op_p50_us", [INPROC, FED]),
    lm!("chan.recv_us.p50", "us", "op_p50_us", [INPROC, FED]),
    lm!(
        "wire.encode_ns",
        "ns",
        "op_p50_us, cpu_us_per_op",
        [RPC, FED]
    ),
    lm!(
        "wire.decode_ns",
        "ns",
        "op_p50_us, cpu_us_per_op",
        [RPC, FED]
    ),
    lm!("wire.bytes_out_per_op", "B/op", "ops_per_s", [RPC, FED]),
    lm!("wire.bytes_in_per_op", "B/op", "ops_per_s", [RPC, FED]),
    lm!("spoke.fwd_us.p50", "us", "op_p50_us", [RPC]),
    lm!("spoke.ack_us.p50", "us", "op_p50_us", [RPC]),
    lm!("spoke.dial_us.p50", "us", "op_p50_us", [FED]),
    lm!("spoke.relay_dials", "count", "check: must be 0", [RPC, FED]),
    lm!(
        "hub.worker_threads",
        "count",
        "op_p99_us; check: must be 0",
        [RPC, FED]
    ),
    lm!("fleet.place_us.p50", "us", "op_p50_us", [FED]),
    lm!("fleet.place_us.p99", "us", "op_p99_us", [FED]),
    lm!("fleet.redirect_share", "ratio", "input property", [FED]),
    lm!("fleet.placements", "count", "peak_rss_mib", [FED]),
    lm!(
        "fleet.relayed_bytes",
        "B",
        "peak_rss_mib; check: must be 0",
        [FED]
    ),
    lm!(
        "proc.allocs_per_op",
        "count/op",
        "cpu_us_per_op, op_p50_us",
        [INPROC, RPC, FED]
    ),
    lm!(
        "proc.alloc_bytes_per_op",
        "B/op",
        "cpu_us_per_op, op_p50_us",
        [INPROC, RPC, FED]
    ),
    lm!(
        "alloc.engine_per_op",
        "count/op",
        "cpu_us_per_op",
        [INPROC, FED]
    ),
    lm!(
        "alloc.chan_per_op",
        "count/op",
        "cpu_us_per_op",
        [INPROC, RPC, FED]
    ),
    lm!(
        "alloc.spoke_per_op",
        "count/op",
        "cpu_us_per_op",
        [RPC, FED]
    ),
    lm!("alloc.fleet_per_op", "count/op", "cpu_us_per_op", [FED]),
    lm!("alloc.bg_per_op", "count/op", "cpu_us_per_op", [RPC, FED]),
    lm!(
        "proc.threads_peak",
        "count",
        "cpu_us_per_op",
        [INPROC, RPC, FED]
    ),
    lm!(
        "trace.ops_per_s_ratio",
        "ratio",
        "tracing overhead",
        [INPROC, RPC, FED]
    ),
    lm!(
        "trace.enroll_sum_ratio",
        "ratio",
        "check: within 10% of 1",
        [INPROC, FED]
    ),
    lm!(
        "trace.send_sum_ratio",
        "ratio",
        "check: within 10% of 1",
        [RPC]
    ),
];

/// Why a metric reads zero on a workload that bypasses its layer.
fn bypass_reason(name: &str, workload: &str) -> &'static str {
    let layer = name.split('.').next().unwrap_or("");
    match (layer, workload) {
        ("engine", RPC) => "no performance: the spoke talks to the hub directly",
        ("chan", RPC) => "no role body: the sink's select is timed as spoke.fwd",
        ("wire" | "spoke" | "hub", INPROC) => "in-process network: no socket",
        ("fleet", _) => "no fleet on this workload",
        ("spoke", FED) => "long-lived spoke split is measured on rpc_socket",
        ("alloc", _) => "layer not called by this workload",
        ("trace", _) => "span pair not recorded on this workload",
        _ => "layer not exercised by this workload",
    }
}

/// The six end-to-end metrics of an untraced run.
///
/// They are taken over the least-stolen quarter of the window's slices:
/// every slice whose host CPU steal is at most the level that at least
/// a quarter of the slices stay within. On a shared virtual machine the
/// hypervisor at times runs other guests on this machine's CPUs for
/// seconds on end, and the slices it hits measure the neighbours more
/// than the program. The latencies are medians, over the latency groups
/// of those slices, of each group's p50 and p99.
pub fn end_to_end(out: &mut Outcome) -> Vec<Metric> {
    let ok = out.attempted - out.failed;
    out.check(ok > 0, || "no op completed".into());
    let mut levels: Vec<usize> = out.slices.iter().map(|s| s.steal).collect();
    levels.sort_unstable();
    let cut = levels
        .get(levels.len().saturating_sub(1) / 4)
        .copied()
        .unwrap_or(0);
    let kept: Vec<&Slice> = out.slices.iter().filter(|s| s.steal <= cut).collect();
    let secs: f64 = kept.iter().map(|s| s.secs).sum();
    let done: u64 = kept.iter().map(|s| s.ok).sum();
    let cpu: f64 = kept.iter().map(|s| s.cpu_s).sum();
    let groups: Vec<(u64, u64)> = out
        .lat_groups
        .iter()
        .take(cut + 1)
        .flatten()
        .copied()
        .collect();
    let p50: Vec<f64> = groups.iter().map(|g| g.0 as f64 / 1e3).collect();
    let p99: Vec<f64> = groups.iter().map(|g| g.1 as f64 / 1e3).collect();
    println!(
        "# slices: {} of {} kept (host CPU steal at most {cut} ticks each)",
        kept.len(),
        out.slices.len(),
    );
    out.check(!groups.is_empty(), || {
        format!("the kept slices hold no full group of {LAT_GROUP} latency samples: run longer")
    });
    vec![
        ("ops_per_s", "1/s", done as f64 / secs.max(1e-9)),
        ("op_p50_us", "us", stats::median(&p50)),
        ("op_p99_us", "us", stats::median(&p99)),
        ("cpu_us_per_op", "us", cpu * 1e6 / done.max(1) as f64),
        ("peak_rss_mib", "MiB", out.peak_rss_kib as f64 / 1024.0),
        ("setup_s", "s", stats::median(&out.setup_s)),
    ]
}

/// Durations (ns) of the measured window's spans named `name`.
fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect();
    v.sort_unstable();
    v
}

fn us_at(sorted: &[u64], p: f64) -> Option<f64> {
    quantile(sorted, p).map(|ns| ns as f64 / 1e3)
}

/// `spoke.fwd` and `spoke.ack` spans, paired by op from the spoke's
/// send span and the sink's pickup (the end of its selection).
pub fn derive_spoke_spans(spans: &mut Vec<Span>) {
    let picks: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == "chan.select")
        .map(|s| (s.op, s.end))
        .collect();
    let mut derived = Vec::new();
    for s in spans.iter().filter(|s| s.name == "spoke.send") {
        if let Some(&pick) = picks.get(&s.op) {
            let pick = pick.clamp(s.start, s.end);
            let id = perfbench::trace::new_id();
            derived.push(Span {
                name: "spoke.fwd",
                id,
                parent: s.id,
                op: s.op,
                start: s.start,
                end: pick,
            });
            let id = perfbench::trace::new_id();
            derived.push(Span {
                name: "spoke.ack",
                id,
                parent: s.id,
                op: s.op,
                start: pick,
                end: s.end,
            });
        }
    }
    spans.extend(derived);
}

/// The per-layer metrics of a traced run. `spans` holds the measured
/// window's spans only.
pub fn per_layer(workload: &str, out: &mut Outcome, spans: &[Span]) -> Vec<Metric> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let traced_ops = out.block_ops[1].max(1) as f64;
    let ok = (out.attempted - out.failed).max(1) as f64;

    let p50 = |name: &str| us_at(&durations(spans, name), 0.5);
    let p99 = |name: &str| us_at(&durations(spans, name), 0.99);
    let mut put = |k: &'static str, x: Option<f64>| {
        if let Some(x) = x {
            v.insert(k, x);
        }
    };
    put("engine.enroll_wait_us.p50", p50("engine.enroll_wait"));
    put("engine.enroll_wait_us.p99", p99("engine.enroll_wait"));
    put("engine.release_wait_us.p50", p50("engine.release_wait"));
    put("engine.factory_us.p50", p50("engine.factory"));
    put("chan.send_us.p50", p50("chan.send"));
    put("chan.recv_us.p50", p50("chan.recv"));
    put("spoke.fwd_us.p50", p50("spoke.fwd"));
    put("spoke.ack_us.p50", p50("spoke.ack"));
    put("spoke.dial_us.p50", p50("spoke.dial"));
    put("fleet.place_us.p50", p50("fleet.place"));
    put("fleet.place_us.p99", p99("fleet.place"));

    // The ~10% sum rule: the parts of a span, each at its p50, must add
    // up to the whole span's p50.
    let sum_ratio = |parts: &[&str], whole: &str| -> Option<f64> {
        let whole = p50(whole)?;
        let mut sum = 0.0;
        for part in parts {
            sum += p50(part)?;
        }
        Some(sum / whole)
    };
    let enroll = sum_ratio(
        &["engine.enroll_wait", "engine.body", "engine.release_wait"],
        "engine.enroll",
    );
    let send = sum_ratio(&["spoke.fwd", "spoke.ack"], "spoke.send");
    put("trace.enroll_sum_ratio", enroll);
    put("trace.send_sum_ratio", send);
    for (name, r) in [("enroll", enroll), ("send", send)] {
        if let Some(r) = r {
            out.check((0.9..=1.1).contains(&r), || {
                format!("{name} span parts sum to {r:.3} of the whole at p50 (need within 10%)")
            });
        }
    }

    // Counting ran during the traced blocks of the measured window only.
    // Keys in tag order; the last tag, the benchmark's own bookkeeping,
    // has none and drops out of the zip.
    const ALLOC_KEYS: [&str; 5] = [
        "alloc.bg_per_op",
        "alloc.engine_per_op",
        "alloc.chan_per_op",
        "alloc.spoke_per_op",
        "alloc.fleet_per_op",
    ];
    let (mut n, mut bytes) = (0u64, 0u64);
    for (key, (c, b)) in ALLOC_KEYS.into_iter().zip(alloc::snapshot()) {
        n += c;
        bytes += b;
        v.insert(key, c as f64 / traced_ops);
    }
    v.insert("proc.allocs_per_op", n as f64 / traced_ops);
    v.insert("proc.alloc_bytes_per_op", bytes as f64 / traced_ops);
    v.insert("proc.threads_peak", out.threads_peak as f64);

    let rate = |k: usize| out.block_ops[k] as f64 / (out.block_ns[k].max(1) as f64);
    if out.block_ops[0] > 0 && out.block_ops[1] > 0 {
        v.insert("trace.ops_per_s_ratio", rate(1) / rate(0));
    }
    for (k, x) in &out.layer {
        match *k {
            "wire.bytes_out" => v.insert("wire.bytes_out_per_op", x / ok),
            "wire.bytes_in" => v.insert("wire.bytes_in_per_op", x / ok),
            _ => v.insert(k, *x),
        };
    }

    println!(
        "# per-layer metrics ({workload}, {} traced ops):",
        out.block_ops[1]
    );
    println!(
        "# {:<28} {:>14} {:<9} {:<32} note",
        "metric", "value", "unit", "moves"
    );
    LAYER_METRICS
        .iter()
        .map(|m| {
            let x = v.get(m.name).copied().unwrap_or(0.0);
            let note = if m.on.contains(&workload) {
                ""
            } else {
                bypass_reason(m.name, workload)
            };
            println!(
                "# {:<28} {:>14.3} {:<9} {:<32} {note}",
                m.name, x, m.unit, m.moves
            );
            (m.name, m.unit, x)
        })
        .collect()
}

/// Prints the result object as one line.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, x)| {
            let x = if x.is_finite() { *x } else { 0.0 };
            format!("\"{name}\": {{\"value\": {x:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
