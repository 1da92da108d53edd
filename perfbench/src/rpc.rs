//! `rpc_socket`: one long-lived [`SocketTransport`] spoke sends `u64`s
//! at depth 1 to a sink local to the hub; the second generator thread
//! drains the sink with `select(recv_any)` on the hub's inner
//! transport. An op is one rendezvous: a send that completes at pickup.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use script_chan::{Arm, Outcome as Fired, ShardedTransport, Transport};
use script_core::RetryPolicy;
use script_net::proto::{Req, Resp};
use script_net::{SocketTransport, TransportServer, Wire};

use perfbench::alloc::{self, Layer};
use perfbench::gen::{Inputs, STOP};
use perfbench::trace;

use crate::run::{repeat_setup, Outcome, Tracing, Window, OP_TIMEOUT};

const SRC: &str = "src";
const SINK: &str = "sink";

/// The hub, its inner transport, and the connected spoke. Fields drop
/// in order: the spoke closes before its hub shuts down.
struct Rig {
    spoke: Arc<SocketTransport<String, u64>>,
    inner: Arc<dyn Transport<String, u64>>,
    server: TransportServer<String, u64>,
}

fn setup(inputs: &Inputs) -> Result<Rig, String> {
    let inner: Arc<dyn Transport<String, u64>> =
        Arc::new(ShardedTransport::new(false, Some(inputs.selection_seed)));
    let server = TransportServer::bind("127.0.0.1:0", Arc::clone(&inner))
        .map_err(|e| format!("bind hub: {e}"))?;
    inner.declare(SINK.to_string());
    inner.declare(SRC.to_string());
    inner.activate(SINK.to_string());
    let spoke = Arc::new(SocketTransport::<String, u64>::new(
        server.local_addr(),
        RetryPolicy::new(6)
            .with_base(Duration::from_millis(25))
            .with_cap(Duration::from_millis(500)),
    ));
    // The spoke dials lazily: this first RPC connects it.
    spoke.activate(SRC.to_string());
    if spoke.is_lost() {
        return Err("spoke could not reach the hub".into());
    }
    Ok(Rig {
        spoke,
        inner,
        server,
    })
}

/// Order-sensitive digest of a value sequence (FNV-1a over the bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    count: u64,
    hash: u64,
}

impl Digest {
    fn new() -> Self {
        Self {
            count: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn push(&mut self, v: u64) {
        self.count += 1;
        for b in v.to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn deadline() -> Option<Instant> {
    Some(Instant::now() + OP_TIMEOUT)
}

/// Runs the workload for `seconds` after warm-up.
pub fn run(inputs: &Inputs, seconds: f64, trace_on: bool) -> Outcome {
    let (rig, setup_s) = match repeat_setup(|| setup(inputs)) {
        Ok(r) => r,
        Err(e) => {
            return Outcome {
                errors: vec![e],
                ..Outcome::default()
            }
        }
    };
    let spoke = Arc::clone(&rig.spoke);
    let tracing = Tracing(if trace_on { 8 } else { 0 });
    let stop = AtomicBool::new(false);
    let (src, sink) = (SRC.to_string(), SINK.to_string());

    let mut out = thread::scope(|s| {
        let drain = s.spawn(|| {
            let _bench = alloc::enter(Layer::Bench);
            let mut got = Digest::new();
            let mut errors = Vec::new();
            let mut op = 0u64;
            loop {
                let ctx = trace::begin_op(op, tracing.traces(op));
                let t0 = trace::now();
                let r = alloc::within(Layer::Chan, || {
                    rig.inner.select(&sink, vec![Arm::recv_any()], deadline())
                });
                let t1 = trace::now();
                match r {
                    Ok(Fired::Received { msg: STOP, .. }) => break,
                    Ok(Fired::Received { from, msg, .. }) => {
                        if from != src {
                            errors.push(format!("sink received {msg} from {from}"));
                        }
                        got.push(msg);
                        if ctx.traced {
                            trace::record_with_id("chan.select", ctx.root, 0, op, t0, t1);
                        }
                    }
                    Ok(other) => errors.push(format!("sink selection fired {other:?}")),
                    Err(_) if stop.load(Ordering::SeqCst) => break,
                    Err(e) => errors.push(format!("sink selection failed: {e:?}")),
                }
                op += 1;
            }
            trace::flush();
            (got, errors)
        });

        let _bench = alloc::enter(Layer::Bench);
        let mut sent = Digest::new();
        let mut payloads = inputs.payloads();
        let mut w = Window::new(tracing, seconds, 65_536);
        let mut bytes0 = None;
        while let Some((op, traced)) = w.next() {
            if bytes0.is_none() && w.measuring() {
                bytes0 = Some((spoke.bytes_sent(), spoke.bytes_received()));
            }
            let v = payloads.next().expect("payloads are endless");
            let ctx = trace::begin_op(op, traced);
            let t0 = trace::now();
            let start = Instant::now();
            let r = alloc::within(Layer::Spoke, || spoke.send(&src, &sink, v, deadline()));
            let lat = start.elapsed();
            if traced {
                trace::record_with_id("spoke.send", ctx.root, 0, op, t0, trace::now());
            }
            if r.is_ok() {
                sent.push(v);
            }
            w.done(r.is_ok().then_some(lat));
        }
        let mut out = w.finish();
        let (out0, in0) = bytes0.unwrap_or_default();
        out.layer
            .insert("wire.bytes_out", (spoke.bytes_sent() - out0) as f64);
        out.layer
            .insert("wire.bytes_in", (spoke.bytes_received() - in0) as f64);
        stop.store(true, Ordering::SeqCst);
        if let Err(e) = spoke.send(&src, &sink, STOP, deadline()) {
            out.errors.push(format!("stop send failed: {e:?}"));
        }
        trace::flush();
        match drain.join() {
            Ok((got, errors)) => {
                out.errors.extend(errors);
                out.check(got == sent, || {
                    format!(
                        "sink received {} values, the spoke sent {}; or their order differs",
                        got.count, sent.count
                    )
                });
            }
            Err(_) => out.errors.push("sink generator panicked".into()),
        }
        out
    });

    let server = &rig.server;
    out.check(server.worker_threads() == 0, || {
        format!("hub left its fast path {} times", server.worker_threads())
    });
    out.check(spoke.relay_dials() == 0, || {
        "the spoke dialed through a relay".into()
    });
    out.layer
        .insert("hub.worker_threads", server.worker_threads() as f64);
    out.layer
        .insert("spoke.relay_dials", spoke.relay_dials() as f64);
    if trace_on {
        let (enc, dec) = codec_ns(&src, &sink, inputs);
        out.layer.insert("wire.encode_ns", enc);
        out.layer.insert("wire.decode_ns", dec);
    }
    out.setup_s = setup_s;
    drop(spoke);
    drop(rig);
    out
}

/// Items per timed codec batch, and batches timed.
const CODEC_BATCH: usize = 4096;
const CODEC_BATCHES: usize = 15;

/// Median nanoseconds to encode, and to decode, one op's frames: the
/// spoke's `(req_id, Req::Send)` and the hub's `(req_id, Resp::Unit)`
/// answer, over the workload's own payloads.
pub fn codec_ns<I: Wire + Clone>(from: &I, to: &I, inputs: &Inputs) -> (f64, f64) {
    let reqs: Vec<(u64, Req<I, u64>)> = inputs
        .payloads()
        .take(CODEC_BATCH)
        .enumerate()
        .map(|(i, msg)| {
            (
                i as u64 + 1,
                Req::Send {
                    from: from.clone(),
                    to: to.clone(),
                    msg,
                    timeout_ms: Some(OP_TIMEOUT.as_millis() as u64),
                },
            )
        })
        .collect();
    let resps: Vec<(u64, Resp<I, u64>)> =
        (1..=CODEC_BATCH as u64).map(|i| (i, Resp::Unit)).collect();
    let req_bytes: Vec<Vec<u8>> = reqs.iter().map(Wire::to_bytes).collect();
    let resp_bytes: Vec<Vec<u8>> = resps.iter().map(Wire::to_bytes).collect();
    let mut buf = Vec::with_capacity(256);
    let mut enc = Vec::with_capacity(CODEC_BATCHES);
    let mut dec = Vec::with_capacity(CODEC_BATCHES);
    for _ in 0..CODEC_BATCHES {
        let t0 = Instant::now();
        for (req, resp) in reqs.iter().zip(&resps) {
            buf.clear();
            black_box(req).encode(&mut buf);
            black_box(&buf);
            buf.clear();
            black_box(resp).encode(&mut buf);
            black_box(&buf);
        }
        enc.push(t0.elapsed().as_nanos() as f64 / CODEC_BATCH as f64);
        let t0 = Instant::now();
        for (req, resp) in req_bytes.iter().zip(&resp_bytes) {
            black_box(<(u64, Req<I, u64>)>::from_bytes(black_box(req)).is_ok());
            black_box(<(u64, Resp<I, u64>)>::from_bytes(black_box(resp)).is_ok());
        }
        dec.push(t0.elapsed().as_nanos() as f64 / CODEC_BATCH as f64);
    }
    (
        perfbench::stats::median(&enc),
        perfbench::stats::median(&dec),
    )
}
