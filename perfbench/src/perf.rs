//! `perf_inproc` and `perf_federated`: successive 2-role ping/pong
//! performances (delayed initiation, delayed termination, one round
//! trip each). `perf_inproc` runs them on the default in-process
//! network; `perf_federated` places each one through a 2-shard
//! [`HubFleet`] and runs it over a fresh spoke dialed straight to the
//! home node.
//!
//! Two generator threads: the leading one enrolls `ping` once per op, the
//! peer enrolls `pong` until it receives [`STOP`]. An op is one whole
//! performance, timed on the leading generator from `enroll` call to
//! return.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use script_chan::{Network, ShardedTransport, Transport};
use script_core::{
    Enrollment, Initiation, Instance, NetworkFactory, PerformanceNet, RetryPolicy, RoleHandle,
    RoleId, Script, Termination,
};
use script_net::{DialPlan, FleetClient, HubFleet, SocketTransport, TransportServer};

use perfbench::alloc::{self, Layer};
use perfbench::gen::{self, FamilyKeys, Inputs, FLEET_SHARDS, STOP};
use perfbench::trace::{self, Timer};

use crate::run::{repeat_setup, Outcome, Tracing, Window, OP_TIMEOUT};

type Ping = RoleHandle<u64, u64, (u64, u64)>;
type Pong = RoleHandle<u64, (), u64>;

/// The ping/pong script: ping sends `v`, pong answers `v + 1`.
fn script() -> Result<(Script<u64>, Ping, Pong), String> {
    let mut b = Script::<u64>::builder("perfbench_pingpong");
    let pong_id = RoleId::new("pong");
    let ping = b.role("ping", move |ctx, v: u64| {
        trace::body_start();
        let t = Timer::start("chan.send");
        alloc::within(Layer::Chan, || ctx.send(&pong_id, v))?;
        t.stop();
        let t = Timer::start("chan.recv");
        let got = alloc::within(Layer::Chan, || ctx.recv_from(&pong_id))?;
        t.stop();
        trace::body_end();
        Ok((got, ctx.performance().0))
    });
    let ping_id = RoleId::new("ping");
    let pong = b.role("pong", move |ctx, ()| {
        let t = Timer::start("chan.recv");
        let v = alloc::within(Layer::Chan, || ctx.recv_from(&ping_id))?;
        t.stop();
        let t = Timer::start("chan.send");
        alloc::within(Layer::Chan, || ctx.send(&ping_id, v.wrapping_add(1)))?;
        t.stop();
        Ok(v)
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().map_err(|e| format!("build script: {e}"))?;
    Ok((script, ping, pong))
}

/// A spoke the factory built, awaiting the leading generator's audit.
struct Built {
    perf: u64,
    /// When the spoke was constructed (trace clock).
    at: u64,
    spoke: Arc<SocketTransport<RoleId, u64>>,
}

/// State the federated network factory shares with the leading
/// generator.
struct Placer {
    ctl: FleetClient,
    secret: u64,
    home: SocketAddr,
    relay: SocketAddr,
    keys: Mutex<FamilyKeys>,
    built: Mutex<VecDeque<Built>>,
    placements: AtomicU64,
    redirected: AtomicU64,
    errors: Mutex<Vec<String>>,
}

impl Placer {
    fn fail(&self, what: String) -> Network<RoleId, u64> {
        self.errors.lock().expect("errors poisoned").push(what);
        let net = Network::new();
        net.abort();
        net
    }

    /// The network factory body: place, verify, then dial the home
    /// node directly with a fresh spoke.
    fn build(&self, p: &PerformanceNet) -> Network<RoleId, u64> {
        let op = trace::current();
        let t0 = trace::now();
        let key = self
            .keys
            .lock()
            .expect("keys poisoned")
            .next_key()
            .to_string();
        let tp = trace::now();
        let placed = alloc::within(Layer::Fleet, || {
            self.ctl.place(&key, p.performance.0, &[], p.seed)
        });
        let tp_end = trace::now();
        let desc = match placed {
            Ok(d) => d,
            Err(e) => return self.fail(format!("place {key}: {e}")),
        };
        self.placements.fetch_add(1, Ordering::Relaxed);
        if gen::redirected(&key) {
            self.redirected.fetch_add(1, Ordering::Relaxed);
        }
        if !desc.verify(self.secret) || desc.perf != p.performance.0 {
            return self.fail(format!(
                "descriptor for perf {} does not verify",
                p.performance.0
            ));
        }
        if desc.home != self.home.to_string() {
            return self.fail(format!("placed on {} instead of {}", desc.home, self.home));
        }
        let at = trace::now();
        let spoke = alloc::within(Layer::Spoke, || {
            Arc::new(SocketTransport::<RoleId, u64>::with_plan(
                DialPlan::direct(self.home).with_relay(self.relay),
                RetryPolicy::new(6)
                    .with_base(Duration::from_millis(25))
                    .with_cap(Duration::from_millis(500)),
            ))
        });
        self.built.lock().expect("built poisoned").push_back(Built {
            perf: p.performance.0,
            at,
            spoke: Arc::clone(&spoke),
        });
        if op.traced {
            let f = trace::record("engine.factory", op.root, op.op, t0, trace::now());
            trace::record("fleet.place", f, op.op, tp, tp_end);
        }
        Network::with_transport(spoke)
    }
}

/// One deployment: the script instance plus, when federated, the fleet
/// and home node it places on. Fields drop in order: the instance and
/// its factory go before the home node and the fleet.
struct Rig {
    inst: Instance<u64>,
    ping: Ping,
    pong: Pong,
    placer: Option<Arc<Placer>>,
    home: Option<TransportServer<RoleId, u64>>,
    fleet: Option<HubFleet>,
}

fn setup(inputs: &Inputs, federated: bool) -> Result<Rig, String> {
    let (script, ping, pong) = script()?;
    let inst = script.instance();
    if !federated {
        return Ok(Rig {
            inst,
            ping,
            pong,
            placer: None,
            home: None,
            fleet: None,
        });
    }
    let fleet = HubFleet::launch(FLEET_SHARDS, inputs.fleet_secret)
        .map_err(|e| format!("launch fleet: {e}"))?;
    let inner: Arc<dyn Transport<RoleId, u64>> =
        Arc::new(ShardedTransport::new(false, Some(inputs.selection_seed)));
    let home =
        TransportServer::bind("127.0.0.1:0", inner).map_err(|e| format!("bind home: {e}"))?;
    let ctl = FleetClient::connect(&fleet.any_addr().to_string(), inputs.fleet_secret)
        .map_err(|e| format!("fleet connect: {e}"))?;
    ctl.register_node(&home.local_addr().to_string())
        .map_err(|e| format!("register home: {e}"))?;
    let placer = Arc::new(Placer {
        ctl,
        secret: inputs.fleet_secret,
        home: home.local_addr(),
        relay: fleet.any_addr(),
        keys: Mutex::new(inputs.family_keys()),
        built: Mutex::new(VecDeque::new()),
        placements: AtomicU64::new(0),
        redirected: AtomicU64::new(0),
        errors: Mutex::new(Vec::new()),
    });
    let p = Arc::clone(&placer);
    let factory: Arc<NetworkFactory<u64>> = Arc::new(move |net: &PerformanceNet| p.build(net));
    inst.set_network_factory(factory);
    Ok(Rig {
        inst,
        ping,
        pong,
        placer: Some(placer),
        home: Some(home),
        fleet: Some(fleet),
    })
}

/// Spoke traffic summed over every audited performance.
#[derive(Debug, Default)]
struct Traffic {
    bytes_out: u64,
    bytes_in: u64,
    relay_dials: u64,
}

/// Runs the workload for `seconds` after warm-up.
pub fn run(inputs: &Inputs, federated: bool, seconds: f64, trace_on: bool) -> Outcome {
    let (rig, setup_s) = match repeat_setup(|| setup(inputs, federated)) {
        Ok(r) => r,
        Err(e) => {
            return Outcome {
                errors: vec![e],
                ..Outcome::default()
            }
        }
    };
    let completed0 = rig.inst.completed_performances();
    let tracing = Tracing(match (trace_on, federated) {
        (false, _) => 0,
        (true, false) => 16,
        (true, true) => 2,
    });
    let stop = AtomicBool::new(false);
    let mut wire = Traffic::default();
    let mut ok_total = 0u64;
    let mut window_bytes = (0u64, 0u64);

    let mut out = thread::scope(|s| {
        let peer = s.spawn(|| {
            let _bench = alloc::enter(Layer::Bench);
            let mut op = 0u64;
            loop {
                let ctx = trace::begin_op(op, tracing.traces(op));
                let t0 = trace::now();
                let got = alloc::within(Layer::Engine, || {
                    rig.inst
                        .enroll_with(&rig.pong, (), Enrollment::new().timeout(OP_TIMEOUT))
                });
                if ctx.traced {
                    trace::record_with_id("engine.enroll_peer", ctx.root, 0, op, t0, trace::now());
                }
                op += 1;
                match got {
                    Ok(STOP) => break,
                    Ok(_) => {}
                    Err(_) if stop.load(Ordering::SeqCst) => break,
                    Err(_) => {}
                }
            }
            trace::flush();
        });

        let _bench = alloc::enter(Layer::Bench);
        let mut payloads = inputs.payloads();
        let mut w = Window::new(tracing, seconds, if federated { 8192 } else { 131_072 });
        let mut errors = Vec::new();
        let mut opened = false;
        while let Some((op, traced)) = w.next() {
            if !opened && w.measuring() {
                opened = true;
                window_bytes = (wire.bytes_out, wire.bytes_in);
            }
            let v = payloads.next().expect("payloads are endless");
            let ctx = trace::begin_op(op, traced);
            let t0 = trace::now();
            let start = Instant::now();
            let res = alloc::within(Layer::Engine, || {
                rig.inst
                    .enroll_with(&rig.ping, v, Enrollment::new().timeout(OP_TIMEOUT))
            });
            let lat = start.elapsed();
            let t1 = trace::now();
            let ok = match res {
                Ok((got, perf)) => {
                    if got != v + 1 {
                        errors.push(format!("op {op}: ping sent {v}, got {got} back"));
                    }
                    if let Some(p) = &rig.placer {
                        audit(p, perf, &mut wire, trace::current().body_start, traced);
                    }
                    true
                }
                Err(_) => false,
            };
            if traced {
                let c = trace::current();
                trace::record_with_id("engine.enroll", ctx.root, 0, op, t0, t1);
                if ok {
                    trace::record("engine.enroll_wait", ctx.root, op, t0, c.body_start);
                    trace::record("engine.body", ctx.root, op, c.body_start, c.body_end);
                    trace::record("engine.release_wait", ctx.root, op, c.body_end, t1);
                }
            }
            ok_total += u64::from(ok);
            w.done(ok.then_some(lat));
        }
        let mut out = w.finish();
        out.errors.extend(errors);
        if rig.placer.is_some() {
            out.layer
                .insert("wire.bytes_out", (wire.bytes_out - window_bytes.0) as f64);
            out.layer
                .insert("wire.bytes_in", (wire.bytes_in - window_bytes.1) as f64);
        }
        // Release the peer: one last, unmeasured performance carries STOP.
        stop.store(true, Ordering::SeqCst);
        let _ = trace::begin_op(u64::MAX, false);
        match alloc::within(Layer::Engine, || {
            rig.inst
                .enroll_with(&rig.ping, STOP, Enrollment::new().timeout(OP_TIMEOUT))
        }) {
            Ok((_, perf)) => {
                ok_total += 1;
                if let Some(p) = &rig.placer {
                    audit(p, perf, &mut wire, 0, false);
                }
            }
            Err(e) => out.errors.push(format!("stop performance failed: {e}")),
        }
        trace::flush();
        if peer.join().is_err() {
            out.errors.push("pong generator panicked".into());
        }
        out
    });

    let completed = rig.inst.completed_performances() - completed0;
    out.check(completed == ok_total, || {
        format!("engine completed {completed} performances, the generators saw {ok_total}")
    });
    out.layer.insert("engine.completed", completed as f64);
    if let Some(p) = &rig.placer {
        out.errors
            .extend(p.errors.lock().expect("errors poisoned").drain(..));
        let placements = p.placements.load(Ordering::Relaxed);
        let redirected = p.redirected.load(Ordering::Relaxed);
        let fleet = rig.fleet.as_ref().expect("federated rig has a fleet");
        let table = fleet.placements() as u64;
        out.check(table == placements, || {
            format!("fleet holds {table} placements, the factory made {placements}")
        });
        out.check(fleet.relayed_bytes() == 0, || {
            format!("fleet relayed {} bytes", fleet.relayed_bytes())
        });
        out.check(wire.relay_dials == 0, || {
            format!("{} spoke dials fell back to the relay", wire.relay_dials)
        });
        let home = rig.home.as_ref().expect("federated rig has a home node");
        out.check(home.worker_threads() == 0, || {
            format!(
                "home hub left its fast path {} times",
                home.worker_threads()
            )
        });
        out.layer
            .insert("hub.worker_threads", home.worker_threads() as f64);
        out.layer
            .insert("spoke.relay_dials", wire.relay_dials as f64);
        out.layer.insert("fleet.placements", table as f64);
        out.layer
            .insert("fleet.relayed_bytes", fleet.relayed_bytes() as f64);
        out.layer.insert(
            "fleet.redirect_share",
            redirected as f64 / placements.max(1) as f64,
        );
        out.check(redirected > 0 && redirected < placements, || {
            format!("{redirected} of {placements} placements redirected: one path unmeasured")
        });
    }
    if federated && trace_on {
        let (enc, dec) = crate::rpc::codec_ns(&RoleId::new("ping"), &RoleId::new("pong"), inputs);
        out.layer.insert("wire.encode_ns", enc);
        out.layer.insert("wire.decode_ns", dec);
    }
    out.setup_s = setup_s;
    drop(rig);
    out
}

/// Takes the spoke the factory built for `perf`, adds its traffic to
/// `wire`, and drops it. `body_start` (trace clock) closes the dial
/// span when the op is traced.
fn audit(p: &Placer, perf: u64, wire: &mut Traffic, body_start: u64, traced: bool) {
    let built = {
        let mut q = p.built.lock().expect("built poisoned");
        let Some(i) = q.iter().position(|b| b.perf == perf) else {
            p.errors
                .lock()
                .expect("errors poisoned")
                .push(format!("no spoke built for perf {perf}"));
            return;
        };
        q.remove(i).expect("index is in range")
    };
    wire.bytes_out += built.spoke.bytes_sent();
    wire.bytes_in += built.spoke.bytes_received();
    wire.relay_dials += built.spoke.relay_dials();
    if traced && body_start > built.at {
        let op = trace::current();
        trace::record("spoke.dial", op.root, op.op, built.at, body_start);
    }
}
