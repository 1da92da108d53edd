//! The transport seam and the sharded in-process implementation.
//!
//! [`Transport`] abstracts the blocking rendezvous substrate a
//! [`Network`](crate::Network) runs on, so a future remote backend can
//! slot in without touching the engine or the translations.
//!
//! [`ShardedTransport`] is the in-process implementation: **one lock +
//! condvar per endpoint** instead of one per network. Hot-path
//! operations touch only the endpoints they name:
//!
//! * `send(a → b)` deposits into, and awaits pickup on, *b*'s endpoint;
//! * a selection by *s* sleeps on *s*'s own condvar; deposits to *s* and
//!   claims of *s*'s published offers land under *s*'s lock;
//! * a send arm `s → t` registers *s* as a *send watcher* on *t*, so
//!   *t*'s offer publications and slot releases wake exactly the
//!   selectors that care.
//!
//! Rare lifecycle transitions (declare/activate/finish/seal/abort) bump
//! a per-endpoint event counter and broadcast to every endpoint — the
//! only remaining thundering herd, and it fires once per role lifetime,
//! not once per message.
//!
//! Lost wakeups are prevented by an eventcount: every change a sleeping
//! selector could care about increments the endpoint's `signal` under
//! its lock; selectors re-read the counter before parking and rescan if
//! it moved. Locks are never nested endpoint-to-endpoint, so the
//! implementation is deadlock-free by construction.
//!
//! Fault decisions are routed at the edge: per-edge sequence counters
//! live in the *receiver's* endpoint and crash-step counters in the
//! operator's own endpoint, so decisions remain pure functions of
//! (seed, edge, seq) — determinism is preserved shard by shard. When the
//! attached plan cannot inject message faults (or crashes), the
//! corresponding hot path is gated by a single relaxed boolean load,
//! checked once per operation instead of consulting the plan per hop.

use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::fault::{FaultKind, FaultPlan, FaultRecord};
use crate::network::PeerState;
use crate::select::{Arm, Outcome, Source};
use crate::ChanError;

/// Callback invoked on every injected fault (see
/// [`Network::set_fault_observer`](crate::Network::set_fault_observer)).
pub type FaultObserver<I> = Arc<dyn Fn(&FaultRecord<I>) + Send + Sync>;

/// One completed rendezvous, observed at pickup on the receiving
/// endpoint (see
/// [`Network::set_rendezvous_observer`](crate::Network::set_rendezvous_observer)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RendezvousRecord<I> {
    /// The sending participant.
    pub from: I,
    /// The receiving participant.
    pub to: I,
    /// The message's protocol label, if the installed labeler produced
    /// one.
    pub label: Option<String>,
    /// Zero-based delivery counter for the directed edge `from → to`:
    /// a pure function of the communication schedule, so it is
    /// identical across runs — and across transports.
    pub seq: u64,
}

impl<I: fmt::Debug> fmt::Display for RendezvousRecord<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.label {
            Some(l) => write!(
                f,
                "rendezvous {:?} -> {:?} [{l}] #{}",
                self.from, self.to, self.seq
            ),
            None => write!(
                f,
                "rendezvous {:?} -> {:?} #{}",
                self.from, self.to, self.seq
            ),
        }
    }
}

/// Callback invoked on every completed rendezvous (see
/// [`Network::set_rendezvous_observer`](crate::Network::set_rendezvous_observer)).
pub type RendezvousObserver<I> = Arc<dyn Fn(&RendezvousRecord<I>) + Send + Sync>;

/// Extracts a protocol label from a message. Kept a plain `fn` pointer
/// — like `set_fault_plan`'s `clone_fn` — so [`Transport`] itself needs
/// no extra bounds on `M`.
pub type LabelFn<M> = fn(&M) -> Option<String>;

/// Callback invoked on every recorded latency sample (see
/// [`Network::set_latency_observer`](crate::Network::set_latency_observer)).
pub type LatencyObserver = Arc<dyn Fn(&LatencySample) + Send + Sync>;

/// A connection-lifecycle transition observed by a session-aware
/// transport (see
/// [`Network::set_session_observer`](crate::Network::set_session_observer)).
///
/// The in-process transport has no connections and never emits these;
/// a connection-oriented transport with a session layer emits them when
/// a peer's link drops, when it resumes within its lease, and when its
/// lease expires and the peer degrades to a crashed one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent<I> {
    /// `I`'s connection was severed; its session (and the performances
    /// it is bound to) stay alive until the lease expires.
    PeerDisconnected(I),
    /// A severed peer presented its session id again within the lease
    /// and resumed where it left off.
    PeerResumed(I),
    /// A severed peer's lease expired without a resume; it now degrades
    /// exactly like a crashed peer (`Terminated`, watchdog `Stalled`).
    LeaseExpired(I),
}

/// Callback invoked on every session-lifecycle transition.
pub type SessionObserver<I> = Arc<dyn Fn(&SessionEvent<I>) + Send + Sync>;

/// Completion callback for [`Transport::submit_send`]: invoked exactly
/// once with the result the blocking [`Transport::send`] would have
/// returned.
pub type SendDone<I> = Box<dyn FnOnce(Result<(), ChanError<I>>) + Send>;

/// Completion callback for [`Transport::submit_select`]: invoked
/// exactly once with the result the blocking [`Transport::select`]
/// would have returned.
pub type SelectDone<I, M> = Box<dyn FnOnce(Result<Outcome<I, M>, ChanError<I>>) + Send>;

/// Which blocking operation a [`LatencySample`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LatencyOp {
    /// A synchronous send that completed its rendezvous.
    Send,
    /// A selection that fired a receive or send arm.
    Select,
    /// A non-blocking receive that took a deposited message.
    TryRecv,
}

/// One *successful* operation's wall-clock latency, as observed by the
/// participant that issued it.
///
/// Failed operations, empty polls, and lifecycle calls are not sampled:
/// they measure control flow, not rendezvous cost, and tiny poll
/// samples would drag the quantiles under what an actual rendezvous
/// needs. For a remote transport the elapsed time includes the RPC
/// round trip, so hub-side rendezvous time is attributed to the
/// performance that paid for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LatencySample {
    /// The operation measured.
    pub op: LatencyOp,
    /// Wall-clock time from issue to completion.
    pub elapsed: Duration,
}

/// The blocking rendezvous substrate a [`Network`](crate::Network) runs
/// on.
///
/// All methods are object-safe: a `Network` holds an
/// `Arc<dyn Transport>`, so alternative backends (a remote transport, an
/// instrumented wrapper) plug in via
/// [`Network::with_transport`](crate::Network::with_transport) without
/// another engine rewrite. Message duplication support passes a
/// `clone_fn` alongside the plan so the trait itself needs no
/// `M: Clone` bound.
///
/// # Contract
///
/// Every implementation must satisfy the observable behavior below; the
/// [`conformance`](crate::conformance) module checks it mechanically and
/// must pass for any new backend.
///
/// * **Rendezvous.** [`Transport::send`] completes only when the
///   receiver has picked the message up (or fails); at most one message
///   per directed edge is in flight, so messages from one sender arrive
///   in send order (per-edge FIFO). This holds for pipelined
///   [`Transport::submit_send`]s too: sends submitted on one edge are
///   delivered in submission order, and one that fails is never
///   delivered.
/// * **Lifecycle.** Peers move `Expected → Active → Done`;
///   [`Transport::declare`] never downgrades a state. Operations naming
///   an `Expected` peer block (the role may yet enroll); operations
///   naming a `Done` peer fail with [`ChanError::Terminated`] *after*
///   any already-deposited message from it has been drained. A
///   selection whose arms are all permanently unfireable fails with
///   `Terminated` (single named peer) or [`ChanError::AllTerminated`].
/// * **Selection.** [`Transport::select`] fires exactly one arm, chosen
///   fairly among ready alternatives (seeded by
///   [`Transport::reseed`] for reproducibility); a send arm fires only
///   by claiming a peer already committed to a matching receive, so a
///   fired send arm proves delivery. Watch arms fire only once nothing
///   from the watched peer remains undelivered.
/// * **Deadlines.** An expired deadline surfaces
///   [`ChanError::Timeout`] and leaves no partial effect: a send that
///   timed out awaiting pickup reclaims its deposit.
/// * **Abort.** [`Transport::abort`] fails every blocked and future
///   operation with [`ChanError::Aborted`]; an already-claimed
///   rendezvous still completes (the sender has already seen success).
/// * **Faults.** With a [`FaultPlan`] attached, injection decisions are
///   pure functions of (seed, edge, per-edge sequence) made at the
///   *sending* edge, so the fault log for a fixed communication
///   schedule is identical across runs — and across transports. Remote
///   peer loss (a disconnected process) surfaces as the same
///   [`ChanError::Terminated`] a crashed peer produces.
/// * **Latency.** Measuring backends record a [`LatencySample`] for
///   every successful `send`, fired `select`, and non-empty `try_recv`
///   — and only those — so the per-operation sample counts for a fixed
///   communication schedule match across transports even though the
///   elapsed times differ.
pub trait Transport<I, M>: Send + Sync {
    /// Declares `id` as expected (idempotent, never downgrades).
    fn declare(&self, id: I);
    /// Marks `id` active, declaring it if necessary.
    fn activate(&self, id: I);
    /// Marks `id` done (finished or permanently barred).
    fn finish(&self, id: I);
    /// Seals: expected peers become done; on implicitly-declaring
    /// transports, future unknown peers are declared done.
    fn seal(&self);
    /// Aborts every blocked and future operation.
    fn abort(&self);
    /// Whether the transport has been aborted.
    fn is_aborted(&self) -> bool;
    /// Lifecycle state of `id`, `None` if never declared.
    fn peer_state(&self, id: &I) -> Option<PeerState>;
    /// All declared peers and their states, in unspecified order.
    fn peers(&self) -> Vec<(I, PeerState)>;
    /// Monotone progress counter (see
    /// [`Network::activity`](crate::Network::activity)).
    fn activity(&self) -> u64;
    /// Re-seeds the per-endpoint selection RNGs from `seed`.
    fn reseed(&self, seed: u64);
    /// Ensures `id` exists (implicit declaration if supported).
    fn ensure_peer(&self, id: &I) -> Result<(), ChanError<I>>;
    /// Whether a message from `from` is deposited at `to` (diagnostic).
    fn has_pending_from(&self, to: &I, from: &I) -> bool;
    /// Attaches a fault plan; `clone_fn` materializes duplicates.
    fn set_fault_plan(&self, plan: FaultPlan, clone_fn: fn(&M) -> M);
    /// Detaches the fault plan and discards its log.
    fn clear_fault_plan(&self);
    /// The currently attached plan, if any.
    fn fault_plan(&self) -> Option<FaultPlan>;
    /// Registers the fault observer callback.
    fn set_fault_observer(&self, observer: FaultObserver<I>);
    /// Registers a callback invoked on every *completed* rendezvous —
    /// at message pickup, on the receiving side — with `label_of`
    /// extracting each message's protocol label. Observers run inside
    /// the delivery path and must not call back into the transport.
    /// Backends that do not observe rendezvous may ignore it (the
    /// default does).
    fn set_rendezvous_observer(&self, observer: RendezvousObserver<I>, label_of: LabelFn<M>) {
        let _ = (observer, label_of);
    }
    /// A copy of the fault log.
    fn fault_log(&self) -> Vec<FaultRecord<I>>;
    /// Drains and returns the fault log.
    fn take_fault_log(&self) -> Vec<FaultRecord<I>>;
    /// Registers a callback invoked after every successful blocking
    /// operation with its measured latency. Backends that do not
    /// measure may ignore it (the default does).
    fn set_latency_observer(&self, observer: LatencyObserver) {
        let _ = observer;
    }
    /// A copy of the recent latency samples, oldest first (bounded:
    /// implementations retain a fixed number of recent samples).
    fn latency_samples(&self) -> Vec<LatencySample> {
        Vec::new()
    }
    /// Drains and returns the recent latency samples.
    fn take_latency_samples(&self) -> Vec<LatencySample> {
        Vec::new()
    }
    /// Registers a callback invoked on session-lifecycle transitions
    /// (disconnect, resume, lease expiry). Backends without a session
    /// layer never emit any and may ignore it (the default does).
    fn set_session_observer(&self, observer: SessionObserver<I>) {
        let _ = observer;
    }
    /// Feeds one session-lifecycle event to the registered observer.
    /// A hub serving this transport over a network calls this so
    /// participants local to the hub observe remote peers' lifecycle;
    /// backends that store no observer ignore it (the default does).
    fn note_session_event(&self, event: &SessionEvent<I>) {
        let _ = event;
    }
    /// Synchronous send `from → to` (two-phase rendezvous).
    fn send(&self, from: &I, to: &I, msg: M, deadline: Option<Instant>)
        -> Result<(), ChanError<I>>;
    /// Non-blocking receive of a deposited message.
    fn try_recv(&self, me: &I, from: &I) -> Result<Option<M>, ChanError<I>>;
    /// Guarded selection over `arms` on behalf of `me`.
    fn select(
        &self,
        me: &I,
        arms: Vec<Arm<I, M>>,
        deadline: Option<Instant>,
    ) -> Result<Outcome<I, M>, ChanError<I>>;
    /// Submits a send for *asynchronous* completion: the implementation
    /// calls `done` exactly once — possibly before returning — with the
    /// result the blocking [`Transport::send`] would have produced, and
    /// the calling thread never blocks on the rendezvous. An
    /// event-driven hub multiplexes thousands of in-flight sends onto
    /// one scheduler this way. Sends submitted on one edge keep the
    /// per-edge FIFO order of their submission.
    fn submit_send(
        self: Arc<Self>,
        from: &I,
        to: &I,
        msg: M,
        deadline: Option<Instant>,
        done: SendDone<I>,
    );
    /// Submits a selection for *asynchronous* completion, with the same
    /// contract as [`Transport::submit_send`]: `done` fires exactly
    /// once with the blocking [`Transport::select`]'s result.
    fn submit_select(
        self: Arc<Self>,
        me: &I,
        arms: Vec<Arm<I, M>>,
        deadline: Option<Instant>,
        done: SelectDone<I, M>,
    );
}

const LIFE_EXPECTED: u8 = 0;
const LIFE_ACTIVE: u8 = 1;
const LIFE_DONE: u8 = 2;

fn life_of(v: u8) -> PeerState {
    match v {
        LIFE_ACTIVE => PeerState::Active,
        LIFE_DONE => PeerState::Done,
        _ => PeerState::Expected,
    }
}

#[derive(Debug)]
struct WaitEntry<I> {
    /// The receive sources this blocked participant is offering.
    offers: Vec<Source<I>>,
    /// Set by a claiming sender: the peer whose message must be taken.
    resolved: Option<I>,
}

impl<I: PartialEq> WaitEntry<I> {
    fn offers_from(&self, sender: &I) -> bool {
        self.offers
            .iter()
            .any(|s| matches!(s, Source::Any) || matches!(s, Source::Of(p) if p == sender))
    }
}

/// One participant's shard: its own lock, condvar, and lifecycle word.
struct Endpoint<I, M> {
    /// Lifecycle (`LIFE_*`), readable without the lock.
    life: AtomicU8,
    state: Mutex<EpState<I, M>>,
    cond: Condvar,
}

struct EpState<I, M> {
    /// Messages to me, keyed by sender: at most one in flight per edge.
    inbox: HashMap<I, M>,
    /// My side of each edge into me, keyed by sender.
    edges: HashMap<I, Edge>,
    /// My published receive offers, claimable by send arms.
    wait: Option<WaitEntry<I>>,
    /// Eventcount: bumped under this lock on every change a sleeper on
    /// `cond` could care about. Selectors re-read it before parking.
    signal: u64,
    /// Selectors with a send arm targeting me, woken when my offers or
    /// inbox slots change. `(token, endpoint)` so a selector can remove
    /// exactly its own registration.
    watchers: Vec<(u64, Arc<Endpoint<I, M>>)>,
    /// Fair-choice RNG for selections by this endpoint.
    rng: SmallRng,
    /// Per-edge send counters for edges *into* me (chaos decisions).
    chaos_in_seqs: HashMap<I, u64>,
    /// Per-edge *delivery* counters for edges into me, advanced only
    /// while a rendezvous observer is installed.
    rdv_in_seqs: HashMap<I, u64>,
    /// My operation counter driving crash-at-step-*k*.
    chaos_steps: u64,
    /// Asynchronous operations parked on this endpoint: single-shot
    /// `(op token, scheduler)` registrations drained — each token pushed
    /// onto its scheduler's ready queue — whenever the eventcount bumps.
    op_waiters: Vec<(u64, Arc<SchedShared<I, M>>)>,
}

impl<I, M> EpState<I, M> {
    /// Bumps the eventcount and hands every parked asynchronous
    /// operation to its scheduler. Every mutation a sleeper on the
    /// endpoint's condvar could care about must go through here, so
    /// submitted operations observe exactly the wakeups blocking ones
    /// do. Lock order is endpoint → scheduler queue; the
    /// scheduler never takes an endpoint lock while holding its queue.
    fn bump_signal(&mut self) {
        self.signal += 1;
        for (token, sched) in self.op_waiters.drain(..) {
            let mut q = sched.queue.lock();
            q.ready.push_back(token);
            sched.cond.notify_one();
        }
    }
}

impl<I: Clone + Eq + Hash, M> EpState<I, M> {
    /// My side of the edge from `from`, created on first use (the only
    /// time its key is cloned).
    fn edge(&mut self, from: &I) -> &mut Edge {
        if !self.edges.contains_key(from) {
            self.edges.insert(from.clone(), Edge::default());
        }
        self.edges.get_mut(from).expect("inserted above")
    }
}

/// A receiver's side of one edge: its pickup count, and the queue of
/// the sender's send ops in the order of their first poll. Only the
/// queue's head may deposit, which makes per-edge FIFO hold for
/// pipelined sends by construction.
#[derive(Default)]
struct Edge {
    /// Pickups so far, awaited by the sender's phase 2.
    acks: u64,
    /// Tickets handed out so far.
    issued: u64,
    /// The queued ops' tickets, head first.
    queue: VecDeque<u64>,
}

/// Chaos configuration, shared read-only once attached.
struct FaultConfig<M> {
    plan: FaultPlan,
    clone_fn: fn(&M) -> M,
}

/// What the chaos gate decided for one message.
struct EdgeFaults<M> {
    /// The edge's sequence number the decisions were made for.
    seq: u64,
    /// `Partition` or `Sever`: decided and recorded at the sending edge
    /// like every other class — which keeps fault logs identical across
    /// transports — but enacted only by a connection-oriented hub
    /// observing the record. In-process it is a no-op.
    conn: Option<FaultKind>,
    /// Hold the message back this long before it may deposit.
    delay: Option<Duration>,
    /// Lose the message on the wire after transmission: the sender
    /// observes success (unless the peer is already gone); the receiver
    /// never sees it.
    drop: bool,
    /// Materializes a duplicate, redelivered best-effort after pickup.
    dup: Option<fn(&M) -> M>,
}

/// Cold-path fault state: hot paths read only the two booleans.
struct FaultHooks<I, M> {
    /// `plan.has_message_faults() || plan.has_connection_faults()`,
    /// readable without a lock (both classes decide per message at the
    /// sending edge, so they share the per-send gate).
    msg_faults: AtomicBool,
    /// `plan.has_crashes()`, readable without a lock.
    crashes: AtomicBool,
    config: Mutex<Option<Arc<FaultConfig<M>>>>,
    observer: Mutex<Option<FaultObserver<I>>>,
    session_observer: Mutex<Option<SessionObserver<I>>>,
    log: Mutex<Vec<FaultRecord<I>>>,
}

/// Cold-path rendezvous observation state: the no-observer pickup path
/// reads only the boolean — one relaxed load per delivery.
struct RendezvousHooks<I, M> {
    /// Whether an observer is installed, readable without a lock.
    enabled: AtomicBool,
    observer: Mutex<Option<RendezvousObserver<I>>>,
    label_of: Mutex<Option<LabelFn<M>>>,
}

/// Latency recording shared by measuring transports: a bounded ring of
/// recent samples plus an optional observer, both fed after every
/// successful blocking operation. Embed one and delegate the three
/// latency methods of [`Transport`] to it.
pub struct LatencyHooks {
    log: Mutex<VecDeque<LatencySample>>,
    observer: Mutex<Option<LatencyObserver>>,
}

/// Most recent latency samples retained per transport.
const LATENCY_LOG_CAP: usize = 1024;

impl fmt::Debug for LatencyHooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHooks")
            .field("samples", &self.log.lock().len())
            .finish()
    }
}

impl Default for LatencyHooks {
    fn default() -> Self {
        Self {
            log: Mutex::new(VecDeque::with_capacity(64)),
            observer: Mutex::new(None),
        }
    }
}

impl LatencyHooks {
    /// Appends a sample (evicting the oldest past the cap) and notifies
    /// the observer, if any.
    pub fn record(&self, op: LatencyOp, elapsed: Duration) {
        let sample = LatencySample { op, elapsed };
        {
            let mut log = self.log.lock();
            if log.len() == LATENCY_LOG_CAP {
                log.pop_front();
            }
            log.push_back(sample);
        }
        let obs = self.observer.lock().clone();
        if let Some(obs) = obs {
            obs(&sample);
        }
    }

    /// Installs (replacing) the observer callback.
    pub fn set_observer(&self, observer: LatencyObserver) {
        *self.observer.lock() = Some(observer);
    }

    /// A copy of the retained samples, oldest first.
    pub fn samples(&self) -> Vec<LatencySample> {
        self.log.lock().iter().copied().collect()
    }

    /// Drains and returns the retained samples.
    pub fn take_samples(&self) -> Vec<LatencySample> {
        self.log.lock().drain(..).collect()
    }
}

/// The in-process sharded transport (see the module docs).
pub struct ShardedTransport<I, M> {
    endpoints: RwLock<HashMap<I, Arc<Endpoint<I, M>>>>,
    implicit_declare: bool,
    sealed: AtomicBool,
    aborted: AtomicBool,
    activity: AtomicU64,
    /// Root seed for per-endpoint RNGs (`None` = entropy).
    seed: Mutex<Option<u64>>,
    /// Unique tokens for watcher registrations.
    next_token: AtomicU64,
    /// Peers currently severed but inside their session lease (a
    /// session-aware hub reports them via
    /// [`Transport::note_session_event`]). While any peer is suspended
    /// the network is *reconfiguring*, not quiescent — see
    /// [`ShardedTransport::activity`].
    suspended: Mutex<Vec<I>>,
    /// Per-read synthetic progress ticks handed out while a lease is
    /// pending.
    lease_ticks: AtomicU64,
    /// The lazily-started scheduler driving asynchronous operations
    /// ([`Transport::submit_send`]/[`Transport::submit_select`]): one
    /// thread for the whole transport, regardless of how many ops are
    /// in flight.
    sched: Mutex<Option<Arc<SchedShared<I, M>>>>,
    faults: FaultHooks<I, M>,
    rendezvous: RendezvousHooks<I, M>,
    latency: LatencyHooks,
}

impl<I, M> Drop for ShardedTransport<I, M> {
    fn drop(&mut self) {
        // Release the scheduler thread (it holds only a weak reference
        // back to the transport, so this is the last liveness signal it
        // gets).
        if let Some(sched) = self.sched.lock().take() {
            sched.queue.lock().shutdown = true;
            sched.cond.notify_all();
        }
    }
}

impl<I, M> fmt::Debug for ShardedTransport<I, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedTransport")
            .field(
                "endpoints",
                &self.endpoints.read().map(|g| g.len()).unwrap_or(0),
            )
            .field("aborted", &self.aborted.load(Ordering::Relaxed))
            .field("sealed", &self.sealed.load(Ordering::Relaxed))
            .finish()
    }
}

/// Derives a per-endpoint RNG seed from the root seed and the endpoint
/// id (deterministic within a build: `DefaultHasher::new` is keyless).
fn derive_seed<I: Hash>(root: u64, id: &I) -> u64 {
    let mut h = DefaultHasher::new();
    root.hash(&mut h);
    id.hash(&mut h);
    h.finish()
}

impl<I, M> ShardedTransport<I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    /// Creates a transport. `implicit_declare` networks auto-declare
    /// unknown peers; `seed` fixes the selection RNGs for reproducibility.
    pub fn new(implicit_declare: bool, seed: Option<u64>) -> Self {
        Self {
            endpoints: RwLock::new(HashMap::new()),
            implicit_declare,
            sealed: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            activity: AtomicU64::new(0),
            seed: Mutex::new(seed),
            next_token: AtomicU64::new(0),
            suspended: Mutex::new(Vec::new()),
            lease_ticks: AtomicU64::new(0),
            sched: Mutex::new(None),
            faults: FaultHooks {
                msg_faults: AtomicBool::new(false),
                crashes: AtomicBool::new(false),
                config: Mutex::new(None),
                observer: Mutex::new(None),
                session_observer: Mutex::new(None),
                log: Mutex::new(Vec::new()),
            },
            rendezvous: RendezvousHooks {
                enabled: AtomicBool::new(false),
                observer: Mutex::new(None),
                label_of: Mutex::new(None),
            },
            latency: LatencyHooks::default(),
        }
    }

    fn new_endpoint(&self, id: &I, life: u8) -> Arc<Endpoint<I, M>> {
        let rng = match *self.seed.lock() {
            Some(root) => SmallRng::seed_from_u64(derive_seed(root, id)),
            None => SmallRng::from_entropy(),
        };
        Arc::new(Endpoint {
            life: AtomicU8::new(life),
            state: Mutex::new(EpState {
                inbox: HashMap::new(),
                edges: HashMap::new(),
                wait: None,
                signal: 0,
                watchers: Vec::new(),
                rng,
                chaos_in_seqs: HashMap::new(),
                rdv_in_seqs: HashMap::new(),
                chaos_steps: 0,
                op_waiters: Vec::new(),
            }),
            cond: Condvar::new(),
        })
    }

    /// Read access to the endpoint registry (poisoning swallowed, in
    /// the style of the vendored `parking_lot` shim).
    fn registry(&self) -> RwLockReadGuard<'_, HashMap<I, Arc<Endpoint<I, M>>>> {
        self.endpoints
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn registry_mut(&self) -> RwLockWriteGuard<'_, HashMap<I, Arc<Endpoint<I, M>>>> {
        self.endpoints
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lookup(&self, id: &I) -> Option<Arc<Endpoint<I, M>>> {
        self.registry().get(id).cloned()
    }

    /// Gets the endpoint for `id`, creating it with `life` if absent.
    fn get_or_create(&self, id: &I, life: u8) -> Arc<Endpoint<I, M>> {
        if let Some(ep) = self.lookup(id) {
            return ep;
        }
        let mut w = self.registry_mut();
        if let Some(ep) = w.get(id) {
            return ep.clone();
        }
        let ep = self.new_endpoint(id, life);
        w.insert(id.clone(), ep.clone());
        ep
    }

    /// Resolves `id`, implicitly declaring it if the transport allows.
    fn ensure(&self, id: &I) -> Result<Arc<Endpoint<I, M>>, ChanError<I>> {
        if let Some(ep) = self.lookup(id) {
            return Ok(ep);
        }
        if self.implicit_declare {
            let life = if self.sealed.load(Ordering::SeqCst) {
                LIFE_DONE
            } else {
                LIFE_EXPECTED
            };
            Ok(self.get_or_create(id, life))
        } else {
            Err(ChanError::Unknown(id.clone()))
        }
    }

    /// Bumps every endpoint's eventcount and wakes all sleepers. Used by
    /// the rare lifecycle transitions (and abort/seal), whose effects
    /// any blocked operation anywhere may be waiting on.
    fn broadcast(&self) {
        let eps: Vec<Arc<Endpoint<I, M>>> = self.registry().values().cloned().collect();
        Self::wake(eps);
    }

    /// Bumps each endpoint's eventcount and wakes its sleepers. Call
    /// *without* holding any endpoint lock — e.g. on a snapshot of an
    /// endpoint's send watchers taken under its lock.
    fn wake(eps: impl IntoIterator<Item = Arc<Endpoint<I, M>>>) {
        for ep in eps {
            ep.state.lock().bump_signal();
            ep.cond.notify_all();
        }
    }

    fn chaos_cfg(&self) -> Option<Arc<FaultConfig<M>>> {
        self.faults.config.lock().clone()
    }

    /// Records an injected fault in the log and tells the observer.
    fn record_fault(&self, kind: FaultKind, from: &I, to: &I, seq: u64) {
        let record = FaultRecord {
            kind,
            from: from.clone(),
            to: to.clone(),
            seq,
        };
        let obs = self.faults.observer.lock().clone();
        if let Some(obs) = obs {
            obs(&record);
        }
        self.faults.log.lock().push(record);
    }

    /// Counts one operation by `me` toward crash-at-step-*k*; on a
    /// crash, marks `me` done and broadcasts the transition.
    fn chaos_step(&self, me: &I, me_ep: &Arc<Endpoint<I, M>>) -> Result<(), ChanError<I>> {
        let Some(cfg) = self.chaos_cfg() else {
            return Ok(());
        };
        if !cfg.plan.has_crashes() {
            return Ok(());
        }
        let crashed = {
            let mut st = me_ep.state.lock();
            st.chaos_steps += 1;
            st.chaos_steps == cfg.plan.crash_step() && cfg.plan.decide_crash(me)
        };
        if crashed {
            me_ep.life.store(LIFE_DONE, Ordering::SeqCst);
            self.activity.fetch_add(1, Ordering::Relaxed);
            self.record_fault(FaultKind::Crash, me, me, cfg.plan.crash_step());
            self.broadcast();
            return Err(ChanError::Terminated(me.clone()));
        }
        Ok(())
    }

    /// The chaos gate for one message `from → to`, under the receiver's
    /// lock `st`: advances the edge's sequence counter and decides every
    /// per-message fault class. This is the only place those decisions
    /// are made, for sends and send arms alike; a send arm is gated by
    /// drop alone. `None` when the attached plan (if any) leaves the
    /// message untouched. Log the result with [`Self::record_edge`]
    /// once the lock is released.
    fn chaos_gate(
        &self,
        st: &mut EpState<I, M>,
        from: &I,
        to: &I,
        arm: bool,
    ) -> Option<EdgeFaults<M>> {
        if !self.faults.msg_faults.load(Ordering::Relaxed) {
            return None;
        }
        let cfg = self.chaos_cfg()?;
        let plan = &cfg.plan;
        let msg = plan.has_message_faults();
        if !msg && (arm || !plan.has_connection_faults()) {
            return None;
        }
        let c = st.chaos_in_seqs.entry(from.clone()).or_insert(0);
        let seq = *c;
        *c += 1;
        let conn = if arm {
            None
        } else if plan.decide_partition(from, to, seq) {
            Some(FaultKind::Partition)
        } else if plan.decide_sever(from, to, seq) {
            Some(FaultKind::Sever)
        } else {
            None
        };
        let plain = msg && !arm;
        let drop = msg && plan.decide_drop(from, to, seq);
        Some(EdgeFaults {
            seq,
            conn,
            delay: (plain && plan.decide_delay(from, to, seq)).then(|| plan.delay()),
            drop,
            dup: (plain && !drop && plan.decide_duplicate(from, to, seq)).then_some(cfg.clone_fn),
        })
    }

    /// Logs what [`Self::chaos_gate`] injected, at decision time and in
    /// a fixed order, so the log is a pure function of the plan.
    fn record_edge(&self, from: &I, to: &I, f: &EdgeFaults<M>) {
        let kinds = [
            f.conn,
            f.dup.map(|_| FaultKind::Duplicate),
            f.delay.map(|_| FaultKind::Delay),
            f.drop.then_some(FaultKind::Drop),
        ];
        for kind in kinds.into_iter().flatten() {
            self.record_fault(kind, from, to, f.seq);
        }
    }

    /// Takes the message from `from` out of `me`'s inbox (`st` is
    /// `me`'s state), acking it. Every delivery path — blocking and
    /// asynchronous receives, selections, and claimed send arms — funnels
    /// through here, so this is the single point where a completed
    /// rendezvous becomes observable.
    ///
    /// Consumes `me`'s guard `st`: after a pickup it wakes the sender,
    /// whose phase 2 sleeps on `me`'s condvar, and the watchers that may
    /// care about the freed slot.
    fn take_from(
        &self,
        me_ep: &Endpoint<I, M>,
        mut st: parking_lot::MutexGuard<'_, EpState<I, M>>,
        me: &I,
        from: &I,
    ) -> Option<M> {
        let msg = st.inbox.remove(from)?;
        st.edge(from).acks += 1;
        st.bump_signal();
        self.activity.fetch_add(1, Ordering::Relaxed);
        if self.rendezvous.enabled.load(Ordering::Relaxed) {
            self.record_rendezvous(&mut st, me, from, &msg);
        }
        let watchers = st.watchers.clone();
        drop(st);
        me_ep.cond.notify_all();
        Self::wake(watchers.into_iter().map(|(_, w)| w));
        Some(msg)
    }

    /// Records one completed rendezvous: assigns the per-edge delivery
    /// seq and invokes the observer, all under the receiver's endpoint
    /// lock — so observer call order can never invert against pickup
    /// order on any edge into this endpoint (a sequencing hub relies on
    /// that for gapless replay). The lock order is endpoint → observer
    /// internals; observers must therefore never call back into the
    /// transport.
    fn record_rendezvous(&self, st: &mut EpState<I, M>, me: &I, from: &I, msg: &M) {
        let c = st.rdv_in_seqs.entry(from.clone()).or_insert(0);
        let seq = *c;
        *c += 1;
        let label_of = *self.rendezvous.label_of.lock();
        let obs = self.rendezvous.observer.lock().clone();
        if let Some(obs) = obs {
            obs(&RendezvousRecord {
                from: from.clone(),
                to: me.clone(),
                label: label_of.and_then(|f| f(msg)),
                seq,
            });
        }
    }

    /// Any peer other than `me` that could still produce a message?
    fn any_possible_sender(&self, me: &I) -> bool {
        if self.implicit_declare && !self.sealed.load(Ordering::SeqCst) {
            return true;
        }
        self.registry()
            .iter()
            .any(|(id, ep)| id != me && ep.life.load(Ordering::SeqCst) != LIFE_DONE)
    }
}

impl<I, M> Transport<I, M> for ShardedTransport<I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    fn declare(&self, id: I) {
        self.get_or_create(&id, LIFE_EXPECTED);
        self.activity.fetch_add(1, Ordering::Relaxed);
        self.broadcast();
    }

    fn activate(&self, id: I) {
        let ep = self.get_or_create(&id, LIFE_ACTIVE);
        ep.life.store(LIFE_ACTIVE, Ordering::SeqCst);
        self.activity.fetch_add(1, Ordering::Relaxed);
        self.broadcast();
    }

    fn finish(&self, id: I) {
        let ep = self.get_or_create(&id, LIFE_DONE);
        ep.life.store(LIFE_DONE, Ordering::SeqCst);
        self.activity.fetch_add(1, Ordering::Relaxed);
        self.broadcast();
    }

    fn seal(&self) {
        self.sealed.store(true, Ordering::SeqCst);
        let eps: Vec<Arc<Endpoint<I, M>>> = self.registry().values().cloned().collect();
        for ep in &eps {
            let _ = ep.life.compare_exchange(
                LIFE_EXPECTED,
                LIFE_DONE,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        self.activity.fetch_add(1, Ordering::Relaxed);
        self.broadcast();
    }

    fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        self.broadcast();
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    fn peer_state(&self, id: &I) -> Option<PeerState> {
        self.lookup(id)
            .map(|ep| life_of(ep.life.load(Ordering::SeqCst)))
    }

    fn peers(&self) -> Vec<(I, PeerState)> {
        self.registry()
            .iter()
            .map(|(id, ep)| (id.clone(), life_of(ep.life.load(Ordering::SeqCst))))
            .collect()
    }

    fn activity(&self) -> u64 {
        let base = self.activity.load(Ordering::Relaxed);
        // Lease-aware watchdog interaction: while any peer is severed
        // but still inside its session lease, the network has promised
        // it may return — that window is reconfiguration, not
        // quiescence. Hand every sampler a changing value so no
        // watchdog declares a stall before the lease verdict is in;
        // once the set empties (resume or expiry) the counter reverts
        // to real progress and true stalls surface as before.
        if self.suspended.lock().is_empty() {
            base
        } else {
            base.wrapping_add(self.lease_ticks.fetch_add(1, Ordering::Relaxed) + 1)
        }
    }

    fn reseed(&self, seed: u64) {
        *self.seed.lock() = Some(seed);
        let eps: Vec<(I, Arc<Endpoint<I, M>>)> = self
            .registry()
            .iter()
            .map(|(id, ep)| (id.clone(), ep.clone()))
            .collect();
        for (id, ep) in eps {
            ep.state.lock().rng = SmallRng::seed_from_u64(derive_seed(seed, &id));
        }
    }

    fn ensure_peer(&self, id: &I) -> Result<(), ChanError<I>> {
        self.ensure(id).map(|_| ())
    }

    fn has_pending_from(&self, to: &I, from: &I) -> bool {
        self.lookup(to)
            .map(|ep| ep.state.lock().inbox.contains_key(from))
            .unwrap_or(false)
    }

    fn set_fault_plan(&self, plan: FaultPlan, clone_fn: fn(&M) -> M) {
        let msg = plan.has_message_faults() || plan.has_connection_faults();
        let crashes = plan.has_crashes();
        *self.faults.config.lock() = Some(Arc::new(FaultConfig { plan, clone_fn }));
        self.faults.log.lock().clear();
        // Reset all fault counters so the new plan starts from seq 0.
        let eps: Vec<Arc<Endpoint<I, M>>> = self.registry().values().cloned().collect();
        for ep in eps {
            let mut st = ep.state.lock();
            st.chaos_in_seqs.clear();
            st.chaos_steps = 0;
        }
        // Flags last: a racing hot path that sees them set finds the
        // config already in place. A no-op plan leaves both false — the
        // per-message fault branch is hoisted out entirely at attach
        // time, not re-checked per hop.
        self.faults.msg_faults.store(msg, Ordering::SeqCst);
        self.faults.crashes.store(crashes, Ordering::SeqCst);
    }

    fn clear_fault_plan(&self) {
        self.faults.msg_faults.store(false, Ordering::SeqCst);
        self.faults.crashes.store(false, Ordering::SeqCst);
        *self.faults.config.lock() = None;
        self.faults.log.lock().clear();
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.config.lock().as_ref().map(|c| c.plan.clone())
    }

    fn set_fault_observer(&self, observer: FaultObserver<I>) {
        *self.faults.observer.lock() = Some(observer);
    }

    fn set_rendezvous_observer(&self, observer: RendezvousObserver<I>, label_of: LabelFn<M>) {
        *self.rendezvous.label_of.lock() = Some(label_of);
        *self.rendezvous.observer.lock() = Some(observer);
        // Flag last: a racing pickup that sees it set finds both the
        // observer and the labeler already in place.
        self.rendezvous.enabled.store(true, Ordering::SeqCst);
    }

    fn set_session_observer(&self, observer: SessionObserver<I>) {
        *self.faults.session_observer.lock() = Some(observer);
    }

    fn note_session_event(&self, event: &SessionEvent<I>) {
        {
            let mut suspended = self.suspended.lock();
            match event {
                SessionEvent::PeerDisconnected(id) => {
                    if !suspended.contains(id) {
                        suspended.push(id.clone());
                    }
                }
                SessionEvent::PeerResumed(id) | SessionEvent::LeaseExpired(id) => {
                    suspended.retain(|s| s != id);
                }
            }
        }
        let obs = self.faults.session_observer.lock().clone();
        if let Some(obs) = obs {
            obs(event);
        }
    }

    fn fault_log(&self) -> Vec<FaultRecord<I>> {
        if self.faults.config.lock().is_none() {
            return Vec::new();
        }
        self.faults.log.lock().clone()
    }

    fn take_fault_log(&self) -> Vec<FaultRecord<I>> {
        if self.faults.config.lock().is_none() {
            return Vec::new();
        }
        std::mem::take(&mut *self.faults.log.lock())
    }

    fn set_latency_observer(&self, observer: LatencyObserver) {
        self.latency.set_observer(observer);
    }

    fn latency_samples(&self) -> Vec<LatencySample> {
        self.latency.samples()
    }

    fn take_latency_samples(&self) -> Vec<LatencySample> {
        self.latency.take_samples()
    }

    fn send(
        &self,
        from: &I,
        to: &I,
        msg: M,
        deadline: Option<Instant>,
    ) -> Result<(), ChanError<I>> {
        let op = self.start_send(from, to, msg, deadline)?;
        self.block_on(op)
    }

    fn try_recv(&self, me: &I, from: &I) -> Result<Option<M>, ChanError<I>> {
        let start = Instant::now();
        if from == me {
            return Err(ChanError::Myself);
        }
        let from_ep = self.ensure(from)?;
        let me_ep = self.ensure(me)?;
        if self.faults.crashes.load(Ordering::Relaxed) {
            self.chaos_step(me, &me_ep)?;
        }
        if self.aborted.load(Ordering::SeqCst) {
            return Err(ChanError::Aborted);
        }
        if let Some(msg) = self.take_from(&me_ep, me_ep.state.lock(), me, from) {
            self.latency.record(LatencyOp::TryRecv, start.elapsed());
            return Ok(Some(msg));
        }
        if from_ep.life.load(Ordering::SeqCst) == LIFE_DONE {
            return Err(ChanError::Terminated(from.clone()));
        }
        Ok(None)
    }

    fn select(
        &self,
        me: &I,
        arms: Vec<Arm<I, M>>,
        deadline: Option<Instant>,
    ) -> Result<Outcome<I, M>, ChanError<I>> {
        let op = self.start_select(me, arms, deadline)?;
        self.block_on(op)
    }

    fn submit_send(
        self: Arc<Self>,
        from: &I,
        to: &I,
        msg: M,
        deadline: Option<Instant>,
        done: SendDone<I>,
    ) {
        match self.start_send(from.clone(), to.clone(), msg, deadline) {
            Ok(op) => {
                let token = self.next_token.fetch_add(1, Ordering::Relaxed);
                Self::enqueue_op(&self, token, AsyncOp::Send(op, done));
            }
            Err(e) => done(Err(e)),
        }
    }

    fn submit_select(
        self: Arc<Self>,
        me: &I,
        arms: Vec<Arm<I, M>>,
        deadline: Option<Instant>,
        done: SelectDone<I, M>,
    ) {
        match self.start_select(me.clone(), arms, deadline) {
            Ok(op) => Self::enqueue_op(&self, op.token, AsyncOp::Select(op, done)),
            Err(e) => done(Err(e)),
        }
    }
}

impl<I, M> ShardedTransport<I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    /// Starts a send for either driver: validation, the crash step and
    /// the chaos gate run here, once. The blocking driver lends the ids
    /// (`K = &I`); a submitted op owns them.
    fn start_send<K: Borrow<I>>(
        &self,
        from_id: K,
        to_id: K,
        msg: M,
        deadline: Option<Instant>,
    ) -> Result<SendOp<I, M, K>, ChanError<I>> {
        let started = Instant::now();
        let (from, to) = (from_id.borrow(), to_id.borrow());
        if to == from {
            return Err(ChanError::Myself);
        }
        let to_ep = self.ensure(to)?;
        let from_ep = self.ensure(from)?;
        if self.faults.crashes.load(Ordering::Relaxed) {
            self.chaos_step(from, &from_ep)?;
        }
        let faults = if self.faults.msg_faults.load(Ordering::Relaxed) {
            self.chaos_gate(&mut to_ep.state.lock(), from, to, false)
        } else {
            None
        };
        let (dup, ready_at, dropped) = match faults {
            Some(f) => {
                self.record_edge(from, to, &f);
                let ready_at = f.delay.map(|d| Instant::now() + d);
                (f.dup.map(|clone| clone(&msg)), ready_at, f.drop)
            }
            None => (None, None, false),
        };
        Ok(SendOp {
            from: from_id,
            to: to_id,
            to_ep,
            ticket: None,
            msg: Some(msg),
            dup,
            ack_target: None,
            ready_at,
            dropped,
            deadline,
            started,
        })
    }

    /// Puts `msg` from `from` into the inbox of `ep` (`st` is its
    /// state) and wakes everyone waiting on that endpoint.
    fn deposit(&self, ep: &Endpoint<I, M>, st: &mut EpState<I, M>, from: &I, msg: M) {
        st.inbox.insert(from.clone(), msg);
        st.bump_signal();
        self.activity.fetch_add(1, Ordering::Relaxed);
        ep.cond.notify_all();
    }

    /// Takes a finished send op out of `from`'s queue on this endpoint;
    /// when the head moved on, wakes the ops behind it, since the next
    /// one may now deposit.
    fn leave_queue(st: &mut EpState<I, M>, ep: &Endpoint<I, M>, from: &I, ticket: u64) {
        let queue = &mut st.edge(from).queue;
        let was_head = queue.front() == Some(&ticket);
        queue.retain(|t| *t != ticket);
        if was_head && !queue.is_empty() {
            st.bump_signal();
            ep.cond.notify_all();
        }
    }

    /// Starts a selection for either driver: validates and resolves the
    /// arms (send messages become take-able, every named peer's endpoint
    /// is resolved once), counts the selection toward crash-at-step-*k*,
    /// and registers `me` as a send watcher on every send-arm target so
    /// their offer publications and slot releases wake it. Ids are held
    /// as in [`Self::start_send`].
    fn start_select<K: Borrow<I>>(
        &self,
        me_id: K,
        arms: Vec<Arm<I, M>>,
        deadline: Option<Instant>,
    ) -> Result<SelectOp<I, M, K>, ChanError<I>> {
        let started = Instant::now();
        let me = me_id.borrow();
        if arms.is_empty() {
            return Err(ChanError::EmptySelect);
        }
        let me_ep = self.ensure(me)?;
        let mut reprs: Vec<ArmRepr<I, M>> = Vec::with_capacity(arms.len());
        for arm in arms {
            // Send messages become take-able: a send arm fires at most once.
            let arm = match arm {
                Arm::Send { to, msg } => Arm::Send { to, msg: Some(msg) },
                Arm::Recv(source) => Arm::Recv(source),
                Arm::Watch(p) => Arm::Watch(p),
            };
            let ep = match &arm {
                Arm::Recv(Source::Any) => None,
                Arm::Recv(Source::Of(p)) | Arm::Send { to: p, .. } | Arm::Watch(p) => {
                    if p == me {
                        return Err(ChanError::Myself);
                    }
                    Some(self.ensure(p)?)
                }
            };
            reprs.push((arm, ep));
        }
        // Chaos: selection counts as one operation toward crash-at-step-k.
        if self.faults.crashes.load(Ordering::Relaxed) {
            self.chaos_step(me, &me_ep)?;
        }
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let mut watched: Vec<Arc<Endpoint<I, M>>> = Vec::new();
        for (repr, ep) in &reprs {
            if let (Arm::Send { .. }, Some(t_ep)) = (repr, ep) {
                if !watched.iter().any(|w| Arc::ptr_eq(w, t_ep)) {
                    t_ep.state.lock().watchers.push((token, Arc::clone(&me_ep)));
                    watched.push(Arc::clone(t_ep));
                }
            }
        }
        Ok(SelectOp {
            me: me_id,
            me_ep,
            reprs,
            watched,
            token,
            deadline,
            started,
        })
    }

    /// One fairness-shuffled pass over the arms, locking only the
    /// endpoint each arm concerns (never two at once). `Ok(Some(..))`:
    /// an arm fired. `Ok(None)`: nothing ready, but something may yet
    /// fire. `Err(..)`: every arm is permanently unfireable.
    fn scan_arms(
        &self,
        me: &I,
        me_ep: &Endpoint<I, M>,
        reprs: &mut [ArmRepr<I, M>],
    ) -> Result<Option<Outcome<I, M>>, ChanError<I>> {
        {
            let mut order: Vec<usize> = (0..reprs.len()).collect();
            order.shuffle(&mut me_ep.state.lock().rng);
            let mut any_live = false;
            for idx in order {
                let (repr, arm_ep) = &mut reprs[idx];
                match repr {
                    Arm::Recv(Source::Of(p)) => {
                        if let Some(msg) = self.take_from(me_ep, me_ep.state.lock(), me, p) {
                            return Ok(Some(Outcome::Received {
                                arm: idx,
                                from: p.clone(),
                                msg,
                            }));
                        }
                        let p_ep = arm_ep.as_ref().expect("named arm resolved");
                        if p_ep.life.load(Ordering::SeqCst) != LIFE_DONE {
                            any_live = true;
                        }
                    }
                    Arm::Recv(Source::Any) => {
                        let mut st = me_ep.state.lock();
                        let senders: Vec<I> = st.inbox.keys().cloned().collect();
                        if let Some(from) = senders.choose(&mut st.rng).cloned() {
                            let msg = self
                                .take_from(me_ep, st, me, &from)
                                .expect("chosen sender has a message");
                            return Ok(Some(Outcome::Received {
                                arm: idx,
                                from,
                                msg,
                            }));
                        }
                        drop(st);
                        if self.any_possible_sender(me) {
                            any_live = true;
                        }
                    }
                    Arm::Send { to, msg } => {
                        let to = to.clone();
                        let t_ep = arm_ep.as_ref().expect("named arm resolved").clone();
                        match life_of(t_ep.life.load(Ordering::SeqCst)) {
                            PeerState::Done => {}
                            PeerState::Expected => any_live = true,
                            PeerState::Active => {
                                any_live = true;
                                let mut ts = t_ep.state.lock();
                                let slot_free = !ts.inbox.contains_key(me);
                                let claimable = slot_free
                                    && ts
                                        .wait
                                        .as_ref()
                                        .map(|w| w.resolved.is_none() && w.offers_from(me))
                                        .unwrap_or(false);
                                if claimable {
                                    let m = msg.take().expect("send arm fires at most once");
                                    // Chaos: a dropped send arm still
                                    // fires (the sender saw delivery) but
                                    // leaves the receiver waiting.
                                    if let Some(f) = self.chaos_gate(&mut ts, me, &to, true) {
                                        if f.drop {
                                            drop(ts);
                                            self.record_edge(me, &to, &f);
                                            return Ok(Some(Outcome::Sent { arm: idx, to }));
                                        }
                                    }
                                    ts.wait.as_mut().expect("checked above").resolved =
                                        Some(me.clone());
                                    self.deposit(&t_ep, &mut ts, me, m);
                                    return Ok(Some(Outcome::Sent { arm: idx, to }));
                                }
                            }
                        }
                    }
                    Arm::Watch(p) => {
                        let p_ep = arm_ep.as_ref().expect("named arm resolved");
                        // While a message from the dead peer is still
                        // pending, a recv arm must drain it first; the
                        // watch arm stays pending.
                        if p_ep.life.load(Ordering::SeqCst) == LIFE_DONE
                            && !me_ep.state.lock().inbox.contains_key(p)
                        {
                            let peer = p.clone();
                            return Ok(Some(Outcome::Terminated { arm: idx, peer }));
                        }
                        any_live = true;
                    }
                }
            }

            if !any_live {
                // Every arm is permanently unfireable.
                if reprs.len() == 1 {
                    if let (Arm::Recv(Source::Of(p)) | Arm::Send { to: p, .. }, _) = &reprs[0] {
                        return Err(ChanError::Terminated(p.clone()));
                    }
                }
                return Err(ChanError::AllTerminated);
            }
        }
        Ok(None)
    }

    /// The blocking driver: polls `op` inline on the caller's thread,
    /// parking on its home endpoint's condvar — under the guard the
    /// pending poll handed back — between polls. No scheduler hop, no
    /// allocation.
    fn block_on<O: Op<I, M>>(&self, mut op: O) -> Result<O::Output, ChanError<I>> {
        let home = Arc::clone(op.home());
        loop {
            match op.poll(self, &home) {
                Step::Ready(result) => {
                    op.record_latency(&self.latency, &result);
                    return result;
                }
                // A timed-out wait needs no handling here: the next poll
                // sees the expired deadline (or delay gate).
                Step::Pending(mut st) => match op.wake_at() {
                    Some(at) => {
                        home.cond.wait_until(&mut st, at);
                    }
                    None => home.cond.wait(&mut st),
                },
            }
        }
    }
}

/// A selection arm paired with its named peer's resolved endpoint.
type ArmRepr<I, M> = (Arm<I, Option<M>>, Option<Arc<Endpoint<I, M>>>);

// ---------------------------------------------------------------------
// The rendezvous state machines and their two drivers.
//
// Each operation is one poll-style machine (`Op`). The blocking entry
// points poll it inline and sleep on an endpoint condvar between polls
// (`ShardedTransport::block_on`); submitted operations hand it to one
// scheduler thread per transport, which parks a *token* on the endpoint
// instead (`EpState::op_waiters`) and re-polls when the eventcount
// bumps. A hub serving thousands of spokes thus multiplexes every
// blocked rendezvous onto one thread, with the very same transitions.
// ---------------------------------------------------------------------

/// What one poll of an [`Op`] produced.
enum Step<'e, I, M, T> {
    /// The operation completed.
    Ready(Result<T, ChanError<I>>),
    /// Nothing to do yet: the home endpoint's guard, taken after the
    /// op's last check, so the driver parks with no lost wakeup.
    Pending(parking_lot::MutexGuard<'e, EpState<I, M>>),
}

/// A rendezvous operation as a poll-style state machine.
trait Op<I, M> {
    type Output;
    /// The endpoint the op parks on: the receiver's for a send, the
    /// selector's own for a selection.
    fn home(&self) -> &Arc<Endpoint<I, M>>;
    /// When to poll again even without a wakeup: the deadline, or the
    /// end of a chaos delay.
    fn wake_at(&self) -> Option<Instant>;
    /// Advances the op as far as it can go. `home` is [`Op::home`].
    fn poll<'e>(
        &mut self,
        t: &ShardedTransport<I, M>,
        home: &'e Endpoint<I, M>,
    ) -> Step<'e, I, M, Self::Output>;
    /// Records the latency sample the outcome owes, if any: only
    /// successful operations are sampled. Both drivers complete through
    /// here.
    fn record_latency(&self, latency: &LatencyHooks, result: &Result<Self::Output, ChanError<I>>);
}

/// A synchronous send `from → to`: deposit into the receiver's inbox
/// (phase 1), then await pickup (phase 2), homed on the receiver's
/// endpoint. Ids (`K`) are borrowed on the blocking path and owned
/// once submitted.
struct SendOp<I, M, K = I> {
    from: K,
    to: K,
    to_ep: Arc<Endpoint<I, M>>,
    /// The op's place in the receiver's queue for `from`, taken at its
    /// first poll.
    ticket: Option<u64>,
    /// Taken at deposit.
    msg: Option<M>,
    /// Chaos duplicate, redelivered best-effort after pickup.
    dup: Option<M>,
    /// The `acks` level on the edge that proves pickup; `Some` once
    /// deposited.
    ack_target: Option<u64>,
    /// Chaos delay: no deposit before this.
    ready_at: Option<Instant>,
    /// Chaos drop: the message is lost on the wire and never queued.
    dropped: bool,
    deadline: Option<Instant>,
    started: Instant,
}

impl<I, M, K: Borrow<I>> SendOp<I, M, K>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    /// The send's transitions, under the receiver's lock `st`. `None`:
    /// not ready.
    fn advance(
        &mut self,
        t: &ShardedTransport<I, M>,
        ep: &Endpoint<I, M>,
        st: &mut EpState<I, M>,
    ) -> Option<Result<(), ChanError<I>>> {
        let aborted = t.aborted.load(Ordering::SeqCst);
        let life = life_of(ep.life.load(Ordering::SeqCst));
        let gone = if aborted {
            Err(ChanError::Aborted)
        } else if life == PeerState::Done {
            Err(ChanError::Terminated(self.to.borrow().clone()))
        } else {
            Ok(())
        };
        if self.dropped {
            // Lost on the wire *after* transmission: the sender observes
            // success unless the peer is already gone. It never queued.
            return Some(gone);
        }
        let from: &I = self.from.borrow();
        // The first poll queues the op behind the edge's earlier sends.
        let edge = st.edge(from);
        let ticket = *self.ticket.get_or_insert_with(|| {
            edge.issued += 1;
            edge.queue.push_back(edge.issued);
            edge.issued
        });
        let (acks, head) = (edge.acks, edge.queue.front() == Some(&ticket));
        if self.ack_target.is_some_and(|target| acks >= target) {
            // Rendezvous complete; deliver the chaos duplicate if the
            // edge slot is free (best-effort redelivery).
            if let Some(copy) = self.dup.take() {
                if !st.inbox.contains_key(from) && life == PeerState::Active {
                    t.deposit(ep, st, from, copy);
                }
            }
            return Some(Ok(()));
        }
        if gone.is_err() {
            // A deposit the receiver finished without taking is
            // reclaimed.
            if !aborted && self.ack_target.is_some() {
                st.inbox.remove(from);
            }
            return Some(gone);
        }
        if self.ready_at.is_some_and(|at| Instant::now() >= at) {
            self.ready_at = None;
        }
        // Phase 1: deposit once this op heads its edge queue, the
        // receiver is active with a free slot, and any chaos delay has
        // elapsed. Phase 2 (awaiting pickup) has nothing to do here.
        if self.ack_target.is_none()
            && life == PeerState::Active
            && self.ready_at.is_none()
            && head
            && !st.inbox.contains_key(from)
        {
            let msg = self.msg.take().expect("message deposited once");
            t.deposit(ep, st, from, msg);
            self.ack_target = Some(acks + 1);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            // Timed out: reclaim an un-picked-up deposit so the message
            // is not delivered after we report failure.
            if self.ack_target.is_some() {
                st.inbox.remove(from);
            }
            return Some(Err(ChanError::Timeout));
        }
        None
    }
}

impl<I, M, K: Borrow<I>> Op<I, M> for SendOp<I, M, K>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    type Output = ();

    fn home(&self) -> &Arc<Endpoint<I, M>> {
        &self.to_ep
    }

    fn wake_at(&self) -> Option<Instant> {
        match (self.ready_at, self.deadline) {
            (Some(r), Some(d)) => Some(r.min(d)),
            (r, d) => r.or(d),
        }
    }

    fn poll<'e>(
        &mut self,
        t: &ShardedTransport<I, M>,
        home: &'e Endpoint<I, M>,
    ) -> Step<'e, I, M, ()> {
        let mut st = home.state.lock();
        let Some(result) = self.advance(t, home, &mut st) else {
            return Step::Pending(st);
        };
        // A finished op leaves its edge queue, whatever the outcome: one
        // that failed is never delivered.
        if let Some(ticket) = self.ticket {
            ShardedTransport::leave_queue(&mut st, home, self.from.borrow(), ticket);
        }
        Step::Ready(result)
    }

    fn record_latency(&self, latency: &LatencyHooks, result: &Result<(), ChanError<I>>) {
        if result.is_ok() {
            latency.record(LatencyOp::Send, self.started.elapsed());
        }
    }
}

/// A guarded selection on behalf of `me`, homed on `me`'s endpoint.
struct SelectOp<I, M, K = I> {
    me: K,
    me_ep: Arc<Endpoint<I, M>>,
    reprs: Vec<ArmRepr<I, M>>,
    /// Send-arm targets `me` is registered on as a watcher (under
    /// `token`); deregistered when the op is dropped.
    watched: Vec<Arc<Endpoint<I, M>>>,
    token: u64,
    deadline: Option<Instant>,
    started: Instant,
}

impl<I, M, K> Drop for SelectOp<I, M, K> {
    fn drop(&mut self) {
        let token = self.token;
        for t_ep in self.watched.drain(..) {
            t_ep.state.lock().watchers.retain(|(t, _)| *t != token);
        }
    }
}

impl<I, M, K: Borrow<I>> Op<I, M> for SelectOp<I, M, K>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    type Output = Outcome<I, M>;

    fn home(&self) -> &Arc<Endpoint<I, M>> {
        &self.me_ep
    }

    fn wake_at(&self) -> Option<Instant> {
        self.deadline
    }

    fn poll<'e>(
        &mut self,
        t: &ShardedTransport<I, M>,
        home: &'e Endpoint<I, M>,
    ) -> Step<'e, I, M, Outcome<I, M>> {
        let me: &I = self.me.borrow();
        loop {
            // Loop head, under `me`'s own lock: snapshot the eventcount,
            // withdraw any published offers so no claim can land
            // mid-scan, and honor a claim left by a sender while we
            // slept (priority even over aborts — the claiming sender
            // already returned success).
            let mut st = home.state.lock();
            let sig0 = st.signal;
            if let Some(from) = st.wait.take().and_then(|w| w.resolved) {
                let msg = t
                    .take_from(home, st, me, &from)
                    .expect("claim implies a deposited message");
                let arm = self
                    .reprs
                    .iter()
                    .position(|(r, _)| match r {
                        Arm::Recv(Source::Any) => true,
                        Arm::Recv(Source::Of(p)) => *p == from,
                        _ => false,
                    })
                    .expect("claim matched an offered receive arm");
                return Step::Ready(Ok(Outcome::Received { arm, from, msg }));
            }
            drop(st);
            if t.aborted.load(Ordering::SeqCst) {
                return Step::Ready(Err(ChanError::Aborted));
            }
            match t.scan_arms(me, home, &mut self.reprs) {
                Ok(Some(outcome)) => return Step::Ready(Ok(outcome)),
                Ok(None) => {}
                Err(e) => return Step::Ready(Err(e)),
            }
            // Publish the receive offers so send arms elsewhere can
            // claim us, then wake the selectors watching us.
            let offers: Vec<Source<I>> = self
                .reprs
                .iter()
                .filter_map(|(r, _)| match r {
                    Arm::Recv(source) => Some(source.clone()),
                    _ => None,
                })
                .collect();
            let watchers = {
                let mut st = home.state.lock();
                st.wait = Some(WaitEntry {
                    offers,
                    resolved: None,
                });
                st.watchers.clone()
            };
            ShardedTransport::wake(watchers.into_iter().map(|(_, w)| w));
            // Park — unless the eventcount moved since the loop head, in
            // which case something changed mid-scan and we rescan.
            let mut st = home.state.lock();
            if st.signal != sig0 {
                continue;
            }
            if self.deadline.is_some_and(|d| Instant::now() >= d) {
                // The eventcount is unmoved, so no claim can have
                // landed: withdraw the offers and time out.
                st.wait = None;
                return Step::Ready(Err(ChanError::Timeout));
            }
            return Step::Pending(st);
        }
    }

    fn record_latency(&self, latency: &LatencyHooks, result: &Result<Outcome<I, M>, ChanError<I>>) {
        if matches!(result, Ok(Outcome::Received { .. } | Outcome::Sent { .. })) {
            latency.record(LatencyOp::Select, self.started.elapsed());
        }
    }
}

/// Shared handle between the transport, its scheduler thread, and the
/// endpoints that park asynchronous operations.
struct SchedShared<I, M> {
    queue: Mutex<SchedState<I, M>>,
    cond: Condvar,
}

/// The scheduler's run state: parked ops, tokens due for a poll, and
/// the timer heap (deadlines and chaos delays), earliest first.
struct SchedState<I, M> {
    ready: VecDeque<u64>,
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    ops: HashMap<u64, AsyncOp<I, M>>,
    shutdown: bool,
}

/// A submitted operation with its completion callback.
enum AsyncOp<I, M> {
    Send(SendOp<I, M>, SendDone<I>),
    Select(SelectOp<I, M>, SelectDone<I, M>),
}

/// The scheduler thread: pops runnable op tokens (readiness wakeups
/// first, then due timers), polls each op outside the queue lock, and
/// completes or re-parks it. One thread serves every in-flight
/// submitted operation on the transport; it exits when the transport
/// is dropped.
fn scheduler_loop<I, M>(transport: Weak<ShardedTransport<I, M>>, sched: Arc<SchedShared<I, M>>)
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    loop {
        let token = {
            let mut q = sched.queue.lock();
            loop {
                if q.shutdown {
                    // Dropped outside the queue lock: a parked selection
                    // deregisters its watchers under endpoint locks.
                    let ops = std::mem::take(&mut q.ops);
                    drop(q);
                    drop(ops);
                    return;
                }
                if let Some(t) = q.ready.pop_front() {
                    break t;
                }
                match q.timers.peek().copied() {
                    Some(Reverse((at, t))) => {
                        if at <= Instant::now() {
                            q.timers.pop();
                            break t;
                        }
                        sched.cond.wait_until(&mut q, at);
                    }
                    None => {
                        sched.cond.wait(&mut q);
                    }
                }
            }
        };
        let Some(t) = transport.upgrade() else {
            sched.queue.lock().shutdown = true;
            continue;
        };
        // A token may outlive its op (stale waiter or timer): skip.
        let Some(op) = sched.queue.lock().ops.remove(&token) else {
            continue;
        };
        t.drive_op(token, op, &sched);
    }
}

impl<I, M> ShardedTransport<I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    /// The transport's scheduler, started on first use. The thread
    /// holds only a weak reference back, so it cannot keep the
    /// transport alive; [`ShardedTransport`]'s `Drop` releases it.
    fn scheduler(this: &Arc<Self>) -> Arc<SchedShared<I, M>> {
        let mut guard = this.sched.lock();
        if let Some(s) = guard.as_ref() {
            return s.clone();
        }
        let sched = Arc::new(SchedShared {
            queue: Mutex::new(SchedState {
                ready: VecDeque::new(),
                timers: BinaryHeap::new(),
                ops: HashMap::new(),
                shutdown: false,
            }),
            cond: Condvar::new(),
        });
        let weak = Arc::downgrade(this);
        let handle = Arc::clone(&sched);
        std::thread::Builder::new()
            .name("chan-async-sched".into())
            .spawn(move || scheduler_loop(weak, handle))
            .expect("spawn async-op scheduler");
        *guard = Some(Arc::clone(&sched));
        sched
    }

    /// Parks a submitted op with the scheduler under `token`: arms its
    /// deadline and chaos-delay timers and queues its first poll. The
    /// ready queue is FIFO, so ops submitted one after another on an
    /// edge are first polled — and queued on the edge — in that order.
    fn enqueue_op(this: &Arc<Self>, token: u64, op: AsyncOp<I, M>) {
        let timers = match &op {
            AsyncOp::Send(s, _) => [s.ready_at, s.deadline],
            AsyncOp::Select(s, _) => [None, s.deadline],
        };
        let sched = Self::scheduler(this);
        let mut q = sched.queue.lock();
        q.ops.insert(token, op);
        for at in timers.into_iter().flatten() {
            q.timers.push(Reverse((at, token)));
        }
        q.ready.push_back(token);
        drop(q);
        sched.cond.notify_one();
    }

    /// Polls a submitted op once; on completion runs its callback,
    /// otherwise re-parks it.
    fn drive_op(&self, token: u64, op: AsyncOp<I, M>, sched: &Arc<SchedShared<I, M>>) {
        let parked = match op {
            AsyncOp::Send(mut op, done) => match self.poll_parked(token, &mut op, sched) {
                Some(result) => return done(result),
                None => AsyncOp::Send(op, done),
            },
            AsyncOp::Select(mut op, done) => match self.poll_parked(token, &mut op, sched) {
                Some(result) => return done(result),
                None => AsyncOp::Select(op, done),
            },
        };
        sched.queue.lock().ops.insert(token, parked);
    }

    /// The scheduler's driver: one poll; while pending, the op's token
    /// waits on its home endpoint for the next eventcount bump.
    fn poll_parked<O: Op<I, M>>(
        &self,
        token: u64,
        op: &mut O,
        sched: &Arc<SchedShared<I, M>>,
    ) -> Option<Result<O::Output, ChanError<I>>> {
        let home = Arc::clone(op.home());
        let step = op.poll(self, &home);
        match step {
            Step::Ready(result) => {
                op.record_latency(&self.latency, &result);
                Some(result)
            }
            Step::Pending(mut st) => {
                st.op_waiters.push((token, Arc::clone(sched)));
                None
            }
        }
    }
}
