//! In-memory spans for the traced run.
//!
//! A span has a name, a start and end (nanoseconds since the run's
//! epoch), the span that caused it, and the op it belongs to. Each
//! thread appends to its own buffer; [`flush`] moves a finished
//! thread's buffer into the shared store, and the run writes the store
//! out once it ends.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::alloc::{self, Layer};

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.enroll_wait`.
    pub name: &'static str,
    /// Unique id (never 0).
    pub id: u64,
    /// The causing span's id, 0 for an op's root span.
    pub parent: u64,
    /// The op this span belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the epoch.
    pub start: u64,
    /// End, in nanoseconds since the epoch.
    pub end: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-thread context of the op in flight: read by role bodies and the
/// network factory, which run on the enrolling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCtx {
    /// The op's index.
    pub op: u64,
    /// Whether this op records spans.
    pub traced: bool,
    /// Root span id of the op on this thread.
    pub root: u64,
    /// When the role body was entered (0 until it is).
    pub body_start: u64,
    /// When the role body returned (0 until it does).
    pub body_end: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static STORE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static BUF: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static CUR: Cell<OpCtx> = const {
        Cell::new(OpCtx { op: 0, traced: false, root: 0, body_start: 0, body_end: 0 })
    };
}

/// Nanoseconds since the run's epoch.
pub fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fresh span id.
pub fn new_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Starts op `op` on this thread and returns its context.
pub fn begin_op(op: u64, traced: bool) -> OpCtx {
    let ctx = OpCtx {
        op,
        traced,
        root: if traced { new_id() } else { 0 },
        body_start: 0,
        body_end: 0,
    };
    CUR.with(|c| c.set(ctx));
    ctx
}

/// The context of this thread's op in flight.
pub fn current() -> OpCtx {
    CUR.with(Cell::get)
}

/// Marks role-body entry for this thread's op.
pub fn body_start() {
    CUR.with(|c| {
        let mut ctx = c.get();
        if ctx.traced {
            ctx.body_start = now();
            c.set(ctx);
        }
    });
}

/// Marks role-body exit for this thread's op.
pub fn body_end() {
    CUR.with(|c| {
        let mut ctx = c.get();
        if ctx.traced {
            ctx.body_end = now();
            c.set(ctx);
        }
    });
}

/// Records a span on this thread, returning its id.
pub fn record(name: &'static str, parent: u64, op: u64, start: u64, end: u64) -> u64 {
    let id = new_id();
    record_with_id(name, id, parent, op, start, end);
    id
}

/// Records a span with a pre-allocated id.
pub fn record_with_id(name: &'static str, id: u64, parent: u64, op: u64, start: u64, end: u64) {
    let _bench = alloc::enter(Layer::Bench);
    BUF.with(|b| {
        b.borrow_mut().push(Span {
            name,
            id,
            parent,
            op,
            start,
            end,
        })
    });
}

/// A span timed from construction to [`Timer::stop`], recorded only
/// when this thread's op is traced.
#[derive(Debug)]
pub struct Timer {
    name: &'static str,
    ctx: OpCtx,
    start: u64,
}

impl Timer {
    /// Starts timing `name` as a child of this thread's op root.
    pub fn start(name: &'static str) -> Self {
        let ctx = current();
        Self {
            name,
            ctx,
            start: if ctx.traced { now() } else { 0 },
        }
    }

    /// Stops the timer, recording its span if the op is traced.
    pub fn stop(self) {
        if self.ctx.traced {
            record(self.name, self.ctx.root, self.ctx.op, self.start, now());
        }
    }
}

/// Moves this thread's spans into the shared store.
pub fn flush() {
    let _bench = alloc::enter(Layer::Bench);
    let mine = BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
    STORE.lock().expect("span store poisoned").extend(mine);
}

/// Takes every flushed span, ordered by start time.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *STORE.lock().expect("span store poisoned"));
    spans.sort_by_key(|s| (s.start, s.id));
    spans
}

/// Writes `spans` as CSV: `name,id,parent,op,start_ns,end_ns`.
pub fn write_csv(w: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    writeln!(w, "name,id,parent,op,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{}",
            s.name, s.id, s.parent, s.op, s.start, s.end
        )?;
    }
    w.flush()
}
