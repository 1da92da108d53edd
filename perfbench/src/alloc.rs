//! A std-only counting allocator that attributes every allocation to
//! the layer the calling thread is inside.
//!
//! The benchmark tags its own threads with a [`Layer`] around each call
//! it makes into the program; threads the program owns (hub reactor,
//! spoke's background thread, fleet connection threads, watchdogs) keep
//! the default
//! [`Layer::Background`] tag. Counting is off unless [`set_counting`]
//! turned it on, so the untraced run pays one relaxed load per
//! allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Where an allocation is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// Threads the benchmark does not own.
    Background = 0,
    /// Inside `Instance::enroll`, outside the role body's channel calls.
    Engine = 1,
    /// Channel calls: `ctx.send`/`ctx.recv_from`, the sink's `select`.
    Chan = 2,
    /// Spoke calls: `SocketTransport::send`, spoke construction.
    Spoke = 3,
    /// `FleetClient::place`.
    Fleet = 4,
    /// The benchmark's own bookkeeping (span buffers, samples).
    Bench = 5,
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];
static BYTES: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates — safe inside the allocator.
    static TAG: Cell<u8> = const { Cell::new(0) };
}

/// The counting wrapper around the system allocator.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counting touches only atomics and a
// const-initialised thread-local cell, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(bytes: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let tag = TAG.try_with(Cell::get).unwrap_or(0) as usize;
    ALLOCS[tag].fetch_add(1, Ordering::Relaxed);
    BYTES[tag].fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Turns counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Tags the calling thread's allocations with `layer` until the
/// returned guard drops, which restores the previous tag.
pub fn enter(layer: Layer) -> LayerGuard {
    let prev = TAG.with(|t| t.replace(layer as u8));
    LayerGuard(prev)
}

/// Runs `f` with the calling thread's allocations tagged `layer`.
pub fn within<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let _guard = enter(layer);
    f()
}

/// Restores the previous layer tag on drop.
#[derive(Debug)]
pub struct LayerGuard(u8);

impl Drop for LayerGuard {
    fn drop(&mut self) {
        TAG.with(|t| t.set(self.0));
    }
}

/// Allocation count and bytes per layer so far, in tag order.
pub fn snapshot() -> [(u64, u64); 6] {
    std::array::from_fn(|i| {
        (
            ALLOCS[i].load(Ordering::Relaxed),
            BYTES[i].load(Ordering::Relaxed),
        )
    })
}
