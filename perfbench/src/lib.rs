//! The repository benchmark's reusable parts: seeded inputs, order
//! statistics, in-memory spans, the counting allocator, and process
//! counters. `src/main.rs` drives the workloads.

pub mod alloc;
pub mod gen;
pub mod host;
pub mod stats;
pub mod trace;
