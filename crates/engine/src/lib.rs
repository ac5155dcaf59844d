#![warn(missing_docs)]

//! # ricd-engine — parallel vertex-compute engine
//!
//! The paper runs every algorithm (except COPYCATCH/FRAUDAR) on **Grape**, a
//! parallel graph engine where an algorithm is expressed as rounds of
//! per-vertex work distributed across workers, with a barrier between
//! rounds (16 workers by default in the paper's cluster). This crate is the
//! in-process substitute: a [`WorkerPool`] over scoped threads,
//! range [`partition`]ing of the vertex space, and bulk-synchronous
//! [`WorkerPool::map_vertices`] / [`WorkerPool::filter_vertices`]
//! primitives.
//!
//! Keeping the same programming model matters for fidelity: RICD's pruning
//! passes (Algorithm 3) are expressed as parallel per-vertex rounds here,
//! exactly as they would be on Grape, and the elapsed-time comparison of
//! Fig 8b times those rounds for real.
//!
//! [`timing`] provides the phase stopwatch used to report per-module elapsed
//! times.
//!
//! ## Fault tolerance
//!
//! A production cluster loses workers; the paper's deployment at Taobao
//! cannot abort a day's detection run because one partition crashed. Every
//! scheduling primitive therefore has a `try_*` form returning
//! [`EngineError`]; the infallible forms built on them panic only after the
//! retry budget is exhausted. The contract itself — contained panics, a
//! retry on a fresh thread, a last attempt inline on the caller — is stated
//! once, on [`WorkerPool`], and implemented once, in the scheduler core both
//! entry points call. [`fault`] provides the deterministic
//! fault-injection hooks the chaos suite drives this with.

pub mod error;
pub mod fault;
pub mod partition;
pub mod pool;
pub mod timing;

pub use error::EngineError;
pub use fault::{FaultInjector, FaultPlan, ServeFault, ServeFaultInjector, ServeFaultPlan};
pub use partition::partition_ranges;
pub use pool::{panic_message, PoolMetrics, WorkerPool, MAX_PARTITION_ATTEMPTS};
pub use timing::{PhaseTimings, Stopwatch};
