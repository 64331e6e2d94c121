//! Cycle-stepped simulation utilities shared by every crate in the PABST
//! reproduction.
//!
//! The simulator is deterministic and single-threaded: a system struct owns
//! its components and a `step()` method advances simulated time one cycle at
//! a time. This crate provides the small, well-tested building blocks those
//! components are made of:
//!
//! * [`Cycle`] — the simulated time unit (one CPU clock at 2 GHz by
//!   convention, so 10 µs = 20 000 cycles).
//! * [`queue::BoundedQueue`] — a finite FIFO with explicit backpressure.
//! * [`queue::DelayQueue`] — a FIFO whose entries become visible only after
//!   a fixed latency, used to model pipelined paths (network hops, cache
//!   lookup latencies).
//! * [`stats`] — counters, windowed rates, streaming histograms and
//!   per-epoch time series used to produce every figure in the paper.
//! * [`rng::SimRng`] — a deterministic, explicitly seeded SplitMix64
//!   generator, the only randomness source allowed in the simulator.
//! * [`fault`] — deterministic fault-injection plans: seed-reproducible
//!   injection decisions (SAT drop/delay/corrupt, epoch skew, MC stall,
//!   credit leak) with a JSONL-serializable schema.
//! * [`invariant::InvariantChecker`] — the one runtime invariant layer:
//!   a deterministic epoch-boundary law evaluator (conservation, bounds,
//!   monotonicity, liveness) wired into the SoC epoch loop in every build
//!   profile. By default a violated law panics with a typed
//!   [`invariant::InvariantViolation`]; chaos campaigns switch the policy
//!   to record violations instead, for outcome classification
//!   (docs/RESILIENCE.md).
//! * [`trace`] — epoch-structured observability: typed per-epoch records,
//!   pluggable sinks (in-memory ring, JSONL writer), and a dependency-free
//!   integer-only serializer.
//! * [`horizon::Horizon`] — min-combining of per-component `next_event`
//!   answers, the primitive behind quiescence-aware cycle skipping
//!   (docs/PERFORMANCE.md).
//!
//! # Examples
//!
//! ```
//! use pabst_simkit::queue::DelayQueue;
//!
//! let mut q: DelayQueue<&'static str> = DelayQueue::new(3);
//! q.push(10, "hello");
//! assert_eq!(q.pop_ready(12), None); // not visible until cycle 13
//! assert_eq!(q.pop_ready(13), Some("hello"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod horizon;
pub mod invariant;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod trace;

/// Simulated time, measured in CPU clock cycles.
///
/// By convention the simulated CPU clock is 2 GHz, so one cycle is 0.5 ns
/// and the paper's 10 µs epoch is 20 000 cycles.
pub type Cycle = u64;

/// Number of bytes in a cache line / DRAM burst throughout the model.
pub const LINE_BYTES: u64 = 64;

/// Converts a byte count over a cycle count into GB/s assuming a 2 GHz clock.
///
/// # Examples
///
/// ```
/// // 64 bytes every 7 cycles at 2 GHz is ~18.3 GB/s.
/// let gbps = pabst_simkit::bytes_per_cycle_to_gbps(64.0 / 7.0);
/// assert!((gbps - 18.28).abs() < 0.1);
/// ```
pub fn bytes_per_cycle_to_gbps(bytes_per_cycle: f64) -> f64 {
    bytes_per_cycle * 2.0 // 2e9 cycles/s * B/cycle = 2e9 B/s = 2 GB/s per B/cycle
}
