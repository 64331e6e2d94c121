//! Workload generators for the PABST reproduction.
//!
//! These replace the paper's QEMU functional front-end and its benchmark
//! suite with deterministic synthetic generators whose *memory request
//! shape* — dependence structure, memory-level parallelism, intensity,
//! working-set size and write fraction — matches the workloads the paper
//! evaluates (§IV-A and DESIGN.md §2):
//!
//! * [`stream::StreamGen`] — the bandwidth-bound microbenchmark: streams
//!   through an array at a 128-byte stride with fully independent accesses.
//! * [`chaser::ChaserGen`] — the latency-bound microbenchmark: four
//!   concurrent random pointer chases per CPU.
//! * [`stream::PeriodicStreamGen`] — alternates memory-resident and
//!   cache-resident phases (drives Fig. 6, work conservation).
//! * [`spec::SpecProxyGen`] — parameterized proxies for the eight SPEC
//!   CPU2006 workloads the paper runs.
//! * [`memcached::MemcachedGen`] — a closed-loop transaction server proxy
//!   with per-transaction service-time markers (drives Fig. 9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaser;
pub mod memcached;
pub mod region;
pub mod spec;
pub mod stream;

pub use chaser::ChaserGen;
pub use memcached::MemcachedGen;
pub use region::Region;
pub use spec::{SpecProxyGen, SpecWorkload, ALL_SPEC};
pub use stream::{PeriodicStreamGen, SkewedStreamGen, StreamGen};
