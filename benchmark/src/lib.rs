//! The repo benchmark: six workloads over the weakdep runtime, measured from outside through
//! public functions only. See `benchmark/README.md` for why each workload and metric exists
//! and `BENCHMARK.json` for the contract with the driver.

pub mod alloc;
pub mod cli;
pub mod graph;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
