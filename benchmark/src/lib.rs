//! The repo benchmark: seven workloads, six end-to-end metrics, per-layer
//! attribution taken from outside the libraries. `README.md` in this
//! directory is the guide; `BENCHMARK.json` at the repository root is the
//! contract.

pub mod alloc;
pub mod compare;
pub mod harness;
pub mod kernels;
pub mod net;
pub mod schema;
pub mod span;
pub mod stats;
pub mod workloads;
