//! The `anek` benchmark: seeded workloads driven through the public API,
//! checked against the generator's own answers, reporting end-to-end
//! metrics (untraced) or per-layer metrics (traced). See `README.md`.

pub mod batch;
pub mod cells;
pub mod layers;
pub mod quality;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
