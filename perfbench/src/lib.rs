//! End-to-end and per-layer host-time benchmark for the CoolPIM
//! reproduction. See `README.md` in this directory for what each
//! workload and metric means.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod check;
pub mod metrics;
pub mod probe;
pub mod runs;
pub mod workload;
