//! One end-to-end benchmark over the whole BOOM stack, timed from
//! outside the program: see `README.md` for the workloads and metrics.

pub mod cluster;
pub mod model;
pub mod report;
pub mod run;
pub mod wrap;
