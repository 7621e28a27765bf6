//! # boom-bench — the evaluation harness
//!
//! One module (and one `src/bin/e*` binary) per table/figure of the
//! paper's evaluation section; see `DESIGN.md` §4 for the experiment index
//! and `EXPERIMENTS.md` for recorded paper-vs-measured results.
//!
//! | id | binary | paper artifact |
//! |----|--------|----------------|
//! | E1 | `e1_code_size` | code-size table (Overlog vs imperative LoC) |
//! | E2 | `e2_map_cdf` | CDF of map-task completion, 2×2 system matrix |
//! | E3 | `e3_reduce_cdf` | CDF of reduce-task completion, same matrix |
//! | E4 | `e4_late_speculation` | speculation policies under stragglers |
//! | E5 | `e5_failover` | NameNode failover latency & op latency vs replicas |
//! | E6 | `e6_partitioned_nn` | metadata throughput vs partition count |
//! | E7 | `e7_monitoring` | tracing-overhead table |
//! | E8 | `e8_chaos` | chaos schedules: fault injection + self-healing invariants |
//! | E10 | `e10_engine` | engine hot path: tuples/CPU-sec, serial-vs-parallel identity |
//! | E12 | `e12_recovery` | durable recovery: replay cost vs history and checkpoint interval |
//! | E13 | `e13_serve` | serving tier: standing subscriptions at scale over a loaded NameNode |
//! | E14 | `e14_maint` | incremental view maintenance vs full recompute on heartbeat churn |
//!
//! Criterion microbenches (`cargo bench`) cover engine-level numbers that
//! back the latency/throughput cells at CI-friendly scale.

pub mod chaos;
pub mod experiments;
pub mod locs;
pub mod observe;
pub mod recovery;
pub mod serve;

pub use chaos::{
    run_chaos, run_restart_storm, ChaosConfig, ChaosReport, NamedSchedule, RestartStormConfig,
};
pub use experiments::*;
pub use observe::{run_observed, ObserveConfig, ObservedRun};
pub use recovery::{run_recovery_bench, run_recovery_case, RecoveryCase};
pub use serve::{run_serve_bench, ServeBenchConfig, ServeBenchReport};
