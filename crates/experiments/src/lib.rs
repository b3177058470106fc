//! `experiments` — the harness that regenerates every table and figure
//! of *Intra-Disk Parallelism: An Idea Whose Time Has Come* (ISCA 2008).
//!
//! Each module reproduces one artifact of the paper's evaluation:
//!
//! | module | artifact |
//! |--------|----------|
//! | [`tech_table`] | Table 1 — disk-drive technologies over time |
//! | [`configs`] | Table 2 — workload/storage configurations |
//! | [`limit_study`] | Figures 2 & 3 — MD vs HC-SD performance and power |
//! | [`bottleneck`] | Figure 4 — seek/rotational-latency bottleneck isolation |
//! | [`sa_eval`] | Figure 5 — HC-SD-SA(n) response CDFs and rotational PDFs |
//! | [`rpm_study`] | Figures 6 & 7 — reduced-RPM power and performance |
//! | [`raid_eval`] | Figure 8 — arrays of intra-disk parallel drives |
//! | [`cost_analysis`] | Table 9a & Figure 9b — cost-benefit analysis |
//! | [`extensions`] | beyond the paper: thermal feasibility; [`DesignStudy`], the DRPM and DASH-dimension comparisons |
//! | [`validation`] | simulator cross-checks against closed-form results |
//! | [`replication`] | seed-robustness of the headline conclusions |
//! | [`sweep`] | the one sweep point: [`SimPoint`] (label, [`Load`], [`Design`]) and its [`Outcome`] |
//! | [`tracing`] | `--trace` — Perfetto/CSV event-trace export of fixed scenarios |
//!
//! Every study implements the [`Study`] trait ([`plan`] module): it
//! *describes* its sweep as an [`ExperimentPlan`] and reduces per-point
//! outputs to a report; the [`exec`] module's [`Executor`] fans the
//! points across worker threads with byte-identical (plan-order)
//! result collection. Every simulation study except [`validation`]
//! plans [`SimPoint`]s, which [`SimPoint::run`] replays. [`runner`]
//! holds [`simulate`], the entry to the one run loop every device
//! shares; [`report`] renders results as the ASCII equivalents of the
//! paper's plots. The `repro` binary drives everything:
//!
//! ```text
//! cargo run --release -p explorer --bin repro -- all --jobs 4
//! cargo run --release -p explorer --bin repro -- fig5 --requests 200000
//! ```

// Exact float equality is platform- and optimization-sensitive in
// harness code too (DESIGN.md §6); tests compare pinned results
// exactly on purpose.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod bottleneck;
pub mod configs;
pub mod cost_analysis;
pub mod counters;
pub mod exec;
pub mod extensions;
pub mod limit_study;
pub mod metrics_export;
pub mod plan;
pub mod profile;
pub mod raid_eval;
pub mod replication;
pub mod report;
pub mod rpm_study;
pub mod runner;
pub mod sa_eval;
pub mod sweep;
pub mod tech_table;
pub mod tracing;
pub mod validation;

// The one import path for driving experiments: scale + the Study API +
// the study drivers + the raw runners.
pub use bottleneck::BottleneckStudy;
pub use configs::Scale;
pub use exec::{Executor, StudyError};
pub use extensions::DesignStudy;
pub use limit_study::LimitStudy;
pub use plan::{ExperimentPlan, Study};
pub use raid_eval::RaidStudy;
pub use rpm_study::RpmStudy;
pub use runner::{
    run_array, run_drive, simulate, ArrayRunResult, Device, DriveRunResult, NullObserver,
    RunObserver, SplitReplay,
};
pub use sa_eval::SaStudy;
pub use sweep::{Design, Load, Outcome, SimPoint};
pub use validation::ValidationStudy;
