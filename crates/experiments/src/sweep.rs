//! One sweep point for every simulation study: a labelled
//! `(workload, design)` pair, and the fixed-size [`Outcome`] of
//! replaying it.
//!
//! The paper's evaluation is one factorial sweep — {workload} × {MD,
//! HC-SD, HC-SD-SA(n), reduced RPM, scaled seek/rotation, arrays}
//! (§7.1–7.3). Each simulation study plans its slice of that sweep as
//! [`SimPoint`]s, and [`SimPoint::run`] is the one function that
//! replays them: it builds the [`Design`], applies the sweep's
//! statistics mode, and keeps only the summary the reports read, so no
//! point holds its response samples until the study reduces.

use array::Layout;
use diskmodel::{DiskParams, DriveError};
use intradisk::drpm::{DrpmConfig, DrpmDrive};
use intradisk::{DriveConfig, NullObserver, PowerBreakdown};
use simkit::{Cdf, Pdf};
use telemetry::NullRecorder;
use workload::{IntoRequestSource, SyntheticSpec, TraceBook, WorkloadKind};

use crate::configs::{hcsd_params, md_config, Scale};
use crate::runner::{run_array, run_drive, simulate};

/// A storage design a workload replays against.
#[derive(Debug, Clone, PartialEq)]
pub enum Design {
    /// One drive: model and config.
    Drive(DiskParams, DriveConfig),
    /// An array: member model and config, disk count, layout.
    Array(DiskParams, DriveConfig, usize, Layout),
    /// The DRPM two-speed drive: model and policy.
    Drpm(DiskParams, DrpmConfig),
}

impl Design {
    /// Table 2's storage system for `kind` ([`md_config`]), every
    /// member a conventional drive.
    pub fn md(kind: WorkloadKind) -> Self {
        let cfg = md_config(kind);
        Design::Array(
            cfg.drive,
            DriveConfig::conventional(),
            cfg.disks,
            cfg.layout,
        )
    }

    /// The HC-SD drive ([`hcsd_params`]) under `config`.
    pub fn hcsd(config: DriveConfig) -> Self {
        Design::Drive(hcsd_params(), config)
    }
}

/// The request stream a point replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// A Table 2 profile at the scale's request count, generated from
    /// the seed: the sweep's [`TraceBook`] replay when the seed is the
    /// book's, a lazy source otherwise.
    Profile(WorkloadKind, u64),
    /// A §7.3 synthetic workload, generated from the seed.
    Synthetic(SyntheticSpec, u64),
}

/// One point of a simulation study: a label for progress lines and
/// errors, the load, and the design it replays against.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPoint {
    /// Progress and error label, unique within its study's plan.
    pub label: String,
    /// The request stream.
    pub load: Load,
    /// The storage design.
    pub design: Design,
}

impl SimPoint {
    /// A point replaying `load` against `design`.
    pub fn new(label: impl Into<String>, load: Load, design: Design) -> Self {
        SimPoint {
            label: label.into(),
            load,
            design,
        }
    }

    /// Replays the point, collecting statistics in `scale.stats`.
    /// Profile loads replay from `book`, the sweep's [`TraceBook`].
    pub fn run(&self, scale: Scale, book: &TraceBook) -> Result<Outcome, DriveError> {
        match self.load {
            Load::Profile(kind, seed) => {
                self.replay(book.source_at(kind, scale.requests, seed), scale)
            }
            Load::Synthetic(spec, seed) => self.replay(spec.source(seed), scale),
        }
    }

    fn replay(&self, source: impl IntoRequestSource, scale: Scale) -> Result<Outcome, DriveError> {
        let stats = |config: &DriveConfig| config.clone().with_stats_mode(scale.stats);
        Ok(match &self.design {
            Design::Drive(params, config) => {
                let r = run_drive(params, stats(config), source)?;
                let m = &r.metrics;
                Outcome {
                    completed: m.completed,
                    mean_ms: m.response_time_ms.mean(),
                    p90_ms: r.p90_ms(),
                    power_w: r.power.total_w(),
                    cdf: Some(m.response_hist.cdf()),
                    power: Some(r.power),
                    drive: Some(DriveOutcome {
                        rot_pdf: m.rotational_hist.pdf(),
                        rot_mean_ms: m.rotational_ms.mean(),
                        nonzero_seek_fraction: m.nonzero_seek_fraction(),
                    }),
                }
            }
            Design::Array(params, member, disks, layout) => {
                let r = run_array(params, stats(member), *disks, *layout, source)?;
                Outcome {
                    completed: r.completed,
                    mean_ms: r.response_time_ms.mean(),
                    p90_ms: r.p90_ms(),
                    power_w: r.power.total_w(),
                    cdf: Some(r.response_hist.cdf()),
                    power: Some(r.power),
                    drive: None,
                }
            }
            Design::Drpm(params, config) => {
                let config = DrpmConfig {
                    stats: scale.stats,
                    ..*config
                };
                let drive = DrpmDrive::new(params, config);
                let r = simulate(source, drive, &mut NullRecorder, &mut NullObserver)?;
                Outcome {
                    completed: r.completed,
                    mean_ms: r.response_time_ms.mean(),
                    p90_ms: r.response_time_ms.percentile(90.0),
                    power_w: r.average_power_w(),
                    cdf: None,
                    power: None,
                    drive: None,
                }
            }
        })
    }
}

/// What one [`SimPoint`] measured. Fixed-size: it keeps no response
/// samples.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests completed.
    pub completed: u64,
    /// Mean response time, ms.
    pub mean_ms: f64,
    /// 90th-percentile response time, ms.
    pub p90_ms: f64,
    /// Average power, W.
    pub power_w: f64,
    /// Response-time CDF over the paper's edges (`None` for DRPM, which
    /// keeps no histogram).
    pub cdf: Option<Cdf>,
    /// Average power by mode (`None` for DRPM, which reports total
    /// watts only).
    pub power: Option<PowerBreakdown>,
    /// The single-drive statistics (`None` for arrays and DRPM).
    pub drive: Option<DriveOutcome>,
}

/// The statistics only a single drive reports (Figure 5's bottom row
/// and §7.2's seek fractions).
#[derive(Debug, Clone)]
pub struct DriveOutcome {
    /// Rotational-latency PDF.
    pub rot_pdf: Pdf,
    /// Mean rotational latency, ms.
    pub rot_mean_ms: f64,
    /// Fraction of media accesses with a non-zero seek.
    pub nonzero_seek_fraction: f64,
}

impl Outcome {
    /// The response-time CDF.
    ///
    /// # Panics
    /// Panics for a DRPM point, which keeps no histogram.
    pub fn response_cdf(&self) -> &Cdf {
        self.cdf
            .as_ref()
            .expect("drives and arrays keep a response histogram")
    }

    /// The average power by mode.
    ///
    /// # Panics
    /// Panics for a DRPM point, which reports total watts only.
    pub fn modes(&self) -> PowerBreakdown {
        self.power.expect("drives and arrays report power by mode")
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::extensions::DesignStudy;
    use crate::plan::Study;
    use crate::replication::RobustStudy;
    use crate::{BottleneckStudy, LimitStudy, RaidStudy, RpmStudy, SaStudy};

    fn points<S: Study<Point = SimPoint>>(study: &S, scale: Scale) -> Vec<SimPoint> {
        study.plan(scale).points().to_vec()
    }

    /// Every simulation study `repro all` runs, in its order (the
    /// validation study keeps its own point type).
    fn repro_all_plans(scale: Scale) -> Vec<(&'static str, Vec<SimPoint>)> {
        let robust = RobustStudy {
            kinds: WorkloadKind::ALL.to_vec(),
            seeds: vec![42, 1, 2, 3, 4],
        };
        vec![
            ("limit", points(&LimitStudy::all(), scale)),
            ("bottleneck", points(&BottleneckStudy::all(), scale)),
            ("sa", points(&SaStudy::all(), scale)),
            ("rpm", points(&RpmStudy::all(), scale)),
            ("raid", points(&RaidStudy::all(), scale)),
            ("drpm", points(&DesignStudy::drpm(), scale)),
            ("robust", points(&robust, scale)),
            ("dash", points(&DesignStudy::dash(), scale)),
        ]
    }

    #[test]
    fn repro_all_labels_are_unique_and_repeated_simulations_are_pinned() {
        let scale = Scale::quick().with_requests(2_000);
        let mut distinct: Vec<&SimPoint> = Vec::new();
        let mut total = 0;
        let plans = repro_all_plans(scale);
        for (study, plan) in &plans {
            let labels: BTreeSet<&str> = plan.iter().map(|p| p.label.as_str()).collect();
            assert_eq!(labels.len(), plan.len(), "{study} repeats a label");
            for p in plan {
                total += 1;
                let same = |q: &&SimPoint| (q.load, &q.design) == (p.load, &p.design);
                if !distinct.iter().any(same) {
                    distinct.push(p);
                }
            }
        }
        assert_eq!(total, 217, "simulation points of repro all");
        // The repeats: bottleneck's MD and unscaled (x1) seek and
        // rotation points (12), sa's MD and SA(1) (8), rpm's MD (4),
        // drpm's conventional and SA(4) @4200 (8), robust's seed-42
        // points (8) and dash's D1A1S1H1 and D1A2S1H1 (8). rpm's
        // SA(1)/7200 baseline is not among them: it differs from HC-SD
        // only in the drive model's name.
        assert_eq!(
            total - distinct.len(),
            48,
            "points repeating an earlier one"
        );
    }
}
