//! Trace capture behind `repro <study> --trace <dir>`.
//!
//! Exports a fixed set of deterministic scenarios — the drive designs
//! the paper's evaluation revolves around — as Perfetto-loadable Chrome
//! trace JSON, a flat CSV timeline, and a post-hoc analysis summary.
//! Three files per scenario land in the output directory:
//!
//! * `<name>.trace.json` — open in <https://ui.perfetto.dev> (one
//!   track per actuator, plus request and power-mode tracks);
//! * `<name>.timeline.csv` — every event, one row each, for ad-hoc
//!   analysis;
//! * `<name>.analysis.txt` — per-actuator utilization, queue-depth
//!   percentiles, time-in-mode, and the modeled energy.
//!
//! The export is byte-identical across runs and `--jobs` values: the
//! scenarios replay serially on the caller's thread with fixed seeds,
//! and every exporter orders its output by `(SimTime, seq)`.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use array::{ArrayController, Layout};
use diskmodel::{DiskParams, PowerModel};
use intradisk::{DiskDrive, DriveConfig, OverlapMode};
use telemetry::{chrome_trace_json, schema, timeline_csv, ModePowers, RingRecorder, TraceAnalysis};
use workload::{SyntheticSpec, Trace};

use crate::configs::{hcsd_params, Scale};
use crate::metrics_export::{replay_scenario, ExportError};

/// Requests per trace scenario (capped by the run's `--requests`).
///
/// Traces are for inspection, not statistics: a few thousand requests
/// keep the JSON small enough for Perfetto while still exercising
/// queueing.
pub const TRACE_REQUESTS: usize = 4_000;

/// Seed for the trace scenarios' synthetic workload.
const TRACE_SEED: u64 = 42;

/// Footprint of the scenario workloads (~100 GB, well inside every
/// config).
pub(crate) const TRACE_FOOTPRINT_SECTORS: u64 = 200_000_000;

/// Derives the analyzer's power levels from the drive's power model,
/// so telemetry-side energy uses exactly the constants the simulator
/// charges.
pub fn mode_powers(params: &DiskParams) -> ModePowers {
    let p = PowerModel::new(params);
    ModePowers {
        idle_w: p.idle_w(),
        seek_w: p.seek_w(1),
        rotational_w: p.rotational_wait_w(),
        transfer_w: p.transfer_w(),
    }
}

pub(crate) fn scenario_trace(scale: Scale, footprint_sectors: u64) -> Trace {
    let n = scale.requests.min(TRACE_REQUESTS);
    SyntheticSpec::paper(6.0, footprint_sectors, n).generate(TRACE_SEED)
}

/// Writes one scenario's three files from a single sorted copy of the
/// ring, then checks the stream's structure against `actuators` arm
/// assemblies per scope. A ring that dropped events is not checked (a
/// `SeekEnd` whose `SeekStart` was evicted is legitimate there); its
/// analysis carries the drop count, which stamps a WARNING line in
/// instead of silently under-reporting utilization and energy.
fn write_scenario(
    dir: &Path,
    name: &'static str,
    rec: &RingRecorder,
    actuators: u32,
    powers: &ModePowers,
    files: &mut Vec<String>,
) -> Result<(), ExportError> {
    let samples = rec.sorted_samples();
    let mut analysis = TraceAnalysis::from_samples(&samples);
    analysis.dropped = rec.dropped();
    let mut analysis_text = analysis.render_text();
    for (scope, s) in &analysis.scopes {
        let _ = writeln!(
            analysis_text,
            "scope {scope}: energy {:.3} J, average power {:.3} W",
            s.energy_joules(powers),
            s.average_power_w(powers)
        );
    }
    for (suffix, body) in [
        ("trace.json", chrome_trace_json(&samples)),
        ("timeline.csv", timeline_csv(&samples)),
        ("analysis.txt", analysis_text),
    ] {
        let file = format!("{name}.{suffix}");
        let path = dir.join(&file);
        fs::write(&path, body).map_err(|source| ExportError::Io {
            path: path.clone(),
            action: "write",
            source,
        })?;
        files.push(file);
    }
    if rec.dropped() == 0 {
        if let Err(violations) = schema::validate(&samples, actuators) {
            return Err(ExportError::MalformedTrace {
                scenario: name,
                violation: violations.into_iter().next().unwrap_or_default(),
            });
        }
    }
    Ok(())
}

/// What a trace export produced: the files written (fixed order) and
/// each scenario's ring-buffer drop count, so callers can surface
/// truncation on stderr instead of leaving it buried in the analysis
/// text.
#[derive(Debug, Clone)]
pub struct TraceExport {
    /// File names written under the export directory, in a fixed order.
    pub files: Vec<String>,
    /// `(scenario, samples dropped)` per scenario, in replay order.
    /// Zero means the ring held the whole run.
    pub drops: Vec<(&'static str, u64)>,
}

/// Replays the trace scenarios and exports them under `dir` (created
/// if missing). Returns the file names written and per-scenario ring
/// drop counts, in a fixed order. Fails with
/// [`ExportError::MalformedTrace`] if an intact scenario's event stream
/// breaks [`schema::validate`].
pub fn export_traces(dir: &Path, scale: Scale) -> Result<TraceExport, ExportError> {
    fs::create_dir_all(dir).map_err(|source| ExportError::Io {
        path: dir.to_path_buf(),
        action: "create",
        source,
    })?;
    let mut files = Vec::new();
    let mut drops: Vec<(&'static str, u64)> = Vec::new();
    let params = hcsd_params();
    let powers = mode_powers(&params);
    let trace = scenario_trace(scale, TRACE_FOOTPRINT_SECTORS);

    // The limit study's two poles: the conventional high-capacity
    // drive and its 4-actuator intra-disk parallel variant.
    for (name, actuators) in [("hcsd-sa1", 1u32), ("hcsd-sa4", 4u32)] {
        let mut rec = RingRecorder::new();
        let drive = DiskDrive::new(&params, DriveConfig::sa(actuators));
        replay_scenario(name, &trace, drive, &mut rec)?;
        write_scenario(dir, name, &rec, actuators, &powers, &mut files)?;
        drops.push((name, rec.dropped()));
    }

    // Figure 8's direction: an array built from intra-disk parallel
    // members, here with RAID-5 parity traffic to make the per-member
    // tracks interesting. Each member is SA(2).
    {
        let mut rec = RingRecorder::new();
        let array = ArrayController::new(&params, DriveConfig::sa(2), 4, Layout::raid5_default());
        replay_scenario("array-raid5", &trace, array, &mut rec)?;
        write_scenario(dir, "array-raid5", &rec, 2, &powers, &mut files)?;
        drops.push(("array-raid5", rec.dropped()));
    }

    // The drive at its most concurrent overlap mode: per-arm channels,
    // so seeks and transfers from different actuators interleave on
    // the timeline.
    {
        let mut rec = RingRecorder::new();
        let drive = DiskDrive::new(
            &params,
            DriveConfig::sa(4).with_overlap(OverlapMode::MultiChannel),
        );
        replay_scenario("overlap-multichannel", &trace, drive, &mut rec)?;
        write_scenario(dir, "overlap-multichannel", &rec, 4, &powers, &mut files)?;
        drops.push(("overlap-multichannel", rec.dropped()));
    }

    Ok(TraceExport { files, drops })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_powers_match_power_model() {
        let params = hcsd_params();
        let p = PowerModel::new(&params);
        let m = mode_powers(&params);
        assert_eq!(m.idle_w, p.idle_w());
        assert_eq!(m.seek_w, p.seek_w(1));
        assert_eq!(m.rotational_w, p.rotational_wait_w());
        assert_eq!(m.transfer_w, p.transfer_w());
        assert!(m.transfer_w > m.idle_w);
    }

    #[test]
    fn export_writes_all_scenarios() {
        let dir = std::env::temp_dir().join("telemetry-export-test");
        let _ = fs::remove_dir_all(&dir);
        let scale = Scale::quick().with_requests(200);
        let export = export_traces(&dir, scale).expect("export succeeds");
        assert_eq!(export.files.len(), 12, "4 scenarios x 3 files");
        for f in &export.files {
            let body = fs::read_to_string(dir.join(f)).expect("file exists");
            assert!(!body.is_empty(), "{f} is empty");
        }
        assert_eq!(export.drops.len(), 4, "one drop count per scenario");
        for (name, dropped) in &export.drops {
            assert_eq!(*dropped, 0, "{name} overflowed its ring at 200 requests");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
