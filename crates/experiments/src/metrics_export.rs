//! Metrics capture behind `repro <study> --metrics <dir>` and the
//! `repro report <dir>` dashboard.
//!
//! Replays the same fixed scenario set as `--trace`
//! ([`crate::tracing`]) with a [`MetricsRecorder`] attached, then
//! writes two files per scenario:
//!
//! * `<name>.prom` — Prometheus text exposition;
//! * `<name>.metrics.json` — stable JSON, including the gauge cadence
//!   series and both histogram views.
//!
//! `repro report <dir>` reads every `*.metrics.json` back and renders
//! `report.html`, a single self-contained dashboard (inline SVG, no
//! scripts, no external assets).
//!
//! Determinism: scenarios replay serially on the caller's thread with
//! fixed seeds, and both exporters are pure functions of the sorted
//! snapshot — so the exports (and the report rendered from them) are
//! byte-identical across runs, hosts, and `--jobs` values.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use array::{ArrayController, Layout};
use diskmodel::DriveError;
use intradisk::{
    Device, DiskDrive, DriveConfig, NullObserver, OverlapConfig, OverlapMode, OverlappedDrive,
};
use telemetry::metrics::{export, jsonv, report, MetricsRecorder};
use telemetry::Recorder;
use workload::Trace;

use crate::configs::{hcsd_params, Scale};
use crate::runner::simulate;
use crate::tracing::{scenario_trace, TRACE_FOOTPRINT_SECTORS};

/// Why a `--trace`/`--metrics` export or a `report` render failed.
///
/// Every variant renders as a single line; `repro` prints it to stderr
/// and exits nonzero instead of panicking.
#[derive(Debug)]
pub enum ExportError {
    /// Filesystem trouble (unwritable directory, missing input, ...).
    Io {
        /// The path involved.
        path: PathBuf,
        /// What the operation was.
        action: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A scenario replay hit a drive protocol error.
    Simulation {
        /// Scenario name.
        scenario: &'static str,
        /// The drive's typed error.
        source: DriveError,
    },
    /// A `--trace` scenario's event stream failed [`telemetry::schema::validate`].
    MalformedTrace {
        /// Scenario name.
        scenario: &'static str,
        /// The first violation reported.
        violation: String,
    },
    /// An input file exists but does not hold what it should.
    InvalidInput {
        /// The offending file.
        path: PathBuf,
        /// One-line diagnosis.
        message: String,
    },
    /// `repro report` found no `*.metrics.json` in the directory.
    NoInputs {
        /// The directory searched.
        dir: PathBuf,
    },
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::Io {
                path,
                action,
                source,
            } => {
                write!(f, "cannot {action} {}: {source}", path.display())
            }
            ExportError::Simulation { scenario, source } => {
                write!(f, "scenario {scenario} failed: {source}")
            }
            ExportError::MalformedTrace {
                scenario,
                violation,
            } => {
                write!(
                    f,
                    "scenario {scenario} traced a malformed stream: {violation}"
                )
            }
            ExportError::InvalidInput { path, message } => {
                write!(f, "invalid input {}: {message}", path.display())
            }
            ExportError::NoInputs { dir } => {
                write!(
                    f,
                    "no *.metrics.json found in {} (run `repro <study> --metrics {}` first)",
                    dir.display(),
                    dir.display()
                )
            }
        }
    }
}

impl std::error::Error for ExportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExportError::Io { source, .. } => Some(source),
            ExportError::Simulation { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err<'a>(
    path: &'a Path,
    action: &'static str,
) -> impl FnOnce(std::io::Error) -> ExportError + 'a {
    move |source| ExportError::Io {
        path: path.to_path_buf(),
        action,
        source,
    }
}

fn write_snapshot(
    dir: &Path,
    name: &str,
    rec: &mut MetricsRecorder,
    files: &mut Vec<String>,
) -> Result<(), ExportError> {
    let snap = rec.finish();
    for (suffix, body) in [
        ("prom", export::prometheus_text(&snap)),
        ("metrics.json", export::json_text(&snap)),
    ] {
        let file = format!("{name}.{suffix}");
        let path = dir.join(&file);
        fs::write(&path, body).map_err(io_err(&path, "write"))?;
        files.push(file);
    }
    Ok(())
}

/// Replays the fixed scenarios with a metrics recorder attached and
/// exports Prometheus + JSON snapshots under `dir` (created if
/// missing). Returns the file names written, in a fixed order.
pub fn export_metrics(dir: &Path, scale: Scale) -> Result<Vec<String>, ExportError> {
    fs::create_dir_all(dir).map_err(io_err(dir, "create"))?;
    let mut files = Vec::new();
    let params = hcsd_params();
    let trace = scenario_trace(scale, TRACE_FOOTPRINT_SECTORS);

    for (name, actuators) in [("hcsd-sa1", 1u32), ("hcsd-sa2", 2u32), ("hcsd-sa4", 4u32)] {
        let mut rec = MetricsRecorder::new();
        let drive = DiskDrive::new(&params, DriveConfig::sa(actuators));
        replay_scenario(name, &trace, drive, &mut rec)?;
        write_snapshot(dir, name, &mut rec, &mut files)?;
    }

    {
        let mut rec = MetricsRecorder::new();
        let array = ArrayController::new(&params, DriveConfig::sa(2), 4, Layout::raid5_default());
        replay_scenario("array-raid5", &trace, array, &mut rec)?;
        write_snapshot(dir, "array-raid5", &mut rec, &mut files)?;
    }

    {
        let mut rec = MetricsRecorder::new();
        let drive = OverlappedDrive::new(&params, OverlapConfig::new(4, OverlapMode::MultiChannel));
        replay_scenario("overlap-multichannel", &trace, drive, &mut rec)?;
        write_snapshot(dir, "overlap-multichannel", &mut rec, &mut files)?;
    }

    Ok(files)
}

/// Replays one fixed export scenario, naming it in any error.
pub(crate) fn replay_scenario<D: Device, R: Recorder>(
    scenario: &'static str,
    trace: &Trace,
    device: D,
    rec: &mut R,
) -> Result<D::Report, ExportError> {
    simulate(trace, device, rec, &mut NullObserver)
        .map_err(|source| ExportError::Simulation { scenario, source })
}

/// Loads `<dir>/explore.json` if present, validating its schema tag.
/// Absent file → `Ok(None)`; present-but-invalid → typed error (a
/// half-written explore export should fail loudly, not vanish).
fn load_explore(dir: &Path) -> Result<Option<jsonv::Value>, ExportError> {
    let path = dir.join("explore.json");
    let body = match fs::read_to_string(&path) {
        Ok(body) => body,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(source) => return Err(io_err(&path, "read")(source)),
    };
    let json = jsonv::parse(&body).map_err(|e| ExportError::InvalidInput {
        path: path.clone(),
        message: e.to_string(),
    })?;
    if json.get("schema").and_then(jsonv::Value::as_str) != Some(report::EXPLORE_SCHEMA) {
        return Err(ExportError::InvalidInput {
            path,
            message: format!(
                "missing or unknown schema tag (want {})",
                report::EXPLORE_SCHEMA
            ),
        });
    }
    Ok(Some(json))
}

/// Reads every `*.metrics.json` under `dir` — plus `explore.json` if
/// the design-space explorer left one — and writes `<dir>/report.html`.
/// Returns the report path.
pub fn write_report(dir: &Path) -> Result<PathBuf, ExportError> {
    let entries = fs::read_dir(dir).map_err(io_err(dir, "read"))?;
    let mut inputs = Vec::new();
    let mut names: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(io_err(dir, "read"))?;
        let path = entry.path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .map(|n| n.ends_with(".metrics.json"))
            .unwrap_or(false)
        {
            names.push(path);
        }
    }
    names.sort();
    for path in names {
        let body = fs::read_to_string(&path).map_err(io_err(&path, "read"))?;
        let json = jsonv::parse(&body).map_err(|e| ExportError::InvalidInput {
            path: path.clone(),
            message: e.to_string(),
        })?;
        if json.get("schema").and_then(jsonv::Value::as_str) != Some(export::JSON_SCHEMA) {
            return Err(ExportError::InvalidInput {
                path: path.clone(),
                message: format!(
                    "missing or unknown schema tag (want {})",
                    export::JSON_SCHEMA
                ),
            });
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".metrics.json"))
            .unwrap_or("scenario")
            .to_string();
        inputs.push(report::ReportInput { name, json });
    }
    let explore = load_explore(dir)?;
    if inputs.is_empty() && explore.is_none() {
        return Err(ExportError::NoInputs {
            dir: dir.to_path_buf(),
        });
    }
    let out = dir.join("report.html");
    fs::write(
        &out,
        report::render_html_with_explore(&inputs, explore.as_ref()),
    )
    .map_err(io_err(&out, "write"))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_then_report_roundtrip() {
        let dir = std::env::temp_dir().join("metrics-export-test");
        let _ = fs::remove_dir_all(&dir);
        let scale = Scale::quick().with_requests(300);
        let files = export_metrics(&dir, scale).expect("export succeeds");
        assert_eq!(files.len(), 10, "5 scenarios x 2 files");
        for f in &files {
            assert!(!fs::read_to_string(dir.join(f))
                .expect("file exists")
                .is_empty());
        }
        let report = write_report(&dir).expect("report renders");
        let html = fs::read_to_string(report).expect("report exists");
        assert!(html.contains("hcsd-sa4"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_on_empty_dir_is_typed_error() {
        let dir = std::env::temp_dir().join("metrics-report-empty-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let err = write_report(&dir).expect_err("must fail");
        assert!(matches!(err, ExportError::NoInputs { .. }));
        assert!(err.to_string().contains("no *.metrics.json"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_renders_from_explore_json_alone() {
        let dir = std::env::temp_dir().join("metrics-report-explore-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(
            dir.join("explore.json"),
            format!(
                "{{\"schema\":\"{}\",\"latency_axis\":\"p90\",\"points\":[],\"frontier\":[]}}",
                report::EXPLORE_SCHEMA
            ),
        )
        .expect("write");
        let path = write_report(&dir).expect("report renders without metrics inputs");
        let html = fs::read_to_string(path).expect("report exists");
        assert!(html.contains("Pareto"));

        fs::write(dir.join("explore.json"), "{\"schema\":\"wrong\"}").expect("write");
        let err = write_report(&dir).expect_err("bad schema must fail");
        assert!(matches!(err, ExportError::InvalidInput { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_rejects_garbage_json() {
        let dir = std::env::temp_dir().join("metrics-report-garbage-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("bad.metrics.json"), "{not json").expect("write");
        let err = write_report(&dir).expect_err("must fail");
        assert!(matches!(err, ExportError::InvalidInput { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_into_file_path_is_typed_error() {
        let dir = std::env::temp_dir().join("metrics-export-collision-test");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&dir);
        fs::write(&dir, "occupied").expect("write blocker file");
        let err = export_metrics(&dir, Scale::quick().with_requests(10)).expect_err("must fail");
        assert!(matches!(err, ExportError::Io { .. }));
        let _ = fs::remove_file(&dir);
    }
}
