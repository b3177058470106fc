//! Runs one command and reports its wall time, peak resident set, and
//! when it first wrote to stderr.
//!
//! ```text
//! perfbench-spawn [--until-stderr] STDOUT_FILE PROGRAM [ARGS...]
//! ```
//!
//! Prints `exit wall_s peak_rss_kb first_stderr_s` on one line. The
//! command's stdout goes to STDOUT_FILE; its stderr is read and
//! discarded. `first_stderr_s` is the time from spawn to the first byte
//! the command wrote to stderr, or -1 if it wrote none. With
//! `--until-stderr` the command is killed at that first byte, so a run
//! costs only the command's start-up; `exit` is then -1.
//!
//! Linux charges a process the peak resident set of the image it
//! replaced at `exec`, so a child started directly from a large
//! interpreter inherits the interpreter's peak. This launcher is small:
//! the peak it reports is the command's own unless the command stays
//! below this launcher's few megabytes.

use std::fs::File;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux (`long` fields are 64 bits).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Peak resident set, in kB, of the largest child this process waited for.
fn children_peak_rss_kb() -> Option<i64> {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // 64-bit Linux layout (two timevals then fourteen longs), which is
    // all getrusage writes; the call keeps no pointer after it returns.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then_some(usage.maxrss_kb)
}

fn run() -> Result<String, String> {
    let mut args = std::env::args().skip(1).peekable();
    let until_stderr = args.next_if_eq("--until-stderr").is_some();
    let (Some(out), Some(program)) = (args.next(), args.next()) else {
        return Err("usage: perfbench-spawn [--until-stderr] STDOUT_FILE PROGRAM [ARGS...]".into());
    };
    let stdout = File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(&program)
        .args(args)
        .stdout(Stdio::from(stdout))
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run {program}: {e}"))?;
    let mut stderr = child.stderr.take().ok_or("no stderr pipe")?;

    // Blocks until the command writes to stderr or closes it.
    let mut buf = [0u8; 4096];
    let first = stderr.read(&mut buf).map_err(|e| format!("stderr: {e}"))?;
    let first_stderr_s = if first > 0 {
        start.elapsed().as_secs_f64()
    } else {
        -1.0
    };
    if until_stderr && first > 0 {
        child.kill().map_err(|e| format!("cannot stop {program}: {e}"))?;
    }
    // Drain the rest, so the command never blocks on a full pipe.
    while stderr.read(&mut buf).map_err(|e| format!("stderr: {e}"))? > 0 {}
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let peak = children_peak_rss_kb().ok_or("getrusage failed")?;
    Ok(format!(
        "{} {wall_s} {peak} {first_stderr_s}",
        status.code().unwrap_or(-1)
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
