//! Oracle tests for the design-space explorer: cold-vs-warm cache
//! byte-identity, cache-key sensitivity, and Pareto-dominance
//! properties. Compiled under the `explorer` package (which owns the
//! `repro` binary, so `CARGO_BIN_EXE_repro` resolves here).

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use experiments::Executor;
use explorer::{
    axes_of, explore, pareto, Coverage, ExploreOptions, LatencyAxis, PointCache, PointDescriptor,
    SweepScale, CODE_VERSION,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("explore-test-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("test dir");
    dir
}

fn tiny_opts(cache: Option<PointCache>) -> ExploreOptions {
    ExploreOptions {
        scale: SweepScale {
            requests: 200,
            ..SweepScale::default()
        },
        coverage: Coverage::Coarse,
        latency: LatencyAxis::P90,
        cache,
    }
}

/// Cold run fills the cache; the warm run re-executes nothing and
/// emits byte-identical JSON.
#[test]
fn warm_run_is_byte_identical_and_executes_nothing() {
    let dir = tmpdir("warm");
    let opts = tiny_opts(Some(PointCache::new(&dir)));
    let cold = explore(&opts, &Executor::serial()).expect("cold explore");
    assert_eq!(cold.cached, 0, "cold cache serves nothing");
    assert!(cold.executed > 0);
    let warm = explore(&opts, &Executor::new(2)).expect("warm explore");
    assert_eq!(warm.executed, 0, "warm run re-executes nothing");
    assert_eq!(warm.cached, cold.points.len());
    assert_eq!(warm.json, cold.json, "cold and warm bytes agree");
    let _ = fs::remove_dir_all(&dir);
}

/// A cold run writes its whole cache as one pack file: no shard
/// directories, no temp files left behind.
#[test]
fn cold_explore_leaves_one_pack_file() {
    let dir = tmpdir("one-file");
    let opts = tiny_opts(Some(PointCache::new(&dir)));
    let cold = explore(&opts, &Executor::new(2)).expect("cold explore");
    assert_eq!(cold.executed, cold.points.len());
    let entries: Vec<_> = fs::read_dir(&dir)
        .expect("cache root exists")
        .map(|e| e.expect("readable entry"))
        .collect();
    assert_eq!(
        entries.len(),
        1,
        "one entry under the cache root: {entries:?}"
    );
    assert!(entries[0].file_type().expect("file type").is_file());
    // One line a point: the hash, the check field and the eleven
    // record fields (schema, code version, hash, eight metrics).
    let pack = fs::read_to_string(entries[0].path()).expect("pack is UTF-8");
    assert_eq!(pack.lines().count(), cold.points.len());
    for line in pack.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 2 + 11, "{line}");
        assert_eq!(fields[1].len(), 16, "check16 in {line}");
        assert_eq!(fields[2], explorer::point::RECORD_SCHEMA);
        assert_eq!(fields[3], CODE_VERSION);
        assert_eq!(fields[4], fields[0], "the record's hash is the line's");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Changing the seed, the per-point config, or the code version each
/// produce a cache miss; the identical descriptor hits.
#[test]
fn cache_key_sensitivity() {
    let dir = tmpdir("keys");
    let scale = SweepScale {
        requests: 200,
        ..SweepScale::default()
    };
    let d = explorer::space::grid(explorer::GridResolution::Coarse, scale)[0];
    let cache = PointCache::new(&dir);
    let out = explorer::point::run_point(&d).expect("point runs");
    cache.store(&out).expect("store");

    assert_eq!(cache.load(&d), Some(out), "identical descriptor hits");
    let reseeded = PointDescriptor {
        seed: d.seed + 1,
        ..d
    };
    assert!(cache.load(&reseeded).is_none(), "seed change misses");
    let resized = PointDescriptor {
        cache_mib: d.cache_mib + 4,
        ..d
    };
    assert!(cache.load(&resized).is_none(), "config change misses");
    let newer = PointCache::with_code_version(&dir, &format!("{CODE_VERSION}x"));
    assert!(newer.load(&d).is_none(), "code-version change misses");
    let _ = fs::remove_dir_all(&dir);
}

/// Pareto property on real explore output: no frontier member
/// dominates another, and every off-frontier point is dominated by (or
/// duplicates) a member.
#[test]
fn frontier_is_mutually_nondominated_over_real_points() {
    let out = explore(&tiny_opts(None), &Executor::new(2)).expect("explore");
    let axes: Vec<_> = out
        .points
        .iter()
        .map(|p| axes_of(p, LatencyAxis::P90))
        .collect();
    assert_eq!(pareto::frontier_indices(&axes), out.frontier);
    for &i in &out.frontier {
        for &j in &out.frontier {
            assert!(i == j || !axes[i].dominates(&axes[j]));
        }
    }
    for (i, a) in axes.iter().enumerate() {
        if out.frontier.contains(&i) {
            continue;
        }
        assert!(
            out.frontier
                .iter()
                .any(|&j| axes[j].dominates(a) || (axes[j] == *a && j < i)),
            "off-frontier point {i} neither dominated nor a duplicate"
        );
    }
}

/// End-to-end through the binary: a cold `repro explore` then a warm
/// one produce byte-identical stdout, explore.json, and report.html,
/// and the warm run executes zero points.
#[test]
fn repro_explore_cold_warm_end_to_end() {
    let root = tmpdir("e2e");
    let cache = root.join("cache");
    let run = |out: &str| {
        let out_dir = root.join(out);
        let r = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "explore",
                "--grid",
                "coarse",
                "--requests",
                "200",
                "--jobs",
                "2",
                "--out",
                out_dir.to_str().unwrap(),
                "--cache",
                cache.to_str().unwrap(),
            ])
            .output()
            .expect("repro explore runs");
        assert!(
            r.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&r.stderr)
        );
        (
            r.stdout,
            fs::read(out_dir.join("explore.json")).expect("explore.json written"),
            fs::read(out_dir.join("report.html")).expect("report.html written"),
            String::from_utf8_lossy(&r.stderr).to_string(),
        )
    };
    let (cold_out, cold_json, cold_html, cold_err) = run("cold");
    let (warm_out, warm_json, warm_html, warm_err) = run("warm");
    assert_eq!(cold_out, warm_out, "stdout is byte-identical");
    assert_eq!(cold_json, warm_json, "explore.json is byte-identical");
    assert_eq!(cold_html, warm_html, "report.html is byte-identical");
    assert!(
        cold_err.contains("(288 executed, 0 cached)"),
        "stderr: {cold_err}"
    );
    assert!(
        warm_err.contains("(0 executed, 288 cached)"),
        "stderr: {warm_err}"
    );
    let html = String::from_utf8(cold_html).expect("utf8 html");
    assert!(html.contains("Pareto"), "report carries the Pareto panel");
    let _ = fs::remove_dir_all(&root);
}

/// Bad CLI input is rejected at the argument boundary: one line on
/// stderr and exit code 1, never a panic (exit code 101, backtrace
/// hint) from a constructor's contract deep inside the run.
#[test]
fn repro_rejects_bad_cli_input_with_a_one_line_error() {
    let root = tmpdir("bad-cli");
    let trace = root.join("tiny.spc");
    fs::write(&trace, "0,0,4096,r,0.000\n0,64,4096,w,0.010\n").expect("write trace");
    let trace = trace.to_str().unwrap();
    let cases: [&[&str]; 7] = [
        &["scale", "--requests", "100", "--actuators", "0"],
        &["spc", trace, "--actuators", "0"],
        &["fig2", "--requests", "0"],
        &["scale", "--requests", "0"],
        &["scale", "--requests", "100", "--inter-arrival", "inf"],
        &["scale", "--requests", "100", "--heartbeat", "inf"],
        &["scale", "--requests", "100", "--heartbeat", "NaN"],
    ];
    for argv in cases {
        let r = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(argv)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&r.stderr);
        assert_eq!(
            r.status.code(),
            Some(1),
            "{argv:?} exit status; stderr: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{argv:?} stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?} stderr: {stderr}");
        assert!(r.stdout.is_empty(), "{argv:?} wrote stdout");
    }
    let _ = fs::remove_dir_all(&root);
}

/// An argument that is not UTF-8 is refused like any other bad input:
/// one line on stderr and exit code 1, not a panic in `env::args`.
#[cfg(unix)]
#[test]
fn repro_rejects_a_non_utf8_argument_with_a_one_line_error() {
    use std::os::unix::ffi::OsStrExt;
    let r = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(std::ffi::OsStr::from_bytes(b"fig\xff"))
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert_eq!(r.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains("not valid UTF-8"), "stderr: {stderr}");
    assert!(r.stdout.is_empty());
}
