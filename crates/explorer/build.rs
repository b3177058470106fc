//! Emits `CODE_VERSION`: a SHA-256 fingerprint over every source file
//! that can change a simulation result.
//!
//! The explorer's point cache is keyed on `(descriptor-hash,
//! code-version)` — a cached result is only valid for the exact code
//! that produced it (the gem5 reproducibility argument: standardize
//! *what ran*, not just what was asked for). The fingerprint hashes the
//! sorted relative path and contents of every `.rs`/`.toml` file in the
//! sim-affecting crates, so editing any model, workload, or
//! orchestration source yields a new version and a cold cache, while
//! rebuilding unchanged sources keeps the version (and the cache) warm.

use std::path::{Path, PathBuf};

// The build script only drives the incremental hasher; the one-shot
// `hex` helper is for the lib's callers.
#[allow(dead_code)]
mod sha256 {
    include!("src/sha256.rs");
}

/// Crates whose sources determine simulation output. Tooling crates
/// (testkit, bench) are deliberately absent: changing a test helper or
/// a benchmark must not invalidate the cache.
const SIM_CRATES: &[&str] = &[
    "simkit",
    "diskmodel",
    "intradisk",
    "array",
    "workload",
    "telemetry",
    "experiments",
    "explorer",
];

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets this"));
    let crates_root = manifest.parent().expect("crates dir").to_path_buf();

    let mut files = Vec::new();
    for krate in SIM_CRATES {
        collect_files(&crates_root.join(krate), &mut files);
    }
    files.sort();

    let mut digest = sha256::Sha256::new();
    for path in &files {
        let rel = path
            .strip_prefix(&crates_root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let body = std::fs::read(path).unwrap_or_default();
        digest.update(rel.as_bytes());
        digest.update(&[0]);
        digest.update(&(body.len() as u64).to_le_bytes());
        digest.update(&body);
        println!("cargo:rerun-if-changed={}", path.display());
    }
    // New files in any sim crate must also re-trigger the fingerprint.
    for krate in SIM_CRATES {
        println!(
            "cargo:rerun-if-changed={}",
            crates_root.join(krate).display()
        );
    }

    let version = digest.finish_hex();
    println!("cargo:rustc-env=CODE_VERSION={version}");
}
