//! Unit-suffix consistency: `arrival_ms + size_sectors` is almost
//! always a unit bug, and neither rustc nor clippy sees it in raw
//! `f64`/`u64` fields. Tokenizes the simulation crates' sources with
//! `testkit::lexer` (so comments and string literals are never read as
//! code) and looks for `<ident>_<unit> <op> <ident>_<unit>` with two
//! different units under an operator that needs one unit on both
//! sides. `_lba` (an index) plus or minus `_sectors` (a count) is
//! offset math; comparing them is not.

use std::path::{Path, PathBuf};
use testkit::lexer::{tokenize, Tok, TokKind};

const CRATES: &str = "simkit diskmodel intradisk array workload telemetry experiments";
const UNITS: [&str; 6] = ["ms", "us", "ns", "sectors", "lba", "bytes"];
const SAME_UNIT_OPS: [&str; 10] = ["+", "-", "<", ">", "<=", ">=", "==", "!=", "+=", "-="];

fn unit(word: &str) -> Option<&str> {
    let (_, tail) = word.rsplit_once('_')?;
    UNITS.into_iter().find(|u| *u == tail)
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_operator_mixes_unit_suffixes() {
    let (root, mut files, mut mixed) = (Path::new(env!("CARGO_MANIFEST_DIR")), vec![], vec![]);
    for krate in CRATES.split(' ') {
        rust_files(&root.join("..").join(krate).join("src"), &mut files);
    }
    for file in &files {
        let toks: Vec<Tok> = tokenize(&std::fs::read_to_string(file).expect("source"))
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        for t in toks.windows(3) {
            let [l, op, r] = t else { continue };
            let (TokKind::Ident, TokKind::Op, TokKind::Ident) = (l.kind, op.kind, r.kind) else {
                continue;
            };
            let (Some(a), Some(b)) = (unit(&l.text), unit(&r.text)) else {
                continue;
            };
            let additive = ["+", "-", "+=", "-="].contains(&op.text.as_str());
            let offset = additive && matches!((a, b), ("lba", "sectors") | ("sectors", "lba"));
            if SAME_UNIT_OPS.contains(&op.text.as_str()) && a != b && !offset {
                let at = format!("{}:{}", file.display(), l.line);
                mixed.push(format!("{at}: {} {} {}", l.text, op.text, r.text));
            }
        }
    }
    assert!(files.len() > 50, "scanned only {} files", files.len());
    assert!(
        mixed.is_empty(),
        "unit-mixing operators:\n{}",
        mixed.join("\n")
    );
}
