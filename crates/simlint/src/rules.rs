//! The simulation-specific rule set.
//!
//! Each rule is individually toggleable and scoped to the crates where
//! it is meaningful: the event-driven simulator state lives in
//! `simkit`/`diskmodel`/`intradisk`/`array`/`workload`, and the
//! experiment harness (`experiments`) shares the determinism contract
//! but is allowed to panic on internal errors. `bench` measures
//! wall-clock time by design and `testkit`/`simlint` are tooling, so
//! none of the rules apply there.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::Outline;
use crate::callgraph::CallGraph;
use crate::flow::{self, CallKind};
use crate::lexer::{Tok, TokKind};
use crate::parse::Brackets;
use crate::scope::{FileClass, FileKind};

/// Crates whose code executes inside (or drives) a simulation.
pub const SIM_CRATES: &[&str] = &[
    "simkit",
    "diskmodel",
    "intradisk",
    "array",
    "workload",
    "telemetry",
    "experiments",
];

/// Crates holding simulator *state*, where iteration order and panics
/// directly threaten reproducibility of results.
pub const CORE_CRATES: &[&str] = &[
    "simkit",
    "diskmodel",
    "intradisk",
    "array",
    "workload",
    "telemetry",
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule that fired.
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Whether a rule runs per file over the token stream, or once per
/// crate over the parsed outlines (so it can see call graphs and
/// cross-file field usage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleScope {
    /// Token-stream rule, one file at a time.
    File,
    /// Syntax-aware rule over all of a crate's files together.
    Crate,
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name as used on the CLI and in allow comments.
    pub name: &'static str,
    /// Crates the rule applies to.
    pub crates: &'static [&'static str],
    /// If true, only library sources are checked (bins excluded).
    pub lib_only: bool,
    /// File-scope (token stream) or crate-scope (outline + call graph).
    pub scope: RuleScope,
    /// One-line rationale.
    pub desc: &'static str,
}

/// Every rule simlint knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-wall-clock",
        crates: SIM_CRATES,
        lib_only: false,
        scope: RuleScope::File,
        desc: "std::time::Instant/SystemTime in simulation code breaks bit-for-bit replay; \
               use simkit::SimTime and the event calendar",
    },
    RuleInfo {
        name: "no-unordered-iteration",
        crates: CORE_CRATES,
        lib_only: false,
        scope: RuleScope::File,
        desc: "HashMap/HashSet iteration order is randomized per process; simulator state \
               must use BTreeMap/BTreeSet (or another ordered container)",
    },
    RuleInfo {
        name: "no-ambient-rng",
        crates: SIM_CRATES,
        lib_only: false,
        scope: RuleScope::File,
        desc: "randomness must be threaded from simkit::rng::Rng64 (seeded, forkable); \
               ambient generators make runs irreproducible",
    },
    RuleInfo {
        name: "no-thread-in-sim",
        crates: SIM_CRATES,
        lib_only: false,
        scope: RuleScope::File,
        desc: "OS threads interleave nondeterministically; simulation code must stay \
               single-threaded — concurrency is confined to the experiments executor \
               (exec.rs), which collects results in plan order and carries per-line \
               allow comments",
    },
    RuleInfo {
        name: "no-panic-in-lib",
        crates: CORE_CRATES,
        lib_only: true,
        scope: RuleScope::File,
        desc: "unwrap/expect/panic! in core library code aborts whole experiments; \
               return a typed error (diskmodel::error) instead",
    },
    RuleInfo {
        name: "no-float-eq",
        crates: SIM_CRATES,
        lib_only: false,
        scope: RuleScope::File,
        desc: "==/!= on floats is platform- and optimization-sensitive; compare with an \
               explicit tolerance (testkit::golden) or restructure",
    },
    RuleInfo {
        name: "unit-suffix-consistency",
        crates: SIM_CRATES,
        lib_only: false,
        scope: RuleScope::File,
        desc: "adding or comparing identifiers with different unit suffixes (_ms/_us/_ns/\
               _sectors/_lba/_bytes) is almost always a unit bug",
    },
    RuleInfo {
        name: "no-alloc-in-hot-path",
        crates: CORE_CRATES,
        lib_only: true,
        scope: RuleScope::Crate,
        desc: "functions marked `// simlint: hot` (and everything they call within the \
               crate) must stay allocation-free: no Vec::new/push/Box::new/collect/\
               format!/vec!/clone/to_vec/String::from — the steady-state kernel claim \
               of the timing-wheel/slab overhaul, locked in as a regression gate",
    },
    RuleInfo {
        name: "unbounded-sim-state",
        crates: CORE_CRATES,
        lib_only: true,
        scope: RuleScope::Crate,
        desc: "a collection-typed struct field that only ever grows (insert/push with no \
               drain/clear/pop/reset anywhere in the crate) caps run length; sim state \
               must be bounded for 10^8-request runs",
    },
    RuleInfo {
        name: "unchecked-slot-id",
        crates: CORE_CRATES,
        lib_only: true,
        scope: RuleScope::Crate,
        desc: "Slab::get/get_mut return None for stale SlotIds (generation mismatch); \
               library code must match or ?-propagate the Option, never unwrap/expect it",
    },
    RuleInfo {
        name: "exhaustive-event-match",
        crates: CORE_CRATES,
        lib_only: true,
        scope: RuleScope::Crate,
        desc: "a `_` arm in a match over TraceEvent/PowerMode silently swallows event \
               kinds added later; enumerate the variants so new events break loudly",
    },
];

/// Looks up a rule by name.
pub fn rule_by_name(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// True if `rule` applies to a file of this class at all.
pub fn rule_applies(rule: &RuleInfo, class: &FileClass) -> bool {
    if class.is_test_like() {
        return false;
    }
    if rule.lib_only && class.kind != FileKind::Lib {
        return false;
    }
    rule.crates.iter().any(|c| *c == class.crate_name)
}

/// Identifiers that name a wall-clock time source.
const WALL_CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];

/// Identifiers that name an ambient (unseeded or process-randomized)
/// RNG or randomized hasher.
const AMBIENT_RNG_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "StdRng",
    "SmallRng",
    "OsRng",
    "from_entropy",
    "getrandom",
    "RandomState",
    "DefaultHasher",
];

/// Unit suffixes recognised by `unit-suffix-consistency`.
const UNIT_SUFFIXES: &[&str] = &["ms", "us", "ns", "sectors", "lba", "bytes"];

/// Operators that require both operands in the same unit.
const SAME_UNIT_OPS: &[&str] = &["+", "-", "<", ">", "<=", ">=", "==", "!=", "+=", "-="];

/// Offset arithmetic: an `_lba` (sector index) plus/minus a `_sectors`
/// (sector count) is well-formed pointer+offset math, so the pair is
/// compatible under additive operators — but not under comparisons.
const OFFSET_PAIR: (&str, &str) = ("lba", "sectors");

/// Runs `rule` over the token stream of one file. `skip` marks token
/// indices to ignore (test regions); allowlist filtering happens in the
/// engine, which knows line numbers.
pub fn check(
    rule: &RuleInfo,
    file: &str,
    toks: &[Tok],
    skip: &dyn Fn(usize) -> bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut push = |t: &Tok, message: String| {
        out.push(Finding {
            file: file.to_string(),
            line: t.line,
            col: t.col,
            rule: rule.name,
            message,
        });
    };
    match rule.name {
        "no-wall-clock" => {
            for (i, t) in toks.iter().enumerate() {
                if skip(i) {
                    continue;
                }
                if t.kind == TokKind::Ident && WALL_CLOCK_IDENTS.contains(&t.text.as_str()) {
                    push(
                        t,
                        format!(
                            "wall-clock source `{}`; simulation code must use simkit::SimTime",
                            t.text
                        ),
                    );
                }
            }
        }
        "no-unordered-iteration" => {
            for (i, t) in toks.iter().enumerate() {
                if skip(i) {
                    continue;
                }
                if t.is_ident("HashMap") || t.is_ident("HashSet") {
                    let ordered = if t.text == "HashMap" {
                        "BTreeMap"
                    } else {
                        "BTreeSet"
                    };
                    push(
                        t,
                        format!(
                            "`{}` has randomized iteration order; use `{}` in simulator state",
                            t.text, ordered
                        ),
                    );
                }
            }
        }
        "no-ambient-rng" => {
            for (i, t) in toks.iter().enumerate() {
                if skip(i) {
                    continue;
                }
                let ambient =
                    t.kind == TokKind::Ident && AMBIENT_RNG_IDENTS.contains(&t.text.as_str());
                // A path starting `rand::` (the external crate).
                let rand_path =
                    t.is_ident("rand") && toks.get(i + 1).map(|n| n.is_op("::")).unwrap_or(false);
                if ambient || rand_path {
                    push(
                        t,
                        format!(
                            "ambient RNG `{}`; thread a forked simkit::rng::Rng64 stream instead",
                            t.text
                        ),
                    );
                }
            }
        }
        "no-thread-in-sim" => {
            for (i, t) in toks.iter().enumerate() {
                if skip(i) {
                    continue;
                }
                // The module path (`std::thread::`, `use std::thread`)
                // rather than the bare word, so locals named `thread`
                // are left alone.
                let thread_path = t.is_ident("thread")
                    && (toks.get(i + 1).map(|n| n.is_op("::")).unwrap_or(false)
                        || (i > 0 && toks[i - 1].is_op("::")));
                if thread_path || t.is_ident("JoinHandle") {
                    push(
                        t,
                        format!(
                            "`{}` spawns or handles OS threads; simulation code must stay \
                             single-threaded (the experiments executor is the one sanctioned \
                             user, with a justified allow comment)",
                            t.text
                        ),
                    );
                }
            }
        }
        "no-panic-in-lib" => {
            for (i, t) in toks.iter().enumerate() {
                if skip(i) {
                    continue;
                }
                // `.unwrap(` / `.expect(` as method calls.
                if (t.is_ident("unwrap") || t.is_ident("expect"))
                    && i > 0
                    && toks[i - 1].is_op(".")
                    && toks.get(i + 1).map(|n| n.is_op("(")).unwrap_or(false)
                {
                    push(
                        t,
                        format!(
                            "`.{}()` in core library code; return a typed error \
                             (diskmodel::error::DriveError) or restructure",
                            t.text
                        ),
                    );
                }
                // `panic!(`, `todo!(`, `unimplemented!(`.
                if t.kind == TokKind::Ident
                    && matches!(t.text.as_str(), "panic" | "todo" | "unimplemented")
                    && toks.get(i + 1).map(|n| n.is_op("!")).unwrap_or(false)
                {
                    push(
                        t,
                        format!(
                            "`{}!` in core library code; return a typed error instead",
                            t.text
                        ),
                    );
                }
            }
        }
        "no-float-eq" => {
            for (i, t) in toks.iter().enumerate() {
                if skip(i) {
                    continue;
                }
                if !(t.is_op("==") || t.is_op("!=")) {
                    continue;
                }
                let prev_float = i > 0 && toks[i - 1].kind == TokKind::Float;
                let next_float = toks
                    .get(i + 1)
                    .map(|n| n.kind == TokKind::Float)
                    .unwrap_or(false);
                if prev_float || next_float {
                    push(
                        t,
                        format!(
                            "`{}` against a float literal; compare with an explicit tolerance \
                             (or testkit::golden::assert_close)",
                            t.text
                        ),
                    );
                }
            }
        }
        "unit-suffix-consistency" => {
            for (i, t) in toks.iter().enumerate() {
                if skip(i) {
                    continue;
                }
                if !(t.kind == TokKind::Op && SAME_UNIT_OPS.contains(&t.text.as_str())) {
                    continue;
                }
                let (Some(prev), Some(next)) =
                    (i.checked_sub(1).map(|j| &toks[j]), toks.get(i + 1))
                else {
                    continue;
                };
                let (Some(a), Some(b)) = (unit_suffix(prev), unit_suffix(next)) else {
                    continue;
                };
                let additive = matches!(t.text.as_str(), "+" | "-" | "+=" | "-=");
                let offset_math = additive && ((a, b) == OFFSET_PAIR || (b, a) == OFFSET_PAIR);
                if a != b && !offset_math {
                    push(
                        t,
                        format!(
                            "`{}` mixes units: `{}` is in {} but `{}` is in {}",
                            t.text, prev.text, a, next.text, b
                        ),
                    );
                }
            }
        }
        other => {
            // Unknown rules are a programming error in the registry,
            // not a user input: RULES is the single source of truth.
            debug_assert!(false, "unknown rule {other}");
        }
    }
    out
}

/// The unit suffix of an identifier (`arrival_ms` -> `ms`), if any.
fn unit_suffix(t: &Tok) -> Option<&'static str> {
    if t.kind != TokKind::Ident {
        return None;
    }
    let tail = t.text.rsplit('_').next()?;
    UNIT_SUFFIXES.iter().find(|u| **u == tail).copied()
}

// ---------------------------------------------------------------------
// Crate-scope rules (RuleScope::Crate)
// ---------------------------------------------------------------------

/// One already-parsed file of a crate, as the crate-scope rules see it.
#[derive(Debug, Clone, Copy)]
pub struct CrateFile<'a> {
    /// Workspace-relative path.
    pub label: &'a str,
    /// Token stream.
    pub toks: &'a [Tok],
    /// Bracket map over `toks`.
    pub brackets: &'a Brackets,
    /// Item outline of the file.
    pub outline: &'a Outline,
}

/// Method names that allocate (the hot-path ban list).
const ALLOC_METHODS: &[&str] = &["push", "collect", "clone", "to_vec"];

/// `Type::fn` pairs that allocate.
const ALLOC_QUALIFIED: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "from"),
    ("String", "new"),
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Collection type names whose struct fields are bounded-state
/// candidates for `unbounded-sim-state`.
const COLLECTION_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "HashMap",
    "HashSet",
];

/// Methods that grow a collection.
const GROW_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "append",
    "extend",
    "extend_from_slice",
    "or_default",
    "or_insert",
    "or_insert_with",
    "resize",
    "resize_with",
];

/// Methods that shrink (or can shrink) a collection.
const SHRINK_METHODS: &[&str] = &[
    "pop",
    "pop_front",
    "pop_back",
    "pop_first",
    "pop_last",
    "remove",
    "remove_entry",
    "swap_remove",
    "take",
    "clear",
    "drain",
    "truncate",
    "retain",
    "retain_mut",
    "split_off",
    "dedup",
    "dedup_by",
    "dedup_by_key",
];

/// Enums whose matches must enumerate every variant in lib code.
const WATCHED_ENUMS: &[&str] = &["TraceEvent", "PowerMode"];

/// Runs one crate-scope `rule` over all of a crate's (applicable)
/// files together. Allowlist filtering happens in the engine.
pub fn check_crate(rule: &RuleInfo, files: &[CrateFile<'_>]) -> Vec<Finding> {
    let mut out = match rule.name {
        "no-alloc-in-hot-path" => check_hot_alloc(files),
        "unbounded-sim-state" => check_unbounded_state(files),
        "unchecked-slot-id" => check_slot_id(files),
        "exhaustive-event-match" => check_event_match(files),
        other => {
            debug_assert!(false, "unknown crate rule {other}");
            Vec::new()
        }
    };
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.col).cmp(&(b.file.as_str(), b.line, b.col)));
    out
}

/// `no-alloc-in-hot-path`: walk the crate call graph from the
/// `// simlint: hot` roots and flag every allocating call in a
/// reachable body.
fn check_hot_alloc(files: &[CrateFile<'_>]) -> Vec<Finding> {
    let parsed: Vec<(&[Tok], &Outline)> = files.iter().map(|f| (f.toks, f.outline)).collect();
    let graph = CallGraph::build(&parsed);
    let hot = graph.hot_reachable();
    let mut out = Vec::new();
    for (&node, root) in &hot {
        let item = graph.item(node);
        let Some((bs, be)) = item.body else { continue };
        let file = &files[graph.fns[node].file];
        let here = graph.display_name(node);
        let via = if here == *root {
            String::new()
        } else {
            format!(" (reached from `// simlint: hot` fn `{root}`)")
        };
        for call in flow::calls(file.toks, (bs, be + 1)) {
            let alloc = match &call.kind {
                CallKind::Method { .. } => ALLOC_METHODS.contains(&call.name.as_str()),
                CallKind::Qualified(q) => ALLOC_QUALIFIED
                    .iter()
                    .any(|(t, m)| q == t && call.name == *m),
                CallKind::Macro => ALLOC_MACROS.contains(&call.name.as_str()),
                CallKind::Free => false,
            };
            if !alloc {
                continue;
            }
            let t = &file.toks[call.tok];
            let spelling = match &call.kind {
                CallKind::Qualified(q) => format!("{q}::{}", call.name),
                CallKind::Macro => format!("{}!", call.name),
                _ => format!(".{}()", call.name),
            };
            out.push(Finding {
                file: file.label.to_string(),
                line: t.line,
                col: t.col,
                rule: "no-alloc-in-hot-path",
                message: format!(
                    "`{spelling}` allocates inside hot fn `{here}`{via}; hoist the \
                     allocation out of the steady-state path or allow-list it with a \
                     justification"
                ),
            });
        }
    }
    out
}

/// `unbounded-sim-state`: collection-typed struct fields with at least
/// one grow site and no shrink/reset site anywhere in the crate.
fn check_unbounded_state(files: &[CrateFile<'_>]) -> Vec<Finding> {
    // Candidate fields, keyed by name (same-named fields across structs
    // share usage evidence — conservative in the quiet direction).
    struct Candidate<'a> {
        file: &'a str,
        strukt: String,
        line: u32,
        col: u32,
    }
    let mut candidates: BTreeMap<&str, Vec<Candidate<'_>>> = BTreeMap::new();
    for f in files {
        for s in &f.outline.structs {
            if s.in_test {
                continue;
            }
            for field in &s.fields {
                if COLLECTION_TYPES
                    .iter()
                    .any(|c| Outline::ty_mentions(&field.ty, c))
                {
                    candidates
                        .entry(field.name.as_str())
                        .or_default()
                        .push(Candidate {
                            file: f.label,
                            strukt: s.name.clone(),
                            line: field.line,
                            col: field.col,
                        });
                }
            }
        }
    }
    if candidates.is_empty() {
        return Vec::new();
    }

    let mut grows: BTreeMap<&str, usize> = BTreeMap::new();
    let mut shrinks: BTreeMap<&str, usize> = BTreeMap::new();
    for f in files {
        for func in &f.outline.fns {
            if func.in_test {
                continue;
            }
            let Some((bs, be)) = func.body else { continue };
            let range = (bs, be + 1);
            let binds = flow::bindings(f.toks, f.brackets, range);
            for (&name, _) in &candidates {
                let mut methods = flow::methods_on(f.toks, f.brackets, range, name, true);
                // One level of alias flow: `let e = self.field...` makes
                // methods on `e` count toward `field`.
                for b in &binds {
                    let mentions =
                        (b.init.0..b.init.1.min(f.toks.len())).any(|i| f.toks[i].is_ident(name));
                    if !mentions {
                        continue;
                    }
                    for alias in &b.names {
                        methods.extend(flow::methods_on(f.toks, f.brackets, range, alias, false));
                    }
                }
                for (m, _) in &methods {
                    if GROW_METHODS.contains(&m.as_str()) {
                        *grows.entry(name).or_default() += 1;
                    }
                    if SHRINK_METHODS.contains(&m.as_str()) {
                        *shrinks.entry(name).or_default() += 1;
                    }
                }
                if flow::is_reset(f.toks, f.brackets, range, name) {
                    *shrinks.entry(name).or_default() += 1;
                }
            }
        }
    }

    let mut out = Vec::new();
    for (name, decls) in &candidates {
        let g = grows.get(name).copied().unwrap_or(0);
        let s = shrinks.get(name).copied().unwrap_or(0);
        if g == 0 || s > 0 {
            continue;
        }
        for d in decls {
            out.push(Finding {
                file: d.file.to_string(),
                line: d.line,
                col: d.col,
                rule: "unbounded-sim-state",
                message: format!(
                    "field `{}.{}` only grows ({g} grow site(s), no drain/clear/pop/reset \
                     in this crate); bounded-memory runs need a shrink path — add one or \
                     allow-list with a justification",
                    d.strukt, name
                ),
            });
        }
    }
    out
}

/// `unchecked-slot-id`: a `get`/`get_mut` on a `Slab`-typed field or
/// local whose `Option` result is `unwrap`/`expect`-ed, directly in the
/// chain or through a simple let binding.
fn check_slot_id(files: &[CrateFile<'_>]) -> Vec<Finding> {
    // Slab-typed struct fields, crate-wide.
    let mut slab_fields: BTreeSet<&str> = BTreeSet::new();
    for f in files {
        for s in &f.outline.structs {
            for field in &s.fields {
                if Outline::ty_mentions(&field.ty, "Slab") {
                    slab_fields.insert(field.name.as_str());
                }
            }
        }
    }

    let mut out = Vec::new();
    for f in files {
        for func in &f.outline.fns {
            if func.in_test {
                continue;
            }
            let Some((bs, be)) = func.body else { continue };
            let range = (bs, be + 1);
            let binds = flow::bindings(f.toks, f.brackets, range);
            // Locals holding a Slab value (`let pool = Slab::new()`).
            let mut slab_locals: BTreeSet<&str> = BTreeSet::new();
            // Locals holding an unchecked get result.
            let mut tainted: BTreeSet<&str> = BTreeSet::new();
            for b in &binds {
                if !b.simple {
                    continue;
                }
                let init_mentions_slab =
                    (b.init.0..b.init.1.min(f.toks.len())).any(|i| f.toks[i].is_ident("Slab"));
                if init_mentions_slab {
                    for n in &b.names {
                        slab_locals.insert(n.as_str());
                    }
                }
            }
            let is_slab = |name: &str| slab_fields.contains(name) || slab_locals.contains(name);
            for call in flow::calls(f.toks, range) {
                if !matches!(call.name.as_str(), "get" | "get_mut") {
                    continue;
                }
                let CallKind::Method {
                    receiver: Some(recv),
                } = &call.kind
                else {
                    continue;
                };
                if !is_slab(recv) {
                    continue;
                }
                // Walk from the call's close paren along the chain.
                let open = flow::next_code(
                    f.toks,
                    flow::after_turbofish(f.toks, call.tok + 1, range.1),
                    range.1,
                )
                .filter(|&j| f.toks[j].is_op("("));
                let Some(open) = open else { continue };
                let close = f.brackets.close_of(open).unwrap_or(open);
                if let Some(bad) = unwrap_after(f.toks, f.brackets, close + 1, range.1) {
                    let t = &f.toks[bad];
                    out.push(slot_finding(f.label, t, &call.name));
                    continue;
                }
                // Simple binding of the raw Option: taint the local.
                for b in &binds {
                    if b.simple && call.tok >= b.init.0 && call.tok < b.init.1 {
                        for n in &b.names {
                            tainted.insert(n.as_str());
                        }
                    }
                }
            }
            // Tainted locals unwrapped later in the body.
            for (i, t) in f.toks[range.0..range.1.min(f.toks.len())]
                .iter()
                .enumerate()
                .map(|(k, t)| (k + range.0, t))
            {
                if t.kind == TokKind::Ident && tainted.contains(t.text.as_str()) {
                    let dotted = flow::prev_code(f.toks, i)
                        .map(|p| f.toks[p].is_op("."))
                        .unwrap_or(false);
                    if dotted {
                        continue; // a field named like the local
                    }
                    if let Some(bad) = unwrap_after(f.toks, f.brackets, i + 1, range.1) {
                        out.push(slot_finding(f.label, &f.toks[bad], "get"));
                    }
                }
            }
        }
    }
    out
}

/// Scans a call chain starting at `from` for a `.unwrap(`/`.expect(`
/// link, skipping `?`, indexes, and intermediate method calls that
/// preserve the Option (`as_ref`, `as_mut`). Returns the offending
/// token index.
fn unwrap_after(toks: &[Tok], br: &Brackets, from: usize, end: usize) -> Option<usize> {
    let mut j = from;
    loop {
        let c = flow::next_code(toks, j, end)?;
        let t = &toks[c];
        if t.is_op("?") {
            return None; // propagated
        }
        if t.is_op("[") {
            j = br.close_of(c).map(|x| x + 1)?;
            continue;
        }
        if t.is_op(".") {
            let m = flow::next_code(toks, c + 1, end)?;
            if toks[m].kind != TokKind::Ident {
                return None;
            }
            let name = toks[m].text.as_str();
            let open = flow::next_code(toks, flow::after_turbofish(toks, m + 1, end), end)
                .filter(|&o| toks[o].is_op("("));
            match (name, open) {
                ("unwrap" | "expect", Some(_)) => return Some(m),
                // Option-preserving adapters: keep walking.
                ("as_ref" | "as_mut" | "as_deref" | "as_deref_mut", Some(o)) => {
                    j = br.close_of(o).map(|x| x + 1)?;
                }
                _ => return None,
            }
            continue;
        }
        return None;
    }
}

/// Builds one `unchecked-slot-id` finding.
fn slot_finding(file: &str, t: &Tok, getter: &str) -> Finding {
    Finding {
        file: file.to_string(),
        line: t.line,
        col: t.col,
        rule: "unchecked-slot-id",
        message: format!(
            "`Slab::{getter}` result `.{}()`-ed; a stale SlotId returns None after \
             generation reuse — match it or propagate a typed error",
            t.text
        ),
    }
}

/// `exhaustive-event-match`: a bare `_` arm in a match whose patterns
/// name a watched enum.
fn check_event_match(files: &[CrateFile<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        for func in &f.outline.fns {
            if func.in_test {
                continue;
            }
            let Some((bs, be)) = func.body else { continue };
            let end = (be + 1).min(f.toks.len());
            for i in bs..end {
                if !f.toks[i].is_ident("match") {
                    continue;
                }
                // Scrutinee: to the first `{` at depth 0.
                let mut j = i + 1;
                let mut open = None;
                while j < end {
                    let t = &f.toks[j];
                    if t.is_op("{") {
                        open = Some(j);
                        break;
                    }
                    if t.kind == TokKind::Op && matches!(t.text.as_str(), "(" | "[") {
                        j = f.brackets.close_of(j).map(|c| c + 1).unwrap_or(j + 1);
                        continue;
                    }
                    if t.is_op(";") {
                        break; // not a match expression after all
                    }
                    j += 1;
                }
                let Some(open) = open else { continue };
                let close = f.brackets.close_of(open).unwrap_or(end.saturating_sub(1));
                let mut watched = false;
                let mut wildcards: Vec<usize> = Vec::new();
                // Depth-1 walk: pattern tokens up to `=>`, then the arm
                // body (block or expression to the next `,`).
                let mut k = open + 1;
                let mut pattern: Vec<usize> = Vec::new();
                while k < close.min(end) {
                    let t = &f.toks[k];
                    if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                        k += 1;
                        continue;
                    }
                    if t.is_op("=>") {
                        let pat_idents: Vec<&str> = pattern
                            .iter()
                            .filter(|&&p| f.toks[p].kind == TokKind::Ident)
                            .map(|&p| f.toks[p].text.as_str())
                            .collect();
                        if pat_idents.iter().any(|s| WATCHED_ENUMS.contains(s)) {
                            watched = true;
                        }
                        if pattern.len() == 1 && f.toks[pattern[0]].is_ident("_") {
                            wildcards.push(pattern[0]);
                        }
                        pattern.clear();
                        // Skip the arm body.
                        let Some(b) = flow::next_code(f.toks, k + 1, close) else {
                            break;
                        };
                        if f.toks[b].is_op("{") {
                            k = f.brackets.close_of(b).map(|c| c + 1).unwrap_or(b + 1);
                        } else {
                            let mut m = b;
                            while m < close {
                                let bt = &f.toks[m];
                                if bt.is_op(",") {
                                    break;
                                }
                                if bt.kind == TokKind::Op
                                    && matches!(bt.text.as_str(), "(" | "[" | "{")
                                {
                                    m = f.brackets.close_of(m).map(|c| c + 1).unwrap_or(m + 1);
                                    continue;
                                }
                                m += 1;
                            }
                            k = m;
                        }
                        continue;
                    }
                    if t.kind == TokKind::Op && matches!(t.text.as_str(), "(" | "[" | "{") {
                        // A group inside the pattern (tuple, struct
                        // fields): its idents still matter for watched
                        // detection, so record the whole group.
                        let c = f.brackets.close_of(k).unwrap_or(k);
                        for p in k..=c.min(close) {
                            pattern.push(p);
                        }
                        k = c + 1;
                        continue;
                    }
                    if t.is_op(",") {
                        k += 1;
                        continue;
                    }
                    pattern.push(k);
                    k += 1;
                }
                if watched {
                    for w in wildcards {
                        let t = &f.toks[w];
                        out.push(Finding {
                            file: f.label.to_string(),
                            line: t.line,
                            col: t.col,
                            rule: "exhaustive-event-match",
                            message: "`_` arm in a match over a watched event enum \
                                      (TraceEvent/PowerMode); enumerate the remaining \
                                      variants so new event kinds fail loudly"
                                .to_string(),
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn run(rule: &str, src: &str) -> Vec<Finding> {
        let info = rule_by_name(rule).expect("known rule");
        let toks = tokenize(src);
        check(info, "mem.rs", &toks, &|_| false)
    }

    #[test]
    fn wall_clock_hits() {
        let f = run("no-wall-clock", "let t = std::time::Instant::now();");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Instant"));
        assert!(run("no-wall-clock", "let t = SimTime::ZERO;").is_empty());
    }

    #[test]
    fn unordered_hits() {
        let f = run("no-unordered-iteration", "use std::collections::HashMap;");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("BTreeMap"));
        assert!(run("no-unordered-iteration", "use std::collections::BTreeMap;").is_empty());
    }

    #[test]
    fn ambient_rng_hits() {
        assert_eq!(
            run("no-ambient-rng", "let mut r = rand::thread_rng();").len(),
            2
        );
        assert!(run("no-ambient-rng", "let mut r = Rng64::new(42).fork();").is_empty());
        // `rand` as a plain word (no path) is left alone.
        assert!(run("no-ambient-rng", "let rand = 3;").is_empty());
    }

    #[test]
    fn thread_hits() {
        assert_eq!(run("no-thread-in-sim", "use std::thread;").len(), 1);
        // `std::thread::scope` mentions `thread` with `::` on both
        // sides — still one finding per token occurrence.
        assert_eq!(
            run("no-thread-in-sim", "std::thread::scope(|s| {});").len(),
            1
        );
        assert_eq!(
            run("no-thread-in-sim", "let h: JoinHandle<()> = f();").len(),
            1
        );
        // A local named `thread` is not a thread API.
        assert!(run("no-thread-in-sim", "let thread = 3; f(thread);").is_empty());
    }

    #[test]
    fn panic_hits() {
        assert_eq!(run("no-panic-in-lib", "let x = y.unwrap();").len(), 1);
        assert_eq!(
            run("no-panic-in-lib", "let x = y.expect(\"msg\");").len(),
            1
        );
        assert_eq!(run("no-panic-in-lib", "panic!(\"boom\")").len(), 1);
        // unwrap_or and field accesses do not count.
        assert!(run("no-panic-in-lib", "let x = y.unwrap_or(0);").is_empty());
        assert!(run("no-panic-in-lib", "let expect = 3; f(expect)").is_empty());
    }

    #[test]
    fn float_eq_hits() {
        assert_eq!(run("no-float-eq", "if x == 1.0 {}").len(), 1);
        assert_eq!(run("no-float-eq", "if 0.5 != y {}").len(), 1);
        assert!(run("no-float-eq", "if x == 1 {}").is_empty());
        assert!(run("no-float-eq", "if (x - 1.0).abs() < 1e-9 {}").is_empty());
    }

    #[test]
    fn unit_suffix_hits() {
        let f = run(
            "unit-suffix-consistency",
            "let t = arrival_ms + size_sectors;",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("mixes units"));
        assert!(run(
            "unit-suffix-consistency",
            "let t = arrival_ms + service_ms;"
        )
        .is_empty());
        // Unsuffixed identifiers are unconstrained.
        assert!(run("unit-suffix-consistency", "let t = arrival_ms + x;").is_empty());
        // Multiplication converts units legitimately.
        assert!(run(
            "unit-suffix-consistency",
            "let b = size_sectors * per_sector_bytes;"
        )
        .is_empty());
        // Index + count is offset math, but comparing them is not.
        assert!(run(
            "unit-suffix-consistency",
            "let end = start_lba + len_sectors;"
        )
        .is_empty());
        assert_eq!(
            run("unit-suffix-consistency", "if start_lba < len_sectors {}").len(),
            1
        );
    }

    #[test]
    fn scoping_rules() {
        use crate::scope::{FileClass, FileKind};
        let panic_rule = rule_by_name("no-panic-in-lib").expect("rule");
        let lib = FileClass {
            crate_name: "simkit".into(),
            kind: FileKind::Lib,
        };
        let bin = FileClass {
            crate_name: "simkit".into(),
            kind: FileKind::Bin,
        };
        let harness_bin = FileClass {
            crate_name: "experiments".into(),
            kind: FileKind::Bin,
        };
        let test = FileClass {
            crate_name: "simkit".into(),
            kind: FileKind::Test,
        };
        let tool = FileClass {
            crate_name: "testkit".into(),
            kind: FileKind::Lib,
        };
        assert!(rule_applies(panic_rule, &lib));
        assert!(!rule_applies(panic_rule, &bin), "bins may panic");
        assert!(!rule_applies(panic_rule, &test));
        assert!(!rule_applies(panic_rule, &tool));
        let wall = rule_by_name("no-wall-clock").expect("rule");
        assert!(rule_applies(wall, &harness_bin), "bins drive simulations");
    }
}
