//! The property runner: case generation, failure detection, bounded
//! shrinking, and seed replay.
//!
//! [`check`] runs a property over `cases` deterministic cases. The base
//! seed is derived from the property name, so a given suite is
//! bit-reproducible run to run; every case gets its own case seed. On
//! failure the recorded choice stream is shrunk (bounded by
//! [`Config::max_shrink_runs`] extra executions) and the report names a
//! `TESTKIT_SEED=…` that replays the failing case directly:
//!
//! ```text
//! TESTKIT_SEED=1234567890123 cargo test -p diskmodel geometry_roundtrip
//! ```

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::gen::Gen;
use crate::source::Source;

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of random cases to run (default 64, env `TESTKIT_CASES`).
    pub cases: u64,
    /// Budget of extra property executions spent shrinking a failure.
    pub max_shrink_runs: u64,
}

impl Default for Config {
    fn default() -> Self {
        let cases = std::env::var("TESTKIT_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
            .max(1);
        Config {
            cases,
            max_shrink_runs: 1024,
        }
    }
}

/// One running test case: draws values and records them for reporting.
#[derive(Debug)]
pub struct TestCase<'a> {
    src: &'a mut Source,
    log: Vec<String>,
}

impl TestCase<'_> {
    /// Draws a value from a generator, logging its `Debug` rendering so
    /// a failure report can show every input of the minimal case.
    pub fn draw<T: std::fmt::Debug + 'static>(&mut self, g: &Gen<T>) -> T {
        let v = g.generate(self.src);
        self.log.push(format!("{v:?}"));
        v
    }

    /// Draws without logging (for bulky values probed many times).
    pub fn draw_silent<T: 'static>(&mut self, g: &Gen<T>) -> T {
        g.generate(self.src)
    }
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that stays silent while
/// this thread is probing a property, so hundreds of shrink-time panics
/// do not drown the report. Other threads are unaffected.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// FNV-1a over the property name: the deterministic base seed.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn case_seed(base: u64, index: u64) -> u64 {
    // SplitMix64 finalizer over base ^ index keeps case seeds decorrelated.
    let mut z = (base ^ index).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

enum RunOutcome {
    Pass,
    Fail { message: String, log: Vec<String> },
}

fn run_once(prop: &dyn Fn(&mut TestCase), src: &mut Source) -> RunOutcome {
    let mut case = TestCase {
        src,
        log: Vec::new(),
    };
    QUIET_PANICS.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| prop(&mut case)));
    QUIET_PANICS.with(|q| q.set(false));
    let log = case.log;
    match result {
        Ok(()) => RunOutcome::Pass,
        Err(payload) => RunOutcome::Fail {
            message: panic_message(payload.as_ref()),
            log,
        },
    }
}

/// Greedily minimizes a failing choice recording: every position is
/// driven toward zero by bisection, repeating until a fixed point or
/// the run budget is exhausted. Returns the minimal failing recording.
fn shrink(prop: &dyn Fn(&mut TestCase), recording: Vec<u64>, mut budget: u64) -> Vec<u64> {
    let mut cur = recording;
    let fails = |data: &[u64], budget: &mut u64| -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        matches!(
            run_once(prop, &mut Source::replay(data.to_vec())),
            RunOutcome::Fail { .. }
        )
    };
    loop {
        let mut changed = false;
        // Pass 1: drop the tail (replay pads zeros, so a shorter
        // recording is strictly simpler).
        while !cur.is_empty() && cur.last() == Some(&0) {
            cur.pop();
        }
        // Pass 2: bisect every choice toward zero.
        for i in 0..cur.len() {
            if cur[i] == 0 {
                continue;
            }
            let mut candidate = cur.clone();
            candidate[i] = 0;
            if fails(&candidate, &mut budget) {
                cur = candidate;
                changed = true;
                continue;
            }
            // Smallest failing value in (lo, hi]: lo passes, hi fails.
            let mut lo = 0u64;
            let mut hi = cur[i];
            while hi - lo > 1 && budget > 0 {
                let mid = lo + (hi - lo) / 2;
                let mut candidate = cur.clone();
                candidate[i] = mid;
                if fails(&candidate, &mut budget) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            if hi != cur[i] {
                cur[i] = hi;
                changed = true;
            }
        }
        if !changed || budget == 0 {
            return cur;
        }
    }
}

/// Checks a property over [`Config::default`] cases.
///
/// The closure draws inputs through [`TestCase::draw`] and asserts with
/// the standard macros; any panic fails the case. On failure the input
/// is shrunk and the runner panics with a report containing the minimal
/// drawn values and a replayable `TESTKIT_SEED`.
///
/// Setting `TESTKIT_SEED=<u64>` in the environment replays exactly that
/// one case instead of the full run.
pub fn check(name: &str, prop: impl Fn(&mut TestCase)) {
    check_with(Config::default(), name, prop)
}

/// [`check`] with an explicit configuration.
pub fn check_with(config: Config, name: &str, prop: impl Fn(&mut TestCase)) {
    install_quiet_hook();
    let replay_seed = std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    let base = name_seed(name);
    let seeds: Vec<u64> = match replay_seed {
        Some(s) => vec![s],
        None => (0..config.cases).map(|i| case_seed(base, i)).collect(),
    };
    for (i, seed) in seeds.iter().enumerate() {
        let mut src = Source::from_seed(*seed);
        if let RunOutcome::Fail { .. } = run_once(&prop, &mut src) {
            let recording = src.recording().to_vec();
            let minimal = shrink(&prop, recording, config.max_shrink_runs);
            // Re-run the minimal case to collect its inputs and message.
            let (message, log) = match run_once(&prop, &mut Source::replay(minimal.clone())) {
                RunOutcome::Fail { message, log } => (message, log),
                // The property flickered (non-deterministic); report
                // the unshrunk case instead.
                RunOutcome::Pass => match run_once(&prop, &mut Source::from_seed(*seed)) {
                    RunOutcome::Fail { message, log } => (message, log),
                    RunOutcome::Pass => ("<non-deterministic property>".into(), Vec::new()),
                },
            };
            panic!(
                "property `{name}` failed at case {i}/{n}\n  \
                 minimal inputs: [{inputs}]\n  \
                 assertion: {message}\n  \
                 replay with: TESTKIT_SEED={seed}",
                n = seeds.len(),
                inputs = log.join(", "),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn passing_property_is_silent() {
        check("always_true", |t| {
            let x = t.draw(&gen::u64_in(0..=100));
            assert!(x <= 100);
        });
    }

    #[test]
    fn failure_reports_replayable_seed_and_shrinks() {
        let caught = panic::catch_unwind(|| {
            check("forced_failure", |t| {
                let x = t.draw(&gen::u64_in(0..=1_000_000));
                assert!(x < 500, "x too big: {x}");
            });
        });
        let msg = panic_message(caught.expect_err("property must fail").as_ref());
        assert!(msg.contains("TESTKIT_SEED="), "no seed in: {msg}");
        assert!(msg.contains("forced_failure"), "no name in: {msg}");
        // Shrinking must reach the boundary: the minimal counterexample
        // of `x < 500` over a modular range generator is exactly 500.
        assert!(msg.contains("minimal inputs: [500]"), "not shrunk: {msg}");
    }

    #[test]
    fn shrinking_works_through_map() {
        let caught = panic::catch_unwind(|| {
            check("map_shrink", |t| {
                let v = t.draw(&gen::u64_in(0..=10_000).map(|x| x * 2));
                assert!(v < 1_000);
            });
        });
        let msg = panic_message(caught.expect_err("must fail").as_ref());
        assert!(msg.contains("minimal inputs: [1000]"), "{msg}");
    }

    #[test]
    fn vectors_shrink_to_short_witnesses() {
        let caught = panic::catch_unwind(|| {
            check("vec_shrink", |t| {
                let v = t.draw(&gen::vec_of(gen::u64_in(0..=9), 0..=64));
                assert!(v.len() < 3);
            });
        });
        let msg = panic_message(caught.expect_err("must fail").as_ref());
        // The unique minimal witness: exactly three minimal elements.
        assert!(msg.contains("minimal inputs: [[0, 0, 0]]"), "{msg}");
    }

    #[test]
    fn case_seeds_differ_between_properties() {
        assert_ne!(name_seed("a"), name_seed("b"));
        assert_ne!(case_seed(1, 0), case_seed(1, 1));
    }

    #[test]
    fn deterministic_across_runs() {
        let collect = || {
            let drawn = std::cell::RefCell::new(Vec::new());
            check_with(
                Config {
                    cases: 8,
                    max_shrink_runs: 0,
                },
                "determinism_probe",
                |t| drawn.borrow_mut().push(t.draw(&gen::u64_any())),
            );
            drawn.into_inner()
        };
        assert_eq!(collect(), collect());
    }
}
