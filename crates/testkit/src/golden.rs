//! Golden-regression assertions.
//!
//! The reproduction's contract with the paper is a set of *numbers
//! within tolerances* (calibration points, power-mode tables, service-
//! time orderings). These helpers make those assertions first-class:
//! each check carries a name, the expected value, and an explicit
//! tolerance, and failures report all three so a drifted calibration is
//! diagnosable from the test output alone.

/// Asserts `got` is within relative tolerance `rel` of `want`.
///
/// # Panics
/// Panics with a diagnostic naming the check when outside tolerance.
pub fn assert_rel(name: &str, got: f64, want: f64, rel: f64) {
    assert!(
        want != 0.0,
        "golden `{name}`: relative tolerance against zero; use assert_abs"
    );
    let err = (got - want).abs() / want.abs();
    assert!(
        err <= rel,
        "golden `{name}`: got {got}, want {want} ±{:.1}% (off by {:.2}%)",
        rel * 100.0,
        err * 100.0
    );
}

/// Asserts `got` is within absolute tolerance `abs` of `want`.
pub fn assert_abs(name: &str, got: f64, want: f64, abs: f64) {
    let err = (got - want).abs();
    assert!(
        err <= abs,
        "golden `{name}`: got {got}, want {want} ±{abs} (off by {err})"
    );
}

/// Asserts `got` lies in the closed band `[lo, hi]`.
pub fn assert_in_band(name: &str, got: f64, lo: f64, hi: f64) {
    assert!(lo <= hi, "golden `{name}`: empty band [{lo}, {hi}]");
    assert!(
        (lo..=hi).contains(&got),
        "golden `{name}`: got {got}, outside band [{lo}, {hi}]"
    );
}

/// Asserts a sequence is non-increasing up to relative slack `slack`
/// (each element may exceed its predecessor by at most that fraction).
/// Used for "more parallelism never hurts"-style orderings.
pub fn assert_monotone_nonincreasing(name: &str, values: &[f64], slack: f64) {
    for (i, w) in values.windows(2).enumerate() {
        assert!(
            w[1] <= w[0] * (1.0 + slack),
            "golden `{name}`: not non-increasing at index {i}: {:?}",
            values
        );
    }
}

/// Asserts a sequence is strictly increasing.
pub fn assert_strictly_increasing(name: &str, values: &[f64]) {
    for (i, w) in values.windows(2).enumerate() {
        assert!(
            w[1] > w[0],
            "golden `{name}`: not strictly increasing at index {i}: {:?}",
            values
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn rel_accepts_within_and_rejects_outside() {
        assert_rel("ok", 10.4, 10.0, 0.05);
        assert!(catch_unwind(|| assert_rel("bad", 11.0, 10.0, 0.05)).is_err());
    }

    #[test]
    fn abs_band_and_orderings() {
        assert_abs("ok", 1.0005, 1.0, 0.001);
        assert_in_band("ok", 0.5, 0.0, 1.0);
        assert_monotone_nonincreasing("ok", &[5.0, 4.0, 4.1], 0.05);
        assert_strictly_increasing("ok", &[1.0, 2.0, 3.0]);
        assert!(catch_unwind(|| assert_in_band("bad", 2.0, 0.0, 1.0)).is_err());
        assert!(catch_unwind(|| assert_monotone_nonincreasing("bad", &[1.0, 2.0], 0.05)).is_err());
        assert!(catch_unwind(|| assert_strictly_increasing("bad", &[2.0, 2.0])).is_err());
    }

    #[test]
    fn failure_messages_name_the_check() {
        let err =
            catch_unwind(|| assert_rel("seek_avg_ms", 9.9, 8.5, 0.05)).expect_err("must fail");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("seek_avg_ms"), "{msg}");
    }
}
