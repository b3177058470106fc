//! Declarative sweep plans and the unified [`Study`] abstraction.
//!
//! The paper's evaluation is one large factorial sweep: {workload} ×
//! {MD, HC-SD, HC-SD-SA(n)} × {RPM, latency-scaling, disk-count,
//! failure} points. Every study module used to walk its slice of that
//! factorial with a bespoke serial loop; now each one *describes* its
//! slice as data — an [`ExperimentPlan`] — and the executor in
//! [`crate::exec`] decides how the points run (serially, or fanned out
//! over worker threads with results stitched back in plan order).
//!
//! The contract that makes parallel output byte-identical to serial:
//!
//! 1. [`Study::plan`] enumerates points in a deterministic order,
//! 2. [`Study::run_point`] is a pure function of `(point, scale,
//!    book)` — it replays its workload from the sweep's
//!    [`TraceBook`], whose traces are a pure function of
//!    `(kind, requests, seed)` and immutable once generated, and it
//!    shares no mutable state with other points,
//! 3. [`Study::reduce`] sees the outputs in exactly plan order, no
//!    matter which worker finished first.

use diskmodel::DriveError;
use workload::TraceBook;

use crate::configs::Scale;
use crate::exec::{run_study, Executor, StudyError};

/// An ordered list of independent sweep points — one study's slice of
/// the paper's factorial, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentPlan<P> {
    points: Vec<P>,
}

impl<P> ExperimentPlan<P> {
    /// Wraps an ordered point list. The order is the order reports are
    /// reduced in, regardless of execution interleaving.
    pub fn new(points: Vec<P>) -> Self {
        ExperimentPlan { points }
    }

    /// Number of points in the plan.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the plan has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points, in plan order.
    pub fn points(&self) -> &[P] {
        &self.points
    }
}

impl<P> FromIterator<P> for ExperimentPlan<P> {
    fn from_iter<I: IntoIterator<Item = P>>(iter: I) -> Self {
        ExperimentPlan::new(iter.into_iter().collect())
    }
}

/// One experiment suite: a declarative plan of sweep points, a pure
/// per-point simulation, and an order-preserving reduction to a report.
///
/// Implementors must be [`Sync`]: the executor shares `&self` across
/// worker threads.
pub trait Study: Sync {
    /// The data describing one sweep point (workload, drive/array
    /// config, scaling factor, failure schedule, ...).
    type Point: Send + Sync;
    /// What one point's simulation produces.
    type Output: Send;
    /// The reduced study report (the renderable artifact).
    type Report;

    /// Short name used in progress lines and error messages.
    fn name(&self) -> &'static str;

    /// Enumerates the sweep points, in the order [`Study::reduce`]
    /// will receive their outputs.
    fn plan(&self, scale: Scale) -> ExperimentPlan<Self::Point>;

    /// Human-readable label for one point (progress lines, errors).
    fn label(&self, point: &Self::Point) -> String;

    /// Runs one point. Must be a pure function of `(point, scale,
    /// book)` and share nothing mutable. `book` is the sweep's
    /// [`TraceBook`] for `scale` ([`Scale::book`]): replay profile
    /// workloads from it instead of regenerating them. Its traces
    /// depend only on `(kind, requests, seed)` and never change once
    /// generated, so which worker generated one cannot show in any
    /// output.
    fn run_point(
        &self,
        point: &Self::Point,
        scale: Scale,
        book: &TraceBook,
    ) -> Result<Self::Output, DriveError>;

    /// Folds the per-point outputs — in plan order — into the report.
    fn reduce(&self, outputs: Vec<Self::Output>) -> Self::Report;

    /// Plans, executes (on `exec`'s workers), and reduces in one call.
    fn run(&self, scale: Scale, exec: &Executor) -> Result<Self::Report, StudyError>
    where
        Self: Sized,
    {
        run_study(self, scale, exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_preserves_order_and_length() {
        let plan: ExperimentPlan<u32> = (0..5).collect();
        assert_eq!(plan.len(), 5);
        assert!(!plan.is_empty());
        assert_eq!(plan.points(), &[0, 1, 2, 3, 4]);
        assert!(ExperimentPlan::<u32>::new(Vec::new()).is_empty());
    }
}
