//! Pareto-front extraction and normalization helpers for trade-off
//! curves (the paper's Figure 5 presentation), plus the n-dimensional
//! dominance front behind [`Explorer::Pareto3`].
//!
//! [`Explorer::Pareto3`]: crate::explore::Explorer::Pareto3

use crate::explore::TrajectoryPoint;
use crate::qor::QorMetric;

/// A point of a trade-off curve or surface: the driving error metric
/// plus the modeled design axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// Error value of the driving metric.
    pub error: f64,
    /// Modeled area, µm².
    pub area_um2: f64,
    /// Area normalized to the exact design.
    pub norm_area: f64,
    /// Modeled critical-path depth, ns (cluster-DAG longest path over
    /// the active variants' estimated delays).
    pub depth_ns: f64,
    /// Trajectory step the point came from.
    pub step: usize,
}

/// Project a trajectory onto (metric, normalized area) points.
///
/// # Examples
///
/// Extract the trade-off curve of a flow run and keep its Pareto
/// front (`examples/weighted_qor.rs` in miniature):
///
/// ```
/// use blasys_circuits::multiplier;
/// use blasys_core::pareto::{pareto_front, tradeoff_curve};
/// use blasys_core::{run, ExploreSpec, FlowConfig, QorMetric};
///
/// let cfg = FlowConfig::new().samples(512);
/// let result = run(&multiplier(2), cfg, &ExploreSpec::new()).unwrap();
/// let curve = tradeoff_curve(result.trajectory(), QorMetric::AvgRelative);
/// assert_eq!(curve.len(), result.trajectory().len());
/// assert_eq!(curve[0].norm_area, 1.0); // normalized to the exact design
///
/// let front = pareto_front(&curve);
/// assert!(!front.is_empty() && front.len() <= curve.len());
/// // The front is sorted by error with strictly shrinking area.
/// assert!(front.windows(2).all(|w| w[0].error <= w[1].error));
/// assert!(front.windows(2).all(|w| w[0].area_um2 > w[1].area_um2));
/// ```
///
/// # Panics
///
/// Panics if the trajectory is empty.
pub fn tradeoff_curve(trajectory: &[TrajectoryPoint], metric: QorMetric) -> Vec<TradeoffPoint> {
    assert!(!trajectory.is_empty(), "trajectory must not be empty");
    let base = trajectory[0].model_area_um2.max(f64::MIN_POSITIVE);
    trajectory
        .iter()
        .map(|p| TradeoffPoint {
            error: p.qor.value(metric),
            area_um2: p.model_area_um2,
            norm_area: p.model_area_um2 / base,
            depth_ns: p.model_depth_ns,
            step: p.step,
        })
        .collect()
}

/// Keep only Pareto-optimal points (no other point has both lower
/// error and lower area), sorted by error.
pub fn pareto_front(points: &[TradeoffPoint]) -> Vec<TradeoffPoint> {
    let mut sorted: Vec<TradeoffPoint> = points.to_vec();
    sorted.sort_by(|a, b| {
        a.error
            .partial_cmp(&b.error)
            .unwrap()
            .then(a.area_um2.partial_cmp(&b.area_um2).unwrap())
    });
    let mut front: Vec<TradeoffPoint> = Vec::new();
    let mut best_area = f64::INFINITY;
    for p in sorted {
        if p.area_um2 < best_area {
            best_area = p.area_um2;
            front.push(p);
        }
    }
    front
}

/// An axis accessor for [`pareto_front_nd`].
pub type Axis = fn(&TradeoffPoint) -> f64;

/// The (error, area, depth) axes of [`pareto_front3`].
pub const AXES3: [Axis; 3] = [
    |p: &TradeoffPoint| p.error,
    |p: &TradeoffPoint| p.area_um2,
    |p: &TradeoffPoint| p.depth_ns,
];

/// Keep only points not **strictly dominated** on the given axes.
///
/// `a` strictly dominates `b` when `a` is ≤ `b` on *every* axis and
/// `<` on at least one. The result therefore satisfies, for any input
/// set:
///
/// * no returned point is dominated by **any** input point;
/// * every dropped point is dominated by **some** returned point
///   (dominance is transitive, so a maximal dominator of a dropped
///   point is itself kept);
/// * points tied on every axis are mutually non-dominating and all
///   kept — so the output is independent of the input order.
///
/// The output is sorted lexicographically by the axes (then by
/// [`TradeoffPoint::step`]), which together with the tie rule makes it
/// **stable under input permutation** — a property the explorer test
/// battery pins.
///
/// Quadratic in the input size, which is fine for exploration-scale
/// archives (one point per candidate probe).
pub fn pareto_front_nd(points: &[TradeoffPoint], axes: &[Axis]) -> Vec<TradeoffPoint> {
    assert!(!axes.is_empty(), "need at least one axis");
    let dominates = |a: &TradeoffPoint, b: &TradeoffPoint| {
        let mut strict = false;
        for axis in axes {
            let (va, vb) = (axis(a), axis(b));
            if va > vb {
                return false;
            }
            if va < vb {
                strict = true;
            }
        }
        strict
    };
    let mut front: Vec<TradeoffPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|q| dominates(q, p)))
        .copied()
        .collect();
    front.sort_by(|a, b| {
        axes.iter()
            .map(|axis| axis(a).total_cmp(&axis(b)))
            .fold(std::cmp::Ordering::Equal, std::cmp::Ordering::then)
            .then(a.step.cmp(&b.step))
    });
    front
}

/// The 3-D (error, area, depth) dominance front: [`pareto_front_nd`]
/// over [`AXES3`].
pub fn pareto_front3(points: &[TradeoffPoint]) -> Vec<TradeoffPoint> {
    pareto_front_nd(points, &AXES3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qor::QorReport;

    fn point(step: usize, err: f64, area: f64) -> TrajectoryPoint {
        TrajectoryPoint {
            step,
            changed_cluster: None,
            degrees: vec![],
            qor: QorReport {
                avg_relative: err,
                ..QorReport::default()
            },
            model_area_um2: area,
            model_depth_ns: 0.0,
        }
    }

    fn tp(step: usize, error: f64, area: f64, depth: f64) -> TradeoffPoint {
        TradeoffPoint {
            error,
            area_um2: area,
            norm_area: 1.0,
            depth_ns: depth,
            step,
        }
    }

    #[test]
    fn curve_normalizes_to_first_point() {
        let traj = vec![point(0, 0.0, 200.0), point(1, 0.1, 100.0)];
        let c = tradeoff_curve(&traj, QorMetric::AvgRelative);
        assert_eq!(c[0].norm_area, 1.0);
        assert_eq!(c[1].norm_area, 0.5);
    }

    #[test]
    fn pareto_front_removes_dominated() {
        let pts = vec![
            tp(0, 0.0, 100.0, 0.0),
            tp(1, 0.1, 90.0, 0.0),
            tp(2, 0.2, 95.0, 0.0), // dominated
            tp(3, 0.3, 50.0, 0.0),
        ];
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 3);
        assert!(front.iter().all(|p| p.step != 2));
        assert!(front.windows(2).all(|w| w[0].error <= w[1].error));
        assert!(front.windows(2).all(|w| w[0].area_um2 > w[1].area_um2));
    }

    #[test]
    fn single_point_is_its_own_front() {
        let pts = vec![tp(0, 0.0, 10.0, 0.0)];
        assert_eq!(pareto_front(&pts).len(), 1);
    }

    #[test]
    fn nd_front_keeps_depth_tradeoffs_2d_would_drop() {
        // Same (error, area) skyline as the 2-D test, but point 2 now
        // buys its worse area with a much shallower circuit — in 3-D
        // nothing dominates it.
        let pts = vec![
            tp(0, 0.0, 100.0, 5.0),
            tp(1, 0.1, 90.0, 5.0),
            tp(2, 0.2, 95.0, 1.0),
            tp(3, 0.3, 50.0, 5.0),
        ];
        let front3 = pareto_front3(&pts);
        assert_eq!(front3.len(), 4);
        // Collapse the depth axis and the 2-D answer comes back.
        let front2 = pareto_front_nd(
            &pts,
            &[|p: &TradeoffPoint| p.error, |p: &TradeoffPoint| p.area_um2],
        );
        assert_eq!(front2.len(), 3);
        assert!(front2.iter().all(|p| p.step != 2));
    }

    #[test]
    fn nd_front_is_permutation_stable() {
        let pts = vec![
            tp(0, 0.0, 100.0, 5.0),
            tp(1, 0.1, 90.0, 4.0),
            tp(2, 0.1, 90.0, 6.0), // dominated by 1
            tp(3, 0.2, 80.0, 4.5),
        ];
        let a = pareto_front3(&pts);
        let mut rev = pts.clone();
        rev.reverse();
        let b = pareto_front3(&rev);
        assert_eq!(a, b);
    }

    #[test]
    fn nd_front_keeps_exact_ties() {
        // Identical points never dominate each other: both survive.
        let pts = vec![tp(0, 0.1, 50.0, 2.0), tp(1, 0.1, 50.0, 2.0)];
        assert_eq!(pareto_front3(&pts).len(), 2);
    }
}
