//! Labelled (x, y) series — the exchange format between experiment runners
//! and the reporting layer. Every reproduced figure is a set of [`Series`].

/// One data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Independent variable (e.g. number of tasks, % learning cycles).
    pub x: f64,
    /// Measured value (e.g. average response time).
    pub y: f64,
}

/// A named curve: what a single line in one of the paper's figures is.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"Adaptive RL"`.
    pub label: String,
    /// Points in ascending-x order (enforced by [`Series::push`]).
    pub points: Vec<Point>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Builds a series from parallel x/y slices.
    ///
    /// # Panics
    /// Panics if the slices differ in length or x is not strictly increasing.
    pub fn from_xy(label: impl Into<String>, xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
        let mut s = Series::new(label);
        for (&x, &y) in xs.iter().zip(ys) {
            s.push(x, y);
        }
        s
    }

    /// Appends a point; x must strictly increase.
    ///
    /// # Panics
    /// Panics on out-of-order or non-finite coordinates.
    pub fn push(&mut self, x: f64, y: f64) {
        assert!(
            x.is_finite() && y.is_finite(),
            "series points must be finite ({x}, {y})"
        );
        if let Some(last) = self.points.last() {
            assert!(
                x > last.x,
                "series x must strictly increase ({} then {x})",
                last.x
            );
        }
        self.points.push(Point { x, y });
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The y value at the given x, if that exact x was recorded.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| p.x == x).map(|p| p.y)
    }

    /// Minimum y over the series.
    pub fn y_min(&self) -> Option<f64> {
        self.points.iter().map(|p| p.y).reduce(f64::min)
    }

    /// Maximum y over the series.
    pub fn y_max(&self) -> Option<f64> {
        self.points.iter().map(|p| p.y).reduce(f64::max)
    }

    /// Mean of y over the series; `None` if empty.
    pub fn y_mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|p| p.y).sum::<f64>() / self.points.len() as f64)
        }
    }

    /// Whether y is non-decreasing over x (within `tol` slack per step).
    pub fn is_monotone_nondecreasing(&self, tol: f64) -> bool {
        self.points.windows(2).all(|w| w[1].y >= w[0].y - tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_enforces_order() {
        let mut s = Series::new("a");
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.y_at(2.0), Some(20.0));
        assert_eq!(s.y_at(3.0), None);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn out_of_order_rejected() {
        let mut s = Series::new("a");
        s.push(2.0, 1.0);
        s.push(1.0, 1.0);
    }

    #[test]
    fn from_xy_builds() {
        let s = Series::from_xy("curve", &[1.0, 2.0, 3.0], &[3.0, 1.0, 2.0]);
        assert_eq!(s.y_min(), Some(1.0));
        assert_eq!(s.y_max(), Some(3.0));
        assert_eq!(s.y_mean(), Some(2.0));
    }

    #[test]
    fn monotonicity_check() {
        let up = Series::from_xy("up", &[1.0, 2.0, 3.0], &[1.0, 1.5, 4.0]);
        assert!(up.is_monotone_nondecreasing(0.0));
        let wiggle = Series::from_xy("w", &[1.0, 2.0, 3.0], &[1.0, 0.95, 4.0]);
        assert!(!wiggle.is_monotone_nondecreasing(0.0));
        assert!(wiggle.is_monotone_nondecreasing(0.1));
    }

    #[test]
    fn empty_series_aggregates() {
        let s = Series::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.y_min(), None);
        assert_eq!(s.y_mean(), None);
    }
}
