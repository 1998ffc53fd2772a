//! Gauge timelines and time-integrated accounting.
//!
//! The evaluation's timeline figures (provisioned GPUs over 17.5 hours,
//! active sessions over 90 days, ...) are step functions of virtual time.
//! [`Timeline`] records the step changes and integrates the area under
//! them (the basis of GPU-hour accounting).

/// Seconds-denominated virtual timestamp used by the collectors.
///
/// The collectors deliberately take plain `f64` seconds rather than a
/// simulator time type so that this crate stays dependency-free and usable
/// from both the DES and offline analysis.
pub type Seconds = f64;

/// A step-function gauge sampled against virtual time.
///
/// # Example
///
/// ```
/// use notebookos_metrics::Timeline;
///
/// let mut gpus = Timeline::new("provisioned-gpus");
/// gpus.set(0.0, 8.0);
/// gpus.set(3600.0, 16.0);
/// assert_eq!(gpus.value_at(1800.0), 8.0);
/// assert_eq!(gpus.value_at(7200.0), 16.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    name: String,
    /// `(time, value)` change points, non-decreasing in time.
    points: Vec<(Seconds, f64)>,
}

impl Timeline {
    /// Creates an empty timeline labelled `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Timeline {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The timeline's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records that the gauge changed to `value` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous change point.
    pub fn set(&mut self, at: Seconds, value: f64) {
        if let Some(&(last, prev)) = self.points.last() {
            assert!(at >= last, "timeline `{}` went backwards", self.name);
            if value == prev {
                return; // no-op change; keep the series compact
            }
            if at == last {
                // Same-instant update supersedes the previous one.
                self.points.pop();
            }
        }
        self.points.push((at, value));
    }

    /// The gauge value in effect at time `at` (0 before the first point).
    pub fn value_at(&self, at: Seconds) -> f64 {
        match self.points.partition_point(|&(t, _)| t <= at) {
            0 => 0.0,
            idx => self.points[idx - 1].1,
        }
    }

    /// Maximum value ever recorded (0 if empty).
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Raw change points.
    pub fn points(&self) -> &[(Seconds, f64)] {
        &self.points
    }

    /// Integrates the gauge over `[start, end]` (units: value-seconds).
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn integral(&self, start: Seconds, end: Seconds) -> f64 {
        assert!(end >= start);
        let mut area = 0.0;
        let mut t = start;
        let mut v = self.value_at(start);
        for &(pt, pv) in &self.points {
            if pt <= start {
                continue;
            }
            if pt >= end {
                break;
            }
            area += v * (pt - t);
            t = pt;
            v = pv;
        }
        area + v * (end - t)
    }

    /// Time-weighted mean of the gauge over `[start, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn time_mean(&self, start: Seconds, end: Seconds) -> f64 {
        assert!(end > start);
        self.integral(start, end) / (end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_at_steps() {
        let mut t = Timeline::new("g");
        assert_eq!(t.value_at(5.0), 0.0);
        t.set(10.0, 3.0);
        t.set(20.0, 5.0);
        assert_eq!(t.value_at(9.9), 0.0);
        assert_eq!(t.value_at(10.0), 3.0);
        assert_eq!(t.value_at(15.0), 3.0);
        assert_eq!(t.value_at(20.0), 5.0);
        assert_eq!(t.value_at(1e9), 5.0);
    }

    #[test]
    fn max_value_is_the_peak_level() {
        let mut t = Timeline::new("g");
        t.set(0.0, 2.0);
        t.set(10.0, 5.0);
        t.set(20.0, 4.0);
        assert_eq!(t.value_at(20.0), 4.0);
        assert_eq!(t.max_value(), 5.0);
        assert_eq!(Timeline::new("e").max_value(), 0.0);
    }

    #[test]
    fn same_instant_update_supersedes() {
        let mut t = Timeline::new("g");
        t.set(10.0, 1.0);
        t.set(10.0, 2.0);
        assert_eq!(t.points().len(), 1);
        assert_eq!(t.value_at(10.0), 2.0);
    }

    #[test]
    fn noop_changes_are_compacted() {
        let mut t = Timeline::new("g");
        t.set(0.0, 1.0);
        t.set(5.0, 1.0);
        assert_eq!(t.points().len(), 1);
    }

    #[test]
    fn integral_matches_hand_computation() {
        let mut t = Timeline::new("g");
        t.set(0.0, 2.0);
        t.set(10.0, 4.0);
        t.set(30.0, 0.0);
        // [0,10): 2*10=20; [10,30): 4*20=80; [30,40): 0.
        assert_eq!(t.integral(0.0, 40.0), 100.0);
        // Partial window [5, 15): 2*5 + 4*5 = 30.
        assert_eq!(t.integral(5.0, 15.0), 30.0);
        assert_eq!(t.time_mean(0.0, 40.0), 2.5);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn timeline_rejects_time_travel() {
        let mut t = Timeline::new("g");
        t.set(10.0, 1.0);
        t.set(5.0, 2.0);
    }
}
