//! Virtual simulation time.
//!
//! [`SimTime`] is an integer number of microseconds since the start of the
//! simulation. Integer time makes event ordering exact and the whole engine
//! reproducible across platforms; microsecond resolution is comfortably finer
//! than any latency the NotebookOS evaluation reports (the finest is
//! sub-millisecond Raft message latency).
//!
//! Every sampled latency enters through [`SimTime::from_secs_f64`], several
//! times per simulated cell execution. It rounds to the microsecond without
//! `f64::round`, which baseline x86-64 lowers to a software routine: it
//! truncates natively and adds one when the (exact) fraction is at least a
//! half, which is the same answer bit for bit.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, measured in microseconds.
///
/// `SimTime` is used both as an *instant* (time since simulation start) and
/// as a *duration*; the arithmetic is the same and the evaluation code reads
/// more naturally without a second newtype threading through every signature.
///
/// # Example
///
/// ```
/// use notebookos_des::SimTime;
///
/// let t = SimTime::from_secs(2) + SimTime::from_millis(500);
/// assert_eq!(t.as_micros(), 2_500_000);
/// assert_eq!(t.as_secs_f64(), 2.5);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// 2^64, the first microsecond count past [`SimTime::MAX`].
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

impl SimTime {
    /// The instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Creates a time from fractional seconds, rounded to the nearest
    /// microsecond (halves away from zero), saturating at zero for
    /// negative or non-finite input and at [`SimTime::MAX`] from 2^64 µs.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        let micros = secs * 1e6;
        if micros >= TWO_POW_64 {
            return SimTime::MAX;
        }
        // `micros` is positive and below 2^64: the cast truncates, and
        // `micros − whole` is exact.
        let whole = micros as u64;
        SimTime(whole + u64::from(micros - whole as f64 >= 0.5))
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the time in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the time in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3.6e9
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;

    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;

    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let micros = self.0;
        if micros < 1_000 {
            write!(f, "{micros}us")
        } else if micros < 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if micros < 3_600_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{:.3}h", self.as_hours_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimTime::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(SimTime::from_millis(1).as_micros(), 1_000);
        assert_eq!(SimTime::from_secs(86_400).as_hours_f64(), 24.0);
        assert_eq!(SimTime::from_millis(1_500).as_millis_f64(), 1_500.0);
    }

    #[test]
    fn fractional_constructors_saturate() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimTime::from_secs_f64(0.0015).as_micros(), 1_500);
    }

    /// What `from_secs_f64` computed before it stopped calling `f64::round`.
    fn from_secs_f64_by_round(secs: f64) -> SimTime {
        if !secs.is_finite() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((secs * 1e6).round().min(u64::MAX as f64) as u64)
    }

    /// `x` and the floats one ulp either side of it.
    fn with_neighbours(x: f64) -> [f64; 3] {
        let bits = x.to_bits();
        [
            f64::from_bits(bits.wrapping_sub(1)),
            x,
            f64::from_bits(bits.wrapping_add(1)),
        ]
    }

    #[test]
    fn matches_f64_round_bit_for_bit() {
        let mut inputs = vec![
            0.0,
            -0.0,
            -1.0,
            -1e-300,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
            f64::MAX,
            TWO_POW_64 / 1e6,
            1e14,
            1e20,
        ];
        let mut rng = crate::SimRng::seed(29);
        // `k + ½` µs ties (and the floats either side) at every magnitude
        // a fraction survives, up to 2^52 µs, where the spacing reaches 1.
        for shift in 0..53 {
            let k = (1u64 << shift) + rng.below(1 << shift);
            inputs.extend(with_neighbours((k as f64 + 0.5) / 1e6));
        }
        for _ in 0..200_000 {
            // Microsecond counts in 2^51–2^53, where the spacing goes from
            // ½ to 1 and 2, and in 2^63–2^64, the saturation edge.
            let low = (1u64 << 51) + rng.below(3 << 51);
            let high = (1u64 << 63) | rng.next_u64();
            inputs.extend(with_neighbours(low as f64 / 1e6));
            inputs.extend(with_neighbours(high as f64 / 1e6));
            // A seeded sweep over twenty decades of seconds, and random
            // bit patterns (NaNs, negatives, subnormals and all).
            let decade = rng.below(20) as i32 - 9;
            inputs.push(rng.next_f64() * 10f64.powi(decade));
            inputs.push(f64::from_bits(rng.next_u64()));
        }
        for secs in inputs {
            assert_eq!(
                SimTime::from_secs_f64(secs),
                from_secs_f64_by_round(secs),
                "{secs:e} ({:#018x})",
                secs.to_bits()
            );
        }
        assert_eq!(SimTime::from_secs_f64(1e14), SimTime::MAX);
        assert_eq!(SimTime::from_secs_f64(f64::MAX), SimTime::MAX);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(1);
        assert_eq!(a + b, SimTime::from_secs(4));
        assert_eq!(a - b, SimTime::from_secs(2));
        assert_eq!(a * 2, SimTime::from_secs(6));
        assert_eq!(a / 3, SimTime::from_secs(1));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(SimTime::MAX.saturating_add(b), SimTime::MAX);
    }

    #[test]
    fn min_max_and_sum() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(1);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        let total: SimTime = [a, b].into_iter().sum();
        assert_eq!(total, SimTime::from_secs(4));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimTime::from_micros(10)), "10us");
        assert_eq!(format!("{}", SimTime::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(5)), "5.000s");
        assert_eq!(format!("{}", SimTime::from_secs(7_200)), "2.000h");
    }
}
