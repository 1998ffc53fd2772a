//! Virtual simulation time.
//!
//! [`SimTime`] is an integer number of microseconds since the start of the
//! simulation. Integer time makes event ordering exact and the whole engine
//! reproducible across platforms; microsecond resolution is comfortably finer
//! than any latency the NotebookOS evaluation reports (the finest is
//! sub-millisecond Raft message latency).
//!
//! # Conversions to and from `f64`: signed below 2^63
//!
//! A simulated cell converts between microseconds and floating point
//! many times: every sampled latency enters through
//! [`SimTime::from_secs_f64`], every recorded one leaves through
//! [`SimTime::as_millis_f64`], and the gauges and the billing meter read
//! [`SimTime::as_secs_f64`]. Baseline x86-64 converts between `f64` and
//! *signed* 64-bit integers in one instruction each way, but has no
//! unsigned form: the compiler builds each `u64` ↔ `f64` cast from several
//! instructions and a fix-up for the top half of the range. A count below
//! 2^63 — 292 000 years of microseconds — fits an `i64`, and converting
//! the same integer through `i64` gives the same `f64` (or the same
//! truncated integer) bit for bit. So every conversion here goes through
//! [`u64_to_f64`] and [`f64_to_u64`], which take the signed instruction
//! below 2^63 and give the plain cast's value above it: no value changes,
//! only the instructions that compute it. The simulator's other `u64` ↔ `f64`
//! casts on the per-cell path (a cell's submission instant, waits in
//! milliseconds, the data store's transfer sizes) use the same two
//! functions.
//!
//! `from_secs_f64` also rounds to the microsecond without `f64::round`,
//! which baseline x86-64 lowers to a software routine: it truncates and
//! adds one when the (exact) fraction is at least a half, which is the
//! same answer bit for bit.

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

/// 2^63, the first count an `i64` cannot hold.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// `x as f64`, bit for bit: through `i64` below 2^63 (one instruction on
/// baseline x86-64), the cast's own sequence above (see the module docs).
#[inline]
pub fn u64_to_f64(x: u64) -> f64 {
    match i64::try_from(x) {
        Ok(signed) => signed as f64,
        // Halve, keeping the dropped bit as a sticky bit so the one
        // rounding is the cast's, then double exactly: the compiler's own
        // unsigned sequence. Spelt out, it keeps the optimiser from
        // folding both arms back into that sequence.
        Err(_) => (((x >> 1) | (x & 1)) as i64 as f64) * 2.0,
    }
}

/// `x as u64`, bit for bit — truncating toward zero, NaN and negatives
/// to 0, saturating at `u64::MAX` — through `i64` below 2^63 (see the
/// module docs).
#[inline]
pub fn f64_to_u64(x: f64) -> u64 {
    if x < TWO_POW_63 {
        // Negatives truncate or saturate below zero; the clamp makes them 0.
        (x as i64).max(0) as u64
    } else {
        x as u64
    }
}

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
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        let micros = secs * 1e6;
        if secs > 0.0 && micros < TWO_POW_63 {
            // The signed path: the conversion truncates, and
            // `micros − whole` is exact.
            let whole = f64_to_u64(micros);
            SimTime(whole + u64::from(micros - u64_to_f64(whole) >= 0.5))
        } else if secs > 0.0 && secs < f64::INFINITY {
            // From 2^63 µs every float is whole, and the conversion
            // saturates at `MAX` from 2^64 (and for an overflowed product).
            SimTime(f64_to_u64(micros))
        } else {
            SimTime::ZERO
        }
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        u64_to_f64(self.0) / 1e6
    }

    /// Returns the time in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        u64_to_f64(self.0) / 1e3
    }

    /// Returns the time in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        u64_to_f64(self.0) / 3.6e9
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

    /// 2^64, the first microsecond count past [`SimTime::MAX`].
    const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

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

    /// What `as_secs_f64`, `as_millis_f64` and `as_hours_f64` computed
    /// before they converted through `i64`: the plain cast, then the
    /// division.
    fn as_f64_by_cast(t: SimTime, per_unit: f64) -> f64 {
        t.0 as f64 / per_unit
    }

    /// Every power of two, and the counts either side of it.
    fn powers_of_two_and_neighbours() -> Vec<u64> {
        (0..64)
            .flat_map(|k| {
                let p = 1u64 << k;
                [p - 1, p, p + 1]
            })
            .chain([u64::MAX - 1, u64::MAX])
            .collect()
    }

    #[test]
    fn signed_conversions_to_f64_match_the_casts_bit_for_bit() {
        let mut counts = powers_of_two_and_neighbours();
        let mut rng = crate::SimRng::seed(31);
        for _ in 0..200_000 {
            // Uniform counts (half of them at or above 2^63), counts at
            // every magnitude, and the top half of the range alone.
            counts.push(rng.next_u64());
            counts.push(rng.next_u64() >> rng.below(64));
            counts.push((1 << 63) | rng.next_u64());
        }
        for x in counts {
            assert_eq!(u64_to_f64(x).to_bits(), (x as f64).to_bits(), "{x}");
            let t = SimTime(x);
            for (fast, per_unit) in [
                (t.as_secs_f64(), 1e6),
                (t.as_millis_f64(), 1e3),
                (t.as_hours_f64(), 3.6e9),
            ] {
                let reference = as_f64_by_cast(t, per_unit);
                assert_eq!(fast.to_bits(), reference.to_bits(), "{x} / {per_unit}");
            }
        }
    }

    #[test]
    fn signed_truncation_matches_the_cast_bit_for_bit() {
        let mut inputs = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
        ];
        // The edges: ±1, ±2^53, ±2^63 and ±2^64, with their neighbours.
        for edge in [1.0, 9_007_199_254_740_992.0, TWO_POW_63, TWO_POW_64] {
            inputs.extend(with_neighbours(edge));
            inputs.extend(with_neighbours(-edge));
        }
        inputs.extend(powers_of_two_and_neighbours().iter().map(|&x| x as f64));
        let mut rng = crate::SimRng::seed(37);
        for _ in 0..200_000 {
            inputs.push(f64::from_bits(rng.next_u64()));
            let magnitude = 2f64.powi(rng.below(70) as i32 - 3);
            inputs.push((rng.next_f64() - 0.25) * magnitude);
        }
        for x in inputs {
            assert_eq!(f64_to_u64(x), x as u64, "{x:e} ({:#018x})", x.to_bits());
        }
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
