//! Gauge timelines and time-integrated accounting.
//!
//! The evaluation's timeline figures (provisioned GPUs over 17.5 hours,
//! active sessions over 90 days, ...) are step functions of virtual time.
//! [`Timeline`] records the step changes and integrates the area under
//! them (the basis of GPU-hour accounting).
//!
//! # Encoding
//!
//! A long simulation changes a gauge about a million times (the 90-day
//! study's committed-GPU gauge does), so a timeline stores its change
//! points as one byte stream rather than as 16-byte `(f64, f64)` pairs.
//! The encoding is lossless: every query returns the bits a plain vector
//! of pairs returned, in the same float evaluation order. It follows
//! Gorilla (Pelkonen et al., VLDB 2015) — deltas from the previous point,
//! and an escape for whatever does not fit — in the form a simulator's
//! gauges allow: their times are whole microseconds of virtual time and
//! their values are counts, so a change point is usually two small
//! integers.
//!
//! * A point is *on the grid* when its time is exactly `µs as f64 / 1e6`
//!   for a whole `µs` (what `SimTime::as_secs_f64` returns) and its value
//!   is an integer of magnitude at most 2^53 other than `-0.0`.
//! * A grid point that follows a grid point (the first point follows
//!   `(0 µs, 0)`) is a *delta*: the LEB128 varint of
//!   `zigzag(Δvalue) << 1`, then the LEB128 varint of `Δµs`. The low bit
//!   of its first byte, 0, is the tag that tells a delta from an escape.
//!   A change by at most 31 GPUs takes 4 bytes up to 2.1 s after the
//!   previous one and 5 bytes up to 4.5 minutes after it (the 90-day
//!   study's committed-GPU gauge averages 4.78 bytes a point).
//! * Any other point is an escape: the byte `1` (the tag bit set), then
//!   the raw bits of its time and of its value, 8 bytes each,
//!   little-endian. That covers fractional values (the subscription
//!   ratio), times off the µs grid, `-0.0`, infinities and NaN.
//!
//! The newest point is kept unencoded, so a same-instant update that
//! supersedes it and a no-op update are field writes, and the byte stream
//! only ever grows at its end. Every 1 024th (`CHECKPOINT_EVERY`th)
//! encoded point starts a block whose time, byte offset and decoder state
//! are kept in a sparse index: [`Timeline::value_at`] and
//! [`Timeline::integral`] decode from the last block that starts at or
//! before their instant, not from the first point.

use notebookos_des::time::{f64_to_u64, u64_to_f64};

/// Seconds-denominated virtual timestamp used by the collectors.
///
/// The collectors deliberately take plain `f64` seconds rather than a
/// simulator time type so that they serve both the DES and offline
/// analysis.
pub type Seconds = f64;

/// Encoded points per checkpoint block: a query decodes at most this many
/// points past its checkpoint, and the index costs 40 bytes per block
/// (0.04 bytes a point).
const CHECKPOINT_EVERY: usize = 1024;

/// An escaped point's first byte: the tag bit set, and nothing else.
const ESCAPE: u8 = 1;

/// What a grid point is a delta from: the previous point's whole
/// microseconds and integer value, when that point was on the grid.
type Base = Option<(u64, i64)>;

/// The decoder state before the first point.
const ORIGIN: Base = Some((0, 0));

/// Where a block of encoded points starts.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// The block's first point's time.
    time: Seconds,
    /// The byte offset of that point.
    offset: usize,
    /// The decoder state before that point.
    base: Base,
}

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
/// assert_eq!(gpus.points().collect::<Vec<_>>(), [(0.0, 8.0), (3600.0, 16.0)]);
/// ```
#[derive(Clone)]
pub struct Timeline {
    name: String,
    /// Every change point but the newest, encoded (see the module docs);
    /// non-decreasing in time.
    bytes: Vec<u8>,
    /// Number of points in `bytes`.
    encoded: usize,
    /// The decoder state after the last point in `bytes`.
    base: Base,
    /// `f64::max` folded over the values in `bytes`, in order, from 0.
    encoded_max: f64,
    /// One entry per [`CHECKPOINT_EVERY`] encoded points.
    checkpoints: Vec<Checkpoint>,
    /// The newest change point, unencoded.
    last: Option<(Seconds, f64)>,
}

impl Timeline {
    /// Creates an empty timeline labelled `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Timeline {
            name: name.into(),
            bytes: Vec::new(),
            encoded: 0,
            base: ORIGIN,
            encoded_max: 0.0,
            checkpoints: Vec::new(),
            last: None,
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
        if let Some((last, prev)) = self.last {
            assert!(at >= last, "timeline `{}` went backwards", self.name);
            if value == prev {
                return; // no-op change; keep the series compact
            }
            if at != last {
                self.encode(last, prev);
            }
            // A same-instant update supersedes the newest point.
        }
        self.last = Some((at, value));
    }

    /// Appends `(t, v)` to the byte stream.
    fn encode(&mut self, t: Seconds, v: f64) {
        if self.encoded % CHECKPOINT_EVERY == 0 {
            self.checkpoints.push(Checkpoint {
                time: t,
                offset: self.bytes.len(),
                base: self.base,
            });
        }
        let here = on_grid(t, v);
        match (self.base, here) {
            (Some((us0, v0)), Some((us, iv))) if us >= us0 => {
                write_varint(&mut self.bytes, zigzag(iv - v0) << 1);
                write_varint(&mut self.bytes, us - us0);
            }
            _ => {
                self.bytes.push(ESCAPE);
                self.bytes.extend_from_slice(&t.to_bits().to_le_bytes());
                self.bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        self.base = here;
        self.encoded_max = self.encoded_max.max(v);
        self.encoded += 1;
    }

    /// The gauge value in effect at time `at` (0 before the first point).
    pub fn value_at(&self, at: Seconds) -> f64 {
        if let Some((t, v)) = self.last {
            if t <= at {
                return v;
            }
        }
        // Times never decrease, so only the last block starting at or
        // before `at` can hold the last point at or before it.
        match self.checkpoints.partition_point(|c| c.time <= at) {
            0 => 0.0,
            block => {
                let mut value = 0.0;
                for (t, v) in self.points_from(block - 1) {
                    if t > at {
                        break;
                    }
                    value = v;
                }
                value
            }
        }
    }

    /// Maximum value ever recorded (0 if empty).
    pub fn max_value(&self) -> f64 {
        match self.last {
            Some((_, v)) => self.encoded_max.max(v),
            None => self.encoded_max,
        }
    }

    /// The change points, oldest first.
    pub fn points(&self) -> Points<'_> {
        self.points_from(0)
    }

    /// The change points from the start of checkpoint block `block` on
    /// (every point when there is no such block).
    fn points_from(&self, block: usize) -> Points<'_> {
        let (pos, base, skipped) = match self.checkpoints.get(block) {
            Some(c) => (c.offset, c.base, block * CHECKPOINT_EVERY),
            None => (0, ORIGIN, 0),
        };
        Points {
            bytes: &self.bytes,
            pos,
            base,
            remaining: self.encoded - skipped,
            last: self.last,
        }
    }

    /// Heap bytes holding the change points: the byte stream and its
    /// checkpoint index (what the encoding costs, to compare with 16
    /// bytes a point).
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len() + self.checkpoints.len() * std::mem::size_of::<Checkpoint>()
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
        // Every point before the last block starting at or before `start`
        // is itself at or before `start`, and the loop skips those.
        let block = self.checkpoints.partition_point(|c| c.time <= start);
        for (pt, pv) in self.points_from(block.saturating_sub(1)) {
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

/// Two timelines are equal when their names are and their change points
/// compare equal pair by pair (as `f64`s: a NaN point equals nothing).
impl PartialEq for Timeline {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.encoded == other.encoded
            && self.last.is_some() == other.last.is_some()
            && self.points().eq(other.points())
    }
}

impl std::fmt::Debug for Timeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct List<'a>(&'a Timeline);
        impl std::fmt::Debug for List<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.0.points()).finish()
            }
        }
        f.debug_struct("Timeline")
            .field("name", &self.name)
            .field("points", &List(self))
            .finish()
    }
}

/// The change points of a [`Timeline`], decoded as they are walked.
#[derive(Debug, Clone)]
pub struct Points<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: Base,
    /// Encoded points not yet decoded.
    remaining: usize,
    /// The unencoded newest point, until it is yielded.
    last: Option<(Seconds, f64)>,
}

impl Points<'_> {
    fn decode(&mut self) -> (Seconds, f64) {
        let point = match self.base {
            Some((us0, v0)) if self.bytes[self.pos] != ESCAPE => {
                let dv = unzigzag(self.read_varint() >> 1);
                let us = us0 + self.read_varint();
                let iv = v0 + dv;
                self.base = Some((us, iv));
                return (u64_to_f64(us) / 1e6, iv as f64);
            }
            _ => {
                debug_assert_eq!(self.bytes[self.pos], ESCAPE);
                self.pos += 1;
                (self.read_bits(), self.read_bits())
            }
        };
        self.base = on_grid(point.0, point.1);
        point
    }

    fn read_varint(&mut self) -> u64 {
        let mut x = 0;
        let mut shift = 0;
        loop {
            let b = self.bytes[self.pos];
            self.pos += 1;
            x |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return x;
            }
            shift += 7;
        }
    }

    fn read_bits(&mut self) -> f64 {
        let mut raw = [0; 8];
        raw.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
        self.pos += 8;
        f64::from_bits(u64::from_le_bytes(raw))
    }
}

impl Iterator for Points<'_> {
    type Item = (Seconds, f64);

    fn next(&mut self) -> Option<(Seconds, f64)> {
        if self.remaining == 0 {
            return self.last.take();
        }
        self.remaining -= 1;
        Some(self.decode())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining + usize::from(self.last.is_some());
        (n, Some(n))
    }
}

impl ExactSizeIterator for Points<'_> {}

/// `(µs, value)` when `(t, v)` is on the grid (see the module docs).
fn on_grid(t: Seconds, v: f64) -> Base {
    // Saturating conversions: NaN and negatives become 0, and the bit
    // comparison rejects them. `+ 0.5` rounds the only candidate there
    // can be.
    let us = f64_to_u64(t * 1e6 + 0.5);
    let iv = v as i64;
    let exact = (u64_to_f64(us) / 1e6).to_bits() == t.to_bits()
        && iv.unsigned_abs() <= 1 << 53
        && (iv as f64).to_bits() == v.to_bits();
    exact.then_some((us, iv))
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// Appends `x` to `out` as a LEB128 varint: seven bits a byte, low bits
/// first, the high bit set on every byte but the last.
fn write_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
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

    #[test]
    fn grid_points_take_a_few_bytes_and_escapes_seventeen() {
        let mut t = Timeline::new("g");
        t.set(1.5, 3.0); // 1.5 s after (0 µs, 0), value +3
        t.set(1.500_001, 2.0); // 1 µs later, -1
        t.set(1.500_001 + 7e3, 1002.0); // 7 000 s later, +1 000
        t.set(20_000.0, 1002.5); // fractional: escaped
        t.set(20_001.0, 1.0); // after an escape: escaped too
        t.set(20_002.0, 1.0); // no-op
        t.set(20_002.0, -1.0); // stays the unencoded newest point
        let deltas = [
            // zigzag(+3) << 1 = 12; 1 500 000 µs in 3 varint bytes.
            vec![12, 0xE0, 0xC6, 0x5B],
            // zigzag(-1) << 1 = 2; 1 µs.
            vec![2, 1],
            // zigzag(+1 000) << 1 = 4 000 in 2 bytes; 7 000 000 000 µs in 5.
            vec![0xA0, 0x1F, 0x80, 0x8C, 0xEE, 0x89, 0x1A],
        ];
        let encoded: Vec<u8> = deltas.concat();
        assert_eq!(&t.bytes[..encoded.len()], encoded);
        assert_eq!(t.bytes.len(), encoded.len() + 17 + 17);
        assert_eq!(t.bytes[encoded.len()], ESCAPE);
        let want = [
            (1.5, 3.0),
            (1.500_001, 2.0),
            (1.500_001 + 7e3, 1002.0),
            (20_000.0, 1002.5),
            (20_001.0, 1.0),
            (20_002.0, -1.0),
        ];
        assert_eq!(t.points().collect::<Vec<_>>(), want);
        assert_eq!(t.max_value(), 1002.5);
    }

    #[test]
    fn long_gaps_stay_deltas() {
        let mut t = Timeline::new("g");
        let far = (1u64 << 40) as f64 / 1e6; // 12.7 days of µs
        t.set(far, 1.0);
        t.set(far + 1.0, 2.0);
        // zigzag(+1) << 1 = 4, then 2^40 µs in 6 varint bytes.
        assert_eq!(t.bytes, [4, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20]);
        assert_eq!(
            t.points().collect::<Vec<_>>(),
            [(far, 1.0), (far + 1.0, 2.0)]
        );
    }

    #[test]
    fn on_grid_accepts_exact_micros_and_whole_values_only() {
        assert_eq!(on_grid(0.0, 0.0), Some((0, 0)));
        assert_eq!(on_grid(123.456789, -7.0), Some((123_456_789, -7)));
        assert_eq!(on_grid(0.1 + 0.2, 1.0), None, "off the µs grid");
        assert_eq!(on_grid(1e-7, 1.0), None, "below a µs");
        assert_eq!(on_grid(-0.0, 1.0), None);
        assert_eq!(on_grid(-1.0, 1.0), None);
        assert_eq!(on_grid(f64::NAN, 1.0), None);
        assert_eq!(on_grid(f64::INFINITY, 1.0), None);
        assert_eq!(on_grid(1.0, -0.0), None);
        assert_eq!(on_grid(1.0, 0.5), None);
        assert_eq!(on_grid(1.0, f64::NAN), None);
        assert_eq!(on_grid(1.0, 2f64.powi(53)), Some((1_000_000, 1 << 53)));
        assert_eq!(on_grid(1.0, 2f64.powi(54)), None);
        for d in [0, 1, -1, 63, -64, i64::from(i32::MAX), -(1 << 54)] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    /// What `on_grid` computed before it converted through `i64`.
    fn on_grid_by_cast(t: Seconds, v: f64) -> Base {
        let us = (t * 1e6 + 0.5) as u64;
        let iv = v as i64;
        let exact = (us as f64 / 1e6).to_bits() == t.to_bits()
            && iv.unsigned_abs() <= 1 << 53
            && (iv as f64).to_bits() == v.to_bits();
        exact.then_some((us, iv))
    }

    #[test]
    fn on_grid_matches_the_unsigned_casts_bit_for_bit() {
        // SplitMix64: the test needs bits, not a simulator stream.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut times = vec![0.0, -0.0, f64::NAN, f64::INFINITY, f64::MAX];
        for k in 0..64 {
            // Grid times at every power of two of µs and either side,
            // through 2^63 µs and past it.
            let us = 1u64 << k;
            times.extend([us - 1, us, us + 1].map(|us| us as f64 / 1e6));
        }
        for _ in 0..100_000 {
            let bits = next();
            times.push(f64::from_bits(bits));
            times.push((bits >> (bits % 64)) as f64 / 1e6);
            times.push(((1 << 63) | bits) as f64 / 1e6);
        }
        for (i, &t) in times.iter().enumerate() {
            let v = match i % 3 {
                0 => f64::from_bits(next()),
                1 => (next() % 64) as f64 - 32.0,
                _ => 8.0,
            };
            assert_eq!(on_grid(t, v), on_grid_by_cast(t, v), "{t:e} {v:e}");
            // Uniform counts (half of them at or above 2^63), and counts
            // at every magnitude.
            let us = if i % 2 == 0 {
                next()
            } else {
                next() >> (next() % 64)
            };
            assert_eq!(u64_to_f64(us).to_bits(), (us as f64).to_bits(), "{us}");
        }
    }

    #[test]
    fn queries_decode_from_the_checkpoint_before_their_instant() {
        let mut t = Timeline::new("g");
        let n = 3 * CHECKPOINT_EVERY + 17;
        for i in 0..n {
            t.set(i as f64 * 0.5, (i % 9) as f64);
        }
        assert_eq!(t.checkpoints.len(), 4);
        let plain: Vec<(f64, f64)> = t.points().collect();
        assert_eq!(plain.len(), n);
        for &(at, _) in &plain {
            for q in [at - 0.25, at, at + 0.25] {
                let want = plain.iter().rev().find(|p| p.0 <= q).map_or(0.0, |p| p.1);
                assert_eq!(t.value_at(q).to_bits(), want.to_bits(), "at {q}");
            }
        }
        let span = n as f64 * 0.5;
        let whole = t.integral(0.0, span);
        let mid = 1100.25; // inside the third block; every product is exact
        assert_eq!(whole, t.integral(0.0, mid) + t.integral(mid, span));
    }
}
