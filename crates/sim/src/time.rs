//! Simulation time.
//!
//! All simulation time is kept in integer nanoseconds ([`Nanos`]). Integer
//! time makes event ordering exact and runs bit-reproducible across
//! platforms, which the whole test suite relies on.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulation time (or a duration), in nanoseconds.
///
/// `Nanos` is deliberately a single type for both instants and durations:
/// the simulator only ever adds offsets to the current clock and subtracts
/// instants to obtain durations, and a separate duration type would double
/// the API surface for no safety gain at this scale.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Time zero — the start of every simulation.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable time; used as an "infinite" horizon.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// This time expressed as (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time expressed as (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time expressed as (possibly fractional) microseconds.
    fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    ///
    /// Useful for slack computations (`deadline - now`) where the deadline
    /// may already have passed.
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: `self + rhs`, clamped at [`Nanos::MAX`].
    ///
    /// Used for horizon arithmetic (`now + delay`) where the delay may be
    /// an "infinite" sentinel near [`Nanos::MAX`]: the sum must never wrap
    /// back into the past.
    pub const fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    pub const fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Nanos(v)),
            None => None,
        }
    }

    /// The larger of two times.
    pub fn max(self, other: Nanos) -> Nanos {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: Nanos) -> Nanos {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// Time to serialize `bytes` onto a link of `bits_per_sec`, rounded up to the
/// next nanosecond so a queued packet never finishes "early".
///
/// # Panics
/// Panics if `bits_per_sec` is zero.
pub fn transmission_time(bytes: u64, bits_per_sec: u64) -> Nanos {
    assert!(bits_per_sec > 0, "link rate must be positive");
    // `bytes * 8e9` fits a u64 below ~2.3 GB — every packet and all but
    // the largest flows — and a 64-bit division is several times cheaper
    // than the 128-bit one.
    if let Some(bit_ns) = bytes.checked_mul(BIT_NS_PER_BYTE) {
        return Nanos(bit_ns.div_ceil(bits_per_sec));
    }
    let ns = (bytes as u128 * BIT_NS_PER_BYTE as u128).div_ceil(bits_per_sec as u128);
    Nanos(u64::try_from(ns).expect("transmission time overflows u64 nanoseconds"))
}

/// Bits in a byte times nanoseconds in a second: a byte takes
/// `BIT_NS_PER_BYTE / bits_per_sec` nanoseconds on the wire.
const BIT_NS_PER_BYTE: u64 = 8_000_000_000;

/// A link rate with [`transmission_time`]'s division done once, when the
/// link is built.
///
/// Where a byte takes a whole number of nanoseconds — 8·10⁹ is a multiple
/// of the rate, as at 1 Gbps (8 ns) or 4 Gbps (2 ns) — serializing is one
/// multiplication. Every other rate divides per call, as
/// [`transmission_time`] does. Either way the result is bit-identical to
/// it, its overflow panic included.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineRate {
    bits_per_sec: u64,
    /// Nanoseconds a byte takes, or 0 when that is not whole.
    ns_per_byte: u64,
}

impl LineRate {
    /// `bits_per_sec`, with its per-byte time worked out. A zero rate is
    /// accepted here and panics where [`transmission_time`] would, at the
    /// first transmission.
    pub fn new(bits_per_sec: u64) -> LineRate {
        let ns_per_byte = match BIT_NS_PER_BYTE.checked_rem(bits_per_sec) {
            Some(0) => BIT_NS_PER_BYTE / bits_per_sec,
            _ => 0,
        };
        LineRate {
            bits_per_sec,
            ns_per_byte,
        }
    }

    /// The rate, in bits per second.
    pub fn bits_per_sec(self) -> u64 {
        self.bits_per_sec
    }

    /// [`transmission_time`]`(bytes, self.bits_per_sec())`.
    #[inline]
    pub fn transmission_time(self, bytes: u64) -> Nanos {
        if self.ns_per_byte != 0 {
            // Exact: the ceiling divides nothing. An overflow here
            // overflows the definition too, which panics below.
            if let Some(ns) = bytes.checked_mul(self.ns_per_byte) {
                return Nanos(ns);
            }
        }
        transmission_time(bytes, self.bits_per_sec)
    }
}

/// Convenience: gigabits per second expressed in bits per second.
pub const fn gbps(g: u64) -> u64 {
    g * 1_000_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Megabits per second expressed in bits per second.
    const fn mbps(m: u64) -> u64 {
        m * 1_000_000
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_secs(1), Nanos(1_000_000_000));
        assert_eq!(Nanos::from_millis(1), Nanos(1_000_000));
        assert_eq!(Nanos::from_micros(1), Nanos(1_000));
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_micros(3);
        let b = Nanos::from_micros(1);
        assert_eq!(a + b, Nanos::from_micros(4));
        assert_eq!(a - b, Nanos::from_micros(2));
        assert_eq!(b * 3, a);
        assert_eq!(a / 3, b);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.saturating_sub(b), Nanos::from_micros(2));
    }

    #[test]
    fn min_max() {
        let a = Nanos(1);
        let b = Nanos(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn transmission_time_exact() {
        // 1500 bytes at 1 Gbps = 12 microseconds.
        assert_eq!(transmission_time(1500, gbps(1)), Nanos::from_micros(12));
        // 1 byte at 8 Gbps = 1 ns.
        assert_eq!(transmission_time(1, gbps(8)), Nanos(1));
    }

    #[test]
    fn transmission_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 * 1e9 ns = 2666666666.67 -> rounds up.
        assert_eq!(transmission_time(1, 3), Nanos(2_666_666_667));
    }

    #[test]
    fn transmission_time_paths_agree() {
        // The 64-bit fast path against the 128-bit definition, over every
        // (size, rate) the example scenarios put on a wire — ACK, CBR and
        // incast datagrams, MTU and short-tail data packets, whole flows
        // (pFabric/LSTF rank inputs) — and both sides of the boundary
        // where `bytes * 8e9` stops fitting a u64.
        let wide = |bytes: u64, rate: u64| {
            Nanos(u64::try_from((bytes as u128 * 8_000_000_000).div_ceil(rate as u128)).unwrap())
        };
        let boundary = u64::MAX / 8_000_000_000;
        let sizes = [
            0,
            1,
            40,
            64,
            200,
            500,
            1_000,
            1_040,
            1_460,
            1_500,
            9_000,
            20_000,
            500_000,
            30_000_000,
            boundary - 1,
            boundary,
            boundary + 1,
            1 << 40,
        ];
        let rates = [
            1,
            3,
            mbps(100),
            mbps(200),
            mbps(300),
            mbps(500),
            mbps(900),
            gbps(1),
            gbps(4),
            gbps(10),
            gbps(40),
            gbps(100),
            u64::MAX,
        ];
        for bytes in sizes {
            for rate in rates {
                let big = bytes as u128 * 8_000_000_000 / rate as u128;
                if big < u64::MAX as u128 {
                    assert_eq!(
                        transmission_time(bytes, rate),
                        wide(bytes, rate),
                        "{bytes} B at {rate} bps"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn zero_rate_panics() {
        let _ = transmission_time(1, 0);
    }

    #[test]
    fn line_rate_equals_transmission_time() {
        // Rates whose byte time is whole (1 and 4 Gbps, 1 bps) and rates
        // 8e9 is no multiple of (3 bps, 10 Gbps, 40 Gbps), then random
        // ones of each kind; sizes from a header to past the point where
        // `bytes * 8e9` leaves a u64 for the u128 path.
        let mut rng = crate::SimRng::seed_from(0x11E8);
        let mut rates = vec![
            1,
            3,
            8,
            mbps(100),
            mbps(300),
            gbps(1),
            gbps(4),
            gbps(8),
            gbps(8) + 1,
            gbps(10),
            gbps(40),
            u64::MAX,
        ];
        for _ in 0..200 {
            rates.push(1 + rng.below(gbps(100)));
            // 8e9 = 2^12 · 5^9: a random divisor of it.
            rates.push((1u64 << rng.below(13)) * 5u64.pow(rng.below(10) as u32));
        }
        let boundary = u64::MAX / BIT_NS_PER_BYTE;
        let mut sizes = vec![
            0,
            1,
            40,
            1_500,
            9_000,
            boundary - 1,
            boundary,
            boundary + 1,
            1 << 40,
            u64::MAX / 2,
            u64::MAX,
        ];
        for _ in 0..200 {
            sizes.push(rng.next() >> rng.below(64));
        }
        let (mut whole, mut wide) = (0, 0);
        for &rate in &rates {
            let line = LineRate::new(rate);
            assert_eq!(line.bits_per_sec(), rate);
            for &bytes in &sizes {
                let exact = (bytes as u128 * BIT_NS_PER_BYTE as u128).div_ceil(rate as u128);
                if exact > u64::MAX as u128 {
                    continue; // both panic: `line_rate_overflow_panics`
                }
                assert_eq!(
                    line.transmission_time(bytes),
                    transmission_time(bytes, rate),
                    "{bytes} B at {rate} bps"
                );
                whole += BIT_NS_PER_BYTE.is_multiple_of(rate) as u32;
                wide += bytes.checked_mul(BIT_NS_PER_BYTE).is_none() as u32;
            }
        }
        assert!(whole > 10_000 && wide > 1_000, "{whole} whole, {wide} wide");
    }

    #[test]
    #[should_panic(expected = "transmission time overflows u64 nanoseconds")]
    fn line_rate_overflow_panics() {
        // 8 ns a byte: the product overflows where the definition does.
        let _ = LineRate::new(gbps(1)).transmission_time(u64::MAX / 4);
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn line_rate_zero_panics_at_first_use() {
        let line = LineRate::new(0);
        let _ = line.transmission_time(1);
    }

    #[test]
    fn display_units() {
        assert_eq!(Nanos(500).to_string(), "500ns");
        assert_eq!(Nanos::from_micros(12).to_string(), "12.000us");
        assert_eq!(Nanos::from_millis(3).to_string(), "3.000ms");
        assert_eq!(Nanos::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum_iterator() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }

    #[test]
    fn checked_add_overflow() {
        assert_eq!(Nanos::MAX.checked_add(Nanos(1)), None);
        assert_eq!(Nanos(1).checked_add(Nanos(2)), Some(Nanos(3)));
    }

    #[test]
    fn saturating_add_clamps_at_max() {
        assert_eq!(Nanos::MAX.saturating_add(Nanos(1)), Nanos::MAX);
        assert_eq!(Nanos(5).saturating_add(Nanos::MAX), Nanos::MAX);
        assert_eq!(Nanos(1).saturating_add(Nanos(2)), Nanos(3));
    }
}
