//! Offline stand-in for `rand`.
//!
//! Provides a deterministic, seedable RNG (`rngs::StdRng`, xoshiro256**
//! seeded via splitmix64) and the sampling surface the workloads use:
//! `RngExt::{random, random_range, random_bool}` over integer and float
//! ranges. Distributions are uniform; integer range sampling uses rejection
//! to avoid modulo bias so that workload generators stay well distributed.

/// Core RNG interface: a source of uniform `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** — deterministic, fast, and good enough for workload
    /// generation. State is seeded from splitmix64 like the reference
    /// implementation recommends.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Types producible by `RngExt::random` (the `Standard` distribution).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in [0, 1) with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges usable with `RngExt::random_range`. Parameterized by the output
/// type (like the real crate) so the expected type at the call site drives
/// integer-literal inference.
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform u64 in [0, n) by rejection sampling (no modulo bias).
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    if n.is_power_of_two() {
        return rng.next_u64() & (n - 1);
    }
    let zone = u64::MAX - (u64::MAX - n + 1) % n;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % n;
        }
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in random_range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span + 1) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in random_range");
        let u: f64 = Standard::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for std::ops::RangeInclusive<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range in random_range");
        let u: f64 = Standard::sample(rng);
        lo + u * (hi - lo)
    }
}

impl SampleRange<f32> for std::ops::Range<f32> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        (self.start as f64..self.end as f64).sample(rng) as f32
    }
}

/// The sampling extension methods (rand 0.9+ naming: `random_*`).
pub trait RngExt: RngCore {
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    #[inline]
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let u: f64 = Standard::sample(self);
        u < p
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// Legacy alias used by some call sites (`rand::Rng`).
pub use crate::RngExt as Rng;

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.random_range(10..20i64);
            assert!((10..20).contains(&v));
            let v = r.random_range(1..=3u32);
            assert!((1..=3).contains(&v));
            let f = r.random_range(0.5..2.5f64);
            assert!((0.5..2.5).contains(&f));
            let n: i64 = r.random_range(-5..5);
            assert!((-5..5).contains(&n));
        }
    }

    #[test]
    fn random_bool_extremes() {
        let mut r = StdRng::seed_from_u64(1);
        assert!(!r.random_bool(0.0));
        assert!(r.random_bool(1.0));
    }

    #[test]
    fn uniform_below_covers_all_residues() {
        let mut r = StdRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..200 {
            seen[uniform_below(&mut r, 7) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
