//! Deterministic pseudo-random tensor generation.
//!
//! Benchmarks and tests need reproducible workloads, so we use a small
//! seeded xorshift64* generator rather than OS entropy.

use crate::{Data, Tensor};

/// A seeded xorshift64* pseudo-random generator.
///
/// Deterministic across platforms; good enough for synthetic workload
/// generation (not cryptographic).
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Create a generator from a nonzero seed (zero is mapped to a fixed
    /// constant).
    pub fn new(seed: u64) -> Self {
        Rng64 {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform f32 in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform i64 in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> i64 {
        assert!(bound > 0, "bound must be positive");
        (self.next_u64() % bound) as i64
    }

    /// Standard normal sample (Box–Muller).
    pub(crate) fn next_normal(&mut self) -> f32 {
        let u1 = self.next_f32().max(1e-12);
        let u2 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Tensor of standard-normal f32 values scaled by `stddev`.
    pub fn normal_tensor(&mut self, shape: &[usize], stddev: f32) -> Tensor {
        let n: usize = shape.iter().product();
        let v: Vec<f32> = (0..n).map(|_| self.next_normal() * stddev).collect();
        Tensor::from_data(Data::F32(v), shape)
    }

    /// Tensor of uniform f32 values in `[lo, hi)`.
    pub fn uniform_tensor(&mut self, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        let n: usize = shape.iter().product();
        let v: Vec<f32> = (0..n).map(|_| lo + self.next_f32() * (hi - lo)).collect();
        Tensor::from_data(Data::F32(v), shape)
    }

    /// Tensor of uniform i64 class labels in `[0, classes)`.
    pub fn labels_tensor(&mut self, shape: &[usize], classes: u64) -> Tensor {
        let n: usize = shape.iter().product();
        let v: Vec<i64> = (0..n).map(|_| self.next_below(classes)).collect();
        Tensor::from_data(Data::I64(v), shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut r = Rng64::new(7);
        for _ in 0..1000 {
            let x = r.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
        let t = r.uniform_tensor(&[100], -2.0, 2.0);
        assert!(t
            .as_f32()
            .unwrap()
            .iter()
            .all(|&x| (-2.0..2.0).contains(&x)));
    }

    #[test]
    fn normal_has_roughly_zero_mean_unit_var() {
        let mut r = Rng64::new(11);
        let t = r.normal_tensor(&[10_000], 1.0);
        let v = t.as_f32().unwrap();
        let mean: f32 = v.iter().sum::<f32>() / v.len() as f32;
        let var: f32 = v.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / v.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn labels_bounded() {
        let mut r = Rng64::new(3);
        let t = r.labels_tensor(&[500], 10);
        assert!(t.as_i64().unwrap().iter().all(|&x| (0..10).contains(&x)));
    }

    #[test]
    fn zero_seed_ok() {
        let mut r = Rng64::new(0);
        assert_ne!(r.next_u64(), 0);
    }
}
