//! HyperLogLog: approximate distinct counting in fixed memory — the
//! "randomized counting" class of the paper's taxonomy.

use super::hash64;
use crate::{Error, Result};

/// A HyperLogLog cardinality estimator with `2^precision` registers.
///
/// Standard error is ≈ `1.04 / sqrt(2^precision)` (≈3.2 % at precision 10).
/// Includes the small-range linear-counting correction.
///
/// # Examples
///
/// ```
/// use f2c_aggregate::sketch::HyperLogLog;
///
/// let mut hll = HyperLogLog::new(12)?;
/// for i in 0..10_000u32 {
///     hll.add(&i.to_le_bytes());
/// }
/// let est = hll.estimate();
/// assert!((est as f64 - 10_000.0).abs() / 10_000.0 < 0.05);
/// # Ok::<(), f2c_aggregate::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    precision: u32,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates an estimator with `2^precision` registers, `4 <= precision <= 16`.
    ///
    /// # Errors
    ///
    /// [`Error::DegenerateSketch`] if `precision` is outside `4..=16`.
    pub fn new(precision: u32) -> Result<Self> {
        if !(4..=16).contains(&precision) {
            return Err(Error::DegenerateSketch {
                parameter: "precision",
            });
        }
        Ok(Self {
            precision,
            registers: vec![0; 1 << precision],
        })
    }

    /// Rebuilds an estimator from raw register values (the wire form of
    /// a shipped partial). `registers` must be exactly `2^precision`
    /// long.
    ///
    /// # Errors
    ///
    /// [`Error::DegenerateSketch`] if `precision` is outside `4..=16` or
    /// the register block has the wrong length.
    pub fn from_registers(precision: u32, registers: Vec<u8>) -> Result<Self> {
        if !(4..=16).contains(&precision) || registers.len() != 1 << precision {
            return Err(Error::DegenerateSketch {
                parameter: "registers",
            });
        }
        Ok(Self {
            precision,
            registers,
        })
    }

    /// Number of registers.
    pub fn register_count(&self) -> usize {
        self.registers.len()
    }

    /// The sketch's precision.
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// The raw register values (for wire encoding; merging two sketches
    /// is a register-wise max over these).
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Adds one element.
    pub fn add(&mut self, key: &[u8]) {
        let h = hash64(key, HLL_SEED);
        let idx = (h >> (64 - self.precision)) as usize;
        let rest = h << self.precision;
        // Rank: position of the first 1-bit in the remaining bits, 1-based.
        let rank = (rest.leading_zeros() + 1).min(64 - self.precision + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimated number of distinct elements added.
    pub fn estimate(&self) -> u64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2f64.powi(-i32::from(r)))
            .sum();
        let raw = alpha * m * m / sum;
        // Small-range correction: linear counting.
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        let corrected = if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        };
        corrected.round() as u64
    }

    /// Merges another estimator with the same precision (register-wise max).
    ///
    /// # Panics
    ///
    /// Panics on precision mismatch.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge HLLs of different precisions"
        );
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
    }
}

/// Hash seed for HLL (ASCII "HLL").
const HLL_SEED: u64 = 0x48_4C_4C;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_bounds_enforced() {
        assert!(HyperLogLog::new(3).is_err());
        assert!(HyperLogLog::new(17).is_err());
        assert!(HyperLogLog::new(4).is_ok());
        assert!(HyperLogLog::new(16).is_ok());
    }

    #[test]
    fn small_cardinalities_are_near_exact() {
        let mut hll = HyperLogLog::new(10).unwrap();
        for i in 0..100u32 {
            hll.add(&i.to_le_bytes());
        }
        let est = hll.estimate();
        assert!((90..=110).contains(&est), "estimated {est} for 100");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut hll = HyperLogLog::new(10).unwrap();
        for _ in 0..50 {
            for i in 0..200u32 {
                hll.add(&i.to_le_bytes());
            }
        }
        let est = hll.estimate();
        assert!(
            (170..=230).contains(&est),
            "estimated {est} for 200 distinct"
        );
    }

    #[test]
    fn large_cardinality_within_error_bound() {
        let mut hll = HyperLogLog::new(12).unwrap();
        let n = 100_000u32;
        for i in 0..n {
            hll.add(&i.to_le_bytes());
        }
        let est = hll.estimate() as f64;
        let rel = (est - f64::from(n)).abs() / f64::from(n);
        assert!(rel < 0.05, "relative error {rel:.3}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(11).unwrap();
        let mut b = HyperLogLog::new(11).unwrap();
        let mut whole = HyperLogLog::new(11).unwrap();
        for i in 0..20_000u32 {
            let key = i.to_le_bytes();
            if i % 2 == 0 {
                a.add(&key);
            } else {
                b.add(&key);
            }
            whole.add(&key);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn empty_estimates_zero() {
        let hll = HyperLogLog::new(8).unwrap();
        assert_eq!(hll.estimate(), 0);
    }

    #[test]
    #[should_panic(expected = "different precisions")]
    fn precision_mismatch_merge_panics() {
        let mut a = HyperLogLog::new(8).unwrap();
        let b = HyperLogLog::new(9).unwrap();
        a.merge(&b);
    }
}
