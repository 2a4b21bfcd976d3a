//! CRC-32 (IEEE 802.3, the polynomial used by zip/gzip/PNG).
//!
//! The deflate-style stream and the `tsenc` flush codec each store a CRC-32
//! of their payload, so corrupted or truncated data is detected on decode
//! rather than silently propagated into the experiments.

/// Reflected CRC-32 polynomial (IEEE 802.3).
const POLY: u32 = 0xEDB8_8320;

/// Byte-indexed lookup table, built at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Computes the CRC-32 of `data` in one shot.
///
/// # Examples
///
/// ```
/// // Standard check value for the ASCII string "123456789".
/// assert_eq!(f2c_compress::crc32::checksum(b"123456789"), 0xCBF4_3926);
/// ```
pub fn checksum(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

/// Incremental CRC-32 hasher.
///
/// # Examples
///
/// ```
/// use f2c_compress::crc32::{checksum, Hasher};
///
/// let mut h = Hasher::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finalize(), checksum(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        for &byte in data {
            let idx = ((crc ^ u32::from(byte)) & 0xFF) as usize;
            crc = (crc >> 8) ^ TABLE[idx];
        }
        self.state = crc;
    }

    /// Returns the final checksum value.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(checksum(b""), 0);
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            checksum(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(checksum(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(checksum(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0, 1, 37, 5_000, 9_999, 10_000] {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), checksum(&data), "split at {split}");
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"fog layer 1 observation payload".to_vec();
        let base = checksum(&data);
        data[7] ^= 0x01;
        assert_ne!(checksum(&data), base);
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(Hasher::default(), Hasher::new());
    }
}
