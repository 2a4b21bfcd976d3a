//! Byte-oriented run-length encoding.
//!
//! RLE is the cheapest of the "data compression" techniques the paper's §V.A
//! taxonomy admits. It serves here as a baseline codec to compare against
//! deflate on incompressible-but-runny payloads (e.g. zero-padded
//! fixed-width records).
//!
//! # Format
//!
//! A sequence of packets. Each packet starts with a control byte `c`:
//!
//! * `c < 0x80`: a *literal* packet — the next `c + 1` bytes are copied
//!   verbatim (1–128 literals).
//! * `c >= 0x80`: a *run* packet — the next byte is repeated
//!   `c - 0x80 + 3` times (3–130 repeats).
//!
//! Runs shorter than 3 bytes are emitted as literals, so encoding never
//! expands worst-case data by more than 1/128 plus one byte.

use crate::{Error, Result};

/// Minimum run length worth a run packet.
const MIN_RUN: usize = 3;
/// Maximum repeats representable by one run packet.
const MAX_RUN: usize = 130;
/// Maximum literals representable by one literal packet.
const MAX_LIT: usize = 128;

/// Run-length encodes `input`.
///
/// # Examples
///
/// ```
/// use f2c_compress::rle;
///
/// let data = b"aaaaaaaabc";
/// let packed = rle::encode(data);
/// assert!(packed.len() < data.len());
/// assert_eq!(rle::decode(&packed)?, data);
/// # Ok::<(), f2c_compress::Error>(())
/// ```
pub fn encode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 8);
    let mut i = 0;
    let mut lit_start = 0;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
        let mut s = from;
        while s < to {
            let n = (to - s).min(MAX_LIT);
            out.push((n - 1) as u8);
            out.extend_from_slice(&input[s..s + n]);
            s += n;
        }
    };

    while i < input.len() {
        // Measure the run starting at i.
        let byte = input[i];
        let mut run = 1;
        while i + run < input.len() && input[i + run] == byte && run < MAX_RUN {
            run += 1;
        }
        if run >= MIN_RUN {
            flush_literals(&mut out, lit_start, i, input);
            out.push(0x80 + (run - MIN_RUN) as u8);
            out.push(byte);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(&mut out, lit_start, input.len(), input);
    out
}

/// Decodes a run-length-encoded stream produced by [`encode`].
///
/// # Errors
///
/// Returns [`Error::TruncatedRun`] if a packet promises more bytes than the
/// stream contains.
pub fn decode(input: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut i = 0;
    while i < input.len() {
        let control = input[i];
        i += 1;
        if control < 0x80 {
            let n = control as usize + 1;
            if i + n > input.len() {
                return Err(Error::TruncatedRun);
            }
            out.extend_from_slice(&input[i..i + n]);
            i += n;
        } else {
            let n = (control - 0x80) as usize + MIN_RUN;
            if i >= input.len() {
                return Err(Error::TruncatedRun);
            }
            let byte = input[i];
            i += 1;
            out.resize(out.len() + n, byte);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let packed = encode(data);
        assert_eq!(decode(&packed).unwrap(), data);
    }

    #[test]
    fn empty_input() {
        assert!(encode(&[]).is_empty());
        assert_eq!(decode(&[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn all_same_byte_compresses_hard() {
        let data = vec![7u8; 10_000];
        let packed = encode(&data);
        assert!(packed.len() < 200, "got {}", packed.len());
        assert_eq!(decode(&packed).unwrap(), data);
    }

    #[test]
    fn short_runs_stay_literal() {
        roundtrip(b"aabbccdd");
        // 2-byte runs never pay for a run packet: output is one literal packet.
        let packed = encode(b"aabb");
        assert_eq!(packed, vec![3, b'a', b'a', b'b', b'b']);
    }

    #[test]
    fn mixed_content_roundtrips() {
        let mut data = Vec::new();
        for i in 0..500u32 {
            data.extend_from_slice(format!("sensor-{i},").as_bytes());
            data.extend(std::iter::repeat_n(b' ', (i % 9) as usize));
        }
        roundtrip(&data);
    }

    #[test]
    fn run_longer_than_max_splits() {
        let data = vec![0u8; MAX_RUN * 3 + 17];
        roundtrip(&data);
    }

    #[test]
    fn literal_longer_than_max_splits() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        roundtrip(&data);
    }

    #[test]
    fn worst_case_expansion_is_bounded() {
        // Strictly alternating bytes: no runs at all.
        let data: Vec<u8> = (0..10_000).map(|i| (i % 2) as u8).collect();
        let packed = encode(&data);
        assert!(packed.len() <= data.len() + data.len() / MAX_LIT + 1);
    }

    #[test]
    fn truncated_literal_packet_errors() {
        // Control byte promises 5 literals but only 2 follow.
        assert_eq!(decode(&[4, b'a', b'b']), Err(Error::TruncatedRun));
    }

    #[test]
    fn truncated_run_packet_errors() {
        assert_eq!(decode(&[0x85]), Err(Error::TruncatedRun));
    }
}
