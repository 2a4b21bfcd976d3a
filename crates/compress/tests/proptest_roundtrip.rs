//! Property-based tests: every codec in the crate must be a lossless
//! bijection on arbitrary byte vectors, and decoding must never panic on
//! arbitrary (mostly invalid) input. The run-length column technique of
//! `tsenc` is held to the same laws on byte-valued columns.

use f2c_compress::tsenc::{decode_column, encode_column_as, put_varint, Technique};
use f2c_compress::{compress_with, decompress, lz77, Level};
use proptest::prelude::*;

/// Frames `bytes` as a run-length column and decodes it back.
fn rle_roundtrip(bytes: &[u8]) -> Vec<u8> {
    let values: Vec<u64> = bytes.iter().map(|&b| u64::from(b)).collect();
    let mut frame = Vec::new();
    encode_column_as(Technique::Rle, &values, &mut frame);
    let mut pos = 0;
    let (technique, back) = decode_column(&frame, &mut pos, values.len() as u64).unwrap();
    assert_eq!((technique, pos), (Technique::Rle, frame.len()));
    back.into_iter().map(|v| u8::try_from(v).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn deflate_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for level in [Level::Fast, Level::Default, Level::Best] {
            let packed = compress_with(&data, level).unwrap();
            prop_assert_eq!(&decompress(&packed).unwrap(), &data);
        }
    }

    #[test]
    fn deflate_roundtrips_structured_text(
        rows in proptest::collection::vec((0u32..100_000, 0u32..86_400, -50i32..150), 0..300)
    ) {
        // Sentilo-shaped CSV rows, the payload class the experiment uses.
        let mut data = Vec::new();
        for (id, t, v) in rows {
            data.extend_from_slice(format!("sensor-{id},{t},{v}\n").as_bytes());
        }
        let packed = compress_with(&data, Level::Default).unwrap();
        prop_assert_eq!(&decompress(&packed).unwrap(), &data);
    }

    #[test]
    fn rle_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(rle_roundtrip(&data), data);
    }

    #[test]
    fn rle_roundtrips_runny_bytes(
        runs in proptest::collection::vec((any::<u8>(), 1usize..400), 0..50)
    ) {
        let mut data = Vec::new();
        for (byte, len) in runs {
            data.extend(std::iter::repeat_n(byte, len));
        }
        prop_assert_eq!(rle_roundtrip(&data), data);
    }

    #[test]
    fn lz77_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let tokens = lz77::tokenize(&data, &lz77::SearchParams::DEFAULT);
        prop_assert_eq!(lz77::reconstruct(&tokens).unwrap(), data);
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any outcome is fine except a panic.
        let _ = decompress(&data);
    }

    #[test]
    fn rle_decode_never_panics_on_garbage(
        expect in 0u64..4096,
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // A well-formed frame around a garbage body, so decoding reaches
        // the run-length decoder; any column it accepts has the count asked.
        let mut frame = vec![Technique::Rle.tag()];
        put_varint(&mut frame, data.len() as u64);
        frame.extend_from_slice(&data);
        if let Ok((_, values)) = decode_column(&frame, &mut 0, expect) {
            prop_assert_eq!(values.len() as u64, expect);
        }
    }

    #[test]
    fn compression_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let a = compress_with(&data, Level::Default).unwrap();
        let b = compress_with(&data, Level::Default).unwrap();
        prop_assert_eq!(a, b);
    }
}
