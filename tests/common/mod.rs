//! Helpers shared by the integration-test binaries; a test file opts in
//! with `mod common;`.

/// Describes how two replica byte streams diverge, or returns `None`
/// when they are identical.
///
/// The report names the kind of divergence — the same lines in another
/// order, other differing content, or a length mismatch where one stream
/// is a strict prefix of the other — the first divergent byte offset,
/// both lengths, and a ±8-byte hex window of each stream around that
/// offset. Returning the report rather than panicking lets a `proptest!`
/// body `prop_assert!` on it.
pub fn byte_divergence(a: &[u8], b: &[u8], label: &str) -> Option<String> {
    if a == b {
        return None;
    }
    let common = a.len().min(b.len());
    let first_diff = (0..common).find(|&i| a[i] != b[i]);
    let kind = match first_diff {
        Some(_) if same_lines(a, b) => "ordering differs: same lines, different order",
        Some(_) => "content differs",
        None if a.len() < b.len() => "length mismatch: a is a strict prefix of b",
        None => "length mismatch: b is a strict prefix of a",
    };
    let offset = first_diff.unwrap_or(common);
    let window =
        |s: &[u8]| -> Vec<u8> { s[offset.saturating_sub(8)..(offset + 8).min(s.len())].to_vec() };
    Some(format!(
        "{label}: replicas diverge at byte offset {offset} ({kind}; \
         lengths {} vs {});\n  a[..±8] = {:02x?}\n  b[..±8] = {:02x?}",
        a.len(),
        b.len(),
        window(a),
        window(b),
    ))
}

/// Whether `a` and `b` hold the same `\n`-separated lines as multisets
/// (which implies equal lengths).
fn same_lines(a: &[u8], b: &[u8]) -> bool {
    fn sorted(s: &[u8]) -> Vec<&[u8]> {
        let mut lines: Vec<&[u8]> = s.split(|&c| c == b'\n').collect();
        lines.sort_unstable();
        lines
    }
    sorted(a) == sorted(b)
}

/// Panics with the [`byte_divergence`] report unless `a == b`.
pub fn assert_byte_identical(a: &[u8], b: &[u8], label: &str) {
    if let Some(report) = byte_divergence(a, b, label) {
        panic!("{report}");
    }
}
