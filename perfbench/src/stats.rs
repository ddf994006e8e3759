//! Percentiles and the response-body fingerprint.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; sorts in place.
/// Returns NaN on an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil().max(1.0) as usize;
    values[rank.min(values.len()) - 1]
}

/// Median of `values` (nearest rank); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Length plus a 64-bit multiply-rotate hash of `bytes`: the oracle
/// compares served bodies with in-process bodies by this fingerprint, so
/// the receiving threads keep no response bytes.
pub fn fingerprint(bytes: &[u8]) -> (u64, u32) {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = 0x243F_6A88_85A3_08D3u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    h ^= h >> 32;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    (h ^ (h >> 29), bytes.len() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.9), 90.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert!(percentile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn fingerprint_separates_near_identical_bodies() {
        assert_eq!(fingerprint(b"{\"m\":5}"), fingerprint(b"{\"m\":5}"));
        assert_ne!(fingerprint(b"{\"m\":5}"), fingerprint(b"{\"m\":6}"));
        assert_ne!(fingerprint(b"abcdefgh1"), fingerprint(b"abcdefgh2"));
    }
}
