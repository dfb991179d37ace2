//! Byte packing helpers for typed payloads.
//!
//! The applications move arrays of `f64`; these helpers pack and unpack
//! them to the byte payloads the message layer carries, little-endian.

/// Pack a slice of `f64` into bytes (little-endian).
///
/// ```
/// use iosim_msg::codec::{pack_f64, unpack_f64};
/// let v = vec![1.5, -2.0];
/// assert_eq!(unpack_f64(&pack_f64(&v)), v);
/// ```
pub fn pack_f64(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Unpack bytes into `f64`s.
///
/// # Panics
/// Panics if the byte length is not a multiple of 8.
pub fn unpack_f64(bytes: &[u8]) -> Vec<f64> {
    assert!(
        bytes.len().is_multiple_of(8),
        "byte length {} not a multiple of 8",
        bytes.len()
    );
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect()
}

/// Pack a slice of `u64` into bytes (little-endian).
pub fn pack_u64(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Unpack bytes into `u64`s.
///
/// # Panics
/// Panics if the byte length is not a multiple of 8.
pub fn unpack_u64(bytes: &[u8]) -> Vec<u64> {
    assert!(
        bytes.len().is_multiple_of(8),
        "byte length {} not a multiple of 8",
        bytes.len()
    );
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_simkit::rng::SimRng;

    #[test]
    fn f64_roundtrip_simple() {
        let v = vec![0.0, 1.5, -2.25, f64::MAX];
        assert_eq!(unpack_f64(&pack_f64(&v)), v);
    }

    #[test]
    fn u64_roundtrip_simple() {
        let v = vec![0, 1, u64::MAX];
        assert_eq!(unpack_u64(&pack_u64(&v)), v);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn unpack_rejects_ragged_lengths() {
        unpack_f64(&[1, 2, 3]);
    }

    // Randomized round trips: each seed draws a vector of arbitrary bit
    // patterns (NaNs, infinities and subnormals included for f64).
    const SEEDS: u64 = 256;

    fn random_words(seed: u64) -> Vec<u64> {
        let mut rng = SimRng::seed_from(0xc0de_0000 + seed);
        let n = rng.range(0, 100) as usize;
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn f64_roundtrip() {
        for seed in 0..SEEDS {
            let v: Vec<f64> = random_words(seed).into_iter().map(f64::from_bits).collect();
            let back = unpack_f64(&pack_f64(&v));
            assert_eq!(back.len(), v.len(), "seed {seed}");
            for (a, b) in back.iter().zip(&v) {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn u64_roundtrip() {
        for seed in 0..SEEDS {
            let v = random_words(seed);
            assert_eq!(unpack_u64(&pack_u64(&v)), v, "seed {seed}");
        }
    }
}
