//! A tiny incremental 128-bit mixer (FNV-1a style) for world digests.
//!
//! Not cryptographic — it guards simulation invariants (fork fidelity,
//! replay drift, leak checks) against accidental divergence, where a
//! 128-bit avalanche is overwhelming and speed matters. Hand-rolled
//! because the build environment is offline: no hasher crates.

/// FNV-1a 128-bit offset basis.
const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV 128-bit prime (2^88 + 2^8 + 0x3b).
const PRIME: u128 = 0x0000000001000000000000000000013B;

/// An incremental byte mixer; `Copy` so tree walks can fork the running
/// state per child without allocation.
#[derive(Clone, Copy, Debug)]
pub struct Mix128 {
    state: u128,
}

impl Default for Mix128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Mix128 {
    /// A fresh mixer at the FNV offset basis.
    pub fn new() -> Mix128 {
        Mix128 { state: OFFSET }
    }

    /// Mixes raw bytes, 8 at a time (one 128-bit multiply per chunk
    /// instead of per byte — the multiply dominates, and digests sit on
    /// the per-replay verification path). NOT streaming-transparent:
    /// `write(a); write(b)` differs from `write(ab)` when `a` is not
    /// chunk-aligned. Every variable-length caller goes through
    /// [`Mix128::write_field`], whose length prefix both frames
    /// adjacent fields and disambiguates the chunked tail (without it,
    /// eight zero bytes and one zero byte would mix identically).
    pub fn write(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            s ^= u64::from_le_bytes(c.try_into().expect("exact chunk")) as u128;
            s = s.wrapping_mul(PRIME);
        }
        for &b in chunks.remainder() {
            s ^= b as u128;
            s = s.wrapping_mul(PRIME);
        }
        self.state = s;
    }

    /// Mixes a length-prefixed field: callers hashing adjacent
    /// variable-length fields use this to keep (`"ab"`, `"c"`) distinct
    /// from (`"a"`, `"bc"`).
    pub fn write_field(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write(bytes);
    }

    /// Mixes a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes a `u128` as 16 little-endian bytes.
    pub fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }

    /// Final avalanche: one extra multiply-fold pass so short inputs
    /// still spread into the high bits.
    pub fn finish(&self) -> u128 {
        let mut s = self.state;
        s ^= s >> 64;
        s = s.wrapping_mul(PRIME);
        s ^= s >> 67;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The digest of a single byte string.
    fn hash_bytes(bytes: &[u8]) -> u128 {
        let mut m = Mix128::new();
        m.write_field(bytes);
        m.finish()
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ba"));
        // Non-UTF-8 values must not collide (the motivating bug in the
        // string digest's from_utf8_lossy rendering).
        assert_ne!(hash_bytes(&[0xff, 0xfe]), hash_bytes(&[0xfe, 0xff]));
        assert_ne!(hash_bytes(&[0xed, 0xa0, 0x80]), hash_bytes(&[0xff]));
    }

    #[test]
    fn field_framing_prevents_concatenation_collisions() {
        let mut a = Mix128::new();
        a.write_field(b"ab");
        a.write_field(b"c");
        let mut b = Mix128::new();
        b.write_field(b"a");
        b.write_field(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn framing_disambiguates_the_chunked_tail() {
        // The chunked mixer folds an 8-byte all-zero chunk exactly like
        // a single zero byte; the write_field length prefix (which
        // hash_bytes applies) is what keeps them distinct.
        assert_ne!(hash_bytes(&[0u8; 8]), hash_bytes(&[0u8; 1]));
        assert_ne!(hash_bytes(&[0u8; 16]), hash_bytes(&[0u8; 8]));
        // Chunk-boundary framing: same bytes, different field splits.
        let mut a = Mix128::new();
        a.write_field(b"12345678");
        a.write_field(b"");
        let mut b = Mix128::new();
        b.write_field(b"1234567");
        b.write_field(b"8");
        assert_ne!(a.finish(), b.finish());
    }
}
