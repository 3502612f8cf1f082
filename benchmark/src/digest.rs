//! FNV-1a 64 over the outcome tuple of a simulation: the benchmark's
//! correctness golden.

/// Incremental FNV-1a 64-bit hasher over little-endian `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(Self::OFFSET)
    }
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        Self::default()
    }

    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The 16-hex-digit form digests are pinned and printed in.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // Pinned from an independent FNV-1a 64 implementation: if these
        // move, every golden under golden/ silently changes meaning.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv1a::new();
        a.write_u64(1);
        a.write_u64(2);
        assert_eq!(hex(a.finish()), "7717980363c8e066");
        let mut b = Fnv1a::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_eq!(hex(b.finish()), "072184407c3a4ac6");
    }
}
