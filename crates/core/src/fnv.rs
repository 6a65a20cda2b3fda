//! FNV-1a 64: the one hash behind campaign store keys, trace
//! fingerprints, fuzz digests and env episode fingerprints.
//!
//! Every one of those values is pinned somewhere (golden files, CI greps,
//! stored cell names), so the byte order is fixed: [`Fnv::push`] feeds a
//! `u64` little-endian, exactly as [`Fnv::write`] would its bytes.

/// Streaming FNV-1a 64 accumulator.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh accumulator at the FNV-1a 64 offset basis.
    #[must_use]
    pub const fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes` in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds `x` as its 8 little-endian bytes.
    #[inline]
    pub fn push(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Feeds an optional value, distinguishing `None` from `Some(0)`.
    pub fn push_opt(&mut self, x: Option<u64>) {
        match x {
            None => self.push(u64::MAX),
            Some(v) => {
                self.push(1);
                self.push(v);
            }
        }
    }

    /// The hash of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}
