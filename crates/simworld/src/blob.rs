//! Cheap, content-addressable byte payloads.
//!
//! The paper's combined dataset is 1.27 GB; materialising that in test
//! memory would be wasteful. [`Blob`] therefore supports two
//! representations: small payloads held inline ([`bytes::Bytes`]) and
//! *synthetic* payloads whose bytes are a deterministic function of a seed,
//! generated on demand. Both support length, writing their bytes out and
//! MD5 — which is all the simulated services need — so gigabyte-scale
//! objects cost a few machine words. A synthetic blob's digest takes its
//! generator's words straight into MD5's message words, a block at a
//! time, so hashing one allocates nothing whatever its length.

use std::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::md5::{Md5, Md5Digest};

#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
enum Repr {
    Inline(#[serde(with = "serde_bytes_compat")] Bytes),
    /// `len` pseudo-random bytes: the first `len` bytes of the stream of
    /// little-endian [`synthetic_word`]s for `seed`.
    Synthetic {
        seed: u64,
        len: u64,
    },
}

/// A byte payload that may be inline or synthetically generated.
///
/// # Examples
///
/// ```
/// use simworld::Blob;
///
/// let small = Blob::from_bytes("hello".as_bytes().to_vec());
/// assert_eq!(small.len(), 5);
///
/// // A 100 MB object that occupies a few words of memory:
/// let big = Blob::synthetic(42, 100 * 1024 * 1024);
/// assert_eq!(big.len(), 100 * 1024 * 1024);
/// let _etag = big.md5(); // streams, allocating nothing
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Blob {
    repr: Repr,
}

impl Blob {
    /// Creates an empty blob.
    pub fn empty() -> Blob {
        Blob::from_bytes(Vec::new())
    }

    /// Wraps owned bytes.
    pub fn from_bytes(bytes: impl Into<Bytes>) -> Blob {
        Blob {
            repr: Repr::Inline(bytes.into()),
        }
    }

    /// Creates a deterministic pseudo-random blob of `len` bytes.
    ///
    /// Two blobs with the same `seed` and `len` have identical content.
    pub fn synthetic(seed: u64, len: u64) -> Blob {
        Blob {
            repr: Repr::Synthetic { seed, len },
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match &self.repr {
            Repr::Inline(b) => b.len() as u64,
            Repr::Synthetic { len, .. } => *len,
        }
    }

    /// `true` when the blob holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialises the blob into contiguous bytes.
    ///
    /// Intended for small payloads (metadata, provenance records, message
    /// bodies); synthetic blobs are generated in full, so avoid calling
    /// this on multi-gigabyte blobs.
    pub fn to_bytes(&self) -> Bytes {
        match &self.repr {
            Repr::Inline(b) => b.clone(),
            Repr::Synthetic { .. } => {
                let mut out = Vec::new();
                self.write_to(&mut out);
                Bytes::from(out)
            }
        }
    }

    /// Appends the blob's bytes to `out`, a synthetic blob's a whole
    /// generator word at a time.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match &self.repr {
            Repr::Inline(b) => out.extend_from_slice(b),
            Repr::Synthetic { seed, len } => {
                let start = out.len();
                out.resize(start + *len as usize, 0);
                fill_synthetic(&mut out[start..], *seed, 0);
            }
        }
    }

    /// Streaming MD5 of the content.
    pub fn md5(&self) -> Md5Digest {
        let mut h = Md5::new();
        self.hash_into(&mut h);
        h.finalize()
    }

    /// MD5 of the content followed by `suffix` — the paper's
    /// `MD5(data ‖ nonce)` consistency token.
    pub fn md5_with_suffix(&self, suffix: &[u8]) -> Md5Digest {
        let mut h = Md5::new();
        self.hash_into(&mut h);
        h.update(suffix);
        h.finalize()
    }

    /// Feeds the content to `h`.
    fn hash_into(&self, h: &mut Md5) {
        match &self.repr {
            Repr::Inline(b) => h.update(b),
            Repr::Synthetic { seed, len } => hash_synthetic(h, *seed, *len),
        }
    }
}

impl Default for Blob {
    fn default() -> Self {
        Blob::empty()
    }
}

impl fmt::Debug for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Inline(b) if b.len() <= 32 => write!(f, "Blob::inline({b:?})"),
            Repr::Inline(b) => write!(f, "Blob::inline(len={})", b.len()),
            Repr::Synthetic { seed, len } => {
                write!(f, "Blob::synthetic(seed={seed}, len={len})")
            }
        }
    }
}

impl From<Vec<u8>> for Blob {
    fn from(v: Vec<u8>) -> Blob {
        Blob::from_bytes(v)
    }
}

impl From<&str> for Blob {
    fn from(s: &str) -> Blob {
        Blob::from_bytes(s.as_bytes().to_vec())
    }
}

impl From<String> for Blob {
    fn from(s: String) -> Blob {
        Blob::from_bytes(s.into_bytes())
    }
}

/// Word `index` of the synthetic stream for `seed`: its bytes `8 * index
/// .. 8 * index + 8`, little-endian.
///
/// SplitMix64 over the word index, so any word is addressable in O(1).
fn synthetic_word(seed: u64, index: u64) -> u64 {
    let mut state = seed ^ index.wrapping_mul(0x9e3779b97f4a7c15);
    crate::hash::splitmix64(&mut state)
}

/// Fills `out` with the synthetic stream for `seed` from word `first` on,
/// a whole word at a time but for a partial last one.
fn fill_synthetic(out: &mut [u8], seed: u64, first: u64) {
    let last = first + (out.len() / 8) as u64;
    let mut words = out.chunks_exact_mut(8);
    for (index, bytes) in (first..).zip(&mut words) {
        bytes.copy_from_slice(&synthetic_word(seed, index).to_le_bytes());
    }
    let tail = words.into_remainder();
    tail.copy_from_slice(&synthetic_word(seed, last).to_le_bytes()[..tail.len()]);
}

/// Feeds the synthetic stream's first `len` bytes for `seed` to `h`. Its
/// whole 64-byte blocks go in as message words, each generator word two
/// of them; only the partial last block goes through a stack buffer.
fn hash_synthetic(h: &mut Md5, seed: u64, len: u64) {
    let blocks = len / 64;
    for block in 0..blocks {
        let mut words = [0u32; 16];
        for (index, halves) in (8 * block..).zip(words.chunks_exact_mut(2)) {
            let word = synthetic_word(seed, index);
            halves[0] = word as u32;
            halves[1] = (word >> 32) as u32;
        }
        h.update_words(&words);
    }
    let mut tail = [0u8; 64];
    let tail = &mut tail[..(len % 64) as usize];
    fill_synthetic(tail, seed, 8 * blocks);
    h.update(tail);
}

// Only reachable through the `#[serde(with = ...)]` attribute, which the
// vendored no-op serde derive leaves inert — hence dead to rustc.
#[allow(dead_code)]
mod serde_bytes_compat {
    //! `bytes::Bytes` serde support without enabling the `serde` feature of
    //! the `bytes` crate.
    use bytes::Bytes;
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(b: &Bytes, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bytes(b)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Bytes, D::Error> {
        let v = Vec::<u8>::deserialize(d)?;
        Ok(Bytes::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte `index` of the synthetic stream for `seed`, one SplitMix64
    /// step per byte: what the word writer has to reproduce.
    fn synthetic_byte(seed: u64, index: u64) -> u8 {
        let block = index / 8;
        let mut state = seed ^ block.wrapping_mul(0x9e3779b97f4a7c15);
        let word = crate::hash::splitmix64(&mut state);
        word.to_le_bytes()[(index % 8) as usize]
    }

    #[test]
    fn block_filler_matches_the_bytewise_stream_on_unaligned_slices() {
        for seed in [0, 7, u64::MAX] {
            for len in (0..47).chain([8189, 8191, 8192, 8193, 8201]) {
                let expected: Vec<u8> = (0..len).map(|i| synthetic_byte(seed, i)).collect();
                let blob = Blob::synthetic(seed, len);
                let mut written = vec![0xAA; 3];
                blob.write_to(&mut written);
                assert_eq!(written[..3], [0xAA; 3], "appends, never overwrites");
                assert_eq!(written[3..], expected, "seed {seed} len {len}");
                assert_eq!(blob.to_bytes()[..], expected, "seed {seed} len {len}");
            }
        }
    }

    #[test]
    fn inline_round_trip() {
        let b = Blob::from_bytes(b"hello world".to_vec());
        assert_eq!(b.len(), 11);
        assert!(!b.is_empty());
        assert_eq!(&b.to_bytes()[..], b"hello world");
    }

    #[test]
    fn synthetic_is_deterministic() {
        let a = Blob::synthetic(7, 1000);
        let b = Blob::synthetic(7, 1000);
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.md5(), b.md5());
        let c = Blob::synthetic(8, 1000);
        assert_ne!(a.md5(), c.md5());
    }

    #[test]
    fn md5_streams_equal_oneshot() {
        let blob = Blob::synthetic(1, 100_000);
        let expected = Md5::digest(&blob.to_bytes());
        assert_eq!(blob.md5(), expected);
    }

    #[test]
    fn md5_with_suffix_matches_concat() {
        let blob = Blob::from_bytes(b"data".to_vec());
        let expected = Md5::digest(b"data42");
        assert_eq!(blob.md5_with_suffix(b"42"), expected);
    }

    #[test]
    fn empty_blob_behaves() {
        let b = Blob::empty();
        assert!(b.is_empty());
        let mut out = Vec::new();
        b.write_to(&mut out);
        assert!(out.is_empty());
        assert_eq!(b.md5().to_hex(), "d41d8cd98f00b204e9800998ecf8427e");
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Blob::empty()).is_empty());
        assert!(format!("{:?}", Blob::synthetic(1, 5)).contains("seed=1"));
    }
}
