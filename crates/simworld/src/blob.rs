//! Cheap, content-addressable byte payloads.
//!
//! The paper's combined dataset is 1.27 GB; materialising that in test
//! memory would be wasteful. [`Blob`] therefore supports two
//! representations: small payloads held inline ([`bytes::Bytes`]) and
//! *synthetic* payloads whose bytes are a deterministic function of a seed,
//! generated on demand. Both support length, ranged slicing, chunked
//! iteration and MD5 — which is all the simulated services need — so
//! gigabyte-scale objects cost a few machine words.

use std::fmt;
use std::ops::Range;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::md5::{Md5, Md5Digest};

/// How many bytes [`Blob::chunks`] yields per step.
pub const CHUNK: usize = 8 * 1024;

#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
enum Repr {
    Inline(#[serde(with = "serde_bytes_compat")] Bytes),
    /// `len` pseudo-random bytes: bytes `start .. start + len` of the
    /// stream [`extend_synthetic`] generates for `seed`.
    Synthetic {
        seed: u64,
        start: u64,
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
/// let _etag = big.md5(); // streams without materialising
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
            repr: Repr::Synthetic {
                seed,
                start: 0,
                len,
            },
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

    /// A sub-range of the blob, cheaply.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: Range<u64>) -> Blob {
        assert!(range.start <= range.end, "inverted range {range:?}");
        assert!(
            range.end <= self.len(),
            "range {range:?} out of bounds for len {}",
            self.len()
        );
        match &self.repr {
            Repr::Inline(b) => Blob::from_bytes(b.slice(range.start as usize..range.end as usize)),
            Repr::Synthetic { seed, start, .. } => Blob {
                repr: Repr::Synthetic {
                    seed: *seed,
                    start: start + range.start,
                    len: range.end - range.start,
                },
            },
        }
    }

    /// Materialises the blob into contiguous bytes.
    ///
    /// Intended for small payloads (metadata, provenance records, message
    /// bodies); synthetic blobs are generated in full, so avoid calling
    /// this on multi-gigabyte blobs.
    pub fn to_bytes(&self) -> Bytes {
        match &self.repr {
            Repr::Inline(b) => b.clone(),
            Repr::Synthetic { seed, start, len } => {
                let mut out = Vec::with_capacity(*len as usize);
                extend_synthetic(&mut out, *seed, *start, *len);
                Bytes::from(out)
            }
        }
    }

    /// Iterates the content in chunks of at most [`CHUNK`] bytes without
    /// materialising the whole payload.
    pub fn chunks(&self) -> Chunks<'_> {
        Chunks {
            blob: self,
            offset: 0,
        }
    }

    /// Streaming MD5 of the content.
    pub fn md5(&self) -> Md5Digest {
        let mut h = Md5::new();
        for chunk in self.chunks() {
            h.update(&chunk);
        }
        h.finalize()
    }

    /// MD5 of the content followed by `suffix` — the paper's
    /// `MD5(data ‖ nonce)` consistency token.
    pub fn md5_with_suffix(&self, suffix: &[u8]) -> Md5Digest {
        let mut h = Md5::new();
        for chunk in self.chunks() {
            h.update(&chunk);
        }
        h.update(suffix);
        h.finalize()
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
            Repr::Synthetic { seed, start, len } => {
                write!(f, "Blob::synthetic(seed={seed}, start={start}, len={len})")
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

/// Iterator over a blob's content in [`CHUNK`]-byte steps.
///
/// Produced by [`Blob::chunks`].
#[derive(Debug)]
pub struct Chunks<'a> {
    blob: &'a Blob,
    offset: u64,
}

impl Iterator for Chunks<'_> {
    type Item = Bytes;

    fn next(&mut self) -> Option<Bytes> {
        let remaining = self.blob.len() - self.offset;
        if remaining == 0 {
            return None;
        }
        let take = remaining.min(CHUNK as u64);
        let out = match &self.blob.repr {
            Repr::Inline(b) => b.slice(self.offset as usize..(self.offset + take) as usize),
            Repr::Synthetic { seed, start, .. } => {
                let mut buf = Vec::with_capacity(take as usize);
                extend_synthetic(&mut buf, *seed, start + self.offset, take);
                Bytes::from(buf)
            }
        };
        self.offset += take;
        Some(out)
    }
}

/// Bytes `8 * block .. 8 * block + 8` of the synthetic stream for `seed`.
///
/// SplitMix64 over the 8-byte block index, so any byte is addressable in
/// O(1) — which is what makes `slice` cheap.
fn synthetic_block(seed: u64, block: u64) -> [u8; 8] {
    let mut state = seed ^ block.wrapping_mul(0x9e3779b97f4a7c15);
    crate::hash::splitmix64(&mut state).to_le_bytes()
}

/// Appends bytes `from .. from + len` of the synthetic stream for `seed`,
/// one SplitMix64 step per 8-byte block touched; `from` and the end need
/// not fall on block boundaries.
fn extend_synthetic(out: &mut Vec<u8>, seed: u64, from: u64, len: u64) {
    let end = from + len;
    let mut at = from;
    while at < end {
        let block = synthetic_block(seed, at / 8);
        let block_start = at - at % 8;
        let upto = (end - block_start).min(8);
        out.extend_from_slice(&block[(at - block_start) as usize..upto as usize]);
        at = block_start + upto;
    }
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
    /// step per byte: what the block filler has to reproduce.
    fn synthetic_byte(seed: u64, index: u64) -> u8 {
        let block = index / 8;
        let mut state = seed ^ block.wrapping_mul(0x9e3779b97f4a7c15);
        let word = crate::hash::splitmix64(&mut state);
        word.to_le_bytes()[(index % 8) as usize]
    }

    #[test]
    fn block_filler_matches_the_bytewise_stream_on_unaligned_slices() {
        for seed in [0, 7, u64::MAX] {
            for from in (0..20).chain([CHUNK as u64 - 3, CHUNK as u64 + 5]) {
                for len in (0..27).chain([CHUNK as u64 - 1, CHUNK as u64 + 9]) {
                    let expected: Vec<u8> = (from..from + len)
                        .map(|i| synthetic_byte(seed, i))
                        .collect();
                    let mut filled = vec![0xAA];
                    extend_synthetic(&mut filled, seed, from, len);
                    assert_eq!(filled[0], 0xAA, "appends, never overwrites");
                    assert_eq!(filled[1..], expected, "seed {seed} from {from} len {len}");
                    // And through the public surface: a slice's bytes,
                    // chunked or whole.
                    let blob = Blob::synthetic(seed, from + len).slice(from..from + len);
                    assert_eq!(blob.to_bytes(), expected);
                    let chunked: Vec<u8> = blob.chunks().flat_map(|c| c.to_vec()).collect();
                    assert_eq!(chunked, expected);
                }
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
    fn synthetic_slice_matches_materialised_slice() {
        let blob = Blob::synthetic(99, 10_000);
        let all = blob.to_bytes();
        for range in [
            0..0u64,
            0..1,
            100..200,
            9_999..10_000,
            0..10_000,
            4_095..4_097,
        ] {
            let sliced = blob.slice(range.clone()).to_bytes();
            assert_eq!(&sliced[..], &all[range.start as usize..range.end as usize]);
        }
    }

    #[test]
    fn nested_slices_compose() {
        let blob = Blob::synthetic(3, 1_000);
        let outer = blob.slice(100..900);
        let inner = outer.slice(50..150);
        assert_eq!(inner.to_bytes(), blob.slice(150..250).to_bytes());
    }

    #[test]
    fn slice_of_inline_matches() {
        let blob = Blob::from_bytes((0u8..=255).collect::<Vec<_>>());
        assert_eq!(&blob.slice(10..13).to_bytes()[..], &[10, 11, 12]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Blob::from_bytes(vec![1, 2, 3]).slice(0..4);
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
    fn chunks_cover_exactly_once() {
        let blob = Blob::synthetic(5, (CHUNK * 2 + 17) as u64);
        let total: u64 = blob.chunks().map(|c| c.len() as u64).sum();
        assert_eq!(total, blob.len());
        let glued: Vec<u8> = blob.chunks().flat_map(|c| c.to_vec()).collect();
        assert_eq!(Bytes::from(glued), blob.to_bytes());
    }

    #[test]
    fn empty_blob_behaves() {
        let b = Blob::empty();
        assert!(b.is_empty());
        assert_eq!(b.chunks().count(), 0);
        assert_eq!(b.md5().to_hex(), "d41d8cd98f00b204e9800998ecf8427e");
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Blob::empty()).is_empty());
        assert!(format!("{:?}", Blob::synthetic(1, 5)).contains("seed=1"));
    }
}
