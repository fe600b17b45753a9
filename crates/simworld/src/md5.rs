//! A from-scratch MD5 implementation (RFC 1321).
//!
//! The paper's second and third architectures detect provenance/data
//! inconsistency by comparing an `MD5(data ‖ nonce)` attribute stored in
//! SimpleDB against a hash recomputed from the S3 object. No hash crate is
//! on the project's allowed dependency list, so MD5 is implemented here and
//! validated against the RFC 1321 test vectors.
//!
//! MD5 is used strictly as a checksum for change detection, exactly as in
//! the paper — not for security.
//!
//! # Layout
//!
//! Every PUT's ETag and every `MD5(data ‖ nonce)` token runs through
//! one kernel, `compress`, over a block's sixteen little-endian message
//! words. It is written out the way RFC 1321's reference code is: four
//! rounds of sixteen steps, every step naming its message word, sine
//! constant and shift as literals — no per-step round dispatch, no
//! computed index.
//!
//! Each step is `a = b + ((a + m + k + aux(b, c, d)) <<< s)`, and it adds
//! `a + m + k` first: none of the three depends on the step before, so
//! only `aux` → add → rotate → add waits on the previous step's `b`.
//! `m + k` passes through [`std::hint::black_box`] to keep it that way,
//! because LLVM otherwise moves the constant `k` behind `aux`. For the
//! same reason round 1's `aux` is `z ^ (x & (y ^ z))` (two operations
//! after `x` is known, not three), and round 2's two disjoint halves are
//! added one at a time, the half without `b` first.
//!
//! Bytes enter through [`Md5::update`], which compresses whole blocks
//! straight from the caller's slice (only a partial block is buffered)
//! after loading their words. Words enter through `Md5::update_words`,
//! which a synthetic [`Blob`](crate::Blob) feeds from its generator with
//! no byte buffer at all. [`Md5::finalize`] writes the padding and the
//! length into the buffered block in one go, compressing a second block
//! only when 56 or more bytes were buffered.
//!
//! `cargo bench -p prov-bench --bench services -- md5` on a 2-vCPU x86-64
//! VM: a 1 MiB synthetic blob digests in 1.87–2.08 ms (≈ 530 MB/s), a
//! 1 KiB one plus a nonce in 1.96–2.17 µs, and 4 KiB of bytes in
//! 7.4–7.9 µs. With the adds in RFC order, `k` added last, and a
//! synthetic blob's bytes made in 8 KiB buffers first, the same runs read
//! 2.82–3.02 ms (≈ 350 MB/s), 2.62–2.88 µs (for an inline 1 KiB blob)
//! and 9.5–9.8 µs. On a loop over 16 384 random blocks, the kernel alone
//! runs at ≈ 565 MB/s, ≈ 490 MB/s without the `black_box` and ≈ 450 MB/s
//! as RFC 1321 orders the adds.
//!
//! The tests keep the kernel this replaced — a 64-step loop with a
//! `match` per step and byte-at-a-time padding — as the oracle: every
//! entry point must produce its digests for every length up to 300
//! bytes and for arbitrary splits, suffixes and blobs.

use std::fmt;
use std::hint::black_box;

use serde::{Deserialize, Serialize};

/// Sine-derived constants `floor(2^32 * abs(sin(i+1)))`, from RFC 1321.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// A 128-bit MD5 digest.
///
/// # Examples
///
/// ```
/// use simworld::Md5;
///
/// let digest = Md5::digest(b"abc");
/// assert_eq!(digest.to_hex(), "900150983cd24fb0d6963f7d28e17f72");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Md5Digest(pub [u8; 16]);

impl Md5Digest {
    /// The digest's 32 lowercase hex characters, rendered on the stack.
    pub fn hex_bytes(&self) -> [u8; 32] {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0u8; 32];
        for (pair, b) in out.chunks_exact_mut(2).zip(self.0) {
            pair[0] = DIGITS[(b >> 4) as usize];
            pair[1] = DIGITS[(b & 0xf) as usize];
        }
        out
    }

    /// Renders the digest as 32 lowercase hex characters.
    pub fn to_hex(&self) -> String {
        String::from_utf8(self.hex_bytes().to_vec()).expect("hex digits are ASCII")
    }

    /// Parses 32 hex characters back into a digest.
    ///
    /// Returns `None` if the input is not exactly 32 hex digits.
    pub fn from_hex(s: &str) -> Option<Md5Digest> {
        let bytes = s.as_bytes();
        if bytes.len() != 32 {
            return None;
        }
        let mut out = [0u8; 16];
        for (i, chunk) in bytes.chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Md5Digest(out))
    }
}

impl fmt::Display for Md5Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(std::str::from_utf8(&self.hex_bytes()).expect("hex digits are ASCII"))
    }
}

/// Streaming MD5 hasher.
///
/// # Examples
///
/// ```
/// use simworld::Md5;
///
/// let mut hasher = Md5::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), Md5::digest(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a hasher in the RFC 1321 initial state.
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// One-shot digest of a byte slice.
    pub fn digest(data: &[u8]) -> Md5Digest {
        let mut h = Md5::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &load(&self.buffer));
            self.buffered = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(
                &mut self.state,
                &load(block.try_into().expect("a 64-byte chunk")),
            );
        }
        let rest = blocks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Absorbs one whole block given as its sixteen message words: the
    /// block whose bytes are the words' little-endian bytes in order.
    ///
    /// # Panics
    ///
    /// If a partial block is buffered — words enter only on a block
    /// boundary.
    pub(crate) fn update_words(&mut self, words: &[u32; 16]) {
        assert_eq!(self.buffered, 0, "words enter on a block boundary");
        self.length_bytes = self.length_bytes.wrapping_add(64);
        compress(&mut self.state, words);
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Md5Digest {
        // Padding: 0x80, zeros, then the 64-bit little-endian bit length
        // in the last eight bytes — of this block when it has room, of
        // one more block when 56 or more bytes are buffered.
        let bit_len = self.length_bytes.wrapping_mul(8);
        let buffered = self.buffered;
        self.buffer[buffered] = 0x80;
        self.buffer[buffered + 1..].fill(0);
        if buffered >= 56 {
            compress(&mut self.state, &load(&self.buffer));
            self.buffer[..56].fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_le_bytes());
        compress(&mut self.state, &load(&self.buffer));
        let mut out = [0u8; 16];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        Md5Digest(out)
    }
}

/// RFC 1321's auxiliary function of round 1, `(x & y) | (!x & z)`:
/// `x` picks `y` where set and `z` where clear.
#[inline(always)]
fn aux_f(x: u32, y: u32, z: u32) -> u32 {
    z ^ (x & (y ^ z))
}

/// Round 3's.
#[inline(always)]
fn aux_h(x: u32, y: u32, z: u32) -> u32 {
    x ^ y ^ z
}

/// Round 4's.
#[inline(always)]
fn aux_i(x: u32, y: u32, z: u32) -> u32 {
    y ^ (x | !z)
}

/// One step: `a = b + ((a + m + k + aux(b, c, d)) <<< s)`, adding the
/// terms that do not wait on the previous step first. `aux_g` names
/// round 2's auxiliary function, `(x & z) | (y & !z)`; its two halves
/// share no bit, so the first arm adds them one at a time: `c & !d`,
/// which does not read `b`, then `b & d`.
///
/// `m + k` passes through [`black_box`], which returns it unchanged.
/// Without it LLVM's reassociation moves the constant `k` to the last
/// add of the sum, after `aux`, and puts one more add on the chain.
macro_rules! step {
    (aux_g, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $k:expr, $s:literal) => {
        $a = $b.wrapping_add(
            $a.wrapping_add(black_box($m.wrapping_add($k)))
                .wrapping_add($c & !$d)
                .wrapping_add($b & $d)
                .rotate_left($s),
        );
    };
    ($aux:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $k:expr, $s:literal) => {
        $a = $b.wrapping_add(
            $a.wrapping_add(black_box($m.wrapping_add($k)))
                .wrapping_add($aux($b, $c, $d))
                .rotate_left($s),
        );
    };
}

/// A 64-byte block's sixteen little-endian message words.
#[inline(always)]
fn load(block: &[u8; 64]) -> [u32; 16] {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    m
}

/// Folds one block, given as its message words, into `state`: RFC 1321's
/// four rounds, each step's message word, constant and shift written out.
fn compress(state: &mut [u32; 4], m: &[u32; 16]) {
    let [mut a, mut b, mut c, mut d] = *state;

    step!(aux_f, a, b, c, d, m[0], K[0], 7);
    step!(aux_f, d, a, b, c, m[1], K[1], 12);
    step!(aux_f, c, d, a, b, m[2], K[2], 17);
    step!(aux_f, b, c, d, a, m[3], K[3], 22);
    step!(aux_f, a, b, c, d, m[4], K[4], 7);
    step!(aux_f, d, a, b, c, m[5], K[5], 12);
    step!(aux_f, c, d, a, b, m[6], K[6], 17);
    step!(aux_f, b, c, d, a, m[7], K[7], 22);
    step!(aux_f, a, b, c, d, m[8], K[8], 7);
    step!(aux_f, d, a, b, c, m[9], K[9], 12);
    step!(aux_f, c, d, a, b, m[10], K[10], 17);
    step!(aux_f, b, c, d, a, m[11], K[11], 22);
    step!(aux_f, a, b, c, d, m[12], K[12], 7);
    step!(aux_f, d, a, b, c, m[13], K[13], 12);
    step!(aux_f, c, d, a, b, m[14], K[14], 17);
    step!(aux_f, b, c, d, a, m[15], K[15], 22);

    step!(aux_g, a, b, c, d, m[1], K[16], 5);
    step!(aux_g, d, a, b, c, m[6], K[17], 9);
    step!(aux_g, c, d, a, b, m[11], K[18], 14);
    step!(aux_g, b, c, d, a, m[0], K[19], 20);
    step!(aux_g, a, b, c, d, m[5], K[20], 5);
    step!(aux_g, d, a, b, c, m[10], K[21], 9);
    step!(aux_g, c, d, a, b, m[15], K[22], 14);
    step!(aux_g, b, c, d, a, m[4], K[23], 20);
    step!(aux_g, a, b, c, d, m[9], K[24], 5);
    step!(aux_g, d, a, b, c, m[14], K[25], 9);
    step!(aux_g, c, d, a, b, m[3], K[26], 14);
    step!(aux_g, b, c, d, a, m[8], K[27], 20);
    step!(aux_g, a, b, c, d, m[13], K[28], 5);
    step!(aux_g, d, a, b, c, m[2], K[29], 9);
    step!(aux_g, c, d, a, b, m[7], K[30], 14);
    step!(aux_g, b, c, d, a, m[12], K[31], 20);

    step!(aux_h, a, b, c, d, m[5], K[32], 4);
    step!(aux_h, d, a, b, c, m[8], K[33], 11);
    step!(aux_h, c, d, a, b, m[11], K[34], 16);
    step!(aux_h, b, c, d, a, m[14], K[35], 23);
    step!(aux_h, a, b, c, d, m[1], K[36], 4);
    step!(aux_h, d, a, b, c, m[4], K[37], 11);
    step!(aux_h, c, d, a, b, m[7], K[38], 16);
    step!(aux_h, b, c, d, a, m[10], K[39], 23);
    step!(aux_h, a, b, c, d, m[13], K[40], 4);
    step!(aux_h, d, a, b, c, m[0], K[41], 11);
    step!(aux_h, c, d, a, b, m[3], K[42], 16);
    step!(aux_h, b, c, d, a, m[6], K[43], 23);
    step!(aux_h, a, b, c, d, m[9], K[44], 4);
    step!(aux_h, d, a, b, c, m[12], K[45], 11);
    step!(aux_h, c, d, a, b, m[15], K[46], 16);
    step!(aux_h, b, c, d, a, m[2], K[47], 23);

    step!(aux_i, a, b, c, d, m[0], K[48], 6);
    step!(aux_i, d, a, b, c, m[7], K[49], 10);
    step!(aux_i, c, d, a, b, m[14], K[50], 15);
    step!(aux_i, b, c, d, a, m[5], K[51], 21);
    step!(aux_i, a, b, c, d, m[12], K[52], 6);
    step!(aux_i, d, a, b, c, m[3], K[53], 10);
    step!(aux_i, c, d, a, b, m[10], K[54], 15);
    step!(aux_i, b, c, d, a, m[1], K[55], 21);
    step!(aux_i, a, b, c, d, m[8], K[56], 6);
    step!(aux_i, d, a, b, c, m[15], K[57], 10);
    step!(aux_i, c, d, a, b, m[6], K[58], 15);
    step!(aux_i, b, c, d, a, m[13], K[59], 21);
    step!(aux_i, a, b, c, d, m[4], K[60], 6);
    step!(aux_i, d, a, b, c, m[11], K[61], 10);
    step!(aux_i, c, d, a, b, m[2], K[62], 15);
    step!(aux_i, b, c, d, a, m[9], K[63], 21);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::Blob;

    /// The kernel the unrolled one replaced, kept verbatim as the
    /// definition of the digests: a 64-step loop choosing its auxiliary
    /// function and message index per step, and padding fed one byte at
    /// a time through its own `update`.
    #[derive(Clone)]
    struct Reference {
        state: [u32; 4],
        buffer: [u8; 64],
        buffered: usize,
        length_bytes: u64,
    }

    /// Per-round shift amounts, from RFC 1321.
    const S: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
        5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
        4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
        6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
    ];

    impl Reference {
        fn new() -> Self {
            Reference {
                state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
                buffer: [0u8; 64],
                buffered: 0,
                length_bytes: 0,
            }
        }

        fn digest(data: &[u8]) -> Md5Digest {
            let mut h = Reference::new();
            h.update(data);
            h.finalize()
        }

        fn update(&mut self, mut data: &[u8]) {
            self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
            if self.buffered > 0 {
                let take = (64 - self.buffered).min(data.len());
                self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
                self.buffered += take;
                data = &data[take..];
                if self.buffered == 64 {
                    let block = self.buffer;
                    self.compress(&block);
                    self.buffered = 0;
                }
            }
            while data.len() >= 64 {
                let mut block = [0u8; 64];
                block.copy_from_slice(&data[..64]);
                self.compress(&block);
                data = &data[64..];
            }
            if !data.is_empty() {
                self.buffer[..data.len()].copy_from_slice(data);
                self.buffered = data.len();
            }
        }

        fn finalize(mut self) -> Md5Digest {
            let bit_len = self.length_bytes.wrapping_mul(8);
            self.update(&[0x80]);
            while self.buffered != 56 {
                self.update(&[0]);
            }
            let mut block = self.buffer;
            block[56..64].copy_from_slice(&bit_len.to_le_bytes());
            self.compress(&block);
            let mut out = [0u8; 16];
            for (i, word) in self.state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
            }
            Md5Digest(out)
        }

        fn compress(&mut self, block: &[u8; 64]) {
            let mut m = [0u32; 16];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                m[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            let [mut a, mut b, mut c, mut d] = self.state;
            for i in 0..64 {
                let (f, g) = match i / 16 {
                    0 => ((b & c) | (!b & d), i),
                    1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    2 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                let tmp = d;
                d = c;
                c = b;
                let rotated = a
                    .wrapping_add(f)
                    .wrapping_add(K[i])
                    .wrapping_add(m[g])
                    .rotate_left(S[i]);
                b = b.wrapping_add(rotated);
                a = tmp;
            }
            self.state[0] = self.state[0].wrapping_add(a);
            self.state[1] = self.state[1].wrapping_add(b);
            self.state[2] = self.state[2].wrapping_add(c);
            self.state[3] = self.state[3].wrapping_add(d);
        }
    }

    /// `data` streamed through one hasher, cut at each of `cuts`.
    fn streamed(data: &[u8], cuts: &[usize]) -> Md5Digest {
        let mut h = Md5::new();
        let mut from = 0;
        for &cut in cuts.iter().chain([&data.len()]) {
            let cut = cut.clamp(from, data.len());
            h.update(&data[from..cut]);
            from = cut;
        }
        h.finalize()
    }

    /// Every length up to 300 — every residue mod 64, so every way the
    /// last block can be padded (55, 56, 63, 64 and 65 bytes among them)
    /// — one-shot and streamed through a buffered partial block.
    #[test]
    fn every_length_to_300_equals_the_reference() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 % 251) as u8).collect();
        for len in 0..=300 {
            let data = &data[..len];
            let want = Reference::digest(data);
            assert_eq!(Md5::digest(data), want, "one-shot, len {len}");
            for cut in [1, 55, 56, 63, 64, 65, len / 2] {
                assert_eq!(streamed(data, &[cut]), want, "len {len} cut at {cut}");
            }
            assert_eq!(streamed(data, &[3, 3, 70, 71]), want, "len {len}");
        }
        // A synthetic blob enters as words, a block at a time, and its
        // tail as bytes: on and around block boundaries, and past 8 KiB.
        for len in [0, 1, 63, 64, 65, 127, 128, 129, 8191, 8192, 8193, 16421] {
            let blob = Blob::synthetic(9, len);
            let bytes = blob.to_bytes();
            assert_eq!(blob.md5(), Reference::digest(&bytes), "synthetic len {len}");
            let with_suffix = Reference::digest(&[&bytes[..], b"nonce"].concat());
            assert_eq!(blob.md5_with_suffix(b"nonce"), with_suffix, "len {len}");
        }
    }

    proptest! {
        #[test]
        fn every_entry_point_equals_the_reference(
            data in proptest::collection::vec(any::<u8>(), 0..301),
            cuts in proptest::collection::vec(0usize..301, 0..5),
            suffix in proptest::collection::vec(any::<u8>(), 0..131),
            seed in any::<u64>(),
            synthetic_len in 0u64..20_001,
        ) {
            let mut cuts = cuts;
            cuts.sort_unstable();
            let want = Reference::digest(&data);
            prop_assert_eq!(Md5::digest(&data), want);
            prop_assert_eq!(streamed(&data, &cuts), want);
            let with_suffix = Reference::digest(&[&data[..], &suffix[..]].concat());
            let inline = Blob::from_bytes(data.clone());
            prop_assert_eq!(inline.md5(), want);
            prop_assert_eq!(inline.md5_with_suffix(&suffix), with_suffix);
            // Whole blocks as words, the tail as bytes, then the suffix.
            let synthetic = Blob::synthetic(seed, synthetic_len);
            let bytes = synthetic.to_bytes();
            prop_assert_eq!(synthetic.md5(), Reference::digest(&bytes));
            let with_suffix = Reference::digest(&[&bytes[..], &suffix[..]].concat());
            prop_assert_eq!(synthetic.md5_with_suffix(&suffix), with_suffix);
        }
    }

    /// The seven test vectors from RFC 1321 §A.5.
    #[test]
    fn rfc1321_vectors() {
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(Md5::digest(input).to_hex(), expected, "input {input:?}");
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let whole = Md5::digest(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let d = Md5::digest(b"round trip");
        assert_eq!(Md5Digest::from_hex(&d.to_hex()), Some(d));
    }

    #[test]
    fn from_hex_rejects_garbage() {
        assert_eq!(Md5Digest::from_hex("short"), None);
        assert_eq!(Md5Digest::from_hex(&"g".repeat(32)), None);
        let valid_len_not_hex = "zz".repeat(16);
        assert_eq!(Md5Digest::from_hex(&valid_len_not_hex), None);
    }

    #[test]
    fn display_matches_to_hex() {
        let d = Md5::digest(b"display");
        assert_eq!(format!("{d}"), d.to_hex());
        assert_eq!(d.hex_bytes(), d.to_hex().as_bytes());
        // Lowercase, each byte's high nibble first.
        let d = Md5Digest([0xab, 0x0c, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x1f]);
        assert_eq!(d.to_hex(), "ab0cff0000000000000000000000001f");
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(Md5::digest(b"a"), Md5::digest(b"b"));
        // The nonce-concatenation trick from the paper: same data, distinct
        // nonce must yield distinct digests.
        let mut one = Md5::new();
        one.update(b"data");
        one.update(b"1");
        let mut two = Md5::new();
        two.update(b"data");
        two.update(b"2");
        assert_ne!(one.finalize(), two.finalize());
    }

    #[test]
    fn exact_block_boundary_input() {
        // 64-byte input exercises the "no partial buffer at finalize" path.
        let data = [0xabu8; 64];
        let d = Md5::digest(&data);
        let mut h = Md5::new();
        h.update(&data);
        assert_eq!(h.finalize(), d);
    }
}
