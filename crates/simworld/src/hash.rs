//! Stable string hashing for shard placement, a word-at-a-time hash for
//! digests of stored state, and the workspace's one SplitMix64 step for
//! seed-stable synthetic streams.

/// FNV-1a, 64-bit: a stable, seed-free hash so a key's shard is the same
/// in every run and on every platform. This is the placement function
/// behind every hash-sharded simulated backend (SimpleDB items, S3 keys):
/// using one shared implementation keeps shard layouts comparable across
/// services and experiments.
pub fn fnv1a_64(s: &str) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(s.as_bytes());
    hash.finish()
}

/// The streaming form of [`fnv1a_64`]: feed the input in any number of
/// pieces and the result equals hashing their concatenation, so a
/// caller folding a large structure (a whole store's fingerprint) never
/// has to materialise it as one string first.
#[derive(Copy, Clone, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of the empty input.
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the running hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// A word-at-a-time 64-bit hash for digests of stored state: eight bytes
/// a step, each folded in by one 64 × 64 → 128-bit multiply, then a
/// final avalanche, so every output bit depends on every input bit.
/// Stable across runs and platforms (words are read little-endian).
/// A store digest hashes a key's old and new state on every write, where
/// byte-serial [`Fnv1a`] would pay a multiply per byte.
#[derive(Copy, Clone, Debug)]
pub struct WordHash(u64);

impl WordHash {
    /// The hash of the empty input.
    pub const fn new() -> WordHash {
        WordHash(0x243f_6a88_85a3_08d3)
    }

    /// Folds one word into the running hash.
    pub fn word(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(0x9e37_79b9_7f4a_7c15_u64);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    /// Folds `bytes` in, a word at a time, then their length, so that
    /// consecutive writes delimit each other: `"ab", "c"` and `"a",
    /// "bc"` hash apart.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.word(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
        self.word(bytes.len() as u64);
    }

    /// The hash of everything written so far.
    pub const fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Default for WordHash {
    fn default() -> WordHash {
        WordHash::new()
    }
}

/// One SplitMix64 step: advances `state` by the golden gamma and
/// returns the mixed output. Deterministic and seed-stable across runs
/// and platforms — the single implementation behind every synthetic
/// stream in the workspace (blob contents, trace sizes, Zipf draws),
/// so the generators can never drift apart.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a/64 test vectors.
        assert_eq!(fnv1a_64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64("foobar"), 0x85944171f73967e8);
    }

    proptest::proptest! {
        #[test]
        fn streaming_in_arbitrary_pieces_equals_one_shot(
            bytes in proptest::collection::vec(0u8..128, 0..200),
            cuts in proptest::collection::vec(0usize..200, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut hash = Fnv1a::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                hash.write(&bytes[from..cut]);
                from = cut;
            }
            let text = String::from_utf8(bytes).expect("ASCII");
            proptest::prop_assert_eq!(hash.finish(), fnv1a_64(&text));
        }
    }

    #[test]
    fn word_hash_delimits_writes_and_is_pinned() {
        let hash = |parts: &[&str]| {
            let mut hash = WordHash::new();
            parts.iter().for_each(|p| hash.write(p.as_bytes()));
            hash.finish()
        };
        assert_ne!(hash(&["ab", "c"]), hash(&["a", "bc"]));
        assert_ne!(hash(&["abc"]), hash(&["abc", ""]));
        assert_ne!(hash(&["a\0"]), hash(&["a"]), "padding is not content");
        assert_ne!(hash(&["12345678"]), hash(&["12345678", "9"]));
        // Digests are compared across runs and platforms: pin the output.
        assert_eq!(hash(&[]), 0xe9e0_033e_3bad_af36);
        assert_eq!(hash(&["provenance", "fingerprint"]), 0xc00f_f4c9_be32_641a);
    }

    #[test]
    fn splitmix64_reference_stream() {
        // Reference output for seed 0 (Vigna's SplitMix64 test vector):
        // pins the stream so every synthetic generator in the workspace
        // stays reproducible across refactors.
        let mut state = 0u64;
        assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut state), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut state), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn spreads_consecutive_keys() {
        // Consecutive names must not clump on one shard.
        let shards = 16u64;
        let mut hit = [false; 16];
        for i in 0..64 {
            hit[(fnv1a_64(&format!("key{i:04}")) % shards) as usize] = true;
        }
        assert!(hit.iter().filter(|h| **h).count() >= 12);
    }
}
