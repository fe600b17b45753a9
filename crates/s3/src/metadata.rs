//! S3 user metadata: string pairs capped at 2 KB per object.
//!
//! The 2 KB cap is load-bearing for the paper: it is why Architecture 1
//! must spill large provenance records into separate overflow objects
//! (§4.1), which in turn is what breaks its query story.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use simworld::{Pair, PairSet};

use crate::error::{Result, S3Error};

/// The S3 limit on total user metadata per object, in bytes.
pub const METADATA_LIMIT: u64 = 2048;

/// User metadata attached to an S3 object.
///
/// Size is accounted the way S3 does: the sum of UTF-8 lengths of every
/// key and value. Inserting beyond [`METADATA_LIMIT`] is allowed on the
/// builder-style type itself; the limit is enforced by the service when
/// the object is PUT, so tests can construct oversized metadata to probe
/// the failure path.
///
/// # Examples
///
/// ```
/// use sim_s3::Metadata;
///
/// let mut meta = Metadata::new();
/// meta.insert("x-amz-meta-nonce", "42");
/// assert_eq!(meta.get("x-amz-meta-nonce"), Some("42"));
/// assert_eq!(meta.byte_size(), "x-amz-meta-nonce42".len() as u64);
/// ```
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Metadata {
    /// One pair per key, ascending by key, packed into a [`PairSet`]:
    /// every key and value back to back in one text, with a table of
    /// where each ends — two heap blocks however many pairs, and a clone
    /// shares both. A change builds a new set, once, at exact size.
    entries: PairSet,
}

impl Metadata {
    /// Empty metadata.
    pub fn new() -> Metadata {
        Metadata::default()
    }

    /// Builds metadata from `(key, value)` pairs; a repeated key keeps
    /// its last value, as repeated [`Metadata::insert`]s would. The pairs
    /// are collected once, sorted and packed, not inserted one by one.
    pub fn from_pairs<K, V, I>(pairs: I) -> Metadata
    where
        K: AsRef<str>,
        V: AsRef<str>,
        I: IntoIterator<Item = (K, V)>,
    {
        let mut pairs: Vec<(K, V)> = pairs.into_iter().collect();
        // Stable, so a run of one key stays in insertion order; each run
        // then keeps its last value.
        pairs.sort_by(|(a, _), (b, _)| a.as_ref().cmp(b.as_ref()));
        let runs = pairs.chunk_by(|(a, _), (b, _)| a.as_ref() == b.as_ref());
        let last = runs.map(|run| {
            let (key, value) = run.last().expect("a run holds a pair");
            Pair {
                name: key.as_ref(),
                value: value.as_ref(),
            }
        });
        Metadata {
            entries: PairSet::from_sorted(last),
        }
    }

    /// Inserts or replaces one pair, returning the previous value if any.
    pub fn insert(&mut self, key: impl AsRef<str>, value: impl AsRef<str>) -> Option<String> {
        let (name, value) = (key.as_ref(), value.as_ref());
        let previous = self.get(name).map(str::to_string);
        let held = self.entries.iter();
        let before = held.filter(|p| p.name < name);
        let after = held.filter(|p| p.name > name);
        let entries = before.chain([Pair { name, value }]).chain(after);
        self.entries = PairSet::from_sorted(entries);
        previous
    }

    /// Looks up a value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.named(key).next().map(|p| p.value)
    }

    /// Removes a pair, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<String> {
        let removed = self.get(key)?.to_string();
        let kept = self.entries.iter().filter(|p| p.name != key);
        self.entries = PairSet::from_sorted(kept);
        Some(removed)
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no pairs are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|p| (p.name, p.value))
    }

    /// Total size as S3 accounts it: UTF-8 bytes of all keys and values.
    pub fn byte_size(&self) -> u64 {
        self.entries.text_len() as u64
    }

    /// Enforces the service limit.
    ///
    /// # Errors
    ///
    /// [`S3Error::MetadataTooLarge`] when over [`METADATA_LIMIT`].
    pub fn check_limit(&self) -> Result<()> {
        let size = self.byte_size();
        if size > METADATA_LIMIT {
            return Err(S3Error::MetadataTooLarge {
                size,
                limit: METADATA_LIMIT,
            });
        }
        Ok(())
    }
}

/// Renders the entries as the map they are, whatever holds them:
/// `Metadata { entries: {"k": "v"} }`. Scripted runs digest this text.
impl fmt::Debug for Metadata {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries: BTreeMap<&str, &str> = self.iter().collect();
        f.debug_struct("Metadata")
            .field("entries", &entries)
            .finish()
    }
}

impl fmt::Display for Metadata {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} pairs / {} bytes", self.len(), self.byte_size())
    }
}

impl<K: AsRef<str>, V: AsRef<str>> FromIterator<(K, V)> for Metadata {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Metadata {
        Metadata::from_pairs(iter)
    }
}

impl<K: AsRef<str>, V: AsRef<str>> Extend<(K, V)> for Metadata {
    /// Packs the held pairs and the new ones once; a new pair replaces
    /// a held one of its key, as [`Metadata::insert`] would.
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        let held = std::mem::take(self);
        let added: Vec<(K, V)> = iter.into_iter().collect();
        let added = added.iter().map(|(k, v)| (k.as_ref(), v.as_ref()));
        *self = Metadata::from_pairs(held.iter().chain(added));
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = Metadata::new();
        assert!(m.is_empty());
        assert_eq!(m.insert("a", "1"), None);
        assert_eq!(m.insert("a", "2"), Some("1".to_string()));
        assert_eq!(m.get("a"), Some("2"));
        assert_eq!(m.remove("a"), Some("2".to_string()));
        assert!(m.get("a").is_none());
    }

    #[test]
    fn byte_size_counts_keys_and_values() {
        let m = Metadata::from_pairs([("key", "value"), ("k2", "v2")]);
        assert_eq!(m.byte_size(), (3 + 5 + 2 + 2) as u64);
    }

    #[test]
    fn check_limit_boundary() {
        let mut m = Metadata::new();
        m.insert("k", "v".repeat(2047));
        assert_eq!(m.byte_size(), 2048);
        assert!(m.check_limit().is_ok(), "exactly 2KB is allowed");
        m.insert("x", "");
        assert!(matches!(
            m.check_limit(),
            Err(S3Error::MetadataTooLarge {
                size: 2049,
                limit: 2048
            })
        ));
    }

    #[test]
    fn iteration_is_key_ordered() {
        let m = Metadata::from_pairs([("b", "2"), ("a", "1"), ("c", "3")]);
        let keys: Vec<_> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn from_pairs_equals_inserting_in_order() {
        let pairs = [
            ("b", "1"),
            ("a", "1"),
            ("b", "2"),
            ("c", "1"),
            ("b", "3"),
            ("a", "2"),
        ];
        let mut inserted = Metadata::new();
        for (k, v) in pairs {
            inserted.insert(k, v);
        }
        let built = Metadata::from_pairs(pairs);
        assert_eq!(built, inserted);
        assert_eq!((built.get("a"), built.get("b")), (Some("2"), Some("3")));
    }

    #[test]
    fn debug_renders_a_map() {
        let m = Metadata::from_pairs([("b", "2"), ("a", "1")]);
        assert_eq!(
            format!("{m:?}"),
            r#"Metadata { entries: {"a": "1", "b": "2"} }"#
        );
        assert_eq!(format!("{:?}", Metadata::new()), "Metadata { entries: {} }");
    }

    #[test]
    fn collect_and_extend() {
        let mut m: Metadata = [("a", "1")].into_iter().collect();
        m.extend([("b", "2")]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn multibyte_values_counted_in_utf8_bytes() {
        let m = Metadata::from_pairs([("k", "é")]); // 'é' is 2 bytes
        assert_eq!(m.byte_size(), 3);
    }

    // The map the packed set replaced, kept as its oracle: random
    // `insert`s (new keys and overwrites, keys that are prefixes of each
    // other, an empty one, non-ASCII ones; empty and multi-byte values),
    // `remove`s (present and absent), `extend`s and `from_pairs` (a
    // repeated key keeps its last value) answer alike through every
    // method.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_packed_set_is_the_map(
            ops in proptest::collection::vec(
                (0u8..7, proptest::collection::vec((0usize..8, "[a-cé値]{0,3}"), 1..5)),
                1..40,
            ),
        ) {
            const KEYS: &[&str] = &["k", "ke", "key", "k1", "version", "", "é", "名"];
            let mut meta = Metadata::new();
            let mut model = BTreeMap::<String, String>::new();
            for (kind, picks) in ops {
                let pairs = picks.iter().map(|(k, v)| (KEYS[*k], v.as_str()));
                let owned = pairs.clone().map(|(k, v)| (k.to_string(), v.to_string()));
                match kind {
                    0..=2 => for (k, v) in pairs {
                        prop_assert_eq!(meta.insert(k, v), model.insert(k.into(), v.into()));
                    },
                    3 => for (k, _) in pairs {
                        prop_assert_eq!(meta.remove(k), model.remove(k));
                    },
                    4 => {
                        meta.extend(pairs);
                        model.extend(owned);
                    }
                    5 => {
                        meta = pairs.collect();
                        model = owned.collect();
                    }
                    _ => {
                        meta = Metadata::from_pairs(owned.clone());
                        model = owned.collect();
                    }
                }
                let entries = model.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                prop_assert_eq!(meta.iter().collect::<Vec<_>>(), entries.clone().collect::<Vec<_>>());
                prop_assert_eq!(&meta, &Metadata::from_pairs(entries.clone()));
                prop_assert_eq!((meta.len(), meta.is_empty()), (model.len(), model.is_empty()));
                let bytes = entries.map(|(k, v)| (k.len() + v.len()) as u64);
                prop_assert_eq!(meta.byte_size(), bytes.sum::<u64>());
                for key in KEYS.iter().copied().chain(["j", "k0", "kf", "z"]) {
                    prop_assert_eq!(meta.get(key), model.get(key).map(String::as_str));
                }
            }
        }
    }
}
