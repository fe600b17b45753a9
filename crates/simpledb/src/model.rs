//! Data model: items described by multi-valued attribute pairs.

use serde::{Deserialize, Serialize};
use simworld::{Pair, PairSet, Pairs, WordHash};

use crate::error::{Result, SdbError};

/// SimpleDB's limit on attribute name and value length, in bytes.
pub const ATTR_LIMIT: usize = 1024;

/// SimpleDB's limit on item name length, in bytes.
pub const ITEM_NAME_LIMIT: usize = 1024;

/// Maximum attribute name-value pairs per item.
pub const MAX_PAIRS_PER_ITEM: usize = 256;

/// Maximum attributes per `PutAttributes` call.
pub const MAX_ATTRS_PER_CALL: usize = 100;

/// Maximum domains per account (2009 default).
pub const MAX_DOMAINS: usize = 100;

/// One attribute in a `PutAttributes` call: the `replace` flag decides
/// whether existing values of the name are dropped first.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ReplaceableAttribute {
    /// Attribute name.
    pub name: String,
    /// Attribute value.
    pub value: String,
    /// `true`: drop all current values of `name` before adding;
    /// `false`: add this value alongside existing ones.
    pub replace: bool,
}

impl ReplaceableAttribute {
    /// An additive attribute (`replace = false`).
    pub fn add(name: impl Into<String>, value: impl Into<String>) -> ReplaceableAttribute {
        ReplaceableAttribute {
            name: name.into(),
            value: value.into(),
            replace: false,
        }
    }

    /// A replacing attribute (`replace = true`).
    pub fn replace(name: impl Into<String>, value: impl Into<String>) -> ReplaceableAttribute {
        ReplaceableAttribute {
            name: name.into(),
            value: value.into(),
            replace: true,
        }
    }

    /// Validates the 1 KB name/value limits.
    ///
    /// # Errors
    ///
    /// [`SdbError::AttributeNameTooLong`] or
    /// [`SdbError::AttributeValueTooLong`].
    pub fn check_limits(&self) -> Result<()> {
        if self.name.len() > ATTR_LIMIT {
            return Err(SdbError::AttributeNameTooLong {
                length: self.name.len(),
            });
        }
        if self.value.len() > ATTR_LIMIT {
            return Err(SdbError::AttributeValueTooLong {
                length: self.value.len(),
            });
        }
        Ok(())
    }
}

/// One attribute to remove in a `DeleteAttributes` call.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DeletableAttribute {
    /// Attribute name.
    pub name: String,
    /// `Some(v)`: delete only the pair `(name, v)`;
    /// `None`: delete every value of `name`.
    pub value: Option<String>,
}

impl DeletableAttribute {
    /// Deletes every value of `name`.
    pub fn all_of(name: impl Into<String>) -> DeletableAttribute {
        DeletableAttribute {
            name: name.into(),
            value: None,
        }
    }

    /// Deletes one `(name, value)` pair.
    pub fn pair(name: impl Into<String>, value: impl Into<String>) -> DeletableAttribute {
        DeletableAttribute {
            name: name.into(),
            value: Some(value.into()),
        }
    }
}

/// The stored state of one item: its attribute name–value pairs.
///
/// SimpleDB attributes are multi-valued; the pair set is unordered and
/// duplicate-free, which is what makes `PutAttributes` idempotent (§2.2
/// of the paper). It is held as one [`PairSet`]: the pairs sorted by
/// name, then value, every name and value packed back to back in one
/// text with a table of where each ends, sized to exactly the pairs it
/// holds — two heap blocks, however many pairs. The values of a name are
/// one run of it. The set is shared: every read hands out the stored
/// item itself (a clone is two reference-count bumps), and a write
/// builds a new set rather than editing one a reader may hold.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ItemState {
    pairs: PairSet,
}

impl ItemState {
    /// An item holding `pairs`, each once.
    pub fn from_pairs<N, V>(pairs: impl IntoIterator<Item = (N, V)>) -> ItemState
    where
        N: AsRef<str>,
        V: AsRef<str>,
    {
        let owned: Vec<(N, V)> = pairs.into_iter().collect();
        let mut pairs: Vec<Pair<'_>> = owned
            .iter()
            .map(|(n, v)| Pair {
                name: n.as_ref(),
                value: v.as_ref(),
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        ItemState {
            pairs: PairSet::from_sorted(pairs.into_iter()),
        }
    }

    /// The pairs named `attr`, values ascending; empty when the item
    /// carries none. This is the [`simworld::ValuesOf`] the store's
    /// attribute postings are built from.
    pub fn get(&self, attr: &str) -> Pairs<'_> {
        self.pairs.named(attr)
    }

    /// The domain's [`simworld::DigestOf`]: the item's name, then its
    /// packed pairs ([`PairSet::hash_into`]).
    pub(crate) fn digest(name: &str, item: &ItemState) -> u64 {
        let mut hash = WordHash::new();
        hash.write(name.as_bytes());
        item.pairs.hash_into(&mut hash);
        hash.finish()
    }

    /// `true` when the item carries a pair named `attr`.
    pub fn contains_key(&self, attr: &str) -> bool {
        !self.get(attr).is_empty()
    }

    /// Every pair, by name, then value.
    pub fn iter(&self) -> Pairs<'_> {
        self.pairs.iter()
    }

    /// Name-value pairs in the item.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when the item carries no pair.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The pairs `keep` accepts: this same shared item when it accepts
    /// every pair, otherwise a new item holding only those.
    pub(crate) fn only(&self, keep: impl Fn(Pair<'_>) -> bool) -> ItemState {
        let kept = self.iter().filter(|&p| keep(p));
        if kept.clone().count() == self.len() {
            return self.clone();
        }
        ItemState {
            pairs: PairSet::from_sorted(kept),
        }
    }

    /// Applies one `PutAttributes` attribute list: the replace-once rule
    /// (existing values of a `replace`d name drop once per call, before
    /// any of this call's values land), then the 256-pair item cap. The
    /// new set is laid out as borrows first, then packed once, at the
    /// size the call leaves.
    ///
    /// # Errors
    ///
    /// The pair count the call would leave, when over
    /// [`MAX_PAIRS_PER_ITEM`]; the item is unchanged.
    pub(crate) fn put(&mut self, attrs: &[ReplaceableAttribute]) -> std::result::Result<(), usize> {
        let replace = attrs.iter().filter(|a| a.replace);
        let replaced: Vec<&str> = replace.map(|a| a.name.as_str()).collect();
        let replaced = |name: &str| replaced.contains(&name);
        let dropped = self.iter().filter(|p| replaced(p.name)).count();
        let kept = self.len() - dropped;
        // What the call adds: its pairs, each once, that the item will
        // not still be carrying when they land.
        let mut laid: Vec<Pair<'_>> = Vec::with_capacity(kept + attrs.len());
        let pairs = attrs.iter().map(|a| Pair {
            name: &a.name,
            value: &a.value,
        });
        laid.extend(pairs.filter(|&p| replaced(p.name) || !self.pairs.contains(p)));
        laid.sort_unstable();
        laid.dedup();
        let added = laid.len();
        if kept + added > MAX_PAIRS_PER_ITEM {
            return Err(kept + added);
        }
        if dropped + added > 0 {
            laid.extend(self.iter().filter(|p| !replaced(p.name)));
            laid.sort_unstable();
            self.pairs = PairSet::from_sorted(laid.into_iter());
        }
        Ok(())
    }

    /// Applies `DeleteAttributes` specs; pairs the item does not carry
    /// are passed over.
    pub(crate) fn delete(&mut self, specs: &[DeletableAttribute]) {
        *self = self.only(|p| {
            let names = |s: &&DeletableAttribute| s.name == p.name;
            let mut named = specs.iter().filter(names);
            !named.any(|s| s.value.as_deref().is_none_or(|v| v == p.value))
        });
    }
}

/// Serialized size of an item in bytes (names + values), used for
/// storage accounting and for billing the pairs a read returns.
pub fn byte_size(item: &ItemState) -> u64 {
    item.pairs.text_len() as u64
}

/// Every pair of `item` as borrowed `(name, value)`, in order: an answer
/// in the shape a literal is written in.
pub fn pairs(item: &ItemState) -> Vec<(&str, &str)> {
    item.iter().map(|p| (p.name, p.value)).collect()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn replaceable_limits_enforced() {
        assert!(ReplaceableAttribute::add("a", "b").check_limits().is_ok());
        let long = "x".repeat(1025);
        assert!(matches!(
            ReplaceableAttribute::add(long.clone(), "v").check_limits(),
            Err(SdbError::AttributeNameTooLong { length: 1025 })
        ));
        assert!(matches!(
            ReplaceableAttribute::add("n", long).check_limits(),
            Err(SdbError::AttributeValueTooLong { length: 1025 })
        ));
    }

    #[test]
    fn exactly_1kb_is_allowed() {
        let edge = "x".repeat(1024);
        assert!(ReplaceableAttribute::add(edge.clone(), edge)
            .check_limits()
            .is_ok());
    }

    #[test]
    fn len_and_size_sum_over_values() {
        let item = ItemState::from_pairs([("phone", "111"), ("phone", "222"), ("name", "bob")]);
        assert_eq!(item.len(), 3);
        assert_eq!(byte_size(&item), (5 + 3) + (5 + 3) + (4 + 3));
    }

    #[test]
    fn pairs_flatten_in_order() {
        let item = ItemState::from_pairs([("b", "2"), ("a", "1"), ("b", "2")]);
        assert_eq!(pairs(&item), vec![("a", "1"), ("b", "2")]);
    }

    // --- a plain set of owned pairs, the oracle of the packed set ---

    type Model = BTreeSet<(String, String)>;

    /// `PutAttributes` on the set of pairs: the replaced names drop once,
    /// then every pair lands, then the cap is checked.
    fn model_put(
        model: &mut Model,
        attrs: &[ReplaceableAttribute],
    ) -> std::result::Result<(), usize> {
        let mut next = model.clone();
        let replaced: Vec<&str> = attrs
            .iter()
            .filter(|a| a.replace)
            .map(|a| a.name.as_str())
            .collect();
        next.retain(|(n, _)| !replaced.contains(&n.as_str()));
        next.extend(attrs.iter().map(|a| (a.name.clone(), a.value.clone())));
        if next.len() > MAX_PAIRS_PER_ITEM {
            return Err(next.len());
        }
        *model = next;
        Ok(())
    }

    /// `DeleteAttributes` on the set of pairs.
    fn model_delete(model: &mut Model, specs: &[DeletableAttribute]) {
        model.retain(|(n, v)| {
            let named = specs.iter().filter(|s| s.name == *n);
            !named
                .clone()
                .any(|s| s.value.as_ref().is_none_or(|sv| sv == v))
        });
    }

    /// Names that are prefixes of each other, an empty one, non-ASCII
    /// ones sorting after every ASCII one.
    const NAMES: &[&str] = &["a", "a1", "ab", "b", "", "é", "éa", "名"];
    const VALUES: &[&str] = &["", "1", "10", "2", "x", "xy", "é", "値"];

    fn check(item: &ItemState, model: &Model) -> std::result::Result<(), TestCaseError> {
        let flat = || model.iter().map(|(n, v)| (n.as_str(), v.as_str()));
        prop_assert_eq!(pairs(item), flat().collect::<Vec<_>>());
        prop_assert_eq!(item, &ItemState::from_pairs(flat()));
        prop_assert_eq!(item.is_empty(), model.is_empty());
        prop_assert_eq!((item.len(), item.iter().len()), (model.len(), model.len()));
        let bytes = flat().map(|(n, v)| (n.len() + v.len()) as u64);
        prop_assert_eq!(byte_size(item), bytes.sum::<u64>());
        for name in NAMES.iter().copied().chain(["a\0", "a0", "c", "z"]) {
            let run = item.get(name);
            let values: Vec<&str> = run.map(|p| p.value).collect();
            let expected = flat().filter(|(n, _)| *n == name).map(|(_, v)| v);
            prop_assert_eq!(values, expected.collect::<Vec<_>>());
            prop_assert!(item.get(name).all(|p| p.name == name));
            prop_assert_eq!(run.len(), run.count());
            prop_assert_eq!(item.contains_key(name), flat().any(|(n, _)| n == name));
            for value in VALUES {
                let pair = Pair { name, value };
                let held = model.contains(&(name.to_string(), value.to_string()));
                prop_assert_eq!(item.pairs.contains(pair), held);
            }
        }
        Ok(())
    }

    // Random `from_pairs` (repeated pairs, any order), `put`s (adds and
    // replaces, repeated pairs, many-valued names, enough values to
    // cross the 256-pair cap), `delete`s (a whole name, one pair, pairs
    // and names the item lacks, the whole item) and `only`s leave the
    // packed set holding exactly what the set of owned pairs holds, in
    // its order, through every reader, after every call.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_packed_set_is_a_set_of_pairs(
            ops in proptest::collection::vec(
                (
                    0u8..12,
                    proptest::collection::vec((0usize..8, 0usize..8, 0u8..4), 1..7),
                    (0usize..8, 0usize..300, 0usize..101),
                ),
                1..40,
            ),
        ) {
            let mut item = ItemState::default();
            let mut model = Model::new();
            for (kind, picks, (name, first, count)) in ops {
                match kind {
                    0..=2 => {
                        let attrs: Vec<_> = picks.iter().map(|&(n, v, flags)| ReplaceableAttribute {
                            name: NAMES[n].into(),
                            value: VALUES[v].into(),
                            replace: flags == 0,
                        }).collect();
                        prop_assert_eq!(item.put(&attrs), model_put(&mut model, &attrs));
                    }
                    3..=5 => {
                        // Up to 100 numbered values of one name in one call.
                        let attrs: Vec<_> = (first..first + count).map(|v| ReplaceableAttribute {
                            name: NAMES[name].into(),
                            value: format!("v{v}"),
                            replace: first % 5 == 0,
                        }).collect();
                        prop_assert_eq!(item.put(&attrs), model_put(&mut model, &attrs));
                    }
                    6..=8 => {
                        let specs: Vec<_> = picks.iter().map(|&(n, v, flags)| match flags {
                            0 => DeletableAttribute::all_of(NAMES[n]),
                            1 => DeletableAttribute::pair(NAMES[n], format!("v{}", first + v)),
                            _ => DeletableAttribute::pair(NAMES[n], VALUES[v]),
                        }).collect();
                        item.delete(&specs);
                        model_delete(&mut model, &specs);
                    }
                    9 => {
                        // Keep the names picked.
                        let kept = |n: &str| picks.iter().any(|&(k, _, _)| NAMES[k] == n);
                        item = item.only(|p| kept(p.name));
                        model.retain(|(n, _)| kept(n));
                    }
                    10 => {
                        let pairs = picks.iter().map(|&(n, v, _)| (NAMES[n], VALUES[v]));
                        item = ItemState::from_pairs(pairs.clone());
                        model = pairs.map(|(n, v)| (n.to_string(), v.to_string())).collect();
                    }
                    _ => {
                        // `DeleteAttributes` without specs erases the item.
                        item = ItemState::default();
                        model.clear();
                    }
                }
                check(&item, &model)?;
            }
        }
    }

    // `only` keeps exactly what a plain filter keeps, in order; it hands
    // back the very set it was called on when `keep` accepts every
    // pair, and a new one otherwise.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn only_is_a_filter_that_shares_when_it_keeps_everything(
            picks in proptest::collection::vec((0usize..8, 0usize..8), 0..24),
            kept_names in proptest::collection::vec(any::<bool>(), 8..9),
        ) {
            let item = ItemState::from_pairs(picks.iter().map(|&(n, v)| (NAMES[n], VALUES[v])));
            let keep = |p: Pair| NAMES.iter().position(|n| *n == p.name).is_some_and(|i| kept_names[i]);
            let only = item.only(keep);
            let filtered: Vec<(&str, &str)> =
                pairs(&item).into_iter().filter(|&(name, value)| keep(Pair { name, value })).collect();
            prop_assert_eq!(pairs(&only), filtered);
            let everything = item.iter().all(keep);
            prop_assert_eq!(only.pairs.shares(&item.pairs), everything);
            let all = item.only(|_| true);
            prop_assert!(all.pairs.shares(&item.pairs));
        }
    }
}
