//! Data model: items described by multi-valued attribute pairs.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

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

/// One attribute name-value pair as returned by reads.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Attribute value.
    pub value: String,
}

impl Attribute {
    /// Builds a pair.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Attribute {
        Attribute {
            name: name.into(),
            value: value.into(),
        }
    }
}

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

/// The stored state of one item: name → set of values.
///
/// SimpleDB attributes are multi-valued; the pair set per name is
/// unordered and duplicate-free, which is what makes `PutAttributes`
/// idempotent (§2.2 of the paper).
pub type ItemState = BTreeMap<String, BTreeSet<String>>;

/// Total name-value pairs in an item.
pub fn pair_count(item: &ItemState) -> usize {
    item.values().map(BTreeSet::len).sum()
}

/// Serialized size of an item in bytes (names + values), used for
/// storage accounting.
pub fn byte_size(item: &ItemState) -> u64 {
    item.iter()
        .map(|(name, values)| {
            values
                .iter()
                .map(|v| (name.len() + v.len()) as u64)
                .sum::<u64>()
        })
        .sum()
}

/// Flattens an item into `Attribute` pairs in name order.
pub fn to_attributes(item: &ItemState) -> Vec<Attribute> {
    attributes_where(item, |_| true)
}

/// [`to_attributes`] restricted to the attribute names `keep` accepts;
/// pairs it rejects are never cloned.
pub(crate) fn attributes_where(item: &ItemState, keep: impl Fn(&str) -> bool) -> Vec<Attribute> {
    item.iter()
        .filter(|(name, _)| keep(name))
        .flat_map(|(name, values)| {
            values
                .iter()
                .map(move |v| Attribute::new(name.clone(), v.clone()))
        })
        .collect()
}

/// The values an item carries for `attr` — what the store's attribute
/// postings are built from ([`simworld::ValuesOf`]).
pub(crate) fn values_of<'a>(item: &'a ItemState, attr: &str) -> Option<&'a BTreeSet<String>> {
    item.get(attr)
}

#[cfg(test)]
mod tests {
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
    fn pair_count_and_size_sum_over_values() {
        let mut item = ItemState::new();
        item.entry("phone".into())
            .or_default()
            .extend(["111".to_string(), "222".to_string()]);
        item.entry("name".into())
            .or_default()
            .insert("bob".to_string());
        assert_eq!(pair_count(&item), 3);
        assert_eq!(byte_size(&item), (5 + 3) + (5 + 3) + (4 + 3));
    }

    #[test]
    fn to_attributes_flattens_in_order() {
        let mut item = ItemState::new();
        item.entry("b".into()).or_default().insert("2".to_string());
        item.entry("a".into()).or_default().insert("1".to_string());
        let attrs = to_attributes(&item);
        assert_eq!(
            attrs,
            vec![Attribute::new("a", "1"), Attribute::new("b", "2")]
        );
    }
}
