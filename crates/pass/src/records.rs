//! Provenance records and their attribute-value serialisation.
//!
//! PASS expresses provenance as key/value records attached to an object
//! version: `(input, bar:2)` — this object was derived from version 2 of
//! `bar`; `(type, file)`; `(argv, ...)`; and so on. All three cloud
//! architectures ultimately serialise records to string pairs (S3
//! metadata or SimpleDB attributes), so the pair form defined here is the
//! lingua franca of the workspace.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::model::ObjectRef;

/// The key of a provenance record.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum RecordKey {
    /// Ancestor dependency: the value is an [`ObjectRef`].
    Input,
    /// Object type (`file` / `process`).
    Type,
    /// Human name (path or executable).
    Name,
    /// Process argument vector.
    Argv,
    /// Process environment.
    Env,
    /// The process that forked this process; the value is an
    /// [`ObjectRef`].
    ForkParent,
    /// Anything else (PASS allows application-defined records).
    Custom(String),
}

impl RecordKey {
    /// The attribute name used on the wire.
    pub fn attr_name(&self) -> &str {
        match self {
            RecordKey::Input => "input",
            RecordKey::Type => "type",
            RecordKey::Name => "name",
            RecordKey::Argv => "argv",
            RecordKey::Env => "env",
            RecordKey::ForkParent => "forkparent",
            RecordKey::Custom(s) => s,
        }
    }

    /// Parses an attribute name back into a key.
    pub fn from_attr_name(s: &str) -> RecordKey {
        match s {
            "input" => RecordKey::Input,
            "type" => RecordKey::Type,
            "name" => RecordKey::Name,
            "argv" => RecordKey::Argv,
            "env" => RecordKey::Env,
            "forkparent" => RecordKey::ForkParent,
            other => RecordKey::Custom(other.to_string()),
        }
    }

    /// `true` when values under this key reference ancestor object
    /// versions (and therefore participate in causal-ordering checks and
    /// ancestry queries).
    pub fn is_reference(&self) -> bool {
        matches!(self, RecordKey::Input | RecordKey::ForkParent)
    }
}

impl fmt::Display for RecordKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.attr_name())
    }
}

/// The value of a provenance record.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum RecordValue {
    /// A reference to an ancestor object version.
    Ref(ObjectRef),
    /// Free-form text (possibly large: environments routinely exceed the
    /// 1 KB SimpleDB value limit, which is what forces overflow objects).
    Text(String),
}

impl RecordValue {
    /// Renders the wire form.
    pub fn render(&self) -> String {
        match self {
            RecordValue::Ref(r) => r.render(),
            RecordValue::Text(t) => t.clone(),
        }
    }

    /// Size of the wire form in bytes.
    pub fn byte_len(&self) -> usize {
        match self {
            RecordValue::Ref(r) => r.render().len(),
            RecordValue::Text(t) => t.len(),
        }
    }
}

impl fmt::Display for RecordValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// One provenance record: `(key, value)`.
///
/// # Examples
///
/// ```
/// use pass::{ObjectRef, ProvenanceRecord, RecordKey, RecordValue};
///
/// let dep = ProvenanceRecord::input(ObjectRef::new("bar", 2));
/// assert_eq!(dep.to_pair(), ("input".to_string(), "bar:2".to_string()));
///
/// let parsed = ProvenanceRecord::from_pair("input", "bar:2");
/// assert_eq!(parsed, dep);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ProvenanceRecord {
    /// Record key.
    pub key: RecordKey,
    /// Record value.
    pub value: RecordValue,
}

impl ProvenanceRecord {
    /// Builds a record.
    pub fn new(key: RecordKey, value: RecordValue) -> ProvenanceRecord {
        ProvenanceRecord { key, value }
    }

    /// An `(input, ancestor)` dependency record.
    pub fn input(ancestor: ObjectRef) -> ProvenanceRecord {
        ProvenanceRecord::new(RecordKey::Input, RecordValue::Ref(ancestor))
    }

    /// A `(type, ...)` record.
    pub fn of_type(type_value: &str) -> ProvenanceRecord {
        ProvenanceRecord::new(RecordKey::Type, RecordValue::Text(type_value.to_string()))
    }

    /// A `(name, ...)` record.
    pub fn named(name: impl Into<String>) -> ProvenanceRecord {
        ProvenanceRecord::new(RecordKey::Name, RecordValue::Text(name.into()))
    }

    /// Serialises to an attribute pair.
    pub fn to_pair(&self) -> (String, String) {
        (self.key.attr_name().to_string(), self.value.render())
    }

    /// Parses a record from an attribute pair. Values under reference
    /// keys that parse as `name:version` become [`RecordValue::Ref`];
    /// everything else is text, and an owned `String` value becomes that
    /// text without a copy.
    pub fn from_pair(name: &str, value: impl AsRef<str> + Into<String>) -> ProvenanceRecord {
        let key = RecordKey::from_attr_name(name);
        let reference = key.is_reference().then(|| ObjectRef::parse(value.as_ref()));
        let value = match reference.flatten() {
            Some(r) => RecordValue::Ref(r),
            None => RecordValue::Text(value.into()),
        };
        ProvenanceRecord { key, value }
    }

    /// The ancestor this record references, if it is a dependency record.
    pub fn reference(&self) -> Option<&ObjectRef> {
        match (&self.key, &self.value) {
            (k, RecordValue::Ref(r)) if k.is_reference() => Some(r),
            _ => None,
        }
    }

    /// Wire size: key bytes + value bytes.
    pub fn byte_len(&self) -> usize {
        self.key.attr_name().len() + self.value.byte_len()
    }
}

impl fmt::Display for ProvenanceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.key, self.value)
    }
}

/// Extracts every ancestor reference from a record set.
pub fn references(records: &[ProvenanceRecord]) -> Vec<&ObjectRef> {
    records
        .iter()
        .filter_map(ProvenanceRecord::reference)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_round_trip_for_all_keys() {
        let records = vec![
            ProvenanceRecord::input(ObjectRef::new("bar", 2)),
            ProvenanceRecord::of_type("file"),
            ProvenanceRecord::named("/out/x"),
            ProvenanceRecord::new(RecordKey::Argv, RecordValue::Text("cc -O2".into())),
            ProvenanceRecord::new(RecordKey::Env, RecordValue::Text("PATH=/bin".into())),
            ProvenanceRecord::new(
                RecordKey::ForkParent,
                RecordValue::Ref(ObjectRef::new("proc:1:make", 1)),
            ),
            ProvenanceRecord::new(
                RecordKey::Custom("kernel".into()),
                RecordValue::Text("2.6".into()),
            ),
        ];
        for r in records {
            let (k, v) = r.to_pair();
            assert_eq!(ProvenanceRecord::from_pair(&k, &v), r, "round trip for {k}");
        }
    }

    #[test]
    fn reference_extraction() {
        let dep = ProvenanceRecord::input(ObjectRef::new("a", 1));
        assert_eq!(dep.reference(), Some(&ObjectRef::new("a", 1)));
        let txt = ProvenanceRecord::of_type("file");
        assert_eq!(txt.reference(), None);
        // A non-reference key holding something colon-shaped stays text.
        let tricky = ProvenanceRecord::from_pair("name", "a:1");
        assert_eq!(tricky.reference(), None);
    }

    #[test]
    fn unparseable_input_value_degrades_to_text() {
        let r = ProvenanceRecord::from_pair("input", "not-a-ref");
        assert_eq!(r.value, RecordValue::Text("not-a-ref".into()));
        assert_eq!(r.reference(), None);
    }

    #[test]
    fn byte_len_counts_key_and_value() {
        let r = ProvenanceRecord::input(ObjectRef::new("bar", 2));
        assert_eq!(r.byte_len(), "input".len() + "bar:2".len());
    }

    #[test]
    fn references_helper_collects_all() {
        let records = vec![
            ProvenanceRecord::input(ObjectRef::new("a", 1)),
            ProvenanceRecord::of_type("file"),
            ProvenanceRecord::input(ObjectRef::new("b", 3)),
        ];
        let refs = references(&records);
        assert_eq!(refs.len(), 2);
    }

    #[test]
    fn display_forms() {
        let r = ProvenanceRecord::input(ObjectRef::new("bar", 2));
        assert_eq!(r.to_string(), "(input, bar:2)");
    }
}
