//! Object identities and versions.
//!
//! PASS names every persistent object (file) and transient object
//! (process, pipe) and versions each one to preserve causality: if
//! version 2 of `foo` was derived from version 2 of `bar`, the provenance
//! record says `(input, bar:2)` — referencing the *version*, not just the
//! name, so later changes to `bar` cannot corrupt `foo`'s history.

use std::fmt::{self, Write};

use serde::{Deserialize, Serialize};

/// A reference to one version of one object — the paper's `bar:2`
/// notation.
///
/// # Examples
///
/// ```
/// use pass::ObjectRef;
///
/// let r = ObjectRef::new("results/out.csv", 2);
/// assert_eq!(r.render(), "results/out.csv:2");
/// assert_eq!(ObjectRef::parse("results/out.csv:2"), Some(r));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ObjectRef {
    /// Object name: a file path, or `proc:<pid>:<exe>` for processes.
    pub name: String,
    /// Version number, starting at 1.
    pub version: u32,
}

impl ObjectRef {
    /// Builds a reference.
    pub fn new(name: impl Into<String>, version: u32) -> ObjectRef {
        ObjectRef {
            name: name.into(),
            version,
        }
    }

    /// Renders as `name:version`.
    pub fn render(&self) -> String {
        self.joined(':')
    }

    /// Parses `name:version`, splitting at the *last* colon (names may
    /// contain colons, e.g. `proc:42:cc`). Returns `None` when the tail
    /// is not a number.
    pub fn parse(s: &str) -> Option<ObjectRef> {
        let (name, version) = s.rsplit_once(':')?;
        let version = version.parse().ok()?;
        if name.is_empty() {
            return None;
        }
        Some(ObjectRef {
            name: name.to_string(),
            version,
        })
    }

    /// The SimpleDB item name for this object version: the paper
    /// concatenates name and version (its example is `ItemName=foo 2`).
    pub fn item_name(&self) -> String {
        self.joined(' ')
    }

    /// `name`, `sep`, `version`, written into one buffer with room for
    /// any version (ten digits).
    fn joined(&self, sep: char) -> String {
        let mut out = String::with_capacity(self.name.len() + 11);
        write!(out, "{}{sep}{}", self.name, self.version).expect("writing to a String cannot fail");
        out
    }

    /// Parses an item name back (inverse of [`ObjectRef::item_name`]).
    pub fn parse_item_name(s: &str) -> Option<ObjectRef> {
        let (name, version) = s.rsplit_once(' ')?;
        let version = version.parse().ok()?;
        if name.is_empty() {
            return None;
        }
        Some(ObjectRef {
            name: name.to_string(),
            version,
        })
    }
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.name, self.version)
    }
}

/// Whether an object is persistent or transient — PASS records
/// provenance for both (§2.4).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ObjectKind {
    /// A persistent file.
    File,
    /// A transient process. Its "data" is empty; only provenance is
    /// stored.
    Process,
}

impl ObjectKind {
    /// The value of the `type` provenance record.
    pub fn type_value(self) -> &'static str {
        match self {
            ObjectKind::File => "file",
            ObjectKind::Process => "process",
        }
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.type_value())
    }
}

/// Canonical object name for a process.
pub fn process_name(pid: u32, exe: &str) -> String {
    format!("proc:{pid}:{exe}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        for name in ["foo", "a/b/c.txt", "proc:42:cc", "name:with:colons"] {
            let r = ObjectRef::new(name, 7);
            assert_eq!(ObjectRef::parse(&r.render()), Some(r));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(ObjectRef::parse("nocolon"), None);
        assert_eq!(ObjectRef::parse("name:notanumber"), None);
        assert_eq!(ObjectRef::parse(":3"), None);
    }

    #[test]
    fn item_name_round_trip() {
        let r = ObjectRef::new("dir/foo bar.txt", 2);
        assert_eq!(ObjectRef::parse_item_name(&r.item_name()), Some(r));
    }

    #[test]
    fn item_name_matches_paper_example() {
        // §4.2: version 2 of object foo is represented as ItemName=foo 2.
        assert_eq!(ObjectRef::new("foo", 2).item_name(), "foo 2");
    }

    #[test]
    fn kind_type_values() {
        assert_eq!(ObjectKind::File.type_value(), "file");
        assert_eq!(ObjectKind::Process.type_value(), "process");
    }

    #[test]
    fn process_names_embed_pid_and_exe() {
        assert_eq!(process_name(42, "cc"), "proc:42:cc");
    }
}
