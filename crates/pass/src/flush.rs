//! The unit of persistence: one object version plus its provenance.
//!
//! PASS ships an object to the storage backend when the application
//! closes it (§4.1 of the paper: "When the application issues a close on
//! a file, we send both the file and its provenance"). A [`FileFlush`]
//! is exactly that bundle — for files it carries data and records, for
//! transient processes records only.
//!
//! It is also the local cache the cloud protocols start from. The paper's
//! client keeps "the data file and its provenance in a local cache
//! directory", the provenance "in a file hidden from the user" (§4.1),
//! and every protocol's step 1 reads those two files: here `data` is the
//! one, `records` the other, and the caller that holds the flush holds
//! the cache. No store keeps a second copy — a client restarted after a
//! crash re-flushes by handing the same `FileFlush` to `persist` again.

use serde::{Deserialize, Serialize};
use simworld::Blob;

use crate::model::{ObjectKind, ObjectRef};
use crate::records::{ProvenanceRecord, RecordKey, RecordValue};

/// One object version ready to be persisted, with its provenance.
///
/// # Examples
///
/// ```
/// use pass::FileFlush;
/// use simworld::Blob;
///
/// let flush = FileFlush::builder("results/out.csv")
///     .version(2)
///     .data(Blob::from("a,b\n"))
///     .record("input", "blast:1")
///     .record("type", "file")
///     .build();
/// assert_eq!(flush.object.render(), "results/out.csv:2");
/// assert_eq!(flush.ancestors().len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct FileFlush {
    /// Which object version this is.
    pub object: ObjectRef,
    /// Persistent or transient.
    pub kind: ObjectKind,
    /// File content (empty for processes).
    pub data: Blob,
    /// The version's provenance records.
    pub records: Vec<ProvenanceRecord>,
}

impl FileFlush {
    /// Starts building a flush for version 1 of `name`.
    pub fn builder(name: impl Into<String>) -> FileFlushBuilder {
        FileFlushBuilder {
            name: name.into(),
            version: 1,
            kind: ObjectKind::File,
            data: Blob::empty(),
            records: Vec::new(),
        }
    }

    /// All ancestor references in this flush's records.
    pub fn ancestors(&self) -> Vec<&ObjectRef> {
        crate::records::references(&self.records)
    }
}

/// Builder for [`FileFlush`]; see [`FileFlush::builder`].
#[derive(Clone, Debug)]
pub struct FileFlushBuilder {
    name: String,
    version: u32,
    kind: ObjectKind,
    data: Blob,
    records: Vec<ProvenanceRecord>,
}

impl FileFlushBuilder {
    /// Sets the version (default 1).
    pub fn version(mut self, version: u32) -> FileFlushBuilder {
        self.version = version;
        self
    }

    /// Marks the object transient (a process).
    pub fn process(mut self) -> FileFlushBuilder {
        self.kind = ObjectKind::Process;
        self
    }

    /// Sets the file content.
    pub fn data(mut self, data: Blob) -> FileFlushBuilder {
        self.data = data;
        self
    }

    /// Adds a record from its wire pair; `input`/`forkparent` values that
    /// parse as `name:version` become references.
    pub fn record(mut self, key: &str, value: &str) -> FileFlushBuilder {
        self.records.push(ProvenanceRecord::from_pair(key, value));
        self
    }

    /// Adds an already-built record.
    pub fn push(mut self, record: ProvenanceRecord) -> FileFlushBuilder {
        self.records.push(record);
        self
    }

    /// Finishes the flush. A `type` record is added automatically if none
    /// was provided, as PASS always knows the object type.
    pub fn build(mut self) -> FileFlush {
        if !self.records.iter().any(|r| r.key == RecordKey::Type) {
            self.records.push(ProvenanceRecord::new(
                RecordKey::Type,
                RecordValue::Text(self.kind.type_value().to_string()),
            ));
        }
        FileFlush {
            object: ObjectRef::new(self.name, self.version),
            kind: self.kind,
            data: self.data,
            records: self.records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let f = FileFlush::builder("x").build();
        assert_eq!(f.object, ObjectRef::new("x", 1));
        assert_eq!(f.kind, ObjectKind::File);
        assert!(f.data.is_empty());
        // auto type record
        assert_eq!(f.records.len(), 1);
        assert_eq!(f.records[0].to_pair(), ("type".into(), "file".into()));
    }

    #[test]
    fn builder_process_kind() {
        let f = FileFlush::builder("proc:1:make").process().build();
        assert_eq!(f.kind, ObjectKind::Process);
        assert_eq!(f.records[0].to_pair().1, "process");
    }

    #[test]
    fn explicit_type_record_not_duplicated() {
        let f = FileFlush::builder("x").record("type", "file").build();
        assert_eq!(
            f.records
                .iter()
                .filter(|r| r.key == RecordKey::Type)
                .count(),
            1
        );
    }

    #[test]
    fn ancestors_come_from_reference_records() {
        let f = FileFlush::builder("out")
            .record("input", "in:1")
            .record("forkparent", "proc:1:sh:1")
            .record("name", "out")
            .build();
        let names: Vec<String> = f.ancestors().iter().map(|r| r.render()).collect();
        assert_eq!(names, vec!["in:1", "proc:1:sh:1"]);
    }
}
