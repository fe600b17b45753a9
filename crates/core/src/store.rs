//! The `ProvenanceStore` abstraction all three architectures implement.

use std::fmt;

use pass::{FileFlush, ObjectRef, ProvenanceRecord};
use serde::{Deserialize, Serialize};
use simworld::Blob;

use crate::error::Result;
use crate::query::{ProvQuery, QueryAnswer};

/// How a read's data/provenance pairing was established.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ReadStatus {
    /// Data and provenance travelled in one unit (Architecture 1's
    /// single PUT); no mismatch is possible.
    AtomicUnit,
    /// `MD5(data ‖ nonce)` matched the provenance record, possibly after
    /// retries (Architectures 2/3).
    VerifiedConsistent {
        /// Re-read rounds needed before the pair matched.
        retries: u32,
    },
    /// Every retry returned mismatched data/provenance; the outcome
    /// carries the last pair read. Consistency is *violated but
    /// detected* — the caller knows not to trust it.
    InconsistencyDetected {
        /// Retries attempted before giving up.
        retries: u32,
    },
}

impl ReadStatus {
    /// `true` unless a detected inconsistency was served.
    pub fn is_consistent(self) -> bool {
        !matches!(self, ReadStatus::InconsistencyDetected { .. })
    }
}

impl fmt::Display for ReadStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadStatus::AtomicUnit => f.write_str("atomic-unit"),
            ReadStatus::VerifiedConsistent { retries } => {
                write!(f, "verified-consistent(retries={retries})")
            }
            ReadStatus::InconsistencyDetected { retries } => {
                write!(f, "inconsistency-detected(retries={retries})")
            }
        }
    }
}

/// The result of reading an object back: data plus the provenance that
/// describes it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReadOutcome {
    /// The object version the store returned.
    pub object: ObjectRef,
    /// The data.
    pub data: Blob,
    /// The provenance records describing this version.
    pub records: Vec<ProvenanceRecord>,
    /// How the pairing was validated.
    pub status: ReadStatus,
}

impl ReadOutcome {
    /// `true` when data and provenance are known to describe the same
    /// version (the paper's read-correctness criterion for reads).
    pub fn consistent(&self) -> bool {
        self.status.is_consistent()
    }
}

/// What a recovery pass found and fixed after a crash.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Provenance items that referenced data never stored ("orphan
    /// provenance", §4.2) — deleted by the scan.
    pub orphan_provenance_removed: u64,
    /// Overflow/temporary objects deleted.
    pub objects_removed: u64,
    /// SimpleDB items scanned (the cost of the "inelegant" full scan).
    pub items_scanned: u64,
    /// Committed WAL transactions replayed to completion.
    pub transactions_replayed: u64,
}

/// A provenance-aware cloud store: one of the paper's three
/// architectures.
///
/// The object-safe core API: persist a PASS flush, read an object with
/// its provenance, run provenance queries, recover after a crash.
pub trait ProvenanceStore {
    /// Short architecture name (`"s3"`, `"s3+simpledb"`,
    /// `"s3+simpledb+sqs"`).
    fn architecture(&self) -> &'static str;

    /// Persists one object version and its provenance (PASS calls this on
    /// `close`) with the paper's *point protocol* — the request sequence
    /// Tables 1–3 count. This and [`ProvenanceStore::persist_batch`] are
    /// the only two write methods; overlap in flight is not a third one
    /// but a region opened around them ([`crate::persist_groups`]).
    ///
    /// # Errors
    ///
    /// Service errors, or [`crate::CloudError::Crashed`] when fault
    /// injection kills the client mid-protocol.
    fn persist(&mut self, flush: &FileFlush) -> Result<()>;

    /// Persists a *group* of flushes in one go — a slice of the flush
    /// stream, as [`crate::persist_groups`] issues it. The final
    /// store state is identical to persisting the flushes one by one in
    /// order; architectures with native batch support override this to
    /// ship the group in far fewer billable requests (arch2 packs up to
    /// 25 provenance items per `BatchPutAttributes`, arch3 packs WAL
    /// records 10 per `SendMessageBatch`). That is a different request
    /// sequence from the point protocol, not a configuration of it, so a
    /// group of one is state-identical to [`ProvenanceStore::persist`]
    /// but not request-identical. The default simply loops over
    /// [`ProvenanceStore::persist`].
    ///
    /// # Errors
    ///
    /// As [`ProvenanceStore::persist`]. On error, flushes earlier in the
    /// group may already be durable (exactly as with sequential point
    /// persists).
    fn persist_batch(&mut self, flushes: &[FileFlush]) -> Result<()> {
        for flush in flushes {
            self.persist(flush)?;
        }
        Ok(())
    }

    /// Reads the current version of `name` together with its provenance,
    /// enforcing whatever consistency story the architecture has.
    ///
    /// # Errors
    ///
    /// [`crate::CloudError::NotFound`] when the object has no data
    /// stored; service errors.
    fn read(&self, name: &str) -> Result<ReadOutcome>;

    /// Executes a provenance query with the architecture's query engine.
    ///
    /// # Errors
    ///
    /// Service errors.
    fn query(&self, query: &ProvQuery) -> Result<QueryAnswer>;

    /// Post-crash recovery: whatever the architecture prescribes (orphan
    /// scan for Architecture 2, WAL replay + temp cleanup for
    /// Architecture 3, nothing for Architecture 1).
    ///
    /// # Errors
    ///
    /// Service errors.
    fn recover(&mut self) -> Result<RecoveryReport>;

    /// Drives any background daemons until quiescent. A no-op for
    /// architectures without daemons. Architecture 3's commit daemon
    /// honours [`crate::Arch3Config::daemon_depth`] here: with
    /// `Some(n)` each step runs its receive/assemble/apply loop inside
    /// a pipelined region `n` deep, overlapping WAL drains and
    /// per-transaction applies instead of paying the serial latency sum;
    /// `None` is the paper's serial daemon.
    ///
    /// # Errors
    ///
    /// Service errors, or a crash if one is armed inside a daemon.
    fn run_daemons_until_idle(&mut self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_status_consistency() {
        assert!(ReadStatus::AtomicUnit.is_consistent());
        assert!(ReadStatus::VerifiedConsistent { retries: 3 }.is_consistent());
        assert!(!ReadStatus::InconsistencyDetected { retries: 8 }.is_consistent());
    }

    #[test]
    fn read_status_display() {
        assert_eq!(ReadStatus::AtomicUnit.to_string(), "atomic-unit");
        assert_eq!(
            ReadStatus::VerifiedConsistent { retries: 2 }.to_string(),
            "verified-consistent(retries=2)"
        );
    }

    #[test]
    fn recovery_report_default_is_clean() {
        let r = RecoveryReport::default();
        assert_eq!(r.orphan_provenance_removed, 0);
        assert_eq!(r.transactions_replayed, 0);
    }
}
