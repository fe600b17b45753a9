//! # provenance-cloud — the three architectures of *Making a Cloud
//! Provenance-Aware* (TaPP '09)
//!
//! This crate is the paper's primary contribution, rebuilt as a library:
//! a Provenance-Aware Storage System (PASS, see the [`pass`] crate)
//! extended to use Amazon Web Services as its backend, with three
//! alternative designs for keeping data and provenance together:
//!
//! | Architecture | Paper | How |
//! |---|---|---|
//! | [`StandaloneS3`] | §4.1 | provenance rides as S3 metadata on the data PUT |
//! | [`S3SimpleDb`] | §4.2 | data in S3, indexed provenance in SimpleDB, `MD5(data ‖ nonce)` for consistency |
//! | [`S3SimpleDbSqs`] | §4.3 | like §4.2 plus an SQS write-ahead log and commit daemon for atomicity |
//!
//! All three implement [`ProvenanceStore`]. The paper's evaluation is
//! reproduced by:
//!
//! * [`properties`] — machine-checked versions of the §3 properties
//!   (read correctness = atomicity + consistency, causal ordering,
//!   efficient query), regenerating **Table 1**;
//! * [`ProvQuery`] and its two query paths — Architecture 1's HEAD scan
//!   and the indexed SimpleDB lookups of [`ServeParts::query`], which
//!   Architectures 2 and 3 share — the Q1/Q2/Q3 workloads behind
//!   **Table 3**;
//! * the metering built into the simulated services — the op/byte
//!   accounting behind **Table 2**.
//!
//! # Examples
//!
//! ```
//! use pass::FileFlush;
//! use provenance_cloud::{ProvQuery, ProvenanceStore, S3SimpleDbSqs};
//! use simworld::{Blob, SimWorld};
//!
//! let world = SimWorld::new(42);
//! let mut store = S3SimpleDbSqs::new(&world, "lab-1");
//!
//! // Persist a data set and its derivation.
//! let input = FileFlush::builder("census/raw.csv")
//!     .data(Blob::synthetic(1, 64 * 1024))
//!     .build();
//! let output = FileFlush::builder("census/trends.csv")
//!     .data(Blob::synthetic(2, 8 * 1024))
//!     .record("input", "census/raw.csv:1")
//!     .build();
//! store.persist(&input)?;
//! store.persist(&output)?;
//! store.run_daemons_until_idle()?;
//!
//! // Read with verified consistency, then query ancestry.
//! let read = store.read("census/trends.csv")?;
//! assert!(read.consistent());
//! # Ok::<(), provenance_cloud::CloudError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod arch1;
mod arch2;
mod arch3;
mod closure;
mod error;
mod graph;
pub mod layout;
mod pipeline;
pub mod properties;
mod query;
mod readpath;
mod retry;
mod serialize;
mod serve;
mod store;
mod wal;

pub use arch1::{StandaloneS3, A1_BEFORE_DATA_PUT, A1_BEFORE_OVERFLOW_PUT};
pub use arch2::{
    Arch2Config, S3SimpleDb, A2_BEFORE_DATA_PUT, A2_BEFORE_INDEX_PUT, A2_BEFORE_OVERFLOW_PUT,
    A2_BEFORE_PROV_PUT, A2_MID_INDEX_PUT, A2_MID_PROV_PUT,
};
pub use arch3::{
    Arch3Config, CommitDaemon, DaemonProgress, S3SimpleDbSqs, A3_AFTER_TEMP_PUT, A3_BEFORE_BEGIN,
    A3_BEFORE_COMMIT, A3_BEFORE_TEMP_PUT, A3_MID_PROV_LOG, D3_AFTER_COPY, D3_BEFORE_COPY,
    D3_BEFORE_INDEX_PUT, D3_BEFORE_MSG_DELETE, D3_BEFORE_TMP_DELETE, D3_MID_INDEX_PUT,
    D3_MID_PUTATTRS,
};
pub use closure::ClosureMode;
pub use error::{CloudError, Result};
pub use graph::{GraphDiff, NodeDiff, ProvGraph};
pub use pipeline::persist_groups;
pub use properties::{
    check_atomicity, check_causal_ordering, check_consistency, check_efficient_query,
    full_property_table, property_matrix, ArchKind, AtomicityReport, PropertyMatrix,
};
pub use query::{ProvQuery, QueryAnswer, QueryItem};
pub use retry::RetryPolicy;
pub use serialize::{
    decode_attributes, decode_metadata, encode_metadata, encode_records, pack_attr_batches,
    read_nonce, read_version, to_simpledb_attributes, EncodedProvenance,
};
pub use serve::{
    domain_fingerprint, store_fingerprint, ServeHandle, ServeParts, ServeStats, Serveable,
};
pub use store::{ProvenanceStore, ReadOutcome, ReadStatus, RecoveryReport};
pub use wal::{chunk_pairs, pack_wal_batches, WalRecord};

#[cfg(test)]
mod tests;
