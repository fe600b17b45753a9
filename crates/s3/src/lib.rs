//! # sim-s3 — a simulated Amazon S3 (January 2009 featureset)
//!
//! An in-process object store reproducing the S3 semantics the paper
//! *Making a Cloud Provenance-Aware* (TaPP '09) depends on:
//!
//! * objects from 1 byte to 5 GB, addressed `bucket/key`, hash-sharded
//!   per bucket behind per-shard locks ([`S3::with_shards`]);
//! * up to **2 KB of user metadata** stored *atomically with* the object
//!   on the same PUT — the foundation of the paper's Architecture 1;
//! * `PUT`, `GET`, `HEAD`, `COPY`, `DELETE`, `LIST`;
//! * **eventual consistency**: a GET right after a PUT may return the
//!   older object, and concurrent PUTs resolve last-writer-wins;
//! * idempotent deletes; COPY unbilled for transfer;
//! * per-operation billing meters feeding the workspace [`simworld`]
//!   ledger.
//!
//! # Examples
//!
//! ```
//! use sim_s3::{Metadata, S3};
//! use simworld::{Blob, SimWorld};
//!
//! let world = SimWorld::counting();
//! let s3 = S3::new(&world);
//! s3.create_bucket("lab")?;
//!
//! let meta = Metadata::from_pairs([("x-amz-meta-prov-type", "file")]);
//! s3.put_object("lab", "genome.dat", Blob::synthetic(1, 4096), meta)?;
//!
//! let head = s3.head_object("lab", "genome.dat")?;
//! assert_eq!(head.content_length, 4096);
//! assert_eq!(head.metadata.get("x-amz-meta-prov-type"), Some("file"));
//! # Ok::<(), sim_s3::S3Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod error;
mod metadata;
mod service;

pub use error::{Result, S3Error};
pub use metadata::{Metadata, METADATA_LIMIT};
pub use service::{
    Head, Listing, MetadataDirective, Object, ObjectSummary, DEFAULT_SHARDS, MAX_DELETE_KEYS,
    MAX_KEY_LEN, MAX_LIST_KEYS, MAX_OBJECT_SIZE, MAX_SHARDS, S3,
};

#[cfg(test)]
mod tests;
