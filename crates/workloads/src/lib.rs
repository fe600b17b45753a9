//! # workloads — the paper's three evaluation workloads as trace
//! generators
//!
//! §5 of *Making a Cloud Provenance-Aware* generates provenance with a
//! PASS system running three benchmarks, then treats their union as one
//! dataset:
//!
//! * [`LinuxCompile`] — a parallel kernel build (`make` → many `cc` →
//!   `ld`);
//! * [`Blast`] — a BLAST sequence-search pipeline (`formatdb` →
//!   `blastall` per query → top-hit extraction);
//! * [`ProvenanceChallenge`] — the First Provenance Challenge fMRI
//!   workflow (`align_warp` → `reslice` → `softmean` → `slicer` →
//!   `convert`);
//! * [`Combined`] — all three concatenated, with [`DatasetStats`]
//!   supplying Table 2's "Raw" column.
//!
//! [`ZipfKeys`] supplements the trace generators with a skewed
//! (hot-key) index stream for the shard-imbalance experiments.
//!
//! Generators are deterministic in their seed, produce
//! [`pass::TraceEvent`] streams consumable by [`pass::Observer`], and
//! scale smoothly from unit-test size to the paper's ~1.27 GB dataset
//! (synthetic [`simworld::Blob`] content keeps even that cheap).
//!
//! # Examples
//!
//! ```
//! use workloads::Combined;
//!
//! let (flushes, stats) = Combined::small().flushes();
//! assert!(stats.file_versions > 0);
//! assert_eq!(flushes.len() as u64, stats.total_versions());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod blast;
mod builder;
mod challenge;
mod combined;
mod compile;
mod zipf;

pub use blast::Blast;
pub use builder::TraceBuilder;
pub use challenge::{ProvenanceChallenge, ANATOMY_PAIRS, SLICE_AXES};
pub use combined::{Combined, DatasetStats};
pub use compile::LinuxCompile;
pub use zipf::ZipfKeys;
