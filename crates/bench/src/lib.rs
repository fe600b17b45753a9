//! # prov-bench — the harness that regenerates every table of the paper
//!
//! *Making a Cloud Provenance-Aware* evaluates its three architectures
//! with three artifacts, each reproduced by a binary in this crate:
//!
//! | Paper artifact | Binary | Function |
//! |---|---|---|
//! | Table 1 — properties matrix | `table1` | [`table1`] |
//! | Table 2 — storage cost | `table2` | [`table2`] |
//! | Table 3 — query cost | `table3` | [`table3`] |
//! | §5 USD discussion | `costs` | [`costs`] |
//! | design ablations (DESIGN.md) | `ablations` | [`ablations()`] |
//!
//! Each function returns a typed result plus a rendered table that
//! prints the measured values next to the paper's reported numbers.
//! The experiments that grew past the paper (sharding, batching,
//! pipelining, splitting, the fleet, the closure index) are
//! [`Sweep`]s — `run`, `render`, `check` — behind the `shards` binary's
//! `--mode`.
//! Absolute values differ (the paper ran a 2009 PASS kernel against the
//! real AWS); the *shape* — who wins, by what factor, where the
//! crossovers are — is the reproduction target, and the root-level
//! integration tests assert it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod batchbench;
pub mod fleetbench;
pub mod harness;
pub mod pipebench;
pub mod querybench;
pub mod shardbench;
pub mod tables;

pub use ablations::{ablations, AblationResults};
pub use harness::{persist_dataset, PersistedStore, Scale, Size, Sweep};
pub use tables::{costs, table1, table2, table3, CostResults, Table2, Table3};
