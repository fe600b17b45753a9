//! # prov-bench — the harness that regenerates every table of the paper
//!
//! *Making a Cloud Provenance-Aware* evaluates its three architectures
//! with three tables and a USD discussion. This crate reproduces each as
//! a [`Sweep`] — `run`, `render`, `check` — and so does every experiment
//! that grew past the paper. [`MODES`] lists them all, and one binary,
//! `tables`, runs any of them:
//!
//! | `--mode` | sweeps |
//! |---|---|
//! | `table1` | [`Table1`]: Table 1, the properties matrix, by fault injection |
//! | `table2` | [`Table2`]: Table 2, the storage cost, and the §5 USD bill |
//! | `table3` | [`Table3`]: Table 3, the query cost (Q1–Q3) |
//! | `ablations` | [`Ablations`]: five design decisions, each varied alone |
//! | `simpledb` | [`shardbench::SimpleDbSweep`], [`shardbench::SkewSweep`] |
//! | `s3` | [`shardbench::S3Sweep`] |
//! | `sqs` | [`shardbench::SqsSweep`] |
//! | `batch` | [`batchbench::BatchSweep`] |
//! | `pipeline` | [`pipebench::PipelineSweep`] |
//! | `query` | [`querybench::QuerySweep`] |
//! | `fleet` | [`fleetbench::FleetSweep`] |
//!
//! ```sh
//! cargo run --release -p prov-bench --bin tables -- \
//!     [--mode=table1|…|fleet|all] [--smoke] [--scale=small|medium|paper]
//! ```
//!
//! Each mode prints its sweeps' tables to stdout, then runs their checks
//! and exits 1 on the first violated invariant. `--smoke` is the
//! seconds-scale size that `cargo test` checks and `golden/` pins; the
//! default size is what BASELINE.md records (`--scale` picks the
//! combined-workload dataset where a sweep persists one).
//!
//! Absolute values differ from the paper's (it ran a 2009 PASS kernel
//! against the real AWS); the *shape* — who wins, by what factor, where
//! the crossovers are — is the reproduction target, and each sweep's
//! `check` asserts it.

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

pub use ablations::Ablations;
pub use harness::{persist_dataset, PersistedStore, Scale, Size, Sweep};
pub use tables::{Table1, Table2, Table3};

use batchbench::BatchSweep;
use fleetbench::FleetSweep;
use pipebench::PipelineSweep;
use querybench::QuerySweep;
use shardbench::{S3Sweep, SimpleDbSweep, SkewSweep, SqsSweep};

/// Runs one sweep at `size`: its rendered tables, and `check`'s verdict
/// on them (a failed run is a violation too).
pub type Drive = fn(Size) -> (String, Result<(), String>);

fn drive<S: Sweep>(size: Size) -> (String, Result<(), String>) {
    match S::run(size) {
        Ok(sweep) => (sweep.render(), sweep.check()),
        Err(e) => (String::new(), Err(format!("sweep failed: {e}"))),
    }
}

/// `--mode` → its sweeps, in `--mode=all` order; the first is the
/// default mode.
pub const MODES: &[(&str, &[Drive])] = &[
    ("table1", &[drive::<Table1>]),
    ("table2", &[drive::<Table2>]),
    ("table3", &[drive::<Table3>]),
    ("ablations", &[drive::<Ablations>]),
    ("simpledb", &[drive::<SimpleDbSweep>, drive::<SkewSweep>]),
    ("s3", &[drive::<S3Sweep>]),
    ("sqs", &[drive::<SqsSweep>]),
    ("batch", &[drive::<BatchSweep>]),
    ("pipeline", &[drive::<PipelineSweep>]),
    ("query", &[drive::<QuerySweep>]),
    ("fleet", &[drive::<FleetSweep>]),
];
