//! The sweeps that grew past the paper's three tables, one per `--mode`.
//!
//! Usage: `cargo run --release -p prov-bench --bin shards --
//!         [--mode=simpledb|s3|sqs|batch|pipeline|split|query|fleet|all]
//!         [--smoke] [--scale=small|medium|paper]`
//!
//! Each mode prints its sweeps' tables to stdout, then runs their
//! checks and exits 1 on the first violated invariant. `--smoke` is the
//! seconds-scale size that `cargo test` checks and `golden/` pins; the
//! default size is what BASELINE.md records (`--scale` picks its
//! combined-workload dataset where a sweep persists one). What each
//! mode measures and asserts is documented on its sweep:
//!
//! | mode | sweeps |
//! |---|---|
//! | `simpledb` | `shardbench::SimpleDbSweep`, `shardbench::SkewSweep` |
//! | `s3` | `shardbench::S3Sweep` |
//! | `sqs` | `shardbench::SqsSweep` |
//! | `batch` | `batchbench::BatchSweep` |
//! | `pipeline` | `pipebench::PipelineSweep` |
//! | `split` | `shardbench::SplitSweep` |
//! | `query` | `querybench::QuerySweep` |
//! | `fleet` | `fleetbench::FleetSweep` |

use prov_bench::batchbench::BatchSweep;
use prov_bench::fleetbench::FleetSweep;
use prov_bench::pipebench::PipelineSweep;
use prov_bench::querybench::QuerySweep;
use prov_bench::shardbench::{S3Sweep, SimpleDbSweep, SkewSweep, SplitSweep, SqsSweep};
use prov_bench::{Size, Sweep};

/// Runs one sweep, prints its tables, then checks them.
fn drive<S: Sweep>(size: Size) -> Result<(), String> {
    let sweep = S::run(size).map_err(|e| format!("sweep failed: {e}"))?;
    print!("{}", sweep.render());
    sweep.check()
}

type Drive = fn(Size) -> Result<(), String>;

/// `--mode` → its sweeps, in `--mode=all` order. The first is the default.
const MODES: &[(&str, &[Drive])] = &[
    ("simpledb", &[drive::<SimpleDbSweep>, drive::<SkewSweep>]),
    ("s3", &[drive::<S3Sweep>]),
    ("sqs", &[drive::<SqsSweep>]),
    ("batch", &[drive::<BatchSweep>]),
    ("pipeline", &[drive::<PipelineSweep>]),
    ("split", &[drive::<SplitSweep>]),
    ("query", &[drive::<QuerySweep>]),
    ("fleet", &[drive::<FleetSweep>]),
];

fn main() {
    let mut names: Vec<&str> = MODES.iter().map(|(name, _)| *name).collect();
    names.push("all");
    let cli = prov_bench::harness::cli(&["--mode", "--smoke", "--scale"], &names);
    let sweeps = MODES
        .iter()
        .filter(|(name, _)| cli.mode == "all" || cli.mode == *name)
        .flat_map(|(name, drives)| drives.iter().map(move |drive| (*name, drive)));
    for (i, (name, drive)) in sweeps.enumerate() {
        if i > 0 {
            println!();
        }
        if let Err(violation) = drive(cli.size) {
            eprintln!("{name}: {violation}");
            std::process::exit(1);
        }
    }
    eprintln!("checks ok ({})", cli.mode);
}
