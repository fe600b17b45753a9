//! The deterministic tables, byte for byte.
//!
//! Tables 1–3, `costs`, `ablations` and every `shards --mode=*` sweep
//! are pure functions of a seed: they count requests, bytes and virtual
//! time on a simulated world, so a change that claims to move only
//! wall-clock time must leave every character of them alone. The files
//! under `golden/` are the binaries' stdout at the default seed (2009)
//! and `--scale=small` / `--smoke`; to move one on purpose, regenerate
//! it with the binary named in its row below and say why in the PR.

use prov_bench::batchbench::BatchSweep;
use prov_bench::fleetbench::FleetSweep;
use prov_bench::pipebench::PipelineSweep;
use prov_bench::querybench::QuerySweep;
use prov_bench::shardbench::{S3Sweep, SimpleDbSweep, SkewSweep, SplitSweep, SqsSweep};
use prov_bench::{ablations, costs, table1, table2, table3, Scale, Size, Sweep};

const SEED: u64 = 2009;

fn assert_golden(file: &str, rendered: String, regenerate: &str) {
    let path = format!("{}/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        rendered == golden,
        "{file} moved; if intended: cargo run --release -p prov-bench --bin {regenerate} > {path}\n\
         --- golden\n{golden}--- rendered\n{rendered}"
    );
}

#[test]
fn table1_matches_golden() {
    let (_, rendered) = table1(SEED).unwrap();
    assert_golden("table1.txt", rendered, "table1");
}

#[test]
fn table2_small_matches_golden() {
    let table = table2(&Scale::Small.dataset()).unwrap();
    assert_golden(
        "table2_small.txt",
        table.render(),
        "table2 -- --scale=small",
    );
}

#[test]
fn table3_small_matches_golden() {
    let table = table3(&Scale::Small.dataset()).unwrap();
    assert_golden(
        "table3_small.txt",
        table.render(),
        "table3 -- --scale=small",
    );
}

#[test]
fn costs_small_matches_golden() {
    let costs = costs(&Scale::Small.dataset()).unwrap();
    assert_golden("costs_small.txt", costs.render(), "costs -- --scale=small");
}

#[test]
fn ablations_match_golden() {
    let results = ablations(SEED).unwrap();
    assert_golden("ablations.txt", results.render(), "ablations");
}

fn smoke<S: Sweep>() -> String {
    S::run(Size::Smoke).unwrap().render()
}

/// `golden/shards_<mode>_smoke.txt` is what `shards --mode=<mode>
/// --smoke` prints: the mode's sweeps, a blank line between them.
fn assert_sweep_golden(mode: &str, rendered: String) {
    assert_golden(
        &format!("shards_{mode}_smoke.txt"),
        rendered,
        &format!("shards -- --mode={mode} --smoke"),
    );
}

#[test]
fn shards_simpledb_smoke_matches_golden() {
    let rendered = smoke::<SimpleDbSweep>() + "\n" + &smoke::<SkewSweep>();
    assert_sweep_golden("simpledb", rendered);
}

#[test]
fn shards_s3_smoke_matches_golden() {
    assert_sweep_golden("s3", smoke::<S3Sweep>());
}

#[test]
fn shards_sqs_smoke_matches_golden() {
    assert_sweep_golden("sqs", smoke::<SqsSweep>());
}

#[test]
fn shards_batch_smoke_matches_golden() {
    assert_sweep_golden("batch", smoke::<BatchSweep>());
}

#[test]
fn shards_pipeline_smoke_matches_golden() {
    assert_sweep_golden("pipeline", smoke::<PipelineSweep>());
}

#[test]
fn shards_split_smoke_matches_golden() {
    assert_sweep_golden("split", smoke::<SplitSweep>());
}

#[test]
fn shards_query_smoke_matches_golden() {
    assert_sweep_golden("query", smoke::<QuerySweep>());
}

#[test]
fn shards_fleet_smoke_matches_golden() {
    assert_sweep_golden("fleet", smoke::<FleetSweep>());
}
