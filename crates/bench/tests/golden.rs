//! The deterministic tables, byte for byte.
//!
//! Tables 1–3, `costs` and `ablations` are pure functions of a seed:
//! they count requests and bytes on a simulated world, so a change that
//! claims to move only wall-clock time must leave every character of
//! them alone. The files under `golden/` are the binaries' output at the
//! default seed (2009) and `--scale=small`; to move one on purpose,
//! regenerate it with the binary named in its row below and say why in
//! the PR.

use prov_bench::{ablations, costs, table1, table2, table3, Scale};

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
