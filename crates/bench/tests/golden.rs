//! Every mode of `tables`, byte for byte, and its checks.
//!
//! Each mode is a pure function of the seed (2009): it counts requests,
//! bytes and virtual time on a simulated world, so a change that claims
//! to move only wall-clock time must leave every character of it alone.
//! `golden/<mode>_smoke.txt` is what `tables --mode=<mode> --smoke`
//! prints: the mode's sweeps, a blank line between them. Each test runs
//! its mode once at `Size::Smoke`, compares the output with the file and
//! runs the sweeps' checks; a new mode needs a test here and a file. To
//! move a file on purpose, regenerate it with the command in the failure
//! message and say why in the PR.

use prov_bench::{Size, MODES};

fn assert_mode(mode: &str) {
    let (_, drives) = MODES
        .iter()
        .find(|(name, _)| *name == mode)
        .unwrap_or_else(|| panic!("no mode {mode}"));
    let mut rendered = Vec::new();
    for drive in *drives {
        let (text, verdict) = drive(Size::Smoke);
        verdict.unwrap_or_else(|violation| panic!("{mode}: {violation}"));
        rendered.push(text);
    }
    let rendered = rendered.join("\n");
    let path = format!("{}/golden/{mode}_smoke.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        rendered == golden,
        "{mode} moved; if intended: \
         cargo run --release -p prov-bench --bin tables -- --mode={mode} --smoke > {path}\n\
         --- golden\n{golden}--- rendered\n{rendered}"
    );
}

#[test]
fn table1_matches_golden() {
    assert_mode("table1");
}

#[test]
fn table2_small_matches_golden() {
    assert_mode("table2");
}

#[test]
fn table3_small_matches_golden() {
    assert_mode("table3");
}

#[test]
fn ablations_match_golden() {
    assert_mode("ablations");
}

#[test]
fn shards_simpledb_smoke_matches_golden() {
    assert_mode("simpledb");
}

#[test]
fn shards_s3_smoke_matches_golden() {
    assert_mode("s3");
}

#[test]
fn shards_sqs_smoke_matches_golden() {
    assert_mode("sqs");
}

#[test]
fn shards_batch_smoke_matches_golden() {
    assert_mode("batch");
}

#[test]
fn shards_pipeline_smoke_matches_golden() {
    assert_mode("pipeline");
}

#[test]
fn shards_query_smoke_matches_golden() {
    assert_mode("query");
}
