//! Runs the five design ablations documented in DESIGN.md.
//!
//! Usage: `cargo run --release -p prov-bench --bin ablations [--seed=N]`

fn main() {
    let cli = prov_bench::harness::cli(&["--seed"], &[]);
    match prov_bench::ablations(cli.seed) {
        Ok(results) => print!("{}", results.render()),
        Err(e) => {
            eprintln!("ablations failed: {e}");
            std::process::exit(1);
        }
    }
}
