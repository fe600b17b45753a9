//! Regenerates Table 3 (query comparison: Q1, Q2, Q3).
//!
//! Usage: `cargo run --release -p prov-bench --bin table3 [--scale=small|medium|paper]`

fn main() {
    let cli = prov_bench::harness::cli(&["--scale"], &[]);
    match prov_bench::table3(&cli.size.dataset()) {
        Ok(table) => print!("{}", table.render()),
        Err(e) => {
            eprintln!("table3 failed: {e}");
            std::process::exit(1);
        }
    }
}
