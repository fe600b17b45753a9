//! Regenerates Table 2 (storage cost comparison).
//!
//! Usage: `cargo run --release -p prov-bench --bin table2 [--scale=small|medium|paper]`

fn main() {
    let cli = prov_bench::harness::cli(&["--scale"], &[]);
    match prov_bench::table2(&cli.size.dataset()) {
        Ok(table) => print!("{}", table.render()),
        Err(e) => {
            eprintln!("table2 failed: {e}");
            std::process::exit(1);
        }
    }
}
