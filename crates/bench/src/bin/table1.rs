//! Regenerates Table 1 (properties comparison) by fault injection.
//!
//! Usage: `cargo run --release -p prov-bench --bin table1 [--seed=N]`

fn main() {
    let cli = prov_bench::harness::cli(&["--seed"], &[]);
    match prov_bench::table1(cli.seed) {
        Ok((_, rendered)) => print!("{rendered}"),
        Err(e) => {
            eprintln!("table1 failed: {e}");
            std::process::exit(1);
        }
    }
}
