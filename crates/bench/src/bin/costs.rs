//! Prices the persist phase of every architecture in January-2009 USD
//! (the §5 discussion: "operations are much cheaper than storage").
//!
//! Usage: `cargo run --release -p prov-bench --bin costs [--scale=small|medium|paper]`

fn main() {
    let cli = prov_bench::harness::cli(&["--scale"], &[]);
    match prov_bench::costs(&cli.size.dataset()) {
        Ok(costs) => print!("{}", costs.render()),
        Err(e) => {
            eprintln!("costs failed: {e}");
            std::process::exit(1);
        }
    }
}
