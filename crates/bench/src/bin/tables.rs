//! Every table of the reproduction, one `--mode` each ([`prov_bench::MODES`]).
//!
//! Usage: `cargo run --release -p prov-bench --bin tables --
//!         [--mode=<mode>|all] [--smoke] [--scale=small|medium|paper]`

fn main() {
    let modes = prov_bench::MODES;
    let mut names: Vec<&str> = modes.iter().map(|(name, _)| *name).collect();
    names.push("all");
    let cli = prov_bench::harness::cli(&names);
    let sweeps = modes
        .iter()
        .filter(|(name, _)| cli.mode == "all" || cli.mode == *name)
        .flat_map(|(name, drives)| drives.iter().map(move |drive| (*name, drive)));
    for (i, (name, drive)) in sweeps.enumerate() {
        if i > 0 {
            println!();
        }
        let (rendered, verdict) = drive(cli.size);
        print!("{rendered}");
        if let Err(violation) = verdict {
            eprintln!("{name}: {violation}");
            std::process::exit(1);
        }
    }
    eprintln!("checks ok ({})", cli.mode);
}
