//! Shared experiment plumbing: the [`Sweep`] shape and its sizes, the
//! binary's strict command line, the priced world and the meter/clock
//! bracket every sweep measures with, and dataset persistence.

use provenance_cloud::{ArchKind, ProvenanceStore, Result};
use sim_s3::{Metadata, S3};
use simworld::{
    format_bytes, Consistency, LatencyModel, MeterSnapshot, SimConfig, SimDuration, SimWorld,
};
use workloads::{Combined, DatasetStats};

/// Dataset scale selection (`--scale`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Unit-test size (seconds).
    Small,
    /// Default experiment size (tens of seconds).
    Medium,
    /// Calibrated toward the paper's absolute dataset (~1.27 GB raw).
    Paper,
}

impl Scale {
    /// The dataset configuration for this scale.
    pub fn dataset(self) -> Combined {
        match self {
            Scale::Small => Combined::small(),
            Scale::Medium => Combined::medium(),
            Scale::Paper => Combined::paper(),
        }
    }
}

/// How much work a sweep does.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Size {
    /// The seconds-scale run `cargo test` and CI check and the goldens pin.
    Smoke,
    /// The run BASELINE.md records; sweeps over the combined workload
    /// take their dataset from the scale.
    Full(Scale),
}

impl Size {
    /// The combined-workload dataset a sweep of this size persists.
    pub fn dataset(self) -> Combined {
        match self {
            Size::Smoke => Combined::small(),
            Size::Full(scale) => scale.dataset(),
        }
    }
}

/// The seed of every deterministic artefact: the property validators,
/// the ablations' worlds and the priced worlds of the sweeps.
pub const SEED: u64 = 2009;

/// One experiment behind a `tables --mode=…` ([`crate::MODES`]): how to
/// run it, how to print it and what must hold of it, each stated once in
/// the module that owns it. The binary prints `render` and exits 1 on
/// `check`'s message; `tests/golden.rs` runs every mode once at
/// [`Size::Smoke`], compares `render` with `golden/<mode>_smoke.txt` and
/// runs `check`.
pub trait Sweep: Sized {
    /// Runs the experiment at `size`.
    ///
    /// # Errors
    ///
    /// Propagates service errors.
    fn run(size: Size) -> Result<Self>;

    /// The table(s), as committed to BASELINE.md and `golden/`.
    fn render(&self) -> String;

    /// The invariants the table must satisfy, at either size.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a message for the operator.
    fn check(&self) -> std::result::Result<(), String>;
}

/// `return Err(format!(…))` unless the condition holds — the one way a
/// [`Sweep::check`] states an invariant.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {{
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    }};
}
pub(crate) use ensure;

/// What the `tables` binary reads from its command line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cli {
    /// `--mode=…`: one of the modes, or `all` (default: the first).
    pub mode: String,
    /// `--smoke`, else `--scale=small|medium|paper` (default medium).
    pub size: Size,
}

/// Parses `args` strictly: only `--mode` with one of `modes`, `--smoke`,
/// and `--scale` with a known scale.
///
/// # Errors
///
/// Names the argument that is not understood.
pub fn parse_cli(args: &[String], modes: &[&str]) -> std::result::Result<Cli, String> {
    let mut mode = modes.first().copied().unwrap_or_default();
    let (mut smoke, mut scale) = (false, Scale::Medium);
    for arg in args {
        match arg.split_once('=') {
            None if arg == "--smoke" => smoke = true,
            Some(("--mode", v)) if modes.contains(&v) => mode = v,
            Some(("--scale", "small")) => scale = Scale::Small,
            Some(("--scale", "medium")) => scale = Scale::Medium,
            Some(("--scale", "paper")) => scale = Scale::Paper,
            Some(("--mode" | "--scale", _)) => return Err(format!("unknown value in {arg:?}")),
            _ => return Err(format!("unknown flag {arg:?}")),
        }
    }
    Ok(Cli {
        mode: mode.to_string(),
        size: if smoke {
            Size::Smoke
        } else {
            Size::Full(scale)
        },
    })
}

/// [`parse_cli`] over the process arguments; on a rejected argument
/// prints the reason and the usage to stderr and exits 2.
pub fn cli(modes: &[&str]) -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_cli(&args, modes).unwrap_or_else(|reason| {
        eprintln!(
            "{reason}\nusage: [--mode={}] [--smoke] [--scale=small|medium|paper]",
            modes.join("|")
        );
        std::process::exit(2);
    })
}

/// A world that prices every call (default 2009 latency model) but keeps
/// results layout-invariant (strong consistency) and deterministic
/// (fixed seed): the world every virtual-time sweep and the batching /
/// pipelining acceptance tests measure on.
pub fn priced_world(seed: u64) -> SimWorld {
    SimWorld::with_config(SimConfig {
        seed,
        consistency: Consistency::Strong,
        latency: LatencyModel::default(),
        replicas: 1,
    })
}

/// Runs `phase` and returns its value with the meters it moved and the
/// virtual time it took.
///
/// # Errors
///
/// Propagates `phase`'s error.
pub fn metered<T>(
    world: &SimWorld,
    phase: impl FnOnce() -> Result<T>,
) -> Result<(T, MeterSnapshot, SimDuration)> {
    let (meters, clock) = (world.meters(), world.now());
    let value = phase()?;
    Ok((value, world.meters() - meters, world.now() - clock))
}

/// A store with a dataset persisted into it, plus the meters the persist
/// phase consumed.
pub struct PersistedStore {
    /// The store, ready for reads/queries.
    pub store: Box<dyn ProvenanceStore>,
    /// Its world (for settling / further metering).
    pub world: SimWorld,
    /// Meter delta of the persist phase (client + daemons).
    pub persist_meters: MeterSnapshot,
    /// Dataset statistics (the Raw column).
    pub stats: DatasetStats,
}

impl std::fmt::Debug for PersistedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistedStore")
            .field("architecture", &self.store.architecture())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Persists the combined dataset into a fresh store of `kind` on a
/// zero-latency, strongly-consistent world (pure op counting, like the
/// paper's estimates).
///
/// # Errors
///
/// Propagates service errors.
pub fn persist_dataset(kind: ArchKind, dataset: &Combined) -> Result<PersistedStore> {
    let world = SimWorld::counting();
    let mut store = kind.build(&world);
    let (flushes, stats) = dataset.flushes();
    let ((), persist_meters, _) = metered(&world, || {
        for flush in &flushes {
            store.persist(flush)?;
        }
        store.run_daemons_until_idle()
    })?;
    world.settle();
    Ok(PersistedStore {
        store,
        world,
        persist_meters,
        stats,
    })
}

/// The provenance-free baseline: raw data PUT straight into S3 (the
/// paper's "Raw" column). Returns the meter delta.
///
/// # Errors
///
/// Propagates S3 errors.
pub fn persist_raw_baseline(dataset: &Combined) -> Result<(MeterSnapshot, DatasetStats)> {
    let world = SimWorld::counting();
    let s3 = S3::new(&world);
    s3.create_bucket("raw")?;
    let (flushes, stats) = dataset.flushes();
    // Bucket creation is outside the bracket: excluded from the baseline.
    let ((), meters, _) = metered(&world, || {
        for flush in &flushes {
            if flush.kind == pass::ObjectKind::File {
                s3.put_object(
                    "raw",
                    &flush.object.name,
                    flush.data.clone(),
                    Metadata::new(),
                )?;
            }
        }
        Ok(())
    })?;
    Ok((meters, stats))
}

/// `value/base` rendered like the paper's bracketed multipliers
/// (`5.4x`).
pub fn ratio(value: u64, base: u64) -> String {
    if base == 0 {
        return "-".to_string();
    }
    format!("{:.2}x", value as f64 / base as f64)
}

/// `part/whole` rendered like the paper's bracketed percentages
/// (`9.3%`).
pub fn percent(part: u64, whole: u64) -> String {
    if whole == 0 {
        return "-".to_string();
    }
    format!("{:.1}%", part as f64 / whole as f64 * 100.0)
}

/// Bytes rendered the paper's way.
pub fn bytes(n: u64) -> String {
    format_bytes(n)
}

/// Thousands separators for op counts (`231,287`).
pub fn count(n: u64) -> String {
    let raw = n.to_string();
    let mut out = String::with_capacity(raw.len() + raw.len() / 3);
    for (i, c) in raw.chars().enumerate() {
        if i > 0 && (raw.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            parse_cli(&args, &["simpledb", "s3"])
        };
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.mode, "simpledb");
        assert_eq!(cli.size, Size::Full(Scale::Medium));
        let cli = parse(&["--scale=paper", "--mode=s3"]).unwrap();
        assert_eq!(cli.mode, "s3");
        assert_eq!(cli.size, Size::Full(Scale::Paper));
        assert_eq!(parse(&["--smoke"]).unwrap().size, Size::Smoke);
        // Typos are rejected, not defaulted.
        assert!(parse(&["--queries=9"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&["--scale=papr"])
            .unwrap_err()
            .contains("--scale=papr"));
        assert!(parse(&["--mode=sdb"]).unwrap_err().contains("--mode=sdb"));
        assert!(parse(&["--smoke=1"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--seed=7"]).unwrap_err().contains("unknown flag"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(count(231287), "231,287");
        assert_eq!(count(7), "7");
        assert_eq!(count(1000), "1,000");
        assert_eq!(ratio(540, 100), "5.40x");
        assert_eq!(ratio(5, 0), "-");
        assert_eq!(percent(93, 1000), "9.3%");
        assert_eq!(percent(1, 0), "-");
    }

    #[test]
    fn raw_baseline_counts_only_files() {
        let dataset = Combined::small();
        let (meters, stats) = persist_raw_baseline(&dataset).unwrap();
        assert_eq!(meters.op_count(simworld::Op::S3Put), stats.file_versions);
        assert_eq!(meters.bytes_in(), stats.raw_data_bytes);
    }

    #[test]
    fn persist_dataset_records_meters() {
        let dataset = Combined::small();
        let persisted = persist_dataset(ArchKind::S3, &dataset).unwrap();
        assert!(persisted.persist_meters.total_ops() >= persisted.stats.file_versions);
    }
}
