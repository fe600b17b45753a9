//! Pipelined vs synchronous persist experiments: the in-flight depth
//! sweep over `SimWorld`'s pipelined region.
//!
//! The batched path cut round trips; this sweep cuts *waiting*. The
//! same flush groups drive `provenance_cloud::persist_groups` (through
//! [`persist_grouped`], the batch sweep's persist) with up to `depth`
//! requests per service in flight: each completion lands at
//! `max(channel-free, issue) + latency`
//! instead of the serial latency sum, so virtual completion time falls
//! as the depth rises while the final store stays identical.
//! [`DepthSpec::Sync`] denotes the synchronous batch baseline (no
//! region, serial commit daemon).
//!
//! Each row's [`DepthSpec`] names one depth policy
//! ([`DepthSpec::depth`], an `Option<AdaptiveDepth>`), and on
//! Architecture 3 that same policy goes to *both* ends of the WAL: the
//! client's persist region and the commit daemon's
//! receive/assemble/apply loop (`Arch3Config::daemon_depth`), so the
//! sweep measures true end-to-end time instead of plateauing on a
//! serial daemon. [`DepthSpec::Adaptive`] replaces the hand-tuned depth
//! with the AIMD controller on both ends.
//!
//! Request *issue order* within each service is identical on every row,
//! and the stores' protocols are order-insensitive at the points where
//! daemon scheduling may differ (SimpleDB attribute adds are
//! set-semantics, copies land whole objects keyed by txid), so the
//! final store state and provenance graph are identical across the
//! whole sweep. [`PipelineSweep::check`] asserts, per architecture:
//!
//! * every row's provenance graph is identical;
//! * on Architecture 2 (no daemon) every row issues exactly the same
//!   billable requests — arch3's pipelined commit daemon re-cuts its
//!   receive rounds, so only the state is invariant there;
//! * virtual completion time falls strictly from `sync` through every
//!   fixed depth;
//! * the adaptive row lands within 10% of the best fixed depth of 1–8
//!   (the sweep runs no deeper) and reports the depth it converged to.

use std::fmt;

use provenance_cloud::{ArchKind, Result};
use simworld::AdaptiveDepth;

use crate::batchbench::{persist_grouped, PersistRow};
use crate::harness::{ensure, Size, Sweep};

/// How one sweep row sizes its in-flight window.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DepthSpec {
    /// Synchronous batch baseline: no pipeline, serial commit daemon.
    Sync,
    /// A fixed `max_in_flight` per service, client and daemon alike.
    Fixed(usize),
    /// AIMD-controlled depth ([`AdaptiveDepth`]) on client and daemon.
    Adaptive,
}

impl DepthSpec {
    /// The depth policy this row runs under, client and daemon alike.
    pub fn depth(self) -> Option<AdaptiveDepth> {
        match self {
            DepthSpec::Sync => None,
            DepthSpec::Fixed(d) => Some(AdaptiveDepth::fixed(d)),
            DepthSpec::Adaptive => Some(AdaptiveDepth::new()),
        }
    }
}

impl fmt::Display for DepthSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepthSpec::Sync => f.write_str("sync"),
            DepthSpec::Fixed(d) => write!(f, "{d}"),
            DepthSpec::Adaptive => f.write_str("adapt"),
        }
    }
}

/// The specs the sweep visits: the sync baseline, the fixed depths
/// ascending, the adaptive controller last.
pub const DEFAULT_SPECS: &[DepthSpec] = &[
    DepthSpec::Sync,
    DepthSpec::Fixed(1),
    DepthSpec::Fixed(2),
    DepthSpec::Fixed(4),
    DepthSpec::Fixed(8),
    DepthSpec::Adaptive,
];

/// Flushes per group in the sweep (the full SimpleDB batch fill).
pub const DEFAULT_PIPELINE_GROUP: usize = 25;

/// `--mode=pipeline`: [`DEFAULT_SPECS`] on Architectures 2 and 3, in
/// groups of [`DEFAULT_PIPELINE_GROUP`].
#[derive(Clone, Debug)]
pub struct PipelineSweep {
    /// Per architecture, one row per spec.
    pub legs: Vec<(ArchKind, Vec<PersistRow>)>,
}

impl Sweep for PipelineSweep {
    fn run(size: Size) -> Result<Self> {
        let dataset = size.dataset();
        let mut legs = Vec::new();
        for kind in [ArchKind::S3SimpleDb, ArchKind::S3SimpleDbSqs] {
            let rows: Result<Vec<PersistRow>> = DEFAULT_SPECS
                .iter()
                .map(|&spec| persist_grouped(kind, &dataset, DEFAULT_PIPELINE_GROUP, spec))
                .collect();
            legs.push((kind, rows?));
        }
        Ok(PipelineSweep { legs })
    }

    /// One table per architecture, with a virtual-time speedup column
    /// against the synchronous baseline row.
    fn render(&self) -> String {
        let mut out = String::new();
        for (kind, rows) in &self.legs {
            out.push_str(&format!(
                "In-flight depth sweep — {} pipelined persist, combined workload, groups of {}\n",
                kind.label(),
                DEFAULT_PIPELINE_GROUP
            ));
            out.push_str("depth | requests | virt (s) | time speedup | graph\n");
            out.push_str("------|----------|----------|--------------|------\n");
            let base_virt = rows[0].virtual_secs;
            for r in rows {
                out.push_str(&format!(
                    "{:>5} | {:>8} | {:>8.2} | {:>11.2}x | {:>5}\n",
                    r.spec.to_string(),
                    r.requests,
                    r.virtual_secs,
                    base_virt / r.virtual_secs.max(f64::EPSILON),
                    r.graph.len(),
                ));
            }
            if let Some(depth) = rows.iter().find_map(|r| r.final_depth) {
                out.push_str(&format!("adaptive controller converged at depth {depth}\n"));
            }
            out.push('\n');
        }
        out
    }

    fn check(&self) -> std::result::Result<(), String> {
        for (kind, rows) in &self.legs {
            let (adaptive, fixed) = rows.split_last().expect("sweep has rows");
            let daemonless = *kind != ArchKind::S3SimpleDbSqs;
            let kind = kind.label();
            ensure!(
                rows.iter().all(|r| r.graph.diff(&rows[0].graph).is_empty()),
                "{kind}: pipelining changed the provenance graph"
            );
            ensure!(
                !daemonless || rows.iter().all(|r| r.requests == rows[0].requests),
                "{kind}: pipelining changed the billable request count"
            );
            ensure!(
                fixed
                    .windows(2)
                    .all(|w| w[1].virtual_secs < w[0].virtual_secs),
                "{kind}: virtual completion time did not fall with depth"
            );
            let best_fixed = fixed
                .iter()
                .map(|r| r.virtual_secs)
                .fold(f64::INFINITY, f64::min);
            ensure!(
                adaptive.final_depth.is_some() && adaptive.virtual_secs <= best_fixed * 1.10,
                "{kind}: adaptive depth ({:.2}s) not within 10% of best fixed depth ({best_fixed:.2}s)",
                adaptive.virtual_secs
            );
        }
        Ok(())
    }
}
