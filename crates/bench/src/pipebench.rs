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
//!
//! Each row runs one depth, an `Option<usize>` printed as `sync` or `n`:
//! `None` is the synchronous batch baseline (no region, serial commit
//! daemon), `Some(n)` a region `n` deep. On Architecture 3 that same
//! depth goes to *both* ends of the WAL: the client's persist region and
//! the commit daemon's receive/assemble/apply loop
//! (`Arch3Config::daemon_depth`), so the sweep measures true end-to-end
//! time instead of plateauing on a serial daemon.
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
//!   depth.

use provenance_cloud::{ArchKind, Result};

use crate::batchbench::{persist_grouped, PersistRow};
use crate::harness::{ensure, Size, Sweep};

/// The depths the sweep visits: the sync baseline, then ascending.
pub const DEFAULT_DEPTHS: &[Option<usize>] =
    &[None, Some(1), Some(2), Some(4), Some(8), Some(16), Some(32)];

/// Flushes per group in the sweep (the full SimpleDB batch fill).
pub const DEFAULT_PIPELINE_GROUP: usize = 25;

/// `--mode=pipeline`: [`DEFAULT_DEPTHS`] on Architectures 2 and 3, in
/// groups of [`DEFAULT_PIPELINE_GROUP`].
#[derive(Clone, Debug)]
pub struct PipelineSweep {
    /// Per architecture, one row per depth.
    pub legs: Vec<(ArchKind, Vec<PersistRow>)>,
}

impl Sweep for PipelineSweep {
    fn run(size: Size) -> Result<Self> {
        let dataset = size.dataset();
        let mut legs = Vec::new();
        for kind in [ArchKind::S3SimpleDb, ArchKind::S3SimpleDbSqs] {
            let rows: Result<Vec<PersistRow>> = DEFAULT_DEPTHS
                .iter()
                .map(|&depth| persist_grouped(kind, &dataset, DEFAULT_PIPELINE_GROUP, depth))
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
                    r.depth.map_or("sync".to_string(), |n| n.to_string()),
                    r.requests,
                    r.virtual_secs,
                    base_virt / r.virtual_secs.max(f64::EPSILON),
                    r.graph.len(),
                ));
            }
            out.push('\n');
        }
        out
    }

    fn check(&self) -> std::result::Result<(), String> {
        for (kind, rows) in &self.legs {
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
                rows.windows(2)
                    .all(|w| w[1].virtual_secs < w[0].virtual_secs),
                "{kind}: virtual completion time did not fall with depth"
            );
        }
        Ok(())
    }
}
