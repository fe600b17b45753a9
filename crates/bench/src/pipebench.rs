//! Pipelined vs synchronous persist experiments: the in-flight depth
//! sweep behind the event-driven completion scheduler.
//!
//! The batched path (PR 4) cut round trips; this sweep cuts *waiting*.
//! The same flush groups drive `provenance_cloud::persist_groups` with
//! up to `depth` requests per service in flight: completion time
//! follows the scheduler's event order (`max(channel-free, issue) +
//! latency`) instead of the serial latency sum, so virtual completion
//! time falls as the depth rises while the final store stays identical.
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
//! * the adaptive row lands within 10% of the best fixed depth (nobody
//!   hand-tuned its window) and reports the depth it converged to.

use std::fmt;

use pass::FileFlush;
use provenance_cloud::{
    persist_groups, Arch3Config, ArchKind, ProvGraph, ProvQuery, ProvenanceStore, Result,
    S3SimpleDbSqs,
};
use simworld::AdaptiveDepth;
use workloads::Combined;

use crate::harness::{ensure, metered, priced_world, Size, Sweep};

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

/// One row of the in-flight depth sweep.
#[derive(Clone, Debug)]
pub struct PipelineRow {
    /// How this row sized its window.
    pub spec: DepthSpec,
    /// Total billable requests of the persist phase (client + daemons).
    /// Identical across rows on daemon-less architectures; on arch3 the
    /// pipelined daemon re-cuts its receive rounds, so only the applied
    /// *state* is invariant, not the polling bill.
    pub requests: u64,
    /// Virtual seconds the persist phase consumed.
    pub virtual_secs: f64,
    /// The final provenance graph — identical across rows, or
    /// pipelining changed the store.
    pub graph: ProvGraph,
    /// The depth the adaptive controller converged to (client side);
    /// `None` on sync/fixed rows.
    pub final_depth: Option<usize>,
}

/// Splits `flushes` into persist groups of `group_size` — the same
/// grouping on every row, so only the overlap differs.
fn grouped(flushes: &[FileFlush], group_size: usize) -> Vec<Vec<FileFlush>> {
    flushes
        .chunks(group_size.max(1))
        .map(<[FileFlush]>::to_vec)
        .collect()
}

/// Builds the store for one row. Architecture 3 gets its commit daemon
/// depth wired to the spec; the other architectures have no daemon to
/// pipeline.
fn build_store(
    kind: ArchKind,
    world: &simworld::SimWorld,
    spec: DepthSpec,
) -> Box<dyn ProvenanceStore> {
    if kind == ArchKind::S3SimpleDbSqs {
        let mut store = S3SimpleDbSqs::new(world, "prop-client");
        store.set_config(Arch3Config {
            daemon_depth: spec.depth(),
            ..Arch3Config::default()
        });
        Box::new(store)
    } else {
        kind.build(world)
    }
}

/// Persists `dataset` into a fresh `kind` store under `spec` —
/// synchronously, at a fixed in-flight depth, or adaptively — and
/// returns the sweep row.
///
/// # Errors
///
/// Propagates service errors.
pub fn persist_with_spec(
    kind: ArchKind,
    dataset: &Combined,
    group_size: usize,
    spec: DepthSpec,
) -> Result<PipelineRow> {
    let world = priced_world(2009);
    let mut store = build_store(kind, &world, spec);
    let (flushes, _) = dataset.flushes();
    let groups = grouped(&flushes, group_size);
    let mut depth = spec.depth();
    let ((), meters, elapsed) = metered(&world, || {
        persist_groups(&world, store.as_mut(), &groups, depth.as_mut())?;
        store.run_daemons_until_idle()
    })?;
    world.settle();
    Ok(PipelineRow {
        spec,
        requests: meters.total_ops(),
        virtual_secs: elapsed.as_secs_f64(),
        graph: ProvGraph::from_answer(&store.query(&ProvQuery::ProvenanceOfAll)?),
        final_depth: depth
            .filter(|_| spec == DepthSpec::Adaptive)
            .map(|ctl| ctl.depth()),
    })
}

/// `--mode=pipeline`: [`DEFAULT_SPECS`] on Architectures 2 and 3, in
/// groups of [`DEFAULT_PIPELINE_GROUP`].
#[derive(Clone, Debug)]
pub struct PipelineSweep {
    /// Per architecture, one row per spec.
    pub legs: Vec<(ArchKind, Vec<PipelineRow>)>,
}

impl Sweep for PipelineSweep {
    fn run(size: Size) -> Result<Self> {
        let dataset = size.dataset();
        let mut legs = Vec::new();
        for kind in [ArchKind::S3SimpleDb, ArchKind::S3SimpleDbSqs] {
            let rows: Result<Vec<PipelineRow>> = DEFAULT_SPECS
                .iter()
                .map(|&spec| persist_with_spec(kind, &dataset, DEFAULT_PIPELINE_GROUP, spec))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_sweep_matches_sync_state_and_cuts_time() {
        PipelineSweep::run(Size::Smoke).unwrap().check().unwrap();
    }

    #[test]
    fn grouping_is_stable() {
        let (flushes, _) = Combined::small().flushes();
        let groups = grouped(&flushes, 25);
        assert_eq!(
            groups.iter().map(Vec::len).sum::<usize>(),
            flushes.len(),
            "grouping must partition the flush stream"
        );
        assert!(groups[..groups.len() - 1].iter().all(|g| g.len() == 25));
    }
}
