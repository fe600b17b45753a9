//! Batched vs point persist experiments: the request-count and
//! virtual-time story behind the batched request path.
//!
//! [`persist_grouped`] is the one persist both this sweep and the
//! in-flight depth sweep (`crate::pipebench`) run. The combined
//! workload's flush stream is cut into groups of a fixed size
//! (`provenance_cloud::persist_groups`: consecutive closes coalesce, the
//! last group takes the remainder), and each group drains through
//! `ProvenanceStore::persist_batch`, which rides the services' native
//! batch APIs (`BatchPutAttributes`, `SendMessageBatch`, multi-object
//! delete). The sweep varies the group size on Architectures 2 and 3;
//! group size 1 is the point-op path, the baseline every other row must
//! beat. [`BatchSweep::check`] asserts, per architecture:
//!
//! * every row's provenance graph is identical to the point-op row's;
//! * every batched row issues strictly fewer billable requests than the
//!   point-op row and finishes sooner in virtual time (between batch
//!   sizes the daemon's sampled receives add noise, so no monotonicity
//!   is claimed there);
//! * at full batch fill the provenance *flush* path (SimpleDB writes +
//!   SQS sends) is ≥ 5x smaller.

use provenance_cloud::{
    persist_groups, Arch3Config, ArchKind, ProvGraph, ProvQuery, ProvenanceStore, Result,
    S3SimpleDbSqs,
};
use simworld::{MeterSnapshot, Op, SimWorld};
use workloads::Combined;

use crate::harness::{ensure, metered, priced_world, Size, Sweep, SEED};

/// One persist of the combined workload: a row of the batch-size sweep
/// and of the in-flight depth sweep alike.
#[derive(Clone, Debug)]
pub struct PersistRow {
    /// Flushes per group; 1 is the point path.
    pub group_size: usize,
    /// The row's in-flight depth: `None` is the synchronous path.
    pub depth: Option<usize>,
    /// Total billable requests of the persist phase (client + daemons).
    pub requests: u64,
    /// Requests on the provenance flush path alone: SimpleDB write
    /// requests plus SQS send requests (point or batch — a batch counts
    /// once, that being the point).
    pub flush_requests: u64,
    /// Virtual seconds the persist phase consumed.
    pub virtual_secs: f64,
    /// The final provenance graph — identical across the rows of a
    /// sweep (same workload), or grouping or overlap changed the store.
    pub graph: ProvGraph,
}

/// Requests on the provenance flush path: every SimpleDB write request
/// and every SQS send request, point or batched.
pub fn flush_path_requests(meters: &MeterSnapshot) -> u64 {
    [
        Op::SdbPutAttributes,
        Op::SdbBatchPutAttributes,
        Op::SqsSendMessage,
        Op::SqsSendMessageBatch,
    ]
    .iter()
    .map(|op| meters.op_count(*op))
    .sum()
}

/// Builds the store for one row. Architecture 3 gets its commit daemon
/// depth wired to the row's; the other architectures have no daemon to
/// pipeline.
fn build_store(kind: ArchKind, world: &SimWorld, depth: Option<usize>) -> Box<dyn ProvenanceStore> {
    if kind == ArchKind::S3SimpleDbSqs {
        let mut store = S3SimpleDbSqs::new(world, "prop-client");
        store.set_config(Arch3Config {
            daemon_depth: depth,
            ..Arch3Config::default()
        });
        Box::new(store)
    } else {
        kind.build(world)
    }
}

/// Persists `dataset` into a fresh `kind` store on a priced world and
/// returns the sweep row. Group size 1 is the point path, one `persist`
/// per flush; a larger size drives [`persist_groups`] at `depth`. On
/// Architecture 3 `depth` sizes the commit daemon's window too.
///
/// # Errors
///
/// Propagates service errors.
pub fn persist_grouped(
    kind: ArchKind,
    dataset: &Combined,
    group_size: usize,
    depth: Option<usize>,
) -> Result<PersistRow> {
    let world = priced_world(SEED);
    let mut store = build_store(kind, &world, depth);
    let (flushes, _) = dataset.flushes();
    let ((), meters, elapsed) = metered(&world, || {
        if group_size == 1 {
            flushes.iter().try_for_each(|flush| store.persist(flush))?;
        } else {
            persist_groups(&world, store.as_mut(), &flushes, group_size, depth)?;
        }
        store.run_daemons_until_idle()
    })?;
    world.settle();
    Ok(PersistRow {
        group_size,
        depth,
        requests: meters.total_ops(),
        flush_requests: flush_path_requests(&meters),
        virtual_secs: elapsed.as_secs_f64(),
        graph: ProvGraph::from_answer(&store.query(&ProvQuery::ProvenanceOfAll)?),
    })
}

/// `--mode=batch`: the group-size sweep on Architectures 2 and 3.
#[derive(Clone, Debug)]
pub struct BatchSweep {
    /// Per architecture, one row per group size; the first is size 1.
    pub legs: Vec<(ArchKind, Vec<PersistRow>)>,
}

impl Sweep for BatchSweep {
    fn run(size: Size) -> Result<Self> {
        let group_sizes: &[usize] = match size {
            Size::Smoke => &[1, 10, 25],
            Size::Full(_) => &[1, 5, 10, 25],
        };
        let dataset = size.dataset();
        let mut legs = Vec::new();
        for kind in [ArchKind::S3SimpleDb, ArchKind::S3SimpleDbSqs] {
            let rows: Result<Vec<PersistRow>> = group_sizes
                .iter()
                .map(|&n| persist_grouped(kind, &dataset, n, None))
                .collect();
            legs.push((kind, rows?));
        }
        Ok(BatchSweep { legs })
    }

    /// One table per architecture, with request-count and virtual-time
    /// speedup columns against the point-op (group size 1) row.
    fn render(&self) -> String {
        let mut out = String::new();
        for (kind, rows) in &self.legs {
            out.push_str(&format!(
                "Batch-size sweep — {} persist path, combined workload, group-commit flusher\n",
                kind.label()
            ));
            out.push_str(
                "group | requests | req speedup | flush reqs | flush speedup | virt (s) | time speedup | graph\n",
            );
            out.push_str(
                "------|----------|-------------|------------|---------------|----------|--------------|------\n",
            );
            let base = &rows[0];
            for r in rows {
                out.push_str(&format!(
                    "{:>5} | {:>8} | {:>10.2}x | {:>10} | {:>12.2}x | {:>8.2} | {:>11.2}x | {:>5}\n",
                    r.group_size,
                    r.requests,
                    base.requests as f64 / (r.requests as f64).max(1.0),
                    r.flush_requests,
                    base.flush_requests as f64 / (r.flush_requests as f64).max(1.0),
                    r.virtual_secs,
                    base.virtual_secs / r.virtual_secs.max(f64::EPSILON),
                    r.graph.len(),
                ));
            }
            out.push('\n');
        }
        out
    }

    fn check(&self) -> std::result::Result<(), String> {
        for (kind, rows) in &self.legs {
            let (kind, point, batched) = (kind.label(), &rows[0], &rows[1..]);
            ensure!(
                batched
                    .iter()
                    .all(|r| r.graph.diff(&point.graph).is_empty()),
                "{kind}: batching changed the provenance graph"
            );
            ensure!(
                batched.iter().all(|r| r.requests < point.requests),
                "{kind}: a batched row did not issue strictly fewer requests than the point path"
            );
            ensure!(
                batched.iter().all(|r| r.virtual_secs < point.virtual_secs),
                "{kind}: a batched row was not faster in virtual time than the point path"
            );
            let full = batched.last().expect("sweep has batched rows");
            ensure!(
                full.flush_requests * 5 <= point.flush_requests,
                "{kind}: provenance flush path did not shrink >=5x at full fill ({} vs {})",
                full.flush_requests,
                point.flush_requests
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_size_one_is_the_point_path() {
        // The sweep's baseline row must not touch a batch API.
        let dataset = Combined::small();
        let row = persist_grouped(ArchKind::S3SimpleDb, &dataset, 1, None).unwrap();
        assert_eq!(row.group_size, 1);
        let world = priced_world(SEED);
        let mut store = ArchKind::S3SimpleDb.build(&world);
        let (flushes, _) = dataset.flushes();
        for flush in &flushes {
            store.persist(flush).unwrap();
        }
        assert_eq!(world.meters().op_count(Op::SdbBatchPutAttributes), 0);
    }
}
