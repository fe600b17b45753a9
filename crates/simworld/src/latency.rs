//! Per-operation latency model.
//!
//! The paper's future-work section notes that op counts alone do not show
//! "the impact of the extra operations on elapsed time"; the simulator
//! models that impact so the bench harness can report elapsed simulated
//! time next to op counts. Each API call advances the virtual clock by a
//! base round-trip plus a per-byte transfer term plus deterministic jitter.

use serde::{Deserialize, Serialize};

use crate::clock::SimDuration;
use crate::metering::{Op, Service};

/// Latency parameters for one service.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ServiceLatency {
    /// Fixed round-trip time per request.
    pub base: SimDuration,
    /// Extra time per 8 KB of payload in either direction.
    pub per_8kb: SimDuration,
    /// Uniform jitter in `[0, jitter]` added per request.
    pub jitter: SimDuration,
    /// Server-side cost per row a scan examines. Unlike the transfer
    /// term this parallelises across storage partitions: a sharded
    /// query charges the *largest partition's share* of the scan (see
    /// [`Cost::Scan`]).
    pub per_scanned_row: SimDuration,
    /// Marginal server-side cost per entry of a *batch* request
    /// (`BatchPutAttributes`, `SendMessageBatch`, multi-object delete).
    /// The batch pays one base round trip; each entry then adds this
    /// term — and like the scan term it parallelises across storage
    /// partitions, so a batch spread over shards charges only the
    /// busiest shard's entry share (see [`Cost::Batch`]).
    pub per_batch_entry: SimDuration,
}

/// The shape of one request's cost: what the ledger meters it as and
/// what the latency model adds to the plain round trip. Server-side
/// partitions (shards, SQS storage servers) work in parallel, so elapsed
/// time follows the slowest: callers pass the *largest* partition's
/// share, which they know exactly, and a skewed layout is charged
/// honestly.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Cost {
    /// One request, one round trip.
    Point,
    /// A scanning call (`Query`/`LIST`/`ReceiveMessage`):
    /// [`ServiceLatency::per_scanned_row`] for each of the `rows` the
    /// largest partition examined.
    Scan {
        /// Rows examined by the busiest partition.
        rows: u64,
    },
    /// A batch call: **one** billable request carrying `entries`
    /// entries, plus [`ServiceLatency::per_batch_entry`] for each of the
    /// `gating` entries the busiest partition applies (all of them for
    /// an unsharded target).
    Batch {
        /// Entries the request carried (metered, not priced).
        entries: u64,
        /// Entries landing on the busiest partition.
        gating: u64,
    },
}

/// Latency model for the whole cloud.
///
/// Defaults approximate WAN round trips to AWS circa 2009: tens of
/// milliseconds per request, with SimpleDB a little slower than S3 on
/// writes and SQS the cheapest per call.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct LatencyModel {
    /// S3 request latency.
    pub s3: ServiceLatency,
    /// SimpleDB request latency.
    pub simpledb: ServiceLatency,
    /// SQS request latency.
    pub sqs: ServiceLatency,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            s3: ServiceLatency {
                base: SimDuration::from_millis(40),
                per_8kb: SimDuration::from_micros(800),
                jitter: SimDuration::from_millis(10),
                per_scanned_row: SimDuration::from_micros(20),
                per_batch_entry: SimDuration::from_micros(100),
            },
            simpledb: ServiceLatency {
                base: SimDuration::from_millis(50),
                per_8kb: SimDuration::from_millis(2),
                jitter: SimDuration::from_millis(15),
                per_scanned_row: SimDuration::from_micros(50),
                per_batch_entry: SimDuration::from_millis(1),
            },
            sqs: ServiceLatency {
                base: SimDuration::from_millis(30),
                per_8kb: SimDuration::from_millis(1),
                jitter: SimDuration::from_millis(8),
                // Receives scan the sampled storage servers for visible
                // messages; servers scan in parallel, so the busiest
                // sampled server's message count is the charged share.
                // This is why spreading a workload over more queues
                // yields deterministic virtual-time speedup. The 2009
                // service had no long polling and notoriously slow
                // receives on deep queues, hence the steep per-row cost.
                per_scanned_row: SimDuration::from_micros(100),
                per_batch_entry: SimDuration::from_micros(300),
            },
        }
    }
}

impl LatencyModel {
    /// A model where every call takes zero time — useful for pure
    /// op-counting analyses where the clock should stand still.
    pub fn zero() -> LatencyModel {
        let z = ServiceLatency {
            base: SimDuration::ZERO,
            per_8kb: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            per_scanned_row: SimDuration::ZERO,
            per_batch_entry: SimDuration::ZERO,
        };
        LatencyModel {
            s3: z,
            simpledb: z,
            sqs: z,
        }
    }

    /// Parameters for `service`.
    pub fn service(&self, service: Service) -> ServiceLatency {
        match service {
            Service::S3 => self.s3,
            Service::SimpleDb => self.simpledb,
            Service::Sqs => self.sqs,
        }
    }

    /// Latency of one call moving `payload_bytes`: the base round trip,
    /// the transfer term and the jitter (`jitter_draw` uniform in
    /// `[0, 1]`) are serial; what `cost` adds on top parallelises across
    /// storage partitions, so only the busiest partition's share is
    /// charged (see [`Cost`]).
    pub fn sample(&self, op: Op, payload_bytes: u64, cost: Cost, jitter_draw: f64) -> SimDuration {
        let p = self.service(op.service());
        let chunks = payload_bytes.div_ceil(8 * 1024);
        let jitter = SimDuration::from_micros(
            (p.jitter.as_micros() as f64 * jitter_draw.clamp(0.0, 1.0)) as u64,
        );
        let server_side = match cost {
            Cost::Point => SimDuration::ZERO,
            Cost::Scan { rows } => p.per_scanned_row.saturating_mul(rows),
            Cost::Batch { gating, .. } => p.per_batch_entry.saturating_mul(gating),
        };
        p.base + p.per_8kb.saturating_mul(chunks) + jitter + server_side
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(gating: u64) -> Cost {
        Cost::Batch {
            entries: gating,
            gating,
        }
    }

    #[test]
    fn zero_model_is_zero() {
        let m = LatencyModel::zero();
        assert_eq!(
            m.sample(Op::S3Put, 1 << 20, Cost::Point, 1.0),
            SimDuration::ZERO
        );
        assert_eq!(
            m.sample(Op::SqsSendMessage, 0, Cost::Point, 0.5),
            SimDuration::ZERO
        );
    }

    #[test]
    fn payload_increases_latency() {
        let m = LatencyModel::default();
        let small = m.sample(Op::S3Put, 1024, Cost::Point, 0.0);
        let large = m.sample(Op::S3Put, 10 * 1024 * 1024, Cost::Point, 0.0);
        assert!(large > small);
    }

    #[test]
    fn jitter_draw_bounds_respected() {
        let m = LatencyModel::default();
        let lo = m.sample(Op::SdbQuery, 0, Cost::Point, 0.0);
        let hi = m.sample(Op::SdbQuery, 0, Cost::Point, 1.0);
        assert_eq!(
            hi.as_micros() - lo.as_micros(),
            m.simpledb.jitter.as_micros()
        );
        // Out-of-range draws clamp rather than extrapolate.
        assert_eq!(m.sample(Op::SdbQuery, 0, Cost::Point, 7.5), hi);
    }

    #[test]
    fn zero_payload_charges_no_transfer_term() {
        let m = LatencyModel::default();
        assert_eq!(m.sample(Op::S3Head, 0, Cost::Point, 0.0), m.s3.base);
    }

    #[test]
    fn batch_beats_point_ops_for_same_work() {
        // One 10-entry batch must be cheaper than 10 point round trips
        // moving the same payload — the tentpole claim in miniature.
        let m = LatencyModel::default();
        let point_total = m
            .sample(Op::SqsSendMessage, 1024, Cost::Point, 0.0)
            .saturating_mul(10);
        let batch = m.sample(Op::SqsSendMessageBatch, 10 * 1024, batch(10), 0.0);
        assert!(batch < point_total, "{batch:?} !< {point_total:?}");
    }

    #[test]
    fn batch_gating_entries_charge_marginally() {
        let m = LatencyModel::default();
        let one = m.sample(Op::SdbBatchPutAttributes, 0, batch(1), 0.0);
        let ten = m.sample(Op::SdbBatchPutAttributes, 0, batch(10), 0.0);
        assert_eq!(
            ten.as_micros() - one.as_micros(),
            m.simpledb.per_batch_entry.as_micros() * 9
        );
        // A zero-entry gate collapses to the plain request latency.
        assert_eq!(
            m.sample(Op::S3DeleteObjects, 0, batch(0), 0.0),
            m.sample(Op::S3DeleteObjects, 0, Cost::Point, 0.0)
        );
    }
}
