//! Operation and transfer metering.
//!
//! Amazon bills by the number of operations, the bytes moved in and out,
//! and the bytes stored — so the paper compares its three architectures on
//! exactly those axes (Tables 2 and 3). Every simulated service reports
//! each API call here, and the analysis harness reads the counters back
//! out as [`MeterSnapshot`]s that can be subtracted to isolate a phase.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Sub;

use serde::{Deserialize, Serialize};

/// The simulated AWS service an operation ran against.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Service {
    /// Simple Storage Service.
    S3,
    /// SimpleDB.
    SimpleDb,
    /// Simple Queueing Service.
    Sqs,
}

impl Service {
    /// All services, in display order.
    pub const ALL: [Service; 3] = [Service::S3, Service::SimpleDb, Service::Sqs];
}

impl fmt::Display for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Service::S3 => "S3",
            Service::SimpleDb => "SimpleDB",
            Service::Sqs => "SQS",
        })
    }
}

/// A billable API call, tagged by service.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Op {
    /// S3 `PUT Object` (stores data plus up to 2 KB of metadata).
    S3Put,
    /// S3 `GET Object`.
    S3Get,
    /// S3 `HEAD Object` (metadata only).
    S3Head,
    /// S3 `PUT Object - Copy`.
    S3Copy,
    /// S3 `DELETE Object`.
    S3Delete,
    /// S3 multi-object delete (`POST ?delete`, ≤ 1,000 keys per
    /// request): one billable request however many keys it carries.
    S3DeleteObjects,
    /// S3 `GET Bucket` (list objects).
    S3List,
    /// SimpleDB `PutAttributes` (≤ 100 attributes per call).
    SdbPutAttributes,
    /// SimpleDB `BatchPutAttributes` (≤ 25 items per call): one billable
    /// request however many items it carries.
    SdbBatchPutAttributes,
    /// SimpleDB `GetAttributes`.
    SdbGetAttributes,
    /// SimpleDB `DeleteAttributes`.
    SdbDeleteAttributes,
    /// SimpleDB `Query` (item names only).
    SdbQuery,
    /// SimpleDB `QueryWithAttributes`.
    SdbQueryWithAttributes,
    /// SimpleDB `CreateDomain`.
    SdbCreateDomain,
    /// SQS `CreateQueue`.
    SqsCreateQueue,
    /// SQS `SendMessage` (≤ 8 KB body).
    SqsSendMessage,
    /// SQS `SendMessageBatch` (≤ 10 entries per call): one billable
    /// request however many entries it carries.
    SqsSendMessageBatch,
    /// SQS `DeleteMessageBatch` (≤ 10 receipt handles per call).
    SqsDeleteMessageBatch,
    /// SQS `ReceiveMessage` (≤ 10 messages, sampled).
    SqsReceiveMessage,
    /// SQS `DeleteMessage` (by receipt handle).
    SqsDeleteMessage,
    /// SQS `GetQueueAttributes` (e.g. `ApproximateNumberOfMessages`).
    SqsGetQueueAttributes,
}

impl Op {
    /// Which service bills this op.
    pub fn service(self) -> Service {
        use Op::*;
        match self {
            S3Put | S3Get | S3Head | S3Copy | S3Delete | S3DeleteObjects | S3List => Service::S3,
            SdbPutAttributes
            | SdbBatchPutAttributes
            | SdbGetAttributes
            | SdbDeleteAttributes
            | SdbQuery
            | SdbQueryWithAttributes
            | SdbCreateDomain => Service::SimpleDb,
            SqsCreateQueue
            | SqsSendMessage
            | SqsSendMessageBatch
            | SqsReceiveMessage
            | SqsDeleteMessage
            | SqsDeleteMessageBatch
            | SqsGetQueueAttributes => Service::Sqs,
        }
    }

    /// `true` for the ops S3 bills at the PUT/COPY/POST/LIST rate
    /// (USD 0.01 per 1,000); the rest of the S3 ops bill at the GET rate
    /// (USD 0.01 per 10,000). Multi-object delete is a POST, so it lands
    /// in the put class — one put-class request per 1,000 keys still
    /// undercuts 1,000 get-class singles by 10x.
    pub fn is_s3_put_class(self) -> bool {
        matches!(
            self,
            Op::S3Put | Op::S3Copy | Op::S3List | Op::S3DeleteObjects
        )
    }

    /// `true` for the batch ops: one billable request carrying many
    /// entries (the entry counts live in
    /// [`ServiceMeter::batch_entries`]).
    pub fn is_batch(self) -> bool {
        matches!(
            self,
            Op::S3DeleteObjects
                | Op::SdbBatchPutAttributes
                | Op::SqsSendMessageBatch
                | Op::SqsDeleteMessageBatch
        )
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Totals for one service.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct ServiceMeter {
    /// Count per op kind.
    pub ops: BTreeMap<Op, u64>,
    /// Bytes transferred into the service (request payloads).
    pub bytes_in: u64,
    /// Bytes transferred out of the service (response payloads).
    pub bytes_out: u64,
    /// Bytes currently stored (gauge, not a counter).
    pub stored_bytes: u64,
    /// How many operations touched each storage shard of the service
    /// (sharded backends only; single-shard ops land on shard 0). A
    /// point read/write touches one shard; a fan-out query touches all
    /// of them — the skew of this map is the load-balance picture.
    pub shard_ops: BTreeMap<u32, u64>,
    /// Total entries carried by batch requests, per batch op kind. A
    /// batch increments `ops` once (one billable request) and this map
    /// by its entry count, so `batch_entries / ops` is the realised
    /// batch fill — the number the paper's round-trip argument turns on.
    pub batch_entries: BTreeMap<Op, u64>,
}

impl ServiceMeter {
    /// Total operation count across all kinds.
    pub fn total_ops(&self) -> u64 {
        self.ops.values().sum()
    }

    /// Count for one op kind.
    pub fn op_count(&self, op: Op) -> u64 {
        self.ops.get(&op).copied().unwrap_or(0)
    }

    /// Operations that touched one shard.
    pub fn shard_op_count(&self, shard: u32) -> u64 {
        self.shard_ops.get(&shard).copied().unwrap_or(0)
    }

    /// Entries shipped through one batch op kind.
    pub fn batch_entry_count(&self, op: Op) -> u64 {
        self.batch_entries.get(&op).copied().unwrap_or(0)
    }
}

/// The ledger for the whole simulated cloud.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct MeterBook {
    s3: ServiceMeter,
    simpledb: ServiceMeter,
    sqs: ServiceMeter,
}

impl MeterBook {
    /// Creates an empty ledger.
    pub fn new() -> MeterBook {
        MeterBook::default()
    }

    /// Records one API call.
    pub fn record(&mut self, op: Op, bytes_in: u64, bytes_out: u64) {
        let meter = self.service_mut(op.service());
        *meter.ops.entry(op).or_insert(0) += 1;
        meter.bytes_in += bytes_in;
        meter.bytes_out += bytes_out;
    }

    /// Records one batch API call: a single billable request (op count,
    /// transfer bytes) plus the number of entries it carried.
    pub fn record_batch(&mut self, op: Op, entries: u64, bytes_in: u64, bytes_out: u64) {
        self.record(op, bytes_in, bytes_out);
        *self
            .service_mut(op.service())
            .batch_entries
            .entry(op)
            .or_insert(0) += entries;
    }

    /// Records that an operation touched each of `shards` of `service`'s
    /// storage. Point ops report their single shard; fan-out queries
    /// report every shard they read — all the shards counted so far, in
    /// order, once the first fan-out has run, so that case takes one walk.
    pub fn record_shard_touches(&mut self, service: Service, shards: &[u32]) {
        let ops = &mut self.service_mut(service).shard_ops;
        if shards.len() == ops.len() && shards.iter().eq(ops.keys()) {
            ops.values_mut().for_each(|n| *n += 1);
            return;
        }
        for &shard in shards {
            *ops.entry(shard).or_insert(0) += 1;
        }
    }

    /// Adjusts the stored-bytes gauge for `service` by `delta`.
    pub fn adjust_stored(&mut self, service: Service, delta: i64) {
        let meter = self.service_mut(service);
        meter.stored_bytes = meter
            .stored_bytes
            .checked_add_signed(delta)
            .expect("stored-bytes gauge must never go negative");
    }

    /// Read-only view of one service's totals.
    pub fn service(&self, service: Service) -> &ServiceMeter {
        match service {
            Service::S3 => &self.s3,
            Service::SimpleDb => &self.simpledb,
            Service::Sqs => &self.sqs,
        }
    }

    fn service_mut(&mut self, service: Service) -> &mut ServiceMeter {
        match service {
            Service::S3 => &mut self.s3,
            Service::SimpleDb => &mut self.simpledb,
            Service::Sqs => &mut self.sqs,
        }
    }

    /// A copyable snapshot of the ledger.
    pub fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot { book: self.clone() }
    }
}

/// A point-in-time copy of the ledger; snapshots subtract to isolate a
/// phase of an experiment.
///
/// # Examples
///
/// ```
/// use simworld::{MeterBook, MeterSnapshot, Op};
///
/// let mut book = MeterBook::new();
/// let before = book.snapshot();
/// book.record(Op::S3Put, 100, 0);
/// let after = book.snapshot();
/// let phase = after - before;
/// assert_eq!(phase.op_count(Op::S3Put), 1);
/// assert_eq!(phase.bytes_in(), 100);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct MeterSnapshot {
    book: MeterBook,
}

impl MeterSnapshot {
    /// Total ops across all services.
    pub fn total_ops(&self) -> u64 {
        Service::ALL
            .iter()
            .map(|s| self.book.service(*s).total_ops())
            .sum()
    }

    /// Ops for one service.
    pub fn service_ops(&self, service: Service) -> u64 {
        self.book.service(service).total_ops()
    }

    /// Count of one op kind.
    pub fn op_count(&self, op: Op) -> u64 {
        self.book.service(op.service()).op_count(op)
    }

    /// Bytes in across all services.
    pub fn bytes_in(&self) -> u64 {
        Service::ALL
            .iter()
            .map(|s| self.book.service(*s).bytes_in)
            .sum()
    }

    /// Bytes out across all services.
    pub fn bytes_out(&self) -> u64 {
        Service::ALL
            .iter()
            .map(|s| self.book.service(*s).bytes_out)
            .sum()
    }

    /// Bytes currently stored on one service.
    pub fn stored_bytes(&self, service: Service) -> u64 {
        self.book.service(service).stored_bytes
    }

    /// Per-service view.
    pub fn service(&self, service: Service) -> &ServiceMeter {
        self.book.service(service)
    }

    /// Operations that touched one storage shard of `service`.
    pub fn shard_op_count(&self, service: Service, shard: u32) -> u64 {
        self.book.service(service).shard_op_count(shard)
    }

    /// Entries shipped through one batch op kind.
    pub fn batch_entry_count(&self, op: Op) -> u64 {
        self.book.service(op.service()).batch_entry_count(op)
    }

    /// Iterates `(op, count)` over every nonzero counter.
    pub fn iter_ops(&self) -> impl Iterator<Item = (Op, u64)> + '_ {
        Service::ALL
            .iter()
            .flat_map(move |s| self.book.service(*s).ops.iter().map(|(op, n)| (*op, *n)))
    }
}

impl Sub for MeterSnapshot {
    type Output = MeterSnapshot;

    /// Difference of two snapshots: op counters and transfer counters
    /// subtract (saturating); the stored-bytes gauge keeps the newer value.
    fn sub(self, earlier: MeterSnapshot) -> MeterSnapshot {
        let mut out = self.clone();
        for service in Service::ALL {
            let now = self.book.service(service);
            let then = earlier.book.service(service);
            let meter = out.book.service_mut(service);
            meter.bytes_in = now.bytes_in.saturating_sub(then.bytes_in);
            meter.bytes_out = now.bytes_out.saturating_sub(then.bytes_out);
            meter.stored_bytes = now.stored_bytes;
            meter.ops = now
                .ops
                .iter()
                .map(|(op, n)| (*op, n.saturating_sub(then.op_count(*op))))
                .filter(|(_, n)| *n > 0)
                .collect();
            meter.shard_ops = now
                .shard_ops
                .iter()
                .map(|(shard, n)| (*shard, n.saturating_sub(then.shard_op_count(*shard))))
                .filter(|(_, n)| *n > 0)
                .collect();
            meter.batch_entries = now
                .batch_entries
                .iter()
                .map(|(op, n)| (*op, n.saturating_sub(then.batch_entry_count(*op))))
                .filter(|(_, n)| *n > 0)
                .collect();
        }
        out
    }
}

/// Pretty-prints byte counts the way the paper does (`121.8MB`, `1.27GB`).
pub fn format_bytes(bytes: u64) -> String {
    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= GB {
        format!("{:.2}GB", b / GB)
    } else if b >= MB {
        format!("{:.1}MB", b / MB)
    } else if b >= KB {
        format!("{:.1}KB", b / KB)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_service() {
        let mut book = MeterBook::new();
        book.record(Op::S3Put, 10, 0);
        book.record(Op::S3Put, 20, 0);
        book.record(Op::SqsSendMessage, 5, 0);
        assert_eq!(book.service(Service::S3).op_count(Op::S3Put), 2);
        assert_eq!(book.service(Service::S3).bytes_in, 30);
        assert_eq!(book.service(Service::Sqs).bytes_in, 5);
        assert_eq!(book.service(Service::SimpleDb).total_ops(), 0);
    }

    #[test]
    fn snapshot_subtraction_isolates_phase() {
        let mut book = MeterBook::new();
        book.record(Op::S3Put, 100, 0);
        let mid = book.snapshot();
        book.record(Op::S3Put, 50, 0);
        book.record(Op::S3Get, 0, 75);
        let end = book.snapshot();
        let phase = end - mid;
        assert_eq!(phase.op_count(Op::S3Put), 1);
        assert_eq!(phase.op_count(Op::S3Get), 1);
        assert_eq!(phase.bytes_in(), 50);
        assert_eq!(phase.bytes_out(), 75);
    }

    #[test]
    fn stored_gauge_tracks_deltas() {
        let mut book = MeterBook::new();
        book.adjust_stored(Service::S3, 1000);
        book.adjust_stored(Service::S3, -400);
        assert_eq!(book.snapshot().stored_bytes(Service::S3), 600);
    }

    #[test]
    #[should_panic(expected = "never go negative")]
    fn stored_gauge_underflow_panics() {
        let mut book = MeterBook::new();
        book.adjust_stored(Service::Sqs, -1);
    }

    #[test]
    fn op_service_mapping_is_total() {
        // Every op maps to the service its name implies.
        assert_eq!(Op::S3Copy.service(), Service::S3);
        assert_eq!(Op::SdbQuery.service(), Service::SimpleDb);
        assert_eq!(Op::SqsReceiveMessage.service(), Service::Sqs);
    }

    #[test]
    fn s3_put_class_matches_price_book() {
        assert!(Op::S3Put.is_s3_put_class());
        assert!(Op::S3Copy.is_s3_put_class());
        assert!(Op::S3List.is_s3_put_class());
        assert!(!Op::S3Get.is_s3_put_class());
        assert!(!Op::S3Head.is_s3_put_class());
        assert!(!Op::S3Delete.is_s3_put_class());
    }

    #[test]
    fn format_bytes_matches_paper_style() {
        assert_eq!(format_bytes(500), "500B");
        assert_eq!(format_bytes(2 * 1024), "2.0KB");
        assert_eq!(format_bytes((121.8 * 1024.0 * 1024.0) as u64), "121.8MB");
        assert_eq!(
            format_bytes((1.27 * 1024.0 * 1024.0 * 1024.0) as u64),
            "1.27GB"
        );
    }

    #[test]
    fn shard_touches_accumulate_and_subtract() {
        let mut book = MeterBook::new();
        book.record_shard_touches(Service::SimpleDb, &[0, 3]);
        book.record_shard_touches(Service::SimpleDb, &[3]);
        let mid = book.snapshot();
        assert_eq!(mid.shard_op_count(Service::SimpleDb, 3), 2);
        assert_eq!(mid.shard_op_count(Service::SimpleDb, 1), 0);
        assert_eq!(mid.shard_op_count(Service::S3, 0), 0);
        book.record_shard_touches(Service::SimpleDb, &[3]);
        let phase = book.snapshot() - mid;
        assert_eq!(phase.shard_op_count(Service::SimpleDb, 3), 1);
        assert_eq!(phase.shard_op_count(Service::SimpleDb, 0), 0);
        // A fan-out over exactly the shards counted so far, and one over
        // more of them, count as the touches one by one would.
        book.record_shard_touches(Service::SimpleDb, &[0, 3]);
        book.record_shard_touches(Service::SimpleDb, &[0, 1, 3]);
        let counts: Vec<u64> = (0..4)
            .map(|s| book.snapshot().shard_op_count(Service::SimpleDb, s))
            .collect();
        assert_eq!(counts, [3, 1, 0, 5]);
    }

    #[test]
    fn batch_records_one_op_many_entries() {
        let mut book = MeterBook::new();
        book.record_batch(Op::SqsSendMessageBatch, 10, 4096, 0);
        book.record_batch(Op::SqsSendMessageBatch, 7, 2048, 0);
        let snap = book.snapshot();
        assert_eq!(snap.op_count(Op::SqsSendMessageBatch), 2);
        assert_eq!(snap.batch_entry_count(Op::SqsSendMessageBatch), 17);
        assert_eq!(snap.bytes_in(), 6144);
        assert_eq!(snap.batch_entry_count(Op::S3DeleteObjects), 0);
    }

    #[test]
    fn batch_entries_subtract_per_phase() {
        let mut book = MeterBook::new();
        book.record_batch(Op::SdbBatchPutAttributes, 25, 0, 0);
        let mid = book.snapshot();
        book.record_batch(Op::SdbBatchPutAttributes, 5, 0, 0);
        let phase = book.snapshot() - mid;
        assert_eq!(phase.op_count(Op::SdbBatchPutAttributes), 1);
        assert_eq!(phase.batch_entry_count(Op::SdbBatchPutAttributes), 5);
    }

    #[test]
    fn batch_op_classification() {
        assert!(Op::S3DeleteObjects.is_batch());
        assert!(Op::SdbBatchPutAttributes.is_batch());
        assert!(Op::SqsSendMessageBatch.is_batch());
        assert!(Op::SqsDeleteMessageBatch.is_batch());
        assert!(!Op::S3Delete.is_batch());
        assert!(!Op::SqsSendMessage.is_batch());
        // Multi-object delete is a POST: put class.
        assert!(Op::S3DeleteObjects.is_s3_put_class());
        assert_eq!(Op::S3DeleteObjects.service(), Service::S3);
        assert_eq!(Op::SdbBatchPutAttributes.service(), Service::SimpleDb);
        assert_eq!(Op::SqsDeleteMessageBatch.service(), Service::Sqs);
    }

    #[test]
    fn iter_ops_lists_nonzero_counters() {
        let mut book = MeterBook::new();
        book.record(Op::SdbQuery, 0, 10);
        book.record(Op::SdbQuery, 0, 10);
        let snap = book.snapshot();
        let collected: Vec<_> = snap.iter_ops().collect();
        assert_eq!(collected, vec![(Op::SdbQuery, 2)]);
    }
}
