//! # costmodel — the January 2009 AWS price book
//!
//! Converts the operation/byte meters collected by [`simworld`] into US
//! dollars, using the prices the paper quotes in §2 (S3) and the public
//! AWS price list of the same date (SimpleDB, SQS):
//!
//! * **S3** — USD 0.15 per GB-month stored, 0.10/GB in, 0.17/GB out,
//!   0.01 per 1,000 PUT/COPY/POST/LIST, 0.01 per 10,000 GETs and other
//!   requests;
//! * **SimpleDB** — USD 0.14 per machine hour, 1.50 per GB-month, same
//!   transfer rates (machine hours are estimated from operation counts —
//!   the paper itself converts to op counts "to compare the
//!   architectures using uniform metrics");
//! * **SQS** — USD 0.01 per 10,000 requests, same transfer rates.
//!
//! The headline finding this supports (§5): "operations are much cheaper
//! (in USD) than storage in the AWS pricing model."
//!
//! # Examples
//!
//! ```
//! use costmodel::{cost_of, PriceBook};
//! use simworld::{MeterBook, Op, Service};
//!
//! let mut meters = MeterBook::new();
//! meters.record(Op::S3Put, 1 << 30, 0); // upload 1 GB
//! meters.adjust_stored(Service::S3, 1 << 30);
//! let report = cost_of(&meters.snapshot(), 1.0, &PriceBook::january_2009());
//! assert!((report.total() - 0.25) < 0.01); // ~$0.10 in + ~$0.15 stored
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use simworld::{MeterSnapshot, Op, Service};

const GB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Transfer and storage rates shared by the services.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransferRates {
    /// USD per GB transferred in.
    pub in_per_gb: f64,
    /// USD per GB transferred out (first tier).
    pub out_per_gb: f64,
}

/// The complete price book.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PriceBook {
    /// Transfer rates (identical across the three services in 2009).
    pub transfer: TransferRates,
    /// S3: USD per GB-month stored.
    pub s3_storage_per_gb_month: f64,
    /// S3: USD per 1,000 PUT/COPY/POST/LIST requests.
    pub s3_per_1k_put_class: f64,
    /// S3: USD per 10,000 GET-class requests.
    pub s3_per_10k_get_class: f64,
    /// SimpleDB: USD per machine hour.
    pub sdb_per_machine_hour: f64,
    /// SimpleDB: USD per GB-month stored.
    pub sdb_storage_per_gb_month: f64,
    /// SimpleDB: estimated machine hours per write operation
    /// (`PutAttributes`/`DeleteAttributes`). Amazon's published box-usage
    /// example for a small put; an approximation, as the paper notes.
    pub sdb_hours_per_write: f64,
    /// SimpleDB: estimated machine hours per read/query operation.
    pub sdb_hours_per_read: f64,
    /// SQS: USD per 10,000 requests.
    pub sqs_per_10k_requests: f64,
}

impl PriceBook {
    /// The January 2009 snapshot used throughout the paper.
    pub fn january_2009() -> PriceBook {
        PriceBook {
            transfer: TransferRates {
                in_per_gb: 0.10,
                out_per_gb: 0.17,
            },
            s3_storage_per_gb_month: 0.15,
            s3_per_1k_put_class: 0.01,
            s3_per_10k_get_class: 0.01,
            sdb_per_machine_hour: 0.14,
            sdb_storage_per_gb_month: 1.50,
            sdb_hours_per_write: 0.0000219907,
            sdb_hours_per_read: 0.0000093522,
            sqs_per_10k_requests: 0.01,
        }
    }
}

impl Default for PriceBook {
    fn default() -> Self {
        PriceBook::january_2009()
    }
}

/// Cost breakdown for one service, in USD.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceCost {
    /// Storage rent for the billing period.
    pub storage: f64,
    /// Inbound transfer.
    pub transfer_in: f64,
    /// Outbound transfer.
    pub transfer_out: f64,
    /// Request charges (or machine hours, for SimpleDB).
    pub requests: f64,
}

impl ServiceCost {
    /// Sum of the components.
    pub fn total(&self) -> f64 {
        self.storage + self.transfer_in + self.transfer_out + self.requests
    }
}

/// Full bill across the three services.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// S3 charges.
    pub s3: ServiceCost,
    /// SimpleDB charges.
    pub simpledb: ServiceCost,
    /// SQS charges.
    pub sqs: ServiceCost,
}

impl CostReport {
    /// Grand total in USD.
    pub fn total(&self) -> f64 {
        self.s3.total() + self.simpledb.total() + self.sqs.total()
    }

    /// Total request/compute charges (the "operations" the paper calls
    /// much cheaper than storage).
    pub fn operations_total(&self) -> f64 {
        self.s3.requests + self.simpledb.requests + self.sqs.requests
    }

    /// Total storage rent.
    pub fn storage_total(&self) -> f64 {
        self.s3.storage + self.simpledb.storage + self.sqs.storage
    }
}

/// Prices a metering snapshot: request/transfer charges from the
/// counters, storage rent from the stored-bytes gauges over
/// `months_stored`.
pub fn cost_of(snapshot: &MeterSnapshot, months_stored: f64, book: &PriceBook) -> CostReport {
    let mut report = CostReport::default();

    for service in Service::ALL {
        let meter = snapshot.service(service);
        let cost = match service {
            Service::S3 => &mut report.s3,
            Service::SimpleDb => &mut report.simpledb,
            Service::Sqs => &mut report.sqs,
        };
        cost.transfer_in = meter.bytes_in as f64 / GB * book.transfer.in_per_gb;
        cost.transfer_out = meter.bytes_out as f64 / GB * book.transfer.out_per_gb;
        let storage_rate = match service {
            Service::S3 => book.s3_storage_per_gb_month,
            Service::SimpleDb => book.sdb_storage_per_gb_month,
            Service::Sqs => book.s3_storage_per_gb_month, // SQS billed like S3 storage
        };
        cost.storage = meter.stored_bytes as f64 / GB * storage_rate * months_stored;
    }

    // Request charges.
    let mut s3_put_class = 0u64;
    let mut s3_get_class = 0u64;
    let mut sdb_writes = 0u64;
    let mut sdb_reads = 0u64;
    let mut sqs_requests = 0u64;
    for (op, count) in snapshot.iter_ops() {
        match op.service() {
            Service::S3 => {
                if op.is_s3_put_class() {
                    s3_put_class += count;
                } else {
                    s3_get_class += count;
                }
            }
            Service::SimpleDb => match op {
                // A batch is one billable write request however many
                // items it carries — this is the measurable form of the
                // paper's ship-provenance-in-few-round-trips argument.
                Op::SdbPutAttributes
                | Op::SdbBatchPutAttributes
                | Op::SdbBatchDeleteAttributes
                | Op::SdbDeleteAttributes
                | Op::SdbCreateDomain => sdb_writes += count,
                _ => sdb_reads += count,
            },
            Service::Sqs => sqs_requests += count,
        }
    }
    report.s3.requests = s3_put_class as f64 / 1_000.0 * book.s3_per_1k_put_class
        + s3_get_class as f64 / 10_000.0 * book.s3_per_10k_get_class;
    let machine_hours =
        sdb_writes as f64 * book.sdb_hours_per_write + sdb_reads as f64 * book.sdb_hours_per_read;
    report.simpledb.requests = machine_hours * book.sdb_per_machine_hour;
    report.sqs.requests = sqs_requests as f64 / 10_000.0 * book.sqs_per_10k_requests;
    report
}

/// Formats USD amounts the way the paper's discussion reads naturally
/// (four decimal places; operations are fractions of a cent).
pub fn format_usd(amount: f64) -> String {
    format!("${amount:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simworld::MeterBook;

    fn snapshot_with(f: impl FnOnce(&mut MeterBook)) -> MeterSnapshot {
        let mut book = MeterBook::new();
        f(&mut book);
        book.snapshot()
    }

    #[test]
    fn s3_put_class_vs_get_class_rates() {
        let snap = snapshot_with(|b| {
            for _ in 0..1_000 {
                b.record(Op::S3Put, 0, 0);
            }
            for _ in 0..10_000 {
                b.record(Op::S3Get, 0, 0);
            }
        });
        let report = cost_of(&snap, 0.0, &PriceBook::january_2009());
        // 1,000 PUTs = $0.01; 10,000 GETs = $0.01.
        assert!((report.s3.requests - 0.02).abs() < 1e-9);
    }

    #[test]
    fn transfer_charges_match_paper_rates() {
        let snap = snapshot_with(|b| {
            b.record(Op::S3Put, 1 << 30, 0); // 1 GB in
            b.record(Op::S3Get, 0, 1 << 30); // 1 GB out
        });
        let report = cost_of(&snap, 0.0, &PriceBook::january_2009());
        assert!((report.s3.transfer_in - 0.10).abs() < 1e-9);
        assert!((report.s3.transfer_out - 0.17).abs() < 1e-9);
    }

    #[test]
    fn storage_rent_scales_with_months() {
        let snap = snapshot_with(|b| b.adjust_stored(Service::S3, 1 << 30));
        let book = PriceBook::january_2009();
        let one = cost_of(&snap, 1.0, &book);
        let three = cost_of(&snap, 3.0, &book);
        assert!((one.s3.storage - 0.15).abs() < 1e-9);
        assert!((three.s3.storage - 0.45).abs() < 1e-9);
    }

    #[test]
    fn simpledb_bills_machine_hours() {
        let snap = snapshot_with(|b| {
            for _ in 0..100_000 {
                b.record(Op::SdbPutAttributes, 0, 0);
            }
        });
        let report = cost_of(&snap, 0.0, &PriceBook::january_2009());
        let expected = 100_000.0 * 0.0000219907 * 0.14;
        assert!((report.simpledb.requests - expected).abs() < 1e-9);
    }

    #[test]
    fn sqs_requests_rate() {
        let snap = snapshot_with(|b| {
            for _ in 0..20_000 {
                b.record(Op::SqsSendMessage, 0, 0);
            }
        });
        let report = cost_of(&snap, 0.0, &PriceBook::january_2009());
        assert!((report.sqs.requests - 0.02).abs() < 1e-9);
    }

    #[test]
    fn batches_bill_one_request_each() {
        // 1,000 messages as point sends vs 100 full batches: the batch
        // path must cost exactly 10x less in request charges, because a
        // batch is one billable request however many entries it carries.
        let point = snapshot_with(|b| {
            for _ in 0..1_000 {
                b.record(Op::SqsSendMessage, 100, 0);
            }
        });
        let batched = snapshot_with(|b| {
            for _ in 0..100 {
                b.record_batch(Op::SqsSendMessageBatch, 10, 1000, 0);
            }
        });
        let book = PriceBook::january_2009();
        let point_cost = cost_of(&point, 0.0, &book);
        let batch_cost = cost_of(&batched, 0.0, &book);
        assert!((point_cost.sqs.requests - 10.0 * batch_cost.sqs.requests).abs() < 1e-9);
        // Transfer charges stay identical: the same bytes moved.
        assert!((point_cost.sqs.transfer_in - batch_cost.sqs.transfer_in).abs() < 1e-12);
    }

    #[test]
    fn simpledb_batch_is_one_write_request() {
        let snap = snapshot_with(|b| {
            b.record_batch(Op::SdbBatchPutAttributes, 25, 0, 0);
            b.record_batch(Op::SdbBatchDeleteAttributes, 25, 0, 0);
        });
        let report = cost_of(&snap, 0.0, &PriceBook::january_2009());
        let expected = 2.0 * 0.0000219907 * 0.14; // two write requests
        assert!((report.simpledb.requests - expected).abs() < 1e-12);
    }

    #[test]
    fn multi_object_delete_bills_put_class_once() {
        // 1,000 point deletes (get class) cost $0.001; one multi-delete
        // of the same keys is a single put-class POST at $0.00001.
        let point = snapshot_with(|b| {
            for _ in 0..1_000 {
                b.record(Op::S3Delete, 0, 0);
            }
        });
        let batched = snapshot_with(|b| b.record_batch(Op::S3DeleteObjects, 1_000, 0, 0));
        let book = PriceBook::january_2009();
        let point_cost = cost_of(&point, 0.0, &book).s3.requests;
        let batch_cost = cost_of(&batched, 0.0, &book).s3.requests;
        assert!((point_cost - 0.001).abs() < 1e-9);
        assert!((batch_cost - 0.00001).abs() < 1e-9);
        assert!(batch_cost * 10.0 <= point_cost);
    }

    #[test]
    fn operations_are_much_cheaper_than_storage() {
        // The paper's qualitative claim, checked on a representative mix:
        // storing 1 GB for a month vs performing 10,000 mixed ops.
        let snap = snapshot_with(|b| {
            b.adjust_stored(Service::S3, 1 << 30);
            for _ in 0..5_000 {
                b.record(Op::S3Put, 0, 0);
                b.record(Op::SdbPutAttributes, 0, 0);
            }
        });
        let report = cost_of(&snap, 1.0, &PriceBook::january_2009());
        assert!(report.operations_total() < report.storage_total());
    }

    #[test]
    fn totals_add_up() {
        let snap = snapshot_with(|b| {
            b.record(Op::S3Put, 1000, 0);
            b.record(Op::SqsSendMessage, 100, 0);
            b.adjust_stored(Service::SimpleDb, 1 << 20);
        });
        let report = cost_of(&snap, 2.0, &PriceBook::january_2009());
        let sum = report.s3.total() + report.simpledb.total() + report.sqs.total();
        assert!((report.total() - sum).abs() < 1e-12);
    }

    #[test]
    fn format_usd_is_stable() {
        assert_eq!(format_usd(0.25), "$0.2500");
        assert_eq!(format_usd(0.0), "$0.0000");
    }
}
