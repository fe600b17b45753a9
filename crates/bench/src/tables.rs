//! Regeneration of the paper's Tables 1–3 and the §5 USD analysis.

use costmodel::{cost_of, PriceBook};
use provenance_cloud::{ArchKind, PropertyMatrix, ProvQuery, Result};
use serde::{Deserialize, Serialize};
use simworld::MeterSnapshot;
use workloads::Combined;

use crate::harness::{
    bytes, count, metered, percent, persist_dataset, persist_raw_baseline, ratio,
};

/// The program Q2/Q3 target — "outputs of blast" in the paper.
pub const QUERY_PROGRAM: &str = "blastall";

// ---------------------------------------------------------------- Table 1

/// Runs the measured property matrix and renders it next to the paper's
/// check marks.
///
/// # Errors
///
/// Service errors from the validators.
pub fn table1(seed: u64) -> Result<(Vec<PropertyMatrix>, String)> {
    let matrix = provenance_cloud::full_property_table(seed)?;
    let mark = |b: bool| if b { "yes" } else { " no" };
    let mut out = String::new();
    out.push_str("Table 1: Properties comparison (measured by fault injection)\n");
    out.push_str("                       Read Correctness        Causal    Efficient\n");
    out.push_str("Architecture           Atomicity  Consistency  Ordering  Query      (paper)\n");
    let paper = ["yes yes yes  no", " no yes yes yes", "yes yes yes yes"];
    for (row, expect) in matrix.iter().zip(paper) {
        out.push_str(&format!(
            "{:<22} {:>9}  {:>11}  {:>8}  {:>5}      [{expect}]\n",
            row.architecture,
            mark(row.atomicity),
            mark(row.consistency),
            mark(row.causal_ordering),
            mark(row.efficient_query),
        ));
    }
    Ok((matrix, out))
}

// ---------------------------------------------------------------- Table 2

/// One architecture's storage-cost measurements.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageRow {
    /// Architecture label.
    pub architecture: String,
    /// Bytes attributable to provenance (transfer accounting, matching
    /// the paper's `2·S_SQS + S_SimpleDB` style formulas).
    pub provenance_bytes: u64,
    /// Operations attributable to provenance (total minus the raw data
    /// PUTs).
    pub provenance_ops: u64,
}

/// The measured Table 2.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table2 {
    /// Raw dataset bytes (the paper's 1.27 GB).
    pub raw_bytes: u64,
    /// Raw data PUTs (the paper's 31,180).
    pub raw_ops: u64,
    /// Per-architecture overheads, in paper order.
    pub rows: Vec<StorageRow>,
}

impl Table2 {
    /// Renders the table with the paper's reference values.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Table 2: Storage cost comparison\n");
        out.push_str(&format!(
            "{:<8} {:>14} {:>22} {:>22} {:>22}\n",
            "", "Raw", "S3", "S3+SimpleDB", "S3+SimpleDB+SQS"
        ));
        out.push_str(&format!("{:<8} {:>14}", "Data", bytes(self.raw_bytes)));
        for row in &self.rows {
            out.push_str(&format!(
                " {:>13} ({:>6})",
                bytes(row.provenance_bytes),
                percent(row.provenance_bytes, self.raw_bytes)
            ));
        }
        out.push('\n');
        out.push_str(&format!("{:<8} {:>14}", "ops", count(self.raw_ops)));
        for row in &self.rows {
            out.push_str(&format!(
                " {:>13} ({:>6})",
                count(row.provenance_ops),
                ratio(row.provenance_ops, self.raw_ops)
            ));
        }
        out.push('\n');
        out.push_str(
            "paper:   1.27GB raw/31,180 ops; prov 121.8MB (9.3%) / 24,952 (0.8x);\n         \
             167.8MB (13.6%) / 168,514 (5.4x); 421.4MB (32.2%) / 231,287 (7.41x)\n",
        );
        out
    }
}

/// Measures Table 2 on `dataset`.
///
/// # Errors
///
/// Service errors.
pub fn table2(dataset: &Combined) -> Result<Table2> {
    let (raw_meters, stats) = persist_raw_baseline(dataset)?;
    let raw_bytes = stats.raw_data_bytes;
    let raw_ops = raw_meters.total_ops();
    let mut rows = Vec::new();
    for kind in ArchKind::ALL {
        let persisted = persist_dataset(kind, dataset)?;
        let m = &persisted.persist_meters;
        let transferred = m.bytes_in() + m.bytes_out();
        rows.push(StorageRow {
            architecture: kind.label().to_string(),
            provenance_bytes: transferred.saturating_sub(raw_bytes),
            provenance_ops: m.total_ops().saturating_sub(raw_ops),
        });
    }
    Ok(Table2 {
        raw_bytes,
        raw_ops,
        rows,
    })
}

// ---------------------------------------------------------------- Table 3

/// Measurements for one query on one engine.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryCell {
    /// Bytes returned out of the cloud.
    pub data_out: u64,
    /// Operations executed.
    pub ops: u64,
    /// Result-set size (sanity anchor; equal across engines).
    pub results: u64,
}

/// The measured Table 3: rows Q1/Q2/Q3 × columns S3/SimpleDB.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table3 {
    /// Q1 on the S3 engine / the SimpleDB engine.
    pub q1: (QueryCell, QueryCell),
    /// Q2 likewise.
    pub q2: (QueryCell, QueryCell),
    /// Q3 likewise.
    pub q3: (QueryCell, QueryCell),
}

impl Table3 {
    /// Renders the table with the paper's reference values.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Table 3: Query comparison (S3 engine vs SimpleDB engine)\n");
        out.push_str(&format!(
            "{:<6} {:>12} {:>10} {:>6} {:>12} {:>10} {:>6}\n",
            "Query", "S3 data", "S3 ops", "hits", "SDB data", "SDB ops", "hits"
        ));
        for (label, (s3, sdb)) in [("Q.1", &self.q1), ("Q.2", &self.q2), ("Q.3", &self.q3)] {
            out.push_str(&format!(
                "{:<6} {:>12} {:>10} {:>6} {:>12} {:>10} {:>6}\n",
                label,
                bytes(s3.data_out),
                count(s3.ops),
                s3.results,
                bytes(sdb.data_out),
                count(sdb.ops),
                sdb.results,
            ));
        }
        out.push_str(
            "paper: Q.1 121.8MB/56,132 vs 51.24MB/71,825; Q.2 121.8MB/56,132 vs 2.8KB/6;\n       \
             Q.3 121.8MB/56,132 vs 13.8KB/31\n",
        );
        out
    }
}

fn run_query(
    store: &mut dyn provenance_cloud::ProvenanceStore,
    world: &simworld::SimWorld,
    query: &ProvQuery,
) -> Result<QueryCell> {
    let (answer, delta, _) = metered(world, || store.query(query))?;
    Ok(QueryCell {
        data_out: delta.bytes_out(),
        ops: delta.total_ops(),
        results: answer.len() as u64,
    })
}

/// Measures Table 3 on `dataset`: the same three queries against the
/// S3-only store and the SimpleDB-backed store (Architectures 2 and 3
/// share the SimpleDB numbers, as the paper notes).
///
/// # Errors
///
/// Service errors.
pub fn table3(dataset: &Combined) -> Result<Table3> {
    let mut s3_store = persist_dataset(ArchKind::S3, dataset)?;
    let mut sdb_store = persist_dataset(ArchKind::S3SimpleDb, dataset)?;

    let queries = [
        ProvQuery::ProvenanceOfAll,
        ProvQuery::OutputsOf {
            program: QUERY_PROGRAM.to_string(),
        },
        ProvQuery::DescendantsOf {
            program: QUERY_PROGRAM.to_string(),
        },
    ];
    let mut cells = Vec::new();
    for query in &queries {
        let s3 = run_query(s3_store.store.as_mut(), &s3_store.world, query)?;
        let sdb = run_query(sdb_store.store.as_mut(), &sdb_store.world, query)?;
        cells.push((s3, sdb));
    }
    let mut it = cells.into_iter();
    Ok(Table3 {
        q1: it.next().expect("three queries"),
        q2: it.next().expect("three queries"),
        q3: it.next().expect("three queries"),
    })
}

// ------------------------------------------------------------------ Costs

/// USD bill for one architecture's persist phase plus one month of
/// storage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostResults {
    /// `(architecture, storage USD, operations USD, transfer USD, total)`
    pub rows: Vec<(String, f64, f64, f64, f64)>,
}

impl CostResults {
    /// Renders the USD table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("USD cost of storing the dataset (one month, Jan 2009 prices)\n");
        out.push_str(&format!(
            "{:<18} {:>10} {:>12} {:>10} {:>10}\n",
            "Architecture", "storage", "operations", "transfer", "total"
        ));
        for (label, storage, ops, transfer, total) in &self.rows {
            out.push_str(&format!(
                "{label:<18} {storage:>10.4} {ops:>12.4} {transfer:>10.4} {total:>10.4}\n"
            ));
        }
        out.push_str(
            "paper (qualitative): operations are much cheaper than storage; see\n\
             EXPERIMENTS.md for how that claim fares at each dataset scale\n",
        );
        out
    }

    /// The share of the total bill going to operation charges, for one
    /// row. The paper's §5 observation ("operations are much cheaper
    /// than storage") is about the *marginal* price of an op versus a
    /// stored gigabyte; whether op charges or storage rent dominate a
    /// given bill depends on dataset size, so we report the share and
    /// let EXPERIMENTS.md discuss it.
    pub fn operations_share(&self, row: usize) -> f64 {
        let (_, _, ops, _, total) = self.rows[row];
        if total == 0.0 {
            0.0
        } else {
            ops / total
        }
    }
}

fn bill(meters: &MeterSnapshot) -> (f64, f64, f64, f64) {
    let report = cost_of(meters, 1.0, &PriceBook::january_2009());
    let storage = report.storage_total();
    let ops = report.operations_total();
    let transfer = report.total() - storage - ops;
    (storage, ops, transfer, report.total())
}

/// Prices the persist phase of every architecture.
///
/// # Errors
///
/// Service errors.
pub fn costs(dataset: &Combined) -> Result<CostResults> {
    let mut rows = Vec::new();
    let (raw_meters, _) = persist_raw_baseline(dataset)?;
    let (s, o, t, total) = bill(&raw_meters);
    rows.push(("Raw (no provenance)".to_string(), s, o, t, total));
    for kind in ArchKind::ALL {
        let persisted = persist_dataset(kind, dataset)?;
        // Bill the persist-phase snapshot: its stored-bytes gauge is the
        // end-state footprint, its counters cover the whole phase.
        let (s, o, t, total) = bill(&persisted.persist_meters);
        rows.push((kind.label().to_string(), s, o, t, total));
    }
    Ok(CostResults { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Combined {
        Combined::small()
    }

    #[test]
    fn table2_shape_matches_paper() {
        let t = table2(&small()).unwrap();
        assert_eq!(t.rows.len(), 3);
        // Provenance footprint rises monotonically S3 → +SimpleDB → +SQS.
        assert!(t.rows[0].provenance_bytes < t.rows[1].provenance_bytes);
        assert!(t.rows[1].provenance_bytes < t.rows[2].provenance_bytes);
        // Ops overhead rises in the same order, with S3 below raw.
        assert!(t.rows[0].provenance_ops < t.raw_ops);
        assert!(t.rows[0].provenance_ops < t.rows[1].provenance_ops);
        assert!(t.rows[1].provenance_ops < t.rows[2].provenance_ops);
        // And the rendering carries both measured and reference numbers.
        let rendered = t.render();
        assert!(rendered.contains("Raw"));
        assert!(rendered.contains("paper:"));
    }

    #[test]
    fn table3_shape_matches_paper() {
        let t = table3(&small()).unwrap();
        // Result counts agree between engines on every query.
        assert_eq!(t.q1.0.results, t.q1.1.results);
        assert_eq!(t.q2.0.results, t.q2.1.results);
        assert_eq!(t.q3.0.results, t.q3.1.results);
        assert!(t.q2.0.results > 0, "blast outputs exist in the dataset");
        // S3 pays the same full scan for every query.
        assert_eq!(t.q2.0.ops, t.q3.0.ops);
        // SimpleDB is orders of magnitude more selective on Q2/Q3.
        assert!(t.q2.1.ops * 10 < t.q2.0.ops);
        // Q3 walks one QueryWithAttributes per descendant, so its margin
        // at unit-test scale is smaller; it widens with corpus size
        // (paper: 56,132 vs 31).
        assert!(t.q3.1.ops * 3 < t.q3.0.ops);
        assert!(t.q2.1.data_out * 10 < t.q2.0.data_out);
        // Q1-on-everything gives SimpleDB no advantage: it must touch
        // every item one GetAttributes at a time ("no way for SimpleDB
        // to generalize the query"), landing within 2x of the S3 scan
        // either way (the paper measured 71,825 vs 56,132 — also ~1x).
        assert!(t.q1.1.ops * 2 > t.q1.0.ops);
        assert!(t.q1.1.ops < t.q1.0.ops * 2);
    }

    #[test]
    fn costs_produce_one_bill_per_architecture_plus_raw() {
        let c = costs(&small()).unwrap();
        assert_eq!(c.rows.len(), 4);
        for (label, storage, ops, transfer, total) in &c.rows {
            assert!(*total > 0.0, "{label}: empty bill");
            assert!((storage + ops + transfer - total).abs() < 1e-9);
        }
        // More machinery, higher op charges: raw < S3 < +SimpleDB < +SQS.
        let op_cost = |i: usize| c.rows[i].2;
        assert!(op_cost(0) <= op_cost(1));
        assert!(op_cost(1) < op_cost(2));
        assert!(op_cost(2) < op_cost(3));
        assert!(c.render().contains("total"));
        assert!(c.operations_share(0) <= 1.0);
    }
}
