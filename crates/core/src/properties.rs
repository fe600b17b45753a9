//! Machine-checkable validators for the paper's three provenance-system
//! properties (§3), reproducing **Table 1**.
//!
//! | Architecture      | Atomicity | Consistency | Causal ord. | Eff. query |
//! |-------------------|-----------|-------------|-------------|------------|
//! | S3                |     ✓     |      ✓      |      ✓      |     ✗      |
//! | S3+SimpleDB       |     ✗     |      ✓      |      ✓      |     ✓      |
//! | S3+SimpleDB+SQS   |     ✓     |      ✓      |      ✓      |     ✓      |
//!
//! Rather than asserting the table, each entry is *measured*:
//!
//! * **atomicity** — crash the client at every protocol step boundary,
//!   run the architecture's designed background machinery (the commit
//!   daemon for Architecture 3 — the manual orphan scan of Architecture 2
//!   deliberately does not count), and inspect the authoritative cloud
//!   state for provenance-without-data or data-without-provenance;
//! * **consistency** — read while replicas are still propagating and
//!   check that no mismatched data/provenance pairing is ever served as
//!   consistent;
//! * **causal ordering** — after crashes and recovery, every ancestor
//!   referenced by stored provenance must itself be stored (the eventual
//!   form of §3);
//! * **efficient query** — run Q2 against two corpus sizes and test
//!   whether the operation count scales with the corpus (scan) or with
//!   the result (index).

use std::collections::BTreeMap;
use std::fmt;

use pass::{FileFlush, ObjectRef, Observer, ProvenanceRecord, TraceEvent};
use serde::{Deserialize, Serialize};
use simworld::{Blob, Consistency, CrashSite, LatencyModel, SimConfig, SimDuration, SimWorld};

use crate::arch1::{StandaloneS3, A1_BEFORE_DATA_PUT, A1_BEFORE_OVERFLOW_PUT};
use crate::arch2::{
    S3SimpleDb, A2_BEFORE_DATA_PUT, A2_BEFORE_INDEX_PUT, A2_BEFORE_OVERFLOW_PUT,
    A2_BEFORE_PROV_PUT, A2_MID_INDEX_PUT, A2_MID_PROV_PUT,
};
use crate::arch3::{
    S3SimpleDbSqs, A3_AFTER_TEMP_PUT, A3_BEFORE_BEGIN, A3_BEFORE_COMMIT, A3_BEFORE_TEMP_PUT,
    A3_MID_PROV_LOG, D3_AFTER_COPY, D3_BEFORE_COPY, D3_BEFORE_INDEX_PUT, D3_BEFORE_MSG_DELETE,
    D3_BEFORE_TMP_DELETE, D3_MID_INDEX_PUT, D3_MID_PUTATTRS,
};
use crate::error::Result;
use crate::graph::ProvGraph;
use crate::layout::{data_key, ATTR_MD5, BUCKET, DATA_PREFIX, DOMAIN};
use crate::query::ProvQuery;
use crate::serialize::{decode_attributes, decode_metadata, read_version};
use crate::store::ProvenanceStore;

/// Which of the paper's three architectures to instantiate.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ArchKind {
    /// §4.1 Standalone S3.
    S3,
    /// §4.2 S3 + SimpleDB.
    S3SimpleDb,
    /// §4.3 S3 + SimpleDB + SQS.
    S3SimpleDbSqs,
}

impl ArchKind {
    /// All three, in paper order.
    pub const ALL: [ArchKind; 3] = [ArchKind::S3, ArchKind::S3SimpleDb, ArchKind::S3SimpleDbSqs];

    /// Display name matching Table 1's row labels.
    pub fn label(self) -> &'static str {
        match self {
            ArchKind::S3 => "S3",
            ArchKind::S3SimpleDb => "S3+SimpleDB",
            ArchKind::S3SimpleDbSqs => "S3+SimpleDB+SQS",
        }
    }

    /// Builds a store of this kind on `world` with each store's `new`
    /// (default shard count on every sharded backend).
    pub fn build(self, world: &SimWorld) -> Box<dyn ProvenanceStore> {
        match self {
            ArchKind::S3 => Box::new(StandaloneS3::new(world)),
            ArchKind::S3SimpleDb => Box::new(S3SimpleDb::new(world)),
            ArchKind::S3SimpleDbSqs => Box::new(S3SimpleDbSqs::new(world, "prop-client")),
        }
    }

    /// The client-side crash sites of this architecture's persist
    /// protocol.
    pub fn client_crash_sites(self) -> &'static [CrashSite] {
        match self {
            ArchKind::S3 => &[A1_BEFORE_OVERFLOW_PUT, A1_BEFORE_DATA_PUT],
            ArchKind::S3SimpleDb => &[
                A2_BEFORE_OVERFLOW_PUT,
                A2_BEFORE_PROV_PUT,
                A2_MID_PROV_PUT,
                A2_BEFORE_INDEX_PUT,
                A2_MID_INDEX_PUT,
                A2_BEFORE_DATA_PUT,
            ],
            ArchKind::S3SimpleDbSqs => &[
                A3_BEFORE_BEGIN,
                A3_BEFORE_TEMP_PUT,
                A3_AFTER_TEMP_PUT,
                A3_MID_PROV_LOG,
                A3_BEFORE_COMMIT,
            ],
        }
    }

    /// Daemon-side crash sites (empty for architectures without
    /// daemons).
    pub fn daemon_crash_sites(self) -> &'static [CrashSite] {
        match self {
            ArchKind::S3SimpleDbSqs => &[
                D3_BEFORE_COPY,
                D3_AFTER_COPY,
                D3_MID_PUTATTRS,
                D3_BEFORE_INDEX_PUT,
                D3_MID_INDEX_PUT,
                D3_BEFORE_MSG_DELETE,
                D3_BEFORE_TMP_DELETE,
            ],
            _ => &[],
        }
    }
}

impl fmt::Display for ArchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One row of Table 1, as measured.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropertyMatrix {
    /// Architecture under test.
    pub architecture: String,
    /// No crash site leaves provenance-without-data or vice versa.
    pub atomicity: bool,
    /// No mismatched data/provenance pairing is served as consistent.
    pub consistency: bool,
    /// Every stored object's ancestors are (eventually) stored.
    pub causal_ordering: bool,
    /// Query cost scales with the result, not the corpus.
    pub efficient_query: bool,
}

/// Detailed outcome of the atomicity check.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AtomicityReport {
    /// `(site label, violation observed)` for every crash site that
    /// fired.
    pub sites: Vec<(String, bool)>,
}

impl AtomicityReport {
    /// `true` when no site produced a violation.
    pub fn holds(&self) -> bool {
        self.sites.iter().all(|(_, violated)| !violated)
    }
}

/// The standard little workload used by the checks: one source file, a
/// tool with an oversized environment (to exercise record overflow), and
/// two derived files forming a chain.
fn standard_flushes() -> Vec<FileFlush> {
    let mut obs = Observer::new();
    let mut flushes = Vec::new();
    let big_env = format!("PATH=/usr/bin\nDATA={}", "e".repeat(1600));
    for ev in [
        TraceEvent::source("in.dat", Blob::synthetic(1, 4096)),
        TraceEvent::exec(1, "tool", "tool in.dat", &big_env, None),
        TraceEvent::read(1, "in.dat"),
        TraceEvent::write(1, "mid.dat"),
        TraceEvent::close(1, "mid.dat", Blob::synthetic(2, 2048)),
        TraceEvent::exit(1),
        TraceEvent::exec(2, "refine", "refine mid.dat", "PATH=/usr/bin", None),
        TraceEvent::read(2, "mid.dat"),
        TraceEvent::write(2, "out.dat"),
        TraceEvent::close(2, "out.dat", Blob::synthetic(3, 1024)),
        TraceEvent::exit(2),
    ] {
        flushes.extend(obs.observe(ev).expect("trace is well-formed"));
    }
    flushes
}

// The checks need the raw service handles for authoritative inspection;
// the concrete types expose them, the trait deliberately does not.
// Downcasting through Any would force `Any` into the public trait, so the
// properties module instead rebuilds stores itself and keeps the concrete
// types. These helpers are only called with matching kinds.
//
// A handful of short-lived values exist at a time, so the size spread
// between variants is irrelevant; boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
enum Store {
    S3(StandaloneS3),
    Db(S3SimpleDb),
    Sqs(S3SimpleDbSqs),
}

impl Store {
    fn build(kind: ArchKind, world: &SimWorld) -> Store {
        match kind {
            ArchKind::S3 => Store::S3(StandaloneS3::new(world)),
            ArchKind::S3SimpleDb => Store::Db(S3SimpleDb::new(world)),
            ArchKind::S3SimpleDbSqs => Store::Sqs(S3SimpleDbSqs::new(world, "prop-client")),
        }
    }

    fn as_store(&mut self) -> &mut dyn ProvenanceStore {
        match self {
            Store::S3(s) => s,
            Store::Db(s) => s,
            Store::Sqs(s) => s,
        }
    }

    fn corpus(&self) -> BTreeMap<ObjectRef, Vec<ProvenanceRecord>> {
        match self {
            Store::S3(s) => collect_s3_corpus(s.s3()),
            Store::Db(s) => collect_db_corpus(s.s3(), s.simpledb()),
            Store::Sqs(s) => collect_db_corpus(s.s3(), s.simpledb()),
        }
    }

    /// The architecture's *designed* post-crash machinery: WAL replay for
    /// Architecture 3; nothing for the others (Architecture 2's orphan
    /// scan is explicitly not part of the protocol).
    fn run_designed_recovery(&mut self) -> Result<()> {
        if let Store::Sqs(s) = self {
            s.run_daemons_until_idle()?;
        }
        Ok(())
    }

    /// Does the authoritative state pair every provenance item with its
    /// data and vice versa?
    fn atomicity_violation(&self) -> bool {
        match self {
            Store::S3(_) => false, // single-PUT: structurally paired
            Store::Db(s) => db_atomicity_violation(s.s3(), s.simpledb()),
            Store::Sqs(s) => db_atomicity_violation(s.s3(), s.simpledb()),
        }
    }
}

fn collect_s3_corpus(s3: &sim_s3::S3) -> BTreeMap<ObjectRef, Vec<ProvenanceRecord>> {
    let mut out = BTreeMap::new();
    for key in s3.latest_keys(BUCKET, DATA_PREFIX) {
        let Some(name) = key.strip_prefix(DATA_PREFIX) else {
            continue;
        };
        let Some(obj) = s3.latest_object(BUCKET, &key) else {
            continue;
        };
        let Ok(version) = read_version(&obj.metadata) else {
            continue;
        };
        let records = decode_metadata(&obj.metadata, |k| {
            s3.latest_object(BUCKET, k)
                .map(|o| String::from_utf8_lossy(&o.body.to_bytes()).into_owned())
                .ok_or_else(|| crate::error::CloudError::NotFound {
                    name: k.to_string(),
                })
        });
        if let Ok(records) = records {
            out.insert(ObjectRef::new(name.to_string(), version), records);
        }
    }
    out
}

fn collect_db_corpus(
    s3: &sim_s3::S3,
    db: &sim_simpledb::SimpleDb,
) -> BTreeMap<ObjectRef, Vec<ProvenanceRecord>> {
    let mut out = BTreeMap::new();
    for item_name in db.latest_item_names(DOMAIN) {
        let Some(object) = ObjectRef::parse_item_name(&item_name) else {
            continue;
        };
        let Some(attrs) = db.latest_item(DOMAIN, &item_name) else {
            continue;
        };
        let records = decode_attributes(&attrs, |k| {
            s3.latest_object(BUCKET, k)
                .map(|o| String::from_utf8_lossy(&o.body.to_bytes()).into_owned())
                .ok_or_else(|| crate::error::CloudError::NotFound {
                    name: k.to_string(),
                })
        });
        if let Ok(records) = records {
            out.insert(object, records);
        }
    }
    out
}

fn db_atomicity_violation(s3: &sim_s3::S3, db: &sim_simpledb::SimpleDb) -> bool {
    // Provenance without data: an item describing a version the data
    // store never reached — or an item missing its MD5 record (partial
    // PutAttributes).
    for item_name in db.latest_item_names(DOMAIN) {
        let Some(object) = ObjectRef::parse_item_name(&item_name) else {
            continue;
        };
        let Some(attrs) = db.latest_item(DOMAIN, &item_name) else {
            continue;
        };
        if !attrs.contains_key(ATTR_MD5) {
            return true;
        }
        let data_version = s3
            .latest_object(BUCKET, &data_key(&object.name))
            .and_then(|o| read_version(&o.metadata).ok());
        if data_version.map(|v| v >= object.version) != Some(true) {
            return true;
        }
    }
    // Data without provenance.
    for key in s3.latest_keys(BUCKET, DATA_PREFIX) {
        let Some(name) = key.strip_prefix(DATA_PREFIX) else {
            continue;
        };
        let Some(obj) = s3.latest_object(BUCKET, &key) else {
            continue;
        };
        let Ok(version) = read_version(&obj.metadata) else {
            continue;
        };
        let item = ObjectRef::new(name.to_string(), version).item_name();
        match db.latest_item(DOMAIN, &item) {
            Some(attrs) if attrs.contains_key(ATTR_MD5) => {}
            _ => return true,
        }
    }
    false
}

/// Crash-injects every client and daemon site of `kind` and reports
/// per-site atomicity verdicts.
///
/// # Errors
///
/// Service errors (crash errors are expected and absorbed).
pub fn check_atomicity(kind: ArchKind, seed: u64) -> Result<AtomicityReport> {
    let mut sites = Vec::new();
    for &site in kind.client_crash_sites() {
        let world = SimWorld::with_config(SimConfig {
            seed,
            ..SimConfig::counting()
        });
        world.with_faults(|f| f.arm(site));
        let mut store = Store::build(kind, &world);
        let mut crashed = false;
        for flush in standard_flushes() {
            match store.as_store().persist(&flush) {
                Ok(()) => {}
                Err(e) if e.is_crash() => {
                    crashed = true;
                    break; // the client is dead; nothing further persists
                }
                Err(e) => return Err(e),
            }
        }
        if !crashed {
            continue; // site not on this workload's path
        }
        store.run_designed_recovery()?;
        world.settle();
        sites.push((site.name().to_string(), store.atomicity_violation()));
    }
    for &site in kind.daemon_crash_sites() {
        let world = SimWorld::with_config(SimConfig {
            seed,
            ..SimConfig::counting()
        });
        let mut store = Store::build(kind, &world);
        for flush in standard_flushes() {
            store.as_store().persist(&flush)?;
        }
        world.with_faults(|f| f.arm(site));
        // The daemon crashes mid-apply...
        let crash_seen = match store.as_store().run_daemons_until_idle() {
            Ok(()) => false,
            Err(e) if e.is_crash() => true,
            Err(e) => return Err(e),
        };
        // ...and is restarted: replay must converge to a clean state.
        store.run_designed_recovery()?;
        world.settle();
        if crash_seen {
            sites.push((site.name().to_string(), store.atomicity_violation()));
        }
    }
    Ok(AtomicityReport { sites })
}

/// Reads under replication lag; returns `true` when no mismatched
/// pairing was ever served as consistent.
///
/// # Errors
///
/// Service errors.
pub fn check_consistency(kind: ArchKind, seed: u64) -> Result<bool> {
    let world = SimWorld::with_config(SimConfig {
        seed,
        consistency: Consistency::eventual(SimDuration::from_secs(3)),
        latency: LatencyModel::zero(),
        replicas: 3,
    });
    let mut store = Store::build(kind, &world);
    for flush in standard_flushes() {
        store.as_store().persist(&flush)?;
    }
    store.run_designed_recovery()?;
    // Do NOT settle: read during the propagation window, many times.
    let mut ok = true;
    for _ in 0..24 {
        let outcome = store.as_store().read("mid.dat")?;
        if outcome.consistent() {
            // A consistent read must carry provenance records that
            // describe this very data (checked structurally: non-empty
            // records for the returned version).
            if outcome.records.is_empty() {
                ok = false;
            }
        }
        world.advance(SimDuration::from_millis(120));
    }
    Ok(ok)
}

/// Crash-injects every client site during a chained workload, lets the
/// client retry from its cache, and verifies every stored object's
/// ancestors are stored too (eventual causal ordering).
///
/// # Errors
///
/// Service errors.
pub fn check_causal_ordering(kind: ArchKind, seed: u64) -> Result<bool> {
    let mut sites: Vec<Option<CrashSite>> = vec![None];
    sites.extend(kind.client_crash_sites().iter().copied().map(Some));
    for site in sites {
        let world = SimWorld::with_config(SimConfig {
            seed,
            ..SimConfig::counting()
        });
        if let Some(site) = site {
            world.with_faults(|f| f.arm(site));
        }
        let mut store = Store::build(kind, &world);
        for flush in standard_flushes() {
            match store.as_store().persist(&flush) {
                Ok(()) => {}
                Err(e) if e.is_crash() => {
                    // Client restarts and retries the same flush from its
                    // local cache before moving on (PASS still holds it).
                    store.as_store().persist(&flush)?;
                }
                Err(e) => return Err(e),
            }
        }
        store.run_designed_recovery()?;
        world.settle();
        if !ProvGraph::from_records(store.corpus())
            .dangling_references()
            .is_empty()
        {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Measures Q2 cost at two corpus sizes; `true` when the cost scales
/// with the result set rather than the corpus.
///
/// # Errors
///
/// Service errors.
pub fn check_efficient_query(kind: ArchKind, seed: u64) -> Result<bool> {
    let ops_at = |n_chains: u32| -> Result<u64> {
        let world = SimWorld::with_config(SimConfig {
            seed,
            ..SimConfig::counting()
        });
        let mut store = Store::build(kind, &world);
        let mut obs = Observer::new();
        let mut flushes = Vec::new();
        for i in 0..n_chains {
            let pid = i * 2 + 1;
            let src = format!("raw/{i}.dat");
            let out = format!("cooked/{i}.dat");
            for ev in [
                TraceEvent::source(&src, Blob::synthetic(u64::from(i), 512)),
                TraceEvent::exec(pid, "churn", "churn", "E=1", None),
                TraceEvent::read(pid, &src),
                TraceEvent::write(pid, &out),
                TraceEvent::close(pid, &out, Blob::synthetic(u64::from(i) + 999, 256)),
                TraceEvent::exit(pid),
            ] {
                flushes.extend(obs.observe(ev).expect("well-formed"));
            }
        }
        // One blast chain hidden in the corpus: the query target.
        let pid = n_chains * 2 + 1;
        for ev in [
            TraceEvent::source("query.fa", Blob::synthetic(7, 512)),
            TraceEvent::exec(pid, "blastall", "blastall -i query.fa", "E=1", None),
            TraceEvent::read(pid, "query.fa"),
            TraceEvent::write(pid, "hits.out"),
            TraceEvent::close(pid, "hits.out", Blob::synthetic(8, 256)),
            TraceEvent::exit(pid),
        ] {
            flushes.extend(obs.observe(ev).expect("well-formed"));
        }
        for flush in &flushes {
            store.as_store().persist(flush)?;
        }
        store.run_designed_recovery()?;
        world.settle();
        let before = world.meters();
        let answer = store.as_store().query(&ProvQuery::OutputsOf {
            program: "blastall".to_string(),
        })?;
        assert_eq!(
            answer.names(),
            vec!["hits.out:1"],
            "query must find the blast output"
        );
        Ok((world.meters() - before).total_ops())
    };
    let small = ops_at(20)?;
    let large = ops_at(80)?;
    // A 4× corpus: a scan quadruples; an indexed lookup stays put. The
    // 2× threshold splits the two regimes with margin on both sides.
    Ok(large < small * 2)
}

/// Runs all four checks for one architecture.
///
/// # Errors
///
/// Service errors.
pub fn property_matrix(kind: ArchKind, seed: u64) -> Result<PropertyMatrix> {
    Ok(PropertyMatrix {
        architecture: kind.label().to_string(),
        atomicity: check_atomicity(kind, seed)?.holds(),
        consistency: check_consistency(kind, seed)?,
        causal_ordering: check_causal_ordering(kind, seed)?,
        efficient_query: check_efficient_query(kind, seed)?,
    })
}

/// Runs the full Table 1 matrix.
///
/// # Errors
///
/// Service errors.
pub fn full_property_table(seed: u64) -> Result<Vec<PropertyMatrix>> {
    ArchKind::ALL
        .iter()
        .map(|kind| property_matrix(*kind, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_flushes_cover_overflow_and_chaining() {
        let flushes = standard_flushes();
        assert!(flushes.len() >= 5);
        assert!(
            flushes
                .iter()
                .any(|f| f.records.iter().any(|r| r.byte_len() > 1024)),
            "the oversized env must force overflow handling"
        );
    }

    #[test]
    fn downcast_free_corpus_collection_compiles() {
        // Smoke: build each kind and collect the (empty) corpus.
        for kind in ArchKind::ALL {
            let world = SimWorld::counting();
            let store = Store::build(kind, &world);
            assert!(store.corpus().is_empty());
        }
    }
}
