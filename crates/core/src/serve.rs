//! The serving facade: a thread-safe, shared handle over a
//! [`ProvenanceStore`].
//!
//! The store trait itself is object-safe, and its writes take
//! `&mut self` — the right shape for a single-client experiment driver,
//! and the wrong one for a network frontend where N connection-handler
//! threads want to serve reads and queries concurrently while writes
//! land. [`ServeHandle`] fixes the seam without touching the trait:
//!
//! * **Writes** (record / flush / recover) serialize through one
//!   internal mutex around the boxed store — exactly the §4 protocols,
//!   one writer at a time, unchanged crash-ordering story.
//! * **Reads and queries** never touch that mutex. The handle captures
//!   the store's read side ([`ServeParts`]: cloned service handles plus
//!   the read knobs) at construction, and [`ServeParts`] *is* the
//!   SimpleDB query engine, so reads and queries take `&self` and never
//!   wait for a writer at this level. They are not lock-free below it:
//!   beside the services' own per-shard locks, every service request
//!   takes the one global [`SimWorld`] lock (clock, RNG, meters, fault
//!   plan), several times per request, so concurrent reads still
//!   serialize there whatever the shard count.
//!
//! The handle is `Clone + Send + Sync`; every clone shares the same
//! store. [`ServeHandle::fingerprint`] hashes the authoritative
//! data/provenance state (temporaries excluded), which is how the
//! wall-clock harness proves a networked run converged to the same
//! bytes as an in-process one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use pass::FileFlush;
use sim_s3::S3;
use sim_simpledb::SimpleDb;
use simworld::{Fnv1a, SimWorld};

use crate::error::Result;
use crate::layout::{BUCKET, CLOSURE_DOMAIN, DOMAIN, TMP_PREFIX};
use crate::query::{ProvQuery, QueryAnswer};
use crate::readpath::verified_read;
use crate::retry::RetryPolicy;
use crate::store::{ProvenanceStore, ReadOutcome, RecoveryReport};

/// The read side of an arch2/arch3 store: its service handles and
/// read-path knobs, which a [`ServeHandle`] captures at construction.
/// It is the one SimpleDB query engine ([`ServeParts::query`], and
/// [`ServeParts::walking`] for the walk oracle). Produced by
/// [`Serveable::serve_parts`]; its fields are opaque outside the crate.
#[derive(Clone, Debug)]
pub struct ServeParts {
    pub(crate) world: SimWorld,
    pub(crate) s3: S3,
    pub(crate) db: SimpleDb,
    pub(crate) retry: RetryPolicy,
    pub(crate) use_nonce: bool,
    pub(crate) serve_closure: bool,
}

impl ServeParts {
    /// The §4.2 read: fetch data from S3 and provenance from SimpleDB,
    /// then compare `MD5(data ‖ nonce)` against the stored record; on
    /// mismatch, reissue both reads until they agree or the retry
    /// budget is spent.
    pub(crate) fn read(&self, name: &str) -> Result<ReadOutcome> {
        verified_read(self, name)
    }
}

/// A store that can hand out the pieces of its read path (which never
/// takes the writer mutex), making it servable through
/// [`ServeHandle`]. Implemented by the two
/// architectures whose read side is the shared §4.2 verified read.
pub trait Serveable: ProvenanceStore + Send {
    /// Snapshots the service handles and read configuration. The parts
    /// are clones sharing state with the store, so reads built from
    /// them observe every subsequent write.
    fn serve_parts(&self) -> ServeParts;
}

/// A point-in-time counter/meter summary of a serving store, plus the
/// state fingerprint. What the wire protocol's `Stats` command returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeStats {
    /// Architecture name (`"s3+simpledb"` or `"s3+simpledb+sqs"`).
    pub architecture: String,
    /// Requests served through this handle (all commands).
    pub requests: u64,
    /// Total billable service operations in the underlying world.
    pub store_ops: u64,
    /// Bytes the simulated services ingested.
    pub bytes_in: u64,
    /// Bytes the simulated services returned.
    pub bytes_out: u64,
    /// Authoritative state fingerprint ([`ServeHandle::fingerprint`]).
    pub fingerprint: u64,
}

struct ServeInner {
    arch: &'static str,
    parts: ServeParts,
    writer: Mutex<Box<dyn ProvenanceStore + Send>>,
    requests: AtomicU64,
}

impl std::fmt::Debug for ServeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeInner")
            .field("arch", &self.arch)
            .field("requests", &self.requests.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The coherent serving surface over a provenance store: record /
/// flush / read / query / stats, all through `&self`.
///
/// # Examples
///
/// ```
/// use pass::FileFlush;
/// use provenance_cloud::{ProvQuery, S3SimpleDb, ServeHandle};
/// use simworld::{Blob, SimWorld};
///
/// let world = SimWorld::counting();
/// let serve = ServeHandle::new(S3SimpleDb::new(&world));
///
/// let input = FileFlush::builder("census/raw.csv")
///     .data(Blob::synthetic(1, 64 * 1024))
///     .build();
/// let output = FileFlush::builder("census/trends.csv")
///     .data(Blob::synthetic(2, 8 * 1024))
///     .record("input", "census/raw.csv:1")
///     .build();
/// serve.record(&input)?;
/// serve.record(&output)?;
/// serve.flush()?;
///
/// // Reads and queries take &self: clone the handle into as many
/// // threads as you like.
/// let read = serve.read("census/trends.csv")?;
/// assert!(read.consistent());
/// let answer = serve.query(&ProvQuery::ProvenanceOf {
///     name: "census/trends.csv".into(),
///     version: 1,
/// })?;
/// assert_eq!(answer.len(), 1);
/// # Ok::<(), provenance_cloud::CloudError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ServeHandle {
    inner: Arc<ServeInner>,
}

impl ServeHandle {
    /// Wraps a store for serving. The handle captures the store's
    /// read-path configuration *now*; reconfigure before wrapping.
    pub fn new<S: Serveable + 'static>(store: S) -> ServeHandle {
        let arch = store.architecture();
        let parts = store.serve_parts();
        ServeHandle {
            inner: Arc::new(ServeInner {
                arch,
                parts,
                writer: Mutex::new(Box::new(store)),
                requests: AtomicU64::new(0),
            }),
        }
    }

    fn count(&self) {
        self.inner.requests.fetch_add(1, Ordering::Relaxed);
    }

    fn writer(&self) -> std::sync::MutexGuard<'_, Box<dyn ProvenanceStore + Send>> {
        // A panicking writer thread poisons the lock; the store itself
        // holds no client-side invariants that a panic could tear (all
        // durable state lives in the services), so serving continues.
        self.inner
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Architecture name of the wrapped store.
    pub fn architecture(&self) -> &'static str {
        self.inner.arch
    }

    /// Persists one flush (the store's `persist`), serialized with
    /// other writers.
    ///
    /// # Errors
    ///
    /// As [`ProvenanceStore::persist`].
    pub fn record(&self, flush: &FileFlush) -> Result<()> {
        self.count();
        self.writer().persist(flush)
    }

    /// Persists a group of flushes through the store's batched path.
    ///
    /// # Errors
    ///
    /// As [`ProvenanceStore::persist_batch`].
    pub fn record_batch(&self, flushes: &[FileFlush]) -> Result<()> {
        self.count();
        self.writer().persist_batch(flushes)
    }

    /// Drives background daemons until quiescent (arch3's commit
    /// daemon; a no-op for arch2).
    ///
    /// # Errors
    ///
    /// As [`ProvenanceStore::run_daemons_until_idle`].
    pub fn flush(&self) -> Result<()> {
        self.count();
        self.writer().run_daemons_until_idle()
    }

    /// Runs the architecture's recovery pass.
    ///
    /// # Errors
    ///
    /// As [`ProvenanceStore::recover`].
    pub fn recover(&self) -> Result<RecoveryReport> {
        self.count();
        self.writer().recover()
    }

    /// The §4.2 verified read, built fresh from the captured parts —
    /// no handle-level lock, so N threads read concurrently, contending
    /// on the services' per-shard locks and the global `SimWorld` lock.
    ///
    /// # Errors
    ///
    /// As [`ProvenanceStore::read`].
    pub fn read(&self, name: &str) -> Result<ReadOutcome> {
        self.count();
        self.inner.parts.read(name)
    }

    /// Executes a provenance query ([`ServeParts::query`]; closure-index
    /// `Serve` mode included when the store was configured for it).
    ///
    /// # Errors
    ///
    /// As [`ProvenanceStore::query`].
    pub fn query(&self, query: &ProvQuery) -> Result<QueryAnswer> {
        self.count();
        self.inner.parts.query(query)
    }

    /// Requests served through this handle so far.
    pub fn requests(&self) -> u64 {
        self.inner.requests.load(Ordering::Relaxed)
    }

    /// The authoritative state fingerprint: FNV-1a over every committed
    /// provenance item (provenance + closure domains) and every live,
    /// non-temporary S3 object (key, ETag, metadata), all in sorted
    /// order. Placement-, RNG- and interleaving-invariant: two runs
    /// that committed the same logical state hash identically, however
    /// their requests raced.
    pub fn fingerprint(&self) -> u64 {
        store_fingerprint(&self.inner.parts.s3, &self.inner.parts.db)
    }

    /// Counter/meter snapshot plus the current fingerprint.
    pub fn stats(&self) -> ServeStats {
        self.count();
        let meters = self.inner.parts.world.meters();
        ServeStats {
            architecture: self.inner.arch.to_string(),
            requests: self.requests(),
            store_ops: meters.total_ops(),
            bytes_in: meters.bytes_in(),
            bytes_out: meters.bytes_out(),
            fingerprint: self.fingerprint(),
        }
    }
}

/// FNV-1a fingerprint of a store's authoritative state: all committed
/// SimpleDB items in the provenance and closure domains plus all
/// non-`tmp/` S3 objects, via the services' unbilled latest-state
/// views, folded straight into the hash state. Shared by
/// [`ServeHandle::fingerprint`] and the wall-clock harness's in-process
/// driver.
pub fn store_fingerprint(s3: &S3, db: &SimpleDb) -> u64 {
    let mut hash = Fnv1a::new();
    for domain in [DOMAIN, CLOSURE_DOMAIN] {
        fold_domain(&mut hash, db, domain);
    }
    let mut keys = s3.latest_keys(BUCKET, "");
    keys.sort_unstable();
    for key in &keys {
        if key.starts_with(TMP_PREFIX) {
            continue;
        }
        let Some(object) = s3.latest_object(BUCKET, key) else {
            continue;
        };
        hash.write(key.as_bytes());
        hash.write(b"\x1f");
        hash.write(object.etag.to_hex().as_bytes());
        for (meta_key, meta_value) in object.metadata.iter() {
            hash.write(b"\x1f");
            hash.write(meta_key.as_bytes());
            hash.write(b"=");
            hash.write(meta_value.as_bytes());
        }
        hash.write(b"\x1e");
    }
    hash.finish()
}

/// FNV-1a fingerprint of one SimpleDB domain's authoritative latest
/// state. Placement is invisible to it — identical state fingerprints
/// identically at any shard layout.
pub fn domain_fingerprint(db: &SimpleDb, domain: &str) -> u64 {
    let mut hash = Fnv1a::new();
    fold_domain(&mut hash, db, domain);
    hash.finish()
}

/// The one walk over a SimpleDB domain for fingerprinting: every live
/// item in name order, its attributes in `(name, value)` order, one
/// `domain ␟ item ␟ attribute ␟ value ␞` record per pair.
fn fold_domain(hash: &mut Fnv1a, db: &SimpleDb, domain: &str) {
    let mut names = db.latest_item_names(domain);
    names.sort_unstable();
    for name in &names {
        // An item's pairs are stored in `(name, value)` order.
        let Some(item) = db.latest_item(domain, name) else {
            continue;
        };
        for pair in item.iter() {
            for field in [domain, name.as_str(), pair.name] {
                hash.write(field.as_bytes());
                hash.write(b"\x1f");
            }
            hash.write(pair.value.as_bytes());
            hash.write(b"\x1e");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch2::S3SimpleDb;
    use crate::arch3::S3SimpleDbSqs;
    use simworld::Blob;

    fn flush(name: &str, seed: u64, parent: Option<&str>) -> FileFlush {
        let mut b = FileFlush::builder(name).data(Blob::synthetic(seed, 2048));
        if let Some(p) = parent {
            b = b.record("input", &format!("{p}:1"));
        }
        b.build()
    }

    #[test]
    fn serves_reads_and_queries_through_shared_ref() {
        let world = SimWorld::counting();
        let serve = ServeHandle::new(S3SimpleDb::new(&world));
        serve.record(&flush("a.dat", 1, None)).unwrap();
        serve.record(&flush("b.dat", 2, Some("a.dat"))).unwrap();
        serve.flush().unwrap();

        let read = serve.read("b.dat").unwrap();
        assert!(read.consistent());
        let answer = serve
            .query(&ProvQuery::ProvenanceOf {
                name: "b.dat".into(),
                version: 1,
            })
            .unwrap();
        assert_eq!(answer.len(), 1);
        assert_eq!(serve.architecture(), "s3+simpledb");
        assert!(serve.requests() >= 5);
    }

    #[test]
    fn arch3_flush_drains_wal_before_reads() {
        let world = SimWorld::counting();
        let serve = ServeHandle::new(S3SimpleDbSqs::new(&world, "serve-1"));
        serve.record(&flush("x.dat", 3, None)).unwrap();
        // Logged but not committed: the read path must not see it yet.
        assert!(serve.read("x.dat").is_err());
        serve.flush().unwrap();
        assert!(serve.read("x.dat").unwrap().consistent());
    }

    #[test]
    fn fingerprint_matches_across_architect_independent_runs() {
        let fp = |seed: u64| {
            let world = SimWorld::new(seed);
            let serve = ServeHandle::new(S3SimpleDb::new(&world));
            serve.record(&flush("a.dat", 1, None)).unwrap();
            serve.record(&flush("b.dat", 2, Some("a.dat"))).unwrap();
            serve.flush().unwrap();
            serve.fingerprint()
        };
        // Different worlds (different RNG streams), same logical state.
        assert_eq!(fp(1), fp(99));
    }

    #[test]
    fn fingerprint_ignores_arch3_temporaries_but_not_data() {
        let world = SimWorld::counting();
        let serve = ServeHandle::new(S3SimpleDbSqs::new(&world, "c1"));
        serve.record(&flush("a.dat", 1, None)).unwrap();
        serve.flush().unwrap();
        let before = serve.fingerprint();
        serve.record(&flush("b.dat", 2, Some("a.dat"))).unwrap();
        serve.flush().unwrap();
        assert_ne!(before, serve.fingerprint());
    }

    #[test]
    fn fingerprint_is_pinned_and_moves_with_exactly_the_authoritative_state() {
        use crate::layout::{data_key, ATTR_NONCE, CLOSURE_ATTR_NODE, META_NONCE};
        use sim_simpledb::ReplaceableAttribute;

        let world = SimWorld::counting();
        let mut store = S3SimpleDb::new(&world);
        store.set_config(crate::Arch2Config {
            closure: crate::ClosureMode::Serve,
            ..crate::Arch2Config::default()
        });
        store.persist(&flush("a.dat", 1, None)).unwrap();
        store.persist(&flush("b.dat", 2, Some("a.dat"))).unwrap();
        let (s3, db) = (store.s3(), store.simpledb());
        // Pins the encoding. The value covers the closure domain's
        // physical items, so it moves with the closure layout (last
        // re-captured when rows stopped holding descendants, outputs
        // and process names; the same store with the index off still
        // hashed to 0x69fa8215fa440eeb before and after).
        let mut last = store_fingerprint(s3, db);
        assert_eq!(last, 0x2f9a_4389_d4ff_c18b);
        let mut moved = |what: &str, expected: bool| {
            let now = store_fingerprint(s3, db);
            assert_eq!(now != last, expected, "{what}");
            last = now;
        };

        let data = s3.latest_object(BUCKET, &data_key("a.dat")).unwrap();
        s3.put_object(
            BUCKET,
            "tmp/c/1/data",
            data.body.clone(),
            data.metadata.clone(),
        )
        .unwrap();
        moved("temporaries are not authoritative state", false);
        let nonce = [ReplaceableAttribute::replace(ATTR_NONCE, "other")];
        db.put_attributes(DOMAIN, "a.dat 1", &nonce).unwrap();
        moved("one attribute value", true);
        let node = [ReplaceableAttribute::add(CLOSURE_ATTR_NODE, "1")];
        db.put_attributes(CLOSURE_DOMAIN, "stray 1", &node).unwrap();
        moved("one closure-domain row", true);
        let mut meta = data.metadata;
        meta.insert(META_NONCE, "other");
        s3.put_object(BUCKET, &data_key("a.dat"), data.body, meta)
            .unwrap();
        moved("one S3 metadata value", true);
    }

    /// §4.3 stores exactly what §4.2 stores: with the index on, the
    /// groups the arch3 daemon happened to apply (its receives are
    /// sampled, so it picks them) and the same groups persisted by the
    /// arch2 client go through one put-then-index step — same bytes in
    /// both domains, same `BatchPutAttributes` requests carrying them.
    #[test]
    fn both_architectures_commit_indexed_groups_through_one_step() {
        use crate::{Arch2Config, Arch3Config, ClosureMode};
        use simworld::Op;

        let corpus: Vec<FileFlush> = (0..6u64)
            .map(|i| {
                let parent = i.checked_sub(1).map(|p| format!("f{p}.dat"));
                flush(&format!("f{i}.dat"), i, parent.as_deref())
            })
            .collect();
        let closure = ClosureMode::Serve;
        let batch_puts = |world: &SimWorld| {
            let op = Op::SdbBatchPutAttributes;
            let meters = world.meters();
            (meters.op_count(op), meters.batch_entry_count(op))
        };

        let world3 = SimWorld::counting();
        let mut arch3 = S3SimpleDbSqs::new(&world3, "seam");
        arch3.set_config(Arch3Config {
            closure,
            ..Arch3Config::default()
        });
        arch3.persist_batch(&corpus).unwrap();
        let mut groups: Vec<Vec<String>> = Vec::new();
        let mut applied = std::collections::BTreeSet::new();
        for _ in 0..100 {
            if arch3.daemon().step(true).unwrap().applied > 0 {
                let mut items = arch3.simpledb().latest_item_names(DOMAIN);
                items.retain(|item| applied.insert(item.clone()));
                groups.push(items);
            }
        }
        assert_eq!(applied.len(), corpus.len(), "the daemon drained the log");

        let world2 = SimWorld::counting();
        let mut arch2 = S3SimpleDb::new(&world2);
        arch2.set_config(Arch2Config {
            closure,
            ..Arch2Config::default()
        });
        for group in &groups {
            let in_group = |f: &&FileFlush| group.contains(&f.object.item_name());
            let flushes: Vec<FileFlush> = corpus.iter().filter(in_group).cloned().collect();
            arch2.persist_batch(&flushes).unwrap();
        }

        assert_eq!(
            store_fingerprint(arch2.s3(), arch2.simpledb()),
            store_fingerprint(arch3.s3(), arch3.simpledb())
        );
        let rows = arch2.simpledb().latest_item_names(CLOSURE_DOMAIN);
        assert!(rows.len() >= corpus.len(), "every node has a closure row");
        assert_eq!(batch_puts(&world2), batch_puts(&world3));
        // One put to each domain per group.
        assert_eq!(batch_puts(&world2).0, 2 * groups.len() as u64);
    }

    #[test]
    fn clones_share_the_store_across_threads() {
        let world = SimWorld::counting();
        let serve = ServeHandle::new(S3SimpleDb::new(&world));
        for i in 0..8 {
            serve.record(&flush(&format!("f{i}.dat"), i, None)).unwrap();
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let serve = serve.clone();
                std::thread::spawn(move || {
                    for i in 0..8 {
                        let read = serve.read(&format!("f{i}.dat")).unwrap();
                        assert!(read.consistent(), "thread {t} file {i}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn stats_snapshot_counts_requests_and_ops() {
        let world = SimWorld::counting();
        let serve = ServeHandle::new(S3SimpleDb::new(&world));
        serve.record(&flush("a.dat", 1, None)).unwrap();
        let stats = serve.stats();
        assert_eq!(stats.architecture, "s3+simpledb");
        assert!(stats.requests >= 2);
        assert!(stats.store_ops > 0);
        assert_eq!(stats.fingerprint, serve.fingerprint());
    }
}
