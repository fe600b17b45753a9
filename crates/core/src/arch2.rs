//! Architecture 2 — **S3 + SimpleDB** (§4.2).
//!
//! Data goes to S3; provenance goes to SimpleDB, one item per object
//! *version* (`ItemName = "{name} {version}"`), giving indexed,
//! fine-grained queries. Consistency between the two services is
//! checked with an extra record: `MD5(data ‖ nonce)` stored in SimpleDB,
//! with the nonce (the file version) stored in the S3 object's metadata.
//! A reader recomputes the hash and retries until the pair matches.
//!
//! What this architecture *cannot* give is atomicity: the client writes
//! SimpleDB first and S3 second, so a crash between the two leaves
//! "orphan provenance" — records describing data that never arrived.
//! The only cleanup is an inelegant full scan of the domain
//! (implemented as [`S3SimpleDb::recover`]), which is exactly the
//! deficiency Architecture 3 fixes.

use pass::{FileFlush, ObjectRef};
use sim_s3::{Metadata, S3Error, S3};
use sim_simpledb::{DeletableAttribute, ReplaceableAttribute, SimpleDb, MAX_ATTRS_PER_CALL};
use simworld::{CrashSite, SimWorld};

use crate::arch1::put_plain;
use crate::closure::{ClosureIndex, ClosureMode};
use crate::error::Result;
use crate::layout::{
    data_key, nonce_for, ATTR_MD5, ATTR_NONCE, BUCKET, DOMAIN, META_NONCE, META_VERSION,
};
use crate::query::{page_through, ProvQuery, QueryAnswer};
use crate::readpath::consistency_md5;
use crate::retry::RetryPolicy;
use crate::serialize::{encode_records, fit_item_pairs, pack_attr_batches, read_version};
use crate::serve::{ServeParts, Serveable};
use crate::store::{ProvenanceStore, ReadOutcome, RecoveryReport};

/// Crash site: before storing an overflow object.
pub const A2_BEFORE_OVERFLOW_PUT: CrashSite = CrashSite::new("arch2.before_overflow_put");

/// Crash site: before the first `PutAttributes` call.
pub const A2_BEFORE_PROV_PUT: CrashSite = CrashSite::new("arch2.before_prov_put");

/// Crash site: between `PutAttributes` batches of one item.
pub const A2_MID_PROV_PUT: CrashSite = CrashSite::new("arch2.mid_prov_put");

/// Crash site: after the provenance is in SimpleDB but before the data
/// reaches S3 — the atomicity violation of §4.2.
pub const A2_BEFORE_DATA_PUT: CrashSite = CrashSite::new("arch2.before_data_put");

/// Crash site: edges committed, closure-index rows not yet written
/// (only on the path when [`Arch2Config::closure`] maintains the
/// index).
pub const A2_BEFORE_INDEX_PUT: CrashSite = CrashSite::new("arch2.before_index_put");

/// Crash site: between closure-index `BatchPutAttributes` calls.
pub const A2_MID_INDEX_PUT: CrashSite = CrashSite::new("arch2.mid_index_put");

/// Tunables for [`S3SimpleDb`].
#[derive(Copy, Clone, Debug)]
pub struct Arch2Config {
    /// Read retry policy.
    pub retry: RetryPolicy,
    /// Include the nonce in the hash. Disabling reproduces the paper's
    /// remark that a bare data MD5 misses same-content overwrites.
    pub use_nonce: bool,
    /// Ancestry-closure index behaviour (off by default, so the
    /// request counts and fingerprints of the plain §4.2 protocol are
    /// untouched).
    pub closure: ClosureMode,
}

impl Default for Arch2Config {
    fn default() -> Self {
        Arch2Config {
            retry: RetryPolicy::default(),
            use_nonce: true,
            closure: ClosureMode::Off,
        }
    }
}

/// A finished provenance item: its SimpleDB item name and attributes.
pub(crate) type ProvItem = (String, Vec<ReplaceableAttribute>);

/// How [`WriteSide::put_items`] ships items to SimpleDB.
#[derive(Copy, Clone, Debug)]
pub(crate) enum PutProtocol {
    /// The paper's: one `PutAttributes` per ≤ 100-attribute chunk per
    /// item — what Tables 1–3 count.
    Point,
    /// `BatchPutAttributes`, ≤ 25 items / ≤ 256 summed pairs per request
    /// ([`pack_attr_batches`]; a repeated item name closes a batch early,
    /// preserving the sequential-application result).
    Batched,
}

/// The crash windows of [`WriteSide::put_items`], named by its caller.
#[derive(Copy, Clone, Debug)]
pub(crate) struct PutSites {
    /// After each provenance put lands.
    pub(crate) mid_put: CrashSite,
    /// Edges committed, closure-index rows not yet written.
    pub(crate) before_index: CrashSite,
    /// Between closure-index `BatchPutAttributes` calls.
    pub(crate) mid_index: CrashSite,
}

/// The S3 + SimpleDB side of a store. §4.3 stores exactly what §4.2
/// stores, so the arch2 client and the arch3 commit daemon own one of
/// these each and write through it: `parts` is the only copy of the
/// service handles and read knobs (the read side, cloned out to
/// [`crate::ServeHandle`]), and the closure index exists exactly when the
/// configuration says [`ClosureMode::Serve`].
#[derive(Debug)]
pub(crate) struct WriteSide {
    pub(crate) parts: ServeParts,
    closure: Option<ClosureIndex>,
}

impl WriteSide {
    /// Fresh S3 and SimpleDB endpoints with `shards` shards per bucket
    /// and domain, holding the bucket and the provenance domain.
    pub(crate) fn provision(world: &SimWorld, shards: usize) -> (S3, SimpleDb) {
        let s3 = S3::with_shards(world, shards);
        s3.create_bucket(BUCKET)
            .expect("fresh endpoint has no buckets");
        let db = SimpleDb::with_shards(world, shards);
        db.create_domain(DOMAIN)
            .expect("fresh endpoint has no domains");
        (s3, db)
    }

    /// The side over existing endpoints (bucket and domain must exist).
    pub(crate) fn new(world: &SimWorld, s3: &S3, db: &SimpleDb, config: Arch2Config) -> WriteSide {
        let serve_closure = config.closure == ClosureMode::Serve;
        WriteSide {
            parts: ServeParts {
                world: world.clone(),
                s3: s3.clone(),
                db: db.clone(),
                retry: config.retry,
                use_nonce: config.use_nonce,
                serve_closure,
            },
            closure: serve_closure.then(ClosureIndex::default),
        }
    }

    /// Replaces the configuration. An index that stays configured keeps
    /// its ancestor cache.
    pub(crate) fn configure(&mut self, config: Arch2Config) {
        let ServeParts { world, s3, db, .. } = &self.parts;
        let kept = self.closure.take();
        *self = WriteSide::new(world, s3, db, config);
        if self.closure.is_some() && kept.is_some() {
            self.closure = kept;
        }
    }

    /// Drops the index's in-memory state, as a process crash would.
    pub(crate) fn forget(&mut self) {
        if let Some(index) = &mut self.closure {
            index.reset();
        }
    }

    /// Finishes item `item_name`: caps `pairs` at SimpleDB's 256-pair
    /// limit, storing the spilled tail of a massive item as a
    /// continuation object (an idempotent PUT, `before_put` firing
    /// first), and returns the attributes to put.
    pub(crate) fn finish_item(
        &self,
        item_name: &str,
        pairs: Vec<(String, String)>,
        before_put: Option<CrashSite>,
    ) -> Result<Vec<ReplaceableAttribute>> {
        let parts = &self.parts;
        let (pairs, continuation) = fit_item_pairs(item_name, pairs);
        if let Some((key, blob)) = continuation {
            if let Some(site) = before_put {
                parts.world.crash_point(site)?;
            }
            put_plain(&parts.s3, &key, &blob)?;
        }
        let add = |(name, value)| ReplaceableAttribute::add(name, value);
        Ok(pairs.into_iter().map(add).collect())
    }

    /// Puts finished items to [`DOMAIN`] by `protocol`, then — when the
    /// store keeps the closure index — indexes their edges (gathered
    /// before the puts take the items). The index write sits after the
    /// provenance rows and before the caller's point of no return (arch2:
    /// the data PUT a client retries from its cache; arch3: the WAL
    /// deletes), so a crash in either window replays the whole step, and
    /// every write in it is an idempotent add.
    pub(crate) fn put_items(
        &mut self,
        items: Vec<ProvItem>,
        protocol: PutProtocol,
        sites: PutSites,
    ) -> Result<()> {
        let parts = &self.parts;
        let indexing = self.closure.as_mut().map(|index| {
            let group = index.gather(&items);
            (index, group)
        });
        match protocol {
            PutProtocol::Point => {
                for (item_name, attrs) in &items {
                    for chunk in attrs.chunks(MAX_ATTRS_PER_CALL) {
                        parts.db.put_attributes(DOMAIN, item_name, chunk)?;
                        parts.world.crash_point(sites.mid_put)?;
                    }
                }
            }
            PutProtocol::Batched => {
                for group in pack_attr_batches(items) {
                    parts.db.batch_put_attributes(DOMAIN, &group)?;
                    parts.world.crash_point(sites.mid_put)?;
                }
            }
        }
        if let Some((index, group)) = indexing {
            parts.world.crash_point(sites.before_index)?;
            index.index_group(parts, group, sites.mid_index)?;
        }
        Ok(())
    }
}

/// The metadata of a data object: its version and the consistency nonce.
pub(crate) fn data_meta(version: u32, nonce: &str) -> Metadata {
    Metadata::from_pairs([
        (META_VERSION, version.to_string()),
        (META_NONCE, nonce.to_string()),
    ])
}

/// The S3 + SimpleDB provenance store.
///
/// # Examples
///
/// ```
/// use pass::FileFlush;
/// use provenance_cloud::{ProvenanceStore, S3SimpleDb};
/// use simworld::{Blob, SimWorld};
///
/// let world = SimWorld::counting();
/// let mut store = S3SimpleDb::new(&world);
/// let flush = FileFlush::builder("a.txt").data(Blob::from("hi")).build();
/// store.persist(&flush)?;
/// assert!(store.read("a.txt")?.consistent());
/// # Ok::<(), provenance_cloud::CloudError>(())
/// ```
#[derive(Debug)]
pub struct S3SimpleDb {
    side: WriteSide,
}

const PUT_SITES: PutSites = PutSites {
    mid_put: A2_MID_PROV_PUT,
    before_index: A2_BEFORE_INDEX_PUT,
    mid_index: A2_MID_INDEX_PUT,
};

impl S3SimpleDb {
    /// Creates the store with fresh S3/SimpleDB endpoints (default
    /// SimpleDB shard count).
    pub fn new(world: &SimWorld) -> S3SimpleDb {
        S3SimpleDb::with_shards(world, sim_simpledb::DEFAULT_SHARDS)
    }

    /// Creates the store with fresh endpoints whose SimpleDB domains
    /// *and* S3 buckets are divided into `shards` hash shards — the
    /// knob behind the parallel query/select and multi-client scaling
    /// experiments.
    pub fn with_shards(world: &SimWorld, shards: usize) -> S3SimpleDb {
        let (s3, db) = WriteSide::provision(world, shards);
        S3SimpleDb::with_services(world, &s3, &db)
    }

    /// Creates the store over existing endpoints (bucket and domain must
    /// exist).
    pub fn with_services(world: &SimWorld, s3: &S3, db: &SimpleDb) -> S3SimpleDb {
        S3SimpleDb {
            side: WriteSide::new(world, s3, db, Arch2Config::default()),
        }
    }

    /// Replaces the configuration.
    pub fn set_config(&mut self, config: Arch2Config) {
        self.side.configure(config);
    }

    /// The underlying S3 handle (shared).
    pub fn s3(&self) -> &S3 {
        &self.side.parts.s3
    }

    /// The underlying SimpleDB handle (shared).
    pub fn simpledb(&self) -> &SimpleDb {
        &self.side.parts.db
    }

    /// Protocol steps 1–2 for one flush — which *is* step 1's two cache
    /// files, the data and the hidden provenance: store its overflow and
    /// continuation objects, and return the finished provenance item
    /// (name plus its ≤ 256 attributes, MD5/nonce included) ready for
    /// SimpleDB.
    fn stage_item(&mut self, flush: &FileFlush) -> Result<ProvItem> {
        let encoded = encode_records(&flush.object, &flush.records);
        let parts = &self.side.parts;
        for (key, blob) in &encoded.overflows {
            parts.world.crash_point(A2_BEFORE_OVERFLOW_PUT)?;
            put_plain(&parts.s3, key, blob)?;
        }
        let item_name = flush.object.item_name();
        let before_put = Some(A2_BEFORE_OVERFLOW_PUT);
        let mut attrs = self
            .side
            .finish_item(&item_name, encoded.pairs, before_put)?;
        let nonce = nonce_for(&flush.object);
        let md5 = consistency_md5(&flush.data, &nonce, parts.use_nonce);
        attrs.push(ReplaceableAttribute::add(ATTR_MD5, md5));
        attrs.push(ReplaceableAttribute::add(ATTR_NONCE, nonce));
        Ok((item_name, attrs))
    }

    /// Protocol step 4 for one flush: the data PUT carrying the nonce. A
    /// crash just before it is the §4.2 atomicity violation.
    fn put_data(&mut self, flush: &FileFlush) -> Result<()> {
        let parts = &self.side.parts;
        parts.world.crash_point(A2_BEFORE_DATA_PUT)?;
        let key = data_key(&flush.object.name);
        let nonce = nonce_for(&flush.object);
        let meta = data_meta(flush.object.version, &nonce);
        Ok(parts
            .s3
            .put_object(BUCKET, &key, flush.data.clone(), meta)?)
    }

    /// Steps 1–4 for a group of flushes: every item is staged, then all
    /// provenance lands by `protocol` (and is indexed), then the data.
    fn persist_group(&mut self, flushes: &[FileFlush], protocol: PutProtocol) -> Result<()> {
        if flushes.is_empty() {
            return Ok(());
        }
        let mut items = Vec::with_capacity(flushes.len());
        for flush in flushes {
            items.push(self.stage_item(flush)?);
        }
        self.side.parts.world.crash_point(A2_BEFORE_PROV_PUT)?;
        self.side.put_items(items, protocol, PUT_SITES)?;
        flushes.iter().try_for_each(|flush| self.put_data(flush))
    }
}

impl Serveable for S3SimpleDb {
    fn serve_parts(&self) -> ServeParts {
        self.side.parts.clone()
    }
}

impl ProvenanceStore for S3SimpleDb {
    fn architecture(&self) -> &'static str {
        "s3+simpledb"
    }

    /// §4.2 protocol: (1) read the cache files (`flush`), (2) build the
    /// provenance item (overflow > 1 KB to S3, add the MD5 record),
    /// (3) PutAttributes (possibly several calls — 100-attribute limit),
    /// (4) PUT the data with the nonce in its metadata.
    fn persist(&mut self, flush: &FileFlush) -> Result<()> {
        self.persist_group(std::slice::from_ref(flush), PutProtocol::Point)
    }

    /// The batched §4.2 protocol: stage every flush's overflow objects
    /// and attribute list, ship the provenance items through
    /// `BatchPutAttributes` — up to 25 items / 256 summed pairs per
    /// **single billable request**, instead of one `PutAttributes` per
    /// ≤ 100-attribute chunk per item — then run the data PUTs. Final
    /// store state is identical to sequential [`S3SimpleDb::persist`]
    /// calls (provenance still lands before data, so the crash-ordering
    /// story is unchanged); only the request count drops.
    fn persist_batch(&mut self, flushes: &[FileFlush]) -> Result<()> {
        self.persist_group(flushes, PutProtocol::Batched)
    }

    fn read(&self, name: &str) -> Result<ReadOutcome> {
        self.side.parts.read(name)
    }

    fn query(&self, query: &ProvQuery) -> Result<QueryAnswer> {
        self.side.parts.query(query)
    }

    /// The orphan-provenance scan the paper calls inelegant (§4.2): walk
    /// every SimpleDB item and delete those describing versions newer
    /// than the data S3 actually holds.
    fn recover(&mut self) -> Result<RecoveryReport> {
        let parts = &self.side.parts;
        let mut report = RecoveryReport::default();
        let mut orphans: Vec<String> = Vec::new();
        page_through(|token| {
            let page = parts.db.query(DOMAIN, None, Some(250), token)?;
            for item_name in &page.item_names {
                report.items_scanned += 1;
                let Some(object) = ObjectRef::parse_item_name(item_name) else {
                    continue;
                };
                let current = match parts.s3.head_object(BUCKET, &data_key(&object.name)) {
                    Ok(head) => Some(read_version(&head.metadata)?),
                    Err(S3Error::NoSuchKey { .. }) => None,
                    Err(e) => return Err(e.into()),
                };
                // Provenance for a version the data store has never
                // reached is an orphan. Older versions are history, not
                // orphans.
                if current.map(|v| object.version > v).unwrap_or(true) {
                    orphans.push(item_name.clone());
                }
            }
            Ok(page.next_token)
        })?;
        for item_name in orphans {
            let whole = None::<&[DeletableAttribute]>;
            parts.db.delete_attributes(DOMAIN, &item_name, whole)?;
            report.orphan_provenance_removed += 1;
        }
        Ok(report)
    }
}
