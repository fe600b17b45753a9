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

use pass::{CacheDir, FileFlush, ObjectRef};
use sim_s3::{Metadata, S3Error, S3};
use sim_simpledb::{DeletableAttribute, ReplaceableAttribute, SimpleDb, MAX_ATTRS_PER_CALL};
use simworld::{CrashSite, SimWorld};

use crate::closure::{ClosureIndex, ClosureMode};
use crate::error::Result;
use crate::layout::{
    data_key, nonce_for, ATTR_MD5, ATTR_NONCE, BUCKET, DOMAIN, META_NONCE, META_VERSION,
};
use crate::query::{ProvQuery, QueryAnswer};
use crate::readpath::consistency_md5;
use crate::retry::{with_throttle_retry, RetryPolicy};
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
    /// Verify `MD5(data ‖ nonce)` on reads. Disabling this is the
    /// consistency ablation: reads then trust whatever the replicas
    /// return.
    pub verify_md5: bool,
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
            verify_md5: true,
            use_nonce: true,
            closure: ClosureMode::Off,
        }
    }
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
    world: SimWorld,
    s3: S3,
    db: SimpleDb,
    cache: CacheDir,
    config: Arch2Config,
    closure: ClosureIndex,
}

impl S3SimpleDb {
    /// Creates the store with fresh S3/SimpleDB endpoints (default
    /// SimpleDB shard count).
    pub fn new(world: &SimWorld) -> S3SimpleDb {
        S3SimpleDb::with_shards(world, sim_simpledb::DEFAULT_SHARDS)
    }

    /// Creates the store with fresh endpoints whose SimpleDB domains
    /// *and* S3 buckets are split into `shards` hash shards — the knob
    /// behind the parallel query/select and multi-client scaling
    /// experiments.
    pub fn with_shards(world: &SimWorld, shards: usize) -> S3SimpleDb {
        S3SimpleDb::with_shard_plan(world, simworld::ShardPlan::fixed(shards))
    }

    /// Creates the store with fresh endpoints provisioned per `plan` —
    /// initial shard count plus an optional hot-shard split policy,
    /// applied to both the S3 bucket and the SimpleDB domain.
    pub fn with_shard_plan(world: &SimWorld, plan: simworld::ShardPlan) -> S3SimpleDb {
        let s3 = S3::with_shard_plan(world, plan);
        s3.create_bucket(BUCKET)
            .expect("fresh endpoint has no buckets");
        let db = SimpleDb::with_shard_plan(world, plan);
        db.create_domain(DOMAIN)
            .expect("fresh endpoint has no domains");
        S3SimpleDb::with_services(world, &s3, &db)
    }

    /// Creates the store over existing endpoints (bucket and domain must
    /// exist).
    pub fn with_services(world: &SimWorld, s3: &S3, db: &SimpleDb) -> S3SimpleDb {
        S3SimpleDb {
            world: world.clone(),
            s3: s3.clone(),
            db: db.clone(),
            cache: CacheDir::new(),
            config: Arch2Config::default(),
            closure: ClosureIndex::new(world, db),
        }
    }

    /// Replaces the configuration.
    pub fn set_config(&mut self, config: Arch2Config) {
        self.config = config;
    }

    /// The underlying S3 handle (shared).
    pub fn s3(&self) -> &S3 {
        &self.s3
    }

    /// The underlying SimpleDB handle (shared).
    pub fn simpledb(&self) -> &SimpleDb {
        &self.db
    }

    /// The local cache directory.
    pub fn cache(&self) -> &CacheDir {
        &self.cache
    }

    /// Protocol steps 1–2 for one flush: cache it, store its overflow
    /// and continuation objects, and return the finished provenance
    /// item (name plus its ≤ 256 attributes, MD5/nonce included) ready
    /// for SimpleDB.
    fn stage_item(&mut self, flush: &FileFlush) -> Result<(String, Vec<ReplaceableAttribute>)> {
        self.cache.store(flush);
        let encoded = encode_records(&flush.object, &flush.records);
        for (key, blob) in &encoded.overflows {
            self.world.crash_point(A2_BEFORE_OVERFLOW_PUT)?;
            with_throttle_retry(&self.world, &self.config.retry, || {
                Ok(self
                    .s3
                    .put_object(BUCKET, key, blob.clone(), Metadata::new())?)
            })?;
        }
        let nonce = nonce_for(&flush.object);
        // SimpleDB caps items at 256 pairs; excess (massive fan-in)
        // spills to a continuation object.
        let (pairs, continuation) = fit_item_pairs(&flush.object, encoded.pairs);
        if let Some((key, blob)) = continuation {
            self.world.crash_point(A2_BEFORE_OVERFLOW_PUT)?;
            with_throttle_retry(&self.world, &self.config.retry, || {
                Ok(self
                    .s3
                    .put_object(BUCKET, &key, blob.clone(), Metadata::new())?)
            })?;
        }
        let mut attrs: Vec<ReplaceableAttribute> = pairs
            .into_iter()
            .map(|(name, value)| ReplaceableAttribute::add(name, value))
            .collect();
        attrs.push(ReplaceableAttribute::add(
            ATTR_MD5,
            consistency_md5(&flush.data, &nonce, self.config.use_nonce),
        ));
        attrs.push(ReplaceableAttribute::add(ATTR_NONCE, nonce));
        Ok((flush.object.item_name(), attrs))
    }

    /// Protocol step 4 for one flush: the data PUT carrying the nonce.
    fn put_data(&mut self, flush: &FileFlush) -> Result<()> {
        self.world.crash_point(A2_BEFORE_DATA_PUT)?;
        let mut meta = Metadata::new();
        meta.insert(META_VERSION, flush.object.version.to_string());
        meta.insert(META_NONCE, nonce_for(&flush.object));
        with_throttle_retry(&self.world, &self.config.retry, || {
            Ok(self.s3.put_object(
                BUCKET,
                &data_key(&flush.object.name),
                flush.data.clone(),
                meta.clone(),
            )?)
        })?;
        Ok(())
    }
}

impl Serveable for S3SimpleDb {
    fn serve_parts(&self) -> ServeParts {
        ServeParts {
            world: self.world.clone(),
            s3: self.s3.clone(),
            db: self.db.clone(),
            retry: self.config.retry,
            verify_md5: self.config.verify_md5,
            use_nonce: self.config.use_nonce,
            serve_closure: self.config.closure.serves(),
        }
    }
}

impl ProvenanceStore for S3SimpleDb {
    fn architecture(&self) -> &'static str {
        "s3+simpledb"
    }

    /// §4.2 protocol: (1) read cache, (2) build the provenance item
    /// (overflow > 1 KB to S3, add the MD5 record), (3) PutAttributes
    /// (possibly several calls — 100-attribute limit), (4) PUT the data
    /// with the nonce in its metadata.
    fn persist(&mut self, flush: &FileFlush) -> Result<()> {
        // Steps 1–2: cache, overflow objects, finished attribute list.
        let (item_name, attrs) = self.stage_item(flush)?;

        // Step 3: store the provenance item in ≤ 100-attribute batches.
        self.world.crash_point(A2_BEFORE_PROV_PUT)?;
        for chunk in attrs.chunks(MAX_ATTRS_PER_CALL) {
            with_throttle_retry(&self.world, &self.config.retry, || {
                Ok(self.db.put_attributes(DOMAIN, &item_name, chunk)?)
            })?;
            self.world.crash_point(A2_MID_PROV_PUT)?;
        }

        // Step 3b: closure-index maintenance rides the same flush. A
        // crash in this window is healed by the client's cache
        // re-flush, which replays the idempotent index adds.
        if self.config.closure.maintains() {
            self.world.crash_point(A2_BEFORE_INDEX_PUT)?;
            let group = vec![(item_name.clone(), attrs.clone())];
            self.closure
                .index_items(&group, self.config.retry, A2_MID_INDEX_PUT)?;
        }

        // Step 4: the data PUT, with the nonce as metadata. A crash just
        // before this line is the §4.2 atomicity violation.
        self.put_data(flush)
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
        if flushes.is_empty() {
            return Ok(());
        }
        // Steps 1–2 for the whole group.
        let mut items: Vec<(String, Vec<ReplaceableAttribute>)> = Vec::with_capacity(flushes.len());
        for flush in flushes {
            items.push(self.stage_item(flush)?);
        }

        // Step 3, grouped: greedy first-fit into BatchPutAttributes
        // calls under both service limits (a repeated item name — the
        // same object version flushed twice in one group — closes the
        // group early, since the batch API rejects duplicates per call).
        self.world.crash_point(A2_BEFORE_PROV_PUT)?;
        let closure_src = self.config.closure.maintains().then(|| items.clone());
        for group in pack_attr_batches(items) {
            with_throttle_retry(&self.world, &self.config.retry, || {
                Ok(self.db.batch_put_attributes(DOMAIN, &group)?)
            })?;
            self.world.crash_point(A2_MID_PROV_PUT)?;
        }

        // Step 3b: index the whole group's edges at once.
        if let Some(src) = closure_src {
            self.world.crash_point(A2_BEFORE_INDEX_PUT)?;
            self.closure
                .index_items(&src, self.config.retry, A2_MID_INDEX_PUT)?;
        }

        // Step 4 for the whole group.
        for flush in flushes {
            self.put_data(flush)?;
        }
        Ok(())
    }

    fn read(&mut self, name: &str) -> Result<ReadOutcome> {
        self.serve_parts().read(name)
    }

    fn query(&mut self, query: &ProvQuery) -> Result<QueryAnswer> {
        self.serve_parts().query(query)
    }

    /// The orphan-provenance scan the paper calls inelegant (§4.2): walk
    /// every SimpleDB item and delete those describing versions newer
    /// than the data S3 actually holds.
    fn recover(&mut self) -> Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        let mut token: Option<String> = None;
        let mut orphans: Vec<String> = Vec::new();
        loop {
            let page = self.db.query(DOMAIN, None, Some(250), token.as_deref())?;
            for item_name in &page.item_names {
                report.items_scanned += 1;
                let Some(object) = ObjectRef::parse_item_name(item_name) else {
                    continue;
                };
                let current = match self.s3.head_object(BUCKET, &data_key(&object.name)) {
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
            match page.next_token {
                Some(t) => token = Some(t),
                None => break,
            }
        }
        for item_name in orphans {
            with_throttle_retry(&self.world, &self.config.retry, || {
                Ok(self
                    .db
                    .delete_attributes(DOMAIN, &item_name, None::<&[DeletableAttribute]>)?)
            })?;
            report.orphan_provenance_removed += 1;
        }
        Ok(report)
    }
}
