//! The S3 service simulator.
//!
//! # Sharded storage layout
//!
//! Each bucket is a [`simworld::ShardMap`]: a **range-routed** set of
//! shards, each owning a contiguous span of the 64-bit key-hash ring and
//! sitting behind its own lock (default [`DEFAULT_SHARDS`] shards,
//! configurable via [`S3::with_shards`] / [`S3::with_shard_plan`]).
//! Point operations (PUT/GET/HEAD/COPY/DELETE) contend only for one
//! shard while LIST fans out across all shards and merges the per-shard
//! key pages in lexicographic order — the same shared layer the sharded
//! SimpleDB simulator routes through. With a [`simworld::SplitPolicy`]
//! armed, a hot shard splits its hash range in two in the background;
//! placement changes, but converged state is byte-identical with
//! splitting on or off.
//!
//! Shard-count requests are validated by the one shared rule
//! ([`simworld::clamp_shards`], identical in SimpleDB): `with_shards(0)`
//! is promoted to 1 shard and oversized requests are silently capped at
//! [`MAX_SHARDS`].
//!
//! # LIST consistency
//!
//! A LIST pins **one replica per shard, keyed by stable shard id**, for
//! the whole call: the key listing and the per-key sizes come from the
//! same per-shard view, so a key counted toward the page cap can never
//! vanish from the page. [`S3::list_all`] pins the replicas once for its
//! *entire* internal pagination walk, so a marker-based scan is one
//! coherent view per shard — a stale replica sampled mid-walk can no
//! longer hide keys an earlier page's replica had already promised, and
//! because pins are keyed by stable id (not shard index), a shard that
//! splits mid-walk keeps serving the walk from its parent's pinned
//! replica: the walk neither skips nor duplicates a key.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use simworld::{
    Blob, Md5Digest, Op, ReplicaPin, Service, ShardMap, ShardPlan, SimInstant, SimWorld,
    SplitEvent, ThrottleConfig,
};

use crate::error::{Result, S3Error};
use crate::metadata::Metadata;

/// S3's maximum object size circa January 2009: 5 GB.
pub const MAX_OBJECT_SIZE: u64 = 5 * 1024 * 1024 * 1024;

/// S3's maximum key length in bytes.
pub const MAX_KEY_LEN: usize = 1024;

/// Maximum keys returned per LIST page.
pub const MAX_LIST_KEYS: usize = 1000;

/// Maximum keys per multi-object delete request.
pub const MAX_DELETE_KEYS: usize = 1000;

/// Default number of hash shards per bucket.
pub const DEFAULT_SHARDS: usize = 16;

/// Upper bound on shards per bucket — the workspace-wide
/// [`simworld::MAX_SHARDS`], shared with SimpleDB so the clamping rule
/// cannot drift between services.
pub const MAX_SHARDS: usize = simworld::MAX_SHARDS;

/// Approximate fixed response overhead per listed key (XML framing).
const LIST_ENTRY_OVERHEAD: u64 = 64;

/// A stored object as returned by GET.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Object {
    /// Object content (possibly a sub-range for ranged GETs).
    pub body: Blob,
    /// User metadata.
    pub metadata: Metadata,
    /// MD5 of the complete body (S3's ETag for simple PUTs).
    pub etag: Md5Digest,
    /// When the object version was written.
    pub last_modified: SimInstant,
}

/// Metadata-only view returned by HEAD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Head {
    /// User metadata.
    pub metadata: Metadata,
    /// Full body length in bytes.
    pub content_length: u64,
    /// MD5 of the body.
    pub etag: Md5Digest,
    /// When the object version was written.
    pub last_modified: SimInstant,
}

/// One entry of a LIST response.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectSummary {
    /// Object key.
    pub key: String,
    /// Body length in bytes.
    pub size: u64,
}

/// A LIST response page.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Listing {
    /// Keys in lexicographic order, after `marker`, matching `prefix`.
    pub objects: Vec<ObjectSummary>,
    /// `true` when more keys remain past this page.
    pub is_truncated: bool,
}

/// Whether COPY carries the source metadata or replaces it — the
/// `x-amz-metadata-directive` header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetadataDirective {
    /// Keep the source object's metadata.
    Copy,
    /// Replace metadata wholesale with the supplied pairs.
    Replace(Metadata),
}

#[derive(Clone, Debug)]
struct Stored {
    body: Blob,
    metadata: Metadata,
    etag: Md5Digest,
    last_modified: SimInstant,
}

impl Stored {
    fn footprint(&self) -> u64 {
        self.body.len() + self.metadata.byte_size()
    }
}

type Bucket = ShardMap<Stored>;

struct Inner {
    buckets: RwLock<BTreeMap<String, Arc<Bucket>>>,
    /// One optional throttle config for the endpoint; the per-shard
    /// token buckets live inside each bucket's [`ShardMap`], keyed by
    /// stable shard id so they survive (and are re-keyed across) splits.
    throttle: Mutex<Option<ThrottleConfig>>,
}

/// The simulated Simple Storage Service.
///
/// All clones share one backing store (they are handles to the same
/// simulated service endpoint). Every operation is metered against the
/// world's ledger and advances the virtual clock; reads are served from a
/// sampled replica and may be stale under eventual consistency. Point
/// operations lock only the hash shard their key lives on.
///
/// # Examples
///
/// ```
/// use sim_s3::{Metadata, S3};
/// use simworld::{Blob, SimWorld};
///
/// let world = SimWorld::counting();
/// let s3 = S3::new(&world);
/// s3.create_bucket("data")?;
/// s3.put_object("data", "hello.txt", Blob::from("hi"), Metadata::new())?;
/// let obj = s3.get_object("data", "hello.txt")?;
/// assert_eq!(&obj.body.to_bytes()[..], b"hi");
/// # Ok::<(), sim_s3::S3Error>(())
/// ```
#[derive(Clone)]
pub struct S3 {
    world: SimWorld,
    plan: ShardPlan,
    inner: Arc<Inner>,
}

impl std::fmt::Debug for S3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let buckets = self.inner.buckets.read();
        f.debug_struct("S3")
            .field("buckets", &buckets.len())
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

/// Meters one COPY request, keyed for completion order when the caller
/// supplied an `order_key` (see [`S3::copy_object_ordered`]).
fn record_copy(world: &SimWorld, order_key: Option<u64>) {
    match order_key {
        Some(key) => world.record_op_keyed(Op::S3Copy, 0, 0, key),
        None => world.record_op(Op::S3Copy, 0, 0),
    }
}

impl S3 {
    /// Connects a new simulated S3 endpoint to `world` with
    /// [`DEFAULT_SHARDS`] shards per bucket.
    pub fn new(world: &SimWorld) -> S3 {
        S3::with_shards(world, DEFAULT_SHARDS)
    }

    /// Connects an endpoint whose buckets are split into `shards` hash
    /// shards, validated by the shared rule ([`simworld::clamp_shards`]:
    /// zero becomes 1, oversized caps at [`MAX_SHARDS`]). More shards
    /// mean less lock contention between concurrent point operations and
    /// more fan-out parallelism for LIST. The layout is static — no
    /// splitting.
    pub fn with_shards(world: &SimWorld, shards: usize) -> S3 {
        S3::with_shard_plan(world, ShardPlan::fixed(shards))
    }

    /// Connects an endpoint provisioning each bucket per `plan`: the
    /// initial shard count plus, optionally, a hot-shard
    /// [`simworld::SplitPolicy`].
    pub fn with_shard_plan(world: &SimWorld, plan: ShardPlan) -> S3 {
        S3 {
            world: world.clone(),
            plan,
            inner: Arc::new(Inner {
                buckets: RwLock::new(BTreeMap::new()),
                throttle: Mutex::new(None),
            }),
        }
    }

    /// Initial (post-clamp) hash shards per bucket on this endpoint.
    /// Splitting can grow an individual bucket past this — see
    /// [`S3::bucket_shard_count`].
    pub fn shard_count(&self) -> usize {
        simworld::clamp_shards(self.plan.shards)
    }

    /// The shard plan buckets are provisioned with.
    pub fn shard_plan(&self) -> ShardPlan {
        self.plan
    }

    /// Shards `bucket` currently holds (grows as hot shards split), or
    /// `None` for an unknown bucket. Unbilled.
    pub fn bucket_shard_count(&self, bucket: &str) -> Option<usize> {
        Some(self.bucket(bucket).ok()?.shard_count())
    }

    /// Splits performed on `bucket` so far, or `None` for an unknown
    /// bucket. Unbilled.
    pub fn bucket_split_count(&self, bucket: &str) -> Option<u64> {
        Some(self.bucket(bucket).ok()?.split_count())
    }

    /// Stable ids of `bucket`'s current shards in hash-range order, or
    /// `None` for an unknown bucket. Unbilled.
    pub fn bucket_shard_ids(&self, bucket: &str) -> Option<Vec<u32>> {
        Some(self.bucket(bucket).ok()?.shard_ids())
    }

    /// Test/bench hook: force-splits the shard of `bucket` currently
    /// holding the most cells, policy or not. Returns the split record,
    /// or `None` when the bucket is unknown or nothing can split.
    pub fn split_hottest(&self, bucket: &str) -> Option<SplitEvent> {
        self.bucket(bucket).ok()?.force_split()
    }

    /// Installs (or, with `None`, removes) a per-shard write-rate limit.
    /// Above the limit, write-path calls return
    /// [`S3Error::ServiceUnavailable`] without applying — the rejection
    /// is still a billable, metered request. Read paths (GET/HEAD/LIST)
    /// are not throttled. Replaces any prior limit and resets bucket
    /// state.
    pub fn set_throttle(&self, config: Option<ThrottleConfig>) {
        *self.inner.throttle.lock() = config;
        for bkt in self.inner.buckets.read().values() {
            bkt.reset_throttle();
        }
    }

    /// The active per-shard write-rate limit, if any.
    pub fn throttle(&self) -> Option<ThrottleConfig> {
        *self.inner.throttle.lock()
    }

    /// All-or-nothing admission for a request landing on `shards` of
    /// `bkt`: every touched shard's token bucket must hold a token, or
    /// the whole request is rejected and no bucket is drained (a
    /// rejected batch must not consume the budget of the shards it
    /// missed).
    fn admit(&self, bkt: &Bucket, shards: &[u32]) -> bool {
        let config = *self.inner.throttle.lock();
        bkt.admit(self.world.now(), config, shards)
    }

    /// Creates a bucket.
    ///
    /// # Errors
    ///
    /// [`S3Error::BucketAlreadyExists`] on name collision;
    /// [`S3Error::InvalidBucketName`] for empty or oversized names.
    pub fn create_bucket(&self, bucket: impl Into<String>) -> Result<()> {
        let bucket = bucket.into();
        if bucket.is_empty() || bucket.len() > 255 {
            return Err(S3Error::InvalidBucketName { bucket });
        }
        let mut buckets = self.inner.buckets.write();
        if buckets.contains_key(&bucket) {
            return Err(S3Error::BucketAlreadyExists { bucket });
        }
        self.world.record_op(Op::S3Put, bucket.len() as u64, 0);
        buckets.insert(bucket, Arc::new(ShardMap::new(self.plan)));
        Ok(())
    }

    /// Stores an object, overwriting any existing object at the key.
    /// Data and metadata travel in the *same* request — the paper's
    /// Architecture 1 leans on this for atomicity. Touches exactly one
    /// shard.
    ///
    /// # Errors
    ///
    /// [`S3Error::NoSuchBucket`], [`S3Error::KeyTooLong`],
    /// [`S3Error::EntityTooLarge`] or [`S3Error::MetadataTooLarge`].
    pub fn put_object(
        &self,
        bucket: &str,
        key: &str,
        body: Blob,
        metadata: Metadata,
    ) -> Result<()> {
        if key.len() > MAX_KEY_LEN {
            return Err(S3Error::KeyTooLong { length: key.len() });
        }
        if body.len() > MAX_OBJECT_SIZE {
            return Err(S3Error::EntityTooLarge { size: body.len() });
        }
        metadata.check_limit()?;
        let bkt = self.bucket(bucket)?;
        let shard = bkt.route(key);
        let stored = Stored {
            etag: body.md5(),
            last_modified: self.world.now(),
            body,
            metadata,
        };
        let bytes_in = stored.footprint();
        if !self.admit(&bkt, &[shard]) {
            self.world.record_throttled(Op::S3Put, bytes_in);
            self.world.record_shard_touch(Service::S3, shard);
            bkt.maybe_split();
            return Err(S3Error::ServiceUnavailable {
                bucket: bucket.to_string(),
            });
        }
        let shard = bkt.with_cells(key, |shard, map| {
            let prev_footprint = map
                .read_latest(&key.to_string())
                .map(|s| s.footprint())
                .unwrap_or(0);
            self.world.record_op(Op::S3Put, bytes_in, 0);
            self.world.record_shard_touch(Service::S3, shard);
            self.world
                .adjust_stored(Service::S3, bytes_in as i64 - prev_footprint as i64);
            map.write(&self.world, key.to_string(), Some(stored));
            shard
        });
        bkt.note_ops(&[shard]);
        Ok(())
    }

    /// Retrieves a whole object. Touches exactly one shard.
    ///
    /// # Errors
    ///
    /// [`S3Error::NoSuchKey`] when absent *or not yet visible on the
    /// sampled replica* — retrying after the propagation lag succeeds.
    pub fn get_object(&self, bucket: &str, key: &str) -> Result<Object> {
        let bkt = self.bucket(bucket)?;
        let shard = bkt.route(key);
        self.world.record_shard_touch(Service::S3, shard);
        let stored = bkt.with_cells(key, |_, map| map.read(&self.world, &key.to_string()));
        bkt.note_ops(&[shard]);
        let stored = stored.ok_or_else(|| {
            self.world.record_op(Op::S3Get, 0, 0);
            S3Error::NoSuchKey {
                bucket: bucket.to_string(),
                key: key.to_string(),
            }
        })?;
        let bytes_out = stored.footprint();
        self.world.record_op(Op::S3Get, 0, bytes_out);
        Ok(Object {
            body: stored.body,
            metadata: stored.metadata,
            etag: stored.etag,
            last_modified: stored.last_modified,
        })
    }

    /// Retrieves a byte range of an object. Metadata and the full-body
    /// ETag still accompany the response.
    ///
    /// # Errors
    ///
    /// [`S3Error::InvalidRange`] if the range does not fit the object;
    /// otherwise as [`S3::get_object`].
    pub fn get_object_range(&self, bucket: &str, key: &str, range: Range<u64>) -> Result<Object> {
        let bkt = self.bucket(bucket)?;
        let shard = bkt.route(key);
        self.world.record_shard_touch(Service::S3, shard);
        let stored = bkt.with_cells(key, |_, map| map.read(&self.world, &key.to_string()));
        bkt.note_ops(&[shard]);
        let stored = stored.ok_or_else(|| {
            self.world.record_op(Op::S3Get, 0, 0);
            S3Error::NoSuchKey {
                bucket: bucket.to_string(),
                key: key.to_string(),
            }
        })?;
        if range.start > range.end || range.end > stored.body.len() {
            return Err(S3Error::InvalidRange {
                start: range.start,
                end: range.end,
                len: stored.body.len(),
            });
        }
        let body = stored.body.slice(range);
        let bytes_out = body.len() + stored.metadata.byte_size();
        self.world.record_op(Op::S3Get, 0, bytes_out);
        Ok(Object {
            body,
            metadata: stored.metadata,
            etag: stored.etag,
            last_modified: stored.last_modified,
        })
    }

    /// Retrieves only the metadata of an object — the sole provenance
    /// "query" primitive Architecture 1 has. Touches exactly one shard.
    ///
    /// # Errors
    ///
    /// As [`S3::get_object`].
    pub fn head_object(&self, bucket: &str, key: &str) -> Result<Head> {
        let bkt = self.bucket(bucket)?;
        let shard = bkt.route(key);
        self.world.record_shard_touch(Service::S3, shard);
        let stored = bkt.with_cells(key, |_, map| map.read(&self.world, &key.to_string()));
        bkt.note_ops(&[shard]);
        let stored = stored.ok_or_else(|| {
            self.world.record_op(Op::S3Head, 0, 0);
            S3Error::NoSuchKey {
                bucket: bucket.to_string(),
                key: key.to_string(),
            }
        })?;
        self.world
            .record_op(Op::S3Head, 0, stored.metadata.byte_size());
        Ok(Head {
            content_length: stored.body.len(),
            metadata: stored.metadata,
            etag: stored.etag,
            last_modified: stored.last_modified,
        })
    }

    /// Server-side copy. Per the paper (§5), COPY is **not** billed for
    /// data transfer — only the operation itself — which is why
    /// Architecture 3's temp-object dance adds ops but no transfer bytes.
    /// Locks the source shard, then the destination shard (never both at
    /// once, so opposite-direction copies cannot deadlock).
    ///
    /// # Errors
    ///
    /// [`S3Error::NoSuchKey`] if the source is absent or not yet visible
    /// on the sampled replica; metadata limit errors when replacing.
    pub fn copy_object(
        &self,
        src_bucket: &str,
        src_key: &str,
        dst_bucket: &str,
        dst_key: &str,
        directive: MetadataDirective,
    ) -> Result<()> {
        self.copy_inner(src_bucket, src_key, dst_bucket, dst_key, directive, None)
    }

    /// [`S3::copy_object`] with a completion-order key: pipelined
    /// copies carrying the same `order_key` complete in issue order
    /// (see [`simworld::SimWorld::record_op_keyed`]). Architecture 3's
    /// commit daemon keys a transaction's apply-chain copies by txid so
    /// they stay ordered however deep its pipeline runs, while copies
    /// of different transactions overlap freely. Serial behaviour is
    /// identical to the unkeyed call.
    ///
    /// # Errors
    ///
    /// As [`S3::copy_object`].
    pub fn copy_object_ordered(
        &self,
        src_bucket: &str,
        src_key: &str,
        dst_bucket: &str,
        dst_key: &str,
        directive: MetadataDirective,
        order_key: u64,
    ) -> Result<()> {
        self.copy_inner(
            src_bucket,
            src_key,
            dst_bucket,
            dst_key,
            directive,
            Some(order_key),
        )
    }

    fn copy_inner(
        &self,
        src_bucket: &str,
        src_key: &str,
        dst_bucket: &str,
        dst_key: &str,
        directive: MetadataDirective,
        order_key: Option<u64>,
    ) -> Result<()> {
        if dst_key.len() > MAX_KEY_LEN {
            return Err(S3Error::KeyTooLong {
                length: dst_key.len(),
            });
        }
        // Resolve both buckets before touching any state, so a copy
        // into a missing bucket leaves no fingerprints (no shard touch,
        // no RNG draw) on the simulation.
        let src_bkt = self.bucket(src_bucket)?;
        let dst_bkt = self.bucket(dst_bucket)?;
        // Throttling gates the *write* side: admission is checked on the
        // destination shard before the source is even read, so a rejected
        // copy burns no source shard touch or replica sample.
        let dst_shard = dst_bkt.route(dst_key);
        if !self.admit(&dst_bkt, &[dst_shard]) {
            self.world.record_throttled(Op::S3Copy, 0);
            self.world.record_shard_touch(Service::S3, dst_shard);
            dst_bkt.maybe_split();
            return Err(S3Error::ServiceUnavailable {
                bucket: dst_bucket.to_string(),
            });
        }
        let src_shard = src_bkt.route(src_key);
        self.world.record_shard_touch(Service::S3, src_shard);
        let src = src_bkt.with_cells(src_key, |_, map| {
            map.read(&self.world, &src_key.to_string())
        });
        src_bkt.note_ops(&[src_shard]);
        let src = src.ok_or_else(|| {
            record_copy(&self.world, order_key);
            S3Error::NoSuchKey {
                bucket: src_bucket.to_string(),
                key: src_key.to_string(),
            }
        })?;
        let metadata = match directive {
            MetadataDirective::Copy => src.metadata.clone(),
            MetadataDirective::Replace(m) => {
                m.check_limit()?;
                m
            }
        };
        let stored = Stored {
            etag: src.etag,
            last_modified: self.world.now(),
            body: src.body,
            metadata,
        };
        let dst_shard = dst_bkt.with_cells(dst_key, |shard, map| {
            let prev_footprint = map
                .read_latest(&dst_key.to_string())
                .map(|s| s.footprint())
                .unwrap_or(0);
            record_copy(&self.world, order_key);
            self.world.record_shard_touch(Service::S3, shard);
            self.world.adjust_stored(
                Service::S3,
                stored.footprint() as i64 - prev_footprint as i64,
            );
            map.write(&self.world, dst_key.to_string(), Some(stored));
            shard
        });
        dst_bkt.note_ops(&[dst_shard]);
        Ok(())
    }

    /// Deletes an object. Idempotent: deleting an absent key succeeds,
    /// as in the real service. Touches exactly one shard.
    ///
    /// # Errors
    ///
    /// [`S3Error::NoSuchBucket`] only.
    pub fn delete_object(&self, bucket: &str, key: &str) -> Result<()> {
        let bkt = self.bucket(bucket)?;
        let shard = bkt.route(key);
        if !self.admit(&bkt, &[shard]) {
            self.world.record_throttled(Op::S3Delete, 0);
            self.world.record_shard_touch(Service::S3, shard);
            bkt.maybe_split();
            return Err(S3Error::ServiceUnavailable {
                bucket: bucket.to_string(),
            });
        }
        let shard = bkt.with_cells(key, |shard, map| {
            let prev = map.read_latest(&key.to_string()).map(|s| s.footprint());
            self.world.record_op(Op::S3Delete, 0, 0);
            self.world.record_shard_touch(Service::S3, shard);
            if let Some(footprint) = prev {
                self.world.adjust_stored(Service::S3, -(footprint as i64));
                map.write(&self.world, key.to_string(), None);
            }
            shard
        });
        bkt.note_ops(&[shard]);
        Ok(())
    }

    /// Multi-object delete (`POST ?delete`): removes up to
    /// [`MAX_DELETE_KEYS`] keys in **one billable request**. Keys are
    /// grouped by hash shard and every touched shard's lock is taken
    /// exactly once; shards drop their keys in parallel, so the latency
    /// model charges one round trip plus the busiest shard's share of
    /// the per-key marginal cost. Idempotent per key, like
    /// [`S3::delete_object`]. Returns how many keys actually held an
    /// object.
    ///
    /// # Errors
    ///
    /// Every error mutates nothing: [`S3Error::EmptyDelete`],
    /// [`S3Error::TooManyDeleteKeys`], [`S3Error::KeyTooLong`],
    /// [`S3Error::NoSuchBucket`].
    pub fn delete_objects(&self, bucket: &str, keys: &[String]) -> Result<u64> {
        if keys.is_empty() {
            return Err(S3Error::EmptyDelete);
        }
        if keys.len() > MAX_DELETE_KEYS {
            return Err(S3Error::TooManyDeleteKeys {
                submitted: keys.len(),
            });
        }
        for key in keys {
            if key.len() > MAX_KEY_LEN {
                return Err(S3Error::KeyTooLong { length: key.len() });
            }
        }
        let bkt = self.bucket(bucket)?;

        // Group keys per shard; every touched shard's lock is taken
        // exactly once, in ascending id order (deadlock-free against
        // concurrent batches).
        let mut by_shard: BTreeMap<u32, Vec<&String>> = BTreeMap::new();
        for key in keys {
            by_shard.entry(bkt.route(key)).or_default().push(key);
        }
        let gating = by_shard.values().map(Vec::len).max().unwrap_or(0) as u64;
        let bytes_in: u64 = keys.iter().map(|k| k.len() as u64).sum();
        let shards: Vec<u32> = by_shard.keys().copied().collect();
        if !self.admit(&bkt, &shards) {
            self.world.record_throttled(Op::S3DeleteObjects, bytes_in);
            for &shard in &shards {
                self.world.record_shard_touch(Service::S3, shard);
            }
            bkt.maybe_split();
            return Err(S3Error::ServiceUnavailable {
                bucket: bucket.to_string(),
            });
        }
        self.world
            .record_batch(Op::S3DeleteObjects, keys.len() as u64, bytes_in, 0, gating);
        let removed = bkt.with_cells_multi(&shards, |guards| {
            let mut removed = 0u64;
            let mut freed = 0i64;
            for (shard, shard_keys) in &by_shard {
                let map = guards.get_mut(*shard);
                self.world.record_shard_touch(Service::S3, *shard);
                for key in shard_keys {
                    let prev = map.read_latest(&key.to_string()).map(|s| s.footprint());
                    if let Some(footprint) = prev {
                        freed += footprint as i64;
                        removed += 1;
                        map.write(&self.world, key.to_string(), None);
                    }
                }
            }
            if freed > 0 {
                self.world.adjust_stored(Service::S3, -freed);
            }
            removed
        });
        bkt.note_ops(&shards);
        Ok(removed)
    }

    /// Lists keys (lexicographic) matching `prefix`, starting strictly
    /// after `marker`, up to `max_keys` (capped at [`MAX_LIST_KEYS`]).
    /// The listing is eventually consistent: it reflects one sampled
    /// replica per shard, pinned for the whole call.
    ///
    /// # Errors
    ///
    /// [`S3Error::NoSuchBucket`].
    pub fn list_objects(
        &self,
        bucket: &str,
        prefix: &str,
        marker: Option<&str>,
        max_keys: usize,
    ) -> Result<Listing> {
        let bkt = self.bucket(bucket)?;
        let (listing, touched) = bkt.read_view(|view| {
            let ids = view.sorted_ids();
            let pin = view.pin_replicas(&self.world, &ids);
            (
                self.list_page_on(view, &ids, &pin, prefix, marker, max_keys),
                ids,
            )
        });
        bkt.note_ops(&touched);
        Ok(listing)
    }

    /// Lists *every* key with `prefix`, driving pagination internally.
    /// Each page is a billed LIST op. One replica per shard is pinned
    /// for the **whole walk**, keyed by stable shard id, so the result
    /// is a coherent per-shard view: a fresh (possibly stale) replica
    /// sampled mid-walk can no longer hide keys that an earlier page
    /// counted toward its cap, and a shard that splits between pages
    /// keeps serving the walk from its parent's pinned replica.
    ///
    /// # Errors
    ///
    /// [`S3Error::NoSuchBucket`].
    pub fn list_all(&self, bucket: &str, prefix: &str) -> Result<Vec<ObjectSummary>> {
        let bkt = self.bucket(bucket)?;
        let pin = bkt.read_view(|view| view.pin_replicas(&self.world, &view.sorted_ids()));
        let mut out = Vec::new();
        let mut marker: Option<String> = None;
        loop {
            let (page, touched) = bkt.read_view(|view| {
                let ids = view.sorted_ids();
                let page =
                    self.list_page_on(view, &ids, &pin, prefix, marker.as_deref(), MAX_LIST_KEYS);
                (page, ids)
            });
            bkt.note_ops(&touched);
            let truncated = page.is_truncated;
            marker = page.objects.last().map(|o| o.key.clone());
            out.extend(page.objects);
            if !truncated || marker.is_none() {
                return Ok(out);
            }
        }
    }

    /// One LIST page over the shard fan-out, on explicitly pinned
    /// replicas (a shard born after the pin was minted resolves to its
    /// nearest pinned ancestor). The cross-shard machinery is the same
    /// adaptive-quota merge the sharded SimpleDB `Query` uses
    /// ([`simworld::merged_shard_page`]); per shard, the scan is
    /// range-bounded to the prefix's contiguous key range, so a
    /// narrow-prefix LIST examines (and is charged for) only the cells
    /// that could match. `ids` are the view's stable shard ids, ascending.
    fn list_page_on(
        &self,
        view: &simworld::MapView<'_, Stored>,
        ids: &[u32],
        pin: &ReplicaPin,
        prefix: &str,
        marker: Option<&str>,
        max_keys: usize,
    ) -> Listing {
        use std::ops::Bound;
        let cap = max_keys.clamp(1, MAX_LIST_KEYS);
        let now = self.world.now();
        let shard_count = view.shard_count();
        self.world.record_shard_touches(Service::S3, ids);
        let replicas: Vec<usize> = (0..shard_count)
            .map(|pos| {
                view.resolve_pin(pin, pos)
                    .expect("ids never disappear, so every shard reaches a pinned ancestor")
            })
            .collect();
        let prefix_key = prefix.to_string();
        let (page, more, scanned) = simworld::merged_shard_page(
            shard_count,
            marker.map(str::to_string),
            cap,
            |i, cursor, quota| {
                // Seek straight to the prefix range; keys that share the
                // prefix are contiguous under byte-wise string order, so
                // the first key past it ends the shard's scan.
                let start = match cursor {
                    Some(c) if c.as_str() >= prefix => Bound::Excluded(c),
                    _ if !prefix.is_empty() => Bound::Included(&prefix_key),
                    _ => Bound::Unbounded,
                };
                view.with_cells_at(i, |map| {
                    map.visible_page_from(
                        replicas[i],
                        now,
                        start,
                        quota,
                        |k| !k.starts_with(prefix),
                        |_, _| true,
                    )
                })
            },
        );
        let objects: Vec<ObjectSummary> = page
            .into_iter()
            .map(|(key, stored)| ObjectSummary {
                size: stored.body.len(),
                key,
            })
            .collect();
        let bytes_out: u64 = objects
            .iter()
            .map(|o| o.key.len() as u64 + LIST_ENTRY_OVERHEAD)
            .sum();
        // Shards scan in parallel: the busiest shard's examined rows
        // gate the response — this is where bucket sharding buys
        // deterministic virtual-time LIST speedup.
        self.world.record_scan(Op::S3List, 0, bytes_out, scanned);
        Listing {
            objects,
            is_truncated: more,
        }
    }

    // --- authoritative (non-billed) views, for invariant checks ---

    /// The newest committed object at a key, ignoring replication lag and
    /// without billing. For tests and property validators only.
    pub fn latest_object(&self, bucket: &str, key: &str) -> Option<Object> {
        let bkt = self.bucket(bucket).ok()?;
        bkt.with_cells(key, |_, map| {
            map.read_latest(&key.to_string()).map(|s| Object {
                body: s.body,
                metadata: s.metadata,
                etag: s.etag,
                last_modified: s.last_modified,
            })
        })
    }

    /// Authoritative list of live keys with `prefix`, unbilled. For tests
    /// and property validators only.
    pub fn latest_keys(&self, bucket: &str, prefix: &str) -> Vec<String> {
        let Ok(bkt) = self.bucket(bucket) else {
            return Vec::new();
        };
        let mut keys: Vec<String> = bkt.read_view(|view| {
            let mut keys = Vec::new();
            for pos in 0..view.shard_count() {
                view.with_cells_at(pos, |map| {
                    keys.extend(
                        map.iter_latest()
                            .filter(|(k, _)| k.starts_with(prefix))
                            .map(|(k, _)| k.clone()),
                    );
                });
            }
            keys
        });
        keys.sort_unstable();
        keys
    }

    /// Looks a bucket up, cloning its handle out so the buckets map lock
    /// is held only for the lookup.
    fn bucket(&self, bucket: &str) -> Result<Arc<Bucket>> {
        self.inner
            .buckets
            .read()
            .get(bucket)
            .cloned()
            .ok_or_else(|| S3Error::NoSuchBucket {
                bucket: bucket.to_string(),
            })
    }
}
