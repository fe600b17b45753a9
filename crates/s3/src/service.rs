//! The S3 service simulator.
//!
//! # Sharded storage layout
//!
//! Each bucket is a [`simworld::ShardMap`]: a fixed set of shards, an
//! object living on shard `fnv1a_64(key) % n`, each shard behind its
//! own lock (default [`DEFAULT_SHARDS`] shards, configurable via
//! [`S3::with_shards`]). Point operations (PUT/GET/HEAD/COPY/DELETE)
//! contend only for one shard while LIST fans out across all shards and
//! merges the per-shard key pages in lexicographic order — the same
//! shared layer the sharded SimpleDB simulator routes through.
//!
//! Shard-count requests are validated by the one shared rule
//! ([`simworld::clamp_shards`], identical in SimpleDB): `with_shards(0)`
//! is promoted to 1 shard and oversized requests are silently capped at
//! [`MAX_SHARDS`].
//!
//! # LIST consistency
//!
//! A LIST pins **one replica per shard** for the whole call: the key
//! listing and the per-key sizes come from the same per-shard view, so
//! a key counted toward the page cap can never vanish from the page.
//! [`S3::list_all`] pins the replicas once for its *entire* internal
//! pagination walk, so a marker-based scan is one coherent view per
//! shard — a stale replica sampled mid-walk can no longer hide keys an
//! earlier page's replica had already promised, so the walk neither
//! skips nor duplicates a key.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use simworld::{
    Blob, Charge, Cost, Md5Digest, Op, ReplicaPin, ShardMap, ShardRegistry, SimInstant, SimWorld,
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
    /// Object content.
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
#[derive(Clone, Debug)]
pub struct S3 {
    world: SimWorld,
    buckets: Arc<ShardRegistry<Stored>>,
}

impl S3 {
    /// Connects a new simulated S3 endpoint to `world` with
    /// [`DEFAULT_SHARDS`] shards per bucket.
    pub fn new(world: &SimWorld) -> S3 {
        S3::with_shards(world, DEFAULT_SHARDS)
    }

    /// Connects an endpoint whose buckets are divided into `shards` hash
    /// shards, validated by the shared rule ([`simworld::clamp_shards`]:
    /// zero becomes 1, oversized caps at [`MAX_SHARDS`]). More shards
    /// mean less lock contention between concurrent point operations and
    /// more fan-out parallelism for LIST. The layout is fixed for the
    /// life of each bucket.
    pub fn with_shards(world: &SimWorld, shards: usize) -> S3 {
        S3 {
            world: world.clone(),
            buckets: Arc::new(ShardRegistry::new(shards)),
        }
    }

    /// Hash shards per bucket on this endpoint (post-clamp).
    pub fn shard_count(&self) -> usize {
        self.buckets.shards()
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
        self.buckets.create(bucket, |bucket, exists, _| {
            if exists {
                let bucket = bucket.to_string();
                return Err(S3Error::BucketAlreadyExists { bucket });
            }
            self.world.record_op(Op::S3Put, bucket.len() as u64, 0);
            Ok(true)
        })
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
        let stored = Stored {
            etag: body.md5(),
            last_modified: self.world.now(),
            body,
            metadata,
        };
        let bytes_in = stored.footprint();
        let put = Charge::point(Op::S3Put, bytes_in, 0);
        self.write(&bkt, key, Some(stored), put);
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
        let miss = Charge::point(Op::S3Get, 0, 0);
        let (shard, stored) = self.read_visible(&bkt, bucket, key, miss)?;
        let bytes_out = stored.body.len() + stored.metadata.byte_size();
        self.world.charge(Charge {
            shards: &[shard],
            ..Charge::point(Op::S3Get, 0, bytes_out)
        });
        Ok(Object {
            body: stored.body,
            metadata: stored.metadata,
            etag: stored.etag,
            last_modified: stored.last_modified,
        })
    }

    /// The body GET, HEAD and the source side of COPY share:
    /// the version of `key` visible on a sampled replica, and the shard
    /// it lives on for the caller's charge. A miss is itself a billed
    /// request — `miss` is charged with that shard — and returns
    /// [`S3Error::NoSuchKey`].
    fn read_visible(
        &self,
        bkt: &Bucket,
        bucket: &str,
        key: &str,
        miss: Charge<'_>,
    ) -> Result<(u32, Stored)> {
        let (shard, stored) = bkt.with_cells(key, |shard, map| (shard, map.read(&self.world, key)));
        let Some(stored) = stored else {
            self.world.charge(Charge {
                shards: &[shard],
                ..miss
            });
            return Err(S3Error::NoSuchKey {
                bucket: bucket.to_string(),
                key: key.to_string(),
            });
        };
        Ok((shard, stored))
    }

    /// Retrieves only the metadata of an object — the sole provenance
    /// "query" primitive Architecture 1 has. Touches exactly one shard.
    ///
    /// # Errors
    ///
    /// As [`S3::get_object`].
    pub fn head_object(&self, bucket: &str, key: &str) -> Result<Head> {
        let bkt = self.bucket(bucket)?;
        let miss = Charge::point(Op::S3Head, 0, 0);
        let (shard, stored) = self.read_visible(&bkt, bucket, key, miss)?;
        self.world.charge(Charge {
            shards: &[shard],
            ..Charge::point(Op::S3Head, 0, stored.metadata.byte_size())
        });
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
    /// (see [`simworld::Charge::order_key`]). Architecture 3's
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
        if let MetadataDirective::Replace(m) = &directive {
            m.check_limit()?;
        }
        // Validate and resolve both buckets before touching any state,
        // so an unbilled refusal leaves no fingerprints (no shard touch,
        // no RNG draw) on the simulation.
        let src_bkt = self.bucket(src_bucket)?;
        let dst_bkt = self.bucket(dst_bucket)?;
        let copy = Charge {
            order_key,
            ..Charge::point(Op::S3Copy, 0, 0)
        };
        let (src_shard, src) = self.read_visible(&src_bkt, src_bucket, src_key, copy)?;
        let stored = Stored {
            etag: src.etag,
            last_modified: self.world.now(),
            body: src.body,
            metadata: match directive {
                MetadataDirective::Copy => src.metadata,
                MetadataDirective::Replace(m) => m,
            },
        };
        let copy = Charge {
            shards: &[src_shard],
            ..copy
        };
        self.write(&dst_bkt, dst_key, Some(stored), copy);
        Ok(())
    }

    /// The tail PUT, COPY and DELETE share: under `key`'s shard lock,
    /// `charge` goes out carrying that shard's touch (beside the source
    /// shard's a copy put there) and the stored-bytes delta of replacing
    /// whatever `key` held, then `value` — `None` deletes — is written.
    /// Deleting an absent key is billed and writes nothing.
    fn write(&self, bkt: &Bucket, key: &str, value: Option<Stored>, charge: Charge<'_>) {
        debug_assert!(charge.shards.len() <= 1, "at most a copy's source shard");
        bkt.with_cells(key, |shard, map| {
            let prev = map.read_latest_with(key, Stored::footprint);
            let next = value.as_ref().map(Stored::footprint);
            let mut touched = [shard; 2];
            touched[..charge.shards.len()].copy_from_slice(charge.shards);
            self.world.charge(Charge {
                shards: &touched[..=charge.shards.len()],
                stored_delta: next.unwrap_or(0) as i64 - prev.unwrap_or(0) as i64,
                ..charge
            });
            if prev.or(next).is_some() {
                map.write(&self.world, key.to_string(), value);
            }
        });
    }

    /// Deletes an object. Idempotent: deleting an absent key succeeds,
    /// as in the real service. Touches exactly one shard.
    ///
    /// # Errors
    ///
    /// [`S3Error::NoSuchBucket`] only.
    pub fn delete_object(&self, bucket: &str, key: &str) -> Result<()> {
        let bkt = self.bucket(bucket)?;
        self.write(&bkt, key, None, Charge::point(Op::S3Delete, 0, 0));
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
        // exactly once, in ascending shard order (deadlock-free against
        // concurrent batches).
        let mut by_shard: BTreeMap<u32, Vec<&String>> = BTreeMap::new();
        for key in keys {
            by_shard.entry(bkt.route(key)).or_default().push(key);
        }
        let gating = by_shard.values().map(Vec::len).max().unwrap_or(0) as u64;
        let bytes_in: u64 = keys.iter().map(|k| k.len() as u64).sum();
        let shards: Vec<u32> = by_shard.keys().copied().collect();
        let removed = bkt.with_cells_multi(&shards, |guards| {
            // Stage: the keys that hold an object (a key submitted twice
            // is deleted once) and the bytes deleting them frees.
            let mut doomed: Vec<(u32, &String)> = Vec::new();
            let mut seen = BTreeSet::new();
            let mut freed = 0i64;
            for (shard, shard_keys) in &by_shard {
                let map = guards.get_mut(*shard);
                for key in shard_keys {
                    if let Some(s) = map.read_latest(*key).filter(|_| seen.insert(*key)) {
                        freed += s.footprint() as i64;
                        doomed.push((*shard, key));
                    }
                }
            }
            self.world.charge(Charge {
                cost: Cost::Batch {
                    entries: keys.len() as u64,
                    gating,
                },
                shards: &shards,
                stored_delta: -freed,
                ..Charge::point(Op::S3DeleteObjects, bytes_in, 0)
            });
            for (shard, key) in &doomed {
                guards
                    .get_mut(*shard)
                    .write(&self.world, key.to_string(), None);
            }
            doomed.len() as u64
        });
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
        let pin = bkt.pin_replicas(&self.world);
        Ok(self.list_page_on(&bkt, &pin, prefix, marker, max_keys))
    }

    /// Lists *every* key with `prefix`, driving pagination internally.
    /// Each page is a billed LIST op. One replica per shard is pinned
    /// for the **whole walk**, so the result is a coherent per-shard
    /// view: a fresh (possibly stale) replica sampled mid-walk can no
    /// longer hide keys that an earlier page counted toward its cap.
    ///
    /// # Errors
    ///
    /// [`S3Error::NoSuchBucket`].
    pub fn list_all(&self, bucket: &str, prefix: &str) -> Result<Vec<ObjectSummary>> {
        let bkt = self.bucket(bucket)?;
        let pin = bkt.pin_replicas(&self.world);
        let mut out = Vec::new();
        let mut marker: Option<String> = None;
        loop {
            let page = self.list_page_on(&bkt, &pin, prefix, marker.as_deref(), MAX_LIST_KEYS);
            let truncated = page.is_truncated;
            marker = page.objects.last().map(|o| o.key.clone());
            out.extend(page.objects);
            if !truncated || marker.is_none() {
                return Ok(out);
            }
        }
    }

    /// One LIST page over the shard fan-out, on the replicas `pin` holds
    /// (minted on `bkt`). The cross-shard machinery is the same
    /// adaptive-quota merge the sharded SimpleDB `Query` uses
    /// ([`simworld::merged_shard_page`]); per shard, the scan is
    /// range-bounded to the prefix's contiguous key range, so a
    /// narrow-prefix LIST examines (and is charged for) only the cells
    /// that could match.
    fn list_page_on(
        &self,
        bkt: &Bucket,
        pin: &ReplicaPin,
        prefix: &str,
        marker: Option<&str>,
        max_keys: usize,
    ) -> Listing {
        use std::ops::Bound;
        let cap = max_keys.clamp(1, MAX_LIST_KEYS);
        let now = self.world.now();
        let prefix_key = prefix.to_string();
        let (page, more, scanned) = simworld::merged_shard_page(
            bkt.shard_count(),
            marker.map(str::to_string),
            cap,
            |_| false,
            |i, cursor, quota| {
                // Seek straight to the prefix range; keys that share the
                // prefix are contiguous under byte-wise string order, so
                // the first key past it ends the shard's scan.
                let start = match cursor {
                    Some(c) if c.as_str() >= prefix => Bound::Excluded(c),
                    _ if !prefix.is_empty() => Bound::Included(&prefix_key),
                    _ => Bound::Unbounded,
                };
                bkt.with_cells_at(i, |map| {
                    map.visible_page_from(
                        pin.get(i),
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
        self.world.charge(Charge {
            cost: Cost::Scan { rows: scanned },
            shards: bkt.ids(),
            ..Charge::point(Op::S3List, 0, bytes_out)
        });
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
            map.read_latest(key).map(|s| Object {
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
        self.buckets.get(bucket).map_or_else(Vec::new, |bkt| {
            bkt.latest_keys(|key| key.starts_with(prefix))
        })
    }

    fn bucket(&self, bucket: &str) -> Result<Arc<Bucket>> {
        self.buckets
            .get(bucket)
            .ok_or_else(|| S3Error::NoSuchBucket {
                bucket: bucket.to_string(),
            })
    }
}
