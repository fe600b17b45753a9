//! Architecture 3 — **S3 + SimpleDB + SQS** (§4.3).
//!
//! Like Architecture 2, data lives in S3 and provenance in SimpleDB —
//! but the client never writes either directly. Each client owns an SQS
//! queue used as a **write-ahead log**: on `close` it logs the
//! transaction (begin, a pointer to a *temporary* S3 object holding the
//! data, ≤ 8 KB provenance chunks, the MD5 record, commit). A **commit
//! daemon** drains the queue, assembles transactions, and applies only
//! those whose commit record arrived: COPY temp → final (COPY is free of
//! transfer charges), `PutAttributes`, then delete the log records and
//! the temp object.
//!
//! Atomicity now holds: a client crash before the commit record leaves a
//! transaction the daemon ignores (SQS's 4-day retention and the cleaner
//! daemon garbage-collect the residue); a daemon crash mid-apply is
//! harmless because every apply step is idempotent — the replay re-COPYs
//! and re-Puts the same state (the technique §4.3 credits to Brantner et
//! al.'s "Building a database on S3").

use std::collections::{BTreeMap, HashMap};

use pass::FileFlush;
use sim_s3::{Metadata, MetadataDirective, S3Error, MAX_DELETE_KEYS, S3};
use sim_simpledb::SimpleDb;
use sim_sqs::{Sqs, MAX_BATCH_ENTRIES, RETENTION};
use simworld::{Blob, CrashSite, SimInstant, SimWorld};

use crate::arch1::put_plain;
use crate::arch2::{data_meta, Arch2Config, ProvItem, PutProtocol, PutSites, WriteSide};
use crate::closure::ClosureMode;
use crate::error::{CloudError, Result};
use crate::layout::{
    data_key, nonce_for, parse_staged_pointer, pointer, staged_pointer, tmp_prefix, ATTR_MD5,
    ATTR_NONCE, BUCKET, TMP_PREFIX,
};
use crate::query::{ProvQuery, QueryAnswer};
use crate::readpath::consistency_md5;
use crate::serialize::encode_records;
use crate::serve::{ServeParts, Serveable};
use crate::store::{ProvenanceStore, ReadOutcome, RecoveryReport};
use crate::wal::{chunk_pairs, pack_wal_batches, WalRecord};

/// Client crash site: before the begin record is logged.
pub const A3_BEFORE_BEGIN: CrashSite = CrashSite::new("arch3.before_begin");

/// Client crash site: after begin, before the temporary data object.
pub const A3_BEFORE_TEMP_PUT: CrashSite = CrashSite::new("arch3.before_temp_put");

/// Client crash site: temp object stored, data pointer not yet logged.
pub const A3_AFTER_TEMP_PUT: CrashSite = CrashSite::new("arch3.after_temp_put");

/// Client crash site: between provenance log records.
pub const A3_MID_PROV_LOG: CrashSite = CrashSite::new("arch3.mid_prov_log");

/// Client crash site: everything logged except the commit record — the
/// transaction must be ignored forever.
pub const A3_BEFORE_COMMIT: CrashSite = CrashSite::new("arch3.before_commit");

/// Daemon crash site: before the COPY to the final name.
pub const D3_BEFORE_COPY: CrashSite = CrashSite::new("daemon3.before_copy");

/// Daemon crash site: after the COPY, before PutAttributes.
pub const D3_AFTER_COPY: CrashSite = CrashSite::new("daemon3.after_copy");

/// Daemon crash site: between PutAttributes batches.
pub const D3_MID_PUTATTRS: CrashSite = CrashSite::new("daemon3.mid_putattrs");

/// Daemon crash site: transaction applied, log records not yet deleted
/// (replay must be idempotent).
pub const D3_BEFORE_MSG_DELETE: CrashSite = CrashSite::new("daemon3.before_msg_delete");

/// Daemon crash site: log gone, temp object not yet deleted (cleaner
/// territory).
pub const D3_BEFORE_TMP_DELETE: CrashSite = CrashSite::new("daemon3.before_tmp_delete");

/// Daemon crash site: edges committed to SimpleDB, closure-index rows
/// not yet written (only on the path when [`Arch3Config::closure`]
/// maintains the index). The WAL records are still present, so the
/// restarted daemon replays the whole apply — including the index adds.
pub const D3_BEFORE_INDEX_PUT: CrashSite = CrashSite::new("daemon3.before_index_put");

/// Daemon crash site: between closure-index `BatchPutAttributes` calls.
pub const D3_MID_INDEX_PUT: CrashSite = CrashSite::new("daemon3.mid_index_put");

/// Tunables for [`S3SimpleDbSqs`].
#[derive(Copy, Clone, Debug)]
pub struct Arch3Config {
    /// The commit daemon runs its commit phase once
    /// `ApproximateNumberOfMessages` exceeds this (§4.3).
    pub commit_threshold: usize,
    /// How the commit daemon overlaps its receive/assemble/apply loop.
    /// `None` (the default) is the paper's serial daemon: one receive
    /// round and serial applies per step, no region — the baseline
    /// every pipelined run must match byte for byte. `Some(n)` runs
    /// each step inside a pipeline region `n` deep: up to `n` receive
    /// rounds issue back to back, and the apply chains of the ready
    /// transactions overlap up to the same per-service cap.
    pub daemon_depth: Option<usize>,
    /// Ancestry-closure index behaviour (off by default, so the
    /// request counts and fingerprints of the plain §4.3 protocol are
    /// untouched).
    pub closure: ClosureMode,
}

impl Default for Arch3Config {
    fn default() -> Self {
        Arch3Config {
            commit_threshold: 8,
            daemon_depth: None,
            closure: ClosureMode::Off,
        }
    }
}

impl Arch3Config {
    /// The values §4.3 shares with §4.2: the configuration of the S3 +
    /// SimpleDB side, whose read retries and nonce keep §4.2's defaults.
    fn store_side(&self) -> Arch2Config {
        Arch2Config {
            closure: self.closure,
            ..Default::default()
        }
    }
}

/// What one daemon step accomplished.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DaemonProgress {
    /// Log records newly received (previously unseen).
    pub received: usize,
    /// Transactions applied to S3/SimpleDB.
    pub applied: usize,
    /// Abandoned assemblies evicted because their records aged past the
    /// SQS retention window (their messages are gone, so the
    /// transactions could never complete).
    pub evicted: usize,
}

#[derive(Debug)]
struct Assembly {
    /// When the daemon first saw a record of this transaction — the
    /// age the retention-window eviction is measured from.
    first_seen: SimInstant,
    expected: Option<u32>,
    committed: bool,
    payload: Vec<WalRecord>,
    payload_count: u32,
    /// Message id per log record, in receive order.
    message_ids: Vec<String>,
    /// The newest receipt handle of the record at the same index of
    /// `message_ids`. A redelivery *replaces* the handle in place: SQS
    /// only honours the newest handle, so keeping a superseded one would
    /// bill dead `DeleteMessageBatch` entries on every apply.
    handles: Vec<String>,
}

/// Log records of the usual transaction: BEGIN, the data pointer, one
/// provenance chunk, MD5, COMMIT — what an assembly makes room for.
const USUAL_TX_RECORDS: usize = 5;

impl Assembly {
    fn new(first_seen: SimInstant) -> Assembly {
        Assembly {
            first_seen,
            expected: None,
            committed: false,
            payload: Vec::new(),
            payload_count: 0,
            message_ids: Vec::with_capacity(USUAL_TX_RECORDS),
            handles: Vec::with_capacity(USUAL_TX_RECORDS),
        }
    }

    fn complete(&self) -> bool {
        self.committed
            && self
                .expected
                .map(|n| self.payload_count == n)
                .unwrap_or(false)
    }
}

/// The commit daemon: drains the WAL queue and applies committed
/// transactions (§4.3 "Commit" phase). In-memory assembly state is lost
/// on a crash, exactly like the real daemon process.
#[derive(Debug)]
pub struct CommitDaemon {
    /// The S3 + SimpleDB side — the store's only one: the client half of
    /// [`S3SimpleDbSqs`] reaches the services through it. Its closure
    /// index's ancestor cache is reset on a crash, like the rest of the
    /// daemon's memory.
    side: WriteSide,
    sqs: Sqs,
    wal_url: String,
    /// [`Arch3Config::commit_threshold`].
    commit_threshold: usize,
    /// [`Arch3Config::daemon_depth`].
    depth: Option<usize>,
    assemblies: HashMap<u64, Assembly>,
    applied_total: u64,
}

const PUT_SITES: PutSites = PutSites {
    mid_put: D3_MID_PUTATTRS,
    before_index: D3_BEFORE_INDEX_PUT,
    mid_index: D3_MID_INDEX_PUT,
};

impl CommitDaemon {
    fn new(side: WriteSide, sqs: &Sqs, wal_url: String, config: Arch3Config) -> CommitDaemon {
        CommitDaemon {
            side,
            sqs: sqs.clone(),
            wal_url,
            commit_threshold: config.commit_threshold,
            depth: config.daemon_depth,
            assemblies: HashMap::new(),
            applied_total: 0,
        }
    }

    /// Transactions applied over this daemon's lifetime.
    pub fn applied_total(&self) -> u64 {
        self.applied_total
    }

    /// Incomplete transactions currently parked in memory, waiting for
    /// their missing records.
    pub fn pending_assemblies(&self) -> usize {
        self.assemblies.len()
    }

    /// One daemon iteration: check the queue depth (unless `force`),
    /// receive, assemble, apply complete transactions. With a
    /// [`Arch3Config::daemon_depth`] of `Some(n)` the whole step runs
    /// inside a pipeline region — several receive rounds issue back to
    /// back, and the apply chains of the ready transactions overlap
    /// with the region's per-service cap, each transaction's copies
    /// completion-ordered by txid.
    ///
    /// # Errors
    ///
    /// Service errors, or [`CloudError::Crashed`] when a daemon crash
    /// site fires — in-memory assembly state is dropped, as a process
    /// death would.
    pub fn step(&mut self, force: bool) -> Result<DaemonProgress> {
        let result = match self.depth {
            None => self.step_inner(force, 1),
            Some(depth) => self.step_pipelined(force, depth),
        };
        if let Err(e) = &result {
            if e.is_crash() {
                // The daemon process died: its in-memory assemblies are
                // gone. Undelivered messages become visible again after
                // the visibility timeout.
                self.assemblies.clear();
                self.side.forget();
            }
        }
        result
    }

    /// One step inside a pipeline region of `depth` requests per
    /// service. Receives are idempotent (an undeleted message simply
    /// redelivers) and every apply step already is, so overlapping them
    /// cannot change the final store — only when the requests complete.
    /// When the shared world already has a region open (a pipelined
    /// client driving `poll_daemon` mid-burst), the step rides that
    /// region instead: pipelines do not nest.
    fn step_pipelined(&mut self, force: bool, depth: usize) -> Result<DaemonProgress> {
        let world = self.side.parts.world.clone();
        let opened = world.pipeline_depth().is_none();
        if opened {
            world.begin_pipeline(depth);
        }
        let result = self.step_inner(force, depth);
        if opened {
            // Drain even when a crash fired: issued requests are on the
            // wire regardless of the daemon dying.
            world.drain_pipeline();
        }
        result
    }

    fn step_inner(&mut self, force: bool, rounds: usize) -> Result<DaemonProgress> {
        let mut progress = DaemonProgress::default();
        // Evict abandoned assemblies: a commit-less transaction (its
        // client crashed mid-log) whose records have aged past the SQS
        // retention window can never complete — its messages are gone
        // from the queue, so holding the assembly only leaks memory in
        // a long-running daemon.
        let world = &self.side.parts.world;
        let now = world.now();
        let before = self.assemblies.len();
        self.assemblies
            .retain(|_, a| now.saturating_since(a.first_seen) <= RETENTION);
        progress.evicted = before - self.assemblies.len();
        if !force {
            let depth = self.sqs.approximate_number_of_messages(&self.wal_url)?;
            if depth <= self.commit_threshold {
                return Ok(progress);
            }
        }
        // Up to `rounds` receive rounds per step: each round's messages
        // turn invisible for the visibility timeout, so the rounds
        // return disjoint batches and issue back to back inside a
        // pipeline region. An empty round ends the step early — the
        // queue may still hold unsampled messages, but the next step
        // will see them.
        for _ in 0..rounds {
            let now = world.now();
            let msgs = self.sqs.receive_message(&self.wal_url, 10)?;
            if msgs.is_empty() {
                break;
            }
            for msg in msgs {
                let Some(record) = WalRecord::decode(&msg.body) else {
                    continue;
                };
                let assembly = self
                    .assemblies
                    .entry(record.txid())
                    .or_insert_with(|| Assembly::new(now));
                if let Some(held) = assembly
                    .message_ids
                    .iter()
                    .position(|id| *id == msg.message_id)
                {
                    // Redelivery of a record we already hold (visibility
                    // timeout expired while the transaction waits for its
                    // missing pieces). Replace the stale handle with the
                    // newer one — SQS only honours the newest, so the
                    // superseded handle would sit in every future
                    // DeleteMessageBatch as a dead billable entry.
                    assembly.handles[held] = msg.receipt_handle;
                    continue;
                }
                progress.received += 1;
                assembly.message_ids.push(msg.message_id);
                assembly.handles.push(msg.receipt_handle);
                match record {
                    WalRecord::Begin { records, .. } => assembly.expected = Some(records),
                    WalRecord::Commit { .. } => assembly.committed = true,
                    payload => {
                        assembly.payload.push(payload);
                        assembly.payload_count += 1;
                    }
                }
            }
        }
        let mut ready: Vec<u64> = self
            .assemblies
            .iter()
            .filter(|(_, a)| a.complete())
            .map(|(txid, _)| *txid)
            .collect();
        // The assemblies map is a HashMap; its iteration order would
        // leak into the cross-transaction batch packing and make
        // request counts (and so virtual time) nondeterministic across
        // runs of the same seed. Apply in txid order instead.
        ready.sort_unstable();
        if !ready.is_empty() {
            let group: Vec<(u64, Assembly)> = ready
                .iter()
                .map(|txid| (*txid, self.assemblies.remove(txid).expect("listed above")))
                .collect();
            self.apply_group(group)?;
            self.applied_total += ready.len() as u64;
            progress.applied += ready.len();
        }
        Ok(progress)
    }

    /// Applies a group of complete transactions — everything that came
    /// ready in one daemon step — with the SimpleDB writes **batched
    /// across transactions**: one `BatchPutAttributes` per ≤ 25 items /
    /// ≤ 256 summed pairs instead of one `PutAttributes` per
    /// 100-attribute chunk per item, and the log-record/temp-object
    /// deletes through `DeleteMessageBatch` and multi-object delete.
    /// Every step stays idempotent, so a crash anywhere is repaired by
    /// replaying from the (still present) log records — grouping only
    /// widens the replay window, never the outcome.
    ///
    /// Inside a pipelined step each transaction's copies carry its txid
    /// as a completion-order key: one transaction's apply chain stays
    /// ordered while different transactions overlap freely.
    ///
    /// The group is consumed: what the daemon decoded — item names,
    /// pairs, temp keys, receipt handles — moves into the requests that
    /// carry it. An error drops what is left of it: the log records are
    /// still on the queue, and their redelivery rebuilds the assemblies.
    fn apply_group(&mut self, assemblies: Vec<(u64, Assembly)>) -> Result<()> {
        let world = &self.side.parts.world;
        let mut temp_keys: Vec<String> = Vec::new();
        let mut items: Vec<ProvItem> = Vec::new();
        let mut tx_handles: Vec<Vec<String>> = Vec::with_capacity(assemblies.len());

        world.crash_point(D3_BEFORE_COPY)?;
        for (txid, assembly) in assemblies {
            tx_handles.push(assembly.handles);
            let mut tx_items: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
            for record in assembly.payload {
                match record {
                    WalRecord::Data {
                        temp_key,
                        name,
                        version,
                        nonce,
                        ..
                    } => {
                        let meta = || data_meta(version, &nonce);
                        self.copy_with_retry(txid, &temp_key, &data_key(&name), meta)?;
                        temp_keys.push(temp_key);
                        world.crash_point(D3_AFTER_COPY)?;
                    }
                    WalRecord::Prov {
                        item_name,
                        mut pairs,
                        ..
                    } => {
                        for (_, value) in &mut pairs {
                            if let Some((tmp, perm)) = parse_staged_pointer(value) {
                                self.copy_with_retry(txid, tmp, perm, Metadata::new)?;
                                temp_keys.push(tmp.to_string());
                                *value = pointer(perm);
                            }
                        }
                        // An item's first chunk is its pair list.
                        let item = tx_items.entry(item_name).or_default();
                        if item.is_empty() {
                            *item = pairs;
                        } else {
                            item.append(&mut pairs);
                        }
                    }
                    WalRecord::Md5 {
                        item_name,
                        md5_hex,
                        nonce,
                        ..
                    } => {
                        let item = tx_items.entry(item_name).or_default();
                        item.push((ATTR_MD5.to_string(), md5_hex));
                        item.push((ATTR_NONCE.to_string(), nonce));
                    }
                    WalRecord::Begin { .. } | WalRecord::Commit { .. } => {}
                }
            }
            for (item_name, pairs) in tx_items {
                let attrs = self.side.finish_item(&item_name, pairs, None)?;
                items.push((item_name, attrs));
            }
        }
        // Everything that came ready in this step goes out together (two
        // transactions re-flushing one item version land in separate
        // batches). The WAL records are still in place, so a crash in
        // here makes the restarted daemon replay the whole apply.
        self.side
            .put_items(items, PutProtocol::Batched, PUT_SITES)?;
        let parts = &self.side.parts;
        parts.world.crash_point(D3_BEFORE_MSG_DELETE)?;
        // Log records go 10 handles per DeleteMessageBatch — a
        // transaction's ≥ 4 records cost one round trip, not four.
        for handles in tx_handles {
            for chunk in handles.chunks(MAX_BATCH_ENTRIES) {
                let outcomes = self.sqs.delete_message_batch(&self.wal_url, chunk)?;
                for outcome in outcomes {
                    outcome?;
                }
            }
        }
        parts.world.crash_point(D3_BEFORE_TMP_DELETE)?;
        // Temp objects go through multi-object delete from two keys up:
        // these deletes sit on the commit path, where the saved round
        // trips outweigh multi-delete's pricier put-class request rate
        // (~1e-5 USD per call — the cleaner, with no latency budget,
        // honours the billing break-even instead). A single key stays a
        // point DELETE: same round trip, cheaper request class.
        match temp_keys.len() {
            0 => {}
            1 => parts.s3.delete_object(BUCKET, &temp_keys[0])?,
            _ => {
                for chunk in temp_keys.chunks(MAX_DELETE_KEYS) {
                    parts.s3.delete_objects(BUCKET, chunk)?;
                }
            }
        }
        Ok(())
    }

    /// COPY with bounded retries: the temp object may not yet be visible
    /// on the sampled replica (eventual consistency), or may already be
    /// deleted by a previous life of the daemon (replay) — in which case
    /// the destination already carries the data. The copy is keyed by
    /// `txid` so a pipelined step keeps one transaction's copies in
    /// completion order. Every attempt replaces the metadata with a fresh
    /// `meta()`, which the request then owns.
    fn copy_with_retry(
        &self,
        txid: u64,
        src: &str,
        dst: &str,
        meta: impl Fn() -> Metadata,
    ) -> Result<()> {
        let parts = &self.side.parts;
        let mut attempts = 0;
        loop {
            let outcome = parts.s3.copy_object_ordered(
                BUCKET,
                src,
                BUCKET,
                dst,
                MetadataDirective::Replace(meta()),
                txid,
            );
            match outcome {
                Ok(()) => return Ok(()),
                Err(S3Error::NoSuchKey { .. }) => {
                    // Replayed transaction whose temp was already
                    // garbage-collected: the destination exists, so the
                    // work is done.
                    if parts.s3.latest_object(BUCKET, dst).is_some() {
                        return Ok(());
                    }
                    if attempts >= parts.retry.max_retries {
                        return Err(CloudError::give_up(
                            attempts + 1,
                            CloudError::NotFound {
                                name: src.to_string(),
                            },
                        ));
                    }
                    attempts += 1;
                    parts.retry.pause(&parts.world, attempts);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Consecutive empty drain rounds before
/// [`S3SimpleDbSqs::run_daemons_until_idle`] declares quiescence (SQS
/// sampling means one empty receive proves nothing).
const DRAIN_IDLE_ROUNDS: u32 = 16;

/// The S3 + SimpleDB + SQS provenance store.
///
/// # Examples
///
/// ```
/// use pass::FileFlush;
/// use provenance_cloud::{ProvenanceStore, S3SimpleDbSqs};
/// use simworld::{Blob, SimWorld};
///
/// let world = SimWorld::counting();
/// let mut store = S3SimpleDbSqs::new(&world, "client-1");
/// let flush = FileFlush::builder("a.txt").data(Blob::from("hi")).build();
/// store.persist(&flush)?; // only logged so far
/// store.run_daemons_until_idle()?; // commit daemon applies it
/// assert!(store.read("a.txt")?.consistent());
/// # Ok::<(), provenance_cloud::CloudError>(())
/// ```
#[derive(Debug)]
pub struct S3SimpleDbSqs {
    client_id: String,
    /// Holds the services, the WAL queue and the rest of the
    /// configuration; the client half reaches them through it.
    daemon: CommitDaemon,
}

impl S3SimpleDbSqs {
    /// Creates the store with fresh endpoints and a per-client WAL queue
    /// (default SimpleDB shard count).
    pub fn new(world: &SimWorld, client_id: &str) -> S3SimpleDbSqs {
        S3SimpleDbSqs::with_shards(world, client_id, sim_simpledb::DEFAULT_SHARDS)
    }

    /// Creates the store with fresh endpoints whose SimpleDB domains
    /// *and* S3 buckets are divided into `shards` hash shards.
    pub fn with_shards(world: &SimWorld, client_id: &str, shards: usize) -> S3SimpleDbSqs {
        let (s3, db) = WriteSide::provision(world, shards);
        S3SimpleDbSqs::with_services(world, &s3, &db, &Sqs::new(world), client_id)
    }

    /// Creates the store over existing endpoints (bucket and domain must
    /// exist; the WAL queue is created if missing).
    pub fn with_services(
        world: &SimWorld,
        s3: &S3,
        db: &SimpleDb,
        sqs: &Sqs,
        client_id: &str,
    ) -> S3SimpleDbSqs {
        let wal_url = sqs.create_queue(format!("wal-{client_id}"));
        let config = Arch3Config::default();
        let side = WriteSide::new(world, s3, db, config.store_side());
        S3SimpleDbSqs {
            client_id: client_id.to_string(),
            daemon: CommitDaemon::new(side, sqs, wal_url, config),
        }
    }

    /// Replaces the configuration (also reconfigures the daemon).
    pub fn set_config(&mut self, config: Arch3Config) {
        self.daemon.side.configure(config.store_side());
        self.daemon.commit_threshold = config.commit_threshold;
        self.daemon.depth = config.daemon_depth;
    }

    /// The read side: the service handles and read knobs.
    fn parts(&self) -> &ServeParts {
        &self.daemon.side.parts
    }

    /// The underlying S3 handle (shared).
    pub fn s3(&self) -> &S3 {
        &self.parts().s3
    }

    /// The underlying SimpleDB handle (shared).
    pub fn simpledb(&self) -> &SimpleDb {
        &self.parts().db
    }

    /// The underlying SQS handle (shared).
    pub fn sqs(&self) -> &Sqs {
        &self.daemon.sqs
    }

    /// This client's WAL queue URL.
    pub fn wal_url(&self) -> &str {
        &self.daemon.wal_url
    }

    /// Mutable access to the commit daemon (to drive it step by step in
    /// experiments).
    pub fn daemon(&mut self) -> &mut CommitDaemon {
        &mut self.daemon
    }

    /// Simulates the daemon's periodic poll: runs one step that only
    /// drains if the queue looks deeper than the commit threshold.
    ///
    /// # Errors
    ///
    /// As [`CommitDaemon::step`].
    pub fn poll_daemon(&mut self) -> Result<DaemonProgress> {
        self.daemon.step(false)
    }

    /// The cleaner daemon (§4.3): deletes temporary objects older than
    /// the 4-day SQS retention window — by then their log records are
    /// gone, so no committed transaction can still need them. Returns
    /// how many objects were removed.
    ///
    /// # Errors
    ///
    /// S3 service errors.
    pub fn run_cleaner(&mut self) -> Result<u64> {
        let parts = self.parts();
        let mut removed = 0;
        let now = parts.world.now();
        let mut doomed: Vec<String> = Vec::new();
        for summary in parts.s3.list_all(BUCKET, TMP_PREFIX)? {
            let head = match parts.s3.head_object(BUCKET, &summary.key) {
                Ok(h) => h,
                Err(S3Error::NoSuchKey { .. }) => continue,
                Err(e) => return Err(e.into()),
            };
            if now.saturating_since(head.last_modified) > RETENTION {
                doomed.push(summary.key);
            }
        }
        // Reap through multi-object delete: a GC sweep of N expired
        // temporaries costs ⌈N/1000⌉ requests instead of N. Below the
        // billing break-even, point deletes stay cheaper: multi-delete
        // is a put-class POST at 10x a point DELETE's get-class rate,
        // and a background sweep has no latency budget to buy back.
        const MULTI_DELETE_BREAK_EVEN: usize = 10;
        if doomed.len() < MULTI_DELETE_BREAK_EVEN {
            for key in &doomed {
                parts.s3.delete_object(BUCKET, key)?;
                removed += 1;
            }
        } else {
            for chunk in doomed.chunks(MAX_DELETE_KEYS) {
                removed += parts.s3.delete_objects(BUCKET, chunk)?;
            }
        }
        Ok(removed)
    }

    /// Stages one flush (§4.3 step 1's two cache files: the data and the
    /// hidden provenance) as a transaction — the part of the log phase
    /// the point and the batched protocol share. Returns the temporary
    /// objects to PUT before any record pointing at them is logged (the
    /// data first, then one per overflow value) and the WAL records in
    /// log order: BEGIN, data pointer, provenance chunks, MD5, COMMIT.
    /// Touches the world only to draw the txid; every request is the
    /// caller's to issue.
    fn stage_tx(&mut self, flush: &FileFlush) -> (Vec<(String, Blob)>, Vec<WalRecord>) {
        // Random transaction ids stay unique across client restarts.
        let txid = self.parts().world.rand_u64();
        let tmp = tmp_prefix(&self.client_id, txid);
        let nonce = nonce_for(&flush.object);
        let item_name = flush.object.item_name();

        // Serialise provenance; oversized values are staged as temp
        // objects now and COPYed to their permanent keys at commit.
        let encoded = encode_records(&flush.object, &flush.records);
        let mut pairs = encoded.pairs;
        let temp_key = [tmp.as_str(), "data"].concat();
        let mut temps = vec![(temp_key.clone(), flush.data.clone())];
        for (i, (perm_key, blob)) in encoded.overflows.iter().enumerate() {
            let tmp_key = format!("{tmp}ovf{i}");
            for (_, value) in pairs.iter_mut() {
                if value == &pointer(perm_key) {
                    *value = staged_pointer(&tmp_key, perm_key);
                }
            }
            temps.push((tmp_key, blob.clone()));
        }

        let prov_chunks = chunk_pairs(txid, &item_name, pairs);
        let mut records = vec![
            WalRecord::Begin {
                txid,
                records: 1 + prov_chunks.len() as u32 + 1, // data + chunks + md5
            },
            WalRecord::Data {
                txid,
                temp_key,
                name: flush.object.name.clone(),
                version: flush.object.version,
                nonce: nonce.clone(),
            },
        ];
        records.extend(prov_chunks);
        records.push(WalRecord::Md5 {
            txid,
            item_name,
            md5_hex: consistency_md5(&flush.data, &nonce, self.parts().use_nonce),
            nonce,
        });
        records.push(WalRecord::Commit { txid });
        (temps, records)
    }

    /// Stores a staged transaction's temporaries (the data and any
    /// overflow values), so that no record of it can be committed
    /// before they exist.
    fn put_temps(&self, temps: &[(String, Blob)]) -> Result<()> {
        let parts = self.parts();
        parts.world.crash_point(A3_BEFORE_TEMP_PUT)?;
        for (key, blob) in temps {
            put_plain(&parts.s3, key, blob)?;
        }
        parts.world.crash_point(A3_AFTER_TEMP_PUT)?;
        Ok(())
    }

    /// Logs one WAL record with its own `SendMessage` — the point
    /// protocol's unit of logging.
    fn log(&self, record: &WalRecord) -> Result<()> {
        self.sqs().send_message(self.wal_url(), record.encode())?;
        Ok(())
    }

    /// Exact number of messages currently on the WAL queue (authoritative
    /// test view, unbilled).
    pub fn wal_depth_exact(&self) -> usize {
        self.sqs().exact_message_count(self.wal_url())
    }
}

impl Serveable for S3SimpleDbSqs {
    fn serve_parts(&self) -> ServeParts {
        self.parts().clone()
    }
}

impl ProvenanceStore for S3SimpleDbSqs {
    fn architecture(&self) -> &'static str {
        "s3+simpledb+sqs"
    }

    /// §4.3 log phase: begin → temp data object + pointer record →
    /// provenance chunks → MD5 record → commit. Nothing touches the
    /// final S3/SimpleDB locations; that is the commit daemon's job.
    fn persist(&mut self, flush: &FileFlush) -> Result<()> {
        let (temps, records) = self.stage_tx(flush);
        let [begin, data, chunks @ .., md5, commit] = records.as_slice() else {
            unreachable!("a staged transaction has its four framing records");
        };

        // Log phase step (b): the begin record.
        self.parts().world.crash_point(A3_BEFORE_BEGIN)?;
        self.log(begin)?;

        // Step (c): stage the data (and overflow values) as temporary
        // objects, then log the pointer.
        self.put_temps(&temps)?;
        self.log(data)?;

        // Step (d): provenance chunks + the MD5 record.
        for chunk in chunks {
            self.log(chunk)?;
            self.parts().world.crash_point(A3_MID_PROV_LOG)?;
        }
        self.log(md5)?;

        // Step (e): commit.
        self.parts().world.crash_point(A3_BEFORE_COMMIT)?;
        self.log(commit)
    }

    /// The batched §4.3 log phase. Every flush's temporaries are staged
    /// first; then the WAL records of the *whole group* — BEGIN, data
    /// pointer, provenance chunks, MD5, COMMIT per transaction, in
    /// order — travel as `SendMessageBatch` calls packed under both the
    /// 10-entry and [`sim_sqs::MAX_BATCH_PAYLOAD`] limits
    /// ([`pack_wal_batches`]). Order is preserved, so a crash between
    /// batches can only drop a *suffix*: any transaction whose COMMIT
    /// made it onto the queue is complete, and any transaction cut off
    /// mid-payload is missing its COMMIT and is ignored forever — the
    /// §4.3 atomicity argument is untouched, while a typical 5-record
    /// transaction costs ⌈5/10⌉ send requests instead of 5. The same
    /// holds inside a pipelined region ([`crate::persist_groups`]): the
    /// WAL queue's sends are completion-ordered per queue by the
    /// world (see [`simworld::Charge::order_key`]), so
    /// however deep the pipeline runs, BEGIN/payload/COMMIT never
    /// complete out of order.
    fn persist_batch(&mut self, flushes: &[FileFlush]) -> Result<()> {
        if flushes.is_empty() {
            return Ok(());
        }
        self.parts().world.crash_point(A3_BEFORE_BEGIN)?;
        let mut records: Vec<WalRecord> = Vec::new();
        for flush in flushes {
            let (temps, tx_records) = self.stage_tx(flush);
            self.put_temps(&temps)?;
            records.extend(tx_records);
        }

        let batches = pack_wal_batches(&records);
        let last = batches.len() - 1;
        for (i, batch) in batches.iter().enumerate() {
            if i == last {
                // The group's final commit rides in this batch.
                self.parts().world.crash_point(A3_BEFORE_COMMIT)?;
            }
            let outcomes = self.sqs().send_message_batch(self.wal_url(), batch)?;
            // Entry failures cannot happen (the chunker caps every
            // record at one message); surface them if they ever do.
            for outcome in outcomes {
                outcome?;
            }
            if i != last {
                self.parts().world.crash_point(A3_MID_PROV_LOG)?;
            }
        }
        Ok(())
    }

    fn read(&self, name: &str) -> Result<ReadOutcome> {
        self.parts().read(name)
    }

    fn query(&self, query: &ProvQuery) -> Result<QueryAnswer> {
        self.parts().query(query)
    }

    /// Recovery after a crash (client or daemon): replay the WAL — the
    /// commit daemon picks up whatever transactions were committed — and
    /// let the cleaner collect expired temporaries. No scan of SimpleDB
    /// is ever needed, which is the point of this architecture.
    fn recover(&mut self) -> Result<RecoveryReport> {
        let before = self.daemon.applied_total();
        self.run_daemons_until_idle()?;
        Ok(RecoveryReport {
            transactions_replayed: self.daemon.applied_total() - before,
            objects_removed: self.run_cleaner()?,
            ..RecoveryReport::default()
        })
    }

    /// Drives the commit daemon until it stops making progress (several
    /// consecutive empty rounds, since a sampled receive proves nothing).
    /// After each empty round the daemon asks the queue for its
    /// (billable, approximate) message count — the count spans
    /// *invisible* messages too, so a positive answer means undeleted
    /// deliveries (a crashed daemon's) are waiting out their visibility
    /// timeout, and only then does an idle round advance virtual time to
    /// bring them back. An empty queue quiesces in a handful of cheap
    /// empty receives instead of a fixed multi-second confirmation tail.
    fn run_daemons_until_idle(&mut self) -> Result<()> {
        let mut idle_rounds = 0;
        while idle_rounds < DRAIN_IDLE_ROUNDS {
            let progress = self.daemon.step(true)?;
            if progress.received == 0 && progress.applied == 0 {
                idle_rounds += 1;
                if self.sqs().approximate_number_of_messages(self.wal_url())? > 0 {
                    self.parts()
                        .world
                        .advance(simworld::SimDuration::from_secs(5));
                }
            } else {
                idle_rounds = 0;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_pointer_parsing() {
        assert_eq!(
            parse_staged_pointer("@tmp:tmp/c/1/ovf0|prov/foo 1/0"),
            Some(("tmp/c/1/ovf0", "prov/foo 1/0"))
        );
        assert_eq!(parse_staged_pointer("@s3:prov/foo 1/0"), None);
        assert_eq!(parse_staged_pointer("plain"), None);
        assert_eq!(parse_staged_pointer("@tmp:no-separator"), None);
    }

    #[test]
    fn overflow_key_is_stable_for_staging() {
        // The staged pointer embeds the permanent key produced by
        // encode_records; make sure the layout helpers agree.
        let object = pass::ObjectRef::new("foo", 1);
        assert_eq!(crate::layout::overflow_key(&object, 0), "prov/foo 1/0");
    }
}
