//! Shard-scaling sweeps: deterministic virtual-time latency against the
//! shard/queue count for all three sharded backends, plus the key-skew
//! picture of one SimpleDB domain.
//!
//! The claim behind per-shard locking is that it unlocks parallel
//! service paths: with N shards (SimpleDB domains, S3 buckets) or
//! per-queue locks (SQS) a fan-out call is charged its *largest*
//! partition's share of the scan. Everything here is deterministic
//! (fixed dataset seed, strongly-consistent worlds), so each sweep's
//! [`Sweep::check`] states its invariants exactly:
//!
//! * [`SimpleDbSweep`] (`--mode=simpledb`): the query mix returns rows,
//!   the hit count is the same at every shard count, and mean virtual
//!   query latency falls strictly as shards grow.
//! * [`SkewSweep`] (second table of `--mode=simpledb`): every op lands
//!   on exactly one shard, every Zipf row is more imbalanced than the
//!   uniform control, and zipf(0.99) by more than 1.5x.
//! * [`S3Sweep`] (`--mode=s3`): hits agree across shard counts and
//!   LIST-class virtual latency falls strictly.
//! * [`SqsSweep`] (`--mode=sqs`): every layout receives every message
//!   and mean virtual receive latency falls strictly as queues grow.
//!
//! Wall-clock scaling of the same bursts ([`burst`], [`s3_burst`]) is
//! the criterion groups in `benches/shards.rs`; thread scaling of the
//! whole stack is `benchmark/`.

use std::thread;
use std::time::Instant;

use provenance_cloud::{layout, ProvenanceStore, Result, S3SimpleDb};
use sim_s3::{Metadata, S3};
use sim_simpledb::{ReplaceableAttribute, SimpleDb};
use sim_sqs::Sqs;
use simworld::{Blob, Service, SimDuration, SimWorld};
use workloads::{Combined, ZipfKeys};

use crate::harness::{ensure, priced_world, Size, Sweep, SEED};

/// The shard counts the full SimpleDB and S3 sweeps visit.
const FULL_SHARD_COUNTS: &[usize] = &[1, 2, 4, 8, 16];

/// Bucket the S3 sweep fills.
const S3_BENCH_BUCKET: &str = "shardbench";

/// Persists `dataset` into a fresh Architecture-2 store on `world`
/// whose SimpleDB runs `shards` hash shards.
fn persist_corpus(world: &SimWorld, shards: usize, dataset: &Combined) -> Result<SimpleDb> {
    let mut store = S3SimpleDb::with_shards(world, shards);
    let (flushes, _) = dataset.flushes();
    for flush in &flushes {
        store.persist(flush)?;
    }
    Ok(store.simpledb().clone())
}

/// Persists `dataset` into a fresh Architecture-2 store whose SimpleDB
/// runs `shards` hash shards, and hands back the shared SimpleDB handle
/// (settled, so every query sees the full corpus).
///
/// # Errors
///
/// Propagates service errors from the persist phase.
pub fn prepare(shards: usize, dataset: &Combined) -> Result<SimpleDb> {
    let world = SimWorld::counting();
    let db = persist_corpus(&world, shards, dataset)?;
    world.settle();
    Ok(db)
}

/// One `Query` of the benchmark mix, selected by `slot`: files by type,
/// processes by type (both served from the type postings), a two-page
/// paginated full scan, or a predicate no equality cover serves and no
/// item matches, so every cell of every shard is examined — the
/// scan-dominated member of the mix. Returns how many rows came back.
///
/// # Errors
///
/// Propagates query errors.
pub fn run_one(db: &SimpleDb, slot: usize) -> Result<u64> {
    let page = |expr| -> Result<u64> {
        let r = db.query(layout::DOMAIN, Some(expr), Some(100), None)?;
        Ok(r.item_names.len() as u64)
    };
    Ok(match slot % 4 {
        0 => page("['type' = 'file']")?,
        1 => page("['type' = 'process']")?,
        2 => {
            let first = db.query(layout::DOMAIN, None, Some(50), None)?;
            let mut n = first.item_names.len() as u64;
            if let Some(token) = first.next_token {
                n += db
                    .query(layout::DOMAIN, None, Some(50), Some(&token))?
                    .item_names
                    .len() as u64;
            }
            n
        }
        _ => page("['type' != 'file' and 'type' != 'process']")?,
    })
}

/// Fires `threads × queries_per_thread` queries at shared clones of
/// `db` and returns `(total hits, wall seconds)`.
pub fn burst(db: &SimpleDb, threads: usize, queries_per_thread: usize) -> (u64, f64) {
    let start = Instant::now();
    let hits = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = db.clone();
                scope.spawn(move || -> u64 {
                    (0..queries_per_thread)
                        .map(|q| run_one(&db, t + q).expect("bench query failed"))
                        .sum()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench thread panicked"))
            .sum()
    });
    (hits, start.elapsed().as_secs_f64())
}

/// One row of the virtual-time scaling table.
#[derive(Clone, Debug)]
pub struct VirtualRow {
    /// Shard count of this run.
    pub shards: usize,
    /// Queries issued.
    pub queries: u64,
    /// Total result rows returned.
    pub hits: u64,
    /// Virtual time the whole query burst consumed.
    pub virtual_secs: f64,
    /// Mean virtual milliseconds per query.
    pub avg_query_ms: f64,
    /// Mean virtual milliseconds of the scan-dominated class alone (a
    /// `Query` that examines every cell of every shard) — where
    /// partition parallelism pays off hardest.
    pub scan_query_ms: f64,
}

/// `--mode=simpledb`, first table: the query mix of [`run_one`] priced
/// in virtual time by the latency model's parallel scan term. A sharded
/// query charges the largest partition's share of the scan, so the mean
/// virtual query latency must fall as the shard count grows — on any
/// host, regardless of core count.
#[derive(Clone, Debug)]
pub struct SimpleDbSweep {
    /// One row per shard count, ascending.
    pub rows: Vec<VirtualRow>,
}

impl Sweep for SimpleDbSweep {
    fn run(size: Size) -> Result<Self> {
        let (shard_counts, queries): (&[usize], usize) = match size {
            Size::Smoke => (&[1, 4, 16], 6),
            Size::Full(_) => (FULL_SHARD_COUNTS, 60),
        };
        let dataset = size.dataset();
        let mut rows = Vec::with_capacity(shard_counts.len());
        for &shards in shard_counts {
            let world = priced_world(SEED);
            let db = persist_corpus(&world, shards, &dataset)?;
            let start = world.now();
            let mut hits = 0u64;
            let mut scan_secs = 0.0f64;
            let mut scan_queries = 0u64;
            for slot in 0..queries {
                let before = world.now();
                hits += run_one(&db, slot)?;
                if slot % 4 == 3 {
                    scan_secs += (world.now() - before).as_secs_f64();
                    scan_queries += 1;
                }
            }
            let virtual_secs = (world.now() - start).as_secs_f64();
            rows.push(VirtualRow {
                shards,
                queries: queries as u64,
                hits,
                virtual_secs,
                avg_query_ms: virtual_secs * 1_000.0 / (queries as f64).max(1.0),
                scan_query_ms: scan_secs * 1_000.0 / (scan_queries as f64).max(1.0),
            });
        }
        Ok(SimpleDbSweep { rows })
    }

    /// Speedup columns are against the single-shard row.
    fn render(&self) -> String {
        let rows = &self.rows;
        let mut out = String::new();
        out.push_str("Virtual-time query latency — parallel scan model, fixed corpus\n");
        out.push_str(
            "shards | queries |    hits | virt (s) | ms/query | speedup | scan ms | scan speedup\n",
        );
        out.push_str(
            "-------|---------|---------|----------|----------|---------|---------|-------------\n",
        );
        let base = rows.first().map(|r| r.avg_query_ms).unwrap_or(1.0);
        let scan_base = rows.first().map(|r| r.scan_query_ms).unwrap_or(1.0);
        for r in rows {
            out.push_str(&format!(
                "{:>6} | {:>7} | {:>7} | {:>8.2} | {:>8.2} | {:>6.2}x | {:>7.2} | {:>11.2}x\n",
                r.shards,
                r.queries,
                r.hits,
                r.virtual_secs,
                r.avg_query_ms,
                base / r.avg_query_ms.max(f64::EPSILON),
                r.scan_query_ms,
                scan_base / r.scan_query_ms.max(f64::EPSILON),
            ));
        }
        out
    }

    fn check(&self) -> std::result::Result<(), String> {
        let rows = &self.rows;
        ensure!(rows[0].hits > 0, "the query mix returned nothing");
        // Query semantics must be independent of the shard layout.
        ensure!(
            rows.windows(2).all(|w| w[0].hits == w[1].hits),
            "hit counts diverged across shard counts: {rows:?}"
        );
        ensure!(
            rows.windows(2)
                .all(|w| w[1].avg_query_ms < w[0].avg_query_ms),
            "virtual query latency did not fall with shards: {rows:?}"
        );
        Ok(())
    }
}

// --- Key-skew shard imbalance ---

/// One row of the key-skew imbalance table: how unevenly a key stream
/// loads the shards of a SimpleDB domain.
#[derive(Clone, Debug)]
pub struct SkewRow {
    /// Key distribution label (`uniform`, `zipf(0.99)`, …).
    pub label: String,
    /// Shard count of the domain.
    pub shards: usize,
    /// Point writes issued.
    pub ops: u64,
    /// Ops landing on the busiest shard.
    pub max_shard_ops: u64,
    /// Mean ops per shard.
    pub mean_shard_ops: f64,
    /// `max / mean` — 1.0 is perfect balance. Hashing balances keys,
    /// not popularity, so a hot key loads its one shard harder.
    pub imbalance: f64,
}

/// Writes `ops` point items into a fresh `shards`-sharded domain, with
/// item names drawn from `keys` keys — uniformly when `theta` is
/// `None`, Zipf(θ)-skewed otherwise — and reads the per-shard op load
/// back out of the meters.
///
/// # Errors
///
/// Propagates SimpleDB errors.
pub fn shard_skew(shards: usize, ops: usize, keys: usize, theta: Option<f64>) -> Result<SkewRow> {
    let world = SimWorld::counting();
    let db = SimpleDb::with_shards(&world, shards);
    db.create_domain("skew")?;
    let mut gen = ZipfKeys::new(keys, theta.unwrap_or(0.99), 2009);
    for i in 0..ops {
        let key = match theta {
            Some(_) => gen.next_index(),
            None => gen.next_uniform_index(),
        };
        db.put_attributes(
            "skew",
            &format!("item-{key:06}"),
            &[ReplaceableAttribute::replace("v", i.to_string())],
        )?;
    }
    let imb = world.meters().shard_imbalance(Service::SimpleDb, shards);
    Ok(SkewRow {
        label: match theta {
            Some(t) => format!("zipf({t})"),
            None => "uniform".to_string(),
        },
        shards,
        ops: ops as u64,
        max_shard_ops: imb.max_ops,
        mean_shard_ops: imb.mean_ops(),
        imbalance: imb.imbalance(),
    })
}

/// `--mode=simpledb`, second table: how a hot-key stream loads the 16
/// shards of one domain — a uniform control row plus zipf(0.9) and
/// zipf(0.99). `max/mean` shows what a fixed layout cannot fix:
/// hashing balances *keys*, not *popularity*.
#[derive(Clone, Debug)]
pub struct SkewSweep {
    /// The uniform control row, then one row per θ, ascending.
    pub rows: Vec<SkewRow>,
}

impl Sweep for SkewSweep {
    fn run(size: Size) -> Result<Self> {
        let (ops, keys) = match size {
            Size::Smoke => (4_000, 1_000),
            Size::Full(_) => (20_000, 5_000),
        };
        let mut rows = vec![shard_skew(16, ops, keys, None)?];
        for theta in [0.9, 0.99] {
            rows.push(shard_skew(16, ops, keys, Some(theta))?);
        }
        Ok(SkewSweep { rows })
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Key-skew shard imbalance — point writes, hash placement\n");
        out.push_str("distribution | shards |  ops | max shard ops | mean shard ops | max/mean\n");
        out.push_str("-------------|--------|------|---------------|----------------|---------\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:>12} | {:>6} | {:>4} | {:>13} | {:>14.1} | {:>7.2}x\n",
                r.label, r.shards, r.ops, r.max_shard_ops, r.mean_shard_ops, r.imbalance,
            ));
        }
        out
    }

    fn check(&self) -> std::result::Result<(), String> {
        let (uniform, zipf) = (&self.rows[0], &self.rows[1..]);
        ensure!(
            (uniform.mean_shard_ops - uniform.ops as f64 / uniform.shards as f64).abs() < 1e-9,
            "an op landed on no shard, or on two: {uniform:?}"
        );
        ensure!(
            zipf.iter().all(|r| r.imbalance > uniform.imbalance),
            "zipfian keys did not imbalance the shards: {:?}",
            self.rows
        );
        let hottest = zipf.last().expect("sweep has zipf rows");
        ensure!(
            hottest.imbalance > uniform.imbalance * 1.5,
            "{} must load its hottest shard >1.5x harder than uniform: {:?}",
            hottest.label,
            self.rows
        );
        Ok(())
    }
}

// --- S3 LIST/mixed sweep ---

/// One row of the S3 scaling table.
#[derive(Clone, Debug)]
pub struct S3Row {
    /// Bucket shard count of this run.
    pub shards: usize,
    /// Operations issued.
    pub ops: u64,
    /// Total keys listed / objects fetched — identical across shard
    /// counts for the same corpus, or sharding broke LIST semantics.
    pub hits: u64,
    /// Virtual time the whole mix consumed.
    pub virtual_secs: f64,
    /// Mean virtual milliseconds per operation.
    pub avg_op_ms: f64,
    /// Mean virtual milliseconds of the LIST class alone (single pages
    /// and full `list_all` walks) — where the fan-out scan term pays.
    pub list_op_ms: f64,
}

/// Fills a fresh `shards`-sharded bucket with `objects` small objects
/// on a virtual-pricing world.
///
/// # Errors
///
/// Propagates S3 errors from the fill phase.
pub fn prepare_s3(shards: usize, objects: usize) -> Result<(SimWorld, S3)> {
    let world = priced_world(SEED);
    let s3 = S3::with_shards(&world, shards);
    s3.create_bucket(S3_BENCH_BUCKET)?;
    for i in 0..objects {
        s3.put_object(
            S3_BENCH_BUCKET,
            &format!("obj/{i:05}"),
            Blob::synthetic(i as u64, 256),
            Metadata::new(),
        )?;
    }
    Ok((world, s3))
}

/// One operation of the S3 mix, selected by `slot`: a single LIST page,
/// a GET, a full paginated `list_all` walk, or a HEAD. Read-only, so
/// bursts can share one corpus. Returns how many keys/objects came back.
///
/// # Errors
///
/// Propagates S3 errors.
pub fn run_one_s3(s3: &S3, slot: usize, objects: usize) -> Result<u64> {
    let key_of = |slot: usize| format!("obj/{:05}", (slot * 7919) % objects.max(1));
    Ok(match slot % 4 {
        0 => s3
            .list_objects(S3_BENCH_BUCKET, "obj/", None, 1000)?
            .objects
            .len() as u64,
        1 => {
            s3.get_object(S3_BENCH_BUCKET, &key_of(slot))?;
            1
        }
        2 => s3.list_all(S3_BENCH_BUCKET, "obj/")?.len() as u64,
        _ => {
            s3.head_object(S3_BENCH_BUCKET, &key_of(slot))?;
            1
        }
    })
}

/// `true` for the slots of [`run_one_s3`] that are LIST-class.
fn s3_list_class(slot: usize) -> bool {
    slot.is_multiple_of(2)
}

/// Fires `threads × ops_per_thread` mixed S3 ops at shared clones of
/// `s3` and returns `(total hits, wall seconds)`.
pub fn s3_burst(s3: &S3, objects: usize, threads: usize, ops_per_thread: usize) -> (u64, f64) {
    let start = Instant::now();
    let hits = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let s3 = s3.clone();
                scope.spawn(move || -> u64 {
                    (0..ops_per_thread)
                        .map(|q| run_one_s3(&s3, t + q, objects).expect("bench op failed"))
                        .sum()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench thread panicked"))
            .sum()
    });
    (hits, start.elapsed().as_secs_f64())
}

/// `--mode=s3`: the op mix of [`run_one_s3`] priced in virtual time. A
/// sharded LIST charges the busiest shard's share of the index scan, so
/// LIST-class virtual latency must fall as the shard count grows — on
/// any host.
#[derive(Clone, Debug)]
pub struct S3Sweep {
    /// One row per bucket shard count, ascending.
    pub rows: Vec<S3Row>,
}

impl Sweep for S3Sweep {
    fn run(size: Size) -> Result<Self> {
        let (shard_counts, objects, ops): (&[usize], usize, usize) = match size {
            Size::Smoke => (&[1, 4, 16], 400, 8),
            Size::Full(_) => (FULL_SHARD_COUNTS, 2000, 40),
        };
        let mut rows = Vec::with_capacity(shard_counts.len());
        for &shards in shard_counts {
            let (world, s3) = prepare_s3(shards, objects)?;
            let start = world.now();
            let mut hits = 0u64;
            let mut list_secs = 0.0f64;
            let mut list_ops = 0u64;
            for slot in 0..ops {
                let before = world.now();
                hits += run_one_s3(&s3, slot, objects)?;
                if s3_list_class(slot) {
                    list_secs += (world.now() - before).as_secs_f64();
                    list_ops += 1;
                }
            }
            let virtual_secs = (world.now() - start).as_secs_f64();
            rows.push(S3Row {
                shards,
                ops: ops as u64,
                hits,
                virtual_secs,
                avg_op_ms: virtual_secs * 1_000.0 / (ops as f64).max(1.0),
                list_op_ms: list_secs * 1_000.0 / (list_ops as f64).max(1.0),
            });
        }
        Ok(S3Sweep { rows })
    }

    /// Speedup columns are against the single-shard row.
    fn render(&self) -> String {
        let rows = &self.rows;
        let mut out = String::new();
        out.push_str("S3 virtual-time latency — LIST fan-out scan model, fixed corpus\n");
        out.push_str(
            "shards |  ops |    hits | virt (s) |  ms/op | speedup | list ms | list speedup\n",
        );
        out.push_str(
            "-------|------|---------|----------|--------|---------|---------|-------------\n",
        );
        let base = rows.first().map(|r| r.avg_op_ms).unwrap_or(1.0);
        let list_base = rows.first().map(|r| r.list_op_ms).unwrap_or(1.0);
        for r in rows {
            out.push_str(&format!(
                "{:>6} | {:>4} | {:>7} | {:>8.2} | {:>6.2} | {:>6.2}x | {:>7.2} | {:>11.2}x\n",
                r.shards,
                r.ops,
                r.hits,
                r.virtual_secs,
                r.avg_op_ms,
                base / r.avg_op_ms.max(f64::EPSILON),
                r.list_op_ms,
                list_base / r.list_op_ms.max(f64::EPSILON),
            ));
        }
        out
    }

    fn check(&self) -> std::result::Result<(), String> {
        let rows = &self.rows;
        ensure!(rows[0].hits > 0, "the op mix returned nothing");
        // LIST semantics must be independent of the bucket shard layout.
        ensure!(
            rows.windows(2).all(|w| w[0].hits == w[1].hits),
            "S3 hit counts diverged across shard counts: {rows:?}"
        );
        ensure!(
            rows.windows(2).all(|w| w[1].list_op_ms < w[0].list_op_ms),
            "S3 LIST latency did not fall with shards: {rows:?}"
        );
        Ok(())
    }
}

// --- SQS multi-queue sweep ---

/// One row of the SQS multi-queue table.
#[derive(Clone, Debug)]
pub struct SqsRow {
    /// Queue count the message load is spread over.
    pub queues: usize,
    /// Messages sent.
    pub messages: u64,
    /// Distinct messages received — must equal `messages` for every
    /// layout, or queue spreading lost work.
    pub received: u64,
    /// Receive calls the sweep needed.
    pub receives: u64,
    /// Virtual time of the receive phase.
    pub virtual_secs: f64,
    /// Mean virtual milliseconds per receive call — the multi-queue
    /// class: each queue's servers scan only that queue's messages, so
    /// spreading load over more queues shrinks the busiest server's
    /// share and this must fall.
    pub avg_receive_ms: f64,
}

/// Creates `queues` queues on a virtual-pricing world and spreads
/// `messages` messages over them round-robin. Visibility timeouts are
/// set long so one receive sweep sees each message exactly once.
///
/// # Errors
///
/// Propagates SQS errors.
pub fn prepare_sqs(queues: usize, messages: usize) -> Result<(SimWorld, Sqs, Vec<String>)> {
    let world = priced_world(SEED);
    let sqs = Sqs::new(&world);
    let urls: Vec<String> = (0..queues)
        .map(|q| sqs.create_queue(format!("sweep-{q}")))
        .collect();
    for url in &urls {
        sqs.set_visibility_timeout(url, SimDuration::from_secs(3600))?;
    }
    for i in 0..messages {
        sqs.send_message(&urls[i % queues], format!("m{i:06}"))?;
    }
    Ok((world, sqs, urls))
}

/// Receives every message on `url` exactly once (long visibility
/// timeout, no deletes — the paper's commit daemon scanning a deep WAL).
/// Returns `(messages seen, receive calls)`.
///
/// # Errors
///
/// Propagates SQS errors.
pub fn sweep_queue(sqs: &Sqs, url: &str, expected: usize) -> Result<(u64, u64)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut receives = 0u64;
    while seen.len() < expected {
        receives += 1;
        for msg in sqs.receive_message(url, 10)? {
            seen.insert(msg.message_id);
        }
    }
    Ok((seen.len() as u64, receives))
}

/// Messages queue `q` of `queues` holds after a round-robin spread of
/// `messages` — the first `messages % queues` queues carry the
/// remainder, so non-divisible loads are swept in full.
fn queue_load(messages: usize, queues: usize, q: usize) -> usize {
    messages / queues + usize::from(q < messages % queues)
}

/// `--mode=sqs`: a fixed message load spread over more queues, every
/// queue swept once. Each receive is charged the busiest sampled
/// server's share of *its own queue's* messages, so the mean virtual
/// receive latency must fall as the queue count grows.
#[derive(Clone, Debug)]
pub struct SqsSweep {
    /// One row per queue count, ascending.
    pub rows: Vec<SqsRow>,
}

impl Sweep for SqsSweep {
    fn run(size: Size) -> Result<Self> {
        let (queue_counts, messages): (&[usize], usize) = match size {
            Size::Smoke => (&[1, 2, 4], 480),
            Size::Full(_) => (&[1, 2, 4, 8], 2400),
        };
        let mut rows = Vec::with_capacity(queue_counts.len());
        for &queues in queue_counts {
            let (world, sqs, urls) = prepare_sqs(queues, messages)?;
            let start = world.now();
            let mut received = 0u64;
            let mut receives = 0u64;
            for (q, url) in urls.iter().enumerate() {
                let (seen, calls) = sweep_queue(&sqs, url, queue_load(messages, queues, q))?;
                received += seen;
                receives += calls;
            }
            let virtual_secs = (world.now() - start).as_secs_f64();
            rows.push(SqsRow {
                queues,
                messages: messages as u64,
                received,
                receives,
                virtual_secs,
                avg_receive_ms: virtual_secs * 1_000.0 / (receives as f64).max(1.0),
            });
        }
        Ok(SqsSweep { rows })
    }

    /// The speedup column is on the receive class, against the
    /// single-queue row.
    fn render(&self) -> String {
        let rows = &self.rows;
        let mut out = String::new();
        out.push_str("SQS virtual-time receive latency — per-queue server scan, fixed load\n");
        out.push_str("queues |  msgs | received | receives | virt (s) | ms/receive | speedup\n");
        out.push_str("-------|-------|----------|----------|----------|------------|--------\n");
        let base = rows.first().map(|r| r.avg_receive_ms).unwrap_or(1.0);
        for r in rows {
            out.push_str(&format!(
                "{:>6} | {:>5} | {:>8} | {:>8} | {:>8.2} | {:>10.2} | {:>6.2}x\n",
                r.queues,
                r.messages,
                r.received,
                r.receives,
                r.virtual_secs,
                r.avg_receive_ms,
                base / r.avg_receive_ms.max(f64::EPSILON),
            ));
        }
        out
    }

    fn check(&self) -> std::result::Result<(), String> {
        let rows = &self.rows;
        ensure!(
            rows.iter().all(|r| r.received == r.messages),
            "an SQS sweep lost messages: {rows:?}"
        );
        ensure!(
            rows.windows(2)
                .all(|w| w[1].avg_receive_ms < w[0].avg_receive_ms),
            "SQS receive latency did not fall with queues: {rows:?}"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sweeps drive one thread; the criterion bursts drive several.
    // Hit counts must not depend on the shard layout there either.

    #[test]
    fn hits_agree_across_shard_counts() {
        let dataset = Combined::small();
        let hits: Vec<u64> = [1, 4, 16]
            .iter()
            .map(|&shards| burst(&prepare(shards, &dataset).unwrap(), 2, 3).0)
            .collect();
        assert!(hits[0] > 0, "the query mix must return results");
        assert!(hits.windows(2).all(|w| w[0] == w[1]), "{hits:?}");
    }

    #[test]
    fn s3_wall_burst_hits_agree() {
        let hits: Vec<u64> = [1, 16]
            .iter()
            .map(|&shards| s3_burst(&prepare_s3(shards, 200).unwrap().1, 200, 2, 4).0)
            .collect();
        assert!(hits[0] > 0);
        assert_eq!(hits[0], hits[1]);
    }
}
