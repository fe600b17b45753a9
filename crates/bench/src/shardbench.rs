//! Shard-scaling experiments: multi-thread throughput and deterministic
//! virtual-time latency against the shard/queue count, for all three
//! sharded backends.
//!
//! The tentpole claim behind per-shard locking is that it unlocks
//! parallel service paths: with one global lock every call serialises,
//! with N shards (SimpleDB domains, S3 buckets) or per-queue locks (SQS)
//! concurrent calls interleave. This harness measures that three ways —
//! SimpleDB `Query`/`Select` bursts ([`shard_scaling`]), an S3
//! LIST/GET/HEAD mix ([`s3_scaling`], [`s3_virtual_scaling`]) and an SQS
//! multi-queue receive sweep ([`sqs_scaling`], [`sqs_virtual_scaling`]).
//!
//! Everything except the thread scheduling is deterministic (fixed
//! dataset seed, strongly-consistent worlds), so the per-call *result*
//! counts must agree across shard/queue layouts — the smoke tests and
//! the CI steps assert that while the throughput and virtual-latency
//! columns tell the scaling story.

use std::thread;
use std::time::Instant;

use provenance_cloud::{domain_fingerprint, layout, ProvenanceStore, Result, S3SimpleDb};
use sim_s3::{Metadata, S3};
use sim_simpledb::{ReplaceableAttribute, SimpleDb};
use sim_sqs::Sqs;
use simworld::{
    Blob, Consistency, LatencyModel, MeterSnapshot, Service, ShardImbalance, ShardPlan, SimConfig,
    SimDuration, SimWorld, SplitPolicy,
};
use workloads::{Combined, ZipfKeys};

/// The shard counts the scaling sweep visits by default.
pub const DEFAULT_SHARD_COUNTS: &[usize] = &[1, 2, 4, 8, 16];

/// The queue counts the SQS multi-queue sweep visits by default.
pub const DEFAULT_QUEUE_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Objects in the S3 sweep's bucket by default.
pub const DEFAULT_S3_OBJECTS: usize = 2000;

/// Messages spread over the SQS sweep's queues by default.
pub const DEFAULT_SQS_MESSAGES: usize = 2400;

/// Bucket the S3 sweep fills.
const S3_BENCH_BUCKET: &str = "shardbench";

/// A fresh world for virtual-time sweeps: strong consistency so results
/// are layout-invariant, the default latency model so the virtual clock
/// prices every call.
fn virtual_world() -> SimWorld {
    SimWorld::with_config(SimConfig {
        seed: 2009,
        consistency: Consistency::Strong,
        latency: LatencyModel::default(),
        replicas: 1,
    })
}

/// One row of the scaling table.
#[derive(Clone, Debug)]
pub struct ShardRow {
    /// Shard count of this run.
    pub shards: usize,
    /// Queries issued (threads × queries-per-thread).
    pub queries: u64,
    /// Total result rows returned — identical across shard counts for
    /// the same corpus, or the sharding broke query semantics.
    pub hits: u64,
    /// Wall-clock seconds for the whole burst.
    pub wall_secs: f64,
    /// Queries per wall-clock second.
    pub throughput: f64,
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
    let mut store = S3SimpleDb::with_shards(&world, shards);
    let (flushes, _) = dataset.flushes();
    for flush in &flushes {
        store.persist(flush)?;
    }
    world.settle();
    Ok(store.simpledb().clone())
}

/// One query of the benchmark mix, selected by `slot`: an indexed
/// `Select` by type, a bracketed `Query` by type, a two-page paginated
/// full scan, or a full-domain `count(*)` — the scan-dominated member
/// of the mix. Returns how many rows came back.
///
/// # Errors
///
/// Propagates query errors.
pub fn run_one(db: &SimpleDb, slot: usize) -> Result<u64> {
    Ok(match slot % 4 {
        0 => {
            let r = db.select(
                "select itemName() from provenance where type = 'file'",
                None,
            )?;
            r.items.len() as u64
        }
        1 => {
            let r = db.query(
                layout::DOMAIN,
                Some("['type' = 'process']"),
                Some(100),
                None,
            )?;
            r.item_names.len() as u64
        }
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
        _ => {
            let r = db.select("select count(*) from provenance", None)?;
            r.count.unwrap_or(0)
        }
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

/// Runs the full sweep: for each shard count, persist the corpus and
/// fire the multi-thread query burst.
///
/// # Errors
///
/// Propagates service errors.
pub fn shard_scaling(
    dataset: &Combined,
    shard_counts: &[usize],
    threads: usize,
    queries_per_thread: usize,
) -> Result<Vec<ShardRow>> {
    let mut rows = Vec::with_capacity(shard_counts.len());
    for &shards in shard_counts {
        let db = prepare(shards, dataset)?;
        let (hits, wall_secs) = burst(&db, threads, queries_per_thread);
        let queries = (threads * queries_per_thread) as u64;
        rows.push(ShardRow {
            shards,
            queries,
            hits,
            wall_secs,
            throughput: queries as f64 / wall_secs.max(f64::EPSILON),
        });
    }
    Ok(rows)
}

/// Renders the sweep like the paper renders its tables, with a speedup
/// column against the single-shard row.
pub fn render(rows: &[ShardRow], threads: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Shard scaling — {threads} threads, query/select mix, fixed corpus\n"
    ));
    out.push_str("shards | queries |    hits | wall (s) | queries/s | speedup\n");
    out.push_str("-------|---------|---------|----------|-----------|--------\n");
    let base = rows.first().map(|r| r.throughput).unwrap_or(1.0);
    for r in rows {
        out.push_str(&format!(
            "{:>6} | {:>7} | {:>7} | {:>8.3} | {:>9.1} | {:>6.2}x\n",
            r.shards,
            r.queries,
            r.hits,
            r.wall_secs,
            r.throughput,
            r.throughput / base,
        ));
    }
    out
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
    /// Mean virtual milliseconds of the scan-dominated class alone
    /// (`count(*)` over the whole domain) — where partition parallelism
    /// pays off hardest.
    pub scan_query_ms: f64,
}

/// Like [`prepare`], but on a world with the default latency model and
/// strong consistency, so the virtual clock prices every call and every
/// query sees the full corpus.
///
/// # Errors
///
/// Propagates service errors from the persist phase.
pub fn prepare_virtual(shards: usize, dataset: &Combined) -> Result<(SimWorld, SimpleDb)> {
    let world = virtual_world();
    let mut store = S3SimpleDb::with_shards(&world, shards);
    let (flushes, _) = dataset.flushes();
    for flush in &flushes {
        store.persist(flush)?;
    }
    let db = store.simpledb().clone();
    Ok((world, db))
}

/// The deterministic half of the experiment: the same query mix, priced
/// in virtual time by the latency model's parallel scan term. A sharded
/// query charges the largest partition's share of the scan, so the mean
/// virtual query latency must fall as the shard count grows — on any
/// host, regardless of core count.
///
/// # Errors
///
/// Propagates service errors.
pub fn virtual_scaling(
    dataset: &Combined,
    shard_counts: &[usize],
    queries: usize,
) -> Result<Vec<VirtualRow>> {
    let mut rows = Vec::with_capacity(shard_counts.len());
    for &shards in shard_counts {
        let (world, db) = prepare_virtual(shards, dataset)?;
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
    Ok(rows)
}

/// Renders the virtual-time sweep with a speedup column against the
/// single-shard row.
pub fn render_virtual(rows: &[VirtualRow]) -> String {
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
    /// `max / mean` — 1.0 is perfect balance; the paper-era answer to a
    /// hot domain was splitting or throttling, which is what this
    /// number argues for (ROADMAP: shard rebalancing).
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

/// Runs the skew experiment at one shard count: a uniform control row
/// plus one row per requested θ.
///
/// # Errors
///
/// Propagates SimpleDB errors.
pub fn skew_sweep(shards: usize, ops: usize, keys: usize, thetas: &[f64]) -> Result<Vec<SkewRow>> {
    let mut rows = vec![shard_skew(shards, ops, keys, None)?];
    for &theta in thetas {
        rows.push(shard_skew(shards, ops, keys, Some(theta))?);
    }
    Ok(rows)
}

/// Renders the skew table. `shard_op_count` imbalance (max/mean) is the
/// number the ROADMAP's shard-rebalancing item needs data for: hashing
/// balances *keys*, not *popularity*.
pub fn render_skew(rows: &[SkewRow]) -> String {
    let mut out = String::new();
    out.push_str("Key-skew shard imbalance — point writes, hash placement\n");
    out.push_str("distribution | shards |  ops | max shard ops | mean shard ops | max/mean\n");
    out.push_str("-------------|--------|------|---------------|----------------|---------\n");
    for r in rows {
        out.push_str(&format!(
            "{:>12} | {:>6} | {:>4} | {:>13} | {:>14.1} | {:>7.2}x\n",
            r.label, r.shards, r.ops, r.max_shard_ops, r.mean_shard_ops, r.imbalance,
        ));
    }
    out
}

// --- Hot-shard splitting sweep ---

/// Warmup writes before the split sweep's measurement window — splits
/// are expected to happen (and finish) in here.
pub const SPLIT_WARMUP_OPS: usize = 40_000;

/// Writes inside the measurement window itself.
pub const SPLIT_WINDOW_OPS: usize = 20_000;

/// The split policy the sweep arms: split any shard whose windowed op
/// share exceeds 8% (just above the ~7.9% share of the hottest single
/// key at the 100k-key corpus — a single item can't be split apart, so
/// triggering below that would thrash), with a 4096-op window floor and
/// a 64-shard growth cap.
pub fn sweep_split_policy() -> SplitPolicy {
    SplitPolicy::by_share(0.08)
        .with_min_ops(4096)
        .with_max_shards(64)
}

/// One row of the hot-shard splitting table.
#[derive(Clone, Debug)]
pub struct SplitRow {
    /// `static` or `split`.
    pub label: String,
    /// Distinct keys the zipf stream draws from.
    pub keys: usize,
    /// Shards the domain started with.
    pub shards_start: usize,
    /// Shards the domain ended with (grows only in split runs).
    pub shards_final: usize,
    /// Splits performed.
    pub splits: u64,
    /// Writes in the measurement window.
    pub window_ops: u64,
    /// Window ops on the busiest shard.
    pub max_ops: u64,
    /// Window `max / mean` against the **starting** shard count's fair
    /// share — the static run's own yardstick, so "2.37x → ≤1.3x" is
    /// apples to apples even though splitting grew the live count.
    pub imbalance: f64,
    /// FNV-1a fingerprint of the domain's converged latest state — must
    /// be byte-identical between the static and split runs.
    pub fingerprint: u64,
}

/// Window load reduced through the shared [`ShardImbalance`] type: the
/// per-shard op deltas between two meter snapshots, with the *baseline*
/// shard count as the fair-share denominator.
pub fn window_imbalance(
    before: &MeterSnapshot,
    after: &MeterSnapshot,
    service: Service,
    ids: &[u32],
    baseline_shards: usize,
) -> ShardImbalance {
    let mut total_ops = 0u64;
    let mut max_ops = 0u64;
    let mut max_shard = None;
    let mut shards_touched = 0usize;
    for &id in ids {
        let delta = after
            .shard_op_count(service, id)
            .saturating_sub(before.shard_op_count(service, id));
        if delta == 0 {
            continue;
        }
        shards_touched += 1;
        total_ops += delta;
        if delta > max_ops {
            max_ops = delta;
            max_shard = Some(id);
        }
    }
    ShardImbalance {
        baseline_shards,
        shards_touched,
        total_ops,
        max_ops,
        max_shard,
    }
}

/// Runs one leg of the split experiment: `SPLIT_WARMUP_OPS` zipf(θ)
/// point writes to warm the policy up (splits land here), then
/// `SPLIT_WINDOW_OPS` more inside a metered window. Returns the window
/// imbalance against the *starting* shard count plus the converged
/// state fingerprint.
///
/// # Errors
///
/// Propagates SimpleDB errors.
pub fn split_leg(
    shards: usize,
    keys: usize,
    theta: f64,
    policy: Option<SplitPolicy>,
) -> Result<SplitRow> {
    let world = SimWorld::counting();
    let plan = match policy {
        Some(p) => ShardPlan::fixed(shards).with_split(p),
        None => ShardPlan::fixed(shards),
    };
    let db = SimpleDb::with_shard_plan(&world, plan);
    db.create_domain("skew")?;
    let mut gen = ZipfKeys::new(keys, theta, 2009);
    let mut write = |i: usize| -> Result<()> {
        let key = gen.next_index();
        db.put_attributes(
            "skew",
            &format!("item-{key:06}"),
            &[ReplaceableAttribute::replace("v", i.to_string())],
        )?;
        Ok(())
    };
    for i in 0..SPLIT_WARMUP_OPS {
        write(i)?;
    }
    let before = world.meters();
    for i in 0..SPLIT_WINDOW_OPS {
        write(SPLIT_WARMUP_OPS + i)?;
    }
    let after = world.meters();
    let ids = db.domain_shard_ids("skew").expect("domain exists");
    let imb = window_imbalance(&before, &after, Service::SimpleDb, &ids, shards);
    world.settle();
    Ok(SplitRow {
        label: if policy.is_some() { "split" } else { "static" }.to_string(),
        keys,
        shards_start: shards,
        shards_final: db.domain_shard_count("skew").expect("domain exists"),
        splits: db.domain_split_count("skew").expect("domain exists"),
        window_ops: imb.total_ops,
        max_ops: imb.max_ops,
        imbalance: imb.imbalance(),
        fingerprint: domain_fingerprint(&db, "skew"),
    })
}

/// The full split sweep at zipf(0.99): static and split legs over a
/// small (hot single key dominates — splitting is floor-limited by the
/// unsplittable item) and a large corpus (where the ≤1.3x target is
/// honestly reachable).
///
/// # Errors
///
/// Propagates SimpleDB errors.
pub fn split_sweep(shards: usize, key_counts: &[usize]) -> Result<Vec<SplitRow>> {
    let mut rows = Vec::new();
    for &keys in key_counts {
        rows.push(split_leg(shards, keys, 0.99, None)?);
        rows.push(split_leg(shards, keys, 0.99, Some(sweep_split_policy()))?);
    }
    Ok(rows)
}

/// Renders the split sweep table.
pub fn render_split(rows: &[SplitRow]) -> String {
    let mut out = String::new();
    out.push_str("Hot-shard splitting — zipf(0.99) point writes, windowed imbalance\n");
    out.push_str(&format!(
        "(warmup {SPLIT_WARMUP_OPS} ops, window {SPLIT_WINDOW_OPS} ops; imbalance vs the starting fair share)\n",
    ));
    out.push_str(
        "  mode |   keys | shards start→final | splits | max shard ops | max/mean | state fingerprint\n",
    );
    out.push_str(
        "-------|--------|--------------------|--------|---------------|----------|------------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6} | {:>6} | {:>11}→{:<6} | {:>6} | {:>13} | {:>7.2}x | {:016x}\n",
            r.label,
            r.keys,
            r.shards_start,
            r.shards_final,
            r.splits,
            r.max_ops,
            r.imbalance,
            r.fingerprint,
        ));
    }
    out
}

// --- S3 LIST/mixed sweep ---

/// One row of the S3 scaling tables.
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
    /// Wall-clock seconds of the multi-thread burst (0 for
    /// virtual-only runs).
    pub wall_secs: f64,
}

/// Fills a fresh `shards`-sharded bucket with `objects` small objects
/// on a virtual-pricing world.
///
/// # Errors
///
/// Propagates S3 errors from the fill phase.
pub fn prepare_s3(shards: usize, objects: usize) -> Result<(SimWorld, S3)> {
    let world = virtual_world();
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

/// The deterministic half of the S3 experiment: the same op mix, priced
/// in virtual time. A sharded LIST charges the busiest shard's share of
/// the index scan, so LIST-class virtual latency must fall as the shard
/// count grows — on any host.
///
/// # Errors
///
/// Propagates S3 errors.
pub fn s3_virtual_scaling(
    shard_counts: &[usize],
    objects: usize,
    ops: usize,
) -> Result<Vec<S3Row>> {
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
            wall_secs: 0.0,
        });
    }
    Ok(rows)
}

/// The wall-clock half: persist the corpus per shard count and fire the
/// multi-thread mixed burst.
///
/// # Errors
///
/// Propagates S3 errors.
pub fn s3_scaling(
    shard_counts: &[usize],
    objects: usize,
    threads: usize,
    ops_per_thread: usize,
) -> Result<Vec<S3Row>> {
    let mut rows = Vec::with_capacity(shard_counts.len());
    for &shards in shard_counts {
        let (_, s3) = prepare_s3(shards, objects)?;
        let (hits, wall_secs) = s3_burst(&s3, objects, threads, ops_per_thread);
        rows.push(S3Row {
            shards,
            ops: (threads * ops_per_thread) as u64,
            hits,
            virtual_secs: 0.0,
            avg_op_ms: 0.0,
            list_op_ms: 0.0,
            wall_secs,
        });
    }
    Ok(rows)
}

/// Renders the S3 virtual-time sweep with speedup columns against the
/// single-shard row.
pub fn render_s3_virtual(rows: &[S3Row]) -> String {
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

/// Renders the S3 wall-clock burst table.
pub fn render_s3_wall(rows: &[S3Row], threads: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "S3 wall-clock — {threads} threads, LIST/GET/HEAD mix, fixed corpus\n"
    ));
    out.push_str("shards |  ops |    hits | wall (s) |  ops/s\n");
    out.push_str("-------|------|---------|----------|-------\n");
    for r in rows {
        out.push_str(&format!(
            "{:>6} | {:>4} | {:>7} | {:>8.3} | {:>6.1}\n",
            r.shards,
            r.ops,
            r.hits,
            r.wall_secs,
            r.ops as f64 / r.wall_secs.max(f64::EPSILON),
        ));
    }
    out
}

// --- SQS multi-queue sweep ---

/// One row of the SQS multi-queue tables.
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
    /// Wall-clock seconds of the multi-thread drain (0 for virtual-only
    /// runs).
    pub wall_secs: f64,
}

/// Creates `queues` queues on a virtual-pricing world and spreads
/// `messages` messages over them round-robin. Visibility timeouts are
/// set long so one receive sweep sees each message exactly once.
///
/// # Errors
///
/// Propagates SQS errors.
pub fn prepare_sqs(queues: usize, messages: usize) -> Result<(SimWorld, Sqs, Vec<String>)> {
    let world = virtual_world();
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

/// The deterministic half of the SQS experiment: spread a fixed message
/// load over more queues and sweep every queue. Each receive is charged
/// the busiest sampled server's share of *its own queue's* messages, so
/// the mean virtual receive latency must fall as the queue count grows.
///
/// # Errors
///
/// Propagates SQS errors.
pub fn sqs_virtual_scaling(queue_counts: &[usize], messages: usize) -> Result<Vec<SqsRow>> {
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
            wall_secs: 0.0,
        });
    }
    Ok(rows)
}

/// The wall-clock half: `threads` OS threads sweep disjoint queue
/// subsets concurrently — with per-queue locks they no longer serialise
/// on one service mutex.
///
/// # Errors
///
/// Propagates SQS errors.
pub fn sqs_scaling(queue_counts: &[usize], messages: usize, threads: usize) -> Result<Vec<SqsRow>> {
    let mut rows = Vec::with_capacity(queue_counts.len());
    for &queues in queue_counts {
        let (_, sqs, urls) = prepare_sqs(queues, messages)?;
        let start = Instant::now();
        let (received, receives) = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.min(queues))
                .map(|t| {
                    let sqs = sqs.clone();
                    let urls = &urls;
                    scope.spawn(move || -> (u64, u64) {
                        let mut totals = (0u64, 0u64);
                        let stride = threads.min(queues);
                        for (q, url) in urls.iter().enumerate().skip(t).step_by(stride) {
                            let (seen, calls) =
                                sweep_queue(&sqs, url, queue_load(messages, queues, q))
                                    .expect("sweep failed");
                            totals.0 += seen;
                            totals.1 += calls;
                        }
                        totals
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bench thread panicked"))
                .fold((0, 0), |acc, (s, c)| (acc.0 + s, acc.1 + c))
        });
        rows.push(SqsRow {
            queues,
            messages: messages as u64,
            received,
            receives,
            virtual_secs: 0.0,
            avg_receive_ms: 0.0,
            wall_secs: start.elapsed().as_secs_f64(),
        });
    }
    Ok(rows)
}

/// Renders the SQS virtual-time sweep with a speedup column on the
/// receive class against the single-queue row.
pub fn render_sqs_virtual(rows: &[SqsRow]) -> String {
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

/// Renders the SQS wall-clock sweep table.
pub fn render_sqs_wall(rows: &[SqsRow], threads: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "SQS wall-clock — {threads} threads sweeping disjoint queues, fixed load\n"
    ));
    out.push_str("queues |  msgs | received | wall (s) | msgs/s\n");
    out.push_str("-------|-------|----------|----------|-------\n");
    for r in rows {
        out.push_str(&format!(
            "{:>6} | {:>5} | {:>8} | {:>8.3} | {:>6.1}\n",
            r.queues,
            r.messages,
            r.received,
            r.wall_secs,
            r.received as f64 / r.wall_secs.max(f64::EPSILON),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_agree_across_shard_counts() {
        // Query *semantics* must be independent of the shard layout:
        // same corpus, same queries, same result counts.
        let dataset = Combined::small();
        let rows = shard_scaling(&dataset, &[1, 4, 16], 2, 3).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].hits > 0, "the query mix must return results");
        assert!(
            rows.windows(2).all(|w| w[0].hits == w[1].hits),
            "hit counts diverged across shard counts: {rows:?}"
        );
    }

    #[test]
    fn virtual_query_latency_improves_with_shards() {
        // The acceptance bar of the sharding issue, in the simulator's
        // own currency: more shards → parallel scan → lower virtual
        // query latency, deterministically on any host.
        let dataset = Combined::small();
        let rows = virtual_scaling(&dataset, &[1, 4, 16], 9).unwrap();
        assert!(
            rows.windows(2).all(|w| w[0].hits == w[1].hits),
            "hit counts diverged: {rows:?}"
        );
        assert!(
            rows.windows(2)
                .all(|w| w[1].avg_query_ms < w[0].avg_query_ms),
            "virtual latency must fall as shards grow: {rows:?}"
        );
    }

    #[test]
    fn s3_hits_agree_and_list_latency_falls() {
        // LIST semantics must be independent of the bucket shard layout,
        // while the fan-out scan term makes the LIST class faster.
        let rows = s3_virtual_scaling(&[1, 4, 16], 400, 8).unwrap();
        assert!(rows[0].hits > 0, "the op mix must return results");
        assert!(
            rows.windows(2).all(|w| w[0].hits == w[1].hits),
            "hit counts diverged across shard counts: {rows:?}"
        );
        assert!(
            rows.windows(2).all(|w| w[1].list_op_ms < w[0].list_op_ms),
            "LIST-class virtual latency must fall as shards grow: {rows:?}"
        );
    }

    #[test]
    fn s3_wall_burst_hits_agree() {
        let rows = s3_scaling(&[1, 16], 200, 2, 4).unwrap();
        assert!(rows[0].hits > 0);
        assert_eq!(rows[0].hits, rows[1].hits);
    }

    #[test]
    fn sqs_sweep_is_lossless_and_receive_latency_falls() {
        // Spreading a fixed load over more queues must lose nothing and
        // must shrink the per-receive server-scan share.
        let rows = sqs_virtual_scaling(&[1, 2, 4], 240).unwrap();
        assert!(
            rows.iter().all(|r| r.received == r.messages),
            "a sweep lost messages: {rows:?}"
        );
        assert!(
            rows.windows(2)
                .all(|w| w[1].avg_receive_ms < w[0].avg_receive_ms),
            "receive latency must fall as queues grow: {rows:?}"
        );
    }

    #[test]
    fn sqs_wall_sweep_is_lossless() {
        let rows = sqs_scaling(&[2, 4], 160, 2).unwrap();
        assert!(rows.iter().all(|r| r.received == r.messages), "{rows:?}");
    }

    #[test]
    fn zipfian_keys_imbalance_the_shards() {
        // Hash placement balances keys, not popularity: the skewed
        // stream must load its hottest shard measurably harder than
        // the uniform control does.
        let rows = skew_sweep(16, 4000, 1000, &[0.99]).unwrap();
        assert_eq!(rows.len(), 2);
        let (uniform, zipf) = (&rows[0], &rows[1]);
        assert_eq!(uniform.ops, zipf.ops);
        assert!(
            (uniform.mean_shard_ops - 4000.0 / 16.0).abs() < 1e-9,
            "every op lands on exactly one shard: {uniform:?}"
        );
        assert!(
            zipf.imbalance > uniform.imbalance * 1.5,
            "zipf must skew the shard load: {rows:?}"
        );
    }

    #[test]
    fn splitting_collapses_the_imbalance_without_touching_state() {
        // The tentpole's two promises at once: hot-shard splitting must
        // shrink the windowed imbalance, and the converged domain state
        // must be byte-identical with splitting on or off.
        let stat = split_leg(16, 5000, 0.99, None).unwrap();
        let split = split_leg(16, 5000, 0.99, Some(sweep_split_policy())).unwrap();
        assert_eq!(stat.shards_final, 16, "static runs must not split");
        assert!(split.splits > 0, "the policy must fire: {split:?}");
        assert!(
            split.imbalance < stat.imbalance,
            "splitting must reduce the imbalance: {stat:?} vs {split:?}"
        );
        assert_eq!(
            stat.fingerprint, split.fingerprint,
            "converged state must not depend on splitting"
        );
    }
}
