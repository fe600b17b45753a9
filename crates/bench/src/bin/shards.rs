//! Shard-scaling bench: throughput and deterministic virtual-time
//! latency as the shard/queue count grows, for each sharded backend.
//!
//! Usage: `cargo run --release -p prov-bench --bin shards
//!         [--mode=simpledb|s3|sqs|batch|pipeline|split|fleet|query|all] [--smoke]
//!         [--threads=N] [--queries=N]
//!         [--scale=small|medium|paper]`
//!
//! `--smoke` runs a seconds-scale sweep for CI: it checks that the
//! sweep completes, that result counts agree across shard/queue layouts
//! (layout must never change semantics), and that the virtual-time
//! latency of the sharded class falls as the layout spreads. The full
//! run's numbers are committed to `BASELINE.md`.
//!
//! `--mode=batch` sweeps the group-commit flusher's batch size over the
//! arch2/arch3 persist paths; its smoke asserts the batched path issues
//! strictly fewer billable requests than the point-op path, shrinks the
//! provenance flush path ≥ 5x at full fill, and leaves the provenance
//! graph bit-identical.
//!
//! `--mode=query` sweeps Q3 over walk vs materialized-closure-index
//! engines at 50–2000 churn chains. Its smoke asserts the index answers
//! item-for-item what the walk answers, that maintenance leaves the
//! data + provenance stores byte-identical, that index maintenance is
//! billed, and the acceptance curve: index ≥5x faster than the walk at
//! 200 chains and ≤2x from 50 to 500 chains (the walk grows with the
//! domain).
//!
//! `--mode=fleet` runs the open-loop multi-tenant fleet: uniform vs
//! zipf(0.99) tenant skew, provider throttling off vs on, plus a
//! rejection-triggered hot-shard-splitting rescue of the hottest
//! scenario, reporting per-service latency percentiles (client-observed:
//! retry backoff included) plus 503/retry/split counts and the
//! operations bill. Its smoke asserts ordered percentiles, nonzero 503s
//! under throttling with a byte-identical final store, a fatter tail for
//! the skewed fleet, and that splitting sheds 503s and the p99 without
//! moving the fingerprint.
//!
//! `--mode=split` runs static vs hot-shard-splitting legs of a
//! zipf(0.99) point-write stream over a 5k-key and a 100k-key corpus.
//! Its smoke asserts the split policy fires, the windowed max/mean
//! imbalance collapses to ≤ 1.3x at 100k keys (the 5k corpus is
//! floor-limited by its unsplittable hottest key), and the converged
//! domain state fingerprints byte-identically with splitting on or off.
//!
//! `--mode=pipeline` sweeps the in-flight depth of the pipelined
//! persist path (sync = synchronous batch baseline; on arch3 the depth
//! also pipelines the commit daemon; the final row is the adaptive AIMD
//! controller). Its smoke asserts graph-identical results, strictly
//! lower virtual completion time as the fixed depth rises, and an
//! adaptive row within 10% of the best fixed depth.

use prov_bench::batchbench::{batch_sweep, render_batch, DEFAULT_GROUP_SIZES};
use prov_bench::fleetbench::{fleet_sweep, render_fleet, FleetParams};
use prov_bench::pipebench::{
    pipeline_sweep, render_pipeline, DEFAULT_PIPELINE_GROUP, DEFAULT_SPECS,
};
use prov_bench::querybench::{query_sweep, render_query, DEFAULT_QUERY_CHAINS};
use prov_bench::shardbench::{
    render, render_s3_virtual, render_s3_wall, render_skew, render_split, render_sqs_virtual,
    render_sqs_wall, render_virtual, s3_scaling, s3_virtual_scaling, shard_scaling, skew_sweep,
    split_sweep, sqs_scaling, sqs_virtual_scaling, virtual_scaling, DEFAULT_QUEUE_COUNTS,
    DEFAULT_S3_OBJECTS, DEFAULT_SHARD_COUNTS, DEFAULT_SQS_MESSAGES,
};
use provenance_cloud::ArchKind;
use workloads::Combined;

fn parse_flag(args: &[String], prefix: &str, default: usize) -> usize {
    args.iter()
        .find_map(|a| a.strip_prefix(prefix).and_then(|v| v.parse().ok()))
        .unwrap_or(default)
}

fn parse_mode(args: &[String]) -> String {
    args.iter()
        .find_map(|a| a.strip_prefix("--mode=").map(str::to_string))
        .unwrap_or_else(|| "simpledb".to_string())
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn run_simpledb(args: &[String], smoke: bool) {
    let (shard_counts, threads, queries): (&[usize], usize, usize) = if smoke {
        (&[1, 4, 16], 2, parse_flag(args, "--queries=", 6))
    } else {
        (
            DEFAULT_SHARD_COUNTS,
            parse_flag(args, "--threads=", 4),
            parse_flag(args, "--queries=", 60),
        )
    };
    let dataset = if smoke {
        Combined::small()
    } else if args.iter().any(|a| a.starts_with("--scale=")) {
        prov_bench::parse_scale(args).dataset()
    } else {
        Combined::medium()
    };

    let vrows = match virtual_scaling(&dataset, shard_counts, queries) {
        Ok(rows) => rows,
        Err(e) => fail(&format!("shard bench (virtual) failed: {e}")),
    };
    print!("{}", render_virtual(&vrows));
    println!();

    match shard_scaling(&dataset, shard_counts, threads, queries) {
        Ok(rows) => {
            print!("{}", render(&rows, threads));
            println!(
                "(wall-clock scaling needs real cores; virtual time is the deterministic view)"
            );
            if smoke {
                let wall_ok = rows.windows(2).all(|w| w[0].hits == w[1].hits)
                    && rows.iter().all(|r| r.hits > 0);
                let virt_ok = vrows
                    .windows(2)
                    .all(|w| w[1].avg_query_ms < w[0].avg_query_ms);
                if !wall_ok {
                    fail("smoke check failed: hit counts diverged across shard counts");
                }
                if !virt_ok {
                    fail("smoke check failed: virtual latency did not fall with shards");
                }
                println!("smoke ok: hits agree; virtual query latency falls as shards grow");
            }
        }
        Err(e) => fail(&format!("shard bench failed: {e}")),
    }

    // The skew picture: how a hot-key stream loads the shards of one
    // domain — the data the ROADMAP's shard-rebalancing item needs.
    let (skew_ops, skew_keys) = if smoke {
        (4_000, 1_000)
    } else {
        (20_000, 5_000)
    };
    match skew_sweep(16, skew_ops, skew_keys, &[0.9, 0.99]) {
        Ok(rows) => {
            println!();
            print!("{}", render_skew(&rows));
            if smoke {
                let uniform = rows[0].imbalance;
                let skewed_worse = rows[1..].iter().all(|r| r.imbalance > uniform);
                if !skewed_worse {
                    fail("smoke check failed: zipfian keys did not imbalance the shards");
                }
                println!("smoke ok: zipfian key streams load the hottest shard hardest");
            }
        }
        Err(e) => fail(&format!("skew sweep failed: {e}")),
    }
}

fn run_s3(args: &[String], smoke: bool) {
    let (shard_counts, objects, threads, ops): (&[usize], usize, usize, usize) = if smoke {
        (&[1, 4, 16], 400, 2, 8)
    } else {
        (
            DEFAULT_SHARD_COUNTS,
            parse_flag(args, "--objects=", DEFAULT_S3_OBJECTS),
            parse_flag(args, "--threads=", 4),
            parse_flag(args, "--queries=", 40),
        )
    };
    let vrows = match s3_virtual_scaling(shard_counts, objects, ops) {
        Ok(rows) => rows,
        Err(e) => fail(&format!("s3 shard bench (virtual) failed: {e}")),
    };
    print!("{}", render_s3_virtual(&vrows));
    println!();
    match s3_scaling(shard_counts, objects, threads, ops) {
        Ok(rows) => {
            print!("{}", render_s3_wall(&rows, threads));
            println!(
                "(wall-clock scaling needs real cores; virtual time is the deterministic view)"
            );
            if smoke {
                let hits_ok = vrows.windows(2).all(|w| w[0].hits == w[1].hits)
                    && rows.windows(2).all(|w| w[0].hits == w[1].hits)
                    && vrows.iter().all(|r| r.hits > 0);
                let virt_ok = vrows.windows(2).all(|w| w[1].list_op_ms < w[0].list_op_ms);
                if !hits_ok {
                    fail("smoke check failed: S3 hit counts diverged across shard counts");
                }
                if !virt_ok {
                    fail("smoke check failed: S3 LIST latency did not fall with shards");
                }
                println!("smoke ok: hits agree; virtual LIST latency falls as shards grow");
            }
        }
        Err(e) => fail(&format!("s3 shard bench failed: {e}")),
    }
}

fn run_sqs(args: &[String], smoke: bool) {
    let (queue_counts, messages, threads): (&[usize], usize, usize) = if smoke {
        (&[1, 2, 4], 480, 2)
    } else {
        (
            DEFAULT_QUEUE_COUNTS,
            parse_flag(args, "--messages=", DEFAULT_SQS_MESSAGES),
            parse_flag(args, "--threads=", 4),
        )
    };
    let vrows = match sqs_virtual_scaling(queue_counts, messages) {
        Ok(rows) => rows,
        Err(e) => fail(&format!("sqs queue bench (virtual) failed: {e}")),
    };
    print!("{}", render_sqs_virtual(&vrows));
    println!();
    match sqs_scaling(queue_counts, messages, threads) {
        Ok(rows) => {
            print!("{}", render_sqs_wall(&rows, threads));
            println!(
                "(wall-clock scaling needs real cores; virtual time is the deterministic view)"
            );
            if smoke {
                let lossless = vrows.iter().all(|r| r.received == r.messages)
                    && rows.iter().all(|r| r.received == r.messages);
                let virt_ok = vrows
                    .windows(2)
                    .all(|w| w[1].avg_receive_ms < w[0].avg_receive_ms);
                if !lossless {
                    fail("smoke check failed: an SQS sweep lost messages");
                }
                if !virt_ok {
                    fail("smoke check failed: SQS receive latency did not fall with queues");
                }
                println!("smoke ok: sweeps lossless; receive latency falls as queues grow");
            }
        }
        Err(e) => fail(&format!("sqs queue bench failed: {e}")),
    }
}

fn run_batch(args: &[String], smoke: bool) {
    let (dataset, group_sizes): (Combined, &[usize]) = if smoke {
        (Combined::small(), &[1, 10, 25])
    } else if args.iter().any(|a| a.starts_with("--scale=")) {
        (prov_bench::parse_scale(args).dataset(), DEFAULT_GROUP_SIZES)
    } else {
        (Combined::medium(), DEFAULT_GROUP_SIZES)
    };
    for kind in [ArchKind::S3SimpleDb, ArchKind::S3SimpleDbSqs] {
        let (rows, graphs) = match batch_sweep(kind, &dataset, group_sizes) {
            Ok(r) => r,
            Err(e) => fail(&format!("batch sweep ({}) failed: {e}", kind.label())),
        };
        print!("{}", render_batch(kind, &rows));
        println!();
        if smoke {
            let state_ok = graphs.windows(2).all(|w| w[0].diff(&w[1]).is_empty());
            // Batched rows must beat the *point-op baseline*; between
            // batch sizes the daemon's sampled receives add noise, so
            // no monotonicity is claimed there.
            let fewer = rows[1..].iter().all(|r| r.requests < rows[0].requests)
                && rows[1..]
                    .iter()
                    .all(|r| r.virtual_secs < rows[0].virtual_secs);
            let flush_win = rows
                .last()
                .map(|r| r.flush_requests * 5 <= rows[0].flush_requests)
                .unwrap_or(false);
            if !state_ok {
                fail("smoke check failed: batching changed the provenance graph");
            }
            if !fewer {
                fail("smoke check failed: a batched row did not issue strictly fewer requests (or was not faster)");
            }
            if !flush_win {
                fail("smoke check failed: provenance flush path did not shrink >=5x at full fill");
            }
            println!(
                "smoke ok ({}): graphs identical; requests and virtual time fall with group size; flush path >=5x smaller",
                kind.label()
            );
        }
    }
}

fn run_pipeline(args: &[String], smoke: bool) {
    let dataset: Combined = if smoke {
        Combined::small()
    } else if args.iter().any(|a| a.starts_with("--scale=")) {
        prov_bench::parse_scale(args).dataset()
    } else {
        Combined::medium()
    };
    for kind in [ArchKind::S3SimpleDb, ArchKind::S3SimpleDbSqs] {
        let (rows, graphs) =
            match pipeline_sweep(kind, &dataset, DEFAULT_PIPELINE_GROUP, DEFAULT_SPECS) {
                Ok(r) => r,
                Err(e) => fail(&format!("pipeline sweep ({}) failed: {e}", kind.label())),
            };
        print!("{}", render_pipeline(kind, &rows));
        println!();
        if smoke {
            let state_ok = graphs.windows(2).all(|w| w[0].diff(&w[1]).is_empty());
            // Daemon-less architectures issue exactly the same bill at
            // every depth; arch3's pipelined commit daemon re-cuts its
            // receive rounds, so only the state is invariant there.
            let requests_ok = kind == ArchKind::S3SimpleDbSqs
                || rows.windows(2).all(|w| w[0].requests == w[1].requests);
            // Every pipelined row beats the synchronous baseline, and
            // deeper pipelines keep winning: the fixed-depth prefix of
            // the sweep must be strictly decreasing in virtual time.
            let fixed_prefix = &rows[..rows.len() - 1];
            let faster = fixed_prefix
                .windows(2)
                .all(|w| w[1].virtual_secs < w[0].virtual_secs);
            // The adaptive row must land within 10% of the best fixed
            // depth — nobody hand-tuned its window.
            let best_fixed = fixed_prefix
                .iter()
                .map(|r| r.virtual_secs)
                .fold(f64::INFINITY, f64::min);
            let adaptive = rows.last().expect("sweep has rows");
            let adaptive_ok = adaptive.virtual_secs <= best_fixed * 1.10;
            if !state_ok {
                fail("smoke check failed: pipelining changed the provenance graph");
            }
            if !requests_ok {
                fail("smoke check failed: pipelining changed the billable request count");
            }
            if !faster {
                fail("smoke check failed: virtual completion time did not fall with depth");
            }
            if !adaptive_ok {
                fail(&format!(
                    "smoke check failed: adaptive depth ({:.2}s) not within 10% of best fixed depth ({best_fixed:.2}s)",
                    adaptive.virtual_secs
                ));
            }
            println!(
                "smoke ok ({}): graphs identical; completion time strictly falls as in-flight depth rises; adaptive within 10% of best fixed depth",
                kind.label()
            );
        }
    }
}

fn run_split_mode(_args: &[String], smoke: bool) {
    // Both corpora matter: 5k keys shows the single-hot-key floor (the
    // top key alone carries ~10.7% of ops — an item can't be split, so
    // ~1.7x vs a 16-shard fair share is irreducible); 100k keys is where
    // the ISSUE's ≤1.3x target is honestly reachable.
    let rows = match split_sweep(16, &[5_000, 100_000]) {
        Ok(rows) => rows,
        Err(e) => fail(&format!("split sweep failed: {e}")),
    };
    print!("{}", render_split(&rows));
    if smoke {
        // Rows come in (static, split) pairs per corpus.
        for pair in rows.chunks(2) {
            let (stat, split) = (&pair[0], &pair[1]);
            if stat.shards_final != stat.shards_start || stat.splits != 0 {
                fail("smoke check failed: the static leg grew shards");
            }
            if split.splits == 0 || split.shards_final <= split.shards_start {
                fail("smoke check failed: the split policy never fired");
            }
            if split.imbalance >= stat.imbalance {
                fail(&format!(
                    "smoke check failed: splitting did not reduce imbalance at {} keys ({:.2}x vs {:.2}x)",
                    split.keys, split.imbalance, stat.imbalance
                ));
            }
            if split.fingerprint != stat.fingerprint {
                fail(&format!(
                    "smoke check failed: splitting changed the converged state at {} keys",
                    split.keys
                ));
            }
        }
        // The acceptance numbers: the 100k-key corpus collapses from the
        // >2x static imbalance to <=1.3x once hot shards split; the 5k
        // corpus lands near its single-key floor.
        let row = |keys: usize, label: &str| {
            rows.iter()
                .find(|r| r.keys == keys && r.label == label)
                .expect("sweep covers both corpora")
        };
        if row(100_000, "static").imbalance < 1.9 {
            fail("smoke check failed: static 100k-key imbalance unexpectedly below 1.9x");
        }
        if row(100_000, "split").imbalance > 1.3 {
            fail(&format!(
                "smoke check failed: split 100k-key imbalance {:.2}x above the 1.3x target",
                row(100_000, "split").imbalance
            ));
        }
        if row(5_000, "split").imbalance > 1.8 {
            fail(&format!(
                "smoke check failed: split 5k-key imbalance {:.2}x above the ~1.7x single-key floor",
                row(5_000, "split").imbalance
            ));
        }
        println!(
            "smoke ok: splits fire, state fingerprints match static, 100k-key imbalance collapses to <=1.3x"
        );
    }
}

fn run_query_mode(_args: &[String], smoke: bool) {
    let (rows, states) = match query_sweep(DEFAULT_QUERY_CHAINS) {
        Ok(r) => r,
        Err(e) => fail(&format!("query sweep failed: {e}")),
    };
    print!("{}", render_query(&rows));
    if smoke {
        // (a) The index engine answers item-for-item what the walk
        // answers, and maintaining it leaves the data + provenance
        // stores byte-identical, at every corpus size.
        for (pair, rpair) in states.chunks(2).zip(rows.chunks(2)) {
            let (walk, index) = (&pair[0], &pair[1]);
            if walk.q3_names != index.q3_names || walk.bulk_names != index.bulk_names {
                fail(&format!(
                    "smoke check failed: index answers diverge from the walk at {} chains",
                    rpair[0].chains
                ));
            }
            if walk.prov_fingerprint != index.prov_fingerprint || walk.data != index.data {
                fail(&format!(
                    "smoke check failed: closure maintenance changed the store at {} chains",
                    rpair[0].chains
                ));
            }
            if rpair[1].persist_ops <= rpair[0].persist_ops {
                fail("smoke check failed: index maintenance was not billed");
            }
        }
        let leg = |chains: u32, engine: &str| {
            rows.iter()
                .find(|r| r.chains == chains && r.engine == engine)
                .expect("sweep covers the size")
        };
        // (b) The shape: the index's fixed-answer Q3 touches the same
        // rows no matter how large the corpus grows (O(answer), not
        // O(graph)); the walk's scans keep growing with the domain.
        // The >=5x / <=2x wall-clock acceptance curve lives in the
        // criterion table (BASELINE.md) — here the op counts pin the
        // asymptotics deterministically.
        let (index50, index2000) = (leg(50, "index"), leg(2000, "index"));
        if rows
            .iter()
            .any(|r| r.engine == "index" && r.q3_ops != index50.q3_ops)
        {
            fail("smoke check failed: index q3 op count moved with the corpus size");
        }
        // A row read fetches one attribute's fragments, not the row's:
        // with fragments shared by all attributes this query cost 15.
        if index50.q3_ops >= 15 {
            fail(&format!(
                "smoke check failed: index q3 costs {} requests; fragments are shredding rows again",
                index50.q3_ops
            ));
        }
        let (walk50, walk2000) = (leg(50, "walk"), leg(2000, "walk"));
        if walk2000.q3_ms <= walk50.q3_ms {
            fail("smoke check failed: the walk's scan cost did not grow with the corpus");
        }
        if index2000.q3_ms > index50.q3_ms * 2.0 {
            fail(&format!(
                "smoke check failed: index q3 virtual time scaled {:.2}x from 50 to 2000 chains",
                index2000.q3_ms / index50.q3_ms
            ));
        }
        println!(
            "smoke ok: index answers match the walk; stores byte-identical either way; index q3 cost is flat from 50 to 2000 chains while the walk's grows (q3 ops / bulk ops at 50 chains: walk {} / {}, index {} / {})",
            walk50.q3_ops, walk50.bulk_ops, index50.q3_ops, index50.bulk_ops
        );
    }
}

fn run_fleet_mode(args: &[String], smoke: bool) {
    let (tenant_counts, arrivals, rate): (&[usize], usize, f64) = if smoke {
        (&[8], 4, 50.0)
    } else {
        (&[4, 8, 16], parse_flag(args, "--arrivals=", 8), 50.0)
    };
    let throttle = simworld::ThrottleConfig::per_shard(4.0).with_burst(8.0);
    for &tenants in tenant_counts {
        let base = FleetParams {
            tenants,
            arrivals_per_tenant: arrivals,
            rate_per_sec: rate,
            shards: 16,
            skew: None,
            throttle: None,
            throttle_wal: true,
            split: None,
            seed: 2009,
        };
        // The split comparison throttles only the range-sharded stores
        // (the WAL queue has no shard map to grow), tightly enough that
        // the hot tenant's shards reject, and drives enough sustained
        // arrivals that a split's doubled refill actually matters —
        // a single pending retry per shard gains nothing from one.
        let store_throttle = simworld::ThrottleConfig::per_shard(1.0).with_burst(2.0);
        let heavy_arrivals = arrivals * 8;
        let scenarios = [
            base,
            FleetParams {
                throttle: Some(throttle),
                ..base
            },
            FleetParams {
                skew: Some(0.99),
                ..base
            },
            FleetParams {
                skew: Some(0.99),
                throttle: Some(throttle),
                ..base
            },
            FleetParams {
                arrivals_per_tenant: heavy_arrivals,
                skew: Some(0.99),
                throttle: Some(store_throttle),
                throttle_wal: false,
                ..base
            },
            // The dynamic-sharding rescue: same hot fleet, but every
            // shard the throttle rejects splits, doubling that range's
            // admission capacity until the 503s dry up.
            FleetParams {
                arrivals_per_tenant: heavy_arrivals,
                skew: Some(0.99),
                throttle: Some(store_throttle),
                throttle_wal: false,
                split: Some(simworld::SplitPolicy::by_rejections(1).with_max_shards(64)),
                ..base
            },
        ];
        let (rows, prints) = match fleet_sweep(&scenarios) {
            Ok(r) => r,
            Err(e) => fail(&format!("fleet sweep failed: {e}")),
        };
        print!("{}", render_fleet(&rows));
        if smoke {
            // (a) Percentile tables are self-consistent everywhere.
            for row in &rows {
                for (service, p) in &row.per_service {
                    if !(p.p50 <= p.p99 && p.p99 <= p.p999 && p.p999 <= p.max) {
                        fail(&format!(
                            "smoke check failed: {} {service:?} percentiles out of order: {p:?}",
                            row.label
                        ));
                    }
                }
            }
            // (b) Throttle-on runs reject measurably yet converge to the
            // same store fingerprint as their unthrottled twin.
            for (pair, label) in [((0usize, 1usize), "uniform"), ((2, 3), "zipf")] {
                let (plain, throttled) = pair;
                if rows[throttled].throttled == 0 || rows[throttled].retries == 0 {
                    fail(&format!(
                        "smoke check failed: {label} throttle run saw no 503s/retries"
                    ));
                }
                if rows[plain].throttled != 0 {
                    fail(&format!(
                        "smoke check failed: {label} unthrottled run saw 503s"
                    ));
                }
                if !prints[throttled].matches(&prints[plain]) {
                    fail(&format!(
                        "smoke check failed: throttling changed the {label} fleet's final store"
                    ));
                }
            }
            // (c) The hot tenant's contention shows in the tail: under
            // the same throttle, the skewed fleet's p99 beats uniform's.
            let p99 = |i: usize| rows[i].overall.as_ref().expect("samples recorded").p99;
            if p99(3) <= p99(1) {
                fail(&format!(
                    "smoke check failed: zipf p99 {:?} not above uniform p99 {:?} under throttle",
                    p99(3),
                    p99(1)
                ));
            }
            // (d) Arming rejection-triggered splits on the store-only
            // throttled hot fleet sheds 503s, pulls the tail back down,
            // and still converges to the static run's exact store.
            if rows[4].throttled == 0 {
                fail("smoke check failed: the store-only throttle never rejected");
            }
            if rows[4].splits != 0 {
                fail("smoke check failed: the static fleet grew shards");
            }
            if rows[5].splits == 0 {
                fail("smoke check failed: the hot fleet's rejections never triggered a split");
            }
            if rows[5].throttled >= rows[4].throttled {
                fail(&format!(
                    "smoke check failed: splitting did not shed 503s ({} vs {})",
                    rows[5].throttled, rows[4].throttled
                ));
            }
            if p99(5) >= p99(4) {
                fail(&format!(
                    "smoke check failed: split fleet p99 {:?} not below static p99 {:?}",
                    p99(5),
                    p99(4)
                ));
            }
            if !prints[5].matches(&prints[4]) {
                fail("smoke check failed: splitting changed the hot fleet's final store");
            }
            if rows.iter().any(|r| r.exhausted != 0) {
                fail("smoke check failed: a persist exhausted its retry budget");
            }
            println!(
                "smoke ok: percentiles ordered; throttled runs reject yet converge to the same fingerprint; zipf tail above uniform; splitting sheds 503s and the tail"
            );
        }
        println!();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mode = parse_mode(&args);
    match mode.as_str() {
        "simpledb" => run_simpledb(&args, smoke),
        "s3" => run_s3(&args, smoke),
        "sqs" => run_sqs(&args, smoke),
        "batch" => run_batch(&args, smoke),
        "pipeline" => run_pipeline(&args, smoke),
        "split" => run_split_mode(&args, smoke),
        "fleet" => run_fleet_mode(&args, smoke),
        "query" => run_query_mode(&args, smoke),
        "all" => {
            run_simpledb(&args, smoke);
            println!();
            run_s3(&args, smoke);
            println!();
            run_sqs(&args, smoke);
            println!();
            run_batch(&args, smoke);
            println!();
            run_pipeline(&args, smoke);
            println!();
            run_split_mode(&args, smoke);
            println!();
            run_query_mode(&args, smoke);
            println!();
            run_fleet_mode(&args, smoke);
        }
        other => fail(&format!(
            "unknown mode {other:?}; expected simpledb|s3|sqs|batch|pipeline|split|fleet|query|all"
        )),
    }
}
