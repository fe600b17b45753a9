//! Layer probes: direct calls into each crate's public functions, timed
//! from outside, on instances shaped like `corpus_std`. They do not
//! depend on the workload; every traced run repeats them.

use std::time::Instant;

use pass::{FileFlush, ObjectRef};
use provenance_cloud::layout::{data_key, BUCKET, DOMAIN};
use provenance_cloud::{
    store_fingerprint, Arch2Config, ClosureMode, ProvenanceStore, S3SimpleDb, S3SimpleDbSqs,
};
use sim_s3::{Metadata, MetadataDirective, S3};
use sim_simpledb::{ReplaceableAttribute, SimpleDb};
use sim_sqs::Sqs;
use simworld::{Blob, Op, Service, SimWorld};

use crate::corpus::{corpus_std, derived_file, pipeline, Origin};
use crate::report::Metric;
use crate::spec::{CORPUS_PIPELINES, PIPELINE_FLUSHES, STAGES};
use crate::stats::{median, p50, sorted, us};

/// Median µs of `n` timed calls of `f`.
fn each_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples = (0..n)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_nanos() as u64
        })
        .collect();
    us(p50(&sorted(samples)))
}

fn total_ops(world: &SimWorld) -> u64 {
    world.meters().total_ops()
}

/// Fresh pipelines no other probe or corpus uses.
fn fresh_pipelines(origin: usize, n: usize, seed: u64) -> Vec<Vec<FileFlush>> {
    let mut events = 0;
    (0..n)
        .map(|p| pipeline(Origin::Connection(origin), p, seed, &mut events))
        .collect()
}

/// `SimWorld`'s global lock: one `record_op` alone, and the same call
/// from two threads at once.
fn simworld_probes(out: &mut Vec<Metric>) {
    const N: usize = 200_000;
    let world = SimWorld::counting();
    let spin = |world: &SimWorld| {
        for _ in 0..N {
            world.record_op(Op::S3Head, 0, 128);
        }
    };
    let start = Instant::now();
    spin(&world);
    let alone = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| spin(&world));
        spin(&world);
    });
    let paired = start.elapsed().as_nanos() as f64;
    out.push(Metric::new(
        "simworld.record_op_ns",
        alone / N as f64,
        "ns",
        N,
    ));
    out.push(Metric::new(
        "simworld.record_op_ns_2t",
        paired / N as f64,
        "ns",
        2 * N,
    ));
    // Two threads did twice the calls in `paired`: 2.0 is perfect
    // scaling, 1.0 a fully serial section.
    out.push(Metric::new(
        "simworld.lock_scaling_2t",
        2.0 * alone / paired,
        "ratio",
        2 * N,
    ));
}

/// Preloads `corpus_std` into a standalone arch2 store — timing the
/// point and batched persist paths on the way — then calls SimpleDB and
/// S3 directly on the result.
fn arch2_and_service_probes(seed: u64, out: &mut Vec<Metric>) -> (f64, f64) {
    let world = SimWorld::counting();
    let s3 = S3::new(&world);
    s3.create_bucket(BUCKET).expect("fresh bucket");
    let db = SimpleDb::new(&world);
    db.create_domain(DOMAIN).expect("fresh domain");
    let mut store = S3SimpleDb::with_services(&world, &s3, &db);
    let mut events = 0;
    let corpus = corpus_std(seed, &mut events);
    let (point, batched) = corpus.split_at(CORPUS_PIPELINES / 4);

    let flushes: Vec<&FileFlush> = point.iter().flatten().collect();
    let persist = each_us(flushes.len(), |i| {
        store.persist(flushes[i]).expect("persist")
    });
    out.push(Metric::new(
        "core.arch2.persist_us",
        persist,
        "us",
        flushes.len(),
    ));
    let ops_before = total_ops(&world);
    let per_group = each_us(batched.len(), |i| {
        store.persist_batch(&batched[i]).expect("persist_batch")
    });
    let batch_us = per_group / PIPELINE_FLUSHES as f64;
    let batch_ops =
        (total_ops(&world) - ops_before) as f64 / (batched.len() * PIPELINE_FLUSHES) as f64;
    out.push(Metric::new(
        "core.arch2.persist_batch_us_per_record",
        batch_us,
        "us",
        batched.len(),
    ));

    let records = (CORPUS_PIPELINES * PIPELINE_FLUSHES) as f64;
    let meters = world.meters();
    for (name, service) in [
        ("simpledb.stored_bytes_per_record", Service::SimpleDb),
        ("s3.stored_bytes_per_record", Service::S3),
    ] {
        out.push(Metric::new(
            name,
            meters.stored_bytes(service) as f64 / records,
            "B",
            records as usize,
        ));
    }
    let snapshot = each_us(1_000, |_| {
        std::hint::black_box(world.meters());
    });
    out.push(Metric::new(
        "simworld.meters_snapshot_us",
        snapshot,
        "us",
        1_000,
    ));
    let fingerprint: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(store_fingerprint(&s3, &db));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.push(Metric::new(
        "core.serve.fingerprint_ms",
        median(&fingerprint),
        "ms",
        3,
    ));

    // Reads first, on the untouched corpus; writes after.
    let files: Vec<String> = (0..CORPUS_PIPELINES * STAGES)
        .map(|i| derived_file(i / STAGES, i % STAGES))
        .collect();
    let n = files.len();
    let get = each_us(n, |i| {
        let item = ObjectRef::new(files[i].clone(), 1).item_name();
        std::hint::black_box(
            db.get_attributes(DOMAIN, &item, None)
                .expect("get_attributes"),
        );
    });
    out.push(Metric::new("simpledb.get_attributes_us", get, "us", n));
    let scan = each_us(200, |i| {
        let expr = format!("['input' = '{}:1']", files[i * 7]);
        std::hint::black_box(
            db.query_with_attributes(DOMAIN, Some(&expr), None, None, None)
                .expect("query_with_attributes"),
        );
    });
    out.push(Metric::new(
        "simpledb.query_with_attributes_us",
        scan,
        "us",
        200,
    ));
    let head = each_us(n, |i| {
        std::hint::black_box(
            s3.head_object(BUCKET, &data_key(&files[i]))
                .expect("head_object"),
        );
    });
    out.push(Metric::new("s3.head_object_us", head, "us", n));
    let fetch = each_us(n, |i| {
        std::hint::black_box(
            s3.get_object(BUCKET, &data_key(&files[i]))
                .expect("get_object"),
        );
    });
    out.push(Metric::new("s3.get_object_us", fetch, "us", n));

    let attrs = |i: usize| {
        vec![
            ReplaceableAttribute::add("type", "file"),
            ReplaceableAttribute::add("name", format!("probe/i{i}")),
            ReplaceableAttribute::add("input", format!("{}:1", files[i % n])),
            ReplaceableAttribute::add("md5", format!("{i:032x}")),
        ]
    };
    let put = each_us(1_000, |i| {
        db.put_attributes(DOMAIN, &format!("probe/i{i} 1"), &attrs(i))
            .expect("put_attributes");
    });
    out.push(Metric::new("simpledb.put_attributes_us", put, "us", 1_000));
    let batch = each_us(40, |b| {
        let items: Vec<_> = (0..25)
            .map(|j| (format!("probe/b{b}-{j} 1"), attrs(b * 25 + j)))
            .collect();
        db.batch_put_attributes(DOMAIN, &items)
            .expect("batch_put_attributes");
    });
    out.push(Metric::new(
        "simpledb.batch_put_us_per_item",
        batch / 25.0,
        "us",
        40,
    ));
    let put = each_us(1_000, |i| {
        s3.put_object(
            BUCKET,
            &format!("probe/o{i}"),
            Blob::synthetic(i as u64, 1024),
            Metadata::new(),
        )
        .expect("put_object");
    });
    out.push(Metric::new("s3.put_object_us", put, "us", 1_000));
    let copy = each_us(1_000, |i| {
        s3.copy_object(
            BUCKET,
            &data_key(&files[i]),
            BUCKET,
            &format!("probe/c{i}"),
            MetadataDirective::Copy,
        )
        .expect("copy_object");
    });
    out.push(Metric::new("s3.copy_object_us", copy, "us", 1_000));
    (batch_us, batch_ops)
}

/// What the closure index adds to a batched arch2 write, against the
/// plain write measured by [`arch2_and_service_probes`].
fn closure_probes(seed: u64, plain_us: f64, plain_ops: f64, out: &mut Vec<Metric>) {
    let world = SimWorld::counting();
    let mut store = S3SimpleDb::new(&world);
    store.set_config(Arch2Config {
        closure: ClosureMode::Serve,
        ..Arch2Config::default()
    });
    let groups = fresh_pipelines(7, 100, seed);
    let per_group = each_us(groups.len(), |i| {
        store.persist_batch(&groups[i]).expect("persist_batch")
    });
    let records = (groups.len() * PIPELINE_FLUSHES) as f64;
    out.push(Metric::new(
        "core.closure.maintain_us_per_record",
        per_group / PIPELINE_FLUSHES as f64 - plain_us,
        "us",
        groups.len(),
    ));
    out.push(Metric::new(
        "core.closure.ops_per_record",
        total_ops(&world) as f64 / records - plain_ops,
        "count",
        records as usize,
    ));
}

/// arch3's log phase, and what draining the WAL costs per record when
/// the backlog is short (64) or has been left to grow (2 048).
fn arch3_probes(seed: u64, out: &mut Vec<Metric>) {
    let world = SimWorld::counting();
    let mut store = S3SimpleDbSqs::new(&world, "probe");
    let groups = fresh_pipelines(8, 400, seed);
    let drain = |store: &mut S3SimpleDbSqs| {
        let start = Instant::now();
        store.run_daemons_until_idle().expect("drain");
        start.elapsed().as_nanos() as f64 / 1e3
    };

    let flushes: Vec<&FileFlush> = groups[..40].iter().flatten().collect();
    let persist = each_us(flushes.len(), |i| {
        store.persist(flushes[i]).expect("persist")
    });
    out.push(Metric::new(
        "core.arch3.persist_us",
        persist,
        "us",
        flushes.len(),
    ));
    drain(&mut store);
    let batched = &groups[40..100];
    let per_group = each_us(batched.len(), |i| {
        store.persist_batch(&batched[i]).expect("persist_batch")
    });
    out.push(Metric::new(
        "core.arch3.persist_batch_us_per_record",
        per_group / PIPELINE_FLUSHES as f64,
        "us",
        batched.len(),
    ));
    drain(&mut store);

    let rest: Vec<FileFlush> = groups[100..].iter().flatten().cloned().collect();
    let (short, long) = rest.split_at(8 * 64);
    let b64: Vec<f64> = short
        .chunks(64)
        .map(|chunk| {
            store.persist_batch(chunk).expect("persist_batch");
            drain(&mut store) / 64.0
        })
        .collect();
    out.push(Metric::new(
        "core.arch3.drain_us_per_record_b64",
        median(&b64),
        "us",
        b64.len(),
    ));
    let long = &long[..2048];
    for chunk in long.chunks(64) {
        store.persist_batch(chunk).expect("persist_batch");
    }
    let b2048 = drain(&mut store) / long.len() as f64;
    out.push(Metric::new(
        "core.arch3.drain_us_per_record_b2048",
        b2048,
        "us",
        1,
    ));
    out.push(Metric::new(
        "sqs.messages_after_flush",
        store.wal_depth_exact() as f64,
        "count",
        1,
    ));
}

/// SQS called directly: send, receive (≤ 10 per call) and delete, on a
/// queue holding WAL-sized messages.
fn sqs_probes(out: &mut Vec<Metric>) {
    const N: usize = 2_000;
    let world = SimWorld::counting();
    let sqs = Sqs::new(&world);
    let url = sqs.create_queue("probe");
    let body = "x".repeat(256);
    let send = each_us(N, |i| {
        sqs.send_message(&url, format!("{i}:{body}"))
            .expect("send_message");
    });
    out.push(Metric::new("sqs.send_message_us", send, "us", N));
    let mut handles = Vec::with_capacity(N);
    let mut receives = Vec::new();
    // Receives sample a subset of servers, so a few come back empty
    // before the queue really is; bound the loop all the same.
    while handles.len() < N && receives.len() < 20 * N {
        let start = Instant::now();
        let got = sqs.receive_message(&url, 10).expect("receive_message");
        receives.push(start.elapsed().as_nanos() as u64);
        handles.extend(got.into_iter().map(|m| m.receipt_handle));
    }
    let calls = receives.len();
    out.push(Metric::new(
        "sqs.receive_message_us",
        us(p50(&sorted(receives))),
        "us",
        calls,
    ));
    let delete = each_us(handles.len(), |i| {
        sqs.delete_message(&url, &handles[i])
            .expect("delete_message");
    });
    out.push(Metric::new(
        "sqs.delete_message_us",
        delete,
        "us",
        handles.len(),
    ));
}

/// Every workload-independent per-layer metric.
pub fn layer_probes(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    simworld_probes(&mut out);
    let (plain_us, plain_ops) = arch2_and_service_probes(seed, &mut out);
    closure_probes(seed, plain_us, plain_ops, &mut out);
    arch3_probes(seed, &mut out);
    sqs_probes(&mut out);
    out
}
