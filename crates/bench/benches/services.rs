//! Criterion bench: raw throughput of the simulated services and the
//! MD5/Blob substrate — the floor under every higher-level number.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sim_s3::{Metadata, S3};
use sim_simpledb::{ReplaceableAttribute, SimpleDb};
use sim_sqs::Sqs;
use simworld::{Blob, Md5, SimWorld};

fn bench_s3(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_s3");
    group.sample_size(30);
    let world = SimWorld::counting();
    let s3 = S3::new(&world);
    s3.create_bucket("b").unwrap();
    let body = Blob::synthetic(7, 64 * 1024);
    let meta = Metadata::from_pairs([("p0-type", "file"), ("version", "1")]);
    group.bench_function("put_64k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            s3.put_object("b", &format!("k{}", i % 1000), body.clone(), meta.clone())
                .unwrap();
        });
    });
    s3.put_object("b", "read-target", body.clone(), meta)
        .unwrap();
    world.settle();
    group.bench_function("get_64k", |b| {
        b.iter(|| s3.get_object("b", "read-target").unwrap());
    });
    group.bench_function("head", |b| {
        b.iter(|| s3.head_object("b", "read-target").unwrap());
    });
    group.finish();
}

fn bench_simpledb(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_simpledb");
    group.sample_size(30);
    let world = SimWorld::counting();
    let db = SimpleDb::new(&world);
    db.create_domain("d").unwrap();
    for i in 0..500 {
        db.put_attributes(
            "d",
            &format!("item{i:04}"),
            &[
                ReplaceableAttribute::add("type", if i % 3 == 0 { "process" } else { "file" }),
                ReplaceableAttribute::add("input", format!("src{:04}:1", i / 2)),
                ReplaceableAttribute::add("name", format!("n{i}")),
            ],
        )
        .unwrap();
    }
    world.settle();
    group.bench_function("put_attributes_3", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            // `replace` keeps the item at one pair; `add` would grow the
            // multi-valued set past the 256-pair limit mid-benchmark.
            db.put_attributes(
                "d",
                &format!("bench{}", i % 100),
                &[ReplaceableAttribute::replace("x", i.to_string())],
            )
            .unwrap();
        });
    });
    group.bench_function("query_equality_over_500", |b| {
        b.iter(|| {
            db.query("d", Some("['type' = 'process']"), Some(250), None)
                .unwrap()
        });
    });
    group.finish();
}

fn bench_sqs(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_sqs");
    group.sample_size(30);
    let world = SimWorld::counting();
    let sqs = Sqs::new(&world);
    let url = sqs.create_queue("bench");
    group.bench_function("send_1k", |b| {
        let body = "m".repeat(1024);
        b.iter(|| sqs.send_message(&url, body.clone()).unwrap());
    });
    group.bench_function("receive_10", |b| {
        b.iter(|| sqs.receive_message(&url, 10).unwrap());
    });
    group.finish();
}

fn bench_md5(c: &mut Criterion) {
    let mut group = c.benchmark_group("md5");
    for size in [4 * 1024u64, 1024 * 1024] {
        group.throughput(Throughput::Bytes(size));
        group.bench_function(format!("blob_{size}b"), |b| {
            let blob = Blob::synthetic(1, size);
            b.iter(|| blob.md5());
        });
    }
    group.bench_function("oneshot_4k_bytes", |b| {
        let data = vec![0xa5u8; 4096];
        b.iter_batched(|| data.clone(), |d| Md5::digest(&d), BatchSize::SmallInput);
    });
    // What a decoded `Record` frame hands S3 (the ETag) and the
    // consistency token: an inline blob of about 1 KiB.
    group.bench_function("inline_1k", |b| {
        let blob = Blob::from_bytes(vec![0x5au8; 1024]);
        b.iter(|| blob.md5());
    });
    // Every process flush hashes the empty blob.
    group.bench_function("empty", |b| {
        let blob = Blob::empty();
        b.iter(|| blob.md5());
    });
    group.finish();
}

criterion_group!(benches, bench_s3, bench_simpledb, bench_sqs, bench_md5);
criterion_main!(benches);
