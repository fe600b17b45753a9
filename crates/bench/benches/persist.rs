//! Criterion bench: persist throughput of the three architectures.
//!
//! Wall-clock complement to Table 2's op counts: how much *work* each
//! protocol performs per flushed object (simulated services, zero
//! simulated latency — this measures the implementation, not the WAN).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use pass::FileFlush;
use provenance_cloud::{chunk_pairs, ArchKind, WalRecord};
use simworld::{Blob, SimWorld};
use std::hint::black_box;

fn flush_batch(n: usize) -> Vec<FileFlush> {
    (0..n)
        .map(|i| {
            FileFlush::builder(format!("bench/f{i:04}"))
                .data(Blob::synthetic(i as u64, 16 * 1024))
                .record("input", &format!("bench/src{i:04}:1"))
                .record("env", &"e".repeat(1500)) // forces one overflow
                .build()
        })
        .collect()
}

fn bench_persist(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist_50_flushes");
    group.sample_size(20);
    for kind in ArchKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, kind| {
                let flushes = flush_batch(50);
                b.iter_batched(
                    || {
                        let world = SimWorld::counting();
                        let store = kind.build(&world);
                        (world, store)
                    },
                    |(_world, mut store)| {
                        for flush in &flushes {
                            store.persist(flush).unwrap();
                        }
                        store.run_daemons_until_idle().unwrap();
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_one_object");
    group.sample_size(30);
    for kind in ArchKind::ALL {
        // Prepare once; reads are non-destructive.
        let world = SimWorld::counting();
        let mut store = kind.build(&world);
        for flush in flush_batch(50) {
            store.persist(&flush).unwrap();
        }
        store.run_daemons_until_idle().unwrap();
        world.settle();
        group.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
            b.iter(|| {
                let read = store.read("bench/f0025").unwrap();
                assert!(read.consistent());
            });
        });
    }
    group.finish();
}

/// The WAL codec alone — what arch3's log and drain phases spend outside
/// the services: 6 pairs is the benchmark's `ingest_wal` item (one SQS
/// message), 200 pairs a fan-in item the chunker has to split.
fn bench_wal_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_codec");
    for n in [6usize, 200] {
        let pairs: Vec<(String, String)> = (0..n)
            .map(|i| {
                (
                    format!("input{}", i % 7),
                    format!("bench/src{i:04}/stage.dat:{i}"),
                )
            })
            .collect();
        let item = "bench/f0001.dat 1";
        let record = chunk_pairs(7, item, pairs.clone()).swap_remove(0);
        let encoded = record.encode();
        group.bench_function(BenchmarkId::new("encode", n), |b| {
            b.iter(|| black_box(&record).encode());
        });
        group.bench_function(BenchmarkId::new("decode", n), |b| {
            b.iter(|| WalRecord::decode(black_box(&encoded)));
        });
        group.bench_function(BenchmarkId::new("chunk_pairs", n), |b| {
            let chunk = |pairs| chunk_pairs(7, item, black_box(pairs));
            b.iter_batched(|| pairs.clone(), chunk, BatchSize::SmallInput);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_persist, bench_read, bench_wal_codec);
criterion_main!(benches);
