//! Criterion bench: the multi-thread SimpleDB query and S3 LIST/GET
//! bursts at three shard counts — the wall-clock view of per-shard
//! locking. The query burst keeps its `query_select_burst_4thr` id,
//! though its mix has been `Query` forms only since `Select` went.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prov_bench::shardbench::{burst, prepare, prepare_s3, s3_burst};
use workloads::Combined;

fn bench_shard_scaling(c: &mut Criterion) {
    let dataset = Combined::small();
    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    for shards in [1usize, 4, 16] {
        let db = prepare(shards, &dataset).expect("persist corpus");
        group.bench_function(BenchmarkId::new("query_select_burst_4thr", shards), |b| {
            b.iter(|| {
                let (hits, _) = burst(&db, 4, 6);
                assert!(hits > 0);
            });
        });
    }
    group.finish();
}

fn bench_s3_shard_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("s3_shard_scaling");
    group.sample_size(10);
    for shards in [1usize, 4, 16] {
        let (_, s3) = prepare_s3(shards, 400).expect("fill bucket");
        group.bench_function(BenchmarkId::new("list_get_burst_4thr", shards), |b| {
            b.iter(|| {
                let (hits, _) = s3_burst(&s3, 400, 4, 6);
                assert!(hits > 0);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shard_scaling, bench_s3_shard_scaling);
criterion_main!(benches);
