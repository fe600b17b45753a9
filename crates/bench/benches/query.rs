//! Criterion bench: the Table 3 queries on three engines — S3 scan,
//! SimpleDB walk, and the materialized closure index — at corpus sizes
//! from 50 to 2000 chains. The wall-clock view of scan vs walk vs
//! index: the scan grows with the corpus; the walk issues one posted
//! query per frontier node, the index one per twenty seeds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prov_bench::querybench::query_corpus;
use provenance_cloud::{
    Arch2Config, ArchKind, ClosureMode, ProvQuery, ProvenanceStore, S3SimpleDb,
};
use simworld::SimWorld;

#[derive(Copy, Clone, PartialEq, Eq)]
enum Engine {
    S3Scan,
    SimpleDbWalk,
    SimpleDbIndex,
}

impl Engine {
    fn label(self) -> &'static str {
        match self {
            Engine::S3Scan => "s3-scan",
            Engine::SimpleDbWalk => "simpledb",
            Engine::SimpleDbIndex => "simpledb-index",
        }
    }
}

/// Builds a store with `chains` one-tool pipelines plus a single blast
/// pipeline (the fixed-size query target): `q.fa -> blastall ->
/// hits.out -> fmtblast -> report.txt`. Descendants of `blastall` are
/// always two items (the `fmtblast` process and `report.txt`) no matter
/// how large the churn corpus grows, so `q3_descendants` isolates
/// corpus-size scaling from answer-size scaling; `q3_descendants_bulk`
/// (target `churn`) covers the answer-grows-with-corpus regime.
fn prepared(engine: Engine, chains: u32) -> (SimWorld, Box<dyn ProvenanceStore>) {
    let world = SimWorld::counting();
    let mut store: Box<dyn ProvenanceStore> = match engine {
        Engine::S3Scan => ArchKind::S3.build(&world),
        Engine::SimpleDbWalk => ArchKind::S3SimpleDb.build(&world),
        Engine::SimpleDbIndex => {
            let mut store = S3SimpleDb::new(&world);
            store.set_config(Arch2Config {
                closure: ClosureMode::Serve,
                ..Arch2Config::default()
            });
            Box::new(store)
        }
    };
    for flush in &query_corpus(chains) {
        store.persist(flush).unwrap();
    }
    store.run_daemons_until_idle().unwrap();
    world.settle();
    (world, store)
}

fn bench_queries(c: &mut Criterion) {
    for chains in [50u32, 200, 500, 2000] {
        let mut group = c.benchmark_group(format!("query_corpus_{chains}_chains"));
        group.sample_size(10);
        for engine in [Engine::S3Scan, Engine::SimpleDbWalk, Engine::SimpleDbIndex] {
            // The S3 scan engine re-reads every object per query; past
            // 200 chains it only stretches the bench without adding a
            // data point the table needs.
            if engine == Engine::S3Scan && chains > 200 {
                continue;
            }
            let (_world, store) = prepared(engine, chains);
            group.bench_function(BenchmarkId::new("q3_descendants", engine.label()), |b| {
                b.iter(|| {
                    let answer = store
                        .query(&ProvQuery::DescendantsOf {
                            program: "blastall".into(),
                        })
                        .unwrap();
                    assert_eq!(answer.len(), 2);
                });
            });
            group.bench_function(
                BenchmarkId::new("q3_descendants_bulk", engine.label()),
                |b| {
                    b.iter(|| {
                        store
                            .query(&ProvQuery::DescendantsOf {
                                program: "churn".into(),
                            })
                            .unwrap()
                    });
                },
            );
            if chains > 200 {
                continue;
            }
            group.bench_function(BenchmarkId::new("q2_outputs", engine.label()), |b| {
                b.iter(|| {
                    let answer = store
                        .query(&ProvQuery::OutputsOf {
                            program: "blastall".into(),
                        })
                        .unwrap();
                    assert_eq!(answer.len(), 1);
                });
            });
            group.bench_function(BenchmarkId::new("q1_single", engine.label()), |b| {
                b.iter(|| {
                    let answer = store
                        .query(&ProvQuery::ProvenanceOf {
                            name: "hits.out".into(),
                            version: 1,
                        })
                        .unwrap();
                    assert_eq!(answer.len(), 1);
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
