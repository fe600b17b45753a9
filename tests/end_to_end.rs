//! Workspace-level end-to-end tests: the full pipeline from workload
//! generator through PASS to each cloud architecture, across crates.

use std::collections::BTreeSet;

use pass_cloud::cloud::{
    Arch2Config, ArchKind, ClosureMode, ProvQuery, ProvenanceStore, QueryAnswer, S3SimpleDb,
    Serveable,
};
use pass_cloud::pass::{FileFlush, ObjectKind, RecordKey};
use pass_cloud::simworld::{Consistency, LatencyModel, SimConfig, SimDuration, SimWorld};
use pass_cloud::workloads::Combined;

fn counting() -> SimWorld {
    SimWorld::counting()
}

/// Persists the small combined dataset into a fresh store of `kind`.
fn loaded(kind: ArchKind, world: &SimWorld) -> Box<dyn ProvenanceStore> {
    let mut store = kind.build(world);
    load(&mut *store, world);
    store
}

/// Persists the small combined dataset into `store` on `world`.
fn load(store: &mut dyn ProvenanceStore, world: &SimWorld) {
    let (flushes, _) = Combined::small().flushes();
    for flush in &flushes {
        store.persist(flush).expect("persist succeeds");
    }
    store.run_daemons_until_idle().expect("daemons drain");
    world.settle();
}

#[test]
fn combined_dataset_round_trips_on_every_architecture() {
    let (flushes, stats) = Combined::small().flushes();
    for kind in ArchKind::ALL {
        let world = counting();
        let mut store = kind.build(&world);
        for flush in &flushes {
            store.persist(flush).unwrap();
        }
        store.run_daemons_until_idle().unwrap();

        // Every file version is readable and consistent; content
        // matches what PASS flushed.
        let mut checked = 0;
        for flush in flushes
            .iter()
            .filter(|f| f.kind == ObjectKind::File)
            .take(25)
        {
            let read = store.read(&flush.object.name).unwrap();
            assert!(read.consistent(), "{kind:?}: {} inconsistent", flush.object);
            checked += 1;
        }
        assert_eq!(checked, 25);
        // Q1-over-everything sees every version.
        let all = store.query(&ProvQuery::ProvenanceOfAll).unwrap();
        assert_eq!(all.len() as u64, stats.total_versions(), "{kind:?}");
    }
}

/// Every program the small dataset runs: the `name` of each process.
fn programs(flushes: &[FileFlush]) -> BTreeSet<String> {
    let processes = flushes.iter().filter(|f| f.kind == ObjectKind::Process);
    let names = processes.flat_map(|f| f.records.iter().filter(|r| r.key == RecordKey::Name));
    names.map(|r| r.to_pair().1).collect()
}

/// Whole answers, records included, for Q1-all, one Q1, and Q2 and Q3
/// for every program: the S3 scan evaluated on a `ProvGraph`, both
/// SimpleDB architectures, and arch2 serving Q3 from the closure index
/// — plus that store's walk.
#[test]
fn architectures_agree_on_all_three_queries() {
    let (flushes, _) = Combined::small().flushes();
    let mut queries = vec![
        ProvQuery::ProvenanceOfAll,
        ProvQuery::ProvenanceOf {
            name: "linux/vmlinux".into(),
            version: 1,
        },
    ];
    for program in programs(&flushes) {
        queries.push(ProvQuery::OutputsOf {
            program: program.clone(),
        });
        queries.push(ProvQuery::DescendantsOf { program });
    }
    let answers = |query: &dyn Fn(&ProvQuery) -> QueryAnswer| -> Vec<QueryAnswer> {
        queries.iter().map(query).collect()
    };

    let mut legs = Vec::new();
    for kind in ArchKind::ALL {
        let world = counting();
        let store = loaded(kind, &world);
        legs.push((kind.label(), answers(&|q| store.query(q).unwrap())));
    }
    let world = counting();
    let mut indexed = S3SimpleDb::new(&world);
    indexed.set_config(Arch2Config {
        closure: ClosureMode::Serve,
        ..Arch2Config::default()
    });
    load(&mut indexed, &world);
    let walk = indexed.serve_parts().walking();
    legs.push(("closure", answers(&|q| indexed.query(q).unwrap())));
    legs.push(("closure walk", answers(&|q| walk.query(q).unwrap())));

    // The SimpleDB legs agree exactly. The scan agrees up to the order of
    // an item's records: S3 metadata keeps them in the order they were
    // written, SimpleDB stores an item's pairs sorted.
    let ((_, scan), (_, simpledb)) = (&legs[0], &legs[1]);
    for (leg, got) in &legs[1..] {
        for (i, query) in queries.iter().enumerate() {
            assert_eq!(got[i], simpledb[i], "{leg}: {query:?}");
            assert_eq!(sorted(&got[i]), sorted(&scan[i]), "{leg} vs S3: {query:?}");
        }
    }
    // And the answers are non-trivial.
    assert!(scan.iter().take(2).all(|answer| !answer.is_empty()));
    for kind in 0..2 {
        let hits = scan[2..].iter().skip(kind).step_by(2);
        assert!(hits.filter(|answer| !answer.is_empty()).count() > 1);
    }
    // Blast's outputs, and formatdb's multi-generation descendant walk —
    // the deepest Q3 in the set — in particular.
    for query in [
        ProvQuery::OutputsOf {
            program: "blastall".into(),
        },
        ProvQuery::DescendantsOf {
            program: "formatdb".into(),
        },
    ] {
        let at = queries.iter().position(|q| *q == query).expect("queried");
        assert!(!scan[at].is_empty(), "{query:?} answered nothing");
    }
}

/// `answer` with each item's records in `(key, value)` order.
fn sorted(answer: &QueryAnswer) -> QueryAnswer {
    let mut answer = answer.clone();
    for item in &mut answer.items {
        item.records.sort_by_key(|record| record.to_pair());
    }
    answer
}

#[test]
fn blast_outputs_match_the_generator() {
    let world = counting();
    let store = loaded(ArchKind::S3SimpleDb, &world);
    let q2 = store
        .query(&ProvQuery::OutputsOf {
            program: "blastall".into(),
        })
        .unwrap();
    // One .hits file per query; the small dataset runs 5 queries.
    assert!(q2.names().iter().all(|n| n.contains(".hits")));
    assert_eq!(q2.len(), 5);
    // Their descendants are the tophits processes and .top files.
    let q3 = store
        .query(&ProvQuery::DescendantsOf {
            program: "blastall".into(),
        })
        .unwrap();
    assert!(q3.names().iter().any(|n| n.contains(".top:")));
    assert_eq!(q3.len(), 10, "5 tophits processes + 5 .top files");
}

#[test]
fn full_pipeline_under_realistic_conditions() {
    // Default world: latency + jitter + 500 ms replica lag, three
    // replicas — the adversarial regime the protocols are built for.
    let world = SimWorld::with_config(SimConfig {
        seed: 20090223, // TaPP '09 workshop date
        consistency: Consistency::eventual(SimDuration::from_millis(500)),
        latency: LatencyModel::default(),
        replicas: 3,
    });
    let (flushes, _) = Combined::small().flushes();
    let mut store = ArchKind::S3SimpleDbSqs.build(&world);
    for flush in &flushes {
        store.persist(flush).unwrap();
    }
    store.run_daemons_until_idle().unwrap();
    world.settle();
    let read = store.read("linux/vmlinux").unwrap();
    assert!(read.consistent());
    let q2 = store
        .query(&ProvQuery::OutputsOf {
            program: "blastall".into(),
        })
        .unwrap();
    assert_eq!(q2.len(), 5);
}

#[test]
fn provenance_chain_depth_spans_the_fmri_workflow() {
    // The Provenance Challenge workflow is the deepest chain: jpg ←
    // convert ← pgm ← slicer ← atlas ← softmean ← resliced ← reslice ←
    // warp ← align_warp ← anatomy. Walk it end to end through the store.
    let world = counting();
    let store = loaded(ArchKind::S3SimpleDb, &world);
    let jpg = "fmri/s000/atlas-x.jpg";
    let mut depth = 0;
    let mut current = vec![pass_cloud::pass::ObjectRef::new(jpg, 1)];
    let mut seen = std::collections::BTreeSet::new();
    while !current.is_empty() && depth < 32 {
        let mut next = Vec::new();
        for obj in current {
            if !seen.insert(obj.clone()) {
                continue;
            }
            let answer = store
                .query(&ProvQuery::ProvenanceOf {
                    name: obj.name.clone(),
                    version: obj.version,
                })
                .unwrap();
            for item in &answer.items {
                next.extend(item.records.iter().filter_map(|r| r.reference()).cloned());
            }
        }
        if next.is_empty() {
            break;
        }
        depth += 1;
        current = next;
    }
    assert!(depth >= 10, "fMRI ancestry depth was only {depth}");
    assert!(seen.iter().any(|o| o.name.contains("anatomy1.img")));
}

/// arch3's daemon copies each transaction's `tmp/` object into place
/// under the default `RetryPolicy`. With the temporary gone and the
/// destination never written, every copy misses, and the daemon gives
/// up with the structured exhaustion error after `max_retries + 1`
/// attempts, which the wire reports as `FaultCode::RetryExhausted`.
#[test]
fn a_lost_temporary_surfaces_as_structured_retry_exhaustion() {
    use pass_cloud::cloud::layout::{BUCKET, TMP_PREFIX};
    use pass_cloud::cloud::{CloudError, S3SimpleDbSqs};
    use pass_cloud::frontend::{FaultCode, WireFault};

    let world = counting();
    let mut store = S3SimpleDbSqs::new(&world, "c");
    let flush = FileFlush::builder("f").data("x".into()).build();
    store.persist(&flush).unwrap();
    let temps = store.s3().latest_keys(BUCKET, TMP_PREFIX);
    assert_eq!(temps.len(), 1, "one flush stages one temporary");
    store.s3().delete_object(BUCKET, &temps[0]).unwrap();

    let err = store.run_daemons_until_idle().unwrap_err();
    match &err {
        CloudError::RetryExhausted { attempts, last } => {
            assert_eq!(*attempts, 51, "the default policy's 50 retries + 1");
            assert!(last.is_not_found(), "the last error is the miss: {last}");
        }
        other => panic!("expected structured exhaustion, got {other}"),
    }
    assert_eq!(WireFault::from(&err).code, FaultCode::RetryExhausted);
}
