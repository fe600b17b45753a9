//! Cross-module tests: end-to-end persist/read/query per architecture,
//! crash injection, recovery, and the measured Table 1 matrix.

use pass::{FileFlush, Observer, TraceEvent};
use simworld::{Blob, Consistency, LatencyModel, SimConfig, SimDuration, SimWorld};

use crate::layout::{data_key, BUCKET, DOMAIN, TMP_PREFIX};
use crate::properties::{
    check_atomicity, check_causal_ordering, check_consistency, check_efficient_query, ArchKind,
};
use crate::{
    Arch2Config, Arch3Config, ProvQuery, ProvenanceStore, ReadStatus, RetryPolicy, S3SimpleDb,
    S3SimpleDbSqs, StandaloneS3, A2_BEFORE_DATA_PUT, A3_BEFORE_COMMIT, D3_BEFORE_MSG_DELETE,
};

fn counting() -> SimWorld {
    SimWorld::counting()
}

fn eventual(seed: u64, lag_secs: u64) -> SimWorld {
    SimWorld::with_config(SimConfig {
        seed,
        consistency: Consistency::eventual(SimDuration::from_secs(lag_secs)),
        latency: LatencyModel::zero(),
        replicas: 3,
    })
}

/// A small pipeline: in.dat -> tool -> mid.dat -> refine -> out.dat.
fn pipeline_flushes() -> Vec<FileFlush> {
    let mut obs = Observer::new();
    let mut flushes = Vec::new();
    for ev in [
        TraceEvent::source("in.dat", Blob::synthetic(1, 2048)),
        TraceEvent::exec(1, "tool", "tool in.dat", "PATH=/bin", None),
        TraceEvent::read(1, "in.dat"),
        TraceEvent::write(1, "mid.dat"),
        TraceEvent::close(1, "mid.dat", Blob::synthetic(2, 1024)),
        TraceEvent::exit(1),
        TraceEvent::exec(2, "refine", "refine", "PATH=/bin", None),
        TraceEvent::read(2, "mid.dat"),
        TraceEvent::write(2, "out.dat"),
        TraceEvent::close(2, "out.dat", Blob::synthetic(3, 512)),
        TraceEvent::exit(2),
    ] {
        flushes.extend(obs.observe(ev).unwrap());
    }
    flushes
}

fn persist_all(store: &mut dyn ProvenanceStore, flushes: &[FileFlush]) {
    for f in flushes {
        store.persist(f).unwrap();
    }
    store.run_daemons_until_idle().unwrap();
}

// --- end-to-end, each architecture ---

fn end_to_end(store: &mut dyn ProvenanceStore, world: &SimWorld) {
    persist_all(store, &pipeline_flushes());
    world.settle();

    // Read correctness surface.
    let read = store.read("mid.dat").unwrap();
    assert!(read.consistent(), "read must be consistent after settling");
    assert_eq!(read.data.to_bytes(), Blob::synthetic(2, 1024).to_bytes());
    assert!(
        read.records.iter().any(|r| r.reference().is_some()),
        "provenance must reference the producing process"
    );

    // Q2: outputs of `tool`.
    let outputs = store
        .query(&ProvQuery::OutputsOf {
            program: "tool".into(),
        })
        .unwrap();
    assert_eq!(outputs.names(), vec!["mid.dat:1"]);

    // Q3: descendants of files derived from `tool`.
    let desc = store
        .query(&ProvQuery::DescendantsOf {
            program: "tool".into(),
        })
        .unwrap();
    assert!(desc.names().contains(&"out.dat:1".to_string()));
    assert!(desc.names().iter().any(|n| n.starts_with("proc:2:refine")));

    // Q1 single object.
    let q1 = store
        .query(&ProvQuery::ProvenanceOf {
            name: "out.dat".into(),
            version: 1,
        })
        .unwrap();
    assert_eq!(q1.len(), 1);

    // Q1 over everything: all five object versions.
    let all = store.query(&ProvQuery::ProvenanceOfAll).unwrap();
    assert_eq!(all.len(), 5, "three files + two processes");

    // Missing object.
    assert!(store.read("ghost.dat").unwrap_err().is_not_found());
}

#[test]
fn arch1_end_to_end() {
    let world = counting();
    let mut store = StandaloneS3::new(&world);
    end_to_end(&mut store, &world);
}

#[test]
fn arch2_end_to_end() {
    let world = counting();
    let mut store = S3SimpleDb::new(&world);
    end_to_end(&mut store, &world);
}

#[test]
fn arch3_end_to_end() {
    let world = counting();
    let mut store = S3SimpleDbSqs::new(&world, "c1");
    end_to_end(&mut store, &world);
}

#[test]
fn all_architectures_agree_on_query_answers() {
    let flushes = pipeline_flushes();
    let mut answers = Vec::new();
    for kind in ArchKind::ALL {
        let world = counting();
        let mut store = kind.build(&world);
        persist_all(store.as_mut(), &flushes);
        world.settle();
        let q2 = store
            .query(&ProvQuery::OutputsOf {
                program: "tool".into(),
            })
            .unwrap();
        let q3 = store
            .query(&ProvQuery::DescendantsOf {
                program: "tool".into(),
            })
            .unwrap();
        answers.push((q2.names(), q3.names()));
    }
    assert_eq!(answers[0], answers[1], "S3 scan and SimpleDB agree");
    assert_eq!(answers[1], answers[2], "arch2 and arch3 agree");
}

#[test]
fn end_to_end_under_eventual_consistency_with_realistic_latency() {
    // Full default config: latency, jitter, 500ms replica lag.
    let world = SimWorld::new(77);
    let mut store = S3SimpleDbSqs::new(&world, "c1");
    persist_all(&mut store, &pipeline_flushes());
    world.settle();
    let read = store.read("out.dat").unwrap();
    assert!(read.consistent());
    assert!(
        world.now().as_micros() > 0,
        "latency model advanced the clock"
    );
}

// --- versioning across architectures ---

#[test]
fn version_overwrite_keeps_simpledb_history_but_not_s3_metadata() {
    let world = counting();
    let mut store = S3SimpleDb::new(&world);
    let v1 = FileFlush::builder("f")
        .version(1)
        .data(Blob::from("one"))
        .build();
    let v2 = FileFlush::builder("f")
        .version(2)
        .data(Blob::from("two"))
        .record("input", "f:1")
        .build();
    store.persist(&v1).unwrap();
    store.persist(&v2).unwrap();
    world.settle();

    // Current read returns version 2.
    let read = store.read("f").unwrap();
    assert_eq!(read.object.version, 2);

    // SimpleDB retains the provenance of *both* versions (per-version
    // items) — the history Architecture 1 loses.
    let q1v1 = store
        .query(&ProvQuery::ProvenanceOf {
            name: "f".into(),
            version: 1,
        })
        .unwrap();
    assert_eq!(q1v1.len(), 1);
    let q1v2 = store
        .query(&ProvQuery::ProvenanceOf {
            name: "f".into(),
            version: 2,
        })
        .unwrap();
    assert_eq!(q1v2.len(), 1);
}

#[test]
fn arch1_overwrite_loses_old_version_provenance() {
    let world = counting();
    let mut store = StandaloneS3::new(&world);
    let v1 = FileFlush::builder("f")
        .version(1)
        .data(Blob::from("one"))
        .build();
    let v2 = FileFlush::builder("f")
        .version(2)
        .data(Blob::from("two"))
        .build();
    store.persist(&v1).unwrap();
    store.persist(&v2).unwrap();
    let q1v1 = store
        .query(&ProvQuery::ProvenanceOf {
            name: "f".into(),
            version: 1,
        })
        .unwrap();
    assert!(
        q1v1.is_empty(),
        "metadata was overwritten with version 2's provenance"
    );
}

// --- crash injection and recovery ---

#[test]
fn arch2_crash_between_prov_and_data_leaves_orphan_and_scan_recovers() {
    let world = counting();
    let mut store = S3SimpleDb::new(&world);
    world.with_faults(|f| f.arm(A2_BEFORE_DATA_PUT));
    let flush = FileFlush::builder("doomed").data(Blob::from("x")).build();
    let err = store.persist(&flush).unwrap_err();
    assert!(err.is_crash());

    // Orphan provenance exists (the §4.2 atomicity violation)...
    let items = store.simpledb().latest_item_names(DOMAIN);
    assert_eq!(items, vec!["doomed 1"]);
    assert!(store
        .s3()
        .latest_object(BUCKET, &data_key("doomed"))
        .is_none());

    // ...and the inelegant scan cleans it up.
    let report = store.recover().unwrap();
    assert_eq!(report.orphan_provenance_removed, 1);
    assert!(report.items_scanned >= 1);
    assert!(store.simpledb().latest_item_names(DOMAIN).is_empty());
}

#[test]
fn arch2_recovery_does_not_remove_healthy_or_historical_items() {
    let world = counting();
    let mut store = S3SimpleDb::new(&world);
    let v1 = FileFlush::builder("f")
        .version(1)
        .data(Blob::from("one"))
        .build();
    let v2 = FileFlush::builder("f")
        .version(2)
        .data(Blob::from("two"))
        .build();
    store.persist(&v1).unwrap();
    store.persist(&v2).unwrap();
    let report = store.recover().unwrap();
    assert_eq!(report.orphan_provenance_removed, 0);
    assert_eq!(store.simpledb().latest_item_names(DOMAIN).len(), 2);
}

#[test]
fn arch3_uncommitted_transaction_is_ignored_forever() {
    let world = counting();
    let mut store = S3SimpleDbSqs::new(&world, "c1");
    world.with_faults(|f| f.arm(A3_BEFORE_COMMIT));
    let flush = FileFlush::builder("doomed").data(Blob::from("x")).build();
    assert!(store.persist(&flush).unwrap_err().is_crash());

    store.run_daemons_until_idle().unwrap();
    // Neither data nor provenance reached the permanent stores.
    assert!(store
        .s3()
        .latest_object(BUCKET, &data_key("doomed"))
        .is_none());
    assert!(store.simpledb().latest_item_names(DOMAIN).is_empty());

    // The staged temp object lingers until the retention window passes,
    // then the cleaner removes it.
    assert!(!store.s3().latest_keys(BUCKET, TMP_PREFIX).is_empty());
    world.advance(sim_sqs::RETENTION + SimDuration::from_hours(1));
    let removed = store.run_cleaner().unwrap();
    assert!(removed >= 1);
    assert!(store.s3().latest_keys(BUCKET, TMP_PREFIX).is_empty());
}

#[test]
fn arch3_daemon_crash_replays_idempotently() {
    let world = counting();
    let mut store = S3SimpleDbSqs::new(&world, "c1");
    persist_all_no_daemon(&mut store, &pipeline_flushes());

    // Crash the daemon after applying but before deleting the log.
    world.with_faults(|f| f.arm(D3_BEFORE_MSG_DELETE));
    let err = store.run_daemons_until_idle().unwrap_err();
    assert!(err.is_crash());

    // Restarted daemon replays from the still-present log records.
    store.run_daemons_until_idle().unwrap();
    world.settle();
    let read = store.read("out.dat").unwrap();
    assert!(read.consistent());
    // Replay must not duplicate provenance (SimpleDB set semantics).
    let q1 = store
        .query(&ProvQuery::ProvenanceOf {
            name: "out.dat".into(),
            version: 1,
        })
        .unwrap();
    let record_count = q1.items[0].records.len();
    let unique: std::collections::BTreeSet<_> =
        q1.items[0].records.iter().map(|r| r.to_pair()).collect();
    assert_eq!(record_count, unique.len());
}

fn persist_all_no_daemon(store: &mut S3SimpleDbSqs, flushes: &[FileFlush]) {
    for f in flushes {
        store.persist(f).unwrap();
    }
}

#[test]
fn arch3_wal_drains_to_empty_after_commit() {
    let world = counting();
    let mut store = S3SimpleDbSqs::new(&world, "c1");
    persist_all_no_daemon(&mut store, &pipeline_flushes());
    assert!(store.wal_depth_exact() > 0, "log records queued");
    store.run_daemons_until_idle().unwrap();
    assert_eq!(
        store.wal_depth_exact(),
        0,
        "all records deleted after apply"
    );
    // Temp objects are also gone (deleted at end of apply).
    assert!(store.s3().latest_keys(BUCKET, TMP_PREFIX).is_empty());
}

#[test]
fn arch3_poll_daemon_respects_commit_threshold() {
    let world = counting();
    let mut store = S3SimpleDbSqs::new(&world, "c1");
    let config = Arch3Config {
        commit_threshold: 1000,
        ..Arch3Config::default()
    };
    store.set_config(config);
    let flush = FileFlush::builder("f").data(Blob::from("x")).build();
    store.persist(&flush).unwrap();
    // Below the threshold: the poll does nothing.
    let progress = store.poll_daemon().unwrap();
    assert_eq!(progress.received, 0);
    assert!(store.wal_depth_exact() > 0);

    let config = Arch3Config {
        commit_threshold: 0,
        ..Arch3Config::default()
    };
    store.set_config(config);
    // Above the threshold: polls start draining (may need several due to
    // SQS sampling).
    let mut received = 0;
    for _ in 0..200 {
        received += store.poll_daemon().unwrap().received;
        if store.wal_depth_exact() == 0 {
            break;
        }
    }
    assert!(received > 0);
    assert_eq!(store.wal_depth_exact(), 0);
}

// --- consistency detection ---

#[test]
fn md5_detects_stale_provenance_and_retry_converges() {
    let world = eventual(9, 2);
    let mut store = S3SimpleDb::new(&world);
    let config = Arch2Config {
        retry: RetryPolicy::flat(100, SimDuration::from_millis(100)),
        ..Arch2Config::default()
    };
    store.set_config(config);

    let flush = FileFlush::builder("f")
        .data(Blob::synthetic(5, 4096))
        .build();
    store.persist(&flush).unwrap();
    // Immediately read: replicas may be stale, but the read loop must
    // converge to a verified-consistent answer within the retry budget.
    let read = store.read("f").unwrap();
    assert!(matches!(read.status, ReadStatus::VerifiedConsistent { .. }));
}

#[test]
fn key_miss_and_stale_md5_share_one_retry_counter() {
    // Seed 43, read straight after the persist: the first GET samples a
    // replica the data key has not reached, the second finds it but
    // SimpleDB answers from a replica without the item (no MD5 to match),
    // the third round agrees. Both kinds of retry pace off one counter,
    // so the pauses are backoff 1 then backoff 2 — not 1 and 1.
    use simworld::Op;
    let world = eventual(43, 30);
    let mut store = S3SimpleDb::new(&world);
    let flush = FileFlush::builder("f").data(Blob::from("data")).build();
    store.persist(&flush).unwrap();

    let t0 = world.now();
    world.enable_latency_samples();
    let read = store.read("f").unwrap();
    let requests: Vec<(u64, Op)> = world
        .take_latency_samples()
        .into_iter()
        .map(|s| ((s.completed_at - t0).as_micros(), s.op))
        .collect();

    assert_eq!(read.status, ReadStatus::VerifiedConsistent { retries: 2 });
    assert_eq!(
        requests,
        [
            (0, Op::S3Get), // NoSuchKey
            (1_000, Op::S3Get),
            (1_000, Op::SdbGetAttributes), // stale: no MD5 yet
            (3_000, Op::S3Get),
            (3_000, Op::SdbGetAttributes),
        ]
    );
    let policy = RetryPolicy::default();
    assert_eq!(
        world.now() - t0,
        policy.backoff_for(1) + policy.backoff_for(2)
    );
}

#[test]
fn nonce_distinguishes_same_content_overwrites() {
    // §4.2: "The MD5sum of the data itself (without the nonce) is
    // sufficient ... except when a file is overwritten with the same
    // data."
    fn md5_of(store: &S3SimpleDb, item: &str) -> String {
        store
            .simpledb()
            .latest_item(DOMAIN, item)
            .unwrap()
            .get("md5")[0]
            .value
            .to_string()
    }
    let v1 = FileFlush::builder("f")
        .version(1)
        .data(Blob::from("same"))
        .build();
    let v2 = FileFlush::builder("f")
        .version(2)
        .data(Blob::from("same"))
        .build();

    let world = counting();
    let mut store = S3SimpleDb::new(&world);
    store.persist(&v1).unwrap();
    store.persist(&v2).unwrap();
    assert_ne!(
        md5_of(&store, "f 1"),
        md5_of(&store, "f 2"),
        "same content, different nonce → different token"
    );

    // Ablation: without the nonce the tokens collide.
    let world = counting();
    let mut store = S3SimpleDb::new(&world);
    let config = Arch2Config {
        use_nonce: false,
        ..Arch2Config::default()
    };
    store.set_config(config);
    store.persist(&v1).unwrap();
    store.persist(&v2).unwrap();
    assert_eq!(
        md5_of(&store, "f 1"),
        md5_of(&store, "f 2"),
        "without the nonce the overwrite is undetectable"
    );
}

#[test]
fn overflow_chunks_ride_out_replication_lag() {
    // Regression: a freshly written overflow chunk that has not reached
    // the sampled replica yet used to turn the whole read into a hard
    // error. With a long visibility window the stale sample is near
    // certain; the read loop must instead retry the chunk like it
    // retries the main object.
    let world = eventual(17, 60);
    let mut store = S3SimpleDb::new(&world);
    let big_env = format!("HUGE={}", "x".repeat(5000));
    for i in 0..12 {
        let name = format!("proc:{i}:tool");
        let flush = FileFlush::builder(&name)
            .process()
            .record("name", "tool")
            .record("env", &big_env)
            .build();
        store.persist(&flush).unwrap();
        // Read immediately, mid-propagation: must converge, not error.
        let read = store.read(&name).unwrap();
        assert!(read.consistent(), "read {i} must converge");
        let env = read
            .records
            .iter()
            .find(|r| r.key.attr_name() == "env")
            .expect("env record present");
        assert_eq!(env.value.render(), big_env);
    }
}

#[test]
fn permanently_missing_key_costs_bounded_sublinear_virtual_time() {
    // A missing object exhausts the retry budget; exponential pacing
    // keeps the total within the old flat 5 s envelope...
    let world = eventual(23, 1);
    let store = S3SimpleDb::new(&world);
    let t0 = world.now();
    assert!(store.read("ghost.dat").unwrap_err().is_not_found());
    let elapsed = world.now() - t0;
    assert!(
        elapsed <= SimDuration::from_secs(5),
        "50 exhausted retries must stay within the flat-rate bound, took {elapsed}"
    );
    // ...and a shallow budget no longer charges retries × flat-rate:
    // 10 retries used to cost exactly 1 s, now 427 ms.
    let world = eventual(29, 1);
    let mut store = S3SimpleDb::new(&world);
    let mut config = Arch2Config::default();
    config.retry.max_retries = 10;
    store.set_config(config);
    let t0 = world.now();
    assert!(store.read("ghost.dat").is_err());
    let elapsed = world.now() - t0;
    assert!(
        elapsed < SimDuration::from_millis(10 * 100),
        "10 retries must cost less than 10 flat pauses, took {elapsed}"
    );
}

// --- overflow handling end to end ---

#[test]
fn oversized_records_survive_the_round_trip_in_every_architecture() {
    let big_env = format!("HUGE={}", "x".repeat(5000));
    for kind in ArchKind::ALL {
        let world = counting();
        let mut store = kind.build(&world);
        let flush = FileFlush::builder("proc:1:tool")
            .process()
            .record("name", "tool")
            .record("env", &big_env)
            .build();
        store.persist(&flush).unwrap();
        store.run_daemons_until_idle().unwrap();
        world.settle();
        let q1 = store
            .query(&ProvQuery::ProvenanceOf {
                name: "proc:1:tool".into(),
                version: 1,
            })
            .unwrap();
        assert_eq!(q1.len(), 1, "{kind:?}");
        let env = q1.items[0]
            .records
            .iter()
            .find(|r| r.key.attr_name() == "env")
            .unwrap_or_else(|| panic!("{kind:?}: env record missing"));
        assert_eq!(
            env.value.render(),
            big_env,
            "{kind:?}: overflow value corrupted"
        );
    }
}

// --- the Table 1 matrix, measured ---

#[test]
fn table1_atomicity_s3_holds() {
    assert!(check_atomicity(ArchKind::S3, 1).unwrap().holds());
}

#[test]
fn table1_atomicity_s3_simpledb_violated() {
    let report = check_atomicity(ArchKind::S3SimpleDb, 1).unwrap();
    assert!(!report.holds(), "Table 1 marks S3+SimpleDB atomicity ✗");
    // And the violating site is the documented one.
    assert!(report
        .sites
        .iter()
        .any(|(site, violated)| site.contains("before_data_put") && *violated));
}

#[test]
fn table1_atomicity_s3_simpledb_sqs_holds() {
    let report = check_atomicity(ArchKind::S3SimpleDbSqs, 1).unwrap();
    assert!(report.holds(), "violations: {:?}", report.sites);
    assert!(
        report.sites.len() >= 8,
        "client + daemon sites all exercised"
    );
}

#[test]
fn table1_consistency_holds_everywhere() {
    for kind in ArchKind::ALL {
        assert!(check_consistency(kind, 3).unwrap(), "{kind:?}");
    }
}

#[test]
fn table1_causal_ordering_holds_everywhere() {
    for kind in ArchKind::ALL {
        assert!(check_causal_ordering(kind, 5).unwrap(), "{kind:?}");
    }
}

#[test]
fn table1_efficient_query_only_with_simpledb() {
    assert!(!check_efficient_query(ArchKind::S3, 7).unwrap(), "S3 scans");
    assert!(check_efficient_query(ArchKind::S3SimpleDb, 7).unwrap());
    assert!(check_efficient_query(ArchKind::S3SimpleDbSqs, 7).unwrap());
}

#[test]
fn arch1_recover_cleans_orphaned_overflow_objects() {
    let world = counting();
    let mut store = StandaloneS3::new(&world);
    // Crash after the overflow PUT but before the main data PUT: the
    // overflow object for version 1 is stranded.
    world.with_faults(|f| f.arm_after(crate::A1_BEFORE_DATA_PUT, 0));
    let big = FileFlush::builder("f")
        .data(Blob::from("content"))
        .record("env", &"e".repeat(2000))
        .build();
    assert!(store.persist(&big).unwrap_err().is_crash());
    let orphans = store.s3().latest_keys(BUCKET, crate::layout::PROV_PREFIX);
    assert!(!orphans.is_empty(), "overflow object stranded by the crash");

    // Read correctness is intact (no data object at all), and recovery
    // reclaims the residue.
    assert!(store.read("f").is_err());
    let report = store.recover().unwrap();
    assert_eq!(report.objects_removed as usize, orphans.len());
    assert!(store
        .s3()
        .latest_keys(BUCKET, crate::layout::PROV_PREFIX)
        .is_empty());

    // A successful persist leaves its overflow objects alone.
    store.persist(&big).unwrap();
    let live = store.s3().latest_keys(BUCKET, crate::layout::PROV_PREFIX);
    assert!(!live.is_empty());
    let report = store.recover().unwrap();
    assert_eq!(report.objects_removed, 0);
    assert_eq!(
        store.s3().latest_keys(BUCKET, crate::layout::PROV_PREFIX),
        live
    );
}

/// Recovery's deletes are writes, so the S3 throttle admits them; a 503
/// must cost a backoff, not abort the scan. The counting world's clock
/// stands still between deletes, so with a burst of 1 the second residue
/// object on any shard is rejected — and 20 objects over 16 shards put
/// at least two on one.
#[test]
fn arch1_recover_rides_out_throttled_deletes() {
    let world = counting();
    let mut store = StandaloneS3::new(&world);
    world.with_faults(|f| f.arm_after(crate::A1_BEFORE_DATA_PUT, 0));
    let mut builder = FileFlush::builder("f").data(Blob::from("content"));
    for i in 0..20 {
        builder = builder.record(&format!("note{i}"), &"n".repeat(1100));
    }
    assert!(store.persist(&builder.build()).unwrap_err().is_crash());
    let residue = store.s3().latest_keys(BUCKET, crate::layout::PROV_PREFIX);
    assert_eq!(residue.len(), 20, "one overflow object per record");

    let throttle = simworld::ThrottleConfig::per_shard(100.0).with_burst(1.0);
    store.s3().set_throttle(Some(throttle));
    let report = store.recover().unwrap();
    assert_eq!(report.objects_removed, 20);
    assert!(world.throttle_retries() > 0, "the throttle must bite");
    assert!(store
        .s3()
        .latest_keys(BUCKET, crate::layout::PROV_PREFIX)
        .is_empty());
}

#[test]
fn arch3_cleaner_spares_fresh_temp_objects() {
    let world = counting();
    let mut store = S3SimpleDbSqs::new(&world, "c1");
    world.with_faults(|f| f.arm(A3_BEFORE_COMMIT));
    let flush = FileFlush::builder("f").data(Blob::from("x")).build();
    assert!(store.persist(&flush).unwrap_err().is_crash());
    // Residue exists but is younger than the retention window.
    assert!(!store.s3().latest_keys(BUCKET, TMP_PREFIX).is_empty());
    assert_eq!(
        store.run_cleaner().unwrap(),
        0,
        "fresh temps are not reclaimed"
    );
    world.advance(sim_sqs::RETENTION + SimDuration::from_secs(1));
    assert!(store.run_cleaner().unwrap() > 0);
}

// --- batched persist path ---

mod throttled_writes {
    use super::*;

    fn throttle_all(store: &S3SimpleDbSqs, cfg: simworld::ThrottleConfig) {
        store.s3().set_throttle(Some(cfg));
        store.simpledb().set_throttle(Some(cfg));
        store.sqs().set_throttle(Some(cfg));
    }

    #[test]
    fn throttling_costs_time_never_state() {
        // Tentpole invariant: a throttled run retries its way to the
        // exact same final store as an unthrottled run — 503s cost
        // virtual time, never state.
        let flushes = pipeline_flushes();
        let run = |throttle: bool| {
            let world = counting();
            let mut store = S3SimpleDbSqs::new(&world, "c");
            if throttle {
                throttle_all(
                    &store,
                    simworld::ThrottleConfig::per_shard(100.0).with_burst(1.0),
                );
            }
            for flush in &flushes {
                store.persist(flush).unwrap();
            }
            let persist_done = world.now();
            store.run_daemons_until_idle().unwrap();
            (world, store, persist_done)
        };
        let (plain_world, plain, plain_elapsed) = run(false);
        let (slow_world, slow, slow_elapsed) = run(true);

        assert_eq!(plain_world.throttle_retries(), 0);
        assert!(
            slow_world.meters().total_throttled() > 0,
            "the throttle must actually bite"
        );
        assert!(slow_world.throttle_retries() > 0, "503s must be retried");
        assert!(
            slow_elapsed > plain_elapsed,
            "backoff must cost virtual time: slow={slow_elapsed:?} plain={plain_elapsed:?}"
        );

        for name in ["in.dat", "mid.dat", "out.dat"] {
            let p = plain.read(name).unwrap();
            let s = slow.read(name).unwrap();
            assert!(s.consistent(), "{name}");
            assert_eq!(p.data.md5(), s.data.md5(), "{name}");
            let mut pr: Vec<_> = p.records.iter().map(|r| r.to_pair()).collect();
            let mut sr: Vec<_> = s.records.iter().map(|r| r.to_pair()).collect();
            pr.sort();
            sr.sort();
            assert_eq!(pr, sr, "{name}");
        }
        let pg = plain.query(&ProvQuery::ProvenanceOfAll).unwrap();
        let sg = slow.query(&ProvQuery::ProvenanceOfAll).unwrap();
        assert!(
            crate::ProvGraph::from_answer(&pg)
                .diff(&crate::ProvGraph::from_answer(&sg))
                .is_empty(),
            "throttling changed the provenance graph"
        );
    }

    #[test]
    fn retry_none_surfaces_structured_exhaustion_under_throttle() {
        // A RetryPolicy::none() client hitting a 503 must fail loudly
        // with the structured give-up, not a bare service error.
        let world = counting();
        let mut store = S3SimpleDbSqs::new(&world, "c");
        let config = Arch3Config {
            retry: RetryPolicy::none(),
            ..Arch3Config::default()
        };
        store.set_config(config);
        store.sqs().set_throttle(Some(
            simworld::ThrottleConfig::per_shard(100.0).with_burst(1.0),
        ));
        let err = store.persist(&pipeline_flushes()[0]).unwrap_err();
        match err {
            crate::CloudError::RetryExhausted { attempts, ref last } => {
                assert_eq!(attempts, 1, "none() makes exactly one attempt");
                assert!(last.is_throttle(), "the last error is the 503: {last}");
            }
            ref other => panic!("expected structured exhaustion, got {other}"),
        }
        assert!(err.to_string().contains("gave up after 1 attempts"));
    }
}

mod batched_persist {
    use super::*;
    use simworld::{Op, Service};

    /// Persists the pipeline twice — point ops vs one `persist_batch`
    /// group — and returns the two worlds for comparison.
    fn both_paths(
        kind: ArchKind,
    ) -> (
        SimWorld,
        Box<dyn ProvenanceStore>,
        SimWorld,
        Box<dyn ProvenanceStore>,
    ) {
        let flushes = pipeline_flushes();
        let point_world = counting();
        let mut point = kind.build(&point_world);
        persist_all(point.as_mut(), &flushes);
        let batch_world = counting();
        let mut batch = kind.build(&batch_world);
        batch.persist_batch(&flushes).unwrap();
        batch.run_daemons_until_idle().unwrap();
        (point_world, point, batch_world, batch)
    }

    #[test]
    fn batch_equals_point_for_every_architecture() {
        for kind in ArchKind::ALL {
            let (_, point, _, batch) = both_paths(kind);
            // Same data, same provenance, same graph.
            for name in ["in.dat", "mid.dat", "out.dat"] {
                let p = point.read(name).unwrap();
                let b = batch.read(name).unwrap();
                assert!(b.consistent(), "{kind:?}/{name}");
                assert_eq!(p.data.md5(), b.data.md5(), "{kind:?}/{name}");
                let mut pr: Vec<_> = p.records.iter().map(|r| r.to_pair()).collect();
                let mut br: Vec<_> = b.records.iter().map(|r| r.to_pair()).collect();
                pr.sort();
                br.sort();
                assert_eq!(pr, br, "{kind:?}/{name}");
            }
            let pg = point.query(&ProvQuery::ProvenanceOfAll).unwrap();
            let bg = batch.query(&ProvQuery::ProvenanceOfAll).unwrap();
            assert!(
                crate::ProvGraph::from_answer(&pg)
                    .diff(&crate::ProvGraph::from_answer(&bg))
                    .is_empty(),
                "{kind:?}: graphs diverged"
            );
        }
    }

    #[test]
    fn arch2_batch_issues_fewer_provenance_requests() {
        let (pw, _, bw, _) = both_paths(ArchKind::S3SimpleDb);
        let point_puts = pw.meters().op_count(Op::SdbPutAttributes);
        let batch_puts = bw.meters().op_count(Op::SdbBatchPutAttributes)
            + bw.meters().op_count(Op::SdbPutAttributes);
        assert!(point_puts >= 5, "pipeline must exercise several items");
        assert!(
            batch_puts * 5 <= point_puts,
            "batched SimpleDB writes {batch_puts} must be >=5x fewer than {point_puts}"
        );
        // Every staged item still arrived.
        assert_eq!(
            bw.meters().batch_entry_count(Op::SdbBatchPutAttributes),
            point_puts
        );
    }

    #[test]
    fn arch3_batch_issues_fewer_wal_requests() {
        let (pw, _, bw, _) = both_paths(ArchKind::S3SimpleDbSqs);
        let point_sends = pw.meters().op_count(Op::SqsSendMessage);
        let batch_sends = bw.meters().op_count(Op::SqsSendMessageBatch)
            + bw.meters().op_count(Op::SqsSendMessage);
        assert!(point_sends >= 20, "five flushes x >=4 records each");
        assert!(
            batch_sends * 5 <= point_sends,
            "batched WAL sends {batch_sends} must be >=5x fewer than {point_sends}"
        );
        assert_eq!(
            bw.meters().batch_entry_count(Op::SqsSendMessageBatch),
            point_sends,
            "same records, fewer requests"
        );
        // The daemon's log-record deletes are batched on both paths, so
        // the queue still drains completely.
        assert_eq!(bw.meters().stored_bytes(Service::Sqs), 0);
    }

    #[test]
    fn arch3_batched_group_crash_before_commit_is_ignored() {
        // A crash before the final batch (the one carrying the group's
        // last COMMIT) must leave a prefix of complete transactions plus
        // at most one commit-less residue — never a half-applied tail.
        let world = counting();
        let mut store = S3SimpleDbSqs::new(&world, "c");
        let flushes = pipeline_flushes();
        world.with_faults(|f| f.arm(A3_BEFORE_COMMIT));
        let err = store.persist_batch(&flushes).unwrap_err();
        assert!(err.is_crash());
        store.run_daemons_until_idle().unwrap();
        world.settle();
        // The last object of the pipeline cannot have committed.
        assert!(store.read("out.dat").unwrap_err().is_not_found());
        // Whatever did apply is fully consistent (no orphan halves).
        for name in ["in.dat", "mid.dat"] {
            if let Ok(read) = store.read(name) {
                assert!(read.consistent(), "{name}");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        for kind in ArchKind::ALL {
            let world = counting();
            let mut store = kind.build(&world);
            let before = world.meters();
            store.persist_batch(&[]).unwrap();
            let delta = world.meters() - before;
            assert_eq!(delta.total_ops(), 0, "{kind:?}");
        }
    }
}
