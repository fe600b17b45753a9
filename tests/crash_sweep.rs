//! Exhaustive crash-injection sweep across every architecture, every
//! protocol crash site, and several crash ordinals — verifying the
//! invariants the paper's Table 1 claims, plus full recovery afterwards.
//! The pipelined client gets the same treatment: each architecture's
//! client sites fire inside groups issued through `persist_groups`.

use std::collections::BTreeSet;

use pass_cloud::cloud::{
    persist_groups, Arch3Config, ArchKind, CloudError, ProvQuery, ProvenanceStore, Result,
    S3SimpleDbSqs, A3_BEFORE_COMMIT,
};
use pass_cloud::pass::FileFlush;
use pass_cloud::simworld::{AdaptiveDepth, Blob, CrashSite, Op, SimDuration, SimWorld};

fn flushes() -> Vec<FileFlush> {
    // Three chained files plus a process with an oversized env, so every
    // protocol branch (overflow staging included) is on the path.
    let env = format!("E={}", "x".repeat(2_500));
    vec![
        FileFlush::builder("a")
            .data(Blob::synthetic(1, 2048))
            .build(),
        FileFlush::builder("proc:1:tool")
            .process()
            .record("name", "tool")
            .record("env", &env)
            .record("input", "a:1")
            .build(),
        FileFlush::builder("b")
            .data(Blob::synthetic(2, 1024))
            .record("input", "proc:1:tool:1")
            .build(),
    ]
}

/// Fails if version 1 of `name` holds any provenance record twice.
fn assert_no_duplicate_records(store: &mut dyn ProvenanceStore, name: &str, tag: &str) {
    let q = store
        .query(&ProvQuery::ProvenanceOf {
            name: name.into(),
            version: 1,
        })
        .expect("query succeeds");
    let records = &q.items[0].records;
    let unique: BTreeSet<_> = records.iter().map(|r| r.to_pair()).collect();
    assert_eq!(records.len(), unique.len(), "{tag}: duplicated records");
}

/// Runs the workload with a crash armed at (`site`, `ordinal`); the
/// client retries the failed flush once (from its cache) and continues.
/// Returns the store for inspection.
fn run_with_crash(
    kind: ArchKind,
    site: pass_cloud::simworld::CrashSite,
    ordinal: u64,
) -> (SimWorld, Box<dyn ProvenanceStore>, bool) {
    let world = SimWorld::counting();
    world.with_faults(|f| f.arm_after(site, ordinal));
    let mut store = kind.build(&world);
    let mut crashed = false;
    for flush in flushes() {
        match store.persist(&flush) {
            Ok(()) => {}
            Err(e) if e.is_crash() => {
                crashed = true;
                // Client restart: PASS re-flushes from the local cache.
                store.persist(&flush).expect("retry after restart succeeds");
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    store.run_daemons_until_idle().expect("daemons drain");
    world.settle();
    (world, store, crashed)
}

#[test]
fn every_client_crash_site_recovers_to_a_queryable_state() {
    for kind in ArchKind::ALL {
        for &site in kind.client_crash_sites() {
            for ordinal in 0..3 {
                let (_world, store, crashed) = run_with_crash(kind, site, ordinal);
                if !crashed {
                    continue;
                }
                // After retry + recovery the full chain is present and
                // causally complete.
                let read = store.read("b").expect("b readable after recovery");
                assert!(read.consistent(), "{kind:?}/{site}/{ordinal}");
                let q = store
                    .query(&ProvQuery::OutputsOf {
                        program: "tool".into(),
                    })
                    .expect("query succeeds");
                assert_eq!(
                    q.names(),
                    vec!["b:1"],
                    "{kind:?}/{site}/{ordinal}: query after crash"
                );
            }
        }
    }
}

#[test]
fn every_daemon_crash_site_replays_to_the_same_state() {
    let kind = ArchKind::S3SimpleDbSqs;
    for &site in kind.daemon_crash_sites() {
        for ordinal in 0..2 {
            let world = SimWorld::counting();
            let mut store = kind.build(&world);
            for flush in flushes() {
                store.persist(&flush).unwrap();
            }
            world.with_faults(|f| f.arm_after(site, ordinal));
            // First drain may die; a restarted daemon finishes the job.
            let crashed = store.run_daemons_until_idle().is_err();
            store.run_daemons_until_idle().expect("replay converges");
            world.settle();
            let read = store.read("b").unwrap();
            assert!(read.consistent(), "{site}/{ordinal} (crashed={crashed})");
            // Idempotent replay: record sets contain no duplicates.
            assert_no_duplicate_records(store.as_mut(), "b", &format!("{site}/{ordinal}"));
        }
    }
}

/// Satellite of the pipelined-daemon issue: every daemon crash site
/// fires *inside* the pipelined receive/assemble/apply region, at a
/// shallow and a deep window. A crashed daemon drops its in-memory
/// assemblies; the restarted daemon's replay must converge to the same
/// consistent state — no transaction lost, no record duplicated, and
/// the WAL fully drained — at every depth.
#[test]
fn every_daemon_crash_site_replays_under_a_pipelined_daemon() {
    for depth in [2, 8] {
        for &site in ArchKind::S3SimpleDbSqs.daemon_crash_sites() {
            for ordinal in 0..2 {
                let world = SimWorld::counting();
                let mut store = S3SimpleDbSqs::new(&world, "piped");
                store.set_config(Arch3Config {
                    daemon_depth: Some(AdaptiveDepth::fixed(depth)),
                    ..Arch3Config::default()
                });
                for flush in flushes() {
                    store.persist(&flush).unwrap();
                }
                world.with_faults(|f| f.arm_after(site, ordinal));
                // First drain may die mid-region; the restarted daemon
                // finishes the job.
                let crashed = store.run_daemons_until_idle().is_err();
                store.run_daemons_until_idle().expect("replay converges");
                world.settle();
                let tag = format!("depth {depth}/{site}/{ordinal} (crashed={crashed})");
                assert_eq!(store.wal_depth_exact(), 0, "{tag}: WAL must drain");
                let read = store.read("b").unwrap();
                assert!(read.consistent(), "{tag}");
                let q = store
                    .query(&ProvQuery::OutputsOf {
                        program: "tool".into(),
                    })
                    .unwrap();
                assert_eq!(q.names(), vec!["b:1"], "{tag}: lost the chain");
                assert_no_duplicate_records(&mut store, "b", &tag);
            }
        }
    }
}

/// Regression for the redelivery-handle bug: a transaction too large
/// for one receive round parks in the daemon's assembly while its held
/// records' visibility timeouts lapse and they redeliver. The daemon
/// must *replace* each stale receipt handle with the fresh one — the
/// serial daemon used to append, padding every `DeleteMessageBatch`
/// with dead billable entries — so once the transaction completes, the
/// delete batches carry exactly one handle per WAL message.
#[test]
fn redelivered_records_replace_stale_receipt_handles() {
    let world = SimWorld::counting();
    let mut store = S3SimpleDbSqs::new(&world, "redeliver");
    // ~96 KB of inline pairs (each value under the 1 KB overflow
    // threshold) spans a dozen 8 KB WAL messages.
    let mut big = FileFlush::builder("big").data(Blob::synthetic(9, 512));
    let filler = "v".repeat(800);
    for i in 0..120 {
        big = big.record(&format!("ancestor{i}"), &filler);
    }
    store.persist(&big.build()).unwrap();
    let wal_messages = store.wal_depth_exact();
    assert!(
        wal_messages > 10,
        "the transaction must not fit one receive round: {wal_messages} messages"
    );
    // Step the daemon with the visibility timeout (30 s) lapsing between
    // rounds, so every held record redelivers before the next receive.
    let mut rounds = 0;
    while store.wal_depth_exact() > 0 {
        store.daemon().step(true).unwrap();
        world.advance(SimDuration::from_secs(31));
        rounds += 1;
        assert!(rounds < 100, "the transaction must eventually apply");
    }
    assert_eq!(store.daemon().pending_assemblies(), 0);
    assert!(store.read("big").unwrap().consistent());
    assert_eq!(
        world.meters().batch_entry_count(Op::SqsDeleteMessageBatch),
        wal_messages as u64,
        "delete batches must carry exactly one live handle per WAL message — \
         stale handles from redeliveries must be replaced, not appended"
    );
}

/// Regression for the assembly leak: a client that crashes before its
/// COMMIT record leaves a commit-less transaction the daemon parks in
/// memory. Its messages age out of the queue at the SQS retention
/// bound, so the transaction can never complete — the daemon must
/// evict the assembly instead of holding it forever.
#[test]
fn abandoned_assemblies_are_evicted_past_retention() {
    let world = SimWorld::counting();
    let mut store = S3SimpleDbSqs::new(&world, "leak");
    world.with_faults(|f| f.arm(A3_BEFORE_COMMIT));
    let err = store
        .persist(&flushes()[0])
        .expect_err("the armed client crash must fire");
    assert!(err.is_crash());
    // The commit-less records sit in the WAL; the daemon parks them.
    let mut steps = 0;
    while store.daemon().pending_assemblies() == 0 {
        store.daemon().step(true).unwrap();
        steps += 1;
        assert!(steps < 50, "the daemon must pick up the orphaned records");
    }
    // Past the 4-day retention window the messages are gone from the
    // queue; the next step must drop the assembly rather than leak it.
    world.advance(SimDuration::from_secs(5 * 24 * 3600));
    let progress = store.daemon().step(true).unwrap();
    assert!(progress.evicted > 0, "the stale assembly must be evicted");
    assert_eq!(store.daemon().pending_assemblies(), 0);
}

#[test]
fn double_crash_client_then_daemon_still_recovers() {
    let kind = ArchKind::S3SimpleDbSqs;
    let world = SimWorld::counting();
    let mut store = kind.build(&world);
    world.with_faults(|f| {
        f.arm(A3_BEFORE_COMMIT);
        f.arm(pass_cloud::cloud::D3_BEFORE_MSG_DELETE);
    });
    for flush in flushes() {
        match store.persist(&flush) {
            Ok(()) => {}
            Err(e) if e.is_crash() => {
                store.persist(&flush).unwrap();
            }
            Err(e) => panic!("{e}"),
        }
    }
    let _ = store.run_daemons_until_idle(); // may crash (daemon site armed)
    store.run_daemons_until_idle().unwrap();
    world.settle();
    assert!(store.read("b").unwrap().consistent());
    let report = store.recover().unwrap();
    // Nothing left to replay afterwards.
    assert_eq!(report.transactions_replayed, 0);
}

/// Ten independent single-record files, so any prefix of issued groups
/// is self-contained (no dangling ancestor references).
fn independent_flushes() -> Vec<FileFlush> {
    (0..10)
        .map(|i| {
            FileFlush::builder(format!("ind{i}"))
                .data(Blob::synthetic(100 + i, 256))
                .build()
        })
        .collect()
}

/// The pipelined client: `flushes` in groups of two, issued through
/// `persist_groups` at a fixed depth of 4.
fn persist_in_pairs(
    world: &SimWorld,
    store: &mut dyn ProvenanceStore,
    flushes: &[FileFlush],
) -> Result<()> {
    persist_groups(world, store, flushes, 2, Some(&mut AdaptiveDepth::fixed(4)))
}

/// How often a clean `kind` client visits `site` while it persists the
/// first pair of `flushes`: `arm_after(site, that)` crashes a later group.
fn visits_in_first_pair(kind: ArchKind, flushes: &[FileFlush], site: CrashSite) -> u64 {
    let world = SimWorld::counting();
    world.with_faults(|f| f.record_visits(true));
    let mut store = kind.build(&world);
    persist_in_pairs(&world, store.as_mut(), &flushes[..2]).unwrap();
    world.with_faults(|f| f.visits().iter().filter(|&&v| v == site).count() as u64)
}

#[test]
fn every_pipelined_crash_site_recovers_after_a_client_restart() {
    // Each client site of the architecture fires *inside* a pipelined
    // group — at every visit of the first group and at the first visit
    // of the second. The client restarts in the same world and
    // re-flushes everything from its cache; the full chain must come
    // back consistent, with no duplicate records.
    for kind in [ArchKind::S3SimpleDb, ArchKind::S3SimpleDbSqs] {
        let mut later_group_crashes = 0;
        for &site in kind.client_crash_sites() {
            let first = visits_in_first_pair(kind, &flushes(), site);
            for ordinal in 0..=first {
                let world = SimWorld::counting();
                world.with_faults(|f| f.arm_after(site, ordinal));
                let mut store = kind.build(&world);
                match persist_in_pairs(&world, store.as_mut(), &flushes()) {
                    Ok(()) => continue, // the site is not on this group's path
                    Err(e) if e.is_crash() => {
                        // Client restart: PASS re-flushes from cache.
                        persist_in_pairs(&world, store.as_mut(), &flushes())
                            .expect("retry after restart succeeds");
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
                if ordinal == first {
                    later_group_crashes += 1;
                }
                store.run_daemons_until_idle().expect("daemons drain");
                world.settle();
                let tag = format!("{kind:?}/{site}/{ordinal}");
                let read = store.read("b").expect("b readable after recovery");
                assert!(read.consistent(), "{tag}");
                assert_no_duplicate_records(store.as_mut(), "b", &tag);
            }
        }
        assert!(
            later_group_crashes > 0,
            "{kind:?}: no crash hit a later group"
        );
    }
}

#[test]
fn pipelined_groups_issued_before_a_crash_survive_it() {
    // Each client site fires on its first visit in the second group
    // (ind2, ind3): the first group is on the wire and must be durable
    // once the daemons drain; the groups never issued (ind4..) must
    // leave no trace.
    for kind in [ArchKind::S3SimpleDb, ArchKind::S3SimpleDbSqs] {
        let mut crashes = 0;
        for &site in kind.client_crash_sites() {
            let first = visits_in_first_pair(kind, &independent_flushes(), site);
            let world = SimWorld::counting();
            world.with_faults(|f| f.arm_after(site, first));
            let mut store = kind.build(&world);
            match persist_in_pairs(&world, store.as_mut(), &independent_flushes()) {
                Ok(()) => continue, // the site is not on this workload's path
                Err(e) => assert!(e.is_crash(), "{kind:?}/{site}: {e}"),
            }
            crashes += 1;
            store.run_daemons_until_idle().expect("daemons drain");
            world.settle();
            for name in ["ind0", "ind1"] {
                let read = store.read(name).expect("issued group durable");
                assert!(read.consistent(), "{kind:?}/{site}/{name}");
            }
            for i in 4..10 {
                assert!(
                    matches!(
                        store.read(&format!("ind{i}")),
                        Err(CloudError::NotFound { .. })
                    ),
                    "{kind:?}/{site}: un-issued flush ind{i} must not surface"
                );
            }
        }
        assert!(crashes > 0, "{kind:?}: no site fired in the second group");
    }
}

#[test]
fn pipelined_commitless_suffix_is_ignored_by_the_commit_daemon() {
    // A crash *inside* the second pipelined arch3 group, before its
    // COMMIT batch ships: that group is a commit-less suffix the daemon
    // must ignore forever, after the first group committed. A client
    // restart in the same world then recovers everything.
    let kind = ArchKind::S3SimpleDbSqs;
    let world = SimWorld::counting();
    world.with_faults(|f| f.arm_after(A3_BEFORE_COMMIT, 1));
    let mut store = kind.build(&world);
    let err = persist_in_pairs(&world, store.as_mut(), &independent_flushes())
        .expect_err("the armed site must fire");
    assert!(err.is_crash());
    store.run_daemons_until_idle().expect("daemons drain");
    world.settle();
    for name in ["ind0", "ind1"] {
        assert!(store.read(name).unwrap().consistent(), "{name} committed");
    }
    for i in 2..10 {
        assert!(
            matches!(
                store.read(&format!("ind{i}")),
                Err(CloudError::NotFound { .. })
            ),
            "commit-less or un-issued ind{i} must stay invisible"
        );
    }
    // Client restart: the cached flushes go out again, cleanly.
    persist_in_pairs(&world, store.as_mut(), &independent_flushes()).expect("retry succeeds");
    store.run_daemons_until_idle().expect("daemons drain");
    world.settle();
    for i in 0..10 {
        let name = format!("ind{i}");
        assert!(store.read(&name).unwrap().consistent(), "{name} recovered");
        assert_no_duplicate_records(store.as_mut(), &name, "after the restart");
    }
}

#[test]
fn repeated_whole_dataset_persist_is_idempotent() {
    // Re-running PASS flushes (e.g. after a suspected partial upload)
    // must converge to the same provenance, on every architecture.
    for kind in ArchKind::ALL {
        let world = SimWorld::counting();
        let mut store = kind.build(&world);
        for _ in 0..2 {
            for flush in flushes() {
                store.persist(&flush).unwrap();
            }
            store.run_daemons_until_idle().unwrap();
        }
        world.settle();
        assert_no_duplicate_records(store.as_mut(), "b", &format!("{kind:?} after re-run"));
    }
}

/// Satellite of the closure-index issue: a crash between the provenance
/// commit and the closure-index write, or mid-index-batch, must replay
/// to a closure byte-identical to a from-scratch build of the same
/// corpus — the index may be momentarily stale, never silently wrong.
#[test]
fn index_crash_sites_replay_to_a_from_scratch_closure() {
    use pass_cloud::cloud::layout::CLOSURE_DOMAIN;
    use pass_cloud::cloud::{
        domain_fingerprint, Arch2Config, ClosureMode, S3SimpleDb, A2_BEFORE_INDEX_PUT,
        A2_MID_INDEX_PUT, D3_BEFORE_INDEX_PUT, D3_MID_INDEX_PUT,
    };

    // The closure domain reduced to its fingerprint (every live item
    // with its attribute pairs, sorted): grouping and replay history
    // must be invisible at this level.
    let closure_bytes =
        |db: &pass_cloud::simpledb::SimpleDb| domain_fingerprint(db, CLOSURE_DOMAIN);

    // The from-scratch rebuild: the same corpus, no crash.
    let reference = {
        let world = SimWorld::counting();
        let mut store = S3SimpleDb::new(&world);
        store.set_config(Arch2Config {
            closure: ClosureMode::Serve,
            ..Arch2Config::default()
        });
        for flush in flushes() {
            store.persist(&flush).unwrap();
        }
        world.settle();
        assert!(
            !store
                .simpledb()
                .latest_item_names(CLOSURE_DOMAIN)
                .is_empty(),
            "the corpus must build a closure"
        );
        closure_bytes(store.simpledb())
    };

    // Arch2: the client crashes around its index write and re-flushes
    // from cache, like every other client site.
    for site in [A2_BEFORE_INDEX_PUT, A2_MID_INDEX_PUT] {
        for ordinal in 0..3 {
            let world = SimWorld::counting();
            world.with_faults(|f| f.arm_after(site, ordinal));
            let mut store = S3SimpleDb::new(&world);
            store.set_config(Arch2Config {
                closure: ClosureMode::Serve,
                ..Arch2Config::default()
            });
            let mut crashed = false;
            for flush in flushes() {
                match store.persist(&flush) {
                    Ok(()) => {}
                    Err(e) if e.is_crash() => {
                        crashed = true;
                        store.persist(&flush).expect("retry after restart succeeds");
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            world.settle();
            if ordinal == 0 {
                assert!(crashed, "{site}: the armed site must fire");
            }
            assert_eq!(
                closure_bytes(store.simpledb()),
                reference,
                "{site}/{ordinal}: replay diverged from the from-scratch closure"
            );
        }
    }

    // Arch2 without the retry: a client that dies between the
    // provenance commit and the index write leaves the closure stale.
    // The next commit that references the un-indexed node must pull it
    // in and heal the index to the exact from-scratch state.
    {
        let world = SimWorld::counting();
        // Ordinal 1 skips the first flush ("a") and fires on the
        // process flush — whose closure rows then never get written.
        world.with_faults(|f| f.arm_after(A2_BEFORE_INDEX_PUT, 1));
        let mut store = S3SimpleDb::new(&world);
        store.set_config(Arch2Config {
            closure: ClosureMode::Serve,
            ..Arch2Config::default()
        });
        let mut crashed = false;
        for flush in flushes() {
            match store.persist(&flush) {
                Ok(()) => {}
                Err(e) if e.is_crash() => crashed = true, // no retry
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        world.settle();
        assert!(crashed, "the armed site must fire");
        assert_eq!(
            closure_bytes(store.simpledb()),
            reference,
            "persisting the child must heal the stale parent into the index"
        );
    }

    // Arch3: the commit daemon crashes around its index write; the WAL
    // replays the whole group, index write included.
    let arch3_reference = {
        let world = SimWorld::counting();
        let mut store = S3SimpleDbSqs::new(&world, "closure-ref");
        store.set_config(Arch3Config {
            closure: ClosureMode::Serve,
            ..Arch3Config::default()
        });
        for flush in flushes() {
            store.persist(&flush).unwrap();
        }
        store.run_daemons_until_idle().unwrap();
        world.settle();
        closure_bytes(store.simpledb())
    };
    // The closure is a pure function of the committed edges, so the
    // architectures must agree byte-for-byte on the same corpus.
    assert_eq!(arch3_reference, reference);
    for site in [D3_BEFORE_INDEX_PUT, D3_MID_INDEX_PUT] {
        for ordinal in 0..2 {
            let world = SimWorld::counting();
            let mut store = S3SimpleDbSqs::new(&world, "closure-crash");
            store.set_config(Arch3Config {
                closure: ClosureMode::Serve,
                ..Arch3Config::default()
            });
            for flush in flushes() {
                store.persist(&flush).unwrap();
            }
            world.with_faults(|f| f.arm_after(site, ordinal));
            // First drain may die; a restarted daemon finishes the job.
            let crashed = store.run_daemons_until_idle().is_err();
            store.run_daemons_until_idle().expect("replay converges");
            world.settle();
            if ordinal == 0 {
                assert!(crashed, "{site}: the armed site must fire");
            }
            assert_eq!(
                closure_bytes(store.simpledb()),
                arch3_reference,
                "{site}/{ordinal}: daemon replay diverged from the from-scratch closure"
            );
        }
    }
}
