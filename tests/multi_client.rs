//! Multiple PASS clients sharing one cloud — the paper's usage model
//! (§2.5): "multiple clients can concurrently update different objects
//! at the same time." Each Architecture-3 client owns its own WAL queue
//! but shares S3 and SimpleDB. The sharded-substrate smokes at the end
//! hammer S3/SQS from OS threads and check the shard/queue layout never
//! changes what the clients observe.

use std::thread;

use pass_cloud::cloud::{ProvQuery, ProvenanceStore, S3SimpleDbSqs};
use pass_cloud::pass::FileFlush;
use pass_cloud::s3::{Metadata, S3};
use pass_cloud::simpledb::SimpleDb;
use pass_cloud::simworld::{Blob, SimWorld};
use pass_cloud::sqs::Sqs;

fn shared_cloud(world: &SimWorld) -> (S3, SimpleDb, Sqs) {
    let s3 = S3::new(world);
    s3.create_bucket(pass_cloud::cloud::layout::BUCKET).unwrap();
    let db = SimpleDb::new(world);
    db.create_domain(pass_cloud::cloud::layout::DOMAIN).unwrap();
    let sqs = Sqs::new(world);
    (s3, db, sqs)
}

#[test]
fn three_clients_interleave_without_interference() {
    let world = SimWorld::counting();
    let (s3, db, sqs) = shared_cloud(&world);
    let mut clients: Vec<S3SimpleDbSqs> = (0..3)
        .map(|i| S3SimpleDbSqs::with_services(&world, &s3, &db, &sqs, &format!("client-{i}")))
        .collect();

    // Interleave: each client persists its own files, round-robin, with
    // daemons polled mid-stream.
    for round in 0..10 {
        for (c, client) in clients.iter_mut().enumerate() {
            let flush = FileFlush::builder(format!("c{c}/file{round:02}"))
                .data(Blob::synthetic((c * 100 + round) as u64, 4096))
                .record("input", &format!("c{c}/seed:1"))
                .build();
            client.persist(&flush).unwrap();
            let _ = client.poll_daemon().unwrap();
        }
    }
    for client in clients.iter_mut() {
        client.run_daemons_until_idle().unwrap();
    }
    world.settle();

    // Every client's files are present, readable and consistent —
    // through ANY client (shared cloud).
    for c in 0..3 {
        for round in 0..10 {
            let name = format!("c{c}/file{round:02}");
            let read = clients[0].read(&name).unwrap();
            assert!(read.consistent(), "{name}");
        }
    }
    // Queues are independent: all drained.
    for client in &clients {
        assert_eq!(client.wal_depth_exact(), 0);
    }
    // The shared provenance domain holds all 30 items (plus none extra).
    let all = clients[1].query(&ProvQuery::ProvenanceOfAll).unwrap();
    assert_eq!(all.len(), 30);
}

#[test]
fn one_client_crash_does_not_disturb_the_others() {
    let world = SimWorld::counting();
    let (s3, db, sqs) = shared_cloud(&world);
    let mut healthy = S3SimpleDbSqs::with_services(&world, &s3, &db, &sqs, "healthy");
    let mut doomed = S3SimpleDbSqs::with_services(&world, &s3, &db, &sqs, "doomed");

    world.with_faults(|f| f.arm(pass_cloud::cloud::A3_BEFORE_COMMIT));
    let crash_flush = FileFlush::builder("doomed/file")
        .data(Blob::from("lost"))
        .build();
    assert!(doomed.persist(&crash_flush).unwrap_err().is_crash());

    let ok_flush = FileFlush::builder("healthy/file")
        .data(Blob::from("fine"))
        .build();
    healthy.persist(&ok_flush).unwrap();
    healthy.run_daemons_until_idle().unwrap();
    doomed.run_daemons_until_idle().unwrap();
    world.settle();

    // The healthy client's object is there; the doomed one's is not —
    // and neither client sees partial state from the other.
    assert!(healthy.read("healthy/file").unwrap().consistent());
    assert!(healthy.read("doomed/file").is_err());
    assert!(doomed.read("healthy/file").unwrap().consistent());
}

#[test]
fn clients_can_share_one_wal_queue_daemon() {
    // Degenerate-but-legal deployment: two client handles with the same
    // client id share a WAL queue; either daemon may commit either's
    // transactions.
    let world = SimWorld::counting();
    let (s3, db, sqs) = shared_cloud(&world);
    let mut a = S3SimpleDbSqs::with_services(&world, &s3, &db, &sqs, "shared");
    let mut b = S3SimpleDbSqs::with_services(&world, &s3, &db, &sqs, "shared");
    assert_eq!(a.wal_url(), b.wal_url());

    a.persist(&FileFlush::builder("a").data(Blob::from("1")).build())
        .unwrap();
    b.persist(&FileFlush::builder("b").data(Blob::from("2")).build())
        .unwrap();
    // Only B's daemon runs; it applies both transactions.
    b.run_daemons_until_idle().unwrap();
    world.settle();
    assert!(a.read("a").unwrap().consistent());
    assert!(a.read("b").unwrap().consistent());
    assert_eq!(a.wal_depth_exact(), 0);
}

#[test]
fn sharded_s3_concurrent_clients_are_layout_invariant() {
    // 4 threads hammer one bucket (disjoint key ranges, interleaved
    // LISTs) on several shard layouts. Per-shard locking must change
    // contention only: the final key set and the listing every client
    // computes afterwards must be identical on every layout.
    const THREADS: usize = 4;
    const KEYS_PER_THREAD: usize = 30;
    let mut per_layout: Vec<Vec<String>> = Vec::new();
    for shards in [1, 4, 16] {
        let world = SimWorld::counting();
        let s3 = S3::with_shards(&world, shards);
        s3.create_bucket("shared").unwrap();
        thread::scope(|scope| {
            for t in 0..THREADS {
                let s3 = s3.clone();
                scope.spawn(move || {
                    for i in 0..KEYS_PER_THREAD {
                        s3.put_object(
                            "shared",
                            &format!("c{t}/file{i:02}"),
                            Blob::synthetic((t * 100 + i) as u64, 512),
                            Metadata::new(),
                        )
                        .unwrap();
                        if i % 7 == 0 {
                            // Interleaved fan-out LISTs while others write.
                            let _ = s3.list_objects("shared", &format!("c{t}/"), None, 10);
                        }
                    }
                });
            }
        });
        world.settle();
        let keys: Vec<String> = s3
            .list_all("shared", "")
            .unwrap()
            .into_iter()
            .map(|o| o.key)
            .collect();
        assert_eq!(keys.len(), THREADS * KEYS_PER_THREAD);
        assert_eq!(keys, s3.latest_keys("shared", ""));
        per_layout.push(keys);
    }
    assert!(
        per_layout.windows(2).all(|w| w[0] == w[1]),
        "concurrent clients observed different key sets across shard layouts"
    );
}

#[test]
fn sqs_concurrent_clients_on_distinct_queues_do_not_interfere() {
    // Per-queue locking: each thread owns a queue and must get exactly
    // its own messages back, with the shared endpoint under fire.
    const THREADS: usize = 3;
    const MSGS: usize = 30;
    let world = SimWorld::counting();
    let sqs = Sqs::new(&world);
    let urls: Vec<String> = (0..THREADS)
        .map(|t| sqs.create_queue(format!("client-{t}/wal")))
        .collect();
    let drained: Vec<Vec<String>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let sqs = sqs.clone();
                let url = urls[t].clone();
                scope.spawn(move || {
                    let mut bodies = Vec::new();
                    for i in 0..MSGS {
                        sqs.send_message(&url, format!("t{t}-m{i:02}")).unwrap();
                    }
                    while bodies.len() < MSGS {
                        for msg in sqs.receive_message(&url, 10).unwrap() {
                            sqs.delete_message(&url, &msg.receipt_handle).unwrap();
                            bodies.push(msg.body.to_string());
                        }
                    }
                    bodies.sort();
                    bodies
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, bodies) in drained.iter().enumerate() {
        let expected: Vec<String> = (0..MSGS).map(|i| format!("t{t}-m{i:02}")).collect();
        assert_eq!(bodies, &expected, "queue {t} lost or leaked messages");
        assert_eq!(sqs.exact_message_count(&urls[t]), 0);
    }
}

#[test]
fn concurrent_batch_ops_are_layout_invariant() {
    // Threads fire the new batch APIs — multi-object delete on a shared
    // bucket, SendMessageBatch/DeleteMessageBatch on private queues —
    // while point ops interleave. A batch takes each touched shard lock
    // once, so layouts change contention only: the surviving key set and
    // the drained message sets must be identical on every layout.
    const THREADS: usize = 3;
    const KEYS_PER_THREAD: usize = 24;
    let mut per_layout: Vec<Vec<String>> = Vec::new();
    for shards in [1, 4, 16] {
        let world = SimWorld::counting();
        let s3 = S3::with_shards(&world, shards);
        s3.create_bucket("shared").unwrap();
        let sqs = Sqs::new(&world);
        let urls: Vec<String> = (0..THREADS)
            .map(|t| sqs.create_queue(format!("batcher-{t}")))
            .collect();
        thread::scope(|scope| {
            for (t, url) in urls.iter().enumerate() {
                let s3 = s3.clone();
                let sqs = sqs.clone();
                let url = url.clone();
                scope.spawn(move || {
                    // Fill, then batch-delete every third key.
                    let keys: Vec<String> = (0..KEYS_PER_THREAD)
                        .map(|i| {
                            let key = format!("c{t}/k{i:02}");
                            s3.put_object(
                                "shared",
                                &key,
                                Blob::synthetic((t * 100 + i) as u64, 256),
                                Metadata::new(),
                            )
                            .unwrap();
                            key
                        })
                        .collect();
                    let doomed: Vec<String> = keys.iter().step_by(3).cloned().collect();
                    assert_eq!(
                        s3.delete_objects("shared", &doomed).unwrap(),
                        doomed.len() as u64
                    );
                    // Batch-send a round of WAL-ish messages, drain with
                    // batch deletes.
                    let bodies: Vec<String> = (0..10).map(|i| format!("t{t}-m{i}")).collect();
                    for outcome in sqs.send_message_batch(&url, &bodies).unwrap() {
                        outcome.unwrap();
                    }
                    let mut seen = 0;
                    while seen < bodies.len() {
                        let got = sqs.receive_message(&url, 10).unwrap();
                        if got.is_empty() {
                            continue;
                        }
                        let handles: Vec<String> =
                            got.iter().map(|m| m.receipt_handle.clone()).collect();
                        for outcome in sqs.delete_message_batch(&url, &handles).unwrap() {
                            outcome.unwrap();
                        }
                        seen += got.len();
                    }
                    assert_eq!(sqs.exact_message_count(&url), 0);
                });
            }
        });
        world.settle();
        let keys: Vec<String> = s3
            .list_all("shared", "")
            .unwrap()
            .into_iter()
            .map(|o| o.key)
            .collect();
        assert_eq!(keys, s3.latest_keys("shared", ""));
        assert_eq!(keys.len(), THREADS * KEYS_PER_THREAD * 2 / 3);
        per_layout.push(keys);
    }
    assert!(
        per_layout.windows(2).all(|w| w[0] == w[1]),
        "concurrent batch clients observed different key sets across shard layouts"
    );
}
