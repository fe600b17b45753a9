//! Unit tests for the S3 simulator.

use simworld::{Blob, Consistency, LatencyModel, Op, Service, SimConfig, SimDuration, SimWorld};

use crate::{Metadata, MetadataDirective, ObjectSummary, S3Error, S3};

fn counting() -> (SimWorld, S3) {
    let world = SimWorld::counting();
    let s3 = S3::new(&world);
    s3.create_bucket("b").unwrap();
    (world, s3)
}

fn eventual(seed: u64) -> (SimWorld, S3) {
    let world = SimWorld::with_config(SimConfig {
        seed,
        consistency: Consistency::eventual(SimDuration::from_secs(30)),
        latency: LatencyModel::zero(),
        replicas: 3,
    });
    let s3 = S3::new(&world);
    s3.create_bucket("b").unwrap();
    (world, s3)
}

#[test]
fn put_get_round_trip_with_metadata() {
    let (_, s3) = counting();
    let meta = Metadata::from_pairs([("x-amz-meta-a", "1")]);
    s3.put_object("b", "k", Blob::from("payload"), meta.clone())
        .unwrap();
    let obj = s3.get_object("b", "k").unwrap();
    assert_eq!(&obj.body.to_bytes()[..], b"payload");
    assert_eq!(obj.metadata, meta);
    assert_eq!(obj.etag, Blob::from("payload").md5());
}

#[test]
fn get_missing_key_errors() {
    let (_, s3) = counting();
    assert!(matches!(
        s3.get_object("b", "nope"),
        Err(S3Error::NoSuchKey { .. })
    ));
}

#[test]
fn missing_bucket_errors() {
    let (_, s3) = counting();
    assert!(matches!(
        s3.put_object("zzz", "k", Blob::empty(), Metadata::new()),
        Err(S3Error::NoSuchBucket { .. })
    ));
    assert!(matches!(
        s3.get_object("zzz", "k"),
        Err(S3Error::NoSuchBucket { .. })
    ));
    assert!(matches!(
        s3.list_objects("zzz", "", None, 10),
        Err(S3Error::NoSuchBucket { .. })
    ));
}

#[test]
fn duplicate_bucket_rejected() {
    let (_, s3) = counting();
    assert!(matches!(
        s3.create_bucket("b"),
        Err(S3Error::BucketAlreadyExists { .. })
    ));
}

#[test]
fn invalid_bucket_names_rejected() {
    let (_, s3) = counting();
    assert!(matches!(
        s3.create_bucket(""),
        Err(S3Error::InvalidBucketName { .. })
    ));
    assert!(matches!(
        s3.create_bucket("x".repeat(256)),
        Err(S3Error::InvalidBucketName { .. })
    ));
}

#[test]
fn metadata_over_2kb_rejected_at_put() {
    let (_, s3) = counting();
    let mut meta = Metadata::new();
    meta.insert("k", "v".repeat(2100));
    assert!(matches!(
        s3.put_object("b", "k", Blob::empty(), meta),
        Err(S3Error::MetadataTooLarge { .. })
    ));
}

#[test]
fn oversized_object_rejected() {
    let (_, s3) = counting();
    let too_big = Blob::synthetic(0, crate::MAX_OBJECT_SIZE + 1);
    assert!(matches!(
        s3.put_object("b", "k", too_big, Metadata::new()),
        Err(S3Error::EntityTooLarge { .. })
    ));
}

#[test]
fn key_length_limit_enforced() {
    let (_, s3) = counting();
    let long_key = "k".repeat(1025);
    assert!(matches!(
        s3.put_object("b", &long_key, Blob::empty(), Metadata::new()),
        Err(S3Error::KeyTooLong { .. })
    ));
}

#[test]
fn overwrite_is_last_writer_wins() {
    let (world, s3) = eventual(5);
    s3.put_object("b", "k", Blob::from("one"), Metadata::new())
        .unwrap();
    s3.put_object("b", "k", Blob::from("two"), Metadata::new())
        .unwrap();
    world.settle();
    assert_eq!(
        &s3.get_object("b", "k").unwrap().body.to_bytes()[..],
        b"two"
    );
}

#[test]
fn eventual_get_after_put_can_return_old_version() {
    // The §2.1 anomaly: GET right after PUT may see the previous object.
    let (world, s3) = eventual(12);
    s3.put_object("b", "k", Blob::from("old"), Metadata::new())
        .unwrap();
    world.settle();
    s3.put_object("b", "k", Blob::from("new"), Metadata::new())
        .unwrap();
    let mut saw_old = false;
    for _ in 0..64 {
        if &s3.get_object("b", "k").unwrap().body.to_bytes()[..] == b"old" {
            saw_old = true;
            break;
        }
    }
    assert!(saw_old, "expected at least one stale read before settling");
}

#[test]
fn head_returns_metadata_without_body_transfer() {
    let (world, s3) = counting();
    let meta = Metadata::from_pairs([("x-amz-meta-prov", "p")]);
    s3.put_object("b", "k", Blob::synthetic(3, 100_000), meta)
        .unwrap();
    let before = world.meters();
    let head = s3.head_object("b", "k").unwrap();
    let delta = world.meters() - before;
    assert_eq!(head.content_length, 100_000);
    assert_eq!(delta.op_count(Op::S3Head), 1);
    assert!(
        delta.bytes_out() < 1024,
        "HEAD must not transfer the body; moved {} bytes",
        delta.bytes_out()
    );
}

#[test]
fn ranged_get_returns_slice_and_bills_slice() {
    let (world, s3) = counting();
    s3.put_object("b", "k", Blob::synthetic(9, 10_000), Metadata::new())
        .unwrap();
    let before = world.meters();
    let obj = s3.get_object_range("b", "k", 100..200).unwrap();
    let delta = world.meters() - before;
    assert_eq!(obj.body.len(), 100);
    assert_eq!(
        obj.body.to_bytes(),
        Blob::synthetic(9, 10_000).slice(100..200).to_bytes()
    );
    assert_eq!(delta.bytes_out(), 100);
}

#[test]
fn ranged_get_out_of_bounds_is_invalid_range() {
    let (world, s3) = counting();
    s3.put_object("b", "k", Blob::from("abc"), Metadata::new())
        .unwrap();
    let before = world.meters();
    assert!(matches!(
        s3.get_object_range("b", "k", 2..9),
        Err(S3Error::InvalidRange { len: 3, .. })
    ));
    // The refusal is unbilled, so it is not counted as shard load either.
    assert_eq!(world.meters(), before);
}

#[test]
fn copy_preserves_body_and_can_replace_metadata() {
    let (world, s3) = counting();
    let meta = Metadata::from_pairs([("x-amz-meta-src", "yes")]);
    s3.put_object("b", "src", Blob::from("content"), meta)
        .unwrap();

    s3.copy_object("b", "src", "b", "dst-copy", MetadataDirective::Copy)
        .unwrap();
    let copied = s3.get_object("b", "dst-copy").unwrap();
    assert_eq!(copied.metadata.get("x-amz-meta-src"), Some("yes"));
    assert_eq!(&copied.body.to_bytes()[..], b"content");

    let replacement = Metadata::from_pairs([("x-amz-meta-nonce", "7")]);
    s3.copy_object(
        "b",
        "src",
        "b",
        "dst-replace",
        MetadataDirective::Replace(replacement),
    )
    .unwrap();
    let replaced = s3.get_object("b", "dst-replace").unwrap();
    assert_eq!(replaced.metadata.get("x-amz-meta-src"), None);
    assert_eq!(replaced.metadata.get("x-amz-meta-nonce"), Some("7"));
    let _ = world;
}

#[test]
fn copy_bills_no_transfer_bytes() {
    let (world, s3) = counting();
    s3.put_object("b", "src", Blob::synthetic(2, 1 << 20), Metadata::new())
        .unwrap();
    let before = world.meters();
    s3.copy_object("b", "src", "b", "dst", MetadataDirective::Copy)
        .unwrap();
    let delta = world.meters() - before;
    assert_eq!(delta.op_count(Op::S3Copy), 1);
    assert_eq!(
        delta.bytes_in(),
        0,
        "COPY is not billed for transfer (paper §5)"
    );
    assert_eq!(delta.bytes_out(), 0);
}

#[test]
fn copy_missing_source_errors() {
    let (_, s3) = counting();
    assert!(matches!(
        s3.copy_object("b", "ghost", "b", "dst", MetadataDirective::Copy),
        Err(S3Error::NoSuchKey { .. })
    ));
}

#[test]
fn copy_refused_for_oversized_metadata_leaves_no_fingerprints() {
    // Twin worlds: one issues a COPY whose replacement metadata is
    // over the limit, the other never does. The refusal is unbilled,
    // so it must not draw a replica or touch a shard.
    let run = |refused_copy: bool| {
        let world = SimWorld::new(77);
        let s3 = S3::new(&world);
        s3.create_bucket("b").unwrap();
        s3.put_object("b", "src", Blob::from("v"), Metadata::new())
            .unwrap();
        world.settle();
        if refused_copy {
            let fat = Metadata::from_pairs([("k", "v".repeat(3000))]);
            let err = s3
                .copy_object("b", "src", "b", "dst", MetadataDirective::Replace(fat))
                .unwrap_err();
            assert!(matches!(err, S3Error::MetadataTooLarge { .. }), "{err}");
        }
        s3.put_object("b", "dst", Blob::from("w"), Metadata::new())
            .unwrap();
        (world.meters(), world.now(), world.rand_u64())
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn failed_copy_into_missing_bucket_mutates_no_state() {
    // A copy into a bucket that does not exist must fail before it
    // touches anything — no shard touch, no RNG draw, no billed op.
    let (world, s3) = counting();
    s3.put_object("b", "src", Blob::from("x"), Metadata::new())
        .unwrap();
    let before = world.meters();
    assert!(matches!(
        s3.copy_object("b", "src", "ghost", "dst", MetadataDirective::Copy),
        Err(S3Error::NoSuchBucket { .. })
    ));
    let delta = world.meters() - before;
    assert_eq!(delta.total_ops(), 0);
    let touches: u64 = (0..16).map(|s| delta.shard_op_count(Service::S3, s)).sum();
    assert_eq!(touches, 0);
}

#[test]
fn delete_is_idempotent() {
    let (world, s3) = counting();
    s3.put_object("b", "k", Blob::from("x"), Metadata::new())
        .unwrap();
    s3.delete_object("b", "k").unwrap();
    s3.delete_object("b", "k").unwrap(); // second delete also succeeds
    world.settle();
    assert!(matches!(
        s3.get_object("b", "k"),
        Err(S3Error::NoSuchKey { .. })
    ));
}

#[test]
fn stored_bytes_gauge_tracks_put_overwrite_delete() {
    let (world, s3) = counting();
    s3.put_object("b", "k", Blob::synthetic(0, 1000), Metadata::new())
        .unwrap();
    assert_eq!(world.meters().stored_bytes(Service::S3), 1000);
    s3.put_object("b", "k", Blob::synthetic(0, 400), Metadata::new())
        .unwrap();
    assert_eq!(world.meters().stored_bytes(Service::S3), 400);
    s3.delete_object("b", "k").unwrap();
    assert_eq!(world.meters().stored_bytes(Service::S3), 0);
}

#[test]
fn list_filters_prefix_and_paginates() {
    let (world, s3) = counting();
    for i in 0..25 {
        s3.put_object(
            "b",
            &format!("logs/{i:02}"),
            Blob::from("x"),
            Metadata::new(),
        )
        .unwrap();
    }
    s3.put_object("b", "other/a", Blob::from("x"), Metadata::new())
        .unwrap();
    world.settle();

    let page1 = s3.list_objects("b", "logs/", None, 10).unwrap();
    assert_eq!(page1.objects.len(), 10);
    assert!(page1.is_truncated);
    assert_eq!(page1.objects[0].key, "logs/00");

    let marker = page1.objects.last().unwrap().key.clone();
    let page2 = s3.list_objects("b", "logs/", Some(&marker), 10).unwrap();
    assert_eq!(page2.objects[0].key, "logs/10");

    let all = s3.list_all("b", "logs/").unwrap();
    assert_eq!(all.len(), 25);
    assert!(all.iter().all(|o| o.key.starts_with("logs/")));
}

#[test]
fn list_is_lexicographically_sorted() {
    let (world, s3) = counting();
    for key in ["b", "a", "c/x", "c/a"] {
        s3.put_object("b", key, Blob::from("x"), Metadata::new())
            .unwrap();
    }
    world.settle();
    let keys: Vec<_> = s3
        .list_all("b", "")
        .unwrap()
        .into_iter()
        .map(|o| o.key)
        .collect();
    assert_eq!(keys, vec!["a", "b", "c/a", "c/x"]);
}

#[test]
fn put_bills_body_plus_metadata_bytes_in() {
    let (world, s3) = counting();
    let meta = Metadata::from_pairs([("k", "v")]); // 2 bytes
    let before = world.meters();
    s3.put_object("b", "k", Blob::synthetic(0, 500), meta)
        .unwrap();
    let delta = world.meters() - before;
    assert_eq!(delta.bytes_in(), 502);
    assert_eq!(delta.op_count(Op::S3Put), 1);
}

#[test]
fn authoritative_views_do_not_bill() {
    let (world, s3) = counting();
    s3.put_object("b", "k", Blob::from("x"), Metadata::new())
        .unwrap();
    let before = world.meters();
    let _ = s3.latest_object("b", "k");
    let _ = s3.latest_keys("b", "");
    let delta = world.meters() - before;
    assert_eq!(delta.total_ops(), 0);
}

#[test]
fn latest_views_reflect_authoritative_state() {
    let (_, s3) = eventual(77);
    s3.put_object("b", "k", Blob::from("fresh"), Metadata::new())
        .unwrap();
    // Even though replicas lag, the authoritative view sees the write.
    let obj = s3.latest_object("b", "k").unwrap();
    assert_eq!(&obj.body.to_bytes()[..], b"fresh");
    assert_eq!(s3.latest_keys("b", ""), vec!["k".to_string()]);
}

#[test]
fn clones_share_the_store() {
    let (_, s3) = counting();
    let s3b = s3.clone();
    s3.put_object("b", "k", Blob::from("x"), Metadata::new())
        .unwrap();
    assert!(s3b.get_object("b", "k").is_ok());
}

// --- sharded layout ---

#[test]
fn results_are_invariant_to_shard_layout() {
    // The shard count is a concurrency knob, never a semantics knob:
    // the same writes must produce byte-identical GET/LIST results on
    // every layout.
    let reference: Vec<String> = (0..50)
        .map(|i| format!("k/{:02}", (i * 37) % 100))
        .collect();
    let mut per_layout: Vec<(Vec<ObjectSummary>, Vec<String>)> = Vec::new();
    for shards in [1, 3, 16, 64] {
        let world = SimWorld::counting();
        let s3 = S3::with_shards(&world, shards);
        assert_eq!(s3.shard_count(), shards);
        s3.create_bucket("b").unwrap();
        for key in &reference {
            s3.put_object("b", key, Blob::from(key.as_str()), Metadata::new())
                .unwrap();
        }
        world.settle();
        per_layout.push((s3.list_all("b", "k/").unwrap(), s3.latest_keys("b", "")));
    }
    assert!(per_layout[0].0.len() == 50);
    assert!(
        per_layout.windows(2).all(|w| w[0] == w[1]),
        "LIST results diverged across shard layouts"
    );
}

#[test]
fn sharded_pagination_neither_skips_nor_duplicates() {
    let (world, _) = counting();
    let s3 = S3::with_shards(&world, 16);
    s3.create_bucket("paged").unwrap();
    let mut expected: Vec<String> = (0..40).map(|i| format!("p/{i:03}")).collect();
    for key in &expected {
        s3.put_object("paged", key, Blob::from("x"), Metadata::new())
            .unwrap();
    }
    expected.sort();
    let mut walked: Vec<String> = Vec::new();
    let mut marker: Option<String> = None;
    loop {
        let page = s3
            .list_objects("paged", "p/", marker.as_deref(), 7)
            .unwrap();
        assert!(page.objects.len() <= 7);
        walked.extend(page.objects.iter().map(|o| o.key.clone()));
        if !page.is_truncated {
            break;
        }
        marker = page.objects.last().map(|o| o.key.clone());
    }
    assert_eq!(walked, expected);
}

#[test]
fn point_ops_touch_exactly_one_shard_and_lists_fan_out() {
    let world = SimWorld::counting();
    let s3 = S3::with_shards(&world, 8);
    s3.create_bucket("b").unwrap();
    let before = world.meters();
    s3.put_object("b", "k", Blob::from("x"), Metadata::new())
        .unwrap();
    let delta = world.meters() - before;
    let touches: u64 = (0..8).map(|s| delta.shard_op_count(Service::S3, s)).sum();
    assert_eq!(touches, 1, "a PUT touches exactly one shard");

    let before = world.meters();
    s3.get_object("b", "k").unwrap();
    s3.head_object("b", "k").unwrap();
    s3.delete_object("b", "k").unwrap();
    let delta = world.meters() - before;
    let touches: u64 = (0..8).map(|s| delta.shard_op_count(Service::S3, s)).sum();
    assert_eq!(touches, 3, "GET/HEAD/DELETE touch one shard each");

    let before = world.meters();
    s3.list_objects("b", "", None, 10).unwrap();
    let delta = world.meters() - before;
    assert!(
        (0..8).all(|s| delta.shard_op_count(Service::S3, s) == 1),
        "a LIST fans out across every shard"
    );
}

#[test]
fn narrow_prefix_list_is_charged_only_its_key_range() {
    // A LIST's scan charge (and so its virtual latency) must track the
    // prefix's contiguous key range, not the whole bucket: listing the
    // 10 "logs/" keys may not pay for the 1500 "data/" keys around them.
    let world = SimWorld::with_config(SimConfig {
        seed: 7,
        consistency: Consistency::Strong,
        latency: LatencyModel::default(),
        replicas: 1,
    });
    let s3 = S3::with_shards(&world, 1);
    s3.create_bucket("b").unwrap();
    for i in 0..1500 {
        s3.put_object(
            "b",
            &format!("data/{i:04}"),
            Blob::from("x"),
            Metadata::new(),
        )
        .unwrap();
    }
    for i in 0..10 {
        s3.put_object("b", &format!("logs/{i}"), Blob::from("x"), Metadata::new())
            .unwrap();
    }
    let t0 = world.now();
    let narrow = s3.list_objects("b", "logs/", None, 1000).unwrap();
    let narrow_elapsed = world.now() - t0;
    assert_eq!(narrow.objects.len(), 10);
    // Base (40 ms) + max jitter (10 ms) + ~11 scanned rows + one
    // transfer chunk stay under 52 ms; charging the bucket's other
    // 1500 cells would add 30 ms of scan time and blow this bound.
    assert!(
        narrow_elapsed.as_micros() < 55_000,
        "narrow-prefix LIST was charged past its key range: {narrow_elapsed:?}"
    );
}

#[test]
fn list_marker_before_the_prefix_range_still_lists_it() {
    let (world, s3) = counting();
    for key in ["alpha", "logs/1", "logs/2", "zeta"] {
        s3.put_object("b", key, Blob::from("x"), Metadata::new())
            .unwrap();
    }
    world.settle();
    // A marker below the prefix range must not truncate the range away.
    let page = s3.list_objects("b", "logs/", Some("alpha"), 10).unwrap();
    let keys: Vec<_> = page.objects.iter().map(|o| o.key.as_str()).collect();
    assert_eq!(keys, vec!["logs/1", "logs/2"]);
    // A marker past the range yields an empty, final page.
    let done = s3.list_objects("b", "logs/", Some("logs0"), 10).unwrap();
    assert!(done.objects.is_empty() && !done.is_truncated);
}

#[test]
fn list_all_pins_replicas_for_the_whole_walk() {
    // Regression for the eventual-consistency blind spot: `list_all`
    // used to sample a fresh replica per page, so page 1 could count an
    // unsettled key toward its cap (is_truncated = true) and page 2,
    // served by a stale replica, could silently drop it. With the
    // replicas pinned per walk, every walk satisfies the accounting
    // identity `keys returned == 999 + LIST pages billed`: a walk that
    // promises more (2 pages) must deliver the 1001st key.
    let world = SimWorld::with_config(SimConfig {
        seed: 42,
        consistency: Consistency::eventual(SimDuration::from_secs(3600)),
        latency: LatencyModel::zero(),
        replicas: 3,
    });
    let s3 = S3::with_shards(&world, 1);
    s3.create_bucket("b").unwrap();
    for i in 0..1000 {
        s3.put_object("b", &format!("a{i:04}"), Blob::from("x"), Metadata::new())
            .unwrap();
    }
    world.settle();
    // One more key, unsettled: visible only on its primary replica for
    // the next hour. It sorts after the settled keys, i.e. exactly past
    // the 1000-key page boundary.
    s3.put_object("b", "b-unsettled", Blob::from("x"), Metadata::new())
        .unwrap();
    let (mut saw_short, mut saw_full) = (false, false);
    for _ in 0..40 {
        let before = world.meters();
        let keys = s3.list_all("b", "").unwrap();
        let pages = (world.meters() - before).op_count(Op::S3List);
        assert_eq!(
            keys.len() as u64,
            999 + pages,
            "a truncated page promised a key the walk never delivered"
        );
        match keys.len() {
            1000 => saw_short = true,
            1001 => saw_full = true,
            n => panic!("unexpected listing length {n}"),
        }
    }
    assert!(
        saw_short && saw_full,
        "the sweep should observe both the stale and the fresh replica view"
    );
}

// --- multi-object delete ---

mod delete_objects {
    use super::*;
    use crate::{MAX_DELETE_KEYS, MAX_KEY_LEN};

    fn fill(s3: &S3, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                let key = format!("obj/{i:03}");
                s3.put_object("b", &key, Blob::synthetic(i as u64, 64), Metadata::new())
                    .unwrap();
                key
            })
            .collect()
    }

    #[test]
    fn removes_all_keys_in_one_request() {
        let (world, s3) = counting();
        let keys = fill(&s3, 40);
        let before = world.meters();
        let removed = s3.delete_objects("b", &keys).unwrap();
        let delta = world.meters() - before;
        assert_eq!(removed, 40);
        assert_eq!(delta.op_count(Op::S3DeleteObjects), 1);
        assert_eq!(delta.batch_entry_count(Op::S3DeleteObjects), 40);
        assert_eq!(delta.op_count(Op::S3Delete), 0);
        assert!(s3.latest_keys("b", "").is_empty());
        assert_eq!(world.meters().stored_bytes(Service::S3), 0);
    }

    #[test]
    fn absent_keys_are_idempotent_and_uncounted() {
        let (_, s3) = counting();
        fill(&s3, 2);
        let keys = vec![
            "obj/000".to_string(),
            "never/existed".to_string(),
            "obj/001".to_string(),
        ];
        assert_eq!(s3.delete_objects("b", &keys).unwrap(), 2);
        // Replay deletes nothing further.
        assert_eq!(s3.delete_objects("b", &keys).unwrap(), 0);
    }

    #[test]
    fn error_paths_mutate_nothing() {
        let (world, s3) = counting();
        let keys = fill(&s3, 3);
        let stored_before = world.meters().stored_bytes(Service::S3);
        let before = world.meters();
        assert_eq!(s3.delete_objects("b", &[]), Err(S3Error::EmptyDelete));
        let too_many: Vec<String> = (0..MAX_DELETE_KEYS + 1).map(|i| format!("k{i}")).collect();
        assert_eq!(
            s3.delete_objects("b", &too_many),
            Err(S3Error::TooManyDeleteKeys {
                submitted: MAX_DELETE_KEYS + 1
            })
        );
        let bad_key = vec![keys[0].clone(), "x".repeat(MAX_KEY_LEN + 1)];
        assert_eq!(
            s3.delete_objects("b", &bad_key),
            Err(S3Error::KeyTooLong {
                length: MAX_KEY_LEN + 1
            })
        );
        assert_eq!(
            s3.delete_objects("nope", &keys),
            Err(S3Error::NoSuchBucket {
                bucket: "nope".to_string()
            })
        );
        let delta = world.meters() - before;
        assert_eq!(delta.total_ops(), 0, "rejected deletes leave no trace");
        assert_eq!(world.meters().stored_bytes(Service::S3), stored_before);
        assert_eq!(s3.latest_keys("b", "").len(), 3);
    }

    #[test]
    fn matches_point_deletes_in_final_state() {
        let (_, point_s3) = counting();
        let (_, batch_s3) = counting();
        let keys = fill(&point_s3, 12);
        fill(&batch_s3, 12);
        let doomed: Vec<String> = keys.iter().take(7).cloned().collect();
        for key in &doomed {
            point_s3.delete_object("b", key).unwrap();
        }
        batch_s3.delete_objects("b", &doomed).unwrap();
        assert_eq!(point_s3.latest_keys("b", ""), batch_s3.latest_keys("b", ""));
    }

    #[test]
    fn batch_delete_is_cheaper_than_point_deletes_in_virtual_time() {
        let elapsed = |batched: bool| {
            let world = SimWorld::new(91);
            let s3 = S3::new(&world);
            s3.create_bucket("b").unwrap();
            let keys = fill(&s3, 30);
            let t0 = world.now();
            if batched {
                s3.delete_objects("b", &keys).unwrap();
            } else {
                for key in &keys {
                    s3.delete_object("b", key).unwrap();
                }
            }
            (world.now() - t0).as_micros()
        };
        let point = elapsed(false);
        let batch = elapsed(true);
        assert!(
            batch * 5 < point,
            "batch {batch}µs must undercut point deletes {point}µs by >5x"
        );
    }
}
