//! Property-based tests over the core data structures and invariants,
//! spanning crates.
//!
//! # Reproducibility
//!
//! The suite runs on the vendored proptest shim, which is deterministic
//! by construction: case `k` of a test is seeded from the test's name,
//! `k`, and the `PROPTEST_SEED` environment variable (default 0) — so a
//! failure on CI replays identically on any machine with no
//! seed-copying ritual. The in-source case counts below are the CI
//! floor; to widen locally run e.g.
//!
//! ```sh
//! PROPTEST_CASES=2000 cargo test --test proptests
//! PROPTEST_SEED=7 PROPTEST_CASES=2000 cargo test --test proptests  # new universe
//! ```

use pass_cloud::cloud::{chunk_pairs, encode_metadata, encode_records, CloudError, WalRecord};
use pass_cloud::pass::{FileFlush, ObjectRef, ProvenanceRecord};
use pass_cloud::simworld::{
    Blob, Consistency, EcMap, LatencyModel, Md5, SimConfig, SimDuration, SimInstant, SimWorld,
};
use pass_cloud::sqs::MAX_MESSAGE_SIZE;
use proptest::prelude::*;

// --- Blob / MD5 ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn md5_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..4096), split in 0usize..4096) {
        let split = split.min(data.len());
        let mut h = Md5::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Md5::digest(&data));
    }

    #[test]
    fn blob_md5_with_suffix_equals_concat(
        content in proptest::collection::vec(any::<u8>(), 0..2048),
        suffix in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let blob = Blob::from_bytes(content.clone());
        let mut concat = content;
        concat.extend_from_slice(&suffix);
        prop_assert_eq!(blob.md5_with_suffix(&suffix), Md5::digest(&concat));
    }

    // --- EcMap convergence ---

    #[test]
    fn ecmap_settles_to_last_write(
        seed in any::<u64>(),
        writes in proptest::collection::vec(any::<u32>(), 1..20),
        lag_ms in 1u64..5_000,
    ) {
        let world = SimWorld::with_config(SimConfig {
            seed,
            consistency: Consistency::eventual(SimDuration::from_millis(lag_ms)),
            latency: LatencyModel::zero(),
            replicas: 3,
        });
        let mut map = EcMap::new();
        for w in &writes {
            map.write(&world, "k", Some(*w));
        }
        world.settle();
        let last = *writes.last().unwrap();
        prop_assert_eq!(map.read(&world, &"k"), Some(last));
        prop_assert_eq!(map.read_latest(&"k"), Some(last));
    }

    #[test]
    fn ecmap_reads_are_always_some_previous_write(
        seed in any::<u64>(),
        writes in proptest::collection::vec(any::<u32>(), 1..12),
    ) {
        // Under any staleness, a read returns either None (not yet
        // propagated) or SOME value that was actually written — never
        // an invented value.
        let world = SimWorld::with_config(SimConfig {
            seed,
            consistency: Consistency::eventual(SimDuration::from_secs(60)),
            latency: LatencyModel::zero(),
            replicas: 4,
        });
        let mut map = EcMap::new();
        for w in &writes {
            map.write(&world, "k", Some(*w));
            if let Some(got) = map.read(&world, &"k") {
                prop_assert!(writes.contains(&got));
            }
        }
    }

    #[test]
    fn ecmap_compaction_never_hides_a_servable_write(
        ops in proptest::collection::vec(
            ((0u64..4, 0u64..3, any::<u16>()), (0u64..5_000, 0u64..5_000, 0u64..5_000)),
            1..50,
        ),
    ) {
        // `EcMap::write` compacts eagerly on every write. The invariant
        // that makes this safe: compaction must never drop a write some
        // replica would still serve. Pin it by replaying an arbitrary
        // op sequence — writes, deletes, clock advances, adversarial
        // (even out-of-order) propagation schedules — against a shadow
        // that keeps the full, uncompacted history, and demanding every
        // replica's view of every key agree after every step.
        const REPLICAS: usize = 3;
        let ms = SimDuration::from_millis;
        let mut now = SimInstant::EPOCH;
        let mut map: EcMap<u64, u16> = EcMap::new();
        type History = Vec<(Vec<SimInstant>, Option<u16>)>;
        let mut shadow: std::collections::BTreeMap<u64, History> =
            std::collections::BTreeMap::new();
        for ((key, kind, value), (l0, l1, l2)) in ops {
            match kind {
                0 | 1 => {
                    let value = (kind == 0).then_some(value);
                    let visible_at = vec![now + ms(l0), now + ms(l1), now + ms(l2)];
                    map.write_at(now, visible_at.clone(), key, value);
                    shadow.entry(key).or_default().push((visible_at, value));
                }
                _ => {
                    now += ms(l0);
                    map.gc(now);
                }
            }
            for (k, history) in &shadow {
                for replica in 0..REPLICAS {
                    let expect = history
                        .iter()
                        .rev()
                        .find(|(visible_at, _)| visible_at[replica] <= now)
                        .and_then(|(_, v)| *v);
                    prop_assert_eq!(map.read_on(replica, now, k), expect);
                }
            }
        }
    }

    // --- ObjectRef / record serialisation ---

    #[test]
    fn object_ref_round_trips(name in "[a-zA-Z0-9_/.:-]{1,40}", version in 1u32..10_000) {
        let r = ObjectRef::new(name, version);
        prop_assert_eq!(ObjectRef::parse(&r.render()), Some(r.clone()));
        prop_assert_eq!(ObjectRef::parse_item_name(&r.item_name()), Some(r));
    }

    #[test]
    fn provenance_record_pairs_round_trip(
        key in prop::sample::select(vec!["input", "type", "name", "argv", "env", "forkparent", "custom-key"]),
        value in "[ -~]{0,200}", // printable ASCII
    ) {
        let record = ProvenanceRecord::from_pair(key, &value);
        let (k2, v2) = record.to_pair();
        prop_assert_eq!(ProvenanceRecord::from_pair(&k2, &v2), record);
    }

    // --- Architecture-1 metadata encoding ---

    #[test]
    fn metadata_encoding_round_trips_any_record_set(
        version in 1u32..100,
        values in proptest::collection::vec("[ -~]{0,1500}", 0..40),
    ) {
        let object = ObjectRef::new("prop/file", version);
        let records: Vec<ProvenanceRecord> =
            values.iter().map(|v| ProvenanceRecord::from_pair("env", v)).collect();
        let encoded = encode_records(&object, &records);
        let (meta, overflows) = encode_metadata(&object, encoded);
        prop_assert!(meta.byte_size() <= sim_s3::METADATA_LIMIT);
        let fetch = |key: &str| -> Result<String, CloudError> {
            overflows
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, blob)| String::from_utf8(blob.to_bytes().to_vec()).unwrap())
                .ok_or_else(|| CloudError::NotFound { name: key.to_string() })
        };
        let decoded = pass_cloud::cloud::decode_metadata(&meta, fetch).unwrap();
        prop_assert_eq!(decoded, records);
    }

    // --- WAL codec ---

    #[test]
    fn wal_prov_record_round_trips_any_pairs(
        txid in any::<u64>(),
        item in "[ -~]{1,60}",
        pairs in proptest::collection::vec(("[a-z]{1,10}", "[ -~\\u{1f}\\u{1e}%]{0,200}"), 0..20),
    ) {
        let record = WalRecord::Prov { txid, item_name: item, pairs };
        prop_assert_eq!(WalRecord::decode(&record.encode()), Some(record));
    }

    #[test]
    fn wal_decode_never_panics(garbage in "\\PC{0,300}") {
        let _ = WalRecord::decode(&garbage); // must not panic
    }

    #[test]
    fn wal_codec_equals_the_join_and_replace_codec(
        variant in 0usize..5,
        txid in any::<u64>(),
        number in any::<u32>(),
        texts in proptest::collection::vec("[a-z%\\u{1f}\\u{1e}é→🦀]{0,12}", 3..4),
        pairs in proptest::collection::vec(("[a-z%\\u{1f}]{0,8}", "[ -~\\u{1f}λ中]{0,40}"), 0..12),
    ) {
        let record = wal_record(variant, txid, number, texts, pairs);
        let encoded = record.encode();
        prop_assert_eq!(&encoded, &wal_oracle::encode(&record));
        prop_assert_eq!(record.encoded_len(), encoded.len());
        prop_assert_eq!(WalRecord::decode(&encoded), Some(record));
    }

    #[test]
    fn wal_decode_agrees_with_the_collecting_decoder(
        variant in 0usize..5,
        txid in any::<u64>(),
        number in any::<u32>(),
        texts in proptest::collection::vec("[a-z%\\u{1f}é]{0,12}", 3..4),
        pairs in proptest::collection::vec(("[a-z%]{0,8}", "[ -~λ]{0,40}"), 0..4),
        mutation in 0usize..8,
        at in 0usize..8,
        junk in "[0-9a-zBDPMC\\u{1f}é]{0,4}",
        codes in proptest::collection::vec(
            proptest::sample::select(vec!["%1F", "%25", "%1f", "%1E", "%", "1F", "25", "é"]),
            0..5,
        ),
    ) {
        // A record as the encoder writes it, then bent: a trailing
        // separator, an extra field (a dangling key, on a `Prov`), a
        // missing one, a txid, version or tag that is not one, a field of
        // escape-code fragments.
        let encoded = wal_record(variant, txid, number, texts, pairs).encode();
        let codes = codes.concat();
        let mut fields: Vec<&str> = encoded.split('\u{1f}').collect();
        let slot = at % fields.len();
        match mutation {
            0 => {}
            1 => fields.push(""),
            2 => fields.push(&junk),
            3 => drop(fields.pop()),
            4 => fields[slot] = &junk,
            _ => fields[slot] = &codes,
        }
        let message = fields.join("\u{1f}");
        prop_assert_eq!(WalRecord::decode(&message), wal_oracle::decode(&message));
    }

    #[test]
    fn wal_chunker_equals_the_trial_encoding_chunker(
        txid in any::<u64>(),
        item in "[a-z%\\u{1f}]{1,20}",
        sizes in proptest::collection::vec(0usize..1200, 0..40),
        escapes in 0usize..3,
    ) {
        // Values up to the 1 KB overflow rule, some of them growing when
        // escaped: a dozen chunk boundaries per case.
        let pairs: Vec<(String, String)> = sizes
            .iter()
            .enumerate()
            .map(|(i, size)| (format!("k{i}"), ["v", "%", "\u{1f}"][(i + escapes) % 3].repeat(*size)))
            .collect();
        prop_assert_eq!(wal_oracle::chunk_pairs(txid, &item, &pairs), chunk_pairs(txid, &item, pairs));
    }

    // --- the SimpleDB query parser never panics ---

    #[test]
    fn simpledb_parsers_never_panic(input in "\\PC{0,200}") {
        let _ = sim_simpledb::QueryExpr::parse(&input);
    }
}

// --- stored-bytes gauge vs an exact shadow model ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stored_bytes_gauge_matches_shadow_across_services(
        ops in proptest::collection::vec(
            (0u8..10, 0u8..6, 1u64..2000, 0u64..30),
            1..60,
        ),
    ) {
        // The billing gauge is pure bookkeeping layered over every
        // S3 put/copy/delete and SQS send/receive/delete/expiry path —
        // and, since the batched request path, over every multi-object
        // delete, SendMessageBatch and DeleteMessageBatch too (kinds
        // 7..10 interleave the batch ops with the point ops); under
        // per-shard and per-queue locking each path settles the
        // gauge itself, so pin it against a shadow that recomputes the
        // exact expected footprint after every op. Strong consistency
        // keeps the shadow exact (reads can't be stale); retention is
        // modelled by mirroring the expiry trigger points (SQS reaps
        // expired messages only when an op touches the queue).
        use pass_cloud::s3::{Metadata, MetadataDirective, S3};
        use pass_cloud::simworld::Service;
        use pass_cloud::sqs::{Sqs, RETENTION};
        use std::collections::BTreeMap;

        let world = SimWorld::with_config(SimConfig {
            seed: 0,
            consistency: Consistency::Strong,
            latency: LatencyModel::zero(),
            replicas: 2,
        });
        let s3 = S3::with_shards(&world, 4);
        s3.create_bucket("b").unwrap();
        let sqs = Sqs::new(&world);
        let urls = [sqs.create_queue("alpha"), sqs.create_queue("beta/wal")];

        // Shadows: key -> footprint for S3; queue -> id -> (sent_at, len)
        // for SQS.
        let mut s3_shadow: BTreeMap<String, u64> = BTreeMap::new();
        let mut sqs_shadow: [BTreeMap<String, (SimInstant, u64)>; 2] =
            [BTreeMap::new(), BTreeMap::new()];
        let keys = ["a", "b", "c", "d", "e", "f"];
        let expire = |q: &mut BTreeMap<String, (SimInstant, u64)>, now: SimInstant| {
            q.retain(|_, (sent_at, _)| now.saturating_since(*sent_at) <= RETENTION);
        };

        for (kind, slot, len, hours) in ops {
            let key = keys[(slot % 6) as usize];
            let qi = (slot % 2) as usize;
            match kind {
                0 => {
                    // S3 PUT (with metadata, so footprints exceed bodies).
                    let meta = Metadata::from_pairs([("x-amz-meta-p", "v".repeat((len % 64) as usize))]);
                    let footprint = len + meta.byte_size();
                    s3.put_object("b", key, Blob::synthetic(len, len), meta).unwrap();
                    s3_shadow.insert(key.to_string(), footprint);
                }
                1 => {
                    // S3 COPY (carrying source metadata).
                    let src = keys[(len % 6) as usize];
                    match s3.copy_object("b", src, "b", key, MetadataDirective::Copy) {
                        Ok(()) => {
                            let src_fp = *s3_shadow.get(src).expect("copy succeeded, source exists");
                            s3_shadow.insert(key.to_string(), src_fp);
                        }
                        Err(_) => prop_assert!(!s3_shadow.contains_key(src)),
                    }
                }
                2 => {
                    // S3 DELETE (idempotent).
                    s3.delete_object("b", key).unwrap();
                    s3_shadow.remove(key);
                }
                3 => {
                    // SQS send; triggers expiry on its queue first.
                    let body = "m".repeat((len % 512) as usize);
                    expire(&mut sqs_shadow[qi], world.now());
                    let id = sqs.send_message(&urls[qi], body.clone()).unwrap();
                    sqs_shadow[qi].insert(id, (world.now(), body.len() as u64));
                }
                4 => {
                    // SQS receive + delete everything received.
                    expire(&mut sqs_shadow[qi], world.now());
                    for msg in sqs.receive_message(&urls[qi], 10).unwrap() {
                        sqs.delete_message(&urls[qi], &msg.receipt_handle).unwrap();
                        sqs_shadow[qi].remove(&msg.message_id);
                    }
                }
                5 => {
                    // Exact count is also an expiry trigger.
                    expire(&mut sqs_shadow[qi], world.now());
                    let n = sqs.exact_message_count(&urls[qi]);
                    prop_assert_eq!(n, sqs_shadow[qi].len());
                }
                7 => {
                    // S3 multi-object delete: this key, its neighbour,
                    // and one key that may be absent (idempotent).
                    let doomed = vec![
                        key.to_string(),
                        keys[((slot + 1) % 6) as usize].to_string(),
                        format!("ghost-{len}"),
                    ];
                    let removed = s3.delete_objects("b", &doomed).unwrap();
                    let mut expected = 0u64;
                    for k in &doomed {
                        if s3_shadow.remove(k).is_some() {
                            expected += 1;
                        }
                    }
                    prop_assert_eq!(removed, expected);
                }
                8 => {
                    // SQS batch send (expiry triggers first, like send);
                    // outcomes are index-aligned with the bodies.
                    expire(&mut sqs_shadow[qi], world.now());
                    let bodies: Vec<String> = (0..1 + len % 4)
                        .map(|i| "b".repeat(((len + i) % 300) as usize))
                        .collect();
                    let outcomes = sqs.send_message_batch(&urls[qi], &bodies).unwrap();
                    for (body, outcome) in bodies.iter().zip(outcomes) {
                        let id = outcome.unwrap();
                        sqs_shadow[qi].insert(id, (world.now(), body.len() as u64));
                    }
                }
                9 => {
                    // SQS receive + batch-delete everything received.
                    expire(&mut sqs_shadow[qi], world.now());
                    let received = sqs.receive_message(&urls[qi], 10).unwrap();
                    if !received.is_empty() {
                        let handles: Vec<String> =
                            received.iter().map(|m| m.receipt_handle.clone()).collect();
                        for outcome in sqs.delete_message_batch(&urls[qi], &handles).unwrap() {
                            outcome.unwrap();
                        }
                        for msg in &received {
                            sqs_shadow[qi].remove(&msg.message_id);
                        }
                    }
                }
                _ => {
                    // Let time pass (sometimes past the retention
                    // window); nothing expires until an op runs.
                    world.advance(SimDuration::from_hours(hours * 4));
                }
            }
            let meters = world.meters();
            prop_assert_eq!(
                meters.stored_bytes(Service::S3),
                s3_shadow.values().sum::<u64>()
            );
            let sqs_expect: u64 = sqs_shadow
                .iter()
                .flat_map(|q| q.values())
                .map(|(_, len)| *len)
                .sum();
            prop_assert_eq!(meters.stored_bytes(Service::Sqs), sqs_expect);
        }
    }
}

// --- SimpleDB stored-bytes gauge under batch ops, vs an exact shadow ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simpledb_stored_bytes_gauge_survives_batch_ops(
        ops in proptest::collection::vec(
            (0u8..4, 0u8..5, 0u8..4, 0u8..6),
            1..50,
        ),
    ) {
        // The sharded SimpleDB settles its gauge per shard; a batch put
        // settles a whole group under several shard locks at once.
        // Interleave point puts and deletes (whole items and single
        // attributes) with batch puts and pin the gauge against a shadow
        // that replays SimpleDB's multi-valued-set semantics exactly.
        use pass_cloud::simpledb::{DeletableAttribute, ReplaceableAttribute, SimpleDb};
        use pass_cloud::simworld::Service;
        use std::collections::{BTreeMap, BTreeSet};

        let world = SimWorld::counting();
        let db = SimpleDb::with_shards(&world, 4);
        db.create_domain("d").unwrap();
        let items = ["a", "b", "c", "dd", "e"];
        let mut shadow: BTreeMap<String, BTreeMap<String, BTreeSet<String>>> = BTreeMap::new();
        let shadow_bytes = |m: &BTreeMap<String, BTreeMap<String, BTreeSet<String>>>| -> u64 {
            m.values()
                .flat_map(|item| {
                    item.iter().flat_map(|(name, values)| {
                        values.iter().map(move |v| (name.len() + v.len()) as u64)
                    })
                })
                .sum()
        };
        let apply_shadow = |shadow: &mut BTreeMap<String, BTreeMap<String, BTreeSet<String>>>,
                                item: &str,
                                attr: u8,
                                value: u8| {
            shadow
                .entry(item.to_string())
                .or_default()
                .entry(format!("attr{attr}"))
                .or_default()
                .insert(format!("v{value}"));
        };

        for (kind, islot, attr, value) in ops {
            let item = items[(islot % 5) as usize];
            match kind {
                0 => {
                    // Point put: one additive attribute.
                    db.put_attributes(
                        "d",
                        item,
                        &[ReplaceableAttribute::add(
                            format!("attr{attr}"),
                            format!("v{value}"),
                        )],
                    )
                    .unwrap();
                    apply_shadow(&mut shadow, item, attr, value);
                }
                1 => {
                    // Batch put: this item and its neighbour, two
                    // attributes each.
                    let other = items[((islot + 1) % 5) as usize];
                    let entry = |it: &str| {
                        (
                            it.to_string(),
                            vec![
                                ReplaceableAttribute::add(
                                    format!("attr{attr}"),
                                    format!("v{value}"),
                                ),
                                ReplaceableAttribute::add(
                                    format!("attr{}", (attr + 1) % 4),
                                    format!("v{}", (value + 1) % 6),
                                ),
                            ],
                        )
                    };
                    db.batch_put_attributes("d", &[entry(item), entry(other)])
                        .unwrap();
                    for it in [item, other] {
                        apply_shadow(&mut shadow, it, attr, value);
                        apply_shadow(&mut shadow, it, (attr + 1) % 4, (value + 1) % 6);
                    }
                }
                2 => {
                    // Point delete: whole item (idempotent).
                    db.delete_attributes("d", item, None::<&[DeletableAttribute]>)
                        .unwrap();
                    shadow.remove(item);
                }
                _ => {
                    // Point delete: one attribute name off the neighbour.
                    let other = items[((islot + 2) % 5) as usize];
                    let spec = [DeletableAttribute::all_of(format!("attr{attr}"))];
                    db.delete_attributes("d", other, Some(&spec[..])).unwrap();
                    if let Some(entry) = shadow.get_mut(other) {
                        entry.remove(&format!("attr{attr}"));
                        if entry.is_empty() {
                            shadow.remove(other);
                        }
                    }
                }
            }
            prop_assert_eq!(
                world.meters().stored_bytes(Service::SimpleDb),
                shadow_bytes(&shadow)
            );
            // Authoritative views agree item-for-item.
            let names: Vec<String> = shadow.keys().cloned().collect();
            prop_assert_eq!(db.latest_item_names("d"), names);
        }
    }
}

// --- incremental closure index vs an exact transitive closure ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_closure_matches_exact_transitive_closure(
        nodes in proptest::collection::vec(
            (any::<bool>(), any::<u64>(), 0u8..3),
            2..14,
        ),
        group_sizes in proptest::collection::vec(1usize..4, 1..14),
        daemon_bits in any::<u64>(),
    ) {
        // Random DAG: node i may take any earlier node as a parent, so
        // commits see file->file, file->proc, proc->file and proc->proc
        // edges in every order. The flushes land in arbitrary batch
        // groupings with daemon drains interleaved; the stored closure
        // must still equal an exact from-first-principles transitive
        // closure, and the index engine must answer Q3 exactly like the
        // walk engine.
        use pass_cloud::cloud::layout::{closure_row_name, CLOSURE_ATTR_ANC, CLOSURE_DOMAIN};
        use pass_cloud::cloud::{
            Arch3Config, ClosureMode, ProvQuery, ProvenanceStore, S3SimpleDbSqs, Serveable,
        };
        use pass_cloud::simpledb::pairs;
        use pass_cloud::simworld::Op;
        use std::collections::{BTreeMap, BTreeSet};

        const PROGRAMS: [&str; 3] = ["alpha", "beta", "gamma"];

        // Build the DAG and its flushes.
        let n = nodes.len();
        let name = |i: usize, is_proc: bool| {
            if is_proc { format!("p{i}") } else { format!("f{i}") }
        };
        let mut parents: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut flushes = Vec::with_capacity(n);
        for (i, &(is_proc, mask, prog)) in nodes.iter().enumerate() {
            let mine: Vec<usize> = (0..i)
                .filter(|j| (mask >> (j % 64)) & 1 == 1)
                .take(4)
                .collect();
            let mut builder = FileFlush::builder(name(i, is_proc));
            if is_proc {
                builder = builder
                    .process()
                    .record("name", PROGRAMS[prog as usize]);
            } else {
                builder = builder.data(Blob::synthetic(i as u64, 64));
            }
            for &j in &mine {
                builder = builder.record("input", &format!("{}:1", name(j, nodes[j].0)));
            }
            parents.push(mine);
            flushes.push(builder.build());
        }

        // Exact ancestor sets by memoised recursion over the edge list.
        let render = |i: usize| format!("{}:1", name(i, nodes[i].0));
        let mut anc: Vec<BTreeSet<String>> = Vec::with_capacity(n);
        for ps in &parents {
            let mut mine = BTreeSet::new();
            for &j in ps {
                mine.insert(render(j));
                mine.extend(anc[j].iter().cloned());
            }
            anc.push(mine);
        }
        let mut desc: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
        for (i, mine) in desc.iter_mut().enumerate() {
            for (j, up) in anc.iter().enumerate() {
                if up.contains(&render(i)) {
                    mine.insert(render(j));
                }
            }
        }

        // Persist in arbitrary groups with daemon drains interleaved.
        let world = SimWorld::counting();
        let mut store = S3SimpleDbSqs::new(&world, "closure-prop");
        store.set_config(Arch3Config {
            closure: ClosureMode::Serve,
            ..Arch3Config::default()
        });
        let mut cursor = 0usize;
        for (round, &size) in group_sizes.iter().enumerate() {
            if cursor >= n {
                break;
            }
            let end = (cursor + size).min(n);
            store.persist_batch(&flushes[cursor..end]).unwrap();
            cursor = end;
            if (daemon_bits >> (round % 64)) & 1 == 1 {
                store.run_daemons_until_idle().unwrap();
            }
        }
        if cursor < n {
            store.persist_batch(&flushes[cursor..n]).unwrap();
        }
        store.run_daemons_until_idle().unwrap();
        world.settle();

        // Every fragment folds into its base: a logical row is the
        // node's ancestors, and the posted lookup on `a` — what the serve
        // path and the repair rule issue — is its descendants.
        let db = store.simpledb().clone();
        let mut stored_anc: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for item in db.latest_item_names(CLOSURE_DOMAIN) {
            let stored = db.latest_item(CLOSURE_DOMAIN, &item).unwrap_or_default();
            let values = pairs(&stored).into_iter().filter(|(name, _)| *name == CLOSURE_ATTR_ANC);
            stored_anc.entry(closure_row_name(&item).to_string()).or_default().extend(values.map(|(_, v)| v.to_string()));
        }
        for i in 0..n {
            let item = format!("{} 1", name(i, nodes[i].0));
            prop_assert_eq!(stored_anc.get(&item), Some(&anc[i]));
            let expr = format!("['{CLOSURE_ATTR_ANC}' = '{}']", render(i));
            let found = db.query(CLOSURE_DOMAIN, Some(&expr), Some(250), None).unwrap();
            prop_assert!(found.next_token.is_none());
            let looked_up: BTreeSet<String> = found
                .item_names
                .iter()
                .filter_map(|hit| Some(ObjectRef::parse_item_name(closure_row_name(hit))?.render()))
                .collect();
            prop_assert_eq!(&looked_up, &desc[i]);
        }
        prop_assert_eq!(stored_anc.len(), n);

        // The store answers Q3 from its index, item for item like the
        // walk — the store's read side with the index off.
        let walk = store.serve_parts().walking();
        for prog in PROGRAMS.iter().chain(["delta"].iter()) {
            let q = ProvQuery::DescendantsOf { program: (*prog).to_string() };
            let before = world.meters();
            let indexed = store.query(&q).unwrap();
            let cost = world.meters() - before;
            // Names-only lookups are the index engine's; the walk reads
            // attributes with every generation.
            prop_assert!(cost.op_count(Op::SdbQuery) > 0);
            prop_assert_eq!(cost.op_count(Op::SdbQueryWithAttributes), 0);
            prop_assert_eq!(indexed, walk.query(&q).unwrap());
        }
    }
}

// --- end-to-end persist/read invariant, randomised ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_flush_round_trips_on_every_architecture(
        seed in any::<u64>(),
        data_len in 0u64..50_000,
        env_len in 0usize..6_000,
        n_inputs in 0usize..10,
    ) {
        use pass_cloud::cloud::ArchKind;
        for kind in ArchKind::ALL {
            let world = SimWorld::counting();
            let mut store = kind.build(&world);
            let mut builder = FileFlush::builder("prop/out.dat")
                .data(Blob::synthetic(seed, data_len))
                .record("env", &"e".repeat(env_len));
            for i in 0..n_inputs {
                builder = builder.record("input", &format!("prop/in{i}.dat:1"));
            }
            let flush = builder.build();
            store.persist(&flush).unwrap();
            store.run_daemons_until_idle().unwrap();
            world.settle();
            let read = store.read("prop/out.dat").unwrap();
            prop_assert!(read.consistent());
            prop_assert_eq!(read.data.md5(), flush.data.md5());
            // All records present (order may differ on SimpleDB).
            let mut got: Vec<_> = read.records.iter().map(|r| r.to_pair()).collect();
            let mut want: Vec<_> = flush.records.iter().map(|r| r.to_pair()).collect();
            got.sort();
            want.sort();
            prop_assert_eq!(got, want);
        }
    }
}

// --- WAL codec: the codec this one replaced, kept as the oracle ---

/// One record of each variant from generated parts.
fn wal_record(
    variant: usize,
    txid: u64,
    number: u32,
    texts: Vec<String>,
    pairs: Vec<(String, String)>,
) -> WalRecord {
    let [a, b, c] = <[String; 3]>::try_from(texts).expect("three texts");
    match variant {
        0 => WalRecord::Begin {
            txid,
            records: number,
        },
        1 => WalRecord::Data {
            txid,
            temp_key: a,
            name: b,
            version: number,
            nonce: c,
        },
        2 => WalRecord::Prov {
            txid,
            item_name: a,
            pairs,
        },
        3 => WalRecord::Md5 {
            txid,
            item_name: a,
            md5_hex: b,
            nonce: c,
        },
        _ => WalRecord::Commit { txid },
    }
}

/// Nine pairs that make `Prov { txid: 7, item_name: "item 1", .. }` encode
/// to exactly `len` bytes, the last one's value padded to fit.
fn pairs_encoding_to(len: usize) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> =
        (0..9).map(|i| (format!("k{i}"), "v".repeat(100))).collect();
    let record = |pairs: &[(String, String)]| WalRecord::Prov {
        txid: 7,
        item_name: "item 1".to_string(),
        pairs: pairs.to_vec(),
    };
    let pad = len
        .checked_sub(record(&pairs).encoded_len())
        .expect("len covers the unpadded record");
    pairs[8].1.push_str(&"p".repeat(pad));
    assert_eq!(record(&pairs).encode().len(), len);
    pairs
}

#[test]
fn wal_chunker_equals_the_oracle_at_the_message_limit() {
    let same = |pairs: &[(String, String)]| {
        let chunks = chunk_pairs(7, "item 1", pairs.to_vec());
        assert_eq!(chunks, wal_oracle::chunk_pairs(7, "item 1", pairs));
        chunks.len()
    };
    // Exactly on the limit and one under stay one chunk; one over splits.
    assert_eq!(same(&pairs_encoding_to(MAX_MESSAGE_SIZE)), 1);
    assert_eq!(same(&pairs_encoding_to(MAX_MESSAGE_SIZE - 1)), 1);
    assert_eq!(same(&pairs_encoding_to(MAX_MESSAGE_SIZE + 1)), 2);
    // A pair that alone exceeds the limit is left alone in its chunk,
    // wherever it falls.
    let huge = ("env".to_string(), "e".repeat(MAX_MESSAGE_SIZE + 10));
    let small = ("type".to_string(), "file".to_string());
    assert_eq!(same(std::slice::from_ref(&huge)), 1);
    assert_eq!(same(&[small.clone(), huge.clone(), small.clone()]), 3);
    assert_eq!(same(&[huge.clone(), huge, small]), 3);
    // 200 × 500 B, where the oracle re-encodes the chunk per pair.
    let many: Vec<(String, String)> = (0..200)
        .map(|i| (format!("env{i}"), "v".repeat(500)))
        .collect();
    assert!(same(&many) > 10);
    assert_eq!(same(&[]), 0);
}

/// The WAL codec as it was before the encoder streamed and the chunker
/// counted (commit `e0adccb`): a `Vec<String>` of escaped fields joined,
/// a field `Vec` indexed, a chunk trial-encoded per pair. Slow, obvious,
/// and the definition of the bytes on the queue.
mod wal_oracle {
    use super::{WalRecord, MAX_MESSAGE_SIZE};

    const SEP: char = '\u{1f}';

    fn esc(s: &str) -> String {
        s.replace('%', "%25").replace(SEP, "%1F")
    }

    fn unesc(s: &str) -> String {
        s.replace("%1F", "\u{1f}").replace("%25", "%")
    }

    pub fn encode(record: &WalRecord) -> String {
        let mut fields: Vec<String> = Vec::new();
        match record {
            WalRecord::Begin { txid, records } => {
                fields.extend(["B".into(), txid.to_string(), records.to_string()]);
            }
            WalRecord::Data {
                txid,
                temp_key,
                name,
                version,
                nonce,
            } => {
                fields.extend([
                    "D".into(),
                    txid.to_string(),
                    esc(temp_key),
                    esc(name),
                    version.to_string(),
                    esc(nonce),
                ]);
            }
            WalRecord::Prov {
                txid,
                item_name,
                pairs,
            } => {
                fields.extend(["P".into(), txid.to_string(), esc(item_name)]);
                for (k, v) in pairs {
                    fields.push(esc(k));
                    fields.push(esc(v));
                }
            }
            WalRecord::Md5 {
                txid,
                item_name,
                md5_hex,
                nonce,
            } => {
                fields.extend([
                    "M".into(),
                    txid.to_string(),
                    esc(item_name),
                    esc(md5_hex),
                    esc(nonce),
                ]);
            }
            WalRecord::Commit { txid } => {
                fields.extend(["C".into(), txid.to_string()]);
            }
        }
        fields.join(&SEP.to_string())
    }

    pub fn decode(s: &str) -> Option<WalRecord> {
        let fields: Vec<&str> = s.split(SEP).collect();
        let txid: u64 = fields.get(1)?.parse().ok()?;
        match *fields.first()? {
            "B" => {
                let records: u32 = fields.get(2)?.parse().ok()?;
                (fields.len() == 3).then_some(WalRecord::Begin { txid, records })
            }
            "D" => {
                if fields.len() != 6 {
                    return None;
                }
                Some(WalRecord::Data {
                    txid,
                    temp_key: unesc(fields[2]),
                    name: unesc(fields[3]),
                    version: fields[4].parse().ok()?,
                    nonce: unesc(fields[5]),
                })
            }
            "P" => {
                if fields.len() < 3 || !(fields.len() - 3).is_multiple_of(2) {
                    return None;
                }
                let item_name = unesc(fields[2]);
                let pairs = fields[3..]
                    .chunks_exact(2)
                    .map(|c| (unesc(c[0]), unesc(c[1])))
                    .collect();
                Some(WalRecord::Prov {
                    txid,
                    item_name,
                    pairs,
                })
            }
            "M" => {
                if fields.len() != 5 {
                    return None;
                }
                Some(WalRecord::Md5 {
                    txid,
                    item_name: unesc(fields[2]),
                    md5_hex: unesc(fields[3]),
                    nonce: unesc(fields[4]),
                })
            }
            "C" => (fields.len() == 2).then_some(WalRecord::Commit { txid }),
            _ => None,
        }
    }

    pub fn chunk_pairs(txid: u64, item_name: &str, pairs: &[(String, String)]) -> Vec<WalRecord> {
        let mut out = Vec::new();
        let mut current: Vec<(String, String)> = Vec::new();
        for pair in pairs {
            current.push(pair.clone());
            let candidate = WalRecord::Prov {
                txid,
                item_name: item_name.to_string(),
                pairs: current.clone(),
            };
            if encode(&candidate).len() > MAX_MESSAGE_SIZE && current.len() > 1 {
                let overflowed = current.pop().expect("non-empty");
                out.push(WalRecord::Prov {
                    txid,
                    item_name: item_name.to_string(),
                    pairs: std::mem::take(&mut current),
                });
                current.push(overflowed);
            }
        }
        if !current.is_empty() {
            out.push(WalRecord::Prov {
                txid,
                item_name: item_name.to_string(),
                pairs: current,
            });
        }
        out
    }
}
