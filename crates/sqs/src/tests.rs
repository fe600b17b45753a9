//! Unit tests for the SQS simulator.

use simworld::{Op, Service, SimDuration, SimWorld};

use crate::{Sqs, SqsError, DEFAULT_VISIBILITY_TIMEOUT, MAX_MESSAGE_SIZE, RETENTION};

fn setup(seed: u64) -> (SimWorld, Sqs, String) {
    let world = SimWorld::new(seed);
    let sqs = Sqs::new(&world);
    let url = sqs.create_queue("q");
    (world, sqs, url)
}

/// Drains a queue by repeating ReceiveMessage (sampling means a single
/// call is never authoritative), deleting everything received.
fn drain(sqs: &Sqs, url: &str, expected: usize) -> Vec<String> {
    let mut bodies = Vec::new();
    let mut idle_rounds = 0;
    while bodies.len() < expected && idle_rounds < 200 {
        let got = sqs.receive_message(url, 10).unwrap();
        if got.is_empty() {
            idle_rounds += 1;
            continue;
        }
        idle_rounds = 0;
        for msg in got {
            bodies.push(msg.body.to_string());
            sqs.delete_message(url, &msg.receipt_handle).unwrap();
        }
    }
    bodies
}

#[test]
fn send_receive_delete_round_trip() {
    let (_, sqs, url) = setup(1);
    sqs.send_message(&url, "hello").unwrap();
    let bodies = drain(&sqs, &url, 1);
    assert_eq!(bodies, vec!["hello"]);
    assert_eq!(sqs.exact_message_count(&url), 0);
}

#[test]
fn create_queue_is_idempotent_and_urls_are_stable() {
    let (_, sqs, url) = setup(2);
    sqs.send_message(&url, "x").unwrap();
    let url2 = sqs.create_queue("q");
    assert_eq!(url, url2);
    assert_eq!(
        sqs.exact_message_count(&url2),
        1,
        "recreate must not clear the queue"
    );
}

#[test]
fn message_size_limit() {
    let (_, sqs, url) = setup(3);
    let at_limit = "x".repeat(MAX_MESSAGE_SIZE);
    sqs.send_message(&url, at_limit).unwrap();
    let over = "x".repeat(MAX_MESSAGE_SIZE + 1);
    assert!(matches!(
        sqs.send_message(&url, over),
        Err(SqsError::MessageTooLong { .. })
    ));
}

#[test]
fn receive_respects_batch_limit() {
    let (_, sqs, url) = setup(4);
    assert!(matches!(
        sqs.receive_message(&url, 11),
        Err(SqsError::ReceiveCountOutOfRange { requested: 11 })
    ));
    for i in 0..50 {
        sqs.send_message(&url, format!("m{i}")).unwrap();
    }
    for _ in 0..20 {
        assert!(sqs.receive_message(&url, 10).unwrap().len() <= 10);
    }
}

#[test]
fn sampling_can_miss_messages_but_repetition_finds_all() {
    let (_, sqs, url) = setup(5);
    for i in 0..40 {
        sqs.send_message(&url, format!("m{i:02}")).unwrap();
    }
    // One receive is usually partial (40 messages spread over 8 servers,
    // half sampled, max 10 returned).
    let first = sqs.receive_message(&url, 10).unwrap();
    assert!(first.len() <= 10);
    // Repetition plus deletion retrieves every message exactly once.
    let mut bodies: Vec<String> = first
        .iter()
        .map(|m| {
            sqs.delete_message(&url, &m.receipt_handle).unwrap();
            m.body.to_string()
        })
        .collect();
    bodies.extend(drain(&sqs, &url, 40 - bodies.len()));
    bodies.sort();
    let expected: Vec<String> = (0..40).map(|i| format!("m{i:02}")).collect();
    assert_eq!(bodies, expected);
}

#[test]
fn visibility_timeout_hides_then_redelivers() {
    let (world, sqs, url) = setup(6);
    sqs.send_message(&url, "once").unwrap();
    // Find it.
    let msg = loop {
        let got = sqs.receive_message(&url, 10).unwrap();
        if let Some(m) = got.into_iter().next() {
            break m;
        }
    };
    // While invisible, repeated receives never return it.
    for _ in 0..30 {
        assert!(sqs.receive_message(&url, 10).unwrap().is_empty());
    }
    // After the visibility timeout it reappears (crash-recovery path).
    world.advance(DEFAULT_VISIBILITY_TIMEOUT + SimDuration::from_secs(1));
    let again = loop {
        let got = sqs.receive_message(&url, 10).unwrap();
        if let Some(m) = got.into_iter().next() {
            break m;
        }
    };
    assert_eq!(again.message_id, msg.message_id);
    assert_ne!(
        again.receipt_handle, msg.receipt_handle,
        "new delivery, new handle"
    );
}

#[test]
fn configurable_visibility_timeout() {
    let (world, sqs, url) = setup(7);
    sqs.set_visibility_timeout(&url, SimDuration::from_secs(2))
        .unwrap();
    sqs.send_message(&url, "m").unwrap();
    while sqs.receive_message(&url, 10).unwrap().is_empty() {}
    world.advance(SimDuration::from_secs(3));
    // Visible again already after 3s.
    let mut seen = false;
    for _ in 0..50 {
        if !sqs.receive_message(&url, 10).unwrap().is_empty() {
            seen = true;
            break;
        }
    }
    assert!(seen);
}

#[test]
fn delete_with_stale_handle_is_harmless() {
    let (world, sqs, url) = setup(8);
    sqs.send_message(&url, "m").unwrap();
    let first = loop {
        let got = sqs.receive_message(&url, 10).unwrap();
        if let Some(m) = got.into_iter().next() {
            break m;
        }
    };
    world.advance(DEFAULT_VISIBILITY_TIMEOUT + SimDuration::from_secs(1));
    let second = loop {
        let got = sqs.receive_message(&url, 10).unwrap();
        if let Some(m) = got.into_iter().next() {
            break m;
        }
    };
    // Delete via the *old* handle, then replay the delete via the new one.
    sqs.delete_message(&url, &first.receipt_handle).unwrap();
    sqs.delete_message(&url, &second.receipt_handle).unwrap();
    assert_eq!(sqs.exact_message_count(&url), 0);
}

#[test]
fn malformed_receipt_handle_rejected() {
    let (_, sqs, url) = setup(9);
    assert!(matches!(
        sqs.delete_message(&url, "garbage"),
        Err(SqsError::InvalidReceiptHandle { .. })
    ));
    assert!(matches!(
        sqs.delete_message(&url, "rh/q/notanumber/1"),
        Err(SqsError::InvalidReceiptHandle { .. })
    ));
}

#[test]
fn missing_queue_errors() {
    let (_, sqs, _) = setup(10);
    let bad = "https://sqs.sim/never-created";
    assert!(matches!(
        sqs.send_message(bad, "x"),
        Err(SqsError::QueueDoesNotExist { .. })
    ));
    assert!(matches!(
        sqs.receive_message(bad, 1),
        Err(SqsError::QueueDoesNotExist { .. })
    ));
    assert!(matches!(
        sqs.approximate_number_of_messages(bad),
        Err(SqsError::QueueDoesNotExist { .. })
    ));
}

#[test]
fn approximate_count_is_in_the_right_ballpark() {
    let (_, sqs, url) = setup(11);
    for i in 0..200 {
        sqs.send_message(&url, format!("m{i}")).unwrap();
    }
    // Average several approximations; each samples half the servers and
    // extrapolates, so the mean should land near 200.
    let total: usize = (0..32)
        .map(|_| sqs.approximate_number_of_messages(&url).unwrap())
        .sum();
    let mean = total / 32;
    assert!(
        (100..=300).contains(&mean),
        "mean approximation {mean} too far from 200"
    );
}

#[test]
fn retention_expires_old_messages() {
    let (world, sqs, url) = setup(12);
    sqs.send_message(&url, "doomed").unwrap();
    world.advance(RETENTION + SimDuration::from_hours(1));
    assert_eq!(sqs.exact_message_count(&url), 0);
    assert!(sqs.receive_message(&url, 10).unwrap().is_empty());
    assert_eq!(
        world.meters().stored_bytes(Service::Sqs),
        0,
        "expiry frees storage"
    );
}

#[test]
fn best_effort_fifo_within_sample() {
    let (_, sqs, url) = setup(13);
    for i in 0..20 {
        sqs.send_message(&url, format!("{i:02}")).unwrap();
    }
    // Every batch is internally ordered by send sequence.
    for _ in 0..10 {
        let got = sqs.receive_message(&url, 10).unwrap();
        let bodies: Vec<&str> = got.iter().map(|m| &*m.body).collect();
        let mut sorted = bodies.clone();
        sorted.sort();
        assert_eq!(bodies, sorted);
    }
}

#[test]
fn billing_and_storage_gauge() {
    let (world, sqs, url) = setup(14);
    let before = world.meters();
    sqs.send_message(&url, "12345").unwrap();
    let delta = world.meters() - before;
    assert_eq!(delta.op_count(Op::SqsSendMessage), 1);
    assert_eq!(delta.bytes_in(), 5);
    assert_eq!(world.meters().stored_bytes(Service::Sqs), 5);

    let bodies = drain(&sqs, &url, 1);
    assert_eq!(bodies.len(), 1);
    assert_eq!(world.meters().stored_bytes(Service::Sqs), 0);
    assert!(world.meters().op_count(Op::SqsReceiveMessage) >= 1);
    assert_eq!(world.meters().op_count(Op::SqsDeleteMessage), 1);
}

#[test]
fn message_ids_are_unique_and_stable() {
    let (world, sqs, url) = setup(15);
    let id1 = sqs.send_message(&url, "a").unwrap();
    let id2 = sqs.send_message(&url, "b").unwrap();
    assert_ne!(id1, id2);
    // Redelivery keeps the id.
    let m = loop {
        let got = sqs.receive_message(&url, 10).unwrap();
        if let Some(m) = got.into_iter().next() {
            break m;
        }
    };
    world.advance(DEFAULT_VISIBILITY_TIMEOUT + SimDuration::from_secs(1));
    let mut redelivered = None;
    for _ in 0..100 {
        for got in sqs.receive_message(&url, 10).unwrap() {
            if got.message_id == m.message_id {
                redelivered = Some(got);
            }
        }
        if redelivered.is_some() {
            break;
        }
    }
    assert!(
        redelivered.is_some(),
        "message redelivered with the same id"
    );
}

#[test]
fn queue_names_with_slashes_round_trip() {
    // Regression: receipt handles are `rh/{name}/{seq}/{deliveries}`,
    // so a queue name containing `/` used to produce handles that
    // `DeleteMessage` rejected as invalid.
    let (_, sqs, _) = setup(20);
    let url = sqs.create_queue("team/alpha/wal");
    sqs.send_message(&url, "payload").unwrap();
    let bodies = drain(&sqs, &url, 1);
    assert_eq!(bodies, vec!["payload"]);
    assert_eq!(sqs.exact_message_count(&url), 0);
}

#[test]
fn receive_zero_is_an_error_not_a_surprise_message() {
    // Regression: `receive_message(url, 0)` used to bump the count to 1
    // and hand back a message the caller never asked for.
    let (_, sqs, url) = setup(21);
    sqs.send_message(&url, "m").unwrap();
    assert!(matches!(
        sqs.receive_message(&url, 0),
        Err(SqsError::ReceiveCountOutOfRange { requested: 0 })
    ));
    // The rejected call must not have delivered (and hidden) anything.
    let got = drain(&sqs, &url, 1);
    assert_eq!(got, vec!["m"]);
}

#[test]
fn expiry_on_send_drains_a_write_only_queue() {
    // Regression: retention was enforced only on read paths, so a
    // write-only queue's expired messages inflated the stored-bytes
    // gauge forever.
    let (world, sqs, url) = setup(22);
    sqs.send_message(&url, "x".repeat(100)).unwrap();
    assert_eq!(world.meters().stored_bytes(Service::Sqs), 100);
    world.advance(RETENTION + SimDuration::from_hours(1));
    // The next *send* — no read ever happens — must reap the corpse.
    sqs.send_message(&url, "y".repeat(7)).unwrap();
    assert_eq!(world.meters().stored_bytes(Service::Sqs), 7);
    assert_eq!(sqs.peek_all(&url), vec!["y".repeat(7)]);
}

#[test]
fn failed_send_mutates_no_state() {
    // Regression: a send to a missing queue used to burn a sequence
    // number (and an RNG draw) before failing, so the error path left
    // fingerprints on later message ids and on replay determinism.
    let run = |with_failed_send: bool| -> (String, Vec<Vec<String>>) {
        let world = SimWorld::new(23);
        let sqs = Sqs::new(&world);
        let url = sqs.create_queue("q");
        if with_failed_send {
            assert!(matches!(
                sqs.send_message("https://sqs.sim/ghost", "lost"),
                Err(SqsError::QueueDoesNotExist { .. })
            ));
        }
        let id = sqs.send_message(&url, "kept").unwrap();
        let receives = (0..10)
            .map(|_| {
                sqs.receive_message(&url, 10)
                    .unwrap()
                    .into_iter()
                    .map(|m| m.receipt_handle)
                    .collect()
            })
            .collect();
        (id, receives)
    };
    let clean = run(false);
    let with_failure = run(true);
    assert_eq!(clean.0, format!("msg-{:016x}", 1));
    assert_eq!(
        clean, with_failure,
        "an error-path send must leave the sequence, RNG and meters untouched"
    );
}

#[test]
fn peek_all_sees_everything_without_billing() {
    let (world, sqs, url) = setup(16);
    sqs.send_message(&url, "a").unwrap();
    sqs.send_message(&url, "b").unwrap();
    let before = world.meters();
    let all = sqs.peek_all(&url);
    assert_eq!(all.len(), 2);
    let delta = world.meters() - before;
    assert_eq!(delta.total_ops(), 0);
}

// --- batch operations ---

#[test]
fn send_message_batch_round_trips_in_one_request() {
    let (world, sqs, url) = setup(20);
    let bodies: Vec<String> = (0..7).map(|i| format!("b{i}")).collect();
    let before = world.meters();
    let out = sqs.send_message_batch(&url, &bodies).unwrap();
    let delta = world.meters() - before;
    assert!(out.iter().all(|r| r.is_ok()), "{out:?}");
    assert_eq!(delta.op_count(Op::SqsSendMessageBatch), 1);
    assert_eq!(delta.batch_entry_count(Op::SqsSendMessageBatch), 7);
    assert_eq!(delta.op_count(Op::SqsSendMessage), 0);
    assert_eq!(sqs.exact_message_count(&url), 7);
    let mut drained = drain(&sqs, &url, 7);
    drained.sort();
    let mut want = bodies.clone();
    want.sort();
    assert_eq!(drained, want);
}

#[test]
fn send_message_batch_allocates_contiguous_sequences() {
    let (_, sqs, url) = setup(21);
    let bodies: Vec<String> = (0..5).map(|i| format!("m{i}")).collect();
    let out = sqs.send_message_batch(&url, &bodies).unwrap();
    let ids: Vec<String> = out.into_iter().map(|r| r.unwrap()).collect();
    let want: Vec<String> = (1..=5).map(|seq| format!("msg-{seq:016x}")).collect();
    assert_eq!(
        ids, want,
        "one fetch_add reservation, contiguous and ordered"
    );
    // The next point send continues right after the reservation.
    assert_eq!(
        sqs.send_message(&url, "tail").unwrap(),
        format!("msg-{:016x}", 6)
    );
}

#[test]
fn send_message_batch_limits_are_enforced_and_mutate_nothing() {
    let (world, sqs, url) = setup(22);
    let before = world.meters();
    assert_eq!(sqs.send_message_batch(&url, &[]), Err(SqsError::EmptyBatch));
    let eleven: Vec<String> = (0..11).map(|i| format!("m{i}")).collect();
    assert_eq!(
        sqs.send_message_batch(&url, &eleven),
        Err(SqsError::TooManyBatchEntries { submitted: 11 })
    );
    // Nine 8 KB bodies: every entry is individually legal, but the sum
    // (72 KB) crosses MAX_BATCH_PAYLOAD (64 KB).
    let heavy: Vec<String> = (0..9).map(|_| "x".repeat(MAX_MESSAGE_SIZE)).collect();
    assert!(matches!(
        sqs.send_message_batch(&url, &heavy),
        Err(SqsError::BatchPayloadTooLarge { size, limit })
            if size == 9 * MAX_MESSAGE_SIZE && limit == crate::MAX_BATCH_PAYLOAD
    ));
    assert_eq!(
        sqs.send_message_batch("https://sqs.sim/nope", &eleven[..2]),
        Err(SqsError::QueueDoesNotExist {
            url: "https://sqs.sim/nope".to_string()
        })
    );
    let delta = world.meters() - before;
    assert_eq!(delta.total_ops(), 0, "rejected batches leave no trace");
    assert_eq!(sqs.exact_message_count(&url), 0);
    // And the sequence was never touched: the next send is msg 1.
    assert_eq!(
        sqs.send_message(&url, "first").unwrap(),
        format!("msg-{:016x}", 1)
    );
}

#[test]
fn failed_batch_entries_burn_no_sequence_or_rng() {
    // Two identical worlds: one submits a batch carrying a poisoned
    // entry, the other submits only the healthy entries. Everything
    // observable downstream — message ids, server placement (via the
    // shared RNG stream), meters' entry counts — must agree.
    let run = |poisoned: bool| {
        let (world, sqs, url) = setup(23);
        let mut bodies = vec!["alpha".to_string()];
        if poisoned {
            bodies.push("x".repeat(MAX_MESSAGE_SIZE + 1));
        }
        bodies.push("beta".to_string());
        let out = sqs.send_message_batch(&url, &bodies).unwrap();
        let ids: Vec<String> = out.into_iter().filter_map(|r| r.ok()).collect();
        // Drain deterministically off the same RNG stream.
        let mut drained = drain(&sqs, &url, 2);
        drained.sort();
        (
            ids,
            drained,
            world.rand_u64(),
            world.meters().batch_entry_count(Op::SqsSendMessageBatch),
        )
    };
    let clean = run(false);
    let with_failure = run(true);
    assert_eq!(
        clean.0,
        vec![format!("msg-{:016x}", 1), format!("msg-{:016x}", 2)]
    );
    assert_eq!(
        clean, with_failure,
        "a rejected entry must leave the sequence, RNG and meters untouched"
    );
}

#[test]
fn send_message_batch_reports_entry_failures_in_place() {
    let (_, sqs, url) = setup(24);
    let bodies = vec![
        "ok0".to_string(),
        "y".repeat(MAX_MESSAGE_SIZE + 5),
        "ok2".to_string(),
    ];
    let out = sqs.send_message_batch(&url, &bodies).unwrap();
    assert!(out[0].is_ok());
    assert_eq!(
        out[1],
        Err(SqsError::MessageTooLong {
            size: MAX_MESSAGE_SIZE + 5,
            limit: MAX_MESSAGE_SIZE
        })
    );
    assert!(out[2].is_ok());
    assert_eq!(sqs.exact_message_count(&url), 2);
}

#[test]
fn delete_message_batch_deletes_in_one_request() {
    let (world, sqs, url) = setup(25);
    for i in 0..6 {
        sqs.send_message(&url, format!("m{i}")).unwrap();
    }
    // Gather handles without deleting.
    sqs.set_visibility_timeout(&url, SimDuration::from_secs(3600))
        .unwrap();
    let mut handles = Vec::new();
    while handles.len() < 6 {
        for msg in sqs.receive_message(&url, 10).unwrap() {
            handles.push(msg.receipt_handle);
        }
    }
    let before = world.meters();
    let out = sqs.delete_message_batch(&url, &handles).unwrap();
    let delta = world.meters() - before;
    assert!(out.iter().all(|r| r.is_ok()));
    assert_eq!(delta.op_count(Op::SqsDeleteMessageBatch), 1);
    assert_eq!(delta.batch_entry_count(Op::SqsDeleteMessageBatch), 6);
    assert_eq!(delta.op_count(Op::SqsDeleteMessage), 0);
    assert_eq!(sqs.exact_message_count(&url), 0);
    assert_eq!(world.meters().stored_bytes(Service::Sqs), 0);
}

#[test]
fn delete_message_batch_mixed_entries() {
    let (_, sqs, url) = setup(26);
    sqs.send_message(&url, "keepalive").unwrap();
    sqs.set_visibility_timeout(&url, SimDuration::from_secs(3600))
        .unwrap();
    let mut handle = None;
    while handle.is_none() {
        handle = sqs
            .receive_message(&url, 10)
            .unwrap()
            .into_iter()
            .next()
            .map(|m| m.receipt_handle);
    }
    let handles = vec![
        handle.unwrap(),
        "not-a-handle".to_string(),
        "rh/q/999/1".to_string(), // valid shape, message long gone
    ];
    let out = sqs.delete_message_batch(&url, &handles).unwrap();
    assert!(out[0].is_ok());
    assert!(matches!(out[1], Err(SqsError::InvalidReceiptHandle { .. })));
    assert!(out[2].is_ok(), "deleting an absent message is idempotent");
    assert_eq!(sqs.exact_message_count(&url), 0);
    // Batch-level failures still mutate nothing.
    assert_eq!(
        sqs.delete_message_batch(&url, &[]),
        Err(SqsError::EmptyBatch)
    );
    let eleven: Vec<String> = (0..11).map(|i| format!("rh/q/{i}/1")).collect();
    assert_eq!(
        sqs.delete_message_batch(&url, &eleven),
        Err(SqsError::TooManyBatchEntries { submitted: 11 })
    );
}

#[test]
fn batch_send_is_cheaper_than_point_sends_in_virtual_time() {
    // The tentpole claim at the service layer: same ten messages, one
    // round trip instead of ten.
    let elapsed_point = {
        let (world, sqs, url) = setup(27);
        let t0 = world.now();
        for i in 0..10 {
            sqs.send_message(&url, format!("m{i}")).unwrap();
        }
        world.now() - t0
    };
    let elapsed_batch = {
        let (world, sqs, url) = setup(27);
        let bodies: Vec<String> = (0..10).map(|i| format!("m{i}")).collect();
        let t0 = world.now();
        sqs.send_message_batch(&url, &bodies).unwrap();
        world.now() - t0
    };
    assert!(
        elapsed_batch.as_micros() * 2 < elapsed_point.as_micros(),
        "batch {elapsed_batch:?} must undercut point sends {elapsed_point:?} by >2x"
    );
}
