//! Determinism pin for the modelled SQS service.
//!
//! Same shape as `sim-simpledb`'s and `sim-s3`'s `determinism_pin.rs`: a
//! fixed script on an eventually-consistent world with the default
//! latency model and latency samples on, digested — every answer, the
//! meters after every step (ops, bytes, batch entries, stored bytes),
//! the final clock, every request's sample and one trailing RNG draw —
//! and compared with constants.
//!
//! The constants were captured on `569462a`, the commit *before* the
//! service's charging was rewritten onto the single `SimWorld::charge`
//! seam, with this file added to otherwise untouched service code. SQS
//! draws its server placements and receive samples from the same RNG
//! stream its latency jitter comes from, so a charge that moved before
//! or after one of those draws changes every later answer.
//!
//! The log digest's length and hash were re-derived twice since. Once
//! when `PipelineStats` lost its write-only per-service stall split: the
//! pipelined region's `drain` line prints that struct, and lost the
//! field's text. The new pair is what the previous commit's script gives
//! with that one field cut from the `drain` line. And once when the
//! world's event trace was deleted: the script now ends with one
//! `sample` line per charged request (in issue order) where it ended
//! with one `event` line per fired completion, and the new pair is what
//! `19e986f` (which still had the trace) prints for the script with that
//! one edit. Neither time did the line count, the final clock or the
//! trailing draw move. The pair was re-derived the same way a third
//! time when `PipelineStats` lost its stall and peak counters with the
//! adaptive depth controller: it is what `fcbaca4` prints with their
//! text cut from the `drain` line, and again only the length and the
//! hash moved.
//!
//! The whole digest was re-captured when provider rate limiting (token
//! buckets and their 503s) was deleted: the script lost its two
//! rate-limit switches and the six steps the limit rejected, so its
//! clock and trailing draw move too; each meters line lost its 503
//! counter and each sample line its client id (both always zero after
//! that edit). The constants are what `25e0a0b`, which still
//! rate-limited, prints for the script with those steps dropped and
//! those two fields' text cut from the log.

use std::fmt::Write as _;

use sim_sqs::{Sqs, MAX_MESSAGE_SIZE, RETENTION};
use simworld::{fnv1a_64, Consistency, LatencyModel, SimConfig, SimDuration, SimWorld};

struct Script {
    world: SimWorld,
    sqs: Sqs,
    log: String,
}

impl Script {
    /// Logs one step's outcome, then the whole ledger and the clock.
    fn step(&mut self, label: &str, outcome: String) {
        writeln!(self.log, "{label}: {outcome}").unwrap();
        writeln!(
            self.log,
            "  meters {:?} @ {:?}",
            self.world.meters(),
            self.world.now()
        )
        .unwrap();
    }

    fn send(&mut self, url: &str, body: String) {
        let label = format!("send {url} {}B", body.len());
        let r = self.sqs.send_message(url, body);
        self.step(&label, format!("{r:?}"));
    }

    fn send_batch(&mut self, url: &str, bodies: &[String]) {
        let r = self.sqs.send_message_batch(url, bodies);
        self.step(
            &format!("send_batch {url} x{}", bodies.len()),
            format!("{r:?}"),
        );
    }

    /// Receives `calls` times, returning every receipt handle delivered.
    fn receive(&mut self, url: &str, max: usize, calls: usize) -> Vec<String> {
        let mut handles = Vec::new();
        for call in 0..calls {
            let r = self.sqs.receive_message(url, max);
            if let Ok(msgs) = &r {
                handles.extend(msgs.iter().map(|m| m.receipt_handle.clone()));
            }
            let rendered = r.map(|msgs| {
                msgs.into_iter()
                    .map(|m| (m.message_id, m.receipt_handle, m.body.len()))
                    .collect::<Vec<_>>()
            });
            self.step(
                &format!("receive {url} max{max} #{call}"),
                format!("{rendered:?}"),
            );
        }
        handles
    }

    fn approximate(&mut self, url: &str) {
        let r = self.sqs.approximate_number_of_messages(url);
        let exact = self.sqs.exact_message_count(url);
        self.step(
            &format!("approximate {url}"),
            format!("{r:?} exact {exact}"),
        );
    }
}

fn body(tag: &str, k: usize) -> String {
    format!("{tag}-{k:03}-{}", "x".repeat((k * 131) % 700))
}

#[test]
fn scripted_run_matches_the_pre_charge_constants() {
    let world = SimWorld::with_config(SimConfig {
        seed: 2009,
        consistency: Consistency::eventual(SimDuration::from_secs(30)),
        latency: LatencyModel::default(),
        replicas: 3,
    });
    world.enable_latency_samples();
    let sqs = Sqs::new(&world);
    let mut s = Script {
        world,
        sqs,
        log: String::new(),
    };
    let wal = s.sqs.create_queue("wal/client-1");
    let other = s.sqs.create_queue("other");
    let again = s.sqs.create_queue("other");
    s.step("create", format!("{wal} {other} {again}"));
    let r = s
        .sqs
        .set_visibility_timeout(&wal, SimDuration::from_secs(2));
    s.step("visibility timeout", format!("{r:?}"));

    // Serial sends, one refused by validation, one to a missing queue.
    for k in 0..10 {
        s.send(&wal, body("serial", k));
    }
    s.send(&wal, "y".repeat(MAX_MESSAGE_SIZE + 1));
    s.send("https://sqs.sim/missing", "m".to_string());

    // A pipelined region: queue-keyed point sends and batches (one with
    // an oversized entry, one of nothing but oversized entries) to two
    // queues, so same-queue requests stay ordered and the rest overlap.
    s.world.begin_pipeline(4);
    for k in 0..8 {
        s.send(if k % 3 == 0 { &other } else { &wal }, body("piped", k));
    }
    let mut batch: Vec<String> = (0..7).map(|k| body("batch", k)).collect();
    batch.insert(3, "z".repeat(MAX_MESSAGE_SIZE + 1));
    s.send_batch(&wal, &batch);
    s.send_batch(&other, &batch[4..]);
    s.send_batch(
        &wal,
        &[
            "w".repeat(MAX_MESSAGE_SIZE + 7),
            "v".repeat(MAX_MESSAGE_SIZE + 1),
        ],
    );
    s.send_batch(&wal, &[]);
    s.send_batch(&wal, &vec!["m".to_string(); 11]);
    s.send_batch(&wal, &vec!["p".repeat(MAX_MESSAGE_SIZE); 9]);
    s.send_batch("https://sqs.sim/missing", &batch);
    let stats = s.world.drain_pipeline();
    s.step("drain", format!("{stats:?}"));

    // Receives sample servers; delivered messages hide for the timeout.
    s.approximate(&wal);
    s.approximate("https://sqs.sim/missing");
    let mut handles = s.receive(&wal, 10, 3);
    handles.extend(s.receive(&wal, 1, 2));
    let r = s.sqs.receive_message(&wal, 0);
    s.step("receive max0", format!("{r:?}"));
    let r = s.sqs.receive_message(&wal, 11);
    s.step("receive max11", format!("{r:?}"));

    // Deletes: point (present, repeated, malformed), then a batch with a
    // malformed handle and an already-deleted message.
    for handle in [
        handles[0].clone(),
        handles[0].clone(),
        "garbage".to_string(),
    ] {
        let r = s.sqs.delete_message(&wal, &handle);
        s.step(&format!("delete {handle}"), format!("{r:?}"));
    }
    let mut doomed: Vec<String> = handles.iter().take(6).cloned().collect();
    doomed.insert(2, "rh/q/notanumber/1".to_string());
    let r = s.sqs.delete_message_batch(&wal, &doomed);
    s.step("delete_batch", format!("{r:?}"));
    let r = s.sqs.delete_message_batch(&wal, &[]);
    s.step("delete_batch empty", format!("{r:?}"));
    let r = s
        .sqs
        .delete_message_batch(&wal, &vec![handles[0].clone(); 11]);
    s.step("delete_batch oversized", format!("{r:?}"));
    let r = s
        .sqs
        .delete_message_batch("https://sqs.sim/missing", &doomed);
    s.step("delete_batch missing queue", format!("{r:?}"));

    // Past the visibility timeout the undeleted deliveries come back.
    s.world.advance(SimDuration::from_secs(3));
    s.receive(&wal, 10, 2);
    s.approximate(&wal);
    s.approximate(&other);

    // A send, a receive and a batch send on the other queue.
    s.send(&wal, body("admitted", 1));
    s.receive(&wal, 10, 1);
    s.send_batch(&other, &batch[..2]);

    // Retention: everything above evaporates on the first request after
    // four days, whichever op that is — a send here, and on the other
    // queue a receive.
    s.world.advance(RETENTION);
    s.send(&wal, body("late", 0));
    s.approximate(&wal);
    s.receive(&other, 10, 1);
    s.world.advance(RETENTION + SimDuration::from_secs(1));
    s.send_batch(&wal, &batch[..3]);
    s.world.advance(RETENTION + SimDuration::from_secs(1));
    s.approximate(&wal);
    let peek = s.sqs.peek_all(&other);
    s.step("peek other", format!("{peek:?}"));

    writeln!(s.log, "meters {:?}", s.world.meters()).unwrap();
    writeln!(s.log, "clock {:?}", s.world.now()).unwrap();
    for sample in s.world.take_latency_samples() {
        writeln!(s.log, "sample {sample:?}").unwrap();
    }
    let digest = (s.log.lines().count(), s.log.len(), fnv1a_64(&s.log));
    assert_eq!(
        (digest, s.world.now().as_micros(), s.world.rand_u64()),
        (
            (165, 42_312, 12_859_645_060_215_578_528),
            1_036_806_331_581,
            4_893_321_665_485_586_288
        ),
        "SQS's observable behaviour diverged from the pinned script"
    );
}
