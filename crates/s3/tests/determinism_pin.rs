//! Determinism pin for the modelled S3 service.
//!
//! Same shape as `sim-simpledb`'s `tests/determinism_pin.rs`: a fixed
//! script on an eventually-consistent world with the default latency
//! model and latency samples on, digested — every answer, the meters
//! after every step (ops, bytes, per-shard touches, stored bytes),
//! the final clock, every request's sample and one trailing RNG draw —
//! and compared with constants.
//!
//! The constants were captured on `569462a`, the commit *before* the
//! service's charging was rewritten onto the single `SimWorld::charge`
//! seam, with this file added to otherwise untouched service code. A
//! request's meter line, its latency draw, its clock advance, its shard
//! touches and its stored-bytes delta are all in the digest, so any
//! reordering of a draw, a charge or a clock read moves it.
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
//! trailing draw move. The scripted run's pair was re-derived the same
//! way a third time when `PipelineStats` lost its stall and peak
//! counters with the adaptive depth controller: it is what `fcbaca4`
//! prints with their text cut from the `drain` line, and again only the
//! length and the hash moved.
//!
//! Both digests were re-captured when hot-shard splitting was deleted:
//! the scripts lost their split steps (the mid-walk split of `b`, the
//! split of `big`, and the rate-limited run's split policy and per-round
//! layout line), so every later request runs on the fixed layout. The
//! constants are what `1edd029` (which still split) prints for the
//! scripts with those steps dropped.
//!
//! The scripted run's digest was re-captured once more when provider
//! rate limiting (token buckets and their 503s) was deleted: the script
//! lost its two rate-limit switches and the six steps the limit
//! rejected, so its clock and trailing draw move too; each meters line
//! lost its 503 counter and each sample line its client id (both always
//! zero after that edit). The constants are what `25e0a0b`, which still
//! rate-limited, prints for the script with those steps dropped and
//! those two fields' text cut from the log. The second, rate-limited
//! script was deleted with the feature.
//!
//! It was re-captured again when ranged GETs were deleted: each `reads`
//! step lost its two ranged GETs (20 steps, 18 of them charged; the two
//! on a missing bucket were refused unbilled). Their replica and latency
//! draws are gone from the stream, so later requests sample other
//! replicas (one `obj/03/` listing walk now ends after one page, not
//! two) and the clock and trailing draw move. The constants are what
//! `dcecb7f`, which still had ranged GETs, prints for the script with
//! those steps dropped.

use std::fmt::Write as _;

use sim_s3::{Metadata, MetadataDirective, S3};
use simworld::{fnv1a_64, Blob, Consistency, LatencyModel, SimConfig, SimDuration, SimWorld};

const KEYS: usize = 60;

fn key(k: usize) -> String {
    format!("obj/{:02}/k{k:03}", k % 5)
}

fn meta(k: usize) -> Metadata {
    Metadata::from_pairs([
        ("type".to_string(), format!("t{}", k % 3)),
        ("input".to_string(), key((k * 7) % KEYS)),
    ])
}

struct Script {
    world: SimWorld,
    s3: S3,
    log: String,
}

impl Script {
    fn new(shards: usize) -> Script {
        let world = SimWorld::with_config(SimConfig {
            seed: 2009,
            consistency: Consistency::eventual(SimDuration::from_secs(30)),
            latency: LatencyModel::default(),
            replicas: 3,
        });
        world.enable_latency_samples();
        let s3 = S3::with_shards(&world, shards);
        Script {
            world,
            s3,
            log: String::new(),
        }
    }

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

    fn put(&mut self, bucket: &str, k: &str, len: u64, metadata: Metadata) {
        let body = Blob::synthetic(fnv1a_64(k), len);
        let r = self.s3.put_object(bucket, k, body, metadata);
        self.step(&format!("put {bucket}/{k} {len}"), format!("{r:?}"));
    }

    fn reads(&mut self, bucket: &str, k: &str) {
        let got = self.s3.get_object(bucket, k).map(|o| {
            (
                o.body.len(),
                o.etag,
                format!("{:?}", o.metadata),
                o.last_modified,
            )
        });
        self.step(&format!("get {bucket}/{k}"), format!("{got:?}"));
        let head = self.s3.head_object(bucket, k);
        self.step(&format!("head {bucket}/{k}"), format!("{head:?}"));
    }

    fn list_pages(&mut self, bucket: &str, prefix: &str, max_keys: usize) {
        let mut marker: Option<String> = None;
        for page in 0.. {
            let listing = self
                .s3
                .list_objects(bucket, prefix, marker.as_deref(), max_keys)
                .unwrap();
            self.step(
                &format!("list {bucket} '{prefix}' max{max_keys} p{page}"),
                format!("{listing:?}"),
            );
            marker = listing.objects.last().map(|o| o.key.clone());
            if !listing.is_truncated || marker.is_none() {
                break;
            }
        }
    }

    fn list_all(&mut self, bucket: &str, prefix: &str) {
        let all = self.s3.list_all(bucket, prefix).map(|objects| {
            let names: Vec<String> = objects
                .iter()
                .map(|o| format!("{}:{}", o.key, o.size))
                .collect();
            (names.len(), fnv1a_64(&names.join(",")))
        });
        self.step(&format!("list_all {bucket} '{prefix}'"), format!("{all:?}"));
    }

    fn finish(mut self) -> ((usize, usize, u64), u64, u64) {
        for bucket in ["b", "c", "big"] {
            let ids = self.s3.bucket_shard_ids(bucket);
            writeln!(self.log, "shards {bucket} {ids:?}").unwrap();
        }
        writeln!(self.log, "meters {:?}", self.world.meters()).unwrap();
        writeln!(self.log, "clock {:?}", self.world.now()).unwrap();
        for sample in self.world.take_latency_samples() {
            writeln!(self.log, "sample {sample:?}").unwrap();
        }
        (
            (
                self.log.lines().count(),
                self.log.len(),
                fnv1a_64(&self.log),
            ),
            self.world.now().as_micros(),
            self.world.rand_u64(),
        )
    }
}

#[test]
fn scripted_run_matches_the_pre_charge_constants() {
    let mut s = Script::new(4);
    for bucket in ["b", "c", "big", "b"] {
        let r = s.s3.create_bucket(bucket);
        s.step(&format!("create {bucket}"), format!("{r:?}"));
    }

    // Writes, overwrites (stored-bytes deltas of both signs) and one
    // refused by validation; then reads while replicas still disagree.
    for k in 0..KEYS {
        s.put("b", &key(k), 64 + (k as u64 * 37) % 900, meta(k));
    }
    for k in (0..KEYS).step_by(7) {
        s.put("b", &key(k), 20 + k as u64, Metadata::new());
    }
    s.put("missing", "k", 1, Metadata::new());
    let fat = Metadata::from_pairs([("k".to_string(), "v".repeat(3000))]);
    s.put("b", "fat", 1, fat);
    for k in [0usize, 7, 13, 59] {
        s.reads("b", &key(k));
    }
    s.reads("b", "absent");
    s.reads("missing", "k");

    // Copies inside a pipelined region: plain and order-keyed, fresh and
    // overwriting destinations, across buckets, a missing source, a
    // missing bucket and replaced metadata.
    s.world.begin_pipeline(4);
    for k in 0..12usize {
        let (src, dst) = (key(k), format!("copy/k{:03}", k % 9));
        let directive = if k % 3 == 0 {
            MetadataDirective::Replace(meta(k + 1))
        } else {
            MetadataDirective::Copy
        };
        let dst_bucket = if k % 4 == 0 { "c" } else { "b" };
        let r = if k % 2 == 0 {
            s.s3.copy_object_ordered(
                "b",
                &src,
                dst_bucket,
                &dst,
                directive,
                77 + (k as u64 / 2) % 2,
            )
        } else {
            s.s3.copy_object("b", &src, dst_bucket, &dst, directive)
        };
        s.step(
            &format!("copy {src} -> {dst_bucket}/{dst}"),
            format!("{r:?}"),
        );
    }
    let r =
        s.s3.copy_object_ordered("b", "absent", "b", "copy/none", MetadataDirective::Copy, 77);
    s.step("copy absent", format!("{r:?}"));
    let r =
        s.s3.copy_object("b", &key(1), "missing", "x", MetadataDirective::Copy);
    s.step("copy into missing bucket", format!("{r:?}"));
    let stats = s.world.drain_pipeline();
    s.step("drain", format!("{stats:?}"));

    // Listings while replicas disagree.
    s.list_pages("b", "", 7);
    s.list_pages("b", "obj/03/", 3);
    s.list_pages("c", "copy/", 1000);
    s.list_all("b", "obj/");

    // Deletes: present, absent, repeated; multi-object across shards
    // with absent and repeated keys; shape errors.
    for k in [key(3), "absent".to_string(), key(3)] {
        let r = s.s3.delete_object("b", &k);
        s.step(&format!("delete {k}"), format!("{r:?}"));
    }
    let mut doomed: Vec<String> = (10..30).map(key).collect();
    doomed.push("absent".to_string());
    doomed.push(key(10));
    let r = s.s3.delete_objects("b", &doomed);
    s.step("delete_objects", format!("{r:?}"));
    let r = s.s3.delete_objects("b", &[]);
    s.step("delete_objects empty", format!("{r:?}"));
    let r = s.s3.delete_objects("missing", &doomed);
    s.step("delete_objects missing bucket", format!("{r:?}"));
    s.world.advance(SimDuration::from_secs(12));
    for k in [3usize, 10, 40] {
        s.reads("b", &key(k));
    }

    // A bucket past one LIST page, so `list_all` paginates on its one
    // pinned view.
    for k in 0..1030usize {
        let name = format!("n{k:04}");
        let body = Blob::synthetic(k as u64, 8);
        s.s3.put_object("big", &name, body, Metadata::new())
            .unwrap();
    }
    s.step("seed big", String::new());
    s.list_all("big", "");
    s.world.settle();
    s.list_all("big", "");
    s.list_all("big", "n0");
    s.list_pages("big", "n01", 400);

    // On a settled world: a put, its reads, a multi-object delete of
    // it and nine neighbours, and a last put.
    s.world.settle();
    s.put("b", &key(40), 30, meta(1));
    let survivors: Vec<String> = (40..50).map(key).collect();
    s.reads("b", &key(40));
    s.world.advance(SimDuration::from_secs(2));
    let r = s.s3.delete_objects("b", &survivors);
    s.step("delete_objects admitted", format!("{r:?}"));
    s.put("b", &key(40), 10, meta(3));

    assert_eq!(
        s.finish(),
        (
            (1419, 193_356, 9_511_704_358_560_213_587),
            126_409_683,
            16_974_556_297_857_960_250
        ),
        "S3's observable behaviour diverged from the pinned script"
    );
}
