//! Determinism pin for the modelled S3 service.
//!
//! Same shape as `sim-simpledb`'s `tests/determinism_pin.rs`: a fixed
//! script on an eventually-consistent world with the default latency
//! model and latency samples on, digested — every answer, the meters
//! after every step (ops, bytes, per-shard touches, 503s, stored bytes),
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
//! trailing draw move.
//!
//! Both digests were re-captured when hot-shard splitting was deleted:
//! the scripts lost their split steps (the mid-walk split of `b`, the
//! split of `big`, and the throttled run's split policy and per-round
//! layout line), so every later request runs on the fixed layout. The
//! constants are what `1edd029` (which still split) prints for the
//! scripts with those steps dropped.

use std::fmt::Write as _;

use sim_s3::{Metadata, MetadataDirective, S3};
use simworld::{
    fnv1a_64, Blob, Consistency, LatencyModel, SimConfig, SimDuration, SimWorld, ThrottleConfig,
};

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
        // Every scripted object is at least 20 bytes, so both ranges
        // fit whichever version the sampled replica serves.
        for (start, end) in [(0u64, 4u64), (2, 17)] {
            let got = self
                .s3
                .get_object_range(bucket, k, start..end)
                .map(|o| (o.body.to_bytes().to_vec(), o.etag, o.last_modified));
            self.step(
                &format!("get {bucket}/{k} {start}..{end}"),
                format!("{got:?}"),
            );
        }
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

    // Every write op once under a throttle that rejects it: burst 1 per
    // shard, so the second request inside a virtual second is a 503.
    s.world.settle();
    s.s3.set_throttle(Some(ThrottleConfig::per_shard(1.0)));
    s.put("b", &key(40), 30, meta(1));
    s.put("b", &key(40), 2000, meta(2));
    let r =
        s.s3.copy_object("b", &key(41), "b", &key(40), MetadataDirective::Copy);
    s.step("copy throttled", format!("{r:?}"));
    let r =
        s.s3.copy_object_ordered("b", &key(41), "b", &key(40), MetadataDirective::Copy, 5);
    s.step("copy_ordered throttled", format!("{r:?}"));
    let r = s.s3.delete_object("b", &key(40));
    s.step("delete throttled", format!("{r:?}"));
    let survivors: Vec<String> = (40..50).map(key).collect();
    let r = s.s3.delete_objects("b", &survivors);
    s.step("delete_objects throttled", format!("{r:?}"));
    s.reads("b", &key(40));
    s.world.advance(SimDuration::from_secs(2));
    let r = s.s3.delete_objects("b", &survivors);
    s.step("delete_objects admitted", format!("{r:?}"));
    let r = s.s3.delete_objects("b", &survivors);
    s.step("delete_objects throttled again", format!("{r:?}"));
    s.s3.set_throttle(None);
    s.put("b", &key(40), 10, meta(3));

    assert_eq!(
        s.finish(),
        (
            (1498, 232_163, 15_560_412_482_194_367_312),
            127_586_769,
            3_746_812_193_377_224_976
        ),
        "S3's observable behaviour diverged from the pinned script"
    );
}

/// Sustained writes against a tight per-shard throttle: puts, batch
/// deletes, copies and deletes, each admitted or answered 503 by its
/// shards' token buckets. (The name is kept from when rejections also
/// split shards.)
#[test]
fn throttled_run_with_rejection_splits_matches_the_pre_charge_constants() {
    let mut s = Script::new(2);
    s.s3.create_bucket("b").unwrap();
    s.s3.create_bucket("c").unwrap();
    s.s3.create_bucket("big").unwrap();
    s.s3.set_throttle(Some(ThrottleConfig::per_shard(4.0).with_burst(2.0)));
    for round in 0..6usize {
        for k in 0..14usize {
            s.put("b", &key(k), 30 + round as u64, meta(k + round));
        }
        let batch: Vec<String> = (round..round + 5).map(key).collect();
        let r = s.s3.delete_objects("b", &batch);
        s.step(&format!("delete_objects r{round}"), format!("{r:?}"));
        let r =
            s.s3.copy_object("b", &key(13), "c", &key(round), MetadataDirective::Copy);
        s.step(&format!("copy r{round}"), format!("{r:?}"));
        let r = s.s3.delete_object("b", &key(round + 6));
        s.step(&format!("delete r{round}"), format!("{r:?}"));
        s.world.advance(SimDuration::from_millis(300));
    }
    s.list_all("b", "");
    assert_eq!(
        s.finish(),
        (
            (317, 71_315, 7_408_253_848_868_879_959),
            6_670_017,
            6_793_087_295_636_588_539
        ),
        "throttled S3 diverged from the pinned script"
    );
}
