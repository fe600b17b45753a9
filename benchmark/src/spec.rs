//! The benchmark's fixed definitions: workloads, frozen rates and
//! limits, and the metric tables. `BENCHMARK.json` is
//! [`describe`]'s output; a self-test keeps the two identical.

use std::time::Duration;

use provenance_cloud::ClosureMode;

/// Client connections the measured run drives. One, with the whole
/// process pinned to one core: on this shared two-vCPU host a second
/// busy thread measures the hypervisor's scheduler, not the program
/// (two connections on two cores swung 50 k–107 k frames/s between
/// quarter-second windows of one commit; one connection on one core
/// holds within a few percent).
pub const CONNECTIONS: usize = 1;
/// Connections of the traced run's pair phase and of its twin replay:
/// one per core, for the numbers that need real contention.
pub const PAIR: usize = 2;
/// Server worker threads: one per connection the pair phase opens.
pub const WORKERS: usize = 2;
/// `BENCHMARK.json`'s `run_seconds`. The number of closed-loop rounds
/// and the open-loop phase scale with `--seconds`; a round's and a
/// window's size do not.
pub const RUN_SECONDS: u64 = 28;
/// Share of `--seconds` the closed-loop rounds go on for, both blocks of
/// the untraced run together: a new round (fresh set-up, warm-up,
/// windows) starts until this much has passed.
pub const CLOSED_SHARE: f64 = 0.7;
/// Share of `--seconds` the open-loop phase lasts.
pub const OPEN_SHARE: f64 = 0.2;
/// An ingest connection sends `Flush` after this many `Record` frames.
pub const FLUSH_EVERY: usize = 64;

/// `corpus_std`: pipelines preloaded before the read workloads.
pub const CORPUS_PIPELINES: usize = 400;
/// Stages per pipeline (each one process + one derived file).
pub const STAGES: usize = 4;
/// Program groups per stage: stage `k` of pipeline `p` runs
/// `s{k}g{p % GROUPS}`, so each program has `400 / 80 = 5` invocations.
pub const GROUPS: usize = 80;
/// Flushes one pipeline produces: source + (process + file) per stage.
pub const PIPELINE_FLUSHES: usize = 1 + 2 * STAGES;

/// Command classes the per-layer metrics are broken down by.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Class {
    Record,
    RecordBatch,
    Read,
    Q1,
    Q2,
    Q3,
    Q3Index,
    /// `Flush` frames: in every latency sample, in no class breakdown.
    Flush,
}

impl Class {
    /// The classes with per-layer breakdowns, in reporting order.
    pub const REPORTED: [Class; 7] = [
        Class::Record,
        Class::RecordBatch,
        Class::Read,
        Class::Q1,
        Class::Q2,
        Class::Q3,
        Class::Q3Index,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Class::Record => "record",
            Class::RecordBatch => "record_batch",
            Class::Read => "read",
            Class::Q1 => "q1",
            Class::Q2 => "q2",
            Class::Q3 => "q3",
            Class::Q3Index => "q3_index",
            Class::Flush => "flush",
        }
    }

    /// The workload whose traced replay is the reference for this
    /// class's per-layer numbers.
    pub fn owner(self) -> Workload {
        match self {
            Class::Record | Class::Flush => Workload::IngestWal,
            Class::Read | Class::Q1 => Workload::PointRead,
            Class::Q2 | Class::Q3 => Workload::GraphQuery,
            Class::RecordBatch | Class::Q3Index => Workload::MixedClosure,
        }
    }
}

/// The four workloads.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    IngestWal,
    PointRead,
    GraphQuery,
    MixedClosure,
}

/// One workload's frozen definition.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what it stresses, its open-loop
    /// rate and its latency limit.
    pub why: &'static str,
    /// arch3 (S3+SimpleDB+SQS) instead of arch2 (S3+SimpleDB).
    pub arch3: bool,
    pub closure: ClosureMode,
    /// Preload `corpus_std` (and its closure index) before serving.
    pub preload: bool,
    /// Non-`Flush` frames the connection sends per closed-loop window:
    /// 50–100 ms' worth, a whole number of class-mix cycles (and of
    /// flush intervals on `ingest_wal`), so that every window of every
    /// seed holds the same work.
    pub window_frames: usize,
    /// Measured windows of one round, back to back after one warm-up
    /// window: about a second's worth. Many short ones: the host slows
    /// this VM down by a fifth to two fifths for seconds at a time, so
    /// only a short window can fall wholly into a quiet spell, and only
    /// many of them, over many seconds, make it likely that one does.
    pub windows: usize,
    /// MiB of heap touched before anything is timed (`crate::mem`): what
    /// an untraced run at [`RUN_SECONDS`] holds at its largest, and a
    /// fifth more.
    pub heap_mib: usize,
    /// Open-loop aggregate arrival rate, frames/s — absolute, frozen.
    pub open_rate: f64,
    /// Open-loop latency limit from due time, µs.
    pub limit_us: u64,
    /// Traced-run rate ladder, frames/s: 25/50/75/100 % of the
    /// one-connection closed-loop throughput (best window) recorded
    /// when the benchmark was defined.
    pub ladder: [f64; 4],
    /// The classes this workload sends.
    pub classes: &'static [Class],
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IngestWal,
        Workload::PointRead,
        Workload::GraphQuery,
        Workload::MixedClosure,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.spec().name == name)
    }

    pub fn spec(self) -> &'static Spec {
        match self {
            Workload::IngestWal => &INGEST_WAL,
            Workload::PointRead => &POINT_READ,
            Workload::GraphQuery => &GRAPH_QUERY,
            Workload::MixedClosure => &MIXED_CLOSURE,
        }
    }
}

static INGEST_WAL: Spec = Spec {
    name: "ingest_wal",
    why: "arch3 point Record stream, Flush every 64, empty store: WAL send, temp PUT, writer mutex, commit daemon; query engine idle. Open loop 4000/s, limit 50 ms.",
    arch3: true,
    closure: ClosureMode::Off,
    preload: false,
    // 11 flush intervals.
    window_frames: 704,
    windows: 16,
    heap_mib: 288,
    open_rate: 4_000.0,
    limit_us: 50_000,
    ladder: [5_000.0, 10_000.0, 15_000.0, 20_000.0],
    classes: &[Class::Record],
};

static POINT_READ: Spec = Spec {
    name: "point_read",
    why: "arch2, 50% verified Read + 50% Q1 on Zipf(0.99) keys of corpus_std: round trip is mostly frontend and the world lock, not store work. Open loop 10000/s, limit 10 ms.",
    arch3: false,
    closure: ClosureMode::Off,
    preload: true,
    window_frames: 3_760,
    windows: 24,
    heap_mib: 112,
    open_rate: 10_000.0,
    limit_us: 10_000,
    ladder: [17_000.0, 34_000.0, 51_000.0, 68_000.0],
    classes: &[Class::Read, Class::Q1],
};

static GRAPH_QUERY: Spec = Spec {
    name: "graph_query",
    why: "arch2, 80% Q2 + 20% Q3 generation-at-a-time walk, uniform programs: ms-scale SimpleDB scans and query decode, frontend under 2%; mirror of point_read. Open loop 100/s, limit 250 ms.",
    arch3: false,
    closure: ClosureMode::Off,
    preload: true,
    window_frames: 20,
    windows: 12,
    heap_mib: 64,
    open_rate: 100.0,
    limit_us: 250_000,
    ladder: [62.0, 125.0, 187.0, 250.0],
    classes: &[Class::Q2, Class::Q3],
};

static MIXED_CLOSURE: Spec = Spec {
    name: "mixed_closure",
    why: "arch2 closure Serve: 5% RecordBatch of a new pipeline, 30% Read, 30% Q1, 35% index-served Q3, uniform keys: index upkeep beside index reads, writers beside readers. Open loop 2000/s, limit 50 ms.",
    arch3: false,
    closure: ClosureMode::Serve,
    preload: true,
    window_frames: 460,
    windows: 16,
    heap_mib: 368,
    open_rate: 2_000.0,
    limit_us: 50_000,
    ladder: [1_750.0, 3_500.0, 5_250.0, 7_000.0],
    classes: &[Class::RecordBatch, Class::Read, Class::Q1, Class::Q3Index],
};

impl Spec {
    /// How long a run at `seconds` keeps starting closed-loop rounds.
    pub fn closed_budget(seconds: u64) -> Duration {
        Duration::from_secs_f64(seconds as f64 * CLOSED_SHARE)
    }

    /// MiB of heap to touch before a run at `seconds`. What grows with
    /// `--seconds` is the open loop's share of the store and of the
    /// frames; a traced run's ladder sends up to three times as many
    /// again.
    pub fn heap_at(&self, seconds: u64, traced: bool) -> usize {
        let scaled = self.heap_mib * seconds as usize / RUN_SECONDS as usize;
        scaled.max(64) * if traced { 9 } else { 4 } / 4
    }

    /// Seconds one rung of the traced rate ladder lasts.
    pub fn ladder_step_secs(seconds: u64) -> f64 {
        seconds as f64 / RUN_SECONDS as f64
    }
}

/// A metric's declaration in `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, better: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    }
}

fn layer(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics every workload reports.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        e2e("setup_s", "s", "lower", 0.25),
        e2e("throughput_ops_s", "1/s", "higher", 0.25),
        e2e("lat_p50_us", "us", "lower", 0.25),
        e2e("open_slo_share", "share", "higher", 0.25),
        e2e("completed_share", "share", "higher", 0.01),
        e2e("billed_ops_per_op", "count", "lower", 0.02),
        e2e("billed_kib_per_op", "KiB", "lower", 0.02),
        e2e("live_heap_mib", "MiB", "lower", 0.10),
    ]
}

/// The per-layer metrics a traced run reports.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    for class in Class::REPORTED {
        let c = class.label();
        defs.push(layer(format!("frontend.wire_us.{c}"), "us", "lower"));
        defs.push(layer(format!("frontend.codec_us.{c}"), "us", "lower"));
        defs.push(layer(
            format!("frontend.transport_self_us.{c}"),
            "us",
            "lower",
        ));
        defs.push(layer(format!("frontend.frame_bytes.{c}"), "B", "lower"));
        defs.push(layer(format!("core.serve_us.{c}"), "us", "lower"));
        for svc in ["s3", "simpledb", "sqs"] {
            defs.push(layer(format!("{svc}.ops_per_op.{c}"), "count", "lower"));
        }
    }
    defs.push(layer("frontend.idle_rtt_us", "us", "lower"));
    defs.push(layer("frontend.connect_us", "us", "lower"));
    for c in ["read", "q1", "q3_index", "record"] {
        defs.push(layer(
            format!("core.serve_scaling_2t.{c}"),
            "ratio",
            "higher",
        ));
    }
    for (name, unit) in [
        ("core.arch2.persist_us", "us"),
        ("core.arch2.persist_batch_us_per_record", "us"),
        ("core.arch3.persist_us", "us"),
        ("core.arch3.persist_batch_us_per_record", "us"),
        ("core.arch3.drain_us_per_record_b64", "us"),
        ("core.arch3.drain_us_per_record_b2048", "us"),
        ("core.closure.maintain_us_per_record", "us"),
        ("core.closure.ops_per_record", "count"),
        ("core.serve.fingerprint_ms", "ms"),
        ("simworld.record_op_ns", "ns"),
        ("simworld.record_op_ns_2t", "ns"),
        ("simworld.meters_snapshot_us", "us"),
        ("simpledb.get_attributes_us", "us"),
        ("simpledb.query_with_attributes_us", "us"),
        ("simpledb.put_attributes_us", "us"),
        ("simpledb.batch_put_us_per_item", "us"),
        ("simpledb.stored_bytes_per_record", "B"),
        ("s3.put_object_us", "us"),
        ("s3.get_object_us", "us"),
        ("s3.head_object_us", "us"),
        ("s3.copy_object_us", "us"),
        ("s3.stored_bytes_per_record", "B"),
        ("sqs.send_message_us", "us"),
        ("sqs.receive_message_us", "us"),
        ("sqs.delete_message_us", "us"),
        ("sqs.messages_after_flush", "count"),
        ("pass.observe_us_per_event", "us"),
        ("workloads.gen_us_per_op", "us"),
        ("costmodel.usd_per_million_ops", "USD"),
        ("client.lat_p99_us", "us"),
        ("client.open_p99_us", "us"),
        ("client.gen_late_p99_us", "us"),
        ("trace.overhead_share", "share"),
    ] {
        defs.push(layer(name, unit, "lower"));
    }
    defs.push(layer("simworld.lock_scaling_2t", "ratio", "higher"));
    defs.push(layer("client.max_rate_ok_ops_s", "1/s", "higher"));
    defs.push(layer("client.throughput_2c_ops_s", "1/s", "higher"));
    defs.push(layer("client.scaling_2c", "ratio", "higher"));
    defs
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn describe() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            let spec = w.spec();
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(spec.name),
                json_str(spec.why)
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_is_the_programs_own_description() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            describe(),
            "regenerate with `benchmark --describe > BENCHMARK.json`"
        );
    }

    #[test]
    fn metric_tables_respect_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert_eq!(e2e.len(), 8);
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let names: BTreeSet<&str> = e2e
            .iter()
            .chain(&layers)
            .map(|m| m.name.as_str())
            .chain(Workload::ALL.iter().map(|w| w.spec().name))
            .collect();
        assert_eq!(
            names.len(),
            e2e.len() + layers.len() + 4,
            "names are unique"
        );
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in &e2e {
            assert!(m.bound.unwrap() <= 0.25);
        }
        for w in Workload::ALL {
            assert!(w.spec().why.len() <= 200, "{}", w.spec().name);
        }
        assert!(describe().len() < 64 * 1024);
    }

    #[test]
    fn every_reported_class_has_an_owner_that_sends_it() {
        for class in Class::REPORTED {
            assert!(class.owner().spec().classes.contains(&class), "{class:?}");
        }
    }
}
