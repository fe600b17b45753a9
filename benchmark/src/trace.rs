//! The traced run: the same frame sequences as the untraced run, with
//! spans recorded by the benchmark's own wrappers around each layer's
//! public functions. Nothing inside the program is instrumented.
//!
//! Per class, the wire span (around `Client::*`) is split into the codec
//! time of the same values, the serve span of a twin in-process replay
//! (around `ServeHandle::*`, on one thread, as the wire run has one
//! connection), and what is left: transport. A class the selected
//! workload does not send is profiled on a short replay of the
//! workload that owns it, so every name always carries a value measured
//! in this run.
//!
//! What the one-core measured run cannot show — two connections on two
//! cores contending for the store's locks — is measured by the pair
//! phase ([`run_pair`]), without a bound: two connections over the wire
//! (`client.throughput_2c_ops_s`, `client.scaling_2c`) and a two-thread
//! twin replay (`core.serve_scaling_2t.*`). The traced run starts it as
//! a child process, because it must not share this one's heap: here
//! every thread allocates from one arena (`crate::mem`), and two threads
//! would contend for the allocator's lock instead of the program's.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use costmodel::{cost_of, PriceBook};
use simworld::{MeterSnapshot, Service};

use crate::drive::{closed_phase, OneCore, WindowOut, WindowPlan};
use crate::probes::layer_probes;
use crate::report::Metric;
use crate::run::{
    rounds_report, summarize_closed, summarize_open, Inputs, Rounds, RunResult, Session, Shape,
    Stopwatch, Tally,
};
use crate::spec::{per_layer, Class, Spec, Workload, CONNECTIONS, PAIR};
use crate::stack::{Served, Store, Target};
use crate::stats::{best, p50, sorted, us, Better};

/// Everything measured about one class in one traced replay.
#[derive(Debug, Default)]
struct ClassProfile {
    wire: Vec<u64>,
    codec: Vec<u64>,
    bytes: Vec<u64>,
    /// Serve spans of the twin replay.
    serve: Vec<u64>,
    /// Billed S3 / SimpleDB / SQS requests over the twin replay, and the
    /// frames they are spread over.
    ops: [u64; 3],
    frames: u64,
}

type Profiles = BTreeMap<Class, ClassProfile>;

fn mean(samples: &[u64]) -> f64 {
    samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64
}

fn add_wire_spans(profiles: &mut Profiles, windows: &[(WindowOut, MeterSnapshot)]) {
    for span in windows
        .iter()
        .flat_map(|(w, _)| &w.conns)
        .flat_map(|c| &c.spans)
    {
        let profile = profiles.entry(span.class).or_default();
        profile.wire.push(span.ns);
        profile.codec.push(u64::from(span.codec_ns));
        profile.bytes.push(u64::from(span.bytes));
    }
}

/// The twin replay: a second store with the same preload, driven in
/// process through `ServeHandle` on one thread with every frame of
/// `inputs`' windows, the billing meters read after every frame.
fn add_twin(profiles: &mut Profiles, spec: &Spec, inputs: &Inputs) {
    let twin = Store::new(spec);
    twin.apply(&inputs.corpus);
    let mut handle = twin.handle.clone();
    let mut before = twin.world.meters();
    for planned in inputs.plans.iter().flat_map(|p| &p.windows).flatten() {
        let start = Instant::now();
        let result = handle.call(&planned.op);
        let ns = start.elapsed().as_nanos() as u64;
        std::hint::black_box(&result);
        let after = twin.world.meters();
        let delta = after.clone() - before;
        before = after;
        // A `Flush` exists to commit the records before it: its
        // requests are charged to them, its time is not.
        let class = match planned.op.class() {
            Class::Flush => Class::Record,
            class => {
                let profile = profiles.entry(class).or_default();
                profile.serve.push(ns);
                profile.frames += 1;
                class
            }
        };
        let profile = profiles.entry(class).or_default();
        for (slot, service) in profile.ops.iter_mut().zip(Service::ALL) {
            *slot += delta.service_ops(service);
        }
    }
}

/// Connection set-up and the smallest possible round trip: a one-byte
/// frame no decoder accepts, answered by a fault reply. Needs both
/// server workers free, so the session's own connections must be closed.
fn frontend_probes(served: &Served) -> [Metric; 2] {
    const BAD_TAG: [u8; 1] = [0xEE];
    let mut connects = Vec::with_capacity(200);
    for _ in 0..200 {
        let start = Instant::now();
        let mut client = served.connect();
        client.raw_round_trip(&BAD_TAG).expect("fault reply");
        connects.push(start.elapsed().as_nanos() as u64);
    }
    let mut client = served.connect();
    let mut trips = Vec::with_capacity(5_000);
    for _ in 0..5_000 {
        let start = Instant::now();
        std::hint::black_box(client.raw_round_trip(&BAD_TAG).expect("fault reply"));
        trips.push(start.elapsed().as_nanos() as u64);
    }
    [
        Metric::new("frontend.connect_us", us(p50(&sorted(connects))), "us", 200),
        Metric::new("frontend.idle_rtt_us", us(p50(&sorted(trips))), "us", 5_000),
    ]
}

/// Windows each step of the pair phase sends.
const PAIR_WINDOWS: usize = 16;
/// Windows of a twin replay, and of the wire replay of a workload the
/// run did not select.
const TWIN_WINDOWS: usize = 8;

/// What a twin replays: [`TWIN_WINDOWS`] windows of [`PAIR`] connections.
fn twin_inputs(workload: Workload, seed: u64) -> Inputs {
    let shape = Shape::closed_only(PAIR, workload.spec().window_frames, TWIN_WINDOWS);
    Inputs::generate(workload, seed, &shape)
}

/// A short traced replay of a workload the run did not select: set-up,
/// warm-up and [`TWIN_WINDOWS`] traced windows on one core, then the
/// twin. Returns its profiles and its tally.
fn foreign_profiles(workload: Workload, seed: u64) -> (Profiles, Tally) {
    let spec = workload.spec();
    let mut profiles = Profiles::new();
    let tally = {
        let _one_core = OneCore::pin();
        let shape = Shape::closed_only(CONNECTIONS, spec.window_frames, TWIN_WINDOWS);
        let mut session = Session::set_up(workload, seed, &shape);
        let windows = session.windows(|_| true);
        add_wire_spans(&mut profiles, &windows);
        drop(session.clients);
        session.served.shutdown();
        session.tally
    };
    add_twin(&mut profiles, spec, &twin_inputs(workload, seed));
    (profiles, tally)
}

fn class_metrics(class: Class, profile: &ClassProfile, out: &mut Vec<Metric>) {
    let c = class.label();
    let wire = us(p50(&sorted(profile.wire.clone())));
    let codec = us(p50(&sorted(profile.codec.clone())));
    let serve = us(p50(&sorted(profile.serve.clone())));
    let n = profile.wire.len();
    out.push(Metric::new(format!("frontend.wire_us.{c}"), wire, "us", n));
    out.push(Metric::new(
        format!("frontend.codec_us.{c}"),
        codec,
        "us",
        n,
    ));
    // By construction codec + transport + serve = wire.
    out.push(Metric::new(
        format!("frontend.transport_self_us.{c}"),
        wire - codec - serve,
        "us",
        n,
    ));
    out.push(Metric::new(
        format!("frontend.frame_bytes.{c}"),
        p50(&sorted(profile.bytes.clone())) as f64,
        "B",
        n,
    ));
    out.push(Metric::new(
        format!("core.serve_us.{c}"),
        serve,
        "us",
        profile.serve.len(),
    ));
    for (svc, ops) in ["s3", "simpledb", "sqs"].into_iter().zip(profile.ops) {
        out.push(Metric::new(
            format!("{svc}.ops_per_op.{c}"),
            ops as f64 / profile.frames.max(1) as f64,
            "count",
            profile.frames as usize,
        ));
    }
}

/// The traced run: every per-layer metric.
pub fn run_traced(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    let spec = workload.spec();
    let shape = Shape::of_run(workload, seconds, true);
    let limit = Duration::from_micros(spec.limit_us);
    let mut watch = Stopwatch::start();
    // As in the untraced run, everything that is compared with it runs
    // on one core.
    let one_core = OneCore::pin();
    // Every other window traced: the gap between the two halves'
    // throughputs is what tracing itself costs, whatever the store's
    // growth does to both.
    let mut closed_rounds = Rounds::default();
    let mut session = closed_rounds.block(
        Spec::closed_budget(seconds),
        || Session::set_up(workload, seed, &shape),
        |window| window % 2 == 1,
    );
    watch.lap(&format!("{} rounds", closed_rounds.setup_secs.len()));
    eprintln!("{}", rounds_report(&closed_rounds));
    let same_state = closed_rounds.same_state();
    let Rounds {
        windows,
        per_round,
        tally: earlier,
        ..
    } = closed_rounds;
    let closed = summarize_closed(&windows);
    let usd: f64 = windows
        .iter()
        .map(|(_, meters)| cost_of(meters, 0.0, &PriceBook::january_2009()).operations_total())
        .sum();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for (index, window) in windows.into_iter().enumerate() {
        if index % per_round % 2 == 1 {
            traced.push(window);
        } else {
            untraced.push(window);
        }
    }
    let overhead =
        1.0 - summarize_closed(&traced).throughput / summarize_closed(&untraced).throughput;
    let mut profiles = Profiles::new();
    add_wire_spans(&mut profiles, &traced);
    drop((traced, untraced));
    let open = summarize_open(&session.open(0), limit, shape.open_secs);
    watch.lap("open loop");

    // The ladder: a rung holds when its tail meets the limit and the
    // generator is not still falling behind at the rung's end.
    let mut max_rate_ok = 0.0;
    for (rung, &rate) in spec.ladder.iter().enumerate() {
        let step = summarize_open(&session.open(rung + 1), limit, shape.ladder_secs);
        let holds =
            step.tail_us <= spec.limit_us as f64 && step.late_end_us <= spec.limit_us as f64;
        eprintln!(
            "ladder {rate} 1/s: tail {:.0} us, end lateness {:.0} us, {}",
            step.tail_us,
            step.late_end_us,
            if holds { "holds" } else { "fails" }
        );
        if holds {
            max_rate_ok = rate;
        }
    }
    watch.lap("ladder");

    session.clients.clear();
    let frontend = frontend_probes(&session.served);
    let inputs = &session.inputs;
    let observe_us = inputs.observe_time.as_secs_f64() * 1e6 / inputs.observe_events.max(1) as f64;
    let gen_us = inputs.gen_time.as_secs_f64() * 1e6 / inputs.gen_ops.max(1) as f64;
    let (observe_events, gen_ops) = (inputs.observe_events as usize, inputs.gen_ops);
    drop(one_core);

    let (mut tally, mut agree) = session.verify();
    tally.merge(earlier);
    agree &= same_state;
    watch.lap("gates");

    add_twin(&mut profiles, spec, &twin_inputs(workload, seed));
    watch.lap("twin");

    let mut foreign: BTreeMap<&str, Profiles> = BTreeMap::new();
    let mut metrics = Vec::new();
    for class in Class::REPORTED {
        if spec.classes.contains(&class) {
            class_metrics(class, &profiles[&class], &mut metrics);
            continue;
        }
        let owner = class.owner();
        let owned = foreign.entry(owner.spec().name).or_insert_with(|| {
            let (profiles, theirs) = foreign_profiles(owner, seed);
            tally.merge(theirs);
            profiles
        });
        class_metrics(class, &owned[&class], &mut metrics);
    }
    watch.lap("other workloads' classes");
    metrics.extend(frontend);
    metrics.extend(layer_probes(seed));
    watch.lap("layer probes");
    // Under `cargo test` this executable is the test harness, which
    // cannot be asked for a pair phase.
    let pair = if cfg!(test) {
        run_pair(workload, seed)
    } else {
        pair_child(workload, seed, seconds)
    };
    watch.lap("pair phase");
    eprintln!("{}", watch.report());
    tally.merge(Tally {
        attempted: pair.attempted,
        failed: pair.failed,
        wrong: 0,
        first_error: pair.complaints.first().cloned(),
    });
    agree &= pair.correct;
    metrics.extend(pair.metrics);

    let m = Metric::new;
    metrics.extend([
        m(
            "pass.observe_us_per_event",
            observe_us,
            "us",
            observe_events,
        ),
        m("workloads.gen_us_per_op", gen_us, "us", gen_ops),
        m(
            "costmodel.usd_per_million_ops",
            usd / closed.ops as f64 * 1e6,
            "USD",
            closed.ops,
        ),
        m("client.lat_p99_us", closed.tail_us, "us", closed.frames).at(closed.tail_percentile),
        m("client.open_p99_us", open.tail_us, "us", open.arrivals).at(open.tail_percentile),
        m(
            "client.gen_late_p99_us",
            open.late_tail_us,
            "us",
            open.arrivals,
        ),
        m(
            "client.max_rate_ok_ops_s",
            max_rate_ok,
            "1/s",
            spec.ladder.len(),
        ),
        m("trace.overhead_share", overhead, "share", closed.ops),
    ]);
    tally.into_result(agree, metrics)
}

/// The classes whose two-thread scaling is reported.
const SCALED: [Class; 4] = [Class::Read, Class::Q1, Class::Q3Index, Class::Record];

/// A twin replay of `workload` twice over: [`TWIN_WINDOWS`] windows of
/// both connections' frames alone on one thread, then as many more one
/// thread per connection, one per core. Adds `(2 × mean serve time
/// alone / mean beside the other thread, spans)` for each [`SCALED`]
/// class the workload sends: 2 is perfect scaling, 1 a serial section.
fn twin_scaling(workload: Workload, seed: u64, out: &mut BTreeMap<Class, (f64, usize)>) {
    let spec = workload.spec();
    let shape = Shape::closed_only(PAIR, spec.window_frames, 2 * TWIN_WINDOWS);
    let inputs = Inputs::generate(workload, seed, &shape);
    let twin = Store::new(spec);
    twin.apply(&inputs.corpus);
    let world = &twin.world;
    let mut spans: [BTreeMap<Class, Vec<u64>>; 2] = Default::default();
    let plan = |range: std::ops::Range<usize>, conns: &[usize]| -> Vec<WindowPlan> {
        range
            .map(|window| WindowPlan {
                conns: conns
                    .iter()
                    .map(|&c| inputs.plans[c].windows[window].as_slice())
                    .collect(),
                traced: false,
            })
            .collect()
    };
    // Alone: connection 0's windows, then connection 1's, on one thread.
    let alone: Vec<WindowPlan> = (0..PAIR)
        .flat_map(|conn| plan(0..TWIN_WINDOWS, &[conn]))
        .collect();
    let both = plan(TWIN_WINDOWS..2 * TWIN_WINDOWS, &[0, 1]);
    let mut one = [twin.handle.clone()];
    let mut two = [twin.handle.clone(), twin.handle.clone()];
    let runs = [
        closed_phase(&mut one, &alone, &|| world.meters()),
        closed_phase(&mut two, &both, &|| world.meters()),
    ];
    for (spans, run) in spans.iter_mut().zip(&runs) {
        for span in run
            .iter()
            .flat_map(|(w, _)| &w.conns)
            .flat_map(|c| &c.spans)
        {
            spans.entry(span.class).or_default().push(span.ns);
        }
    }
    for class in SCALED {
        if let (Some(alone), Some(beside)) = (spans[0].get(&class), spans[1].get(&class)) {
            // A class already measured on the selected workload stays.
            out.entry(class)
                .or_insert((2.0 * mean(alone) / mean(beside), beside.len()));
        }
    }
}

/// The pair phase, with glibc's heap as it comes (an arena per thread):
/// [`PAIR_WINDOWS`] windows of one connection on one core, the same of
/// two connections on two cores against a second stack — best window of
/// each, and their ratio — and the two-thread twin replays.
pub fn run_pair(workload: Workload, seed: u64) -> RunResult {
    let spec = workload.spec();
    let best_rate = |conns: usize| {
        let shape = Shape::closed_only(conns, spec.window_frames, PAIR_WINDOWS);
        let mut session = Session::set_up(workload, seed, &shape);
        let windows = session.windows(|_| false);
        let rates: Vec<f64> = windows.iter().map(|(w, _)| w.throughput()).collect();
        let ops: usize = windows.iter().map(|(w, _)| w.ops()).sum();
        drop(windows);
        let (tally, agree) = session.verify();
        (best(&rates, Better::Higher), ops, tally, agree)
    };
    let (alone_rate, _, mut tally, mut agree) = {
        let _one_core = OneCore::pin();
        best_rate(CONNECTIONS)
    };
    let (pair_rate, pair_ops, theirs, pair_agrees) = best_rate(PAIR);
    tally.merge(theirs);
    agree &= pair_agrees;

    let mut scaling = BTreeMap::new();
    twin_scaling(workload, seed, &mut scaling);
    for class in SCALED {
        if !scaling.contains_key(&class) {
            twin_scaling(class.owner(), seed, &mut scaling);
        }
    }
    let m = Metric::new;
    let mut metrics = vec![
        m("client.throughput_2c_ops_s", pair_rate, "1/s", pair_ops),
        m(
            "client.scaling_2c",
            pair_rate / alone_rate,
            "ratio",
            pair_ops,
        ),
    ];
    for (class, (ratio, spans)) in scaling {
        metrics.push(Metric::new(
            format!("core.serve_scaling_2t.{}", class.label()),
            ratio,
            "ratio",
            spans,
        ));
    }
    tally.into_result(agree, metrics)
}

/// [`run_pair`] in a child process (`--pair`), read back from the table
/// it prints. A child that fails, or prints something else, comes back
/// as a run that is not correct.
fn pair_child(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    let broken = |why: String| RunResult {
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        complaints: vec![why],
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return broken(format!("pair phase: no path to this executable: {e}")),
    };
    let output = Command::new(exe)
        .args(["--workload", workload.spec().name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--pair")
        .stderr(Stdio::inherit())
        .output();
    let output = match output {
        Ok(output) => output,
        Err(e) => return broken(format!("pair phase: could not start: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let declared = per_layer();
    let mut result = Tally::default().into_result(output.status.success(), Vec::new());
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["==", _, "attempted", attempted, "failed", failed, ..] => {
                result.attempted = attempted.parse().unwrap_or(0);
                result.failed = failed.parse().unwrap_or(0);
            }
            ["!!", ..] => result.complaints.push(format!("pair phase: {line}")),
            [name, value, _, samples] => {
                let unit = declared.iter().find(|d| d.name == *name).map(|d| d.unit);
                let samples = samples.strip_prefix("n=").and_then(|n| n.parse().ok());
                if let (Some(unit), Ok(value), Some(samples)) = (unit, value.parse(), samples) {
                    result
                        .metrics
                        .push(Metric::new(*name, value, unit, samples));
                }
            }
            _ => {}
        }
    }
    if !result.correct && result.complaints.is_empty() {
        result.complaints.push("pair phase failed".into());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::per_layer;
    use std::collections::BTreeSet;

    /// A one-second traced run emits exactly the per-layer names
    /// `BENCHMARK.json` declares, its gates pass, and the attribution
    /// closes by construction.
    #[test]
    fn traced_smoke_run_reports_every_declared_layer_metric() {
        let result = run_traced(Workload::MixedClosure, 3, 1);
        assert!(result.correct, "{:?}", result.complaints);
        let got: BTreeSet<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
        let declared = per_layer();
        let want: BTreeSet<&str> = declared.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, want);
        assert_eq!(result.metrics.len(), declared.len(), "no name twice");
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        for class in Class::REPORTED {
            let c = class.label();
            let parts = value(&format!("frontend.codec_us.{c}"))
                + value(&format!("frontend.transport_self_us.{c}"))
                + value(&format!("core.serve_us.{c}"));
            assert!(
                (parts - value(&format!("frontend.wire_us.{c}"))).abs() < 1e-6,
                "{c}"
            );
            assert!(value(&format!("frontend.wire_us.{c}")) > 0.0, "{c}");
        }
    }
}
