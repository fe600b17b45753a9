//! One workload, end to end: closed-loop rounds — each a fresh set-up,
//! a warm-up and its windows — in two blocks, and between them one
//! open-loop phase on the first block's last stack and the correctness
//! gates.

use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use frontend::Client;
use pass::FileFlush;
use simworld::MeterSnapshot;

use crate::corpus::{corpus_std, take_frames, Op, OpStream, Oracle};
use crate::drive::{
    closed_phase, open_phase, poisson_schedule, Arrival, ConnOut, OneCore, OpenPlan, Planned,
    WindowOut, WindowPlan,
};
use crate::mem::{live_heap_mib, minor_faults};
use crate::report::Metric;
use crate::spec::{Spec, Workload, CONNECTIONS, OPEN_SHARE};
use crate::stack::{Served, Store};
use crate::stats::{best, median, p50, sorted, tail, us, Better};

/// One connection's frames for every phase of a run, in send order.
#[derive(Debug, Default)]
pub struct ConnPlan {
    pub warmup: Vec<Planned>,
    pub windows: Vec<Vec<Planned>>,
    /// Open-loop phases: the workload's own first, then (traced runs
    /// only) one per ladder rung.
    pub open: Vec<OpenPlan>,
}

impl ConnPlan {
    fn phases(&self) -> impl Iterator<Item = &Vec<Planned>> {
        std::iter::once(&self.warmup)
            .chain(&self.windows)
            .chain(self.open.iter().map(|phase| &phase.frames))
    }
}

/// How much of what a session's inputs hold.
#[derive(Copy, Clone, Debug)]
pub struct Shape {
    pub conns: usize,
    /// Non-`Flush` frames per connection per closed-loop window.
    pub window: usize,
    pub windows: usize,
    /// Seconds the workload's own open-loop phase lasts; 0 for none.
    pub open_secs: f64,
    /// Seconds one rung of the rate ladder lasts; 0 for no ladder.
    pub ladder_secs: f64,
}

impl Shape {
    /// One round of the measured run at `seconds`: one connection, its
    /// windows, the open loop.
    pub fn of_run(workload: Workload, seconds: u64, ladder: bool) -> Shape {
        Shape {
            conns: CONNECTIONS,
            window: workload.spec().window_frames,
            windows: workload.spec().windows,
            open_secs: seconds as f64 * OPEN_SHARE,
            ladder_secs: if ladder {
                Spec::ladder_step_secs(seconds)
            } else {
                0.0
            },
        }
    }

    /// Closed-loop windows only, on `conns` connections.
    pub fn closed_only(conns: usize, window: usize, windows: usize) -> Shape {
        Shape {
            conns,
            window,
            windows,
            open_secs: 0.0,
            ladder_secs: 0.0,
        }
    }
}

/// Everything generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    pub corpus: Vec<Vec<FileFlush>>,
    pub plans: Vec<ConnPlan>,
    /// Trace events fed to `pass::Observer`, and the time generating
    /// pipelines took.
    pub observe_events: u64,
    pub observe_time: Duration,
    /// Ops generated, and the time the op streams took.
    pub gen_ops: usize,
    pub gen_time: Duration,
}

fn plan(ops: Vec<Op>, oracle: Option<&Oracle>) -> Vec<Planned> {
    ops.into_iter()
        .map(|op| Planned {
            expect: oracle.and_then(|o| o.expect(&op)),
            op,
        })
        .collect()
}

impl Inputs {
    /// Generates the corpus and every connection's frames, each
    /// connection's in the order it will send them.
    pub fn generate(workload: Workload, seed: u64, shape: &Shape) -> Inputs {
        let spec = workload.spec();
        let mut observe_events = 0;
        let corpus_start = Instant::now();
        let corpus = if spec.preload {
            corpus_std(seed, &mut observe_events)
        } else {
            Vec::new()
        };
        let corpus_time = corpus_start.elapsed();
        let oracle = spec.preload.then(|| Oracle::new(&corpus));
        let oracle = oracle.as_ref();

        let gen_start = Instant::now();
        let mut gen_ops = 0;
        let per_conn = shape.conns as f64;
        let plans = (0..shape.conns)
            .map(|conn| {
                let mut stream = OpStream::new(workload, seed, conn);
                let mut take = |frames| {
                    gen_ops += frames;
                    plan(take_frames(&mut stream, frames), oracle)
                };
                let warmup = take(shape.window);
                let windows = (0..shape.windows).map(|_| take(shape.window)).collect();
                let rungs = spec.ladder.iter().map(|&rate| (rate, shape.ladder_secs));
                let open = std::iter::once((spec.open_rate, shape.open_secs))
                    .chain(rungs)
                    .filter(|&(_, secs)| secs > 0.0)
                    .zip(1u64..)
                    .map(|((rate, secs), phase)| {
                        let salt = ((phase << 8) | conn as u64) << 24;
                        let due = poisson_schedule(rate / per_conn, secs, seed ^ salt);
                        OpenPlan {
                            frames: take(due.len()),
                            due,
                        }
                    })
                    .collect();
                observe_events += stream.events;
                ConnPlan {
                    warmup,
                    windows,
                    open,
                }
            })
            .collect();
        let gen_time = gen_start.elapsed();
        Inputs {
            corpus,
            plans,
            observe_events,
            // Write workloads spend their stream time in the observer.
            observe_time: if spec.preload { corpus_time } else { gen_time },
            gen_ops,
            gen_time,
        }
    }

    /// Every group of flushes any phase writes, connection by
    /// connection in send order: a `RecordBatch` frame is one group,
    /// point `Record` frames are grouped 64 at a time.
    fn write_groups(&self) -> Vec<Vec<FileFlush>> {
        let mut groups = Vec::new();
        for plan in &self.plans {
            let mut points = Vec::new();
            for planned in plan.phases().flatten() {
                match &planned.op {
                    Op::RecordBatch(flushes) => groups.push(flushes.clone()),
                    Op::Record(flush) => points.push(flush.clone()),
                    _ => {}
                }
            }
            groups.extend(points.chunks(64).map(<[_]>::to_vec));
        }
        groups
    }
}

/// Frames sent and what went wrong with them, over every phase so far.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub first_error: Option<String>,
}

impl Tally {
    fn add<'a>(&mut self, conns: impl IntoIterator<Item = &'a ConnOut>, attempted: usize) {
        self.attempted += attempted as u64;
        for conn in conns {
            self.failed += conn.failed;
            self.wrong += conn.wrong;
            if self.first_error.is_none() {
                self.first_error.clone_from(&conn.first_error);
            }
        }
    }

    /// Folds in the tally of another session of the same run.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.first_error = self.first_error.take().or(other.first_error);
    }

    /// The run's result: correct only if no frame failed, no reply
    /// differed from the oracle, and the fingerprint gate `agree`d.
    pub fn into_result(self, agree: bool, metrics: Vec<Metric>) -> RunResult {
        let Tally {
            attempted,
            failed,
            wrong,
            first_error,
        } = self;
        let mut complaints: Vec<String> = first_error
            .iter()
            .map(|e| format!("first failure: {e}"))
            .collect();
        if !agree {
            complaints
                .push("a served store's fingerprint differs from the in-process reference's or from another round's".into());
        }
        if wrong > 0 {
            complaints.push(format!("{wrong} replies differed from the oracle"));
        }
        if failed > 0 {
            complaints.push(format!("{failed} of {attempted} frames failed"));
        }
        RunResult {
            correct: complaints.is_empty(),
            attempted,
            failed,
            metrics,
            complaints,
        }
    }
}

/// A set-up stack: the served store with its connections open, and the
/// in-process reference that holds the same preload.
#[derive(Debug)]
pub struct Session {
    pub inputs: Inputs,
    pub served: Served,
    pub reference: Store,
    pub clients: Vec<Client<UnixStream>>,
    pub tally: Tally,
}

impl Session {
    /// Set-up as `setup_s` times it: input generation, preload of the
    /// served store and of the reference, the fingerprint check that the
    /// two agree, bind, connect.
    pub fn set_up(workload: Workload, seed: u64, shape: &Shape) -> Session {
        let spec = workload.spec();
        let inputs = Inputs::generate(workload, seed, shape);
        let store = Store::new(spec);
        let reference = Store::reference(spec);
        store.apply(&inputs.corpus);
        reference.apply(&inputs.corpus);
        assert_eq!(
            store.handle.fingerprint(),
            reference.handle.fingerprint(),
            "preload diverged from the reference"
        );
        let served = Served::bind(store);
        let clients = (0..shape.conns).map(|_| served.connect()).collect();
        Session {
            inputs,
            served,
            reference,
            clients,
            tally: Tally::default(),
        }
    }

    /// Runs closed-loop windows back to back — `None` is the warm-up,
    /// `Some(i)` measured window `i`, the flag whether it is traced —
    /// and returns each with the billing-meter delta it caused.
    pub fn closed(&mut self, which: &[(Option<usize>, bool)]) -> Vec<(WindowOut, MeterSnapshot)> {
        let windows: Vec<WindowPlan> = which
            .iter()
            .map(|&(index, traced)| WindowPlan {
                conns: self
                    .inputs
                    .plans
                    .iter()
                    .map(|p| match index {
                        None => p.warmup.as_slice(),
                        Some(i) => p.windows[i].as_slice(),
                    })
                    .collect(),
                traced,
            })
            .collect();
        let world = &self.served.store.world;
        let out = closed_phase(&mut self.clients, &windows, &|| world.meters());
        let attempted = windows.iter().flat_map(|w| &w.conns).map(|p| p.len()).sum();
        self.tally
            .add(out.iter().flat_map(|(w, _)| &w.conns), attempted);
        out
    }

    /// The warm-up window, then a round's measured windows back to back
    /// (after a sleepy open-loop phase a window starts on a cold core
    /// and reads a third slower, so the two are not interleaved);
    /// `traced(i)` says whether window `i` records codec spans. Returns
    /// the measured windows with their billing deltas.
    pub fn windows(&mut self, traced: impl Fn(usize) -> bool) -> Vec<(WindowOut, MeterSnapshot)> {
        let which: Vec<_> = std::iter::once((None, false))
            .chain((0..self.inputs.plans[0].windows.len()).map(|i| (Some(i), traced(i))))
            .collect();
        self.closed(&which).split_off(1)
    }

    /// Runs open-loop phase `phase` — 0 is the workload's own, 1.. the
    /// ladder rungs — and returns its arrivals.
    pub fn open(&mut self, phase: usize) -> Vec<Arrival> {
        let plans: Vec<&OpenPlan> = self.inputs.plans.iter().map(|p| &p.open[phase]).collect();
        let out = open_phase(&mut self.clients, &plans);
        let attempted = plans.iter().map(|p| p.frames.len()).sum();
        self.tally.add(&out.conns, attempted);
        out.arrivals
    }

    /// The served store's fingerprint with nothing in flight and the WAL
    /// drained. Every round sends the same frames, so every round's must
    /// be the same.
    pub fn settled_fingerprint(&self) -> u64 {
        let handle = &self.served.store.handle;
        handle.flush().expect("drain between phases");
        handle.fingerprint()
    }

    /// Ends a round that is not the run's last: closes the connections,
    /// stops the server, gives the stores' memory back to the heap.
    /// Returns its tally.
    pub fn close(self) -> Tally {
        drop(self.clients);
        self.served.shutdown();
        self.tally
    }

    /// The fingerprint gate: drains the served store and takes its
    /// fingerprint, drops it, then applies every write the run sent to
    /// the in-process reference and compares the two fingerprints. One
    /// after the other, so that the reference grows into the heap the
    /// served store gave back and not into fresh pages. Consumes the
    /// session; returns its tally and whether they agreed.
    pub fn verify(mut self) -> (Tally, bool) {
        self.clients.clear();
        let served = self.served.shutdown();
        served.handle.flush().expect("final drain");
        let ours = served.handle.fingerprint();
        drop(served);
        self.reference.apply(&self.inputs.write_groups());
        (self.tally, ours == self.reference.handle.fingerprint())
    }
}

/// The closed-loop windows of a run, reduced.
#[derive(Debug)]
pub struct ClosedSummary {
    pub throughput: f64,
    pub p50_us: f64,
    pub tail_us: f64,
    pub tail_percentile: f64,
    pub frames: usize,
    pub ops: usize,
    pub billed_ops: u64,
    pub billed_bytes: u64,
}

/// Throughput and median round trip are the best over the windows of
/// the per-window value; the tail is taken over all windows' frames
/// pooled, so that it has the samples a p99 needs.
pub fn summarize_closed(windows: &[(WindowOut, MeterSnapshot)]) -> ClosedSummary {
    let per_window: Vec<Vec<u64>> = windows.iter().map(|(w, _)| w.latencies()).collect();
    let rates: Vec<f64> = windows.iter().map(|(w, _)| w.throughput()).collect();
    let p50s: Vec<f64> = per_window.iter().map(|l| us(p50(l))).collect();
    let pooled = sorted(per_window.concat());
    let (tail_percentile, tail_ns) = tail(&pooled);
    ClosedSummary {
        throughput: best(&rates, Better::Higher),
        p50_us: best(&p50s, Better::Lower),
        tail_us: us(tail_ns),
        tail_percentile,
        frames: pooled.len(),
        ops: windows.iter().map(|(w, _)| w.ops()).sum(),
        billed_ops: windows.iter().map(|(_, m)| m.total_ops()).sum(),
        billed_bytes: windows
            .iter()
            .map(|(_, m)| m.bytes_in() + m.bytes_out())
            .sum(),
    }
}

/// An open-loop phase, reduced.
#[derive(Debug)]
pub struct OpenSummary {
    pub tail_us: f64,
    pub tail_percentile: f64,
    pub slo_share: f64,
    pub late_tail_us: f64,
    /// Mean lateness over the last quarter of the phase, µs: a backlog
    /// that is still growing at the end shows here.
    pub late_end_us: f64,
    pub arrivals: usize,
}

/// `secs` is how long the phase lasted. The SLO share counts a failed
/// request as a miss.
pub fn summarize_open(arrivals: &[Arrival], limit: Duration, secs: f64) -> OpenSummary {
    let ns = |d: Duration| d.as_nanos() as u64;
    let latency = sorted(arrivals.iter().map(|a| ns(a.latency)).collect());
    let late = sorted(arrivals.iter().map(|a| ns(a.late)).collect());
    let met = arrivals
        .iter()
        .filter(|a| a.ok && a.latency <= limit)
        .count();
    let last_quarter: Vec<f64> = arrivals
        .iter()
        .filter(|a| a.due.as_secs_f64() >= 0.75 * secs)
        .map(|a| us(ns(a.late)))
        .collect();
    let (tail_percentile, tail_ns) = tail(&latency);
    OpenSummary {
        tail_us: us(tail_ns),
        tail_percentile,
        slo_share: met as f64 / arrivals.len().max(1) as f64,
        late_tail_us: us(tail(&late).1),
        late_end_us: last_quarter.iter().sum::<f64>() / last_quarter.len().max(1) as f64,
        arrivals: arrivals.len(),
    }
}

/// The closed-loop part of a run: rounds, in one or more blocks.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Every round's set-up time, seconds.
    pub setup_secs: Vec<f64>,
    /// Every round's measured windows, in the order they ran.
    pub windows: Vec<(WindowOut, MeterSnapshot)>,
    /// Measured windows per round.
    pub per_round: usize,
    /// The rounds that were closed, tallied; a block's last round is
    /// handed on with its session and its own tally.
    pub tally: Tally,
    /// Every round's settled fingerprint.
    fingerprints: Vec<u64>,
    /// Wall time the blocks so far took.
    spent: Duration,
}

impl Rounds {
    /// One block: runs rounds, at least one, until this and the earlier
    /// blocks have taken `until` between them. A round is a timed
    /// `set_up` from nothing, one warm-up window and the measured
    /// windows (`traced(i)` says whether a round's window `i` records
    /// codec spans); then the stack is torn down and the next round
    /// starts on a fresh one. Every round sends the same frames to a
    /// store of the same size, so window `i` holds the same work in
    /// each, a write workload's store never grows beyond one round's
    /// worth, and set-ups and windows alike are spread over the whole
    /// block. Returns the last round's stack, its windows done and
    /// still serving.
    pub fn block(
        &mut self,
        until: Duration,
        set_up: impl Fn() -> Session,
        traced: impl Fn(usize) -> bool,
    ) -> Session {
        let start = Instant::now();
        loop {
            let round = Instant::now();
            let mut session = set_up();
            self.setup_secs.push(round.elapsed().as_secs_f64());
            let measured = session.windows(&traced);
            self.per_round = measured.len();
            self.windows.extend(measured);
            self.fingerprints.push(session.settled_fingerprint());
            if self.spent + start.elapsed() < until {
                self.tally.merge(session.close());
                continue;
            }
            self.spent += start.elapsed();
            return session;
        }
    }

    /// Whether every round left the served store in the same state.
    pub fn same_state(&self) -> bool {
        self.fingerprints.iter().all(|f| *f == self.fingerprints[0])
    }
}

/// Result of one run: the contract's four fields.
#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, when it is.
    pub complaints: Vec<String>,
}

/// Wall time and page faults of a run's phases, for the stderr summary.
/// A timed phase that took thousands of faults ran out of touched heap
/// (`crate::mem`).
#[derive(Debug)]
pub struct Stopwatch {
    last: Instant,
    faults: u64,
    laps: Vec<String>,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            last: Instant::now(),
            faults: minor_faults(),
            laps: Vec::new(),
        }
    }

    pub fn lap(&mut self, phase: &str) {
        let (now, faults) = (Instant::now(), minor_faults());
        self.laps.push(format!(
            "{phase} {:.2} s ({} faults)",
            (now - self.last).as_secs_f64(),
            faults - self.faults
        ));
        (self.last, self.faults) = (now, faults);
    }

    pub fn report(&self) -> String {
        format!("phases: {}", self.laps.join(", "))
    }
}

/// Every set-up time, every window's throughput and median round trip,
/// every round's best window and the median window, and how far a round's last window sits from its first, as the median
/// over rounds: on the write workloads the store grows from window to
/// window within a round, and this is where that would show.
pub fn rounds_report(rounds: &Rounds) -> String {
    let rates: Vec<f64> = rounds.windows.iter().map(|(w, _)| w.throughput()).collect();
    let per_round: Vec<&[f64]> = rates.chunks(rounds.per_round).collect();
    let bests: Vec<u64> = per_round
        .iter()
        .map(|r| best(r, Better::Higher).round() as u64)
        .collect();
    let drifts: Vec<f64> = per_round
        .iter()
        .map(|r| r[r.len() - 1] / r[0] - 1.0)
        .collect();
    format!(
        "set-up s: {:.4?}\nwindow throughput 1/s: {:?}\nwindow p50 us: {:.1?}\nbest window of each round, 1/s: {bests:?}\nmedian window {:.0} 1/s; a round's last window against its first, median over {} rounds: {:+.1} %",
        rounds.setup_secs,
        rates.iter().map(|r| r.round() as u64).collect::<Vec<_>>(),
        rounds
            .windows
            .iter()
            .map(|(w, _)| us(p50(&w.latencies())))
            .collect::<Vec<_>>(),
        median(&rates),
        per_round.len(),
        100.0 * median(&drifts)
    )
}

/// The untraced run: the end-to-end metrics. The closed-loop rounds go
/// in two blocks, one before the open loop and the gates and one after,
/// so that between them they see the host over the whole run and not
/// over its first two thirds: the host's speed moves in steps that last
/// seconds, and the best window can only be as good as the best step
/// the rounds were there for.
pub fn run_end_to_end(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    let spec = workload.spec();
    let shape = Shape::of_run(workload, seconds, false);
    let budget = Spec::closed_budget(seconds);
    let set_up = || Session::set_up(workload, seed, &shape);
    let mut watch = Stopwatch::start();
    // Set-up and the measured phases run on one core; the gates get
    // both back.
    let one_core = OneCore::pin();
    let mut closed_rounds = Rounds::default();
    let mut session = closed_rounds.block(budget / 2, set_up, |_| false);
    let first_block = closed_rounds.setup_secs.len();
    watch.lap(&format!("{first_block} rounds"));
    let open = summarize_open(
        &session.open(0),
        Duration::from_micros(spec.limit_us),
        shape.open_secs,
    );
    watch.lap("open loop");
    // Before the gates: the reference store's growth is the benchmark's
    // memory, not the served program's.
    let live_heap = live_heap_mib();
    drop(one_core);

    let (mut tally, agree) = session.verify();
    watch.lap("gates");

    let one_core = OneCore::pin();
    let last = closed_rounds.block(budget, set_up, |_| false);
    tally.merge(last.close());
    drop(one_core);
    let setups = closed_rounds.setup_secs.len();
    watch.lap(&format!("{} rounds", setups - first_block));
    eprintln!("{}\n{}", rounds_report(&closed_rounds), watch.report());
    // As with the windows, the host only ever slows a set-up down.
    let setup_s = best(&closed_rounds.setup_secs, Better::Lower);
    let closed = summarize_closed(&closed_rounds.windows);
    let same_state = closed_rounds.same_state();
    tally.merge(closed_rounds.tally);
    let (attempted, failed) = (tally.attempted, tally.failed);

    let m = Metric::new;
    let metrics = vec![
        m("setup_s", setup_s, "s", setups),
        m("throughput_ops_s", closed.throughput, "1/s", closed.ops),
        m("lat_p50_us", closed.p50_us, "us", closed.frames),
        m("open_slo_share", open.slo_share, "share", open.arrivals),
        m(
            "completed_share",
            1.0 - failed as f64 / attempted as f64,
            "share",
            attempted as usize,
        ),
        m(
            "billed_ops_per_op",
            closed.billed_ops as f64 / closed.ops as f64,
            "count",
            closed.ops,
        ),
        m(
            "billed_kib_per_op",
            closed.billed_bytes as f64 / 1024.0 / closed.ops as f64,
            "KiB",
            closed.ops,
        ),
        m("live_heap_mib", live_heap, "MiB", 1),
    ];
    tally.into_result(agree && same_state, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The write workloads grow their store from window to window of a
    /// round. On the wall clock that shows as the drift line every run
    /// prints; here its deterministic side is pinned: requests billed per frame
    /// must not climb as the store grows.
    #[test]
    fn billed_requests_per_frame_do_not_drift_as_the_store_grows() {
        for workload in [Workload::IngestWal, Workload::MixedClosure] {
            let shape = Shape::of_run(workload, 1, false);
            let mut session = Session::set_up(workload, 11, &shape);
            let windows = session.windows(|_| false);
            assert!(!session.open(0).is_empty());
            let per_frame: Vec<f64> = windows
                .iter()
                .map(|(w, meters)| meters.total_ops() as f64 / w.ops() as f64)
                .collect();
            // Halves, not single windows: a `RecordBatch`'s requests
            // depend on the pipeline it carries.
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            let (first, last) = per_frame.split_at(per_frame.len() / 2);
            assert!(
                ((mean(last) - mean(first)) / median(&per_frame)).abs() < 0.05,
                "{workload:?}: {per_frame:?}"
            );
            assert_eq!((session.tally.failed, session.tally.wrong), (0, 0));
            let (_, agree) = session.verify();
            assert!(agree, "{workload:?}: fingerprint gate");
        }
    }

    /// Each connection's frames are generated in the order they are
    /// sent — warm-up, windows, open loop, ladder — so a pipeline that
    /// straddles two phases stays in causal order.
    #[test]
    fn frames_are_generated_in_send_order() {
        let shape = Shape {
            ladder_secs: 0.05,
            ..Shape::of_run(Workload::IngestWal, 1, false)
        };
        let inputs = Inputs::generate(Workload::IngestWal, 5, &shape);
        assert_eq!(inputs.plans.len(), CONNECTIONS);
        let plan = &inputs.plans[0];
        assert_eq!(
            (plan.windows.len(), plan.open.len()),
            (Workload::IngestWal.spec().windows, 5)
        );
        let sent: Vec<String> = plan
            .phases()
            .flatten()
            .filter_map(|p| match &p.op {
                Op::Record(flush) => Some(flush.object.render()),
                _ => None,
            })
            .collect();
        let mut stream = OpStream::new(Workload::IngestWal, 5, 0);
        let straight: Vec<String> = take_frames(&mut stream, sent.len())
            .iter()
            .filter_map(|op| match op {
                Op::Record(flush) => Some(flush.object.render()),
                _ => None,
            })
            .collect();
        assert_eq!(sent, straight);
    }

    /// Rounds go on until the budget is spent, each on a fresh stack
    /// that ends in the same state; the last one is handed on, still
    /// serving, and passes the fingerprint gate.
    #[test]
    fn rounds_repeat_the_same_windows_on_fresh_stacks_until_the_budget_is_spent() {
        let workload = Workload::MixedClosure;
        let shape = Shape::closed_only(CONNECTIONS, 40, 2);
        let set_up = || Session::set_up(workload, 13, &shape);
        let mut once = Rounds::default();
        let first = once.block(Duration::ZERO, set_up, |_| false);
        assert_eq!((once.setup_secs.len(), once.windows.len()), (1, 2));
        assert_eq!(
            once.tally.attempted, 0,
            "a block's last round keeps its tally"
        );
        assert_eq!(first.tally.attempted, 3 * 40);
        // Two blocks share one budget: the second runs until both have
        // taken it between them.
        let budget = 6 * once.spent;
        let mut more = Rounds::default();
        let middle = more.block(budget / 2, set_up, |_| false);
        let in_first = more.setup_secs.len();
        assert_eq!(middle.settled_fingerprint(), first.settled_fingerprint());
        more.tally.merge(middle.close());
        let last = more.block(budget, set_up, |_| false);
        let n = more.setup_secs.len();
        assert!(
            in_first >= 1 && n > in_first && n >= 3,
            "{in_first} then {n} rounds"
        );
        assert!(more.spent >= budget);
        assert_eq!((more.windows.len(), more.per_round), (2 * n, 2));
        assert!(more.same_state());
        assert_eq!(more.tally.attempted, (n as u64 - 1) * 3 * 40);
        // Window `i` of every round holds the same work.
        let billed: Vec<u64> = more.windows.iter().map(|(_, m)| m.total_ops()).collect();
        assert!(
            billed.chunks(2).all(|round| round == &billed[..2]),
            "{billed:?}"
        );
        let (_, agree) = last.verify();
        assert!(agree);
    }

    #[test]
    fn open_summary_counts_failures_and_late_replies_as_misses() {
        let arrival = |ms: u64, latency_ms: u64, ok| Arrival {
            due: Duration::from_millis(ms),
            latency: Duration::from_millis(latency_ms),
            late: Duration::ZERO,
            ok,
        };
        let arrivals = [
            arrival(0, 1, true),
            arrival(10, 9, true),
            arrival(20, 1, false),
            arrival(30, 2, true),
        ];
        let summary = summarize_open(&arrivals, Duration::from_millis(5), 0.04);
        assert_eq!(summary.arrivals, 4);
        assert!((summary.slo_share - 0.5).abs() < 1e-12);
    }
}
