//! The two load drivers — closed loop (count-based windows) and open
//! loop (Poisson arrivals timed from their due time) — generic over
//! what the ops are sent to.

use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use frontend::{decode_command, decode_reply, encode_command, encode_reply, Command, Reply};
use simworld::{splitmix64, MeterSnapshot};

use crate::corpus::{answer_digest, read_digest, Op};
use crate::spec::Class;
use crate::stack::{query_of, Answer, Target};

/// An op and the digest its reply must have (`None`: nothing to check).
#[derive(Debug)]
pub struct Planned {
    pub op: Op,
    pub expect: Option<u64>,
}

/// One frame's span: the time inside [`Target::call`], and — in a
/// traced window — the codec time and wire size of the same values.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub class: Class,
    pub ns: u64,
    pub codec_ns: u32,
    pub bytes: u32,
}

/// What one connection saw in one phase.
#[derive(Debug, Default)]
pub struct ConnOut {
    pub spans: Vec<Span>,
    /// Calls that returned an error.
    pub failed: u64,
    /// Replies whose digest differed from the oracle's.
    pub wrong: u64,
    /// First failure's text, for the report.
    pub first_error: Option<String>,
}

impl ConnOut {
    fn judge(&mut self, planned: &Planned, result: &Result<Answer, String>) -> bool {
        match result {
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| e.clone());
                false
            }
            Ok(answer) => {
                let got = match answer {
                    Answer::Unit => None,
                    Answer::Read(outcome) => Some(read_digest(outcome)),
                    Answer::Query(answer) => Some(answer_digest(answer)),
                };
                if planned.expect.is_some() && got != planned.expect {
                    self.wrong += 1;
                }
                true
            }
        }
    }
}

fn command_of(op: &Op) -> Command {
    match op {
        Op::Record(flush) => Command::Record(flush.clone()),
        Op::RecordBatch(flushes) => Command::RecordBatch(flushes.clone()),
        Op::Flush => Command::Flush,
        Op::Read(name) => Command::Read(name.clone()),
        query => Command::Query(query_of(query)),
    }
}

/// Times the four codec calls a round trip makes — encode and decode of
/// the command, encode and decode of the reply — on the very values
/// that just crossed the wire, and returns `(ns, bytes on the wire)`.
fn codec_span(op: &Op, answer: Answer) -> (u32, u32) {
    let command = command_of(op);
    let reply = match answer {
        Answer::Unit => Reply::Unit,
        Answer::Read(outcome) => Reply::Read(outcome),
        Answer::Query(answer) => Reply::Query(answer),
    };
    let start = Instant::now();
    let command_bytes = encode_command(&command);
    let decoded_command = decode_command(&command_bytes);
    let reply_bytes = encode_reply(&reply);
    let decoded_reply = decode_reply(&reply_bytes);
    let ns = start.elapsed().as_nanos();
    std::hint::black_box((&decoded_command, &decoded_reply));
    // Two length prefixes of four bytes each.
    let bytes = 8 + command_bytes.len() + reply_bytes.len();
    (ns as u32, bytes as u32)
}

/// One closed-loop window's result.
#[derive(Debug)]
pub struct WindowOut {
    pub conns: Vec<ConnOut>,
    /// First send to last reply, across connections.
    pub wall: Duration,
}

impl WindowOut {
    /// Non-`Flush` frames completed.
    pub fn ops(&self) -> usize {
        self.conns
            .iter()
            .flat_map(|c| &c.spans)
            .filter(|s| s.class != Class::Flush)
            .count()
    }

    pub fn throughput(&self) -> f64 {
        self.ops() as f64 / self.wall.as_secs_f64()
    }

    /// Every frame's round trip, `Flush` frames included, ascending.
    pub fn latencies(&self) -> Vec<u64> {
        crate::stats::sorted(
            self.conns
                .iter()
                .flat_map(|c| &c.spans)
                .map(|s| s.ns)
                .collect(),
        )
    }
}

extern "C" {
    // glibc's wrappers; `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// A CPU mask of 1 024 bits, the size glibc's `cpu_set_t` has.
type CpuSet = [u64; 16];

fn affinity() -> CpuSet {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, aligned buffer of the size passed, which
    // is all the call writes.
    let _ = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    set
}

fn set_affinity(set: &CpuSet) {
    // SAFETY: `set` is a live, aligned buffer of the size passed, which
    // is all the call reads; it writes nothing. A refusal (restricted
    // cpuset) is ignored: the run is then merely noisier.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
}

/// The cores the calling thread may run on, ascending.
fn allowed_cores(set: &CpuSet) -> Vec<usize> {
    (0..64 * set.len())
        .filter(|&core| (set[core / 64] >> (core % 64)) & 1 == 1)
        .collect()
}

fn only(core: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[core / 64] = 1 << (core % 64);
    set
}

/// While it lives, the calling thread and every thread spawned from it
/// — the server's workers, the client thread — run on one core, the
/// last one allowed (interrupts tend to land on the first). A round
/// trip is then always two context switches on that core, never a
/// cross-core wake-up of a halted vCPU, and the host squeezing both
/// vCPUs onto one physical core no longer halves the result. Dropping
/// it gives the calling thread its cores back; threads already spawned
/// keep theirs.
#[derive(Debug)]
pub struct OneCore {
    before: CpuSet,
}

impl OneCore {
    pub fn pin() -> OneCore {
        let before = affinity();
        if let Some(&core) = allowed_cores(&before).last() {
            set_affinity(&only(core));
        }
        OneCore { before }
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        set_affinity(&self.before);
    }
}

/// Pins the calling client thread to the `conn`-th allowed core, one
/// connection per core. Left to itself a client thread lands on an
/// arbitrary core, and whether it shares that core with the server
/// worker it talks to decides if a round trip costs two local context
/// switches or two cross-core wake-ups. Pinned, the kernel's
/// wake-affinity tends to settle each worker beside its client.
fn pin_to_core(conn: usize) {
    let cores = allowed_cores(&affinity());
    if !cores.is_empty() {
        set_affinity(&only(cores[conn % cores.len()]));
    }
}

/// One closed-loop window's plan: each connection's frames, and whether
/// to record codec spans beside the round trips.
#[derive(Debug)]
pub struct WindowPlan<'a> {
    pub conns: Vec<&'a [Planned]>,
    pub traced: bool,
}

/// Closed loop: each target sends its frames one at a time, the next
/// only after the previous reply. One thread per target lives through
/// every window. A single target's thread runs wherever its spawner may
/// (under [`OneCore`], on that core); several are pinned one per core.
/// Windows start together at a barrier, where `meters` is read while
/// every connection is quiet; each window comes back with the billing
/// delta it caused.
pub fn closed_phase<T: Target>(
    targets: &mut [T],
    windows: &[WindowPlan],
    meters: &(dyn Fn() -> MeterSnapshot + Sync),
) -> Vec<(WindowOut, MeterSnapshot)> {
    let several = targets.len() > 1;
    let barrier = Barrier::new(targets.len());
    let snapshots = Mutex::new(Vec::with_capacity(windows.len() + 1));
    let quiet_point = || {
        if barrier.wait().is_leader() {
            snapshots.lock().expect("snapshot lock").push(meters());
        }
        barrier.wait();
    };
    let per_conn: Vec<Vec<(ConnOut, Instant, Instant)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .enumerate()
            .map(|(conn, target)| {
                let quiet_point = &quiet_point;
                scope.spawn(move || {
                    if several {
                        pin_to_core(conn);
                    }
                    let mut outs = Vec::with_capacity(windows.len());
                    for window in windows {
                        let plan = window.conns[conn];
                        let mut out = ConnOut {
                            spans: Vec::with_capacity(plan.len()),
                            ..ConnOut::default()
                        };
                        quiet_point();
                        let start = Instant::now();
                        for planned in plan {
                            let sent = Instant::now();
                            let result = target.call(&planned.op);
                            let ns = sent.elapsed().as_nanos() as u64;
                            out.judge(planned, &result);
                            let (codec_ns, bytes) = match result {
                                Ok(answer) if window.traced => codec_span(&planned.op, answer),
                                _ => (0, 0),
                            };
                            out.spans.push(Span {
                                class: planned.op.class(),
                                ns,
                                codec_ns,
                                bytes,
                            });
                        }
                        outs.push((out, start, Instant::now()));
                    }
                    quiet_point();
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let snapshots = snapshots.into_inner().expect("snapshot lock");
    let mut per_conn: Vec<_> = per_conn.into_iter().map(Vec::into_iter).collect();
    (0..windows.len())
        .map(|w| {
            let conns: Vec<_> = per_conn
                .iter_mut()
                .map(|c| c.next().expect("one result per window"))
                .collect();
            let start = conns.iter().map(|r| r.1).min().expect("a target");
            let end = conns.iter().map(|r| r.2).max().expect("a target");
            let out = WindowOut {
                conns: conns.into_iter().map(|r| r.0).collect(),
                wall: end - start,
            };
            (out, snapshots[w + 1].clone() - snapshots[w].clone())
        })
        .collect()
}

/// Poisson arrival offsets at `rate` per second over `secs`, drawn up
/// front from `seed`.
pub fn poisson_schedule(rate: f64, secs: f64, seed: u64) -> Vec<Duration> {
    let mut state = seed;
    let mut at = 0.0;
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 8);
    loop {
        let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        at += -(1.0 - u).ln() / rate;
        if at >= secs {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// One open-loop arrival's outcome.
#[derive(Copy, Clone, Debug)]
pub struct Arrival {
    /// When it was due, from the phase start.
    pub due: Duration,
    /// Due time → reply. A stall charges every request queued behind it.
    pub latency: Duration,
    /// Due time → actual send: how late the generator ran.
    pub late: Duration,
    pub ok: bool,
}

/// Sleeps, then yields, until `due`: no spinning core is taken from the
/// two server workers.
fn wait_until(due: Instant) {
    const YIELD_WINDOW: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > YIELD_WINDOW {
            std::thread::sleep(left - YIELD_WINDOW);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Open loop on one connection: arrival `i` is sent at `start + due[i]`
/// or as soon after as the previous reply allows, and timed from its
/// due time. `send(i)` performs the round trip and says whether it
/// succeeded.
pub fn open_loop(
    start: Instant,
    due: &[Duration],
    mut send: impl FnMut(usize) -> bool,
) -> Vec<Arrival> {
    let mut out = Vec::with_capacity(due.len());
    for (i, &offset) in due.iter().enumerate() {
        let due_at = start + offset;
        wait_until(due_at);
        let sent = Instant::now();
        let ok = send(i);
        out.push(Arrival {
            due: offset,
            latency: due_at.elapsed(),
            late: sent - due_at,
            ok,
        });
    }
    out
}

/// One connection's part in an open-loop phase. The non-`Flush` frames
/// are the scheduled arrivals, one per entry of `due`; a `Flush` is sent
/// right behind the record it follows — unscheduled, so its cost lands
/// on the arrivals after it.
#[derive(Debug, Default)]
pub struct OpenPlan {
    pub frames: Vec<Planned>,
    pub due: Vec<Duration>,
}

/// One open-loop phase's result.
#[derive(Debug, Default)]
pub struct OpenOut {
    pub arrivals: Vec<Arrival>,
    pub conns: Vec<ConnOut>,
}

/// Open loop over every target at once, on threads that run wherever
/// their spawner may. `plans[c]` is connection `c`'s [`OpenPlan`].
pub fn open_phase<T: Target>(targets: &mut [T], plans: &[&OpenPlan]) -> OpenOut {
    let barrier = Barrier::new(targets.len());
    let results: Vec<(Vec<Arrival>, ConnOut)> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .zip(plans)
            .map(|(target, OpenPlan { frames: plan, due })| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = ConnOut::default();
                    let mut next = 0;
                    barrier.wait();
                    let arrivals = open_loop(Instant::now(), due, |_| {
                        let planned = &plan[next];
                        next += 1;
                        let ok = out.judge(planned, &target.call(&planned.op));
                        while let Some(flush @ Planned { op: Op::Flush, .. }) = plan.get(next) {
                            next += 1;
                            out.judge(flush, &target.call(&flush.op));
                        }
                        ok
                    });
                    (arrivals, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut out = OpenOut::default();
    for (arrivals, conn) in results {
        out.arrivals.extend(arrivals);
        out.conns.push(conn);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_and_close_to_its_rate() {
        let a = poisson_schedule(5_000.0, 2.0, 11);
        assert_eq!(a, poisson_schedule(5_000.0, 2.0, 11));
        assert_ne!(a, poisson_schedule(5_000.0, 2.0, 12));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((a.len() as f64 - 10_000.0).abs() < 400.0, "{}", a.len());
        assert!(*a.last().unwrap() < Duration::from_secs(2));
    }

    /// A fake server that stalls once: the stalled request and every
    /// request that fell due behind it are charged from their due times,
    /// not from when the generator got round to sending them. Upper
    /// bounds are half the stall, so a busy test host does not trip them.
    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let step = Duration::from_millis(2);
        let stall = Duration::from_millis(60);
        let quick = stall / 2;
        let due: Vec<Duration> = (0..60).map(|i| step * i).collect();
        let arrivals = open_loop(Instant::now(), &due, |i| {
            if i == 5 {
                std::thread::sleep(stall);
            }
            true
        });
        assert_eq!(arrivals.len(), 60);
        for a in &arrivals[..5] {
            assert!(a.latency < quick, "{a:?}");
        }
        assert!(arrivals[5].latency >= stall);
        // Request 6 fell due 2 ms into the stall: it waited ~58 ms before
        // it could even be sent, and that wait is in its latency and in
        // the generator's lateness.
        assert!(
            arrivals[6].late >= Duration::from_millis(50),
            "{:?}",
            arrivals[6]
        );
        assert!(arrivals[6].latency >= arrivals[6].late);
        assert!(
            arrivals[20].late >= Duration::from_millis(25),
            "{:?}",
            arrivals[20]
        );
        // Measured from send time instead, request 6 would have looked
        // instantaneous.
        assert!(arrivals[6].latency - arrivals[6].late < quick);
        // The backlog drains: the last request, due 48 ms after the
        // stall ended, is on time again.
        assert!(arrivals[59].late < quick, "{:?}", arrivals[59]);
    }
}
