//! Inputs: `corpus_std`, the per-connection op streams, and the
//! in-memory oracle that says what every reply must contain.
//!
//! Everything here is a pure function of `(workload, seed,
//! connection)`. The program under test only ever sees the generated
//! frames — never the seed or a workload name.

use std::collections::{BTreeSet, HashMap, VecDeque};

use pass::{FileFlush, ObjectRef, Observer, TraceEvent};
use provenance_cloud::{ProvGraph, QueryAnswer, ReadOutcome};
use simworld::{splitmix64, Blob};
use workloads::ZipfKeys;

use crate::spec::{
    Class, Workload, CORPUS_PIPELINES, FLUSH_EVERY, GROUPS, PIPELINE_FLUSHES, STAGES,
};

/// Who generated a pipeline: the preloaded corpus, or connection `n`
/// writing during the run. Keyspaces (file names, program names, pids)
/// are disjoint across origins, so the final store state does not
/// depend on how the connections interleave, and answers over the
/// preloaded corpus never grow.
#[derive(Copy, Clone, Debug)]
pub enum Origin {
    Corpus,
    Connection(usize),
}

impl Origin {
    fn dir(self, p: usize) -> String {
        match self {
            Origin::Corpus => format!("p{p}"),
            Origin::Connection(c) => format!("c{c}/p{p}"),
        }
    }

    fn program(self, stage: usize, p: usize) -> String {
        match self {
            Origin::Corpus => program_name(stage, p % GROUPS),
            Origin::Connection(c) => format!("w{c}s{stage}g{}", p % GROUPS),
        }
    }

    fn pid(self, stage: usize, p: usize) -> u32 {
        let base = match self {
            Origin::Corpus => 0,
            Origin::Connection(c) => 100_000_000 * (c as u32 + 1),
        };
        base + (p * STAGES + stage) as u32 + 1
    }
}

/// Name of the corpus program run by stage `stage` in group `group`.
pub fn program_name(stage: usize, group: usize) -> String {
    format!("s{stage}g{group}")
}

/// Name of corpus pipeline `p`'s stage-`stage` output file.
pub fn derived_file(p: usize, stage: usize) -> String {
    format!("p{p}/f{stage}.dat")
}

/// One pipeline's nine flushes, in causal order: a 2 KiB source, then
/// per stage a process reading the previous file and the 1 KiB file it
/// writes. `events` counts the trace events fed to the observer.
pub fn pipeline(origin: Origin, p: usize, seed: u64, events: &mut u64) -> Vec<FileFlush> {
    let mut blob_seed = seed ^ ((origin.pid(0, p) as u64) << 20);
    let mut blob = |len| Blob::synthetic(splitmix64(&mut blob_seed), len);
    let mut observer = Observer::new();
    let mut out = Vec::with_capacity(PIPELINE_FLUSHES);
    let mut feed = |event: TraceEvent| {
        *events += 1;
        out.extend(
            observer
                .observe(event)
                .expect("generated traces are well formed"),
        );
    };
    let dir = origin.dir(p);
    let mut prev = format!("{dir}/in.dat");
    feed(TraceEvent::source(&prev, blob(2048)));
    for stage in 0..STAGES {
        let pid = origin.pid(stage, p);
        let exe = origin.program(stage, p);
        let next = format!("{dir}/f{stage}.dat");
        feed(TraceEvent::exec(
            pid,
            &exe,
            format!("{exe} {prev}"),
            "PATH=/bin",
            None,
        ));
        feed(TraceEvent::read(pid, &prev));
        feed(TraceEvent::write(pid, &next));
        feed(TraceEvent::close(pid, &next, blob(1024)));
        feed(TraceEvent::exit(pid));
        prev = next;
    }
    debug_assert_eq!(out.len(), PIPELINE_FLUSHES);
    out
}

/// `corpus_std`: 400 pipelines × 4 stages = 3 600 items, 320 programs
/// of 5 invocations each, so Q2/Q3 answers are bounded.
pub fn corpus_std(seed: u64, events: &mut u64) -> Vec<Vec<FileFlush>> {
    (0..CORPUS_PIPELINES)
        .map(|p| pipeline(Origin::Corpus, p, seed, events))
        .collect()
}

/// One frame to send.
#[derive(Clone, Debug)]
pub enum Op {
    Record(FileFlush),
    RecordBatch(Vec<FileFlush>),
    Flush,
    Read(String),
    /// Q1 `ProvenanceOf` version 1 of the named file.
    Q1(String),
    /// Q2 `OutputsOf` the named program.
    Q2(String),
    /// Q3 `DescendantsOf` the named program; `index` says the store
    /// answers it from the closure index.
    Q3 {
        program: String,
        index: bool,
    },
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Record(_) => Class::Record,
            Op::RecordBatch(_) => Class::RecordBatch,
            Op::Flush => Class::Flush,
            Op::Read(_) => Class::Read,
            Op::Q1(_) => Class::Q1,
            Op::Q2(_) => Class::Q2,
            Op::Q3 { index: false, .. } => Class::Q3,
            Op::Q3 { index: true, .. } => Class::Q3Index,
        }
    }
}

/// The endless op sequence of one connection.
#[derive(Debug)]
pub struct OpStream {
    workload: Workload,
    conn: usize,
    seed: u64,
    rng: u64,
    zipf: ZipfKeys,
    key_offset: usize,
    next_pipeline: usize,
    /// Frames generated so far, and Q3s among them.
    slot: usize,
    q3_count: usize,
    pending: VecDeque<Op>,
    since_flush: usize,
    /// Trace events fed to `pass::Observer` so far.
    pub events: u64,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64, conn: usize) -> OpStream {
        let mut mix = seed ^ (0x5bd1_e995 * (conn as u64 + 1));
        let rng = splitmix64(&mut mix);
        let derived = CORPUS_PIPELINES * STAGES;
        OpStream {
            workload,
            conn,
            seed,
            rng,
            zipf: ZipfKeys::new(derived, 0.99, splitmix64(&mut mix)),
            // Which files are hot depends on the seed, not on the
            // connection: both connections hammer the same keys.
            key_offset: (seed % derived as u64) as usize,
            next_pipeline: 0,
            slot: 0,
            q3_count: 0,
            pending: VecDeque::new(),
            since_flush: 0,
            events: 0,
        }
    }

    fn draw(&mut self, bound: usize) -> usize {
        (splitmix64(&mut self.rng) % bound as u64) as usize
    }

    fn new_pipeline(&mut self) -> Vec<FileFlush> {
        let p = self.next_pipeline;
        self.next_pipeline += 1;
        pipeline(
            Origin::Connection(self.conn),
            p,
            self.seed,
            &mut self.events,
        )
    }

    /// Zipf rank → derived file, scattered by a multiplier coprime with
    /// the key count so hot ranks do not share a pipeline.
    fn zipf_file(&mut self) -> String {
        let derived = CORPUS_PIPELINES * STAGES;
        let idx = (self.zipf.next_index() * 1_009 + self.key_offset) % derived;
        derived_file(idx / STAGES, idx % STAGES)
    }

    fn uniform_file(&mut self) -> String {
        let idx = self.draw(CORPUS_PIPELINES * STAGES);
        derived_file(idx / STAGES, idx % STAGES)
    }

    fn uniform_program(&mut self) -> String {
        let idx = self.draw(STAGES * GROUPS);
        program_name(idx / GROUPS, idx % GROUPS)
    }

    /// A program for Q3, whose cost depends on how many stages lie
    /// downstream of it: the stage goes round robin, the group is drawn.
    fn staged_program(&mut self) -> String {
        let stage = self.q3_count % STAGES;
        self.q3_count += 1;
        program_name(stage, self.draw(GROUPS))
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if let Some(op) = self.pending.pop_front() {
            return Some(op);
        }
        // The class mix is a fixed 20-frame cycle, not a draw per frame:
        // every window of every seed holds exactly the stated shares, so
        // work per window — and requests billed per frame — do not vary
        // with the seed. Keys and programs are still drawn. The second
        // connection runs half a cycle out of step with the first.
        let slot = (self.slot + 10 * self.conn) % 20;
        self.slot += 1;
        Some(match self.workload {
            Workload::IngestWal => {
                for flush in self.new_pipeline() {
                    self.pending.push_back(Op::Record(flush));
                    self.since_flush += 1;
                    if self.since_flush == FLUSH_EVERY {
                        self.since_flush = 0;
                        self.pending.push_back(Op::Flush);
                    }
                }
                self.pending.pop_front().expect("a pipeline is never empty")
            }
            // 50 % Read, 50 % Q1.
            Workload::PointRead => {
                let file = self.zipf_file();
                if slot.is_multiple_of(2) {
                    Op::Read(file)
                } else {
                    Op::Q1(file)
                }
            }
            // 80 % Q2, 20 % Q3.
            Workload::GraphQuery => {
                if slot % 5 == 2 {
                    Op::Q3 {
                        program: self.staged_program(),
                        index: false,
                    }
                } else {
                    Op::Q2(self.uniform_program())
                }
            }
            // 5 % RecordBatch, 30 % Read, 30 % Q1, 35 % index-served Q3.
            Workload::MixedClosure => match slot {
                0 => Op::RecordBatch(self.new_pipeline()),
                19 => Op::Q3 {
                    program: self.staged_program(),
                    index: true,
                },
                _ => match slot % 3 {
                    1 => Op::Read(self.uniform_file()),
                    2 => Op::Q1(self.uniform_file()),
                    _ => Op::Q3 {
                        program: self.staged_program(),
                        index: true,
                    },
                },
            },
        })
    }
}

/// Takes ops until `frames` non-`Flush` frames have been taken; a
/// `Flush` the stream emits right after the last one comes along.
pub fn take_frames(stream: &mut OpStream, frames: usize) -> Vec<Op> {
    let mut out = Vec::with_capacity(frames + frames / FLUSH_EVERY + 1);
    let mut taken = 0;
    while taken < frames {
        let op = stream.next().expect("op streams are endless");
        if op.class() != Class::Flush {
            taken += 1;
        }
        out.push(op);
    }
    if matches!(stream.pending.front(), Some(Op::Flush)) {
        out.push(stream.pending.pop_front().expect("just peeked"));
    }
    out
}

/// Order-sensitive digest of `(name, version, record count)` triples.
fn digest<'a>(items: impl Iterator<Item = (&'a ObjectRef, usize)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (object, records) in items {
        eat(object.name.as_bytes());
        eat(&object.version.to_be_bytes());
        eat(&(records as u64).to_be_bytes());
    }
    h
}

/// Digest of a query reply: names, versions and record counts, in the
/// reply's (name, version) order.
pub fn answer_digest(answer: &QueryAnswer) -> u64 {
    digest(answer.items.iter().map(|i| (&i.object, i.records.len())))
}

/// Digest of a read reply; an inconsistent read never matches.
pub fn read_digest(outcome: &ReadOutcome) -> u64 {
    if !outcome.consistent() {
        return 0;
    }
    digest(std::iter::once((&outcome.object, outcome.records.len()))) ^ outcome.data.len()
}

/// What every reply over the preloaded corpus must contain, worked out
/// in memory from the flushes themselves — never by asking the store.
#[derive(Debug)]
pub struct Oracle {
    graph: ProvGraph,
    data_len: HashMap<String, u64>,
    /// program → the process versions that ran it.
    processes: HashMap<String, Vec<ObjectRef>>,
    files: BTreeSet<ObjectRef>,
}

impl Oracle {
    pub fn new(corpus: &[Vec<FileFlush>]) -> Oracle {
        let mut data_len = HashMap::new();
        let mut processes: HashMap<String, Vec<ObjectRef>> = HashMap::new();
        let mut files = BTreeSet::new();
        for flush in corpus.iter().flatten() {
            match flush.object.name.strip_prefix("proc:") {
                Some(rest) => {
                    let exe = rest.split_once(':').map_or(rest, |(_, exe)| exe);
                    processes
                        .entry(exe.to_string())
                        .or_default()
                        .push(flush.object.clone());
                }
                None => {
                    data_len.insert(flush.object.name.clone(), flush.data.len());
                    files.insert(flush.object.clone());
                }
            }
        }
        let graph = ProvGraph::from_records(
            corpus
                .iter()
                .flatten()
                .map(|f| (f.object.clone(), f.records.clone())),
        );
        Oracle {
            graph,
            data_len,
            processes,
            files,
        }
    }

    fn records(&self, object: &ObjectRef) -> usize {
        self.graph.records(object).map_or(0, <[_]>::len)
    }

    fn digest_of(&self, objects: &BTreeSet<ObjectRef>) -> u64 {
        digest(objects.iter().map(|o| (o, self.records(o))))
    }

    /// Q2: the files written by any process that ran `program`.
    fn outputs_of(&self, program: &str) -> BTreeSet<ObjectRef> {
        self.processes
            .get(program)
            .into_iter()
            .flatten()
            .flat_map(|process| self.graph.children(process))
            .filter(|child| self.files.contains(child))
            .collect()
    }

    /// The digest the reply to `op` must have; `None` for ops whose
    /// reply carries nothing to check (`Record`, `RecordBatch`,
    /// `Flush`).
    pub fn expect(&self, op: &Op) -> Option<u64> {
        match op {
            Op::Record(_) | Op::RecordBatch(_) | Op::Flush => None,
            Op::Read(name) => {
                let object = ObjectRef::new(name.clone(), 1);
                let records = self.records(&object);
                Some(digest(std::iter::once((&object, records))) ^ self.data_len[name])
            }
            Op::Q1(name) => {
                let object = ObjectRef::new(name.clone(), 1);
                Some(digest(std::iter::once((&object, self.records(&object)))))
            }
            Op::Q2(program) => Some(self.digest_of(&self.outputs_of(program))),
            Op::Q3 { program, .. } => {
                let seeds = self.outputs_of(program);
                let mut all = BTreeSet::new();
                for seed in &seeds {
                    all.extend(self.graph.descendants(seed));
                }
                // The walk reports what derives from the outputs, not
                // the outputs themselves.
                Some(self.digest_of(&all.difference(&seeds).cloned().collect()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flushes a write op carries.
    fn writes(op: &Op) -> &[FileFlush] {
        match op {
            Op::Record(flush) => std::slice::from_ref(flush),
            Op::RecordBatch(flushes) => flushes,
            _ => &[],
        }
    }

    fn names(ops: &[Op]) -> BTreeSet<String> {
        ops.iter()
            .flat_map(writes)
            .map(|f| f.object.name.clone())
            .collect()
    }

    #[test]
    fn op_streams_are_deterministic_in_workload_seed_and_connection() {
        for workload in Workload::ALL {
            let take = |seed, conn| {
                let ops = take_frames(&mut OpStream::new(workload, seed, conn), 300);
                format!("{ops:?}")
            };
            assert_eq!(take(7, 0), take(7, 0), "{workload:?} replays exactly");
            assert_ne!(take(7, 0), take(7, 1), "{workload:?} differs by connection");
            assert_ne!(take(7, 0), take(8, 0), "{workload:?} differs by seed");
        }
    }

    #[test]
    fn connection_keyspaces_are_disjoint_from_each_other_and_the_corpus() {
        let mut events = 0;
        let corpus: BTreeSet<String> = corpus_std(1, &mut events)
            .iter()
            .flatten()
            .map(|f| f.object.name.clone())
            .collect();
        assert_eq!(corpus.len(), CORPUS_PIPELINES * PIPELINE_FLUSHES);
        for workload in [Workload::IngestWal, Workload::MixedClosure] {
            let a = names(&take_frames(&mut OpStream::new(workload, 1, 0), 2_000));
            let b = names(&take_frames(&mut OpStream::new(workload, 1, 1), 2_000));
            assert!(!a.is_empty());
            assert!(a.is_disjoint(&b), "{workload:?}");
            assert!(a.is_disjoint(&corpus) && b.is_disjoint(&corpus));
        }
    }

    #[test]
    fn ingest_flushes_every_64_records_and_windows_split_on_frame_counts() {
        let mut stream = OpStream::new(Workload::IngestWal, 3, 0);
        let first = take_frames(&mut stream, 128);
        let flushes = first.iter().filter(|op| op.class() == Class::Flush).count();
        assert_eq!(flushes, 2);
        assert_eq!(first.len(), 130);
        assert!(matches!(first[64], Op::Flush) && matches!(first[129], Op::Flush));
        // The next window continues mid-pipeline: no record is lost or
        // repeated at the boundary.
        let second = take_frames(&mut stream, 16);
        let all: Vec<String> = first
            .iter()
            .chain(&second)
            .flat_map(writes)
            .map(|f| f.object.render())
            .collect();
        assert_eq!(all.len(), 144);
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), 144);
    }

    #[test]
    fn every_twenty_frames_hold_exactly_the_stated_mix() {
        let shares = |workload, conn| {
            let mut stream = OpStream::new(workload, 9, conn);
            // Skip an uneven prefix: any 20 consecutive frames will do.
            take_frames(&mut stream, 7);
            let mut counts = std::collections::BTreeMap::new();
            for op in take_frames(&mut stream, 20) {
                *counts.entry(op.class()).or_insert(0) += 1;
            }
            counts.into_iter().collect::<Vec<_>>()
        };
        for conn in 0..2 {
            assert_eq!(
                shares(Workload::PointRead, conn),
                [(Class::Read, 10), (Class::Q1, 10)]
            );
            assert_eq!(
                shares(Workload::GraphQuery, conn),
                [(Class::Q2, 16), (Class::Q3, 4)]
            );
            assert_eq!(
                shares(Workload::MixedClosure, conn),
                [
                    (Class::RecordBatch, 1),
                    (Class::Read, 6),
                    (Class::Q1, 6),
                    (Class::Q3Index, 7)
                ]
            );
        }
    }

    #[test]
    fn corpus_has_320_programs_of_five_invocations() {
        let mut events = 0;
        let oracle = Oracle::new(&corpus_std(5, &mut events));
        assert_eq!(oracle.processes.len(), STAGES * GROUPS);
        assert!(oracle.processes.values().all(|v| v.len() == 5));
        assert_eq!(oracle.outputs_of(&program_name(0, 0)).len(), 5);
        assert_eq!(events, (CORPUS_PIPELINES * (1 + 5 * STAGES)) as u64);
    }
}
