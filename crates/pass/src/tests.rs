//! Unit tests for the PASS observer: versioning, causal ordering, cycle
//! avoidance, error paths.

use std::collections::HashSet;

use simworld::Blob;

use crate::{FileFlush, ObjectKind, ObjectRef, Observer, ObserverError, RecordKey, TraceEvent};

/// Runs a trace and returns every flush, also asserting the key invariant
/// the paper calls (eventual) causal ordering: every ancestor reference
/// of a flush points to a version flushed before it.
fn run(events: Vec<TraceEvent>) -> Vec<FileFlush> {
    let mut obs = Observer::new();
    let mut flushes = Vec::new();
    for ev in events {
        flushes.extend(obs.observe(ev).expect("trace must be well-formed"));
    }
    flushes.extend(obs.finish());
    assert_causal_order(&flushes);
    flushes
}

fn assert_causal_order(flushes: &[FileFlush]) {
    let mut seen: HashSet<ObjectRef> = HashSet::new();
    for f in flushes {
        for anc in f.ancestors() {
            assert!(
                seen.contains(anc),
                "{} flushed before its ancestor {anc}",
                f.object
            );
        }
        assert!(
            seen.insert(f.object.clone()),
            "duplicate flush of {}",
            f.object
        );
    }
}

fn find<'a>(flushes: &'a [FileFlush], name: &str, version: u32) -> &'a FileFlush {
    flushes
        .iter()
        .find(|f| f.object.name == name && f.object.version == version)
        .unwrap_or_else(|| panic!("no flush for {name}:{version}"))
}

fn simple_pipeline() -> Vec<TraceEvent> {
    vec![
        TraceEvent::source("in.dat", Blob::from("input")),
        TraceEvent::exec(1, "tool", "tool in.dat", "PATH=/bin", None),
        TraceEvent::read(1, "in.dat"),
        TraceEvent::write(1, "out.dat"),
        TraceEvent::close(1, "out.dat", Blob::from("output")),
        TraceEvent::exit(1),
    ]
}

#[test]
fn pipeline_produces_three_objects_in_causal_order() {
    let flushes = run(simple_pipeline());
    let names: Vec<String> = flushes.iter().map(|f| f.object.render()).collect();
    assert_eq!(names, vec!["in.dat:1", "proc:1:tool:1", "out.dat:1"]);
}

#[test]
fn output_depends_on_process_which_depends_on_input() {
    let flushes = run(simple_pipeline());
    let out = find(&flushes, "out.dat", 1);
    assert_eq!(out.ancestors(), vec![&ObjectRef::new("proc:1:tool", 1)]);
    let proc = find(&flushes, "proc:1:tool", 1);
    assert_eq!(proc.ancestors(), vec![&ObjectRef::new("in.dat", 1)]);
    assert_eq!(proc.kind, ObjectKind::Process);
    assert!(proc.data.is_empty(), "transient objects carry no data");
}

#[test]
fn process_records_include_static_provenance() {
    let flushes = run(simple_pipeline());
    let proc = find(&flushes, "proc:1:tool", 1);
    let keys: Vec<&RecordKey> = proc.records.iter().map(|r| &r.key).collect();
    assert!(keys.contains(&&RecordKey::Name));
    assert!(keys.contains(&&RecordKey::Argv));
    assert!(keys.contains(&&RecordKey::Env));
    assert!(keys.contains(&&RecordKey::Type));
}

#[test]
fn fork_parent_recorded() {
    let flushes = run(vec![
        TraceEvent::exec(1, "make", "make all", "E=1", None),
        TraceEvent::exec(2, "cc", "cc -c x.c", "E=1", Some(1)),
        TraceEvent::write(2, "x.o"),
        TraceEvent::close(2, "x.o", Blob::from("obj")),
        TraceEvent::exit(2),
        TraceEvent::exit(1),
    ]);
    let cc = find(&flushes, "proc:2:cc", 1);
    assert!(
        cc.ancestors().iter().any(|r| r.name == "proc:1:make"),
        "child references forking parent"
    );
}

#[test]
fn rewrite_after_read_creates_new_version_with_chain() {
    let flushes = run(vec![
        TraceEvent::exec(1, "w1", "w1", "", None),
        TraceEvent::write(1, "f"),
        TraceEvent::close(1, "f", Blob::from("v1")),
        TraceEvent::exec(2, "r", "r f", "", None),
        TraceEvent::read(2, "f"), // freezes version 1
        TraceEvent::exit(2),
        TraceEvent::exec(3, "w2", "w2", "", None),
        TraceEvent::write(3, "f"), // opens version 2
        TraceEvent::close(3, "f", Blob::from("v2")),
        TraceEvent::exit(3),
        TraceEvent::exit(1),
    ]);
    let v2 = find(&flushes, "f", 2);
    assert!(
        v2.ancestors().contains(&&ObjectRef::new("f", 1)),
        "version 2 depends on version 1 (the PASS version chain)"
    );
    assert_eq!(&v2.data.to_bytes()[..], b"v2");
    assert_eq!(&find(&flushes, "f", 1).data.to_bytes()[..], b"v1");
}

#[test]
fn close_then_rewrite_by_same_process_also_versions() {
    // Closing persists (freezes) the version, so a rewrite opens v2 even
    // with no intervening reader.
    let flushes = run(vec![
        TraceEvent::exec(1, "w", "w", "", None),
        TraceEvent::write(1, "f"),
        TraceEvent::close(1, "f", Blob::from("one")),
        TraceEvent::write(1, "f"),
        TraceEvent::close(1, "f", Blob::from("two")),
        TraceEvent::exit(1),
    ]);
    assert_eq!(
        find(&flushes, "f", 2).data.to_bytes(),
        Blob::from("two").to_bytes()
    );
}

#[test]
fn consecutive_writes_without_freeze_stay_one_version() {
    let flushes = run(vec![
        TraceEvent::exec(1, "w", "w", "", None),
        TraceEvent::write(1, "f"),
        TraceEvent::write(1, "f"),
        TraceEvent::write(1, "f"),
        TraceEvent::close(1, "f", Blob::from("final")),
        TraceEvent::exit(1),
    ]);
    let file_versions: Vec<&FileFlush> = flushes.iter().filter(|f| f.object.name == "f").collect();
    assert_eq!(file_versions.len(), 1);
    // And the process is recorded as input only once (dedup).
    let inputs = file_versions[0].ancestors();
    assert_eq!(inputs.len(), 1);
}

#[test]
fn read_after_write_versions_the_process() {
    // Cycle avoidance: out1 must not depend on in2, which the process
    // read only after writing out1.
    let flushes = run(vec![
        TraceEvent::source("in1", Blob::from("1")),
        TraceEvent::source("in2", Blob::from("2")),
        TraceEvent::exec(1, "tool", "tool", "", None),
        TraceEvent::read(1, "in1"),
        TraceEvent::write(1, "out1"),
        TraceEvent::close(1, "out1", Blob::from("o1")),
        TraceEvent::read(1, "in2"), // read-after-write: proc version 2
        TraceEvent::write(1, "out2"),
        TraceEvent::close(1, "out2", Blob::from("o2")),
        TraceEvent::exit(1),
    ]);
    let out1 = find(&flushes, "out1", 1);
    assert_eq!(out1.ancestors(), vec![&ObjectRef::new("proc:1:tool", 1)]);
    let out2 = find(&flushes, "out2", 1);
    assert_eq!(out2.ancestors(), vec![&ObjectRef::new("proc:1:tool", 2)]);
    // Version 2 of the process chains to version 1 and carries the new
    // input.
    let p2 = find(&flushes, "proc:1:tool", 2);
    let p2_ancestors = p2.ancestors();
    assert!(p2_ancestors.contains(&&ObjectRef::new("proc:1:tool", 1)));
    assert!(p2_ancestors.contains(&&ObjectRef::new("in2", 1)));
    assert!(!p2_ancestors.contains(&&ObjectRef::new("in1", 1)));
    // Version 1 of the process saw only in1.
    let p1 = find(&flushes, "proc:1:tool", 1);
    assert!(p1.ancestors().contains(&&ObjectRef::new("in1", 1)));
    assert!(!p1.ancestors().contains(&&ObjectRef::new("in2", 1)));
}

#[test]
fn repeated_reads_dedupe_input_records() {
    let flushes = run(vec![
        TraceEvent::source("in", Blob::from("x")),
        TraceEvent::exec(1, "t", "t", "", None),
        TraceEvent::read(1, "in"),
        TraceEvent::read(1, "in"),
        TraceEvent::read(1, "in"),
        TraceEvent::exit(1),
    ]);
    let proc = find(&flushes, "proc:1:t", 1);
    assert_eq!(proc.ancestors().len(), 1);
}

#[test]
fn read_only_close_flushes_nothing() {
    let flushes = run(vec![
        TraceEvent::source("in", Blob::from("x")),
        TraceEvent::exec(1, "cat", "cat in", "", None),
        TraceEvent::read(1, "in"),
        TraceEvent::close(1, "in", Blob::from("x")),
        TraceEvent::exit(1),
    ]);
    // Only the source itself and the process (flushed at exit).
    assert_eq!(flushes.iter().filter(|f| f.object.name == "in").count(), 1);
}

#[test]
fn exit_flushes_processes_that_wrote_nothing() {
    let flushes = run(vec![
        TraceEvent::exec(1, "idle", "idle", "", None),
        TraceEvent::exit(1),
    ]);
    assert_eq!(flushes.len(), 1);
    assert_eq!(flushes[0].object.name, "proc:1:idle");
}

#[test]
fn finish_flushes_dirty_files_and_live_processes() {
    let mut obs = Observer::new();
    let mut flushes = Vec::new();
    for ev in [
        TraceEvent::exec(1, "w", "w", "", None),
        TraceEvent::write(1, "never-closed"),
    ] {
        flushes.extend(obs.observe(ev).unwrap());
    }
    assert!(flushes.is_empty(), "nothing flushed before close");
    let tail = obs.finish();
    assert_causal_order(&tail);
    assert!(tail.iter().any(|f| f.object.name == "never-closed"));
    assert!(tail.iter().any(|f| f.object.name == "proc:1:w"));
}

#[test]
fn frozen_dirty_file_is_flushed_before_new_version() {
    // Writer leaves f open; reader freezes v1; writer writes again. v1
    // must be persisted (with its data) before v2 exists, else v2's
    // chain dangles.
    let flushes = run(vec![
        TraceEvent::exec(1, "w", "w", "", None),
        TraceEvent::exec(2, "r", "r", "", None),
        TraceEvent::write(1, "f"),
        TraceEvent::read(2, "f"),  // freeze v1 while dirty
        TraceEvent::write(1, "f"), // must flush v1 first, then open v2
        TraceEvent::close(1, "f", Blob::from("v2")),
        TraceEvent::exit(1),
        TraceEvent::exit(2),
    ]);
    let versions: Vec<u32> = flushes
        .iter()
        .filter(|f| f.object.name == "f")
        .map(|f| f.object.version)
        .collect();
    assert_eq!(versions, vec![1, 2]);
}

#[test]
fn error_paths() {
    let mut obs = Observer::new();
    assert_eq!(
        obs.observe(TraceEvent::read(9, "nope")),
        Err(ObserverError::UnknownFile {
            path: "nope".into()
        })
    );
    obs.observe(TraceEvent::source("f", Blob::empty())).unwrap();
    assert_eq!(
        obs.observe(TraceEvent::read(9, "f")),
        Err(ObserverError::UnknownProcess { pid: 9 })
    );
    obs.observe(TraceEvent::exec(9, "t", "", "", None)).unwrap();
    assert_eq!(
        obs.observe(TraceEvent::exec(9, "t2", "", "", None)),
        Err(ObserverError::DuplicatePid { pid: 9 })
    );
    obs.observe(TraceEvent::exit(9)).unwrap();
    assert_eq!(
        obs.observe(TraceEvent::write(9, "g")),
        Err(ObserverError::UnknownProcess { pid: 9 }),
        "exited processes are gone"
    );
}

#[test]
fn stats_track_events_and_flushes() {
    let mut obs = Observer::new();
    let mut flushed = 0;
    for ev in simple_pipeline() {
        flushed += obs.observe(ev).unwrap().len();
    }
    assert_eq!(obs.events_seen(), 6);
    assert_eq!(flushed, 3);
}

#[test]
fn diamond_dependency_flushes_each_version_once() {
    // in -> two tools -> two outputs -> combiner -> final
    let flushes = run(vec![
        TraceEvent::source("in", Blob::from("data")),
        TraceEvent::exec(1, "t1", "t1", "", None),
        TraceEvent::exec(2, "t2", "t2", "", None),
        TraceEvent::read(1, "in"),
        TraceEvent::read(2, "in"),
        TraceEvent::write(1, "a"),
        TraceEvent::write(2, "b"),
        TraceEvent::close(1, "a", Blob::from("a")),
        TraceEvent::close(2, "b", Blob::from("b")),
        TraceEvent::exec(3, "join", "join a b", "", None),
        TraceEvent::read(3, "a"),
        TraceEvent::read(3, "b"),
        TraceEvent::write(3, "final"),
        TraceEvent::close(3, "final", Blob::from("ab")),
        TraceEvent::exit(1),
        TraceEvent::exit(2),
        TraceEvent::exit(3),
    ]);
    // "in" appears exactly once even though two tools read it.
    assert_eq!(flushes.iter().filter(|f| f.object.name == "in").count(), 1);
    let join = find(&flushes, "proc:3:join", 1);
    assert_eq!(join.ancestors().len(), 2);
}
