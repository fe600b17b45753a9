//! End-to-end serving invariants: whatever the thread count, transport,
//! batching mode, or architecture, the networked store must converge to
//! exactly the state the same workload produces in-process.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use frontend::{Client, Server};
use pass::{FileFlush, Observer, TraceEvent};
use provenance_cloud::ClosureMode::{self, Off, Serve};
use provenance_cloud::ProvQuery::{DescendantsOf, OutputsOf, ProvenanceOf};
use provenance_cloud::{Arch2Config, Arch3Config, S3SimpleDb, S3SimpleDbSqs, ServeHandle};
use simworld::{Blob, SimWorld};
use Transport::{Tcp, Unix};
use Wire::{Batched, Point};

/// Pipeline steps each client thread records.
const STEPS: usize = 5;

/// The executable every step runs, so Q2/Q3 have a program to chase.
const PROGRAM: &str = "gen";

#[derive(Copy, Clone, Debug)]
enum Arch {
    Two,
    Three,
}

#[derive(Copy, Clone, Debug)]
enum Wire {
    /// One `Record` frame per flush.
    Point,
    /// `RecordBatch` frames of 8 flushes.
    Batched,
}

#[derive(Copy, Clone, Debug)]
enum Transport {
    Unix,
    Tcp,
}

/// The chain thread `t` records: a source file, then `STEPS` runs of
/// `PROGRAM`, each reading the previous file and writing the next.
/// Thread keyspaces are disjoint (`t{t}/…`, pids `t·1e6+k`), so the
/// final store does not depend on how the threads interleave — which is
/// what lets a serial in-process run be the reference.
fn thread_flushes(thread: usize) -> Vec<FileFlush> {
    let seed = |k: usize| 2009 ^ ((thread as u64) << 32 | k as u64);
    let mut observer = Observer::new();
    let mut prev = format!("t{thread}/in.dat");
    let mut events = vec![TraceEvent::source(&prev, Blob::synthetic(seed(0), 2048))];
    for k in 0..STEPS {
        let pid = (thread * 1_000_000 + k + 1) as u32;
        let next = format!("t{thread}/f{k}.dat");
        events.extend([
            TraceEvent::exec(pid, PROGRAM, format!("{PROGRAM} {prev}"), "PATH=/bin", None),
            TraceEvent::read(pid, &prev),
            TraceEvent::write(pid, &next),
            TraceEvent::close(pid, &next, Blob::synthetic(seed(k + 1), 1024)),
            TraceEvent::exit(pid),
        ]);
        prev = next;
    }
    let flushes = events.into_iter().map(|event| observer.observe(event));
    flushes
        .flat_map(|f| f.expect("well-formed trace"))
        .collect()
}

fn handle(arch: Arch, closure: ClosureMode) -> ServeHandle {
    let world = SimWorld::counting();
    match arch {
        Arch::Two => {
            let mut store = S3SimpleDb::new(&world);
            store.set_config(Arch2Config {
                closure,
                ..Arch2Config::default()
            });
            ServeHandle::new(store)
        }
        Arch::Three => {
            let mut store = S3SimpleDbSqs::new(&world, "serving");
            store.set_config(Arch3Config {
                closure,
                ..Arch3Config::default()
            });
            ServeHandle::new(store)
        }
    }
}

/// Drives the workload over the wire, one connection per thread per
/// phase — record, flush barrier, a closed-loop read/Q1/Q2/Q3 pass —
/// panicking on any error, and returns the fingerprint `Stats` reports.
fn drive<S: Read + Write>(
    connect: impl Fn() -> Client<S> + Sync,
    threads: usize,
    wire: Wire,
) -> u64 {
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let connect = &connect;
            scope.spawn(move || {
                let (mut client, flushes) = (connect(), thread_flushes(thread));
                match wire {
                    Point => flushes.iter().for_each(|f| client.record(f).unwrap()),
                    Batched => flushes
                        .chunks(8)
                        .for_each(|chunk| client.record_batch(chunk).unwrap()),
                }
            });
        }
    });
    connect().flush().unwrap();
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let connect = &connect;
            scope.spawn(move || {
                let mut client = connect();
                for i in 0..8 {
                    let name = format!("t{}/f{}.dat", (thread + i) % threads, i % STEPS);
                    let program = PROGRAM.to_string();
                    match i % 4 {
                        0 => drop(client.read(&name).unwrap()),
                        1 => drop(client.query(&ProvenanceOf { name, version: 1 }).unwrap()),
                        2 => drop(client.query(&OutputsOf { program }).unwrap()),
                        _ => drop(client.query(&DescendantsOf { program }).unwrap()),
                    }
                }
            });
        }
    });
    connect().stats().unwrap().fingerprint
}

/// One cell of the matrix: architecture, client threads (= server
/// workers), record framing, closure mode, transport.
type Cell = (Arch, usize, Wire, ClosureMode, Transport);

/// Applies the cell's workload serially in-process and then through a
/// `Server` pool; asserts the two stores fingerprint identically and
/// returns that fingerprint.
fn converged(cell: Cell) -> u64 {
    let (arch, threads, wire, closure, via) = cell;
    let reference = handle(arch, closure);
    for thread in 0..threads {
        for flush in thread_flushes(thread) {
            reference.record(&flush).unwrap();
        }
    }
    reference.flush().unwrap();

    let served = match via {
        Tcp => {
            let server = Server::bind_tcp(handle(arch, closure), "127.0.0.1:0", threads).unwrap();
            let addr = server.tcp_addr().expect("bound over TCP");
            let served = drive(|| Client::connect_tcp(addr).unwrap(), threads, wire);
            server.shutdown();
            served
        }
        Unix => {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let socket = format!("prov-serving-{}-{n}.sock", std::process::id());
            let socket = std::env::temp_dir().join(socket);
            let server = Server::bind_unix(handle(arch, closure), &socket, threads).unwrap();
            let served = drive(|| Client::connect_unix(&socket).unwrap(), threads, wire);
            server.shutdown();
            served
        }
    };
    let in_process = reference.fingerprint();
    assert_eq!(
        served, in_process,
        "{cell:?}: networked and in-process stores diverged"
    );
    served
}

#[test]
fn workload_is_deterministic_and_disjoint_across_threads() {
    // What makes the serial run a valid reference for any interleaving.
    assert_eq!(thread_flushes(0), thread_flushes(0));
    let names = |thread| -> std::collections::BTreeSet<String> {
        let flushes = thread_flushes(thread);
        flushes.into_iter().map(|f| f.object.name).collect()
    };
    assert!(names(0).is_disjoint(&names(1)));
}

#[test]
fn fingerprints_match_at_every_thread_count_arch2() {
    for threads in [1, 2, 4] {
        converged((Arch::Two, threads, Point, Off, Unix));
    }
}

#[test]
fn fingerprints_match_at_every_thread_count_arch3() {
    for threads in [1, 2, 4] {
        converged((Arch::Three, threads, Point, Off, Unix));
    }
}

#[test]
fn batched_wire_path_converges_to_point_state() {
    // Batched and point runs carry the same flushes, so the *final
    // store* must be identical even though the wire framing differs.
    let point = converged((Arch::Three, 2, Point, Off, Unix));
    let batched = converged((Arch::Three, 2, Batched, Off, Unix));
    assert_eq!(point, batched);
}

#[test]
fn closure_serve_mode_fingerprints_match_over_the_wire() {
    for arch in [Arch::Two, Arch::Three] {
        converged((arch, 2, Point, Serve, Unix));
    }
}

#[test]
fn tcp_and_unix_transports_converge_identically() {
    let unix = converged((Arch::Two, 2, Point, Off, Unix));
    let tcp = converged((Arch::Two, 2, Point, Off, Tcp));
    assert_eq!(unix, tcp);
}
