//! The serving stack under test and the two ways the benchmark calls
//! into it: over the wire ([`Client`]) and in process ([`ServeHandle`]).

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use frontend::{Client, Server};
use pass::FileFlush;
use provenance_cloud::{
    Arch2Config, Arch3Config, ProvQuery, QueryAnswer, ReadOutcome, S3SimpleDb, S3SimpleDbSqs,
    ServeHandle,
};
use simworld::SimWorld;

use crate::corpus::Op;
use crate::spec::{Spec, WORKERS};

/// A store on a `SimWorld::counting()` world (zero simulated service
/// latency: the wall clock measures this program, not a modelled cloud).
#[derive(Debug)]
pub struct Store {
    pub world: SimWorld,
    pub handle: ServeHandle,
}

impl Store {
    /// The store `spec` serves.
    pub fn new(spec: &Spec) -> Store {
        Store::build(spec, spec.arch3)
    }

    /// The in-process reference for `spec`: always the plain §4.2 store
    /// (arch2) with the same closure mode. Both architectures commit
    /// the same authoritative state, so for arch3 workloads the gate
    /// checks against an independent write path — at an eighth of the
    /// cost of replaying 65 k records through a second WAL.
    pub fn reference(spec: &Spec) -> Store {
        Store::build(spec, false)
    }

    fn build(spec: &Spec, arch3: bool) -> Store {
        let world = SimWorld::counting();
        let handle = if arch3 {
            let mut store = S3SimpleDbSqs::new(&world, "bench");
            store.set_config(Arch3Config {
                closure: spec.closure,
                ..Arch3Config::default()
            });
            ServeHandle::new(store)
        } else {
            let mut store = S3SimpleDb::new(&world);
            store.set_config(Arch2Config {
                closure: spec.closure,
                ..Arch2Config::default()
            });
            ServeHandle::new(store)
        };
        Store { world, handle }
    }

    /// Applies groups of flushes through the batched path, draining
    /// after each so a WAL backlog never builds up.
    pub fn apply(&self, groups: &[Vec<FileFlush>]) {
        for group in groups {
            self.handle.record_batch(group).expect("in-process write");
            self.handle.flush().expect("in-process flush");
        }
    }
}

/// The reply to one frame, typed.
#[derive(Debug)]
pub enum Answer {
    Unit,
    Read(ReadOutcome),
    Query(QueryAnswer),
}

/// The query a Q1/Q2/Q3 op asks.
pub fn query_of(op: &Op) -> ProvQuery {
    match op {
        Op::Q1(name) => ProvQuery::ProvenanceOf {
            name: name.clone(),
            version: 1,
        },
        Op::Q2(program) => ProvQuery::OutputsOf {
            program: program.clone(),
        },
        Op::Q3 { program, .. } => ProvQuery::DescendantsOf {
            program: program.clone(),
        },
        _ => unreachable!("only query ops have a query"),
    }
}

/// Something an op can be sent to. The benchmark's spans are the time
/// spent inside [`Target::call`]: around `Client::*` it is the wire
/// span, around `ServeHandle::*` the serve span.
pub trait Target: Send {
    /// Sends one op; `Err` carries the failure's text.
    fn call(&mut self, op: &Op) -> Result<Answer, String>;
}

// `Client` and `ServeHandle` offer the same five calls under the same
// names; only their error types differ.
macro_rules! impl_target {
    ($ty:ty) => {
        impl Target for $ty {
            fn call(&mut self, op: &Op) -> Result<Answer, String> {
                match op {
                    Op::Record(flush) => self.record(flush).map(|()| Answer::Unit),
                    Op::RecordBatch(flushes) => self.record_batch(flushes).map(|()| Answer::Unit),
                    Op::Flush => self.flush().map(|()| Answer::Unit),
                    Op::Read(name) => self.read(name).map(Answer::Read),
                    query => self.query(&query_of(query)).map(Answer::Query),
                }
                .map_err(|e| e.to_string())
            }
        }
    };
}

impl_target!(Client<UnixStream>);
impl_target!(ServeHandle);

/// A served store: the real `frontend::Server` over a Unix-domain
/// socket with [`WORKERS`] handler threads.
#[derive(Debug)]
pub struct Served {
    pub store: Store,
    server: Server,
    path: PathBuf,
}

/// Socket files live in `.bench_run/` under the working directory: the
/// benchmark writes nowhere outside its checkout, and a relative path
/// stays under the ~100-byte `sun_path` limit wherever that checkout is.
fn socket_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(".bench_run");
    std::fs::create_dir_all(&dir).expect("create .bench_run/ in the working directory");
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{}-{n}.sock", std::process::id()))
}

impl Served {
    pub fn bind(store: Store) -> Served {
        let path = socket_path();
        let server = Server::bind_unix(store.handle.clone(), &path, WORKERS)
            .expect("bind the benchmark's Unix socket");
        Served {
            store,
            server,
            path,
        }
    }

    /// A new connection. Each one pins a server worker until dropped,
    /// so never hold more than [`WORKERS`] at once.
    pub fn connect(&self) -> Client<UnixStream> {
        Client::connect_unix(&self.path).expect("connect to the benchmark's own server")
    }

    /// Stops the server and joins its workers.
    pub fn shutdown(self) -> Store {
        self.server.shutdown();
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{pipeline, Origin};
    use crate::spec::Workload;

    /// The fingerprint gate compares every served store — arch3
    /// included — with an arch2 reference, so the two architectures
    /// must agree on the authoritative state of the same writes.
    #[test]
    fn arch3_converges_to_the_arch2_reference_fingerprint() {
        let mut events = 0;
        let groups: Vec<_> = (0..20)
            .map(|p| pipeline(Origin::Corpus, p, 1, &mut events))
            .collect();
        let spec = Workload::IngestWal.spec();
        let (served, reference) = (Store::new(spec), Store::reference(spec));
        assert_eq!(served.handle.architecture(), "s3+simpledb+sqs");
        assert_eq!(reference.handle.architecture(), "s3+simpledb");
        served.apply(&groups);
        reference.apply(&groups);
        assert_eq!(served.handle.fingerprint(), reference.handle.fingerprint());
        reference.apply(&[pipeline(Origin::Connection(0), 0, 1, &mut events)]);
        assert_ne!(served.handle.fingerprint(), reference.handle.fingerprint());
    }
}
