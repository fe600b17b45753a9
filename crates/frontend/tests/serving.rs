//! End-to-end and adversarial tests for the network frontend: the
//! typed surface over TCP and Unix sockets, and every way a client can
//! speak the protocol badly without taking the server down.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use frontend::{
    encode_command_into, write_frame, Client, ClientError, Command, FaultCode, Reply, Server,
    MAX_FRAME,
};
use pass::FileFlush;
use provenance_cloud::{
    ProvQuery, ProvenanceStore, QueryAnswer, ReadOutcome, RecoveryReport, S3SimpleDb,
    S3SimpleDbSqs, ServeHandle, ServeParts, Serveable,
};
use simworld::{Blob, SimWorld};

fn arch2_handle() -> ServeHandle {
    ServeHandle::new(S3SimpleDb::new(&SimWorld::counting()))
}

fn flush(name: &str, seed: u64, parent: Option<&str>) -> FileFlush {
    let mut b = FileFlush::builder(name).data(Blob::synthetic(seed, 2048));
    if let Some(p) = parent {
        b = b.record("input", &format!("{p}:1"));
    }
    b.build()
}

fn unique_socket_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "prov-frontend-{tag}-{}-{n}.sock",
        std::process::id()
    ))
}

#[test]
fn tcp_round_trip_record_flush_read_query_stats() {
    let server = Server::bind_tcp(arch2_handle(), "127.0.0.1:0", 2).unwrap();
    let addr = server.tcp_addr().unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();

    client.record(&flush("raw.dat", 1, None)).unwrap();
    client
        .record(&flush("cooked.dat", 2, Some("raw.dat")))
        .unwrap();
    client.flush().unwrap();

    let read = client.read("cooked.dat").unwrap();
    assert!(read.consistent());
    assert_eq!(read.object.version, 1);
    assert_eq!(read.data.to_bytes(), Blob::synthetic(2, 2048).to_bytes());

    let answer = client
        .query(&ProvQuery::ProvenanceOf {
            name: "cooked.dat".into(),
            version: 1,
        })
        .unwrap();
    assert_eq!(answer.items.len(), 1);

    let stats = client.stats().unwrap();
    assert_eq!(stats.architecture, "s3+simpledb");
    assert!(stats.requests >= 5);
    assert!(stats.store_ops > 0);

    server.shutdown();
}

#[test]
fn unix_round_trip_arch3_with_wal_flush() {
    let world = SimWorld::counting();
    let handle = ServeHandle::new(S3SimpleDbSqs::new(&world, "net-1"));
    let path = unique_socket_path("arch3");
    let server = Server::bind_unix(handle, &path, 2).unwrap();
    let mut client = Client::connect_unix(&path).unwrap();

    client.record(&flush("wal.dat", 3, None)).unwrap();
    // Logged but uncommitted: the verified read must fail structurally.
    let err = client.read("wal.dat").unwrap_err();
    assert_eq!(err.fault().map(|f| f.code), Some(FaultCode::NotFound));
    client.flush().unwrap();
    assert!(client.read("wal.dat").unwrap().consistent());

    server.shutdown();
    assert!(!path.exists(), "shutdown removes the socket file");
}

#[test]
fn store_errors_are_structured_and_nonfatal() {
    let server = Server::bind_tcp(arch2_handle(), "127.0.0.1:0", 1).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();

    let err = client.read("never-written.dat").unwrap_err();
    let fault = err.fault().expect("remote fault");
    assert_eq!(fault.code, FaultCode::NotFound);
    assert!(fault.message.contains("never-written.dat"));

    // Same connection keeps serving.
    client.record(&flush("ok.dat", 1, None)).unwrap();
    assert!(client.read("ok.dat").unwrap().consistent());
    server.shutdown();
}

#[test]
fn garbage_command_tag_gets_structured_error_and_connection_survives() {
    let server = Server::bind_tcp(arch2_handle(), "127.0.0.1:0", 1).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();

    let reply = client.raw_round_trip(&[0x42, 1, 2, 3]).unwrap();
    let Reply::Err(fault) = reply else {
        panic!("expected error reply, got {reply:?}");
    };
    assert_eq!(fault.code, FaultCode::BadCommand);
    assert!(fault.message.contains("0x42"));

    // Still in sync: a well-formed command on the same stream works.
    client.record(&flush("after-garbage.dat", 1, None)).unwrap();
    server.shutdown();
}

#[test]
fn zero_length_frame_gets_bad_frame_error_and_connection_survives() {
    let server = Server::bind_tcp(arch2_handle(), "127.0.0.1:0", 1).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();

    // A zero length prefix, written raw (write_frame refuses to).
    client.stream_mut().write_all(&0u32.to_be_bytes()).unwrap();
    let reply = client
        .raw_round_trip(&frontend::encode_command(&Command::Flush))
        .unwrap();
    let Reply::Err(fault) = reply else {
        panic!("expected error reply, got {reply:?}");
    };
    assert_eq!(fault.code, FaultCode::BadFrame);

    // The flush command that followed the bad frame is answered next.
    assert_eq!(client.read_reply().unwrap(), Reply::Unit);
    server.shutdown();
}

#[test]
fn oversized_frame_gets_structured_error_then_close() {
    let server = Server::bind_tcp(arch2_handle(), "127.0.0.1:0", 1).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();

    let huge = (MAX_FRAME as u32) + 1;
    client.stream_mut().write_all(&huge.to_be_bytes()).unwrap();
    let Reply::Err(fault) = client.read_reply().unwrap() else {
        panic!("expected error reply");
    };
    assert_eq!(fault.code, FaultCode::FrameTooLarge);
    // Then the server closes its end.
    let closed = client.read_reply().unwrap_err();
    assert!(
        matches!(&closed, ClientError::Io(e) if e.kind() == ErrorKind::UnexpectedEof),
        "got {closed:?}"
    );

    // The pool is still up: a fresh connection serves.
    let mut client2 = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    client2.record(&flush("after-huge.dat", 1, None)).unwrap();
    server.shutdown();
}

#[test]
fn disconnect_mid_request_leaves_pool_serving() {
    let server = Server::bind_tcp(arch2_handle(), "127.0.0.1:0", 1).unwrap();
    let addr = server.tcp_addr().unwrap();

    // Half a length prefix, then hang up.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[0x00, 0x01]).unwrap();
    }
    // A full prefix promising bytes that never come, then hang up.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&64u32.to_be_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
    }

    // The single worker survived both and serves the next connection.
    let mut client = Client::connect_tcp(addr).unwrap();
    client.record(&flush("survivor.dat", 1, None)).unwrap();
    assert!(client.read("survivor.dat").unwrap().consistent());
    server.shutdown();
}

#[test]
fn concurrent_clients_share_one_store() {
    let handle = arch2_handle();
    let server = Server::bind_tcp(handle.clone(), "127.0.0.1:0", 4).unwrap();
    let addr = server.tcp_addr().unwrap();

    // Seed a few objects through one client.
    let mut seeder = Client::connect_tcp(addr).unwrap();
    for i in 0..8u64 {
        seeder
            .record(&flush(&format!("c{i}.dat"), i, None))
            .unwrap();
    }

    let readers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(addr).unwrap();
                for i in 0..8u64 {
                    let outcome = client.read(&format!("c{i}.dat")).unwrap();
                    assert!(outcome.consistent());
                }
            })
        })
        .collect();
    for reader in readers {
        reader.join().unwrap();
    }

    // The server-side handle observed every request.
    assert!(handle.requests() >= 8 + 4 * 8);
    server.shutdown();
}

#[test]
fn networked_store_fingerprint_matches_in_process_run() {
    // In-process reference run.
    let reference = arch2_handle();
    for i in 0..6u64 {
        let parent = (i > 0).then(|| format!("f{}.dat", i - 1));
        reference
            .record(&flush(&format!("f{i}.dat"), i, parent.as_deref()))
            .unwrap();
    }
    reference.flush().unwrap();

    // The same workload over the wire.
    let served = arch2_handle();
    let path = unique_socket_path("fp");
    let server = Server::bind_unix(served.clone(), &path, 2).unwrap();
    let mut client = Client::connect_unix(&path).unwrap();
    for i in 0..6u64 {
        let parent = (i > 0).then(|| format!("f{}.dat", i - 1));
        client
            .record(&flush(&format!("f{i}.dat"), i, parent.as_deref()))
            .unwrap();
    }
    client.flush().unwrap();
    let stats = client.stats().unwrap();
    server.shutdown();

    assert_eq!(stats.fingerprint, reference.fingerprint());
    assert_eq!(stats.fingerprint, served.fingerprint());
}

#[test]
fn client_reports_server_closing_mid_reply_as_transport_error() {
    let server = Server::bind_tcp(arch2_handle(), "127.0.0.1:0", 1).unwrap();
    let addr = server.tcp_addr().unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();
    client.record(&flush("x.dat", 1, None)).unwrap();
    server.shutdown();
    // The pool is gone; the next call fails with Io, not a panic or hang.
    let err = client.read("x.dat").unwrap_err();
    assert!(matches!(err, ClientError::Io(_)), "got {err:?}");
}

/// A stream that counts the `read` and `write` calls made on it — each
/// is one syscall on the socket underneath.
struct Counted {
    stream: UnixStream,
    reads: usize,
    writes: usize,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        self.stream.read(buf)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

fn counted_client(path: &std::path::Path) -> Client<Counted> {
    Client::over(Counted {
        stream: UnixStream::connect(path).unwrap(),
        reads: 0,
        writes: 0,
    })
}

#[test]
fn a_round_trip_is_one_write_and_one_read_on_the_client() {
    let path = unique_socket_path("count");
    let server = Server::bind_unix(arch2_handle(), &path, 1).unwrap();
    let mut client = counted_client(&path);
    let q1 = ProvQuery::ProvenanceOf {
        name: "counted.dat".into(),
        version: 1,
    };

    // Every reply here is far below a socket buffer, and the server
    // writes it whole: one `write` out, one `read` back, per request.
    let mut calls = 0;
    client.record(&flush("counted.dat", 1, None)).unwrap();
    calls += 1;
    for _ in 0..3 {
        assert!(client.read("counted.dat").unwrap().consistent());
        assert_eq!(client.query(&q1).unwrap().items.len(), 1);
        client.flush().unwrap();
        calls += 3;
    }
    // A fault reply is a frame like any other.
    assert!(client.read("absent.dat").is_err());
    client.raw_round_trip(&[0x42]).unwrap();
    calls += 2;

    let stream = client.stream_mut();
    assert_eq!(stream.writes, calls, "one write per request");
    assert_eq!(stream.reads, calls, "one read per whole-frame reply");
    server.shutdown();
}

#[test]
fn two_commands_in_one_write_get_two_replies_in_order() {
    let server = Server::bind_tcp(arch2_handle(), "127.0.0.1:0", 1).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    client.record(&flush("first.dat", 1, None)).unwrap();
    client.record(&flush("second.dat", 2, None)).unwrap();

    let mut wire = Vec::new();
    let mut frame = Vec::new();
    for name in ["first.dat", "second.dat"] {
        write_frame(&mut wire, &mut frame, |out| {
            encode_command_into(out, &Command::Read(name.into()))
        })
        .unwrap();
    }
    client.stream_mut().write_all(&wire).unwrap();

    for name in ["first.dat", "second.dat"] {
        let Reply::Read(outcome) = client.read_reply().unwrap() else {
            panic!("expected a read reply for {name}");
        };
        assert_eq!(outcome.object.name, name);
    }
    // Nothing else is owed: the connection is still request/reply.
    assert!(client.read("first.dat").unwrap().consistent());
    server.shutdown();
}

#[test]
fn large_record_batch_then_q1_on_one_connection() {
    let path = unique_socket_path("big");
    let server = Server::bind_unix(arch2_handle(), &path, 1).unwrap();
    let mut client = Client::connect_unix(&path).unwrap();

    // ~1 MiB in one frame: the worker's reader grows for it, then a
    // small frame follows on the same connection.
    let batch: Vec<FileFlush> = (0..16u64)
        .map(|i| {
            FileFlush::builder(format!("big{i}.dat"))
                .data(Blob::synthetic(i, 64 * 1024))
                .build()
        })
        .collect();
    client.record_batch(&batch).unwrap();
    let answer = client
        .query(&ProvQuery::ProvenanceOf {
            name: "big7.dat".into(),
            version: 1,
        })
        .unwrap();
    assert_eq!(answer.items.len(), 1);
    assert_eq!(client.read("big7.dat").unwrap().data.len(), 64 * 1024);
    server.shutdown();
}

#[test]
fn oversized_reply_becomes_a_fault_and_the_connection_survives() {
    let handle = arch2_handle();
    // Too big to have arrived over the wire: stored in process.
    let huge = FileFlush::builder("huge.dat")
        .data(Blob::synthetic(9, MAX_FRAME as u64 + 1024))
        .build();
    handle.record(&huge).unwrap();
    let server = Server::bind_tcp(handle, "127.0.0.1:0", 1).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();

    let err = client.read("huge.dat").unwrap_err();
    let fault = err.fault().expect("a structured fault, not a dead worker");
    assert_eq!(fault.code, FaultCode::FrameTooLarge);

    // Same connection, same (only) worker: a Q1 is answered next.
    let answer = client
        .query(&ProvQuery::ProvenanceOf {
            name: "huge.dat".into(),
            version: 1,
        })
        .unwrap();
    assert_eq!(answer.items.len(), 1);
    server.shutdown();
}

#[test]
fn oversized_command_is_a_protocol_error_and_nothing_is_written() {
    let path = unique_socket_path("bigcmd");
    let server = Server::bind_unix(arch2_handle(), &path, 1).unwrap();
    let mut client = counted_client(&path);

    let huge = FileFlush::builder("huge.dat")
        .data(Blob::synthetic(9, MAX_FRAME as u64 + 1024))
        .build();
    let err = client.record(&huge).unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)), "got {err:?}");
    assert_eq!(client.stream_mut().writes, 0);

    // The stream is untouched, so the connection still works.
    client.record(&flush("small.dat", 1, None)).unwrap();
    assert!(client.read("small.dat").unwrap().consistent());
    server.shutdown();
}

/// An arch2 store whose `persist` panics on one object name: a stand-in
/// for any `expect` below the server's `execute`.
struct PanicsOn {
    inner: S3SimpleDb,
    sentinel: &'static str,
}

impl ProvenanceStore for PanicsOn {
    fn architecture(&self) -> &'static str {
        self.inner.architecture()
    }

    fn persist(&mut self, flush: &FileFlush) -> provenance_cloud::Result<()> {
        assert_ne!(flush.object.name, self.sentinel, "sentinel object recorded");
        self.inner.persist(flush)
    }

    fn read(&self, name: &str) -> provenance_cloud::Result<ReadOutcome> {
        self.inner.read(name)
    }

    fn query(&self, query: &ProvQuery) -> provenance_cloud::Result<QueryAnswer> {
        self.inner.query(query)
    }

    fn recover(&mut self) -> provenance_cloud::Result<RecoveryReport> {
        self.inner.recover()
    }
}

impl Serveable for PanicsOn {
    fn serve_parts(&self) -> ServeParts {
        self.inner.serve_parts()
    }
}

#[test]
fn a_panicking_request_closes_its_connection_and_spares_the_worker() {
    let store = PanicsOn {
        inner: S3SimpleDb::new(&SimWorld::counting()),
        sentinel: "poison.dat",
    };
    // One worker: if the panic takes it, nobody is left to serve B.
    let server = Server::bind_tcp(ServeHandle::new(store), "127.0.0.1:0", 1).unwrap();
    let addr = server.tcp_addr().unwrap();
    // A regression leaves a client blocked in `read` for good; the
    // timeout turns that into a failure.
    let connect = || {
        let mut client = Client::connect_tcp(addr).unwrap();
        let stream = client.stream_mut();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client
    };

    let mut a = connect();
    let err = a.record(&flush("poison.dat", 1, None)).unwrap_err();
    let ClientError::Io(e) = &err else {
        panic!("expected a transport error, got {err:?}");
    };
    assert!(
        !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        "the connection was left open until the read timed out: {e}"
    );

    let mut b = connect();
    b.record(&flush("ok.dat", 2, None)).unwrap();
    assert!(b.read("ok.dat").unwrap().consistent());
    assert!(b.stats().unwrap().requests >= 3);
    server.shutdown();
}
