//! The serving loop: a fixed pool of connection-handler threads over a
//! shared [`ServeHandle`].
//!
//! Every worker thread blocks in `accept` on its own clone of the
//! listener and handles one connection at a time, so up to `threads`
//! connections are served concurrently; reads and queries go straight
//! through the handle's `&self` path and contend on the store's
//! per-shard locks and the global `SimWorld` lock, while record/flush
//! serialize on the handle's writer mutex — the same semantics an
//! in-process driver gets.
//!
//! Fault handling per connection:
//!
//! * store errors → structured [`Reply::Err`]; the connection stays up;
//! * undecodable command / zero-length frame → structured error reply;
//!   the stream is still in sync, so the connection stays up;
//! * oversized length prefix → structured error reply, then the
//!   connection closes (the payload was never consumed, so the stream
//!   cannot resync);
//! * a reply too large to frame (a `Read` of an object, or a
//!   `ProvenanceOfAll` answer, over [`crate::MAX_FRAME`]) → a
//!   `FrameTooLarge` fault in its place; nothing of the oversized
//!   frame was written, so the connection stays up;
//! * truncated frame or transport error → the connection drops;
//! * a panic while executing a request → the connection drops (the
//!   peer sees EOF); [`ServeHandle`] recovers its poisoned writer lock,
//!   so the next connection is served normally.
//!
//! A dying connection never takes a worker with it: the worker loops
//! back into `accept`, pausing a few milliseconds first if `accept`
//! itself failed. The pool only exits on [`Server::shutdown`].
//!
//! Each connection owns one [`FrameReader`] and one write buffer, so a
//! request costs the worker one `read` and its reply one `write`.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use provenance_cloud::ServeHandle;

use crate::codec::{
    decode_command, encode_reply_into, write_frame, Command, FaultCode, FrameError, FrameReader,
    Reply, WireFault,
};

/// Where a running server is listening.
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// A TCP socket address.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

enum Acceptor {
    Tcp(TcpListener),
    Unix(UnixListener),
}

enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    fn force_close(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Acceptor {
    fn try_clone(&self) -> io::Result<Acceptor> {
        Ok(match self {
            Acceptor::Tcp(l) => Acceptor::Tcp(l.try_clone()?),
            Acceptor::Unix(l) => Acceptor::Unix(l.try_clone()?),
        })
    }

    fn accept(&self) -> io::Result<Conn> {
        Ok(match self {
            Acceptor::Tcp(l) => {
                let (stream, _) = l.accept()?;
                // Every frame leaves in one write; Nagle would only hold
                // a reply back behind the previous one's ACK.
                stream.set_nodelay(true)?;
                Conn::Tcp(stream)
            }
            Acceptor::Unix(l) => Conn::Unix(l.accept()?.0),
        })
    }
}

/// How long a worker pauses after a failed `accept` before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Live connections, indexed so [`Server::shutdown`] can force-close
/// them and unblock workers parked in a read.
#[derive(Default)]
struct Registry {
    next: AtomicU64,
    live: Mutex<HashMap<u64, Conn>>,
}

impl Registry {
    fn insert(&self, conn: &Conn) -> Option<u64> {
        let clone = conn.try_clone().ok()?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.live.lock().expect("registry lock").insert(id, clone);
        Some(id)
    }

    fn remove(&self, id: Option<u64>) {
        if let Some(id) = id {
            self.live.lock().expect("registry lock").remove(&id);
        }
    }

    fn close_all(&self) {
        for conn in self.live.lock().expect("registry lock").values() {
            conn.force_close();
        }
    }
}

/// A running frontend: a listener plus its pool of handler threads.
/// Dropping without [`Server::shutdown`] leaks the (daemon-like)
/// threads until process exit; the tests and the benchmark always shut down.
#[derive(Debug)]
pub struct Server {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    registry: Arc<Registry>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Server {
    /// Binds a TCP server on `addr` (use port 0 for an ephemeral port)
    /// serving `handle` with `threads` handler threads.
    ///
    /// # Errors
    ///
    /// Socket bind/clone errors.
    pub fn bind_tcp(handle: ServeHandle, addr: &str, threads: usize) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let endpoint = Endpoint::Tcp(listener.local_addr()?);
        Server::start(handle, Acceptor::Tcp(listener), endpoint, threads)
    }

    /// Binds a Unix-domain-socket server on `path` (a stale socket file
    /// from a previous run is removed first).
    ///
    /// # Errors
    ///
    /// Socket bind/clone errors.
    pub fn bind_unix(
        handle: ServeHandle,
        path: impl AsRef<Path>,
        threads: usize,
    ) -> io::Result<Server> {
        let path = path.as_ref();
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        let endpoint = Endpoint::Unix(path.to_path_buf());
        Server::start(handle, Acceptor::Unix(listener), endpoint, threads)
    }

    fn start(
        handle: ServeHandle,
        acceptor: Acceptor,
        endpoint: Endpoint,
        threads: usize,
    ) -> io::Result<Server> {
        assert!(threads >= 1, "a server needs at least one worker");
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::default());
        let mut workers = Vec::with_capacity(threads);
        for worker in 0..threads {
            let acceptor = acceptor.try_clone()?;
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("prov-serve-{worker}"))
                    .spawn(move || {
                        while !stop.load(Ordering::Acquire) {
                            let Ok(conn) = acceptor.accept() else {
                                // A persistent failure (EMFILE) must
                                // not spin a core; `stop` is looked at
                                // again after the pause.
                                std::thread::sleep(ACCEPT_BACKOFF);
                                continue;
                            };
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            let id = registry.insert(&conn);
                            // A request that panics below `execute`
                            // loses its connection, not the worker: the
                            // unwind drops `conn`, and deregistering
                            // drops the clone that would otherwise hold
                            // the socket open with the peer still in
                            // `read`.
                            let _ = catch_unwind(AssertUnwindSafe(|| {
                                serve_connection(&handle, conn);
                            }));
                            registry.remove(id);
                        }
                    })?,
            );
        }
        Ok(Server {
            endpoint,
            stop,
            registry,
            workers,
        })
    }

    /// Where the server is listening.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The bound TCP address, if this is a TCP server.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.endpoint {
            Endpoint::Tcp(addr) => Some(*addr),
            Endpoint::Unix(_) => None,
        }
    }

    /// Stops accepting, force-closes live connections, wakes every
    /// worker, and joins the pool. In-flight requests race the close:
    /// one being written when the socket dies is simply dropped with
    /// the connection.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Release);
        // Unblock workers parked in a read on an open connection.
        self.registry.close_all();
        // Unblock workers parked in accept: one self-connection per
        // worker wakes them all to observe the flag.
        for _ in &self.workers {
            match &self.endpoint {
                Endpoint::Tcp(addr) => drop(TcpStream::connect(addr)),
                Endpoint::Unix(path) => drop(UnixStream::connect(path)),
            }
        }
        for worker in self.workers {
            let _ = worker.join();
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs one connection to completion. A panic from the store unwinds
/// out of here and is caught by the worker loop, which closes the
/// connection and goes back to `accept`.
fn serve_connection(handle: &ServeHandle, mut conn: Conn) {
    let mut reader = FrameReader::new();
    let mut frame = Vec::new();
    loop {
        let reply = match reader.next_frame(&mut conn, decode_command) {
            Ok(Some(Ok(command))) => execute(handle, &command),
            Ok(Some(Err(e))) => Reply::Err(WireFault::new(FaultCode::BadCommand, e.to_string())),
            // Clean close between frames.
            Ok(None) => return,
            // In sync (the zero-length prefix was fully consumed):
            // answer and keep serving.
            Err(FrameError::Empty) => {
                Reply::Err(WireFault::new(FaultCode::BadFrame, "zero-length frame"))
            }
            // The announced payload was never consumed — no way to
            // resync. Say why, then drop the connection.
            Err(e @ FrameError::TooLarge(_)) => {
                let fault = WireFault::new(FaultCode::FrameTooLarge, e.to_string());
                let _ = reply_to(&mut conn, &mut frame, &Reply::Err(fault));
                return;
            }
            // Peer died mid-frame or the transport failed: drop.
            Err(FrameError::Truncated | FrameError::Io(_)) => return,
        };
        if reply_to(&mut conn, &mut frame, &reply).is_err() {
            return;
        }
    }
}

/// Sends `reply` as one frame. A reply too large to frame goes out as
/// a [`FaultCode::FrameTooLarge`] fault in its place: nothing of the
/// oversized frame was written, so the connection stays in sync.
fn reply_to(conn: &mut Conn, frame: &mut Vec<u8>, reply: &Reply) -> Result<(), FrameError> {
    match write_frame(conn, frame, |out| encode_reply_into(out, reply)) {
        Err(e @ FrameError::TooLarge(_)) => {
            let fault = Reply::Err(WireFault::new(
                FaultCode::FrameTooLarge,
                format!("reply not sent: {e}"),
            ));
            write_frame(conn, frame, |out| encode_reply_into(out, &fault))
        }
        sent => sent,
    }
}

/// Executes one decoded command against the handle, mapping store
/// errors to structured faults.
fn execute(handle: &ServeHandle, command: &Command) -> Reply {
    let result = match command {
        Command::Record(flush) => handle.record(flush).map(|()| Reply::Unit),
        Command::RecordBatch(flushes) => handle.record_batch(flushes).map(|()| Reply::Unit),
        Command::Flush => handle.flush().map(|()| Reply::Unit),
        Command::Read(name) => handle.read(name).map(Reply::Read),
        Command::Query(query) => handle.query(query).map(Reply::Query),
        Command::Stats => Ok(Reply::Stats(handle.stats())),
    };
    result.unwrap_or_else(|e| Reply::Err(WireFault::from(&e)))
}
