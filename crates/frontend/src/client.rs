//! A blocking client for the wire protocol, generic over the stream.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;

use pass::FileFlush;
use provenance_cloud::{ProvQuery, QueryAnswer, ReadOutcome, ServeStats};

use crate::codec::{
    decode_reply, encode_command_into, write_frame, Command, FrameError, FrameReader, Reply,
    WireFault,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (including the server closing mid-reply).
    Io(io::Error),
    /// The server answered with a structured fault.
    Remote(WireFault),
    /// The server answered with bytes this client could not interpret,
    /// or a reply of the wrong shape for the command — or the command
    /// itself cannot be framed (over [`crate::MAX_FRAME`]) and was not
    /// sent.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Remote(fault) => write!(f, "server fault: {fault}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            e => ClientError::Protocol(e.to_string()),
        }
    }
}

impl ClientError {
    /// The structured fault, when the failure was a server-side error
    /// reply.
    pub fn fault(&self) -> Option<&WireFault> {
        match self {
            ClientError::Remote(fault) => Some(fault),
            _ => None,
        }
    }
}

/// A blocking protocol client over any bidirectional stream. Each
/// request leaves in one `write`; a reply the server wrote whole
/// arrives in one `read`.
#[derive(Debug)]
pub struct Client<S> {
    stream: S,
    reader: FrameReader,
    /// The reusable write buffer [`write_frame`] builds requests in.
    frame: Vec<u8>,
}

impl Client<TcpStream> {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Socket connect errors.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Client<TcpStream>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client::over(stream))
    }
}

impl Client<UnixStream> {
    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Socket connect errors.
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Client<UnixStream>> {
        Ok(Client::over(UnixStream::connect(path)?))
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected stream.
    pub fn over(stream: S) -> Client<S> {
        Client {
            stream,
            reader: FrameReader::new(),
            frame: Vec::new(),
        }
    }

    /// One request/reply round trip.
    fn call(&mut self, command: &Command) -> Result<Reply, ClientError> {
        write_frame(&mut self.stream, &mut self.frame, |out| {
            encode_command_into(out, command)
        })?;
        match self.read_reply()? {
            Reply::Err(fault) => Err(ClientError::Remote(fault)),
            reply => Ok(reply),
        }
    }

    /// Persists one flush.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a server-side fault.
    pub fn record(&mut self, flush: &FileFlush) -> Result<(), ClientError> {
        match self.call(&Command::Record(flush.clone()))? {
            Reply::Unit => Ok(()),
            other => Err(unexpected("Record", &other)),
        }
    }

    /// Persists a group of flushes through the batched path.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a server-side fault.
    pub fn record_batch(&mut self, flushes: &[FileFlush]) -> Result<(), ClientError> {
        match self.call(&Command::RecordBatch(flushes.to_vec()))? {
            Reply::Unit => Ok(()),
            other => Err(unexpected("RecordBatch", &other)),
        }
    }

    /// Drives the store's daemons until quiescent.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a server-side fault.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        match self.call(&Command::Flush)? {
            Reply::Unit => Ok(()),
            other => Err(unexpected("Flush", &other)),
        }
    }

    /// Verified read of `name`'s current version.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a server-side fault
    /// (`NotFound` included).
    pub fn read(&mut self, name: &str) -> Result<ReadOutcome, ClientError> {
        match self.call(&Command::Read(name.to_string()))? {
            Reply::Read(outcome) => Ok(outcome),
            other => Err(unexpected("Read", &other)),
        }
    }

    /// Runs a provenance query.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a server-side fault.
    pub fn query(&mut self, query: &ProvQuery) -> Result<QueryAnswer, ClientError> {
        match self.call(&Command::Query(query.clone()))? {
            Reply::Query(answer) => Ok(answer),
            other => Err(unexpected("Query", &other)),
        }
    }

    /// Fetches counters, meters, and the state fingerprint.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a server-side fault.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        match self.call(&Command::Stats)? {
            Reply::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Sends raw bytes as one frame and reads one reply frame back —
    /// the adversarial-test hook for speaking the protocol badly on
    /// purpose.
    ///
    /// # Errors
    ///
    /// [`ClientError`] as for typed calls, except that a fault reply is
    /// returned as `Ok(Reply::Err(_))`.
    pub fn raw_round_trip(&mut self, payload: &[u8]) -> Result<Reply, ClientError> {
        write_frame(&mut self.stream, &mut self.frame, |out| {
            out.extend_from_slice(payload)
        })?;
        self.read_reply()
    }

    /// Reads the next reply frame without sending anything: the other
    /// half of [`Client::raw_round_trip`], for replies to bytes written
    /// straight to [`Client::stream_mut`]. Replies the client has
    /// already buffered are only reachable through here, not by reading
    /// the stream.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] with `UnexpectedEof` if the server closed
    /// before replying; otherwise as for [`Client::raw_round_trip`].
    pub fn read_reply(&mut self) -> Result<Reply, ClientError> {
        match self.reader.next_frame(&mut self.stream, decode_reply)? {
            Some(reply) => reply.map_err(|e| ClientError::Protocol(e.to_string())),
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before replying",
            ))),
        }
    }

    /// The underlying stream, for tests that need to mangle the
    /// transport (half-written frames, abrupt shutdowns).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }
}

fn unexpected(command: &str, reply: &Reply) -> ClientError {
    ClientError::Protocol(format!("{command} answered with {reply:?}"))
}
