//! The wire format: length-prefixed frames carrying tagged commands and
//! replies.
//!
//! The codec is deliberately dependency-free and explicit: big-endian
//! fixed-width integers, `u32`-prefixed UTF-8 strings, `u64`-prefixed
//! raw blobs. Provenance records travel as the same `(attribute,
//! value)` pairs the store persists
//! ([`ProvenanceRecord::to_pair`]/[`ProvenanceRecord::from_pair`]), so
//! the network format and the storage format cannot drift apart.

use std::fmt;
use std::io::{self, Read, Write};

use pass::{FileFlush, ObjectKind, ObjectRef, ProvenanceRecord, RecordValue};
use provenance_cloud::{
    CloudError, ProvQuery, QueryAnswer, QueryItem, ReadOutcome, ReadStatus, ServeStats,
};
use simworld::Blob;

/// Hard cap on a frame's payload length: 8 MiB. Generous against the
/// store's own limits (a 1 KB record overflows to S3; SimpleDB items
/// cap at 256 pairs), tight enough that a hostile length prefix cannot
/// make the server allocate unboundedly.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Command tag: persist one flush.
pub const CMD_RECORD: u8 = 0x01;
/// Command tag: persist a group of flushes through the batched path.
pub const CMD_RECORD_BATCH: u8 = 0x02;
/// Command tag: drive background daemons until quiescent.
pub const CMD_FLUSH: u8 = 0x03;
/// Command tag: verified read of one object.
pub const CMD_READ: u8 = 0x04;
/// Command tag: provenance query (Q1–Q3).
pub const CMD_QUERY: u8 = 0x05;
/// Command tag: counters, meters, and the state fingerprint.
pub const CMD_STATS: u8 = 0x06;

/// Reply tag: success, no body.
pub const REP_UNIT: u8 = 0x80;
/// Reply tag: a [`ReadOutcome`].
pub const REP_READ: u8 = 0x81;
/// Reply tag: a [`QueryAnswer`].
pub const REP_QUERY: u8 = 0x82;
/// Reply tag: a [`ServeStats`].
pub const REP_STATS: u8 = 0x83;
/// Reply tag: structured error (code byte + message string).
pub const REP_ERR: u8 = 0x7F;

/// A request to the serving store.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Persist one object version and its provenance.
    Record(FileFlush),
    /// Persist a group through the store's batched path.
    RecordBatch(Vec<FileFlush>),
    /// Drive daemons until quiescent (arch3's commit daemon).
    Flush,
    /// Verified read of the named object's current version.
    Read(String),
    /// A provenance query.
    Query(ProvQuery),
    /// Counter/meter snapshot plus the state fingerprint.
    Stats,
}

/// A response from the serving store.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// The command succeeded and has no result body.
    Unit,
    /// Result of [`Command::Read`].
    Read(ReadOutcome),
    /// Result of [`Command::Query`].
    Query(QueryAnswer),
    /// Result of [`Command::Stats`].
    Stats(ServeStats),
    /// The command failed; the fault says how.
    Err(WireFault),
}

/// Structured error classes carried in error replies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultCode {
    /// The requested object is not stored.
    NotFound = 1,
    /// Stored state failed to decode.
    Corrupt = 2,
    /// A retry budget was spent without the error clearing.
    RetryExhausted = 3,
    /// A simulated crash fired mid-protocol.
    Crashed = 4,
    /// A backend service call failed (S3 / SimpleDB / SQS).
    Service = 5,
    /// The frame itself was malformed (zero length, short payload).
    BadFrame = 6,
    /// The payload carried an unknown or undecodable command.
    BadCommand = 7,
    /// The announced frame length exceeded [`MAX_FRAME`].
    FrameTooLarge = 8,
}

impl FaultCode {
    /// Parses a code byte.
    pub fn from_u8(code: u8) -> Option<FaultCode> {
        Some(match code {
            1 => FaultCode::NotFound,
            2 => FaultCode::Corrupt,
            3 => FaultCode::RetryExhausted,
            4 => FaultCode::Crashed,
            5 => FaultCode::Service,
            6 => FaultCode::BadFrame,
            7 => FaultCode::BadCommand,
            8 => FaultCode::FrameTooLarge,
            _ => return None,
        })
    }
}

/// A structured error reply: class plus human-readable detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFault {
    /// Error class.
    pub code: FaultCode,
    /// Rendered detail (the server's `CloudError` display, or a frame
    /// diagnosis).
    pub message: String,
}

impl WireFault {
    /// Builds a fault.
    pub fn new(code: FaultCode, message: impl Into<String>) -> WireFault {
        WireFault {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl From<&CloudError> for WireFault {
    fn from(e: &CloudError) -> WireFault {
        let code = match e {
            CloudError::NotFound { .. } => FaultCode::NotFound,
            CloudError::Corrupt { .. } => FaultCode::Corrupt,
            CloudError::RetryExhausted { .. } => FaultCode::RetryExhausted,
            CloudError::Crashed(_) => FaultCode::Crashed,
            CloudError::S3(_) | CloudError::SimpleDb(_) | CloudError::Sqs(_) => FaultCode::Service,
        };
        WireFault::new(code, e.to_string())
    }
}

/// Why a payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the announced structure did.
    UnexpectedEnd,
    /// An unknown tag byte for the given kind of structure.
    BadTag {
        /// What was being decoded ("command", "reply", "query", ...).
        kind: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the structure was fully decoded.
    Trailing,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => f.write_str("payload truncated"),
            DecodeError::BadTag { kind, tag } => write!(f, "unknown {kind} tag 0x{tag:02x}"),
            DecodeError::BadUtf8 => f.write_str("string field not UTF-8"),
            DecodeError::Trailing => f.write_str("trailing bytes after payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why a frame could not be read off, or written to, the stream.
#[derive(Debug)]
pub enum FrameError {
    /// Transport error.
    Io(io::Error),
    /// The stream ended mid-prefix or mid-payload.
    Truncated,
    /// The length prefix announced zero payload bytes (every payload
    /// carries at least a tag). The stream is still in sync — the
    /// server answers with a [`FaultCode::BadFrame`] and carries on.
    /// Writing, the frame had no payload and nothing was sent.
    Empty,
    /// The length prefix exceeded [`MAX_FRAME`]. The payload is not
    /// consumed, so the connection cannot resync and must close.
    /// Writing, the payload was that long and nothing was sent, so the
    /// stream is still in sync.
    TooLarge(u32),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o: {e}"),
            FrameError::Truncated => f.write_str("stream ended mid-frame"),
            FrameError::Empty => f.write_str("zero-length frame"),
            FrameError::TooLarge(len) => write!(f, "frame of {len} bytes exceeds {MAX_FRAME}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

// ---- frame transport ----------------------------------------------------

/// Bytes of the length prefix that opens every frame.
const PREFIX: usize = 4;

/// What a connection's buffers rest at between frames: the span of a
/// [`FrameReader`], and the most a [`write_frame`] buffer keeps. A
/// frame up to this size can cross in one `read`; a larger one grows
/// its buffer only while it is in flight, so an idle connection holds
/// this much per direction, never [`MAX_FRAME`].
pub const REST_CAPACITY: usize = 64 * 1024;

/// Writes one frame — `u32` big-endian payload length, then the
/// payload — with exactly one `write_all`.
///
/// `frame` is the connection's reusable write buffer; its previous
/// contents are discarded. `encode` appends the payload behind the four
/// bytes reserved for the prefix ([`encode_command_into`] and
/// [`encode_reply_into`] are such encoders), the prefix is stamped in
/// place, and prefix and payload leave together without the payload
/// being copied again. Whatever an unusually large frame made the
/// buffer grow to beyond [`REST_CAPACITY`] is released before
/// returning, so a connection that once carried an 8 MiB frame does
/// not hold 8 MiB while idle.
///
/// # Errors
///
/// [`FrameError::Empty`] for a frame with no payload and
/// [`FrameError::TooLarge`] for one over [`MAX_FRAME`] (a `Read` of a
/// huge object, a `ProvenanceOfAll` answer); nothing is written in
/// either case, so the stream stays in sync. [`FrameError::Io`] on
/// transport errors from `w`.
pub fn write_frame(
    w: &mut impl Write,
    frame: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<(), FrameError> {
    frame.clear();
    frame.extend_from_slice(&[0; PREFIX]);
    encode(frame);
    let len = frame.len() - PREFIX;
    let result = if len == 0 {
        Err(FrameError::Empty)
    } else if len > MAX_FRAME {
        Err(FrameError::TooLarge(u32::try_from(len).unwrap_or(u32::MAX)))
    } else {
        frame[..PREFIX].copy_from_slice(&(len as u32).to_be_bytes());
        w.write_all(frame)
            .and_then(|()| w.flush())
            .map_err(FrameError::Io)
    };
    if frame.capacity() > REST_CAPACITY {
        frame.clear();
        frame.shrink_to(REST_CAPACITY);
    }
    result
}

/// The receiving end of one connection: a reusable buffer that turns a
/// byte stream into frames with, in the common case, one `read` per
/// frame.
///
/// Each [`FrameReader::next_frame`] first serves what earlier reads
/// already buffered — several frames that arrived together come out
/// strictly in order, with no further I/O — and otherwise issues one
/// `read` at a time into all the free space, reassembling a frame that
/// arrives in arbitrary pieces. The buffer rests at [`REST_CAPACITY`],
/// grows to exactly the frame being received when that is larger, and
/// is back at rest as soon as that frame has been handed over.
#[derive(Debug)]
pub struct FrameReader {
    /// Fully initialised; `buf[start..end]` holds bytes received but
    /// not yet handed over.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> FrameReader {
        FrameReader::new()
    }
}

impl FrameReader {
    /// A reader at resting capacity, holding no bytes.
    pub fn new() -> FrameReader {
        FrameReader {
            buf: vec![0; REST_CAPACITY],
            start: 0,
            end: 0,
        }
    }

    /// Bytes the buffer currently spans ([`REST_CAPACITY`] at rest).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Receives the next frame from `r` and hands its payload, borrowed
    /// from the buffer, to `decode`. `Ok(None)` is a clean end of
    /// stream (the peer closed between frames); ending anywhere
    /// *inside* a frame is [`FrameError::Truncated`].
    ///
    /// # Errors
    ///
    /// [`FrameError`] as described on its variants. After
    /// [`FrameError::Empty`] the reader is in sync and the next call
    /// continues with the following frame; [`FrameError::TooLarge`] is
    /// raised from the prefix alone, before the buffer grows, and
    /// consumes nothing.
    pub fn next_frame<T>(
        &mut self,
        r: &mut impl Read,
        decode: impl FnOnce(&[u8]) -> T,
    ) -> Result<Option<T>, FrameError> {
        let total = loop {
            let have = self.end - self.start;
            let need = match self.buf[self.start..self.end].first_chunk::<PREFIX>() {
                None => PREFIX,
                Some(&prefix) => {
                    let len = u32::from_be_bytes(prefix);
                    if len == 0 {
                        self.start += PREFIX;
                        return Err(FrameError::Empty);
                    }
                    if len as usize > MAX_FRAME {
                        return Err(FrameError::TooLarge(len));
                    }
                    let total = PREFIX + len as usize;
                    if have >= total {
                        break total;
                    }
                    total
                }
            };
            self.make_room(need);
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if have == 0 => return Ok(None),
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        };
        let decoded = decode(&self.buf[self.start + PREFIX..self.start + total]);
        self.start += total;
        if self.buf.len() > REST_CAPACITY {
            self.rest();
        }
        Ok(Some(decoded))
    }

    /// Makes `buf[start..]` at least `need` bytes long — by moving the
    /// buffered bytes to the front, and growing only if a whole
    /// buffer is still too short — so a frame of `need` bytes fits and
    /// at least one byte past `end` is free to read into.
    fn make_room(&mut self, need: usize) {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        } else if self.buf.len() - self.start < need {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        }
    }

    /// Back to [`REST_CAPACITY`] (or to the bytes still buffered, if
    /// those are more) after a frame that outgrew it.
    fn rest(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        (self.start, self.end) = (0, self.end - self.start);
        let len = self.end.max(REST_CAPACITY);
        self.buf.truncate(len);
        self.buf.shrink_to(len);
    }
}

// ---- primitive encoders --------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_blob(out: &mut Vec<u8>, blob: &Blob) {
    put_u64(out, blob.len());
    blob.write_to(out);
}

/// Each record as its [`ProvenanceRecord::to_pair`] strings, written in
/// place: a text value as it is stored, a reference rendered straight
/// into the frame behind a length patched in after it.
fn put_records(out: &mut Vec<u8>, records: &[ProvenanceRecord]) {
    put_u32(out, records.len() as u32);
    for record in records {
        put_str(out, record.key.attr_name());
        match &record.value {
            RecordValue::Text(text) => put_str(out, text),
            RecordValue::Ref(object) => {
                let at = out.len();
                put_u32(out, 0);
                write!(out, "{object}").expect("writing to a Vec cannot fail");
                let len = (out.len() - at - 4) as u32;
                out[at..at + 4].copy_from_slice(&len.to_be_bytes());
            }
        }
    }
}

fn put_flush(out: &mut Vec<u8>, flush: &FileFlush) {
    put_str(out, &flush.object.name);
    put_u32(out, flush.object.version);
    out.push(match flush.kind {
        ObjectKind::File => 0,
        ObjectKind::Process => 1,
    });
    put_blob(out, &flush.data);
    put_records(out, &flush.records);
}

// ---- primitive decoders --------------------------------------------------

struct Cur<'a> {
    buf: &'a [u8],
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        self.borrowed_str().map(str::to_string)
    }

    /// The next string, borrowed from the payload.
    fn borrowed_str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| DecodeError::BadUtf8)
    }

    fn blob(&mut self) -> Result<Blob, DecodeError> {
        let len = self.u64()? as usize;
        Ok(Blob::from_bytes(self.take(len)?.to_vec()))
    }

    fn records(&mut self) -> Result<Vec<ProvenanceRecord>, DecodeError> {
        let count = self.u32()? as usize;
        let mut records = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let name = self.borrowed_str()?;
            let value = self.borrowed_str()?;
            records.push(ProvenanceRecord::from_pair(name, value));
        }
        Ok(records)
    }

    fn flush(&mut self) -> Result<FileFlush, DecodeError> {
        let name = self.str()?;
        let version = self.u32()?;
        let kind = match self.u8()? {
            0 => ObjectKind::File,
            1 => ObjectKind::Process,
            tag => return Err(DecodeError::BadTag { kind: "kind", tag }),
        };
        let data = self.blob()?;
        let records = self.records()?;
        Ok(FileFlush {
            object: ObjectRef::new(name, version),
            kind,
            data,
            records,
        })
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Trailing)
        }
    }
}

// ---- commands ------------------------------------------------------------

fn put_query(out: &mut Vec<u8>, query: &ProvQuery) {
    match query {
        ProvQuery::ProvenanceOfAll => out.push(0),
        ProvQuery::ProvenanceOf { name, version } => {
            out.push(1);
            put_str(out, name);
            put_u32(out, *version);
        }
        ProvQuery::OutputsOf { program } => {
            out.push(2);
            put_str(out, program);
        }
        ProvQuery::DescendantsOf { program } => {
            out.push(3);
            put_str(out, program);
        }
    }
}

fn get_query(cur: &mut Cur<'_>) -> Result<ProvQuery, DecodeError> {
    Ok(match cur.u8()? {
        0 => ProvQuery::ProvenanceOfAll,
        1 => ProvQuery::ProvenanceOf {
            name: cur.str()?,
            version: cur.u32()?,
        },
        2 => ProvQuery::OutputsOf {
            program: cur.str()?,
        },
        3 => ProvQuery::DescendantsOf {
            program: cur.str()?,
        },
        tag => return Err(DecodeError::BadTag { kind: "query", tag }),
    })
}

/// Encodes a command into a frame payload (tag byte + body).
pub fn encode_command(command: &Command) -> Vec<u8> {
    let mut out = Vec::new();
    encode_command_into(&mut out, command);
    out
}

/// Appends a command's frame payload (tag byte + body) to `out` — the
/// encoder to hand [`write_frame`].
pub fn encode_command_into(out: &mut Vec<u8>, command: &Command) {
    match command {
        Command::Record(flush) => {
            out.push(CMD_RECORD);
            put_flush(out, flush);
        }
        Command::RecordBatch(flushes) => {
            out.push(CMD_RECORD_BATCH);
            put_u32(out, flushes.len() as u32);
            for flush in flushes {
                put_flush(out, flush);
            }
        }
        Command::Flush => out.push(CMD_FLUSH),
        Command::Read(name) => {
            out.push(CMD_READ);
            put_str(out, name);
        }
        Command::Query(query) => {
            out.push(CMD_QUERY);
            put_query(out, query);
        }
        Command::Stats => out.push(CMD_STATS),
    }
}

/// Decodes a frame payload as a command.
///
/// # Errors
///
/// [`DecodeError`] on an unknown tag or malformed body.
pub fn decode_command(payload: &[u8]) -> Result<Command, DecodeError> {
    let mut cur = Cur { buf: payload };
    let command = match cur.u8()? {
        CMD_RECORD => Command::Record(cur.flush()?),
        CMD_RECORD_BATCH => {
            let count = cur.u32()? as usize;
            let mut flushes = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                flushes.push(cur.flush()?);
            }
            Command::RecordBatch(flushes)
        }
        CMD_FLUSH => Command::Flush,
        CMD_READ => Command::Read(cur.str()?),
        CMD_QUERY => Command::Query(get_query(&mut cur)?),
        CMD_STATS => Command::Stats,
        tag => {
            return Err(DecodeError::BadTag {
                kind: "command",
                tag,
            })
        }
    };
    cur.finish()?;
    Ok(command)
}

// ---- replies -------------------------------------------------------------

fn put_status(out: &mut Vec<u8>, status: ReadStatus) {
    match status {
        ReadStatus::AtomicUnit => out.push(0),
        ReadStatus::VerifiedConsistent { retries } => {
            out.push(1);
            put_u32(out, retries);
        }
        ReadStatus::InconsistencyDetected { retries } => {
            out.push(2);
            put_u32(out, retries);
        }
    }
}

fn get_status(cur: &mut Cur<'_>) -> Result<ReadStatus, DecodeError> {
    Ok(match cur.u8()? {
        0 => ReadStatus::AtomicUnit,
        1 => ReadStatus::VerifiedConsistent {
            retries: cur.u32()?,
        },
        2 => ReadStatus::InconsistencyDetected {
            retries: cur.u32()?,
        },
        tag => {
            return Err(DecodeError::BadTag {
                kind: "status",
                tag,
            })
        }
    })
}

/// Encodes a reply into a frame payload (tag byte + body).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut out = Vec::new();
    encode_reply_into(&mut out, reply);
    out
}

/// Appends a reply's frame payload (tag byte + body) to `out` — the
/// encoder to hand [`write_frame`].
pub fn encode_reply_into(out: &mut Vec<u8>, reply: &Reply) {
    match reply {
        Reply::Unit => out.push(REP_UNIT),
        Reply::Read(outcome) => {
            out.push(REP_READ);
            put_str(out, &outcome.object.name);
            put_u32(out, outcome.object.version);
            put_blob(out, &outcome.data);
            put_records(out, &outcome.records);
            put_status(out, outcome.status);
        }
        Reply::Query(answer) => {
            out.push(REP_QUERY);
            put_u32(out, answer.items.len() as u32);
            for item in &answer.items {
                put_str(out, &item.object.name);
                put_u32(out, item.object.version);
                put_records(out, &item.records);
            }
        }
        Reply::Stats(stats) => {
            out.push(REP_STATS);
            put_str(out, &stats.architecture);
            put_u64(out, stats.requests);
            put_u64(out, stats.store_ops);
            put_u64(out, stats.bytes_in);
            put_u64(out, stats.bytes_out);
            put_u64(out, stats.fingerprint);
        }
        Reply::Err(fault) => {
            out.push(REP_ERR);
            out.push(fault.code as u8);
            put_str(out, &fault.message);
        }
    }
}

/// Decodes a frame payload as a reply.
///
/// # Errors
///
/// [`DecodeError`] on an unknown tag or malformed body.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, DecodeError> {
    let mut cur = Cur { buf: payload };
    let reply = match cur.u8()? {
        REP_UNIT => Reply::Unit,
        REP_READ => {
            let name = cur.str()?;
            let version = cur.u32()?;
            let data = cur.blob()?;
            let records = cur.records()?;
            let status = get_status(&mut cur)?;
            Reply::Read(ReadOutcome {
                object: ObjectRef::new(name, version),
                data,
                records,
                status,
            })
        }
        REP_QUERY => {
            let count = cur.u32()? as usize;
            let mut items = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let name = cur.str()?;
                let version = cur.u32()?;
                let records = cur.records()?;
                items.push(QueryItem {
                    object: ObjectRef::new(name, version),
                    records,
                });
            }
            Reply::Query(QueryAnswer { items })
        }
        REP_STATS => Reply::Stats(ServeStats {
            architecture: cur.str()?,
            requests: cur.u64()?,
            store_ops: cur.u64()?,
            bytes_in: cur.u64()?,
            bytes_out: cur.u64()?,
            fingerprint: cur.u64()?,
        }),
        REP_ERR => {
            let code_byte = cur.u8()?;
            let code = FaultCode::from_u8(code_byte).ok_or(DecodeError::BadTag {
                kind: "fault code",
                tag: code_byte,
            })?;
            Reply::Err(WireFault {
                code,
                message: cur.str()?,
            })
        }
        tag => return Err(DecodeError::BadTag { kind: "reply", tag }),
    };
    cur.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_flush() -> FileFlush {
        FileFlush::builder("dir/a.dat")
            .data(Blob::from("hello"))
            .record("input", "dir/b.dat:3")
            .record("env", "PATH=/bin")
            .build()
    }

    #[test]
    fn command_round_trips() {
        let commands = [
            Command::Record(sample_flush()),
            Command::RecordBatch(vec![sample_flush(), sample_flush()]),
            Command::Flush,
            Command::Read("dir/a.dat".into()),
            Command::Query(ProvQuery::ProvenanceOfAll),
            Command::Query(ProvQuery::ProvenanceOf {
                name: "x".into(),
                version: 7,
            }),
            Command::Query(ProvQuery::OutputsOf {
                program: "blastall".into(),
            }),
            Command::Query(ProvQuery::DescendantsOf {
                program: "blastall".into(),
            }),
            Command::Stats,
        ];
        for command in commands {
            let payload = encode_command(&command);
            assert_eq!(decode_command(&payload).unwrap(), command);
        }
    }

    #[test]
    fn reply_round_trips() {
        let replies = [
            Reply::Unit,
            Reply::Read(ReadOutcome {
                object: ObjectRef::new("a", 2),
                data: Blob::from("bytes"),
                records: sample_flush().records,
                status: ReadStatus::VerifiedConsistent { retries: 1 },
            }),
            Reply::Query(QueryAnswer {
                items: vec![QueryItem {
                    object: ObjectRef::new("b", 1),
                    records: vec![ProvenanceRecord::from_pair("type", "file")],
                }],
            }),
            Reply::Stats(ServeStats {
                architecture: "s3+simpledb".into(),
                requests: 9,
                store_ops: 100,
                bytes_in: 5,
                bytes_out: 6,
                fingerprint: 0xdead_beef,
            }),
            Reply::Err(WireFault::new(FaultCode::NotFound, "object not found: x")),
        ];
        for reply in replies {
            let payload = encode_reply(&reply);
            assert_eq!(decode_reply(&payload).unwrap(), reply);
        }
    }

    /// Records go on the wire as their `to_pair` strings: the bytes
    /// `put_records` writes in place are the bytes putting each pair
    /// wrote, for text values and references alike.
    #[test]
    fn records_are_written_as_their_pairs() {
        let records = vec![
            ProvenanceRecord::from_pair("input", "dir/b.dat:3"),
            ProvenanceRecord::input(ObjectRef::new("proc:1:a b", u32::MAX)),
            ProvenanceRecord::from_pair("forkparent", "proc:1:make:0"),
            ProvenanceRecord::from_pair("input", "not-a-ref"),
            ProvenanceRecord::from_pair("env", "PATH=/bin"),
            ProvenanceRecord::from_pair("kernel", "2.6 é"),
            ProvenanceRecord::from_pair("name", ""),
        ];
        let mut via_pairs = Vec::new();
        put_u32(&mut via_pairs, records.len() as u32);
        for record in &records {
            let (name, value) = record.to_pair();
            put_str(&mut via_pairs, &name);
            put_str(&mut via_pairs, &value);
        }
        let mut written = Vec::new();
        put_records(&mut written, &records);
        assert_eq!(written, via_pairs);
        assert_eq!(Cur { buf: &written }.records().unwrap(), records);
    }

    fn write_raw(wire: &mut Vec<u8>, payload: &[u8]) -> Result<(), FrameError> {
        write_frame(wire, &mut Vec::new(), |out| out.extend_from_slice(payload))
    }

    fn next_payload(
        reader: &mut FrameReader,
        r: &mut &[u8],
    ) -> Result<Option<Vec<u8>>, FrameError> {
        reader.next_frame(r, <[u8]>::to_vec)
    }

    #[test]
    fn frame_round_trips_over_a_buffer() {
        let payload = encode_command(&Command::Flush);
        let mut wire = Vec::new();
        let mut frame = Vec::new();
        for _ in 0..2 {
            write_frame(&mut wire, &mut frame, |out| {
                encode_command_into(out, &Command::Flush)
            })
            .unwrap();
        }
        assert_eq!(wire.len(), 2 * (4 + payload.len()));
        let mut stream = wire.as_slice();
        let mut reader = FrameReader::new();
        assert_eq!(
            next_payload(&mut reader, &mut stream).unwrap().unwrap(),
            payload
        );
        assert_eq!(
            next_payload(&mut reader, &mut stream).unwrap().unwrap(),
            payload
        );
        assert!(
            next_payload(&mut reader, &mut stream).unwrap().is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn truncated_prefix_and_payload_are_distinguished_from_eof() {
        // Two bytes of a four-byte prefix.
        let mut stream: &[u8] = &[0x00, 0x01];
        assert!(matches!(
            next_payload(&mut FrameReader::new(), &mut stream),
            Err(FrameError::Truncated)
        ));
        // Full prefix announcing 100 bytes, only 3 present.
        let mut wire = 100u32.to_be_bytes().to_vec();
        wire.extend_from_slice(&[1, 2, 3]);
        let mut stream = wire.as_slice();
        assert!(matches!(
            next_payload(&mut FrameReader::new(), &mut stream),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn zero_and_oversized_lengths_are_structured_errors() {
        // A zero prefix is consumed: the frame behind it is served next.
        let mut wire = 0u32.to_be_bytes().to_vec();
        write_raw(&mut wire, &[CMD_FLUSH]).unwrap();
        let mut stream = wire.as_slice();
        let mut reader = FrameReader::new();
        assert!(matches!(
            next_payload(&mut reader, &mut stream),
            Err(FrameError::Empty)
        ));
        assert_eq!(
            next_payload(&mut reader, &mut stream).unwrap().unwrap(),
            [CMD_FLUSH]
        );
        // An oversized prefix is refused before the buffer grows for it.
        let mut stream: &[u8] = &u32::MAX.to_be_bytes();
        let mut reader = FrameReader::new();
        assert!(matches!(
            next_payload(&mut reader, &mut stream),
            Err(FrameError::TooLarge(u32::MAX))
        ));
        assert_eq!(reader.capacity(), REST_CAPACITY);
    }

    #[test]
    fn writing_an_empty_or_oversized_frame_sends_nothing() {
        let mut wire = Vec::new();
        assert!(matches!(write_raw(&mut wire, &[]), Err(FrameError::Empty)));
        let mut frame = Vec::new();
        let sent = write_frame(&mut wire, &mut frame, |out| {
            out.resize(out.len() + MAX_FRAME + 1, 7)
        });
        assert!(matches!(sent, Err(FrameError::TooLarge(len)) if len as usize == MAX_FRAME + 1));
        assert!(wire.is_empty());
        assert!(frame.capacity() <= REST_CAPACITY, "the 8 MiB is let go");
        // The largest legal frame still goes.
        write_frame(&mut wire, &mut frame, |out| {
            out.resize(out.len() + MAX_FRAME, 7)
        })
        .unwrap();
        assert_eq!(wire.len(), 4 + MAX_FRAME);
    }

    #[test]
    fn garbage_tags_and_trailing_bytes_are_rejected() {
        assert_eq!(
            decode_command(&[0x42]),
            Err(DecodeError::BadTag {
                kind: "command",
                tag: 0x42
            })
        );
        let mut payload = encode_command(&Command::Flush);
        payload.push(0xFF);
        assert_eq!(decode_command(&payload), Err(DecodeError::Trailing));
        assert_eq!(
            decode_command(&[CMD_READ, 0, 0]),
            Err(DecodeError::UnexpectedEnd)
        );
        assert!(matches!(
            decode_reply(&[REP_ERR, 99, 0, 0, 0, 0]),
            Err(DecodeError::BadTag {
                kind: "fault code",
                ..
            })
        ));
    }

    #[test]
    fn fault_codes_map_cloud_errors() {
        let fault = WireFault::from(&CloudError::NotFound { name: "x".into() });
        assert_eq!(fault.code, FaultCode::NotFound);
        assert!(fault.message.contains('x'));
        let fault = WireFault::from(&CloudError::Corrupt {
            message: "bad".into(),
        });
        assert_eq!(fault.code, FaultCode::Corrupt);
        for code in 1..=8 {
            assert_eq!(FaultCode::from_u8(code).map(|c| c as u8), Some(code));
        }
        assert_eq!(FaultCode::from_u8(0), None);
        assert_eq!(FaultCode::from_u8(9), None);
    }
}
