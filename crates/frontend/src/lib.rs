//! # prov-frontend — serving the provenance store over a socket
//!
//! The store so far has only ever been driven in-process. This crate
//! puts a network face on it: a length-prefixed binary protocol
//! (std::net only — no external dependencies) served over **TCP** and
//! **Unix-domain sockets** through one shared command layer.
//!
//! * [`codec`] — the wire format: frames, command/reply encodings,
//!   structured error replies, and the frame I/O both ends share.
//! * [`server`] — a fixed pool of connection-handler threads over a
//!   shared [`provenance_cloud::ServeHandle`]; reads and queries never
//!   wait for the writer mutex (they still meet at the global
//!   `SimWorld` lock).
//! * [`client`] — a blocking client speaking the same codec, generic
//!   over the stream type.
//!
//! ## Wire protocol
//!
//! Every message — command or reply — is one *frame*:
//!
//! ```text
//! +----------------+---------------------+
//! | length: u32 BE | payload: `length` B |
//! +----------------+---------------------+
//! ```
//!
//! `length` counts the payload only, must be ≥ 1 (the tag byte) and at
//! most [`codec::MAX_FRAME`]. The payload's first byte is a tag; the
//! rest is the tag-specific body. Integers are big-endian; strings are
//! `u32` length + UTF-8 bytes; blobs are `u64` length + raw bytes.
//!
//! Command tags: `0x01` Record, `0x02` RecordBatch, `0x03` Flush,
//! `0x04` Read, `0x05` Query, `0x06` Stats. Reply tags: `0x80` Unit,
//! `0x81` Read, `0x82` Query, `0x83` Stats, `0x7F` Error (code byte +
//! message). See [`codec`] for the full layouts.
//!
//! ## Frame I/O
//!
//! A frame crosses the socket in **one `write` and, in the common case,
//! one `read`**, on both ends:
//!
//! * [`write_frame`] builds prefix and payload in the connection's one
//!   reusable buffer and sends them with a single `write_all` — the
//!   peer is never woken by a bare prefix. A payload over
//!   [`codec::MAX_FRAME`] is refused before anything is written: the
//!   server sends a `FrameTooLarge` fault in the reply's place and
//!   keeps the connection, the client returns
//!   [`ClientError::Protocol`].
//! * [`FrameReader`], one per connection, is the only read path. It
//!   fills a reusable buffer with one `read` per call, hands the
//!   decoder a payload slice borrowed from it, serves frames that
//!   arrived together in order without further I/O, and reassembles a
//!   frame that arrives in pieces. A zero-length prefix is
//!   `FrameError::Empty` and leaves the stream in sync; a prefix over
//!   `MAX_FRAME` is `TooLarge`, raised before the buffer grows; EOF
//!   inside a frame is `Truncated`, between frames `Ok(None)`.
//! * Both buffers rest at [`codec::REST_CAPACITY`] (64 KiB). A larger
//!   frame grows its buffer only while it is in flight, so an idle
//!   connection holds at most 128 KiB at each end, never 2 × 8 MiB.
//!   Neither size is configurable.
//!
//! Because the client buffers, bytes of a reply it has already read
//! are not on the stream any more: tests that write raw bytes through
//! [`Client::stream_mut`] collect the answers with
//! [`Client::read_reply`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod client;
pub mod codec;
pub mod server;

pub use client::{Client, ClientError};
pub use codec::{
    decode_command, decode_reply, encode_command, encode_command_into, encode_reply,
    encode_reply_into, write_frame, Command, DecodeError, FaultCode, FrameError, FrameReader,
    Reply, WireFault, MAX_FRAME, REST_CAPACITY,
};
pub use server::{Endpoint, Server};
