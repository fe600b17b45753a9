//! # pass — a Provenance-Aware Storage System front end
//!
//! This crate reproduces the PASS layer the paper *Making a Cloud
//! Provenance-Aware* (TaPP '09) builds on (described in its §2.4, and in
//! full in *Provenance-Aware Storage Systems*, USENIX ATC '06):
//!
//! * a **provenance model** — versioned objects ([`ObjectRef`]) described
//!   by key/value records ([`ProvenanceRecord`]): `(input, bar:2)`,
//!   `(type, file)`, `(argv, ...)` — for persistent files *and* transient
//!   processes;
//! * an **observer** ([`Observer`]) that watches a stream of process/file
//!   events (the stand-in for syscall interception) and produces
//!   causally-ordered [`FileFlush`]es with PASS's freeze-then-version
//!   cycle avoidance. A [`FileFlush`] is also the paper's local cache —
//!   the data file plus the hidden provenance file the cloud protocols
//!   read first — so the caller that holds it holds the cache.
//!
//! The `provenance-cloud` crate consumes [`FileFlush`]es and persists
//! them with one of the paper's three architectures — one per `close()`,
//! or a slice of them as one group.
//!
//! # Examples
//!
//! ```
//! use pass::{Observer, TraceEvent};
//! use simworld::Blob;
//!
//! // gcc reads main.c and writes main.o: the .o depends on the process,
//! // the process depends on the .c.
//! let mut obs = Observer::new();
//! let mut flushes = Vec::new();
//! for ev in [
//!     TraceEvent::source("main.c", Blob::from("int main(){}")),
//!     TraceEvent::exec(100, "cc", "cc -c main.c", "PATH=/usr/bin", None),
//!     TraceEvent::read(100, "main.c"),
//!     TraceEvent::write(100, "main.o"),
//!     TraceEvent::close(100, "main.o", Blob::synthetic(1, 900)),
//!     TraceEvent::exit(100),
//! ] {
//!     flushes.extend(obs.observe(ev)?);
//! }
//! let object_names: Vec<_> = flushes.iter().map(|f| f.object.render()).collect();
//! assert_eq!(object_names, vec!["main.c:1", "proc:100:cc:1", "main.o:1"]);
//! # Ok::<(), pass::ObserverError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod flush;
mod model;
mod observer;
mod records;

pub use flush::{FileFlush, FileFlushBuilder};
pub use model::{process_name, ObjectKind, ObjectRef};
pub use observer::{Observer, ObserverError, Result, TraceEvent};
pub use records::{references, ProvenanceRecord, RecordKey, RecordValue};

#[cfg(test)]
mod tests;
