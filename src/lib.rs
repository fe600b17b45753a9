//! # pass-cloud — provenance-aware cloud storage
//!
//! Facade crate for the workspace reproducing *Making a Cloud
//! Provenance-Aware* (Muniswamy-Reddy, Macko, Seltzer — TaPP '09).
//!
//! The paper layers a Provenance-Aware Storage System (PASS) on Amazon Web
//! Services and compares three architectures for storing data together
//! with its provenance:
//!
//! 1. **Standalone S3** — provenance rides as S3 object metadata;
//! 2. **S3 + SimpleDB** — data in S3, indexed provenance in SimpleDB;
//! 3. **S3 + SimpleDB + SQS** — a write-ahead log on SQS makes the pair
//!    atomic.
//!
//! This crate re-exports the whole public API so examples and downstream
//! users need a single dependency:
//!
//! * [`simworld`] — deterministic clock/RNG/metering/fault substrate;
//! * [`s3`], [`simpledb`], [`sqs`] — the simulated AWS services;
//! * [`pass`] — the provenance collector;
//! * [`cloud`] — the three architectures, properties, queries (the core);
//! * [`frontend`] — the network serving layer (TCP/Unix sockets, wire
//!   codec, blocking client);
//! * [`workloads`] — Linux-compile / BLAST / Provenance-Challenge traces;
//! * [`costmodel`] — the January 2009 AWS price book.
//!
//! # Examples
//!
//! The serving facade ([`cloud::ServeHandle`]) is the coherent API
//! surface: writes serialize behind one mutex, reads and queries take
//! `&self` so any number of threads (or network connections) can serve
//! concurrently.
//!
//! ```
//! use pass_cloud::cloud::{S3SimpleDbSqs, ServeHandle};
//! use pass_cloud::pass::FileFlush;
//! use pass_cloud::simworld::{Blob, SimWorld};
//!
//! let world = SimWorld::new(42);
//! let store = ServeHandle::new(S3SimpleDbSqs::new(&world, "client-1"));
//!
//! // Persist one file with a provenance record, as PASS would on close().
//! let flush = FileFlush::builder("results/data.csv")
//!     .data(Blob::from("a,b\n1,2\n"))
//!     .record("input", "raw/data.dat:1")
//!     .build();
//! store.record(&flush).unwrap();
//! store.flush().unwrap();
//!
//! let read = store.read("results/data.csv").unwrap();
//! assert!(read.consistent());
//! assert_eq!(store.stats().fingerprint, store.fingerprint());
//! ```

#![forbid(unsafe_code)]

pub use costmodel;
pub use frontend;
pub use pass;
pub use provenance_cloud as cloud;
pub use sim_s3 as s3;
pub use sim_simpledb as simpledb;
pub use sim_sqs as sqs;
pub use simworld;
pub use workloads;
