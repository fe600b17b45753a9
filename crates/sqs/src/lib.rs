//! # sim-sqs — a simulated Amazon SQS (January 2009)
//!
//! An in-process message queue reproducing the SQS semantics the paper
//! *Making a Cloud Provenance-Aware* (TaPP '09) builds its third
//! architecture on:
//!
//! * 8 KB Unicode message bodies, stored once and **shared** with every
//!   delivery ([`ReceivedMessage::body`] is an `Arc<str>` pointing at the
//!   queue's copy, not a copy of it);
//! * sampled `ReceiveMessage` (1–10 messages; one call may miss messages
//!   that exist — callers repeat until done);
//! * **per-queue locking** under a shared queue map, so operations on
//!   different queues never contend;
//! * per-delivery **receipt handles** and a **visibility timeout** that
//!   turns the queue into a coarse distributed lock;
//! * `ApproximateNumberOfMessages` that is genuinely approximate;
//! * automatic deletion of messages older than four days;
//! * per-operation billing meters feeding the [`simworld`] ledger.
//!
//! The paper uses one SQS queue per client as a **write-ahead log**: a
//! transaction's records are enqueued, a commit record marks them
//! durable, and a commit daemon drains the queue into S3/SimpleDB.
//!
//! # Examples
//!
//! ```
//! use sim_sqs::Sqs;
//! use simworld::SimWorld;
//!
//! let world = SimWorld::counting();
//! let sqs = Sqs::new(&world);
//! let wal = sqs.create_queue("wal");
//! sqs.send_message(&wal, "begin 1 3")?;
//! sqs.send_message(&wal, "prov 1 type=file")?;
//! sqs.send_message(&wal, "commit 1")?;
//!
//! // Drain: repeat ReceiveMessage until everything has been seen.
//! let mut seen = 0;
//! while seen < 3 {
//!     for msg in sqs.receive_message(&wal, 10)? {
//!         seen += 1;
//!         sqs.delete_message(&wal, &msg.receipt_handle)?;
//!     }
//! }
//! # Ok::<(), sim_sqs::SqsError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod error;
mod service;

pub use error::{Result, SqsError};
pub use service::{
    BatchEntryOutcome, ReceivedMessage, Sqs, DEFAULT_VISIBILITY_TIMEOUT, MAX_BATCH_ENTRIES,
    MAX_BATCH_PAYLOAD, MAX_MESSAGE_SIZE, MAX_RECEIVE_BATCH, QUEUE_SERVERS, RETENTION,
};

#[cfg(test)]
mod tests;
