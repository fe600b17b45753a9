//! Error type for the simulated SQS service.

use std::error::Error;
use std::fmt;

/// Errors returned by [`crate::Sqs`] operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SqsError {
    /// The queue URL does not name a queue
    /// (`AWS.SimpleQueueService.NonExistentQueue`).
    QueueDoesNotExist {
        /// The URL as given.
        url: String,
    },
    /// Message body exceeded the 8 KB limit (`MessageTooLong`).
    MessageTooLong {
        /// Body size in bytes.
        size: usize,
        /// The enforced limit.
        limit: usize,
    },
    /// A receipt handle was not produced by this service
    /// (`ReceiptHandleIsInvalid`).
    InvalidReceiptHandle {
        /// The malformed handle.
        handle: String,
    },
    /// A receive asked for a message count outside `1..=10`
    /// (`ReadCountOutOfRange`). Zero is rejected too: the real API never
    /// hands back a message the caller did not ask for.
    ReceiveCountOutOfRange {
        /// Requested count.
        requested: usize,
    },
    /// A batch call carried no entries (`EmptyBatchRequest`).
    EmptyBatch,
    /// A batch call carried more than
    /// [`crate::MAX_BATCH_ENTRIES`] entries (`TooManyEntriesInBatchRequest`).
    TooManyBatchEntries {
        /// Entries submitted.
        submitted: usize,
    },
    /// The summed body bytes of a `SendMessageBatch` exceeded
    /// [`crate::MAX_BATCH_PAYLOAD`] (`BatchRequestTooLong`).
    BatchPayloadTooLarge {
        /// Total payload bytes submitted.
        size: usize,
        /// The enforced limit.
        limit: usize,
    },
}

impl fmt::Display for SqsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqsError::QueueDoesNotExist { url } => write!(f, "queue does not exist: {url}"),
            SqsError::MessageTooLong { size, limit } => {
                write!(f, "message of {size} bytes exceeds the {limit}-byte limit")
            }
            SqsError::InvalidReceiptHandle { handle } => {
                write!(f, "invalid receipt handle: {handle:?}")
            }
            SqsError::ReceiveCountOutOfRange { requested } => {
                write!(
                    f,
                    "{requested} messages requested; the valid range is 1..=10"
                )
            }
            SqsError::EmptyBatch => f.write_str("batch request must carry at least one entry"),
            SqsError::TooManyBatchEntries { submitted } => {
                write!(
                    f,
                    "{submitted} entries submitted; a batch carries at most 10"
                )
            }
            SqsError::BatchPayloadTooLarge { size, limit } => {
                write!(
                    f,
                    "batch payload of {size} bytes exceeds the {limit}-byte limit"
                )
            }
        }
    }
}

impl Error for SqsError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SqsError>;
