//! Error type for the simulated S3 service.

use std::error::Error;
use std::fmt;

/// Errors returned by [`crate::S3`] operations, mirroring the REST error
/// codes of the real service.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum S3Error {
    /// The referenced bucket does not exist (`NoSuchBucket`).
    NoSuchBucket {
        /// Bucket name as given.
        bucket: String,
    },
    /// The referenced object does not exist — or is not yet visible on the
    /// replica that served the request (`NoSuchKey`).
    NoSuchKey {
        /// Bucket name.
        bucket: String,
        /// Object key.
        key: String,
    },
    /// Bucket creation collided with an existing bucket
    /// (`BucketAlreadyExists`).
    BucketAlreadyExists {
        /// Bucket name.
        bucket: String,
    },
    /// User metadata exceeded the 2 KB limit (`MetadataTooLarge`).
    MetadataTooLarge {
        /// Serialized metadata size in bytes.
        size: u64,
        /// The enforced limit.
        limit: u64,
    },
    /// Object body exceeded the 5 GB limit (`EntityTooLarge`).
    EntityTooLarge {
        /// Body size in bytes.
        size: u64,
    },
    /// Object key exceeded the 1024-byte limit (`KeyTooLong`).
    KeyTooLong {
        /// Key length in bytes.
        length: usize,
    },
    /// A ranged GET asked for bytes outside the object
    /// (`InvalidRange`).
    InvalidRange {
        /// Requested start offset.
        start: u64,
        /// Requested end offset (exclusive).
        end: u64,
        /// Actual object length.
        len: u64,
    },
    /// Malformed bucket name (`InvalidBucketName`).
    InvalidBucketName {
        /// The rejected name.
        bucket: String,
    },
    /// A multi-object delete carried no keys (`MalformedXML` in the real
    /// service — an empty `<Delete>` document).
    EmptyDelete,
    /// A multi-object delete carried more than
    /// [`crate::MAX_DELETE_KEYS`] keys (`MalformedXML`).
    TooManyDeleteKeys {
        /// Keys submitted.
        submitted: usize,
    },
}

impl fmt::Display for S3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            S3Error::NoSuchBucket { bucket } => write!(f, "no such bucket: {bucket}"),
            S3Error::NoSuchKey { bucket, key } => write!(f, "no such key: {bucket}/{key}"),
            S3Error::BucketAlreadyExists { bucket } => {
                write!(f, "bucket already exists: {bucket}")
            }
            S3Error::MetadataTooLarge { size, limit } => {
                write!(f, "metadata of {size} bytes exceeds the {limit}-byte limit")
            }
            S3Error::EntityTooLarge { size } => {
                write!(f, "object of {size} bytes exceeds the 5 GB limit")
            }
            S3Error::KeyTooLong { length } => {
                write!(f, "key of {length} bytes exceeds the 1024-byte limit")
            }
            S3Error::InvalidRange { start, end, len } => {
                write!(f, "range {start}..{end} invalid for object of {len} bytes")
            }
            S3Error::InvalidBucketName { bucket } => {
                write!(f, "invalid bucket name: {bucket:?}")
            }
            S3Error::EmptyDelete => f.write_str("multi-object delete must carry at least one key"),
            S3Error::TooManyDeleteKeys { submitted } => {
                write!(
                    f,
                    "{submitted} keys submitted; a multi-object delete carries at most 1000"
                )
            }
        }
    }
}

impl Error for S3Error {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, S3Error>;
