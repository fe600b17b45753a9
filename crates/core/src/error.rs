//! Unified error type for the provenance-cloud architectures.

use std::error::Error;
use std::fmt;

use sim_s3::S3Error;
use sim_simpledb::SdbError;
use sim_sqs::SqsError;
use simworld::Crashed;

/// Errors surfaced by [`crate::ProvenanceStore`] operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CloudError {
    /// An S3 call failed.
    S3(S3Error),
    /// A SimpleDB call failed.
    SimpleDb(SdbError),
    /// An SQS call failed.
    Sqs(SqsError),
    /// A simulated crash fired mid-protocol; remote state is whatever the
    /// completed steps left behind.
    Crashed(Crashed),
    /// The requested object is not stored.
    NotFound {
        /// Object name.
        name: String,
    },
    /// A stored record failed to decode (corrupt overflow pointer etc.).
    Corrupt {
        /// Human-readable description.
        message: String,
    },
    /// A bounded retry loop spent its whole budget without the error
    /// clearing — the structured "gave up after N attempts" outcome, so
    /// callers can count retry exhaustion instead of misattributing the
    /// last transient error.
    RetryExhausted {
        /// Tries made, the initial attempt included.
        attempts: u32,
        /// The error the final attempt died on.
        last: Box<CloudError>,
    },
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::S3(e) => write!(f, "s3: {e}"),
            CloudError::SimpleDb(e) => write!(f, "simpledb: {e}"),
            CloudError::Sqs(e) => write!(f, "sqs: {e}"),
            CloudError::Crashed(e) => write!(f, "{e}"),
            CloudError::NotFound { name } => write!(f, "object not found: {name}"),
            CloudError::Corrupt { message } => write!(f, "corrupt state: {message}"),
            CloudError::RetryExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl Error for CloudError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CloudError::S3(e) => Some(e),
            CloudError::SimpleDb(e) => Some(e),
            CloudError::Sqs(e) => Some(e),
            CloudError::Crashed(e) => Some(e),
            CloudError::RetryExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<S3Error> for CloudError {
    fn from(e: S3Error) -> CloudError {
        CloudError::S3(e)
    }
}

impl From<SdbError> for CloudError {
    fn from(e: SdbError) -> CloudError {
        CloudError::SimpleDb(e)
    }
}

impl From<SqsError> for CloudError {
    fn from(e: SqsError) -> CloudError {
        CloudError::Sqs(e)
    }
}

impl From<Crashed> for CloudError {
    fn from(e: Crashed) -> CloudError {
        CloudError::Crashed(e)
    }
}

impl CloudError {
    /// `true` when the error is a simulated crash (the caller should
    /// treat the client process as dead).
    pub fn is_crash(&self) -> bool {
        matches!(self, CloudError::Crashed(_))
    }

    /// `true` when the error means the object is not stored — directly,
    /// or as the last error of an exhausted retry loop. Callers that
    /// treat "missing" as a soft outcome should match on this rather
    /// than on [`CloudError::NotFound`] alone.
    pub fn is_not_found(&self) -> bool {
        match self {
            CloudError::NotFound { .. } => true,
            CloudError::RetryExhausted { last, .. } => last.is_not_found(),
            _ => false,
        }
    }

    /// Wraps the last error of a spent retry budget. `attempts` counts
    /// every try, the initial one included.
    pub fn give_up(attempts: u32, last: CloudError) -> CloudError {
        CloudError::RetryExhausted {
            attempts,
            last: Box::new(last),
        }
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, CloudError>;

#[cfg(test)]
mod tests {
    use super::*;
    use simworld::CrashSite;

    #[test]
    fn conversions_and_display() {
        let e: CloudError = S3Error::NoSuchBucket { bucket: "b".into() }.into();
        assert!(e.to_string().contains("no such bucket"));
        assert!(!e.is_crash());

        let e: CloudError = Crashed {
            site: CrashSite::new("x"),
        }
        .into();
        assert!(e.is_crash());
        assert!(e.to_string().contains("simulated crash"));
    }

    #[test]
    fn source_chains() {
        let e: CloudError = SdbError::InvalidNextToken.into();
        assert!(std::error::Error::source(&e).is_some());
        let e = CloudError::NotFound { name: "x".into() };
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn retry_exhaustion_keeps_the_last_error_and_not_found_transparency() {
        let e = CloudError::give_up(7, CloudError::NotFound { name: "x".into() });
        assert!(e.to_string().contains("gave up after 7 attempts"));
        assert!(e.to_string().contains("object not found: x"));
        assert!(e.is_not_found());
        assert!(std::error::Error::source(&e).is_some());

        let e = CloudError::give_up(3, S3Error::NoSuchBucket { bucket: "b".into() }.into());
        assert!(!e.is_not_found());
    }
}
