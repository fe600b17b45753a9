//! Error type for the simulated SimpleDB service.

use std::error::Error;
use std::fmt;

/// Errors returned by [`crate::SimpleDb`] operations, mirroring the
/// service's error codes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SdbError {
    /// The referenced domain does not exist (`NoSuchDomain`).
    NoSuchDomain {
        /// Domain name as given.
        domain: String,
    },
    /// Domain creation would exceed the account limit
    /// (`NumberDomainsExceeded`).
    TooManyDomains {
        /// The enforced limit.
        limit: usize,
    },
    /// An attribute name exceeded 1024 bytes (`InvalidParameterValue`).
    AttributeNameTooLong {
        /// Offending length.
        length: usize,
    },
    /// An attribute value exceeded 1024 bytes (`InvalidParameterValue`).
    AttributeValueTooLong {
        /// Offending length.
        length: usize,
    },
    /// An item name exceeded 1024 bytes (`InvalidParameterValue`).
    ItemNameTooLong {
        /// Offending length.
        length: usize,
    },
    /// More than 100 attributes in one `PutAttributes`
    /// (`NumberSubmittedAttributesExceeded`).
    TooManyAttributesInCall {
        /// Number submitted.
        submitted: usize,
    },
    /// The item would exceed 256 attribute name-value pairs
    /// (`NumberItemAttributesExceeded`).
    TooManyAttributesOnItem {
        /// Item name.
        item: String,
        /// Resulting pair count.
        pairs: usize,
    },
    /// An empty attribute list was submitted (`MissingParameter`).
    EmptyAttributeList,
    /// A batch call carried no items (`MissingParameter`).
    EmptyBatch,
    /// More than 25 items in one batch call
    /// (`NumberSubmittedItemsExceeded`).
    TooManyItemsInBatch {
        /// Items submitted.
        submitted: usize,
    },
    /// One item name appeared more than once in a batch call
    /// (`DuplicateItemName`).
    DuplicateItemInBatch {
        /// The repeated item name.
        item: String,
    },
    /// The summed attribute count of a batch call exceeded 256
    /// (`NumberSubmittedAttributesExceeded`).
    TooManyAttributesInBatch {
        /// Total attributes submitted across the batch's items.
        submitted: usize,
    },
    /// The query/select expression failed to parse
    /// (`InvalidQueryExpression`).
    InvalidQuery {
        /// Human-readable parse error.
        message: String,
    },
    /// A pagination token was not produced by this domain
    /// (`InvalidNextToken`).
    InvalidNextToken,
}

impl fmt::Display for SdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdbError::NoSuchDomain { domain } => write!(f, "no such domain: {domain}"),
            SdbError::TooManyDomains { limit } => {
                write!(f, "account domain limit of {limit} reached")
            }
            SdbError::AttributeNameTooLong { length } => {
                write!(
                    f,
                    "attribute name of {length} bytes exceeds the 1024-byte limit"
                )
            }
            SdbError::AttributeValueTooLong { length } => {
                write!(
                    f,
                    "attribute value of {length} bytes exceeds the 1024-byte limit"
                )
            }
            SdbError::ItemNameTooLong { length } => {
                write!(f, "item name of {length} bytes exceeds the 1024-byte limit")
            }
            SdbError::TooManyAttributesInCall { submitted } => {
                write!(
                    f,
                    "{submitted} attributes submitted; PutAttributes accepts at most 100"
                )
            }
            SdbError::TooManyAttributesOnItem { item, pairs } => {
                write!(
                    f,
                    "item {item:?} would hold {pairs} pairs; the limit is 256"
                )
            }
            SdbError::EmptyAttributeList => f.write_str("attribute list must not be empty"),
            SdbError::EmptyBatch => f.write_str("batch must carry at least one item"),
            SdbError::TooManyItemsInBatch { submitted } => {
                write!(f, "{submitted} items submitted; a batch carries at most 25")
            }
            SdbError::DuplicateItemInBatch { item } => {
                write!(f, "item {item:?} appears more than once in the batch")
            }
            SdbError::TooManyAttributesInBatch { submitted } => {
                write!(
                    f,
                    "{submitted} attributes submitted across the batch; the limit is 256"
                )
            }
            SdbError::InvalidQuery { message } => write!(f, "invalid query expression: {message}"),
            SdbError::InvalidNextToken => f.write_str("invalid pagination token"),
        }
    }
}

impl Error for SdbError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SdbError>;
