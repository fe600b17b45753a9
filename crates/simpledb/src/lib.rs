//! # sim-simpledb — a simulated Amazon SimpleDB (January 2009)
//!
//! An in-process attribute store reproducing the SimpleDB semantics the
//! paper *Making a Cloud Provenance-Aware* (TaPP '09) depends on:
//!
//! * **items** described by multi-valued **attribute** pairs, grouped in
//!   **domains**, with SimpleDB's automatic indexing: each shard keeps
//!   `attribute → value hash → items` postings (built the first time a query
//!   names the attribute, maintained by writes from then on), so a
//!   `Query` pinned down by `=` terms costs time proportional to its
//!   answer, not to the domain — while being *billed and timed* exactly
//!   like the scan it replaces;
//! * the 2009 limits that shape the paper's protocols: 1 KB attribute
//!   names and values (provenance larger than this spills to S3), 256
//!   pairs per item, **100 attributes per `PutAttributes`** (so storing a
//!   big provenance record may take several calls — §4.2 step 3);
//! * `Query` (bracket syntax) and `QueryWithAttributes`, both paginated
//!   in item-name order (the `sort` clause is not simulated and fails to
//!   parse);
//! * **idempotent** `PutAttributes`/`DeleteAttributes` (§2.2) — the
//!   property Architecture 3's replaying commit daemon relies on;
//! * **eventual consistency**: an insert may not appear in an immediately
//!   following query;
//! * per-operation billing meters feeding the [`simworld`] ledger.
//!
//! # Examples
//!
//! ```
//! use sim_simpledb::{ReplaceableAttribute, SimpleDb};
//! use simworld::SimWorld;
//!
//! let world = SimWorld::counting();
//! let db = SimpleDb::new(&world);
//! db.create_domain("provenance")?;
//!
//! // The paper's running example: version 2 of object `foo` has
//! // provenance records (input, bar:2) and (type, file).
//! db.put_attributes("provenance", "foo_2", &[
//!     ReplaceableAttribute::add("input", "bar:2"),
//!     ReplaceableAttribute::add("type", "file"),
//! ])?;
//!
//! let hits = db.query("provenance", Some("['input' = 'bar:2']"), None, None)?;
//! assert_eq!(hits.item_names, ["foo_2"]);
//! # Ok::<(), sim_simpledb::SdbError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod error;
mod model;
mod query;
mod service;

pub use error::{Result, SdbError};
pub use model::{
    byte_size, pairs, DeletableAttribute, ItemState, ReplaceableAttribute, ATTR_LIMIT,
    ITEM_NAME_LIMIT, MAX_ATTRS_PER_CALL, MAX_DOMAINS, MAX_PAIRS_PER_ITEM,
};
pub use query::{CmpOp, Predicate, QueryExpr};
pub use service::{
    QueryResult, QueryWithAttributesResult, ResultItem, SimpleDb, DEFAULT_SHARDS, MAX_BATCH_ITEMS,
    MAX_PAIRS_PER_BATCH, MAX_SHARDS, QUERY_DEFAULT_PAGE, QUERY_MAX_PAGE,
};

#[cfg(test)]
mod tests;
