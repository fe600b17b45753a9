//! The SimpleDB service simulator.
//!
//! # Sharded storage layout
//!
//! Each domain is a [`simworld::ShardMap`]: a fixed set of shards, an
//! item living on shard `fnv1a_64(name) % n`, each shard behind its own
//! lock (default [`DEFAULT_SHARDS`] shards, configurable via
//! [`SimpleDb::with_shards`]). Point operations
//! (`PutAttributes`/`GetAttributes`/`DeleteAttributes`) contend only
//! for one shard. `Query` merges per-shard results in item-name order:
//! an expression with `=` terms *weighs* the domain's one attribute
//! posting table — one probe per term, covering every shard — then
//! *fetches* only where the chosen cover has something posted; anything
//! else scans every shard. Shards are visited one at a time, never
//! under a cross-shard snapshot, and the weigh reads the table at one
//! point: an item a concurrent writer lands after the weigh can miss
//! the page being served, exactly as it could land behind a scan's
//! cursor.
//!
//! Shard-count requests are validated by the one shared rule
//! ([`simworld::clamp_shards`], identical in S3): `with_shards(0)` is
//! promoted to 1 shard and oversized requests are silently capped at
//! [`MAX_SHARDS`].
//!
//! # Shard-aware pagination tokens
//!
//! A `next_token` encodes one **pinned replica per shard** and the last
//! item name served. Pinning replicas means every page of one logical
//! scan reads the same replica view per shard (the single-replica
//! contract of one `EcMap::visible_page_on` call, stretched across
//! pages). A token is accepted only by a domain with as many shards as
//! it pins, each pinned once; a token minted on another layout is
//! [`SdbError::InvalidNextToken`]. Every page is in item-name order and
//! resumes strictly after the name in its token, so a paginated scan
//! neither skips nor duplicates an item no matter what is inserted or
//! deleted between pages.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use simworld::{Charge, Cost, Op, Pair, ReplicaPin, ShardMap, ShardRegistry, SimWorld};

use crate::error::{Result, SdbError};
use crate::model::{
    byte_size, DeletableAttribute, ItemState, ReplaceableAttribute, ITEM_NAME_LIMIT,
    MAX_ATTRS_PER_CALL, MAX_DOMAINS,
};
use crate::query::QueryExpr;

/// Default page size for `Query`/`QueryWithAttributes`.
pub const QUERY_DEFAULT_PAGE: usize = 100;

/// Maximum page size for `Query`/`QueryWithAttributes`.
pub const QUERY_MAX_PAGE: usize = 250;

/// Maximum items per `BatchPutAttributes` call.
pub const MAX_BATCH_ITEMS: usize = 25;

/// Maximum attribute name-value pairs summed across one batch call's
/// items (the real service's `NumberSubmittedAttributesExceeded` bound).
pub const MAX_PAIRS_PER_BATCH: usize = 256;

/// Default number of hash shards per domain.
pub const DEFAULT_SHARDS: usize = 16;

/// Upper bound on shards per domain — the workspace-wide
/// [`simworld::MAX_SHARDS`], shared with S3 so the clamping rule cannot
/// drift between services.
pub const MAX_SHARDS: usize = simworld::MAX_SHARDS;

/// Approximate fixed response overhead per returned item name.
const ITEM_ENTRY_OVERHEAD: u64 = 32;

/// Result of `Query`: item names only.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct QueryResult {
    /// Matching item names, in item-name order.
    pub item_names: Vec<String>,
    /// Present when more results remain; feed back in to continue.
    pub next_token: Option<String>,
}

/// One item of a `QueryWithAttributes` response.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ResultItem {
    /// Item name.
    pub name: String,
    /// The item's attributes (possibly filtered): the stored item itself
    /// when nothing was filtered out.
    pub attributes: ItemState,
}

/// Result of `QueryWithAttributes`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct QueryWithAttributesResult {
    /// Matching items with their attributes.
    pub items: Vec<ResultItem>,
    /// Present when more results remain.
    pub next_token: Option<String>,
}

type Domain = ShardMap<ItemState>;

/// The simulated SimpleDB service.
///
/// Clones share one backing store. Every call is metered and advances the
/// virtual clock; reads and queries observe a sampled replica and may be
/// stale under eventual consistency — exactly the §2.2 behaviour ("an
/// item inserted might not be returned in a query that is run immediately
/// after the insert").
///
/// # Examples
///
/// ```
/// use sim_simpledb::{ReplaceableAttribute, SimpleDb};
/// use simworld::SimWorld;
///
/// let world = SimWorld::counting();
/// let db = SimpleDb::new(&world);
/// db.create_domain("prov")?;
/// db.put_attributes("prov", "foo_2", &[
///     ReplaceableAttribute::add("input", "bar:2"),
///     ReplaceableAttribute::add("type", "file"),
/// ])?;
/// let names = db.query("prov", Some("['type' = 'file']"), None, None)?;
/// assert_eq!(names.item_names, vec!["foo_2"]);
/// # Ok::<(), sim_simpledb::SdbError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SimpleDb {
    world: SimWorld,
    domains: Arc<ShardRegistry<ItemState>>,
}

impl SimpleDb {
    /// Connects a new simulated SimpleDB endpoint to `world` with
    /// [`DEFAULT_SHARDS`] shards per domain.
    pub fn new(world: &SimWorld) -> SimpleDb {
        SimpleDb::with_shards(world, DEFAULT_SHARDS)
    }

    /// Connects an endpoint whose domains are divided into `shards` hash
    /// shards, validated by the shared rule ([`simworld::clamp_shards`]:
    /// zero becomes 1, oversized caps at [`MAX_SHARDS`]). More shards
    /// mean less lock contention between concurrent point operations and
    /// more fan-out parallelism for `Query`. The layout is
    /// fixed for the life of each domain.
    pub fn with_shards(world: &SimWorld, shards: usize) -> SimpleDb {
        SimpleDb {
            world: world.clone(),
            domains: Arc::new(ShardRegistry::new(shards)),
        }
    }

    /// Hash shards per domain on this endpoint (post-clamp).
    pub fn shard_count(&self) -> usize {
        self.domains.shards()
    }

    /// Creates a domain. Idempotent, as in the real service.
    ///
    /// # Errors
    ///
    /// [`SdbError::TooManyDomains`] past the account limit.
    pub fn create_domain(&self, domain: impl Into<String>) -> Result<()> {
        self.domains.create(domain.into(), |domain, exists, count| {
            self.world
                .record_op(Op::SdbCreateDomain, domain.len() as u64, 0);
            if !exists && count >= MAX_DOMAINS {
                return Err(SdbError::TooManyDomains { limit: MAX_DOMAINS });
            }
            Ok(!exists)
        })
    }

    /// Inserts or updates attributes of an item. Idempotent: re-running
    /// the same call converges to the same state (§2.2). Touches exactly
    /// one shard.
    ///
    /// # Errors
    ///
    /// Limit violations ([`SdbError::TooManyAttributesInCall`],
    /// [`SdbError::TooManyAttributesOnItem`], name/value/item length) and
    /// [`SdbError::NoSuchDomain`].
    pub fn put_attributes(
        &self,
        domain: &str,
        item_name: &str,
        attrs: &[ReplaceableAttribute],
    ) -> Result<()> {
        if attrs.len() > MAX_ATTRS_PER_CALL {
            return Err(SdbError::TooManyAttributesInCall {
                submitted: attrs.len(),
            });
        }
        let bytes_in = check_put(item_name, attrs)?;
        let dom = self.domain(domain)?;
        let op = Op::SdbPutAttributes;
        dom.with_cells(item_name, |shard, map| {
            let (item, stored_delta) = apply_put(item_name, map.read_latest(item_name), attrs)?;
            self.world.charge(Charge {
                shards: &[shard],
                stored_delta,
                ..Charge::point(op, bytes_in, 0)
            });
            map.write(&self.world, item_name.to_string(), Some(item));
            Ok(())
        })
    }

    /// Reads an item's attributes, optionally filtered to a set of names.
    /// Served from a sampled replica; a freshly written item may be
    /// missing or stale. Absent items return an empty item, as the real
    /// service returns an empty list. Touches exactly one shard.
    ///
    /// # Errors
    ///
    /// [`SdbError::NoSuchDomain`].
    pub fn get_attributes(
        &self,
        domain: &str,
        item_name: &str,
        names: Option<&[&str]>,
    ) -> Result<ItemState> {
        let dom = self.domain(domain)?;
        // The stored item itself, unless `names` filters pairs out.
        let (shard, item) = dom.with_cells(item_name, |shard, map| {
            let item = map.read_with(&self.world, item_name, |item| {
                let keep = |p: Pair| names.is_none_or(|f| f.contains(&p.name));
                item.map_or_else(ItemState::default, |item| item.only(keep))
            });
            (shard, item)
        });
        self.world.charge(Charge {
            shards: &[shard],
            ..Charge::point(
                Op::SdbGetAttributes,
                item_name.len() as u64,
                byte_size(&item),
            )
        });
        Ok(item)
    }

    /// Deletes attributes (or, with `attrs = None`, the entire item).
    /// Idempotent: deleting absent attributes or items succeeds (§2.2).
    /// Touches exactly one shard.
    ///
    /// # Errors
    ///
    /// [`SdbError::NoSuchDomain`].
    pub fn delete_attributes(
        &self,
        domain: &str,
        item_name: &str,
        attrs: Option<&[DeletableAttribute]>,
    ) -> Result<()> {
        let dom = self.domain(domain)?;
        let op = Op::SdbDeleteAttributes;
        let bytes_in = item_name.len() as u64;
        dom.with_cells(item_name, |shard, map| {
            let change = map
                .read_latest(item_name)
                .map(|item| apply_delete(item, attrs));
            self.world.charge(Charge {
                shards: &[shard],
                stored_delta: change.as_ref().map_or(0, |(_, delta)| *delta),
                ..Charge::point(op, bytes_in, 0)
            });
            if let Some((new_state, _)) = change {
                map.write(&self.world, item_name.to_string(), new_state);
                map.gc(self.world.now());
            }
        });
        Ok(())
    }

    /// `BatchPutAttributes`: writes up to [`MAX_BATCH_ITEMS`] items (and
    /// [`MAX_PAIRS_PER_BATCH`] attributes summed across them) in **one
    /// billable request**. Items are grouped by shard and every touched
    /// shard's lock is taken exactly once per batch — then held together
    /// while the batch applies, so the batch lands atomically with
    /// respect to concurrent readers of those shards. The latency model
    /// charges one round trip plus the busiest shard's share of the
    /// per-item marginal cost, mirroring the fan-out scan pricing.
    ///
    /// # Errors
    ///
    /// Every error leaves the store untouched — **no entry of a
    /// rejected batch applies** (the PR 3 invariant, extended):
    /// [`SdbError::EmptyBatch`], [`SdbError::TooManyItemsInBatch`],
    /// [`SdbError::DuplicateItemInBatch`],
    /// [`SdbError::TooManyAttributesInBatch`], per-item limit errors as
    /// [`SimpleDb::put_attributes`] (including
    /// [`SdbError::TooManyAttributesOnItem`] for an entry that would
    /// push an item past 256 pairs), and [`SdbError::NoSuchDomain`].
    pub fn batch_put_attributes(
        &self,
        domain: &str,
        items: &[(String, Vec<ReplaceableAttribute>)],
    ) -> Result<()> {
        check_batch_shape(items)?;
        let submitted: usize = items.iter().map(|(_, attrs)| attrs.len()).sum();
        if submitted > MAX_PAIRS_PER_BATCH {
            return Err(SdbError::TooManyAttributesInBatch { submitted });
        }
        let mut bytes_in = 0u64;
        for (item_name, attrs) in items {
            bytes_in += check_put(item_name, attrs)?;
        }
        let dom = self.domain(domain)?;

        let shards: Vec<u32> = dom.route_all(items.iter().map(|(n, _)| n.as_str()));

        // Every touched shard's lock is taken exactly once, in ascending
        // id order (a deterministic order keeps concurrent batches
        // deadlock-free).
        dom.with_cells_multi(&shards, |guards| -> Result<()> {
            // Stage phase: compute every item's new state against the
            // locked shards. Any failure returns here — nothing has been
            // written.
            let mut staged: Vec<(u32, &str, ItemState)> = Vec::with_capacity(items.len());
            let mut stored_delta = 0i64;
            for ((item_name, attrs), &shard) in items.iter().zip(&shards) {
                let current = guards.get_mut(shard).read_latest(item_name.as_str());
                let (item, delta) = apply_put(item_name, current, attrs)?;
                stored_delta += delta;
                staged.push((shard, item_name, item));
            }
            // Apply phase: meter one request, then write every entry.
            self.charge_batch(bytes_in, &shards, stored_delta);
            for (shard, item_name, item) in staged {
                guards
                    .get_mut(shard)
                    .write(&self.world, item_name.to_string(), Some(item));
            }
            Ok(())
        })
    }

    /// Charges one batch request whose entries landed on `shards` (one
    /// routed id per entry): shards apply their entries in parallel, so
    /// the busiest one's entry count gates the response.
    fn charge_batch(&self, bytes_in: u64, shards: &[u32], stored_delta: i64) {
        let mut per_shard = BTreeMap::<u32, u64>::new();
        for &shard in shards {
            *per_shard.entry(shard).or_insert(0) += 1;
        }
        let gating = per_shard.values().copied().max().unwrap_or(0);
        let touched: Vec<u32> = per_shard.into_keys().collect();
        self.world.charge(Charge {
            cost: Cost::Batch {
                entries: shards.len() as u64,
                gating,
            },
            shards: &touched,
            stored_delta,
            ..Charge::point(Op::SdbBatchPutAttributes, bytes_in, 0)
        });
    }

    /// `Query`: returns matching item names. `expression = None` matches
    /// every item. Fans out across shards; each page of one paginated
    /// scan reads the replica view pinned in its token.
    ///
    /// # Errors
    ///
    /// [`SdbError::NoSuchDomain`], [`SdbError::InvalidQuery`],
    /// [`SdbError::InvalidNextToken`].
    pub fn query(
        &self,
        domain: &str,
        expression: Option<&str>,
        max_items: Option<usize>,
        next_token: Option<&str>,
    ) -> Result<QueryResult> {
        let ((rows, next, scanned), dom) =
            self.run_query(domain, expression, max_items, next_token, |_| ())?;
        let item_names: Vec<String> = rows.into_iter().map(|(n, ())| n).collect();
        let bytes: u64 = item_names
            .iter()
            .map(|n| n.len() as u64 + ITEM_ENTRY_OVERHEAD)
            .sum();
        let request = expression.map_or(0, str::len);
        self.charge_scan(Op::SdbQuery, request, bytes, scanned, dom.ids());
        Ok(QueryResult {
            item_names,
            next_token: next,
        })
    }

    /// `QueryWithAttributes`: matching items together with (optionally a
    /// subset of) their attributes.
    ///
    /// # Errors
    ///
    /// As [`SimpleDb::query`].
    pub fn query_with_attributes(
        &self,
        domain: &str,
        expression: Option<&str>,
        attribute_filter: Option<&[String]>,
        max_items: Option<usize>,
        next_token: Option<&str>,
    ) -> Result<QueryWithAttributesResult> {
        let keep = |p: Pair| attribute_filter.is_none_or(|f| f.iter().any(|n| n == p.name));
        let ((rows, next, scanned), dom) =
            self.run_query(domain, expression, max_items, next_token, |item| {
                item.only(keep)
            })?;
        let items = result_items(rows);
        let request = expression.map_or(0, str::len);
        let bytes = result_bytes(&items);
        self.charge_scan(
            Op::SdbQueryWithAttributes,
            request,
            bytes,
            scanned,
            dom.ids(),
        );
        Ok(QueryWithAttributesResult {
            items,
            next_token: next,
        })
    }

    /// Charges one `Query` page: a scan whose busiest shard
    /// examined `scanned` cells, touching every shard of the fan-out.
    fn charge_scan(&self, op: Op, request: usize, bytes_out: u64, scanned: u64, touched: &[u32]) {
        self.world.charge(Charge {
            cost: Cost::Scan { rows: scanned },
            shards: touched,
            ..Charge::point(op, request as u64, bytes_out)
        });
    }

    // --- authoritative (non-billed) views for invariant checks ---

    /// The newest committed attributes of an item, ignoring replication
    /// lag and without billing. For tests and property validators only.
    pub fn latest_item(&self, domain: &str, item_name: &str) -> Option<ItemState> {
        let dom = self.domain(domain).ok()?;
        dom.with_cells(item_name, |_, map| map.read_latest(item_name))
    }

    /// Authoritative list of live item names, unbilled. For tests and
    /// property validators only.
    pub fn latest_item_names(&self, domain: &str) -> Vec<String> {
        self.domains
            .get(domain)
            .map_or_else(Vec::new, |dom| dom.latest_keys(|_| true))
    }

    /// Cells `domain` physically holds, live or tombstoned, summed over
    /// its shards — what a full scan examines; unbilled. For tests and
    /// property validators only.
    pub fn domain_cell_count(&self, domain: &str) -> Option<usize> {
        let dom = self.domains.get(domain)?;
        let cells = |shard| dom.with_cells_at(shard, |map| map.cell_count());
        Some((0..dom.shard_count()).map(cells).sum())
    }

    fn domain(&self, domain: &str) -> Result<Arc<Domain>> {
        self.domains
            .get(domain)
            .ok_or_else(|| SdbError::NoSuchDomain {
                domain: domain.to_string(),
            })
    }

    /// One page of a name-ordered scan: each shard contributes its next
    /// visible matches after the cursor under the shared adaptive-quota
    /// merge ([`simworld::merged_shard_page`] — the same machinery the
    /// sharded S3 LIST runs on), and the page is the first `page_size`
    /// of the merge. `row` sees each visible item under its shard's
    /// lock and returns the row to serve for a match, so nothing but the
    /// row is copied out. The returned token resumes strictly after the
    /// last name served, carrying the same replica pin.
    ///
    /// When `expr` has `=` pairs, a **weigh** pass first probes the
    /// domain's one posting table ([`ShardMap::weigh`]) once per pair,
    /// each value hashed once for the page, and derives one equality
    /// cover from the counts, summed over shards. The postings live in
    /// that table, not in the shards; an attribute is posted the first
    /// time an equality term names it, shard by shard, under the shard's
    /// lock and then the table's — the one lock order. The fetch then
    /// returns to a shard only if it posts a pair of that cover (or, past
    /// the first page, to price the scan behind the cursor), reading the
    /// shard's keys from the table under the shard's lock; a shard with
    /// nothing posted is charged its cell count, which the table keeps
    /// and which is what fetching nothing from it examines. The charges
    /// cannot move with where the postings live: a probe yields per shard
    /// the keys a shard-local index held, every candidate is re-checked
    /// by `row` on the pinned replica, and `scanned` counts cells, never
    /// postings. A `token` has been checked against `dom`'s layout
    /// ([`decode_token`]).
    fn merged_page<T>(
        &self,
        dom: &Domain,
        token: Option<PageToken>,
        page_size: usize,
        expr: Option<&QueryExpr>,
        row: impl FnMut(&ItemState) -> Option<T>,
    ) -> Page<T> {
        let (pin, after) = match token {
            Some(PageToken { pin, after }) => (pin, Some(after)),
            None => (dom.pin_replicas(&self.world), None),
        };
        let now = self.world.now();
        let probes: Vec<(&str, u64)> = expr.map_or_else(Vec::new, |e| {
            e.eq_pairs(|attr, value| (attr, simworld::value_hash(value)))
        });
        let cover = expr
            .filter(|_| !probes.is_empty())
            .and_then(|e| dom.weigh(ItemState::get, &probes, |totals| e.cover(totals)));
        let (candidates, more, scanned) =
            dom.merged_page(&pin, now, after, page_size, cover.as_ref(), row);
        let next = more.then(|| {
            let last = candidates
                .last()
                .map(|(n, _)| n.clone())
                .expect("page_size >= 1, so a truncated page is non-empty");
            PageToken { pin, after: last }.encode()
        });
        (candidates, next, scanned)
    }

    /// Shared implementation of `Query`/`QueryWithAttributes`: `emit`
    /// builds what a call returns of a matching item. Returns the page
    /// and the domain, whose shards the caller's charge touches.
    fn run_query<T>(
        &self,
        domain: &str,
        expression: Option<&str>,
        max_items: Option<usize>,
        next_token: Option<&str>,
        emit: impl Fn(&ItemState) -> T,
    ) -> Result<(Page<T>, Arc<Domain>)> {
        let parsed = expression.map(QueryExpr::parse).transpose()?;
        let page_size = max_items
            .unwrap_or(QUERY_DEFAULT_PAGE)
            .clamp(1, QUERY_MAX_PAGE);
        let dom = self.domain(domain)?;
        let token = decode_token(next_token, &dom, &self.world)?;
        let query = parsed.as_ref();
        let page = self.merged_page(&dom, token, page_size, query, |item| {
            query.is_none_or(|q| q.matches(item)).then(|| emit(item))
        });
        Ok((page, dom))
    }
}

/// Pairs each row's name with its attributes.
fn result_items(rows: Vec<(String, ItemState)>) -> Vec<ResultItem> {
    rows.into_iter()
        .map(|(name, attributes)| ResultItem { name, attributes })
        .collect()
}

/// Response size of `items`: per item its name, the fixed entry
/// overhead, and the name and value of every pair returned with it.
fn result_bytes(items: &[ResultItem]) -> u64 {
    items
        .iter()
        .map(|i| i.name.len() as u64 + ITEM_ENTRY_OVERHEAD + byte_size(&i.attributes))
        .sum()
}

/// One page of rows, the token resuming after it (if more remain), and
/// the cells the busiest shard examined.
type Page<T> = (Vec<(String, T)>, Option<String>, u64);

/// Validates one item's put — a non-empty attribute list, the item-name
/// limit, each attribute's own limits — and returns its request bytes.
fn check_put(item_name: &str, attrs: &[ReplaceableAttribute]) -> Result<u64> {
    if attrs.is_empty() {
        return Err(SdbError::EmptyAttributeList);
    }
    if item_name.len() > ITEM_NAME_LIMIT {
        return Err(SdbError::ItemNameTooLong {
            length: item_name.len(),
        });
    }
    let mut bytes = item_name.len();
    for a in attrs {
        a.check_limits()?;
        bytes += a.name.len() + a.value.len();
    }
    Ok(bytes as u64)
}

/// Applies one `PutAttributes` attribute list to an item's current
/// state ([`ItemState::put`]). Returns the new state and the change in
/// the item's stored bytes.
fn apply_put(
    item_name: &str,
    current: Option<ItemState>,
    attrs: &[ReplaceableAttribute],
) -> Result<(ItemState, i64)> {
    let before_bytes = current.as_ref().map_or(0, byte_size) as i64;
    let mut item = current.unwrap_or_default();
    item.put(attrs)
        .map_err(|pairs| SdbError::TooManyAttributesOnItem {
            item: item_name.to_string(),
            pairs,
        })?;
    let stored_delta = byte_size(&item) as i64 - before_bytes;
    Ok((item, stored_delta))
}

/// Applies `DeleteAttributes` specs to an item's current state; `None`
/// specs (or an emptied item) erase the item entirely. Returns the new
/// state and the change in the item's stored bytes.
fn apply_delete(
    mut item: ItemState,
    specs: Option<&[DeletableAttribute]>,
) -> (Option<ItemState>, i64) {
    let before_bytes = byte_size(&item) as i64;
    let Some(specs) = specs else {
        return (None, -before_bytes);
    };
    item.delete(specs);
    // An item with no attributes ceases to exist.
    if item.is_empty() {
        return (None, -before_bytes);
    }
    let stored_delta = byte_size(&item) as i64 - before_bytes;
    (Some(item), stored_delta)
}

/// Batch-shape validation: item count, duplicate names.
fn check_batch_shape(items: &[(String, Vec<ReplaceableAttribute>)]) -> Result<()> {
    if items.is_empty() {
        return Err(SdbError::EmptyBatch);
    }
    if items.len() > MAX_BATCH_ITEMS {
        return Err(SdbError::TooManyItemsInBatch {
            submitted: items.len(),
        });
    }
    let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for (name, _) in items {
        if !seen.insert(name) {
            return Err(SdbError::DuplicateItemInBatch { item: name.clone() });
        }
    }
    Ok(())
}

// --- shard-aware pagination tokens ---

/// A decoded `next_token`: one pinned replica per shard plus the name to
/// resume after.
#[derive(Clone, PartialEq, Eq, Debug)]
struct PageToken {
    /// Replica pinned per shard at the scan's first page.
    pin: ReplicaPin,
    /// The next page starts strictly after this item name.
    after: String,
}

impl PageToken {
    /// Wire format: `s<pins>;p<shard:r.shard:r...>;a<hex(name)>`, the
    /// shards ascending. The item name is hex-encoded so the token
    /// survives any byte the 1 KB item-name budget allows.
    fn encode(&self) -> String {
        let replicas = self.pin.replicas();
        let pins = replicas
            .iter()
            .enumerate()
            .map(|(shard, r)| format!("{shard}:{r}"))
            .collect::<Vec<_>>()
            .join(".");
        let after = hex_encode(&self.after);
        format!("s{};p{};a{}", replicas.len(), pins, after)
    }

    /// Decodes a token minted on a map of `shards` shards in a world of
    /// `replicas` replicas: its count is `shards`, it pins every shard
    /// exactly once, in any order, and each replica exists.
    fn decode(token: &str, shards: usize, replicas: usize) -> Option<PageToken> {
        let rest = token.strip_prefix('s')?;
        let (count, rest) = rest.split_once(';')?;
        if count.parse::<usize>().ok()? != shards {
            return None;
        }
        let rest = rest.strip_prefix('p')?;
        let (pins, cursor) = rest.split_once(';')?;
        let mut pinned: Vec<Option<usize>> = vec![None; shards];
        for entry in pins.split('.') {
            let (shard, r) = entry.split_once(':')?;
            let slot = pinned.get_mut(shard.parse::<usize>().ok()?)?;
            let r = r.parse::<usize>().ok().filter(|&r| r < replicas)?;
            if slot.replace(r).is_some() {
                return None; // duplicate shard
            }
        }
        let pin = ReplicaPin::new(pinned.into_iter().collect::<Option<_>>()?);
        let after = hex_decode(cursor.strip_prefix('a')?)?;
        Some(PageToken { pin, after })
    }
}

/// Decodes and validates a client token against the domain's shard
/// count and the world's replica count ([`PageToken::decode`]).
fn decode_token(token: Option<&str>, dom: &Domain, world: &SimWorld) -> Result<Option<PageToken>> {
    let Some(token) = token else {
        return Ok(None);
    };
    let replicas = world.replicas().max(1);
    let parsed = PageToken::decode(token, dom.shard_count(), replicas);
    parsed.map(Some).ok_or(SdbError::InvalidNextToken)
}

fn hex_encode(s: &str) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(s.len() * 2);
    for b in s.as_bytes() {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
    out
}

fn hex_decode(hex: &str) -> Option<String> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    let raw = hex.as_bytes();
    for pair in raw.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        bytes.push((hi * 16 + lo) as u8);
    }
    String::from_utf8(bytes).ok()
}
