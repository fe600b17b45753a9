//! Incrementally materialized ancestry-closure index (PR 9).
//!
//! The paper's Q3 ("all descendants of files derived from blast") is the
//! one query class whose walk engine scales with the *whole graph*: each
//! generation costs one `QueryWithAttributes`, and every such query is a
//! scan of the domain. This module maintains, at commit time, a closure
//! index in its own SimpleDB domain ([`CLOSURE_DOMAIN`]) so that Q3 can
//! be answered with point reads only — O(answer), not O(graph).
//!
//! # Layout
//!
//! One *logical row* per committed object version, keyed by the node's
//! item name, holding multi-valued attributes:
//!
//! * `n` — marker: the row was written by the indexer;
//! * `a` — renders of the node's transitive *ancestors*;
//! * `d` — renders of the node's transitive *descendants*;
//! * `o` — renders of the node's *direct file children* (the Q2 seed
//!   set, materialized so the serve path never scans).
//!
//! A reserved row per process name (`\u{1f}name\u{1f}{program}`) lists
//! the process versions carrying that name (`p` values) — the phase-1
//! lookup of the walk engine, again as a point read.
//!
//! Ancestry follows the same edge relation the walk engine traverses:
//! stored `input` attribute values that round-trip through
//! [`ObjectRef::parse`]. Overflow pointers and spilled continuation
//! pairs are invisible to the walk's equality queries, and they are
//! invisible to the index too — the two engines agree by construction.
//!
//! # The 256-pair cap, without read-modify-write
//!
//! SimpleDB rejects items beyond 256 pairs, and a popular ancestor
//! accumulates one `d` value per descendant. Each attribute of a logical
//! row therefore spreads its values across [`CLOSURE_FRAG_BUCKETS`]
//! buckets: the pair `(attr, value)` lives in bucket
//! `closure_bucket(attr, value)`. Bucket 0 is the base item; any other
//! bucket is the physical item `closure_frag_name(base, attr, bucket)`,
//! which holds values of that one attribute only. The placement is a pure
//! function of the pair, so the final row bytes are independent of commit
//! grouping, crash replays, and interleavings — maintenance is nothing
//! but idempotent multi-value adds, which is what makes the crash story
//! work. Fragments in use are listed on the base item as `f` marks that
//! carry the attribute (`"d17"`), so reading attribute `x` costs the base
//! — projected to `x` and `f` — plus one `GetAttributes` per `x` mark:
//! `1 + (distinct non-zero buckets of x's values)` requests, whatever the
//! row's other attributes hold. [`read_row_attr`] is the only reader.
//!
//! **Capacity.** A fragment fills at 256 values, but the base fills
//! first: it holds the `n` marker, up to 63 marks *per attribute* (189
//! on a node row with `a`, `d` and `o` all spread out), and the bucket-0
//! share — 1/64 in expectation — of every attribute's values. A node row
//! therefore takes about `(256 - 1 - 189) * 64 ≈ 4 200` values summed
//! over its three attributes before the base overflows, and a name row
//! (`p` only) about `(256 - 63) * 64 ≈ 12 300`.
//!
//! # Crash consistency
//!
//! Both commit paths write the index *after* the provenance rows and
//! *before* the point of no return (arch2: before the data PUT a client
//! retries from its cache; arch3: before the WAL messages are deleted).
//! A crash between edge commit and index write, or mid-index-batch,
//! therefore replays the whole maintenance step, and since every write
//! is an idempotent set-add the replayed closure is byte-identical to a
//! never-crashed one. If a row is missing when the maintenance path
//! needs it (e.g. the corpus predates the index being switched on), the
//! absence of the `n` marker makes the staleness detectable and the row
//! is rebuilt — healed — from the main provenance domain on the spot.
//!
//! # Out-of-order commits
//!
//! The arch3 daemon applies whichever transaction assemblies complete
//! first, so a child can commit *before* its parent. The child still
//! adds its render under the missing parent's row (a blind add needs no
//! row to exist), but it cannot know the parent's ancestors yet. The
//! repair rule closes the gap: when a node is indexed, it reads the
//! descendants already recorded on its own row — premature children and
//! their subtrees — and re-propagates them through its ancestor set.
//! Because a group node's own resolved set can be completed by a
//! sibling's repair inside the same group (its parent committed late,
//! as part of this very group), the propagation runs to a fixpoint over
//! the group's working ancestor map before anything is written. Every
//! repair write is the same idempotent set-add as regular maintenance,
//! so any commit order converges to the same bytes.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pass::ObjectRef;
use sim_simpledb::{Attribute, ReplaceableAttribute, SimpleDb};
use simworld::{CrashSite, SimWorld};

use crate::error::Result;
use crate::layout::{
    closure_bucket, closure_frag_mark, closure_frag_name, closure_mark_bucket, closure_name_row,
    CLOSURE_ATTR_ANC, CLOSURE_ATTR_DESC, CLOSURE_ATTR_FRAGS, CLOSURE_ATTR_NODE, CLOSURE_ATTR_OUT,
    CLOSURE_ATTR_PROC, CLOSURE_DOMAIN, DOMAIN,
};
use crate::retry::{with_throttle_retry, RetryPolicy};
use crate::serialize::pack_attr_batches;

/// How a store treats the closure index.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ClosureMode {
    /// No index: nothing is written, queries use the walk engine. The
    /// default, so every pinned request count and fingerprint in the
    /// repo is untouched unless a caller opts in.
    #[default]
    Off,
    /// Maintain the index at commit time; queries still use the walk
    /// engine (the oracle configuration for equivalence tests).
    Maintain,
    /// Maintain the index and serve Q3 from it.
    Serve,
}

impl ClosureMode {
    /// Whether commits should write index rows.
    pub fn maintains(self) -> bool {
        self != ClosureMode::Off
    }

    /// Whether Q3 should be answered from the index.
    pub fn serves(self) -> bool {
        self == ClosureMode::Serve
    }
}

/// Parses a stored attribute value as an object reference, requiring an
/// exact round-trip — the same equality the walk engine's
/// `['input' = '...']` queries apply to stored values.
pub(crate) fn parse_render(value: &str) -> Option<ObjectRef> {
    let obj = ObjectRef::parse(value)?;
    (obj.render() == value).then_some(obj)
}

/// One group node's commit-visible facts, extracted from the stored
/// attribute pairs.
#[derive(Debug, Default, Clone)]
struct NodeInfo {
    /// Stored `input` values that round-trip as refs (the walk's edge
    /// relation), deduplicated.
    parents: BTreeSet<String>,
    /// The node carries `type = file`.
    is_file: bool,
    /// The node carries `type = process`.
    is_process: bool,
    /// Stored `name` values.
    names: BTreeSet<String>,
}

impl NodeInfo {
    fn from_attrs(attrs: &[ReplaceableAttribute]) -> NodeInfo {
        let mut info = NodeInfo::default();
        for a in attrs {
            match a.name.as_str() {
                "input" if parse_render(&a.value).is_some() => {
                    info.parents.insert(a.value.clone());
                }
                "type" => match a.value.as_str() {
                    "file" => info.is_file = true,
                    "process" => info.is_process = true,
                    _ => {}
                },
                "name" => {
                    info.names.insert(a.value.clone());
                }
                _ => {}
            }
        }
        info
    }

    fn merge(&mut self, other: NodeInfo) {
        self.parents.extend(other.parents);
        self.is_file |= other.is_file;
        self.is_process |= other.is_process;
        self.names.extend(other.names);
    }
}

/// The maintenance engine: computes ancestor sets for a commit group and
/// writes the index rows through the batch API.
#[derive(Debug)]
pub struct ClosureIndex {
    world: SimWorld,
    db: SimpleDb,
    /// `CreateDomain` already issued (it is idempotent but billable, so
    /// it runs once per indexer).
    domain_ready: bool,
    /// item name -> ancestor renders, for nodes indexed in this
    /// process's lifetime. Purely an op-count optimization: a miss
    /// falls back to reading the closure row (and, failing that, a
    /// heal), so losing the cache — a daemon crash — costs reads, not
    /// correctness.
    cache: HashMap<String, BTreeSet<String>>,
}

impl ClosureIndex {
    /// An indexer writing through `db` on `world`.
    pub fn new(world: &SimWorld, db: &SimpleDb) -> ClosureIndex {
        ClosureIndex {
            world: world.clone(),
            db: db.clone(),
            domain_ready: false,
            cache: HashMap::new(),
        }
    }

    /// Drops all in-memory state, as a process crash would.
    pub fn reset(&mut self) {
        self.cache.clear();
    }

    /// Indexes one commit group: the `(item name, stored attributes)`
    /// pairs exactly as they were written to the provenance domain.
    /// Fires `mid_site` after each index batch lands (the
    /// mid-index-batch crash window).
    ///
    /// # Errors
    ///
    /// Service errors, and [`simworld::Crashed`] when an armed site
    /// fires.
    pub fn index_items(
        &mut self,
        items: &[(String, Vec<ReplaceableAttribute>)],
        retry: RetryPolicy,
        mid_site: CrashSite,
    ) -> Result<()> {
        // Gather the group's nodes (merging duplicate item entries —
        // two transactions re-flushing one version).
        let mut group: BTreeMap<String, NodeInfo> = BTreeMap::new();
        for (item_name, attrs) in items {
            if ObjectRef::parse_item_name(item_name).is_none() {
                continue;
            }
            let info = NodeInfo::from_attrs(attrs);
            match group.entry(item_name.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(info);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(info),
            }
        }
        if group.is_empty() {
            return Ok(());
        }
        if !self.domain_ready {
            self.db.create_domain(CLOSURE_DOMAIN)?;
            self.domain_ready = true;
        }

        // Resolve every group node's ancestor set. Heals pull stale
        // out-of-group parents into `group`, so iterate until fixpoint
        // over a snapshot of the keys each round.
        let mut resolved: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut done: BTreeSet<String> = BTreeSet::new();
        loop {
            let pending: Vec<String> = group
                .keys()
                .filter(|k| !done.contains(*k))
                .cloned()
                .collect();
            if pending.is_empty() {
                break;
            }
            for item in pending {
                let mut stack = BTreeSet::new();
                self.resolve(&item, retry, &mut group, &mut resolved, &mut stack)?;
                done.insert(item);
            }
        }

        // Premature descendants: commits can land out of order, so a
        // child may already have recorded itself under a group node's
        // row before the node itself was indexed. Read what is there
        // now (before this group's writes) so the repair fixpoint below
        // can re-propagate it through the ancestors resolved in this
        // step.
        let mut descs: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for item in group.keys() {
            descs.insert(item.clone(), self.read_row_desc(item, retry)?);
        }

        // Repair fixpoint. Seed a working ancestor map with the group's
        // resolved sets, and a descendant map with each group row's
        // premature children plus the descendant edges this group adds
        // (every node is a descendant of everything it resolved to).
        // Then propagate: a node's full ancestor set flows to every
        // descendant recorded on its row, until nothing grows. One pass
        // is *not* enough: a group node's resolved set can itself be
        // completed by a sibling's repair (its parent committed late,
        // in this very group), and its own descendants need that
        // completed set, not the resolution-time one.
        let mut full: BTreeMap<String, BTreeSet<String>> = resolved;
        for (item, ancestors) in full.clone() {
            let Some(object) = ObjectRef::parse_item_name(&item) else {
                continue;
            };
            let render = object.render();
            for anc in &ancestors {
                if let Some(anc_obj) = parse_render(anc) {
                    descs
                        .entry(anc_obj.item_name())
                        .or_default()
                        .insert(render.clone());
                }
            }
        }
        loop {
            let mut changed = false;
            for (item, ds) in &descs {
                let Some(ancestors) = full.get(item) else {
                    continue;
                };
                if ancestors.is_empty() {
                    continue;
                }
                let ancestors = ancestors.clone();
                for d in ds {
                    let Some(d_obj) = parse_render(d) else {
                        continue;
                    };
                    let d_item = d_obj.item_name();
                    if d_item == *item {
                        continue;
                    }
                    let entry = full.entry(d_item).or_default();
                    let before = entry.len();
                    entry.extend(ancestors.iter().cloned());
                    changed |= entry.len() != before;
                }
            }
            if !changed {
                break;
            }
        }

        // Emit the adds from the converged sets. Everything is an
        // idempotent set-add; the physical placement is a pure function
        // of (attr, value), so the converged bytes are independent of
        // grouping and replays.
        let mut adds: BTreeMap<String, BTreeSet<(String, String)>> = BTreeMap::new();
        let add = |adds: &mut BTreeMap<String, BTreeSet<(String, String)>>,
                   base: &str,
                   attr: &str,
                   value: String| {
            let bucket = closure_bucket(attr, &value);
            let item = if bucket == 0 {
                base.to_string()
            } else {
                let mark = closure_frag_mark(attr, bucket);
                adds.entry(base.to_string())
                    .or_default()
                    .insert((CLOSURE_ATTR_FRAGS.to_string(), mark));
                closure_frag_name(base, attr, bucket)
            };
            adds.entry(item)
                .or_default()
                .insert((attr.to_string(), value));
        };
        for (item, ancestors) in &full {
            let Some(object) = ObjectRef::parse_item_name(item) else {
                continue;
            };
            let render = object.render();
            for anc in ancestors {
                add(&mut adds, item, CLOSURE_ATTR_ANC, anc.clone());
                if let Some(anc_obj) = parse_render(anc) {
                    add(
                        &mut adds,
                        &anc_obj.item_name(),
                        CLOSURE_ATTR_DESC,
                        render.clone(),
                    );
                }
            }
            // Keep later groups in this daemon's lifetime seeing the
            // repaired sets: replace group rows (their converged set is
            // complete), extend repaired bystanders (their row already
            // carries ancestors this group never computed).
            if group.contains_key(item) {
                self.cache.insert(item.clone(), ancestors.clone());
            } else if let Some(cached) = self.cache.get_mut(item) {
                cached.extend(ancestors.iter().cloned());
            }
        }
        for (item, info) in &group {
            let Some(object) = ObjectRef::parse_item_name(item) else {
                continue;
            };
            let render = object.render();
            adds.entry(item.clone())
                .or_default()
                .insert((CLOSURE_ATTR_NODE.to_string(), "1".to_string()));
            if info.is_file {
                for parent in &info.parents {
                    if let Some(parent_obj) = parse_render(parent) {
                        add(
                            &mut adds,
                            &parent_obj.item_name(),
                            CLOSURE_ATTR_OUT,
                            render.clone(),
                        );
                    }
                }
            }
            if info.is_process {
                for name in &info.names {
                    add(
                        &mut adds,
                        &closure_name_row(name),
                        CLOSURE_ATTR_PROC,
                        render.clone(),
                    );
                }
            }
        }
        let batch_items: Vec<(String, Vec<ReplaceableAttribute>)> = adds
            .into_iter()
            .map(|(item, pairs)| {
                (
                    item,
                    pairs
                        .into_iter()
                        .map(|(name, value)| ReplaceableAttribute::add(name, value))
                        .collect(),
                )
            })
            .collect();
        for batch in pack_attr_batches(batch_items) {
            with_throttle_retry(&self.world, &retry, || {
                Ok(self.db.batch_put_attributes(CLOSURE_DOMAIN, &batch)?)
            })?;
            self.world.crash_point(mid_site)?;
        }
        Ok(())
    }

    /// The ancestor renders of `item`: `{parent} ∪ ancestors(parent)`
    /// over its in-group parents, falling back to the cache, then the
    /// stored closure row, then a heal for out-of-group parents.
    fn resolve(
        &mut self,
        item: &str,
        retry: RetryPolicy,
        group: &mut BTreeMap<String, NodeInfo>,
        resolved: &mut BTreeMap<String, BTreeSet<String>>,
        stack: &mut BTreeSet<String>,
    ) -> Result<BTreeSet<String>> {
        if let Some(done) = resolved.get(item) {
            return Ok(done.clone());
        }
        if !stack.insert(item.to_string()) {
            // Cycle: impossible in a committed DAG, but never loop.
            return Ok(BTreeSet::new());
        }
        let parents = group
            .get(item)
            .map(|info| info.parents.clone())
            .unwrap_or_default();
        let mut ancestors = BTreeSet::new();
        for parent in parents {
            let Some(parent_obj) = parse_render(&parent) else {
                continue;
            };
            let parent_item = parent_obj.item_name();
            let parent_anc = self.ancestors_of(&parent_item, retry, group, resolved, stack)?;
            ancestors.insert(parent.clone());
            ancestors.extend(parent_anc);
        }
        stack.remove(item);
        resolved.insert(item.to_string(), ancestors.clone());
        Ok(ancestors)
    }

    /// Ancestors of a node that may live in the group, the cache, the
    /// closure domain, or — stale index — only in the main provenance
    /// domain, in which case the node is pulled into the group so its
    /// rows are (re)written: the self-heal rule.
    fn ancestors_of(
        &mut self,
        item: &str,
        retry: RetryPolicy,
        group: &mut BTreeMap<String, NodeInfo>,
        resolved: &mut BTreeMap<String, BTreeSet<String>>,
        stack: &mut BTreeSet<String>,
    ) -> Result<BTreeSet<String>> {
        if group.contains_key(item) {
            return self.resolve(item, retry, group, resolved, stack);
        }
        if let Some(cached) = self.cache.get(item) {
            return Ok(cached.clone());
        }
        if let Some(stored) = self.read_row_ancestors(item, retry)? {
            self.cache.insert(item.to_string(), stored.clone());
            return Ok(stored);
        }
        // Detectably stale: the node is referenced by a committed edge
        // but carries no marked closure row. Rebuild it from the main
        // domain (eventual consistency may also return nothing here; an
        // absent node then contributes no ancestors, which a later
        // commit through this path will heal again).
        let attrs = with_throttle_retry(&self.world, &retry, || {
            Ok(self.db.get_attributes(DOMAIN, item, None)?)
        })?;
        if attrs.is_empty() {
            return Ok(BTreeSet::new());
        }
        let replaceable: Vec<ReplaceableAttribute> = attrs
            .into_iter()
            .map(|a| ReplaceableAttribute::add(a.name, a.value))
            .collect();
        group.insert(item.to_string(), NodeInfo::from_attrs(&replaceable));
        self.resolve(item, retry, group, resolved, stack)
    }

    /// Reads the stored descendant renders of a (possibly unmarked)
    /// closure row: the children that committed before the node itself
    /// and recorded themselves prematurely. Absent rows read as empty.
    fn read_row_desc(&self, item: &str, retry: RetryPolicy) -> Result<BTreeSet<String>> {
        let row = read_row_attr(item, CLOSURE_ATTR_DESC, false, |item, names| {
            self.get_with_retry(item, names, retry)
        })?;
        Ok(row.unwrap_or_default())
    }

    /// Reads the stored ancestor set of a marked closure row; `None`
    /// when the row is missing or unmarked (stale).
    fn read_row_ancestors(
        &self,
        item: &str,
        retry: RetryPolicy,
    ) -> Result<Option<BTreeSet<String>>> {
        read_row_attr(item, CLOSURE_ATTR_ANC, true, |item, names| {
            self.get_with_retry(item, names, retry)
        })
    }

    /// The maintenance path's `GetAttributes`: throttles are retried.
    fn get_with_retry(
        &self,
        item: &str,
        names: Option<&[&str]>,
        retry: RetryPolicy,
    ) -> Result<Vec<Attribute>> {
        with_throttle_retry(&self.world, &retry, || {
            Ok(self.db.get_attributes(CLOSURE_DOMAIN, item, names)?)
        })
    }
}

/// The one reader of the fragment layout: all values of `attr` on the
/// logical row `base`, as `1 + (fragments of attr in use)` point reads.
/// The base read is a projection — `attr`, the `f` marks and, with
/// `need_marker`, the `n` marker — so the row's other attributes are
/// neither fetched nor billed; then one read per mark that names `attr`.
/// `get` issues each `GetAttributes` against [`CLOSURE_DOMAIN`] under the
/// caller's own error and retry policy.
///
/// `None` only when `need_marker` is set and the row is missing or
/// unmarked (its fragments are then not read); an absent row otherwise
/// reads as empty.
pub(crate) fn read_row_attr(
    base: &str,
    attr: &str,
    need_marker: bool,
    mut get: impl FnMut(&str, Option<&[&str]>) -> Result<Vec<Attribute>>,
) -> Result<Option<BTreeSet<String>>> {
    let projection = [attr, CLOSURE_ATTR_FRAGS, CLOSURE_ATTR_NODE];
    let names = &projection[..if need_marker { 3 } else { 2 }];
    let mut values = BTreeSet::new();
    let mut buckets = Vec::new();
    let mut marked = false;
    for pair in get(base, Some(names))? {
        if pair.name == attr {
            values.insert(pair.value);
        } else if pair.name == CLOSURE_ATTR_FRAGS {
            buckets.extend(closure_mark_bucket(&pair.value, attr));
        } else {
            marked = true;
        }
    }
    if need_marker && !marked {
        return Ok(None);
    }
    for bucket in buckets {
        let frag = get(&closure_frag_name(base, attr, bucket), None)?;
        values.extend(frag.into_iter().map(|pair| pair.value));
    }
    Ok(Some(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_requires_exact_round_trip() {
        assert_eq!(parse_render("a:1"), Some(ObjectRef::new("a", 1)));
        assert_eq!(
            parse_render("proc:1:tool:2"),
            Some(ObjectRef::new("proc:1:tool", 2))
        );
        // Leading zeros do not round-trip, so the walk engine would
        // never match them either.
        assert_eq!(parse_render("a:01"), None);
        assert_eq!(parse_render("@s3:prov/a 1/0"), None);
        assert_eq!(parse_render("plain"), None);
    }

    /// Two WAL orders of the same two disjoint pipeline chains — serial
    /// and interleaved — must commit to byte-identical stores. The
    /// workload emits each file flush *before* its producing process
    /// flush, so children routinely index before their parents and the
    /// repair fixpoint is exercised on every cycle.
    #[test]
    fn arch3_commit_order_converges_to_identical_bytes() {
        use crate::arch3::{Arch3Config, S3SimpleDbSqs};
        use crate::serve::{store_fingerprint, Serveable};
        use crate::store::ProvenanceStore;
        use pass::{FileFlush, Observer, TraceEvent};
        use simworld::{Blob, SimWorld};

        fn thread_flushes(thread: usize, steps: usize, seed: u64) -> Vec<FileFlush> {
            let mix = |k: u64| seed ^ (((thread as u64) << 32) | k);
            let mut observer = Observer::new();
            let mut out = Vec::new();
            let source = format!("t{thread}/in.dat");
            out.extend(
                observer
                    .observe(TraceEvent::source(&source, Blob::synthetic(mix(0), 2048)))
                    .unwrap(),
            );
            let mut prev = source;
            for k in 0..steps {
                let pid = (thread * 1_000_000 + k + 1) as u32;
                let next = format!("t{thread}/f{k}.dat");
                for event in [
                    TraceEvent::exec(pid, "gen", format!("gen {prev}"), "PATH=/bin", None),
                    TraceEvent::read(pid, &prev),
                    TraceEvent::write(pid, &next),
                    TraceEvent::close(pid, &next, Blob::synthetic(mix(k as u64 + 1), 1024)),
                    TraceEvent::exit(pid),
                ] {
                    out.extend(observer.observe(event).unwrap());
                }
                prev = next;
            }
            out
        }

        let run = |interleave: bool| {
            let world = SimWorld::counting();
            let mut store = S3SimpleDbSqs::new(&world, "probe");
            store.set_config(Arch3Config {
                closure: ClosureMode::Serve,
                ..Arch3Config::default()
            });
            let t0 = thread_flushes(0, 5, 2009);
            let t1 = thread_flushes(1, 5, 2009);
            let flushes: Vec<FileFlush> = if interleave {
                let mut v = Vec::new();
                let (mut a, mut b) = (t0.into_iter(), t1.into_iter());
                loop {
                    match (a.next(), b.next()) {
                        (None, None) => break,
                        (x, y) => {
                            v.extend(x);
                            v.extend(y);
                        }
                    }
                }
                v
            } else {
                t0.into_iter().chain(t1).collect()
            };
            for f in &flushes {
                store.persist(f).unwrap();
            }
            store.run_daemons_until_idle().unwrap();
            let parts = store.serve_parts();
            (store_fingerprint(&parts.s3, &parts.db), parts)
        };

        let (fa, pa) = run(false);
        let (fb, pb) = run(true);
        if fa != fb {
            for domain in [DOMAIN, CLOSURE_DOMAIN] {
                let mut names: BTreeSet<String> =
                    pa.db.latest_item_names(domain).into_iter().collect();
                names.extend(pb.db.latest_item_names(domain));
                for name in names {
                    let get = |db: &SimpleDb| -> BTreeSet<(String, String)> {
                        db.latest_item(domain, &name)
                            .unwrap_or_default()
                            .into_iter()
                            .map(|a| (a.name, a.value))
                            .collect()
                    };
                    let (sa, sb) = (get(&pa.db), get(&pb.db));
                    for p in sa.difference(&sb) {
                        println!("only serial   {domain} {name:?} {p:?}");
                    }
                    for p in sb.difference(&sa) {
                        println!("only interlvd {domain} {name:?} {p:?}");
                    }
                }
            }
        }
        assert_eq!(fa, fb, "commit order changed the closure bytes");
    }

    /// The point of per-attribute fragments: reading one attribute of a
    /// row that also carries others costs the base plus that attribute's
    /// fragments, and ships none of the other attributes' bytes.
    #[test]
    fn reading_one_attribute_fetches_only_its_own_fragments() {
        use crate::layout::parse_closure_frag_name;
        use simworld::Op;

        // 12 sources -> one process -> 12 outputs -> one child each: the
        // process row carries 12 `a`, 24 `d` and 12 `o` values.
        let node = |name: String, kind: &str, inputs: Vec<String>| {
            let mut attrs = vec![ReplaceableAttribute::add("type", kind)];
            attrs.extend(
                inputs
                    .iter()
                    .map(|i| ReplaceableAttribute::add("input", i.as_str())),
            );
            (format!("{name} 1"), attrs)
        };
        let mut items = Vec::new();
        for i in 0..12 {
            items.push(node(format!("src{i}"), "file", vec![]));
            items.push(node(format!("out{i}"), "file", vec!["tool:1".into()]));
            items.push(node(format!("kid{i}"), "file", vec![format!("out{i}:1")]));
        }
        let sources = (0..12).map(|i| format!("src{i}:1")).collect();
        items.push(node("tool".into(), "process", sources));

        let world = SimWorld::counting();
        let db = SimpleDb::new(&world);
        ClosureIndex::new(&world, &db)
            .index_items(
                &items,
                RetryPolicy::default(),
                CrashSite::new("test.unarmed"),
            )
            .unwrap();
        world.settle();

        let get = |item: &str, names: Option<&[&str]>| -> Result<Vec<Attribute>> {
            Ok(db.get_attributes(CLOSURE_DOMAIN, item, names)?)
        };
        let outs: BTreeSet<String> = (0..12).map(|i| format!("out{i}:1")).collect();
        let o_frags: BTreeSet<u64> = outs
            .iter()
            .map(|o| closure_bucket(CLOSURE_ATTR_OUT, o))
            .filter(|b| *b != 0)
            .collect();
        assert!(o_frags.len() > 1, "the row must actually be fragmented");

        let before = world.meters();
        let read = read_row_attr("tool 1", CLOSURE_ATTR_OUT, false, get).unwrap();
        let o_read = world.meters() - before;
        assert_eq!(read, Some(outs.clone()));
        assert_eq!(
            o_read.op_count(Op::SdbGetAttributes),
            1 + o_frags.len() as u64
        );
        // Exactly the `o` pairs and the base's marks came back.
        let base = db.latest_item(CLOSURE_DOMAIN, "tool 1").unwrap();
        let marks = base.iter().filter(|a| a.name == CLOSURE_ATTR_FRAGS);
        let mark_bytes: usize = marks.map(|a| a.name.len() + a.value.len()).sum();
        let o_bytes: usize = outs.iter().map(|o| CLOSURE_ATTR_OUT.len() + o.len()).sum();
        assert_eq!(o_read.bytes_out(), (mark_bytes + o_bytes) as u64);

        // A full-row read: every physical item of the row, unprojected.
        let before = world.meters();
        let mut full = get("tool 1", None).unwrap();
        for item in db.latest_item_names(CLOSURE_DOMAIN) {
            if parse_closure_frag_name(&item).is_some_and(|(base, _, _)| base == "tool 1") {
                full.extend(get(&item, None).unwrap());
            }
        }
        let full_read = world.meters() - before;
        let count = |attr: &str| full.iter().filter(|a| a.name == attr).count();
        assert_eq!(
            (count("a"), count("d"), count("o"), count("n")),
            (12, 24, 12, 1)
        );
        assert!(o_read.bytes_out() < full_read.bytes_out());
        assert!(o_read.total_ops() < full_read.total_ops());
    }

    /// One ancestor, 1 000 descendants, committed in several groups: the
    /// row spreads over per-attribute fragments, so no physical item —
    /// least of all the base, which also carries the marks — reaches
    /// SimpleDB's 256-pair cap, on either commit path.
    #[test]
    fn a_thousand_descendants_stay_under_the_256_pair_cap() {
        use crate::arch2::{Arch2Config, S3SimpleDb};
        use crate::arch3::{Arch3Config, S3SimpleDbSqs};
        use crate::query::{ProvQuery, SimpleDbQueryEngine};
        use crate::store::ProvenanceStore;
        use pass::FileFlush;
        use simworld::Blob;

        const LEAVES: usize = 1000;
        let mut flushes = vec![
            FileFlush::builder("fan")
                .process()
                .record("name", "fan")
                .build(),
            FileFlush::builder("seed.dat")
                .data(Blob::synthetic(0, 64))
                .record("input", "fan:1")
                .build(),
        ];
        flushes.extend((0..LEAVES).map(|i| {
            FileFlush::builder(format!("leaf/{i}.dat"))
                .data(Blob::synthetic(i as u64 + 1, 64))
                .record("input", "seed.dat:1")
                .build()
        }));
        let leaves: BTreeSet<String> = (0..LEAVES).map(|i| format!("leaf/{i}.dat:1")).collect();

        let drive = |store: &mut dyn ProvenanceStore| {
            for (round, group) in flushes.chunks(167).enumerate() {
                store.persist_batch(group).unwrap();
                if round % 2 == 1 {
                    store.run_daemons_until_idle().unwrap();
                }
            }
            store.run_daemons_until_idle().unwrap();
        };
        let check = |world: &SimWorld, db: &SimpleDb, s3: &sim_s3::S3| {
            world.settle();
            for item in db.latest_item_names(CLOSURE_DOMAIN) {
                let pairs = db.latest_item(CLOSURE_DOMAIN, &item).unwrap().len();
                assert!(pairs <= 256, "{item:?} holds {pairs} pairs");
            }
            let base = db.latest_item(CLOSURE_DOMAIN, "seed.dat 1").unwrap();
            // The leaves are the seed's descendants *and* its direct file
            // children: 1 000 values use every fragment of both.
            for attr in [CLOSURE_ATTR_DESC, CLOSURE_ATTR_OUT] {
                let marks = base.iter().filter(|a| {
                    a.name == CLOSURE_ATTR_FRAGS && closure_mark_bucket(&a.value, attr).is_some()
                });
                assert_eq!(marks.count(), 63, "marks of {attr:?}");
            }

            let read = read_row_attr("seed.dat 1", CLOSURE_ATTR_DESC, false, |item, names| {
                Ok(db.get_attributes(CLOSURE_DOMAIN, item, names)?)
            });
            assert_eq!(read.unwrap(), Some(leaves.clone()));

            let walk = SimpleDbQueryEngine::new(db, s3, world, RetryPolicy::default());
            let index = walk.clone().serving_closure();
            let q = ProvQuery::DescendantsOf {
                program: "fan".into(),
            };
            let walked = walk.execute(&q).unwrap();
            assert_eq!(walked.len(), LEAVES);
            assert_eq!(index.execute(&q).unwrap(), walked);
        };

        let world = SimWorld::counting();
        let mut arch2 = S3SimpleDb::new(&world);
        arch2.set_config(Arch2Config {
            closure: ClosureMode::Maintain,
            ..Arch2Config::default()
        });
        drive(&mut arch2);
        check(&world, arch2.simpledb(), arch2.s3());

        let world = SimWorld::counting();
        let mut arch3 = S3SimpleDbSqs::new(&world, "fan-out");
        arch3.set_config(Arch3Config {
            closure: ClosureMode::Maintain,
            ..Arch3Config::default()
        });
        drive(&mut arch3);
        check(&world, arch3.simpledb(), arch3.s3());
    }

    #[test]
    fn node_info_extracts_the_walk_edge_relation() {
        let attrs = vec![
            ReplaceableAttribute::add("input", "a:1"),
            ReplaceableAttribute::add("input", "not a ref"),
            ReplaceableAttribute::add("type", "file"),
            ReplaceableAttribute::add("name", "tool"),
            ReplaceableAttribute::add("md5", "ffff"),
        ];
        let info = NodeInfo::from_attrs(&attrs);
        assert_eq!(info.parents.len(), 1);
        assert!(info.is_file);
        assert!(!info.is_process);
        assert!(info.names.contains("tool"));
    }
}
