//! Incrementally materialized ancestry-closure index (PR 9).
//!
//! The paper's Q3 ("all descendants of files derived from blast") is the
//! one query class SimpleDB cannot answer in one step: it has no recursive
//! queries, so the walk engine issues one `QueryWithAttributes` per
//! frontier node, generation after generation. This module maintains, at
//! commit time, a closure index in its own SimpleDB domain
//! ([`CLOSURE_DOMAIN`]) so that Q3 is three posted lookups — whatever the
//! depth of the graph — plus one point read per answer item.
//!
//! # Layout
//!
//! The index is one relation — "Y descends from X" — stored once, on
//! the descendant's side. One *logical row* per committed object
//! version, keyed by the node's item name, holds:
//!
//! * `n` — marker: the row was written by the indexer;
//! * `a` — renders of the node's transitive *ancestors*;
//! * `f` — the marks of the fragments `a` spilled into (below).
//!
//! No row holds descendants. SimpleDB indexes every attribute, so
//! "descendants of X" is the posted equality lookup `['a' = 'X']` on this
//! domain — one request per page, O(answer) — with each returned physical
//! item name folded to its row by `closure_row_name`. The Q3 serve
//! path (`ServeParts::query`) and the repair rule below both read
//! descendants that way; the program-name and direct-output lookups that
//! seed Q3 are the walk engine's own two indexed queries on the main
//! domain, so the index stores no copy of those either.
//!
//! Ancestry follows the same edge relation the walk engine traverses:
//! stored `input` attribute values that round-trip through
//! [`ObjectRef::parse`]. Overflow pointers and spilled continuation
//! pairs are invisible to the walk's equality queries, and they are
//! invisible to the index too — the two engines agree by construction.
//!
//! # The 256-pair cap, without read-modify-write
//!
//! SimpleDB rejects items beyond 256 pairs, and a node deep in a wide
//! graph accumulates one `a` value per ancestor. A logical row therefore
//! spreads its `a` values across [`CLOSURE_FRAG_BUCKETS`] buckets: the
//! value lives in bucket `closure_bucket(value)`. Bucket 0 is the
//! base item; any other bucket is the physical item
//! `closure_frag_name(base, bucket)`. The placement is a pure
//! function of the value, so the final row bytes are independent of commit
//! grouping, crash replays, and interleavings — maintenance is nothing
//! but idempotent multi-value adds, which is what makes the crash story
//! work. Fragments in use are listed on the base item as `f` marks
//! (`"a17"`), so the maintenance path reads a node's ancestors as the base
//! plus one `GetAttributes` per mark.
//!
//! **Capacity.** A fragment fills at 256 values, but the base fills
//! first: it holds the `n` marker, up to 63 marks, and the bucket-0 share
//! — 1/64 in expectation — of the values. A row therefore takes about
//! `(256 - 1 - 63) * 64 ≈ 12 300` ancestors before the base overflows.
//! Descendants are unbounded: no row holds them.
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
//! records the missing parent among its own ancestors, but it cannot know
//! the parent's ancestors yet. The repair rule closes the gap: when a node
//! is indexed, it looks up the descendants the index already holds for it
//! — premature children and their subtrees, one `['a' = …]` lookup per
//! ≤ 20 group nodes — and re-propagates them through its ancestor set.
//! Because a group node's own resolved set can be completed by a
//! sibling's repair inside the same group (its parent committed late,
//! as part of this very group), the propagation runs to a fixpoint over
//! the group's working ancestor map before anything is written. Every
//! repair write is the same idempotent set-add as regular maintenance,
//! so any commit order converges to the same bytes.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pass::ObjectRef;
use sim_simpledb::ReplaceableAttribute;
use simworld::CrashSite;

use crate::error::Result;
use crate::layout::{
    closure_bucket, closure_frag_mark, closure_frag_name, closure_mark_bucket, closure_row_name,
    CLOSURE_ATTR_ANC, CLOSURE_ATTR_FRAGS, CLOSURE_ATTR_NODE, CLOSURE_DOMAIN, DOMAIN,
};
use crate::query::{page_through, union_of_equals, UNION_BATCH};
use crate::serialize::pack_attr_batches;
use crate::serve::ServeParts;

/// Whether a store keeps the closure index.
///
/// Two values, because the index is a store property: a store that
/// writes it answers Q3 from it. The walk stays available as the oracle
/// on any store — `store.serve_parts().walking()` walks, whatever the
/// store is configured to do ([`crate::ServeParts::walking`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ClosureMode {
    /// No index: nothing is written, queries use the walk engine. The
    /// default, so every pinned request count and fingerprint in the
    /// repo is untouched unless a caller opts in.
    #[default]
    Off,
    /// Maintain the index at commit time and serve Q3 from it.
    Serve,
}

/// Parses a stored attribute value as an object reference, requiring an
/// exact round-trip — the same equality the walk engine's
/// `['input' = '...']` queries apply to stored values.
fn parse_render(value: &str) -> Option<ObjectRef> {
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
}

impl NodeInfo {
    /// The facts of a node whose stored `(name, value)` pairs are `pairs`.
    fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> NodeInfo {
        let inputs = pairs
            .into_iter()
            .filter(|(n, v)| *n == "input" && parse_render(v).is_some());
        NodeInfo {
            parents: inputs.map(|(_, v)| v.to_string()).collect(),
        }
    }
}

/// The maintenance engine: computes ancestor sets for a commit group and
/// writes the index rows through the batch API of the store's services
/// ([`ServeParts`], passed in by the write side that owns both).
#[derive(Debug, Default)]
pub(crate) struct ClosureIndex {
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
    /// Drops all in-memory state, as a process crash would.
    pub(crate) fn reset(&mut self) {
        self.cache.clear();
    }

    /// Indexes one commit group through `parts`: the `(item name, stored
    /// attributes)` pairs exactly as they were written to the provenance
    /// domain. Fires `mid_site` after each index batch lands (the
    /// mid-index-batch crash window).
    ///
    /// # Errors
    ///
    /// Service errors, and [`simworld::Crashed`] when an armed site
    /// fires.
    pub(crate) fn index_items(
        &mut self,
        parts: &ServeParts,
        items: &[(String, Vec<ReplaceableAttribute>)],
        mid_site: CrashSite,
    ) -> Result<()> {
        // Gather the group's nodes (merging duplicate item entries —
        // two transactions re-flushing one version).
        let mut group: BTreeMap<String, NodeInfo> = BTreeMap::new();
        for (item_name, attrs) in items {
            if ObjectRef::parse_item_name(item_name).is_none() {
                continue;
            }
            let info = NodeInfo::from_pairs(attrs.iter().map(|a| (&*a.name, &*a.value)));
            match group.entry(item_name.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(info);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().parents.extend(info.parents)
                }
            }
        }
        if group.is_empty() {
            return Ok(());
        }
        if !self.domain_ready {
            parts.db.create_domain(CLOSURE_DOMAIN)?;
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
                self.resolve(parts, &item, &mut group, &mut resolved, &mut stack)?;
                done.insert(item);
            }
        }

        // Premature descendants: commits can land out of order, so a
        // child may already list a group node among its ancestors before
        // the node itself was indexed. Look up what is there now (before
        // this group's writes) so the repair fixpoint below can
        // re-propagate it through the ancestors resolved in this step.
        let mut descs = self.stored_descendants(parts, group.keys())?;

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
        // of the value, so the converged bytes are independent of
        // grouping and replays.
        let mut adds: BTreeMap<String, BTreeSet<(&str, String)>> = BTreeMap::new();
        for (item, ancestors) in &full {
            for anc in ancestors {
                let bucket = closure_bucket(anc);
                let physical = if bucket == 0 {
                    item.clone()
                } else {
                    let mark = closure_frag_mark(bucket);
                    adds.entry(item.clone())
                        .or_default()
                        .insert((CLOSURE_ATTR_FRAGS, mark));
                    closure_frag_name(item, bucket)
                };
                adds.entry(physical)
                    .or_default()
                    .insert((CLOSURE_ATTR_ANC, anc.clone()));
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
        for item in group.keys() {
            adds.entry(item.clone())
                .or_default()
                .insert((CLOSURE_ATTR_NODE, "1".to_string()));
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
            parts.db.batch_put_attributes(CLOSURE_DOMAIN, &batch)?;
            parts.world.crash_point(mid_site)?;
        }
        Ok(())
    }

    /// The ancestor renders of `item`: `{parent} ∪ ancestors(parent)`
    /// over its in-group parents, falling back to the cache, then the
    /// stored closure row, then a heal for out-of-group parents.
    fn resolve(
        &mut self,
        parts: &ServeParts,
        item: &str,
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
            let parent_anc = self.ancestors_of(parts, &parent_item, group, resolved, stack)?;
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
        parts: &ServeParts,
        item: &str,
        group: &mut BTreeMap<String, NodeInfo>,
        resolved: &mut BTreeMap<String, BTreeSet<String>>,
        stack: &mut BTreeSet<String>,
    ) -> Result<BTreeSet<String>> {
        if group.contains_key(item) {
            return self.resolve(parts, item, group, resolved, stack);
        }
        if let Some(cached) = self.cache.get(item) {
            return Ok(cached.clone());
        }
        if let Some(stored) = self.read_row_ancestors(parts, item)? {
            self.cache.insert(item.to_string(), stored.clone());
            return Ok(stored);
        }
        // Detectably stale: the node is referenced by a committed edge
        // but carries no marked closure row. Rebuild it from the main
        // domain (eventual consistency may also return nothing here; an
        // absent node then contributes no ancestors, which a later
        // commit through this path will heal again).
        let stored = parts.db.get_attributes(DOMAIN, item, None)?;
        if stored.is_empty() {
            return Ok(BTreeSet::new());
        }
        let pairs = stored.iter().map(|p| (&*p.name, &*p.value));
        group.insert(item.to_string(), NodeInfo::from_pairs(pairs));
        self.resolve(parts, item, group, resolved, stack)
    }

    /// The descendants the index already holds for each of `items`, keyed
    /// by item name: the children that committed before the node itself
    /// and recorded it among their ancestors. One `['a' = …] union …`
    /// lookup per [`UNION_BATCH`] nodes; a hit is attributed to the terms
    /// found among the `a` values it comes back with.
    fn stored_descendants<'a>(
        &self,
        parts: &ServeParts,
        items: impl Iterator<Item = &'a String>,
    ) -> Result<BTreeMap<String, BTreeSet<String>>> {
        let by_render: BTreeMap<String, &String> = items
            .filter_map(|item| Some((ObjectRef::parse_item_name(item)?.render(), item)))
            .collect();
        let renders: Vec<&String> = by_render.keys().collect();
        let filter = [CLOSURE_ATTR_ANC.to_string()];
        let mut descs: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for batch in renders.chunks(UNION_BATCH) {
            let expr = union_of_equals(CLOSURE_ATTR_ANC, batch.iter().copied());
            page_through(|token| {
                let page = parts.db.query_with_attributes(
                    CLOSURE_DOMAIN,
                    Some(&expr),
                    Some(&filter),
                    Some(250),
                    token,
                )?;
                for hit in page.items {
                    let Some(desc) = ObjectRef::parse_item_name(closure_row_name(&hit.name)) else {
                        continue;
                    };
                    for term in hit.attributes.iter() {
                        if let Some(&item) = by_render.get(&*term.value) {
                            descs.entry(item.clone()).or_default().insert(desc.render());
                        }
                    }
                }
                Ok(page.next_token)
            })?;
        }
        Ok(descs)
    }

    /// Reads the stored ancestor set of a marked closure row — the base
    /// item plus one `GetAttributes` per fragment mark on it; `None` when
    /// the row is missing or unmarked (stale; its fragments are then not
    /// read).
    fn read_row_ancestors(
        &self,
        parts: &ServeParts,
        item: &str,
    ) -> Result<Option<BTreeSet<String>>> {
        let get = |item: &str| parts.db.get_attributes(CLOSURE_DOMAIN, item, None);
        let mut ancestors = BTreeSet::new();
        let mut buckets = Vec::new();
        let mut marked = false;
        for pair in get(item)?.iter() {
            match &*pair.name {
                CLOSURE_ATTR_ANC => {
                    ancestors.insert(pair.value.to_string());
                }
                CLOSURE_ATTR_FRAGS => buckets.extend(closure_mark_bucket(&pair.value)),
                _ => marked = true,
            }
        }
        if !marked {
            return Ok(None);
        }
        for bucket in buckets {
            let frag = get(&closure_frag_name(item, bucket))?;
            ancestors.extend(frag.iter().map(|pair| pair.value.to_string()));
        }
        Ok(Some(ancestors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_simpledb::{pairs, SimpleDb};

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
                        let item = db.latest_item(domain, &name).unwrap_or_default();
                        let owned = |(n, v): (&str, &str)| (n.to_string(), v.to_string());
                        pairs(&item).into_iter().map(owned).collect()
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

    /// What the maintenance path pays to learn a parent's ancestors after
    /// losing its cache: the base item plus one read per fragment in use,
    /// and a single read when the row is unmarked.
    #[test]
    fn reading_ancestors_costs_the_base_plus_one_read_per_fragment() {
        use crate::arch2::S3SimpleDb;
        use crate::serve::Serveable;
        use simworld::{Op, SimWorld};

        // 12 sources -> one process: the process row carries 12 `a` values.
        let node = |name: String, inputs: Vec<String>| {
            let attrs = inputs.iter().map(|i| ReplaceableAttribute::add("input", i));
            (format!("{name} 1"), attrs.collect::<Vec<_>>())
        };
        let sources: BTreeSet<String> = (0..12).map(|i| format!("src{i}:1")).collect();
        let mut items: Vec<_> = (0..12).map(|i| node(format!("src{i}"), vec![])).collect();
        items.push(node("tool".into(), sources.iter().cloned().collect()));

        let world = SimWorld::counting();
        let parts = S3SimpleDb::new(&world).serve_parts();
        let db = &parts.db;
        let mut index = ClosureIndex::default();
        index
            .index_items(&parts, &items, CrashSite::new("test.unarmed"))
            .unwrap();
        // A child that committed ahead of its parent leaves an unmarked row.
        let orphan = [ReplaceableAttribute::add(CLOSURE_ATTR_ANC, "tool:1")];
        db.put_attributes(CLOSURE_DOMAIN, "ghost 1", &orphan)
            .unwrap();
        world.settle();
        index.reset();

        let frags: BTreeSet<u64> = sources
            .iter()
            .map(|s| closure_bucket(s))
            .filter(|b| *b != 0)
            .collect();
        assert!(frags.len() > 1, "the row must actually be fragmented");

        let before = world.meters();
        let read = index.read_row_ancestors(&parts, "tool 1").unwrap();
        let cost = world.meters() - before;
        assert_eq!(read, Some(sources.clone()));
        assert_eq!(cost.op_count(Op::SdbGetAttributes), 1 + frags.len() as u64);
        assert_eq!(cost.total_ops(), 1 + frags.len() as u64);
        // The row is `n`, the marks and the values, and nothing else.
        let pair_bytes = |name: &str, value: &str| (name.len() + value.len()) as u64;
        let marks = frags
            .iter()
            .map(|b| pair_bytes(CLOSURE_ATTR_FRAGS, &closure_frag_mark(*b)));
        let values = sources.iter().map(|s| pair_bytes(CLOSURE_ATTR_ANC, s));
        assert_eq!(
            cost.bytes_out(),
            pair_bytes(CLOSURE_ATTR_NODE, "1") + marks.sum::<u64>() + values.sum::<u64>()
        );

        let before = world.meters();
        assert_eq!(index.read_row_ancestors(&parts, "ghost 1").unwrap(), None);
        assert_eq!(index.read_row_ancestors(&parts, "nobody 1").unwrap(), None);
        assert_eq!((world.meters() - before).total_ops(), 2);
    }

    /// One ancestor, 1 000 descendants, committed in several groups. No
    /// row holds descendants, so the popular ancestor's row stays as small
    /// as any other and no physical item comes near SimpleDB's 256-pair
    /// cap; the index answer is a paged lookup that equals the walk, on
    /// either commit path.
    #[test]
    fn a_thousand_descendants_stay_under_the_256_pair_cap() {
        use crate::arch2::{Arch2Config, S3SimpleDb};
        use crate::arch3::{Arch3Config, S3SimpleDbSqs};
        use crate::query::ProvQuery;
        use crate::serve::Serveable;
        use crate::store::ProvenanceStore;
        use pass::FileFlush;
        use simworld::{Blob, Op, SimWorld};

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

        let drive = |store: &mut dyn ProvenanceStore| {
            for (round, group) in flushes.chunks(167).enumerate() {
                store.persist_batch(group).unwrap();
                if round % 2 == 1 {
                    store.run_daemons_until_idle().unwrap();
                }
            }
            store.run_daemons_until_idle().unwrap();
        };
        let check = |world: &SimWorld, index: ServeParts| {
            let db = &index.db;
            world.settle();
            // Every logical row is `n`, at most two ancestors and their
            // marks — the popular seed's included.
            let mut seed = BTreeSet::new();
            for item in db.latest_item_names(CLOSURE_DOMAIN) {
                let attrs = db.latest_item(CLOSURE_DOMAIN, &item).unwrap();
                assert!(attrs.len() <= 5, "{item:?} holds {} pairs", attrs.len());
                if closure_row_name(&item) == "seed.dat 1" {
                    let row = pairs(&attrs).into_iter();
                    let row = row.filter(|(name, _)| *name != CLOSURE_ATTR_FRAGS);
                    seed.extend(row.map(|(n, v)| (n.to_string(), v.to_string())));
                }
            }
            let pair = |name: &str, value: &str| (name.to_string(), value.to_string());
            assert_eq!(
                seed,
                BTreeSet::from([
                    pair(CLOSURE_ATTR_ANC, "fan:1"),
                    pair(CLOSURE_ATTR_NODE, "1")
                ])
            );

            let q = ProvQuery::DescendantsOf {
                program: "fan".into(),
            };
            let walked = index.walking().query(&q).unwrap();
            assert_eq!(walked.len(), LEAVES);
            let before = world.meters();
            assert_eq!(index.query(&q).unwrap(), walked);
            let cost = world.meters() - before;
            // Two lookups on the main domain, then 1 000 hits at 250 a page.
            assert_eq!(cost.op_count(Op::SdbQuery), 2 + 4);
            assert_eq!(cost.op_count(Op::SdbGetAttributes), LEAVES as u64);
            assert_eq!(cost.total_ops(), 2 + 4 + LEAVES as u64);
        };

        let world = SimWorld::counting();
        let mut arch2 = S3SimpleDb::new(&world);
        arch2.set_config(Arch2Config {
            closure: ClosureMode::Serve,
            ..Arch2Config::default()
        });
        drive(&mut arch2);
        check(&world, arch2.serve_parts());

        let world = SimWorld::counting();
        let mut arch3 = S3SimpleDbSqs::new(&world, "fan-out");
        arch3.set_config(Arch3Config {
            closure: ClosureMode::Serve,
            ..Arch3Config::default()
        });
        drive(&mut arch3);
        check(&world, arch3.serve_parts());
    }

    #[test]
    fn node_info_extracts_the_walk_edge_relation() {
        let info = NodeInfo::from_pairs([
            ("input", "a:1"),
            ("input", "a:1"),
            ("input", "not a ref"),
            ("input", "@s3:prov/a 1/0"),
            ("type", "file"),
            ("name", "b:1"),
        ]);
        assert_eq!(info.parents, BTreeSet::from(["a:1".to_string()]));
    }
}
