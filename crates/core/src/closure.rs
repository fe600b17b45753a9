//! Incrementally materialized ancestry-closure index.
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
//!
//! All of this assumes reads see the latest write. On an eventually
//! consistent world an indexer without a cached set for a parent (a
//! restarted daemon, a second client) can read the parent's row from a
//! stale replica — the base without some of its fragments, or no row —
//! and write the child an incomplete ancestor set that nothing repairs.
//!
//! # Representation
//!
//! The maintenance step computes on node ids, not strings. Every object
//! version the indexer meets — a group item, an `input` edge, a row a
//! lookup returns, an `a` value it reads — gets a `u32` id the first time
//! it is met, keyed by its render, and its [`closure_bucket`] then; both
//! are kept for the indexer's lifetime. Values and names are split at
//! their last separator without allocating, and an item name is spelled
//! from the render only where a request names the item. A commit group
//! arrives as its edges — each member's id and its parents' ids
//! ([`ClosureIndex::gather`], taken before the puts take the items) — and
//! each maintenance step numbers the rows it touches densely. Ancestor
//! sets are sorted id lists: resolved per member, grown by the repair
//! fixpoint, and kept per node as the cache — the converged set of every
//! node indexed and the stored set of every row read in this process's
//! lifetime. The cache is an op-count optimization only: a miss falls
//! back to reading the row (and, failing that, a heal), so losing it — a
//! daemon crash — costs reads, not correctness. Strings come back only
//! for the requests: the lookup expression, and the emitted items, whose
//! names and pairs are sorted exactly as strings sort, so the requests
//! are those of the string-keyed engine this replaced (kept as the test
//! oracle in `closure/oracle.rs`).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

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

#[cfg(test)]
mod oracle;

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

/// Splits `text` at its last `sep` into the name and the version of the
/// object version it spells, without allocating — `None` unless the text
/// round-trips: a non-empty name and the version as `u32::to_string`
/// writes it. With `:` this is [`ObjectRef::parse`] of a render that
/// round-trips (a stored `input` value is an edge exactly then); with
/// `' '` it is [`ObjectRef::parse_item_name`] of a canonical item name.
fn split_ref(text: &str, sep: char) -> Option<(&str, &str)> {
    let (name, version) = text.rsplit_once(sep)?;
    let canonical = !name.is_empty()
        && version.bytes().all(|b| b.is_ascii_digit())
        && (version == "0" || !version.starts_with('0'))
        && version.parse::<u32>().is_ok();
    canonical.then_some((name, version))
}

/// Where bucket `b`'s mark sorts among the marks of a row: the string
/// order of `"a{b}"` (`a1 < a10 < … < a19 < a2`), bucket 0 first.
fn mark_order(b: u64) -> (u64, u64) {
    if b < 10 {
        (b, 0)
    } else {
        (b / 10, b % 10 + 1)
    }
}

/// One node the indexer has met, with what maintenance needs of it.
#[derive(Debug)]
struct Node {
    /// Its render: the `a` (and `input`) value that names it.
    render: Arc<str>,
    /// The render round-trips as a ref: the node is an object version,
    /// with a row. False for a stored `a` value that does not, which
    /// names no row.
    is_ref: bool,
    /// `closure_bucket(render)`: where its value lives in a row.
    bucket: u64,
    /// Its ancestors, sorted, when known in this process's lifetime.
    cached: Option<Vec<u32>>,
}

/// The item name of the object version a round-tripping render names.
fn item_name(render: &str) -> String {
    let (name, version) = render.rsplit_once(':').expect("a ref's render");
    [name, " ", version].concat()
}

/// Compares two refs' renders as their item names compare.
fn cmp_as_items(a: &str, b: &str) -> Ordering {
    fn spelled(render: &str) -> impl Iterator<Item = u8> + '_ {
        let (name, version) = render.rsplit_once(':').expect("a ref's render");
        name.bytes().chain(*b" ").chain(version.bytes())
    }
    spelled(a).cmp(spelled(b))
}

/// A commit group's edges, gathered from its items before they are put:
/// `(member, None)` for each member and `(member, Some(parent))` for
/// each of its parents — the `input` values that round-trip as refs —
/// sorted by member item name, then parent render, without repeats.
#[derive(Debug)]
pub(crate) struct Group(Vec<(u32, Option<u32>)>);

/// The maintenance engine: computes ancestor sets for a commit group and
/// writes the index rows through the batch API of the store's services
/// ([`ServeParts`], passed in by the write side that owns both).
#[derive(Debug, Default)]
pub(crate) struct ClosureIndex {
    /// `CreateDomain` already issued (it is idempotent but billable, so
    /// it runs once per indexer).
    domain_ready: bool,
    /// Every node met, by id.
    nodes: Vec<Node>,
    /// Render -> id.
    by_render: HashMap<Arc<str>, u32>,
    /// Scratch space for spelling a render from an item name.
    spelling: String,
}

/// One node's state during one maintenance step.
#[derive(Debug, Default)]
struct Row {
    id: u32,
    /// In the group — given, or pulled in by a heal: its row is marked
    /// and its cached set replaced.
    member: bool,
    /// A member's parents: a range of [`Work::parents`].
    parents: Range<usize>,
    /// On the resolve stack.
    resolving: bool,
    /// The ancestor ids this step writes to the row, sorted: a member's
    /// resolved set, grown by the repair to its converged set; a
    /// bystander's repair adds. `None`: the row is not written.
    full: Option<Vec<u32>>,
}

/// The rows of one maintenance step, dense per step.
#[derive(Debug, Default)]
struct Work {
    slots: HashMap<u32, usize>,
    rows: Vec<Row>,
    /// The members' parents, each member's in render order.
    parents: Vec<u32>,
}

impl Work {
    /// The rows of `group`'s members, in its order.
    fn of(group: Group) -> Work {
        let members = group
            .0
            .iter()
            .filter(|(_, parent)| parent.is_none())
            .count();
        let mut work = Work {
            slots: HashMap::with_capacity(2 * members),
            rows: Vec::with_capacity(2 * members),
            parents: Vec::with_capacity(group.0.len() - members),
        };
        for (id, parent) in group.0 {
            match parent {
                None => {
                    let slot = work.slot(id);
                    let at = work.parents.len();
                    work.rows[slot].member = true;
                    work.rows[slot].parents = at..at;
                }
                Some(parent) => {
                    work.parents.push(parent);
                    let last = work.rows.len() - 1;
                    work.rows[last].parents.end += 1;
                }
            }
        }
        work
    }

    /// The row of node `id`, added when absent.
    fn slot(&mut self, id: u32) -> usize {
        let next = self.rows.len();
        let slot = *self.slots.entry(id).or_insert(next);
        if slot == next {
            self.rows.push(Row {
                id,
                ..Row::default()
            });
        }
        slot
    }

    /// The row of node `id` if it is a member.
    fn member(&self, id: u32) -> Option<usize> {
        let slot = *self.slots.get(&id)?;
        self.rows[slot].member.then_some(slot)
    }
}

/// Adds the sorted ids `src` to the sorted ids `dst`; whether `dst` grew.
fn union_into(dst: &mut Vec<u32>, src: &[u32]) -> bool {
    let before = dst.len();
    for &id in src {
        if dst[..before].binary_search(&id).is_err() {
            dst.push(id);
        }
    }
    let grew = dst.len() != before;
    if grew {
        dst.sort_unstable();
    }
    grew
}

impl ClosureIndex {
    /// Drops all in-memory state, as a process crash would.
    pub(crate) fn reset(&mut self) {
        *self = ClosureIndex {
            domain_ready: self.domain_ready,
            ..ClosureIndex::default()
        };
    }

    /// The edges of a commit group: `items` are the `(item name, stored
    /// attributes)` pairs exactly as they are written to the provenance
    /// domain. Duplicate item entries (two transactions re-flushing one
    /// version) merge; items that name no object version are skipped.
    pub(crate) fn gather(&mut self, items: &[(String, Vec<ReplaceableAttribute>)]) -> Group {
        let mut edges = Vec::with_capacity(2 * items.len());
        for (item_name, attrs) in items {
            let Some(id) = self.row_id(item_name) else {
                continue;
            };
            edges.push((id, None));
            for attr in attrs.iter().filter(|attr| attr.name == "input") {
                edges.extend(self.value_id(&attr.value, true).map(|p| (id, Some(p))));
            }
        }
        let render = |id: u32| &*self.nodes[id as usize].render;
        edges.sort_unstable_by(|(a, pa), (b, pb)| {
            let parent = |p: &Option<u32>| p.map(render);
            cmp_as_items(render(*a), render(*b)).then_with(|| parent(pa).cmp(&parent(pb)))
        });
        edges.dedup();
        Group(edges)
    }

    /// Indexes one commit group through `parts`. Fires `mid_site` after
    /// each index batch lands (the mid-index-batch crash window).
    ///
    /// # Errors
    ///
    /// Service errors, and [`simworld::Crashed`] when an armed site
    /// fires.
    pub(crate) fn index_group(
        &mut self,
        parts: &ServeParts,
        group: Group,
        mid_site: CrashSite,
    ) -> Result<()> {
        if group.0.is_empty() {
            return Ok(());
        }
        if !self.domain_ready {
            parts.db.create_domain(CLOSURE_DOMAIN)?;
            self.domain_ready = true;
        }
        let mut work = Work::of(group);

        // Resolve every member's ancestor set, in item-name order. A heal
        // pulls a stale out-of-group parent in as a member and resolves
        // it on the spot.
        for slot in 0..work.rows.len() {
            self.resolve(parts, &mut work, slot)?;
        }

        // Premature descendants: commits can land out of order, so a
        // child may already list a member among its ancestors before the
        // member itself was indexed. Look up what is there now (before
        // this group's writes) so the repair fixpoint below can
        // re-propagate it through the ancestors resolved in this step.
        let mut descs = self.stored_descendants(parts, &work)?;

        // Repair fixpoint. Every member is a descendant of everything it
        // resolved to; with the premature children, that is each row's
        // descendants (`descs`: row, descendant id). Then propagate: a
        // row's full ancestor set flows to every descendant recorded on
        // it, until nothing grows. One pass is *not* enough: a member's
        // resolved set can itself be completed by a sibling's repair (its
        // parent committed late, in this very group), and its own
        // descendants need that completed set, not the resolution-time
        // one.
        let seeds = work.rows.iter().filter_map(|row| row.full.as_ref());
        descs.reserve(seeds.map(Vec::len).sum());
        for slot in 0..work.rows.len() {
            if !work.rows[slot].member {
                continue;
            }
            let id = work.rows[slot].id;
            let ancestors = work.rows[slot].full.take().unwrap_or_default();
            for &anc in &ancestors {
                if self.nodes[anc as usize].is_ref {
                    let up = work.slot(anc);
                    descs.push((up, id));
                }
            }
            work.rows[slot].full = Some(ancestors);
        }
        descs.sort_unstable();
        descs.dedup();
        loop {
            let mut changed = false;
            for run in descs.chunk_by(|a, b| a.0 == b.0) {
                let up = run[0].0;
                let id = work.rows[up].id;
                let Some(ancestors) = work.rows[up].full.take() else {
                    continue;
                };
                if !ancestors.is_empty() {
                    for &(_, d) in run.iter().filter(|&&(_, d)| d != id) {
                        let down = work.slot(d);
                        let full = work.rows[down].full.get_or_insert_with(Vec::new);
                        changed |= union_into(full, &ancestors);
                    }
                }
                work.rows[up].full = Some(ancestors);
            }
            if !changed {
                break;
            }
        }

        // Emit the adds from the converged sets. Everything is an
        // idempotent set-add; the physical placement is a pure function
        // of the value, so the converged bytes are independent of
        // grouping and replays.
        let adds = self.emit(&work);
        // Keep later groups in this process's lifetime seeing the
        // repaired sets: replace members' (their converged set is
        // complete), extend repaired bystanders' (their row already
        // carries ancestors this step never computed).
        for row in work.rows {
            let Some(full) = row.full else {
                continue;
            };
            let node = &mut self.nodes[row.id as usize];
            if row.member {
                node.cached = Some(full);
            } else if let Some(cached) = &mut node.cached {
                union_into(cached, &full);
            }
        }
        for batch in pack_attr_batches(adds) {
            parts.db.batch_put_attributes(CLOSURE_DOMAIN, &batch)?;
            parts.world.crash_point(mid_site)?;
        }
        Ok(())
    }

    /// The physical items of every row `work` writes, in item-name order:
    /// on a row's base item its bucket-0 `a` values, then its `f` marks,
    /// then — a member — the `n` marker; on each fragment its `a` values;
    /// values in string order.
    fn emit(&self, work: &Work) -> Vec<(String, Vec<ReplaceableAttribute>)> {
        let written = work.rows.iter().filter_map(|row| row.full.as_ref());
        // At most a base and one fragment per value.
        let mut adds = Vec::with_capacity(written.map(|full| 1 + full.len()).sum());
        let mut values: Vec<(u64, &str)> = Vec::new();
        for row in &work.rows {
            let Some(full) = &row.full else {
                continue;
            };
            let item = item_name(&self.nodes[row.id as usize].render);
            values.clear();
            values.extend(full.iter().map(|&anc| {
                let node = &self.nodes[anc as usize];
                (node.bucket, &*node.render)
            }));
            // Bucket 0 first, then the fragments in the order of their
            // marks, so the base's `a` values precede its sorted `f` marks.
            values.sort_unstable_by_key(|&(bucket, value)| (mark_order(bucket), value));
            let buckets = values.chunk_by(|a, b| a.0 == b.0);
            let zeros = values.iter().take_while(|(bucket, _)| *bucket == 0).count();
            let marks = buckets.clone().count() - usize::from(zeros > 0);
            let mut base = Vec::with_capacity(zeros + marks + usize::from(row.member));
            for bucket in buckets {
                let pairs = bucket
                    .iter()
                    .map(|&(_, value)| ReplaceableAttribute::add(CLOSURE_ATTR_ANC, value));
                match bucket[0].0 {
                    0 => base.extend(pairs),
                    b => {
                        adds.push((closure_frag_name(&item, b), pairs.collect()));
                        let mark = closure_frag_mark(b);
                        base.push(ReplaceableAttribute::add(CLOSURE_ATTR_FRAGS, mark));
                    }
                }
            }
            if row.member {
                base.push(ReplaceableAttribute::add(CLOSURE_ATTR_NODE, "1"));
            }
            if !base.is_empty() {
                adds.push((item, base));
            }
        }
        adds.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        adds
    }

    /// Resolves the member in `slot`: `{parent} ∪ ancestors(parent)` over
    /// its parents. A member met again while it is being resolved — a
    /// cycle, impossible in a committed DAG — contributes nothing.
    fn resolve(&mut self, parts: &ServeParts, work: &mut Work, slot: usize) -> Result<()> {
        let row = &mut work.rows[slot];
        if !row.member || row.resolving || row.full.is_some() {
            return Ok(());
        }
        row.resolving = true;
        let mut ancestors = Vec::new();
        for at in row.parents.clone() {
            let parent = work.parents[at];
            self.ancestors_of(parts, work, parent, &mut ancestors)?;
            ancestors.push(parent);
        }
        ancestors.sort_unstable();
        ancestors.dedup();
        let row = &mut work.rows[slot];
        row.resolving = false;
        row.full = Some(ancestors);
        Ok(())
    }

    /// Appends to `out` the ancestors of node `id`, which may be a
    /// member, cached, stored in the closure domain, or — stale index —
    /// only in the main provenance domain, in which case it is pulled
    /// into the group so its row is (re)written: the self-heal rule.
    fn ancestors_of(
        &mut self,
        parts: &ServeParts,
        work: &mut Work,
        id: u32,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        // Each set is followed by the parent itself.
        let mut append = |set: &[u32]| {
            out.reserve(set.len() + 1);
            out.extend(set);
        };
        if let Some(slot) = work.member(id) {
            self.resolve(parts, work, slot)?;
            append(work.rows[slot].full.as_deref().unwrap_or_default());
            return Ok(());
        }
        let node = &self.nodes[id as usize];
        if let Some(cached) = &node.cached {
            append(cached);
            return Ok(());
        }
        let item = item_name(&node.render);
        if let Some(stored) = self.read_row(parts, &item)? {
            append(&stored);
            self.nodes[id as usize].cached = Some(stored);
            return Ok(());
        }
        // Detectably stale: the node is referenced by a committed edge
        // but carries no marked closure row. Rebuild it from the main
        // domain (eventual consistency may also return nothing here; an
        // absent node then contributes no ancestors, which a later
        // commit through this path will heal again).
        let stored = parts.db.get_attributes(DOMAIN, &item, None)?;
        if stored.is_empty() {
            return Ok(());
        }
        let at = work.parents.len();
        for pair in stored.iter().filter(|pair| pair.name == "input") {
            work.parents.extend(self.value_id(pair.value, true));
        }
        let mut parents = work.parents.split_off(at);
        parents.sort_unstable_by(|a, b| {
            let render = |id: &u32| &self.nodes[*id as usize].render;
            render(a).cmp(render(b))
        });
        parents.dedup();
        work.parents.append(&mut parents);
        let slot = work.slot(id);
        work.rows[slot].member = true;
        work.rows[slot].parents = at..work.parents.len();
        self.resolve(parts, work, slot)?;
        append(work.rows[slot].full.as_deref().unwrap_or_default());
        Ok(())
    }

    /// The descendants the index already holds for each member, as
    /// `(member's row, descendant id)`: the children that committed
    /// before the member and recorded it among their ancestors. One
    /// `['a' = …] union …` lookup per [`UNION_BATCH`] members, in render
    /// order; a hit is attributed to the members found among the `a`
    /// values it comes back with.
    fn stored_descendants(&mut self, parts: &ServeParts, work: &Work) -> Result<Vec<(usize, u32)>> {
        let mut members: Vec<(Arc<str>, usize)> = (work.rows.iter().enumerate())
            .filter(|(_, row)| row.member)
            .map(|(slot, row)| (Arc::clone(&self.nodes[row.id as usize].render), slot))
            .collect();
        members.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let filter = [CLOSURE_ATTR_ANC.to_string()];
        let mut descs = Vec::new();
        for batch in members.chunks(UNION_BATCH) {
            let expr = union_of_equals(CLOSURE_ATTR_ANC, batch.iter().map(|(render, _)| render));
            page_through(|token| {
                let page = parts.db.query_with_attributes(
                    CLOSURE_DOMAIN,
                    Some(&expr),
                    Some(&filter),
                    Some(250),
                    token,
                )?;
                for hit in page.items {
                    let Some(desc) = self.row_id(closure_row_name(&hit.name)) else {
                        continue;
                    };
                    for term in hit.attributes.iter() {
                        let found =
                            members.binary_search_by(|(render, _)| (**render).cmp(term.value));
                        if let Ok(i) = found {
                            descs.push((members[i].1, desc));
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
    fn read_row(&mut self, parts: &ServeParts, item: &str) -> Result<Option<Vec<u32>>> {
        let get = |item: &str| parts.db.get_attributes(CLOSURE_DOMAIN, item, None);
        let base = get(item)?;
        let is_marker = |name: &str| name != CLOSURE_ATTR_ANC && name != CLOSURE_ATTR_FRAGS;
        if !base.iter().any(|pair| is_marker(pair.name)) {
            return Ok(None);
        }
        let mut ancestors = Vec::new();
        let mut buckets = Vec::new();
        for pair in base.iter() {
            match pair.name {
                CLOSURE_ATTR_ANC => ancestors.extend(self.value_id(pair.value, false)),
                CLOSURE_ATTR_FRAGS => buckets.extend(closure_mark_bucket(pair.value)),
                _ => {}
            }
        }
        for bucket in buckets {
            for pair in get(&closure_frag_name(item, bucket))?.iter() {
                ancestors.extend(self.value_id(pair.value, false));
            }
        }
        ancestors.sort_unstable();
        ancestors.dedup();
        Ok(Some(ancestors))
    }

    /// The node an `input` or `a` value names, met now if it is new.
    /// `refs_only`: `None` for a value that does not round-trip as a ref
    /// (an `input` that is no edge) rather than a node that names no row.
    fn value_id(&mut self, value: &str, refs_only: bool) -> Option<u32> {
        if let Some(&id) = self.by_render.get(value) {
            return (!refs_only || self.nodes[id as usize].is_ref).then_some(id);
        }
        let is_ref = split_ref(value, ':').is_some();
        (is_ref || !refs_only).then(|| self.meet(Arc::from(value), is_ref))
    }

    /// The node a row name names — a group item, a row a lookup
    /// returned — met now if it is new; `None` when the name parses as
    /// no object version. A name whose version is not written as
    /// `u32::to_string` writes it names the node of the canonical one.
    fn row_id(&mut self, row: &str) -> Option<u32> {
        let Some((name, version)) = split_ref(row, ' ') else {
            return self.row_id(&ObjectRef::parse_item_name(row)?.item_name());
        };
        let mut render = std::mem::take(&mut self.spelling);
        render.clear();
        render.extend([name, ":", version]);
        let id = match self.by_render.get(render.as_str()) {
            Some(&id) => id,
            None => self.meet(Arc::from(render.as_str()), true),
        };
        self.spelling = render;
        Some(id)
    }

    /// Gives a new node its id and its bucket.
    fn meet(&mut self, render: Arc<str>, is_ref: bool) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("fewer than 2^32 nodes");
        self.by_render.insert(Arc::clone(&render), id);
        self.nodes.push(Node {
            bucket: closure_bucket(&render),
            render,
            is_ref,
            cached: None,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::parse_render;
    use super::*;
    use sim_simpledb::{pairs, SimpleDb};
    use std::collections::BTreeSet;

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
        // The allocation-free split the indexer reads values with agrees.
        for value in [
            "a:1",
            "proc:1:tool:2",
            "a:0",
            "a:01",
            "a:00",
            "a:+1",
            "a:4294967295",
            "a:4294967296",
            ":1",
            "a:",
            "@s3:prov/a 1/0",
            "plain",
        ] {
            let split =
                split_ref(value, ':').map(|(name, v)| ObjectRef::new(name, v.parse().unwrap()));
            assert_eq!(split, parse_render(value), "{value:?}");
        }
        assert_eq!(split_ref("proc:1:tool 2", ' '), Some(("proc:1:tool", "2")));
        assert_eq!(split_ref("a 01", ' '), None);
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
        let group = index.gather(&items);
        index
            .index_group(&parts, group, CrashSite::new("test.unarmed"))
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
        let read = index.read_row(&parts, "tool 1").unwrap();
        let cost = world.meters() - before;
        let renders = |ids: Vec<u32>| -> BTreeSet<String> {
            let render = |id: u32| index.nodes[id as usize].render.to_string();
            ids.into_iter().map(render).collect()
        };
        assert_eq!(read.map(renders), Some(sources.clone()));
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
        assert_eq!(index.read_row(&parts, "ghost 1").unwrap(), None);
        assert_eq!(index.read_row(&parts, "nobody 1").unwrap(), None);
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
        let attrs = [
            ("input", "a:1"),
            ("input", "a:1"),
            ("input", "not a ref"),
            ("input", "@s3:prov/a 1/0"),
            ("type", "file"),
            ("name", "b:1"),
        ];
        let attrs = attrs.map(|(name, value)| ReplaceableAttribute::add(name, value));
        let mut index = ClosureIndex::default();
        let Group(edges) = index.gather(&[("b 1".to_string(), attrs.to_vec())]);
        let render = |id: u32| &*index.nodes[id as usize].render;
        let edges: Vec<_> = edges
            .iter()
            .map(|&(m, p)| (render(m), p.map(render)))
            .collect();
        assert_eq!(edges, [("b:1", None), ("b:1", Some("a:1"))]);
        // Values that are no edge name no node.
        assert_eq!(index.nodes.len(), 2);
    }

    // --- the id-based indexer against the string-keyed oracle ---

    use super::oracle::OracleIndex;
    use crate::serve::domain_fingerprint;
    use proptest::prelude::*;
    use simworld::{Consistency, LatencyModel, SimConfig, SimDuration, SimWorld};

    const UNARMED: CrashSite = CrashSite::new("test.unarmed");

    /// One indexer of a twin pair.
    trait Maintain: Default {
        fn index(&mut self, parts: &ServeParts, items: &[(String, Vec<ReplaceableAttribute>)]);
        fn reset(&mut self);
    }

    impl Maintain for ClosureIndex {
        fn index(&mut self, parts: &ServeParts, items: &[(String, Vec<ReplaceableAttribute>)]) {
            let group = self.gather(items);
            self.index_group(parts, group, UNARMED).unwrap();
        }
        fn reset(&mut self) {
            ClosureIndex::reset(self);
        }
    }

    impl Maintain for OracleIndex {
        fn index(&mut self, parts: &ServeParts, items: &[(String, Vec<ReplaceableAttribute>)]) {
            self.index_items(parts, items, UNARMED).unwrap();
        }
        fn reset(&mut self) {
            OracleIndex::reset(self);
        }
    }

    /// A world with an arch2 store's services and an indexer over them.
    struct Twin<I> {
        world: SimWorld,
        parts: ServeParts,
        index: I,
    }

    impl<I: Maintain> Twin<I> {
        fn new(config: SimConfig) -> Twin<I> {
            use crate::arch2::S3SimpleDb;
            use crate::serve::Serveable;
            let world = SimWorld::with_config(config);
            let parts = S3SimpleDb::new(&world).serve_parts();
            // Torn rows are written before the first group is indexed.
            parts.db.create_domain(CLOSURE_DOMAIN).unwrap();
            world.enable_latency_samples();
            Twin {
                world,
                parts,
                index: I::default(),
            }
        }

        /// Commits one group: its items land in the provenance domain,
        /// the `torn` closure items (values without an `n` mark) beside
        /// them, then — unless the group is `PUT_ONLY` — it is indexed.
        fn commit(
            &mut self,
            items: &[(String, Vec<ReplaceableAttribute>)],
            torn: &[(String, Vec<ReplaceableAttribute>)],
            flags: u8,
        ) {
            if flags & RESET != 0 {
                self.index.reset();
            }
            for batch in pack_attr_batches(items.to_vec()) {
                self.parts.db.batch_put_attributes(DOMAIN, &batch).unwrap();
            }
            for (item, attrs) in torn {
                let db = &self.parts.db;
                db.put_attributes(CLOSURE_DOMAIN, item, attrs).unwrap();
            }
            if flags & PUT_ONLY == 0 {
                self.index.index(&self.parts, items);
            }
            if flags & SETTLE != 0 {
                self.world.settle();
            }
        }

        /// The requests since the last look, the meters, and the closure
        /// domain's fingerprint.
        fn observed(&self) -> (Vec<simworld::LatencySample>, simworld::MeterSnapshot, u64) {
            let samples = self.world.take_latency_samples();
            let fingerprint = domain_fingerprint(&self.parts.db, CLOSURE_DOMAIN);
            (samples, self.world.meters(), fingerprint)
        }
    }

    /// Group flags: reset both indexers first; add a second entry for
    /// the group's first item (its type and first input only); put the
    /// group without indexing it (rows to heal); with `PUT_ONLY`, also
    /// leave each item a torn row; settle the world afterwards.
    const RESET: u8 = 1;
    const DUPLICATE: u8 = 2;
    const PUT_ONLY: u8 = 4;
    const TORN: u8 = 8;
    const SETTLE: u8 = 16;

    /// A node of a random DAG: which of the eight nodes before it are
    /// its parents (at most one, or three for one node in eight, so the
    /// graph runs deep and mostly without shortcuts), the round it
    /// commits in, the first letter of its name (so item-name order is
    /// not index order), and whether it is a process.
    type DagNode = (u64, usize, u8, bool);

    /// The rounds a random DAG commits in, one group each.
    const ROUNDS: usize = 3;

    /// The provenance item of node `i`, now and then with an `input`
    /// that is no edge (an overflow pointer).
    fn dag_item(nodes: &[DagNode], i: usize) -> (String, Vec<ReplaceableAttribute>) {
        let name = |j: usize| format!("{}{j}", char::from(b'a' + nodes[j].2));
        let (mask, _, _, is_proc) = nodes[i];
        let kind = if is_proc { "process" } else { "file" };
        let mut attrs = vec![ReplaceableAttribute::add("type", kind)];
        let near = mask & mask.rotate_left(17);
        let most = if mask >> 61 == 0 { 3 } else { 1 };
        let parents = (i.saturating_sub(8)..i)
            .rev()
            .filter(|j| (near >> (i - j)) & 1 == 1)
            .take(most);
        attrs.extend(parents.map(|j| ReplaceableAttribute::add("input", format!("{}:1", name(j)))));
        if mask >> 63 == 1 {
            attrs.push(ReplaceableAttribute::add(
                "input",
                format!("@s3:prov/{} 1/0", name(i)),
            ));
        }
        (format!("{} 1", name(i)), attrs)
    }

    /// A torn row for `item`: its first `input` as an `a` value where the
    /// layout places it (and the fragment's mark), and no `n` mark — what
    /// a crash between index batches can leave.
    fn torn_row(
        item: &(String, Vec<ReplaceableAttribute>),
    ) -> Vec<(String, Vec<ReplaceableAttribute>)> {
        let Some(first) = item.1.iter().find(|a| a.name == "input") else {
            return Vec::new();
        };
        let value = ReplaceableAttribute::add(CLOSURE_ATTR_ANC, first.value.clone());
        match closure_bucket(&first.value) {
            0 => vec![(item.0.clone(), vec![value])],
            bucket => vec![
                (closure_frag_name(&item.0, bucket), vec![value]),
                (
                    item.0.clone(),
                    vec![ReplaceableAttribute::add(
                        CLOSURE_ATTR_FRAGS,
                        closure_frag_mark(bucket),
                    )],
                ),
            ],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Random DAGs committed in random rounds — so children commit
        // ahead of their parents about as often as after them — with
        // duplicate item entries, resets between groups (parents then read
        // back from their rows), groups put but not indexed (rows to heal),
        // torn rows, on strong and on eventual worlds. Twin worlds, one per
        // indexer, must make the same requests — op and timing — with the
        // same bytes, and hold the same closure domain, after every group.
        #[test]
        fn ids_index_every_group_as_strings_did(
            nodes in proptest::collection::vec(
                (any::<u64>(), 0..ROUNDS, 0u8..26, any::<bool>()),
                2..24,
            ),
            flags in proptest::collection::vec((any::<u8>(), any::<u8>()), ROUNDS..ROUNDS + 1),
            seed in any::<u64>(),
            eventual in any::<bool>(),
        ) {
            let config = SimConfig {
                seed,
                consistency: if eventual {
                    Consistency::eventual(SimDuration::from_secs(10))
                } else {
                    Consistency::Strong
                },
                latency: LatencyModel::default(),
                replicas: if eventual { 3 } else { 1 },
            };
            let mut ids: Twin<ClosureIndex> = Twin::new(config);
            let mut strings: Twin<OracleIndex> = Twin::new(config);
            // Each flag holds for a quarter of the rounds.
            for (round, flags) in flags.iter().map(|(a, b)| a & b).enumerate() {
                let members = (0..nodes.len()).filter(|&i| nodes[i].1 == round);
                let mut items: Vec<_> = members.map(|i| dag_item(&nodes, i)).collect();
                if items.is_empty() {
                    continue;
                }
                let torn: Vec<_> = if flags & (PUT_ONLY | TORN) == PUT_ONLY | TORN {
                    items.iter().flat_map(torn_row).collect()
                } else {
                    Vec::new()
                };
                if flags & DUPLICATE != 0 {
                    let (name, attrs) = &items[0];
                    let input = attrs.iter().filter(|a| a.name == "input").take(1);
                    let again = (name.clone(), attrs[..1].iter().chain(input).cloned().collect());
                    items.push(again);
                }
                ids.commit(&items, &torn, flags);
                strings.commit(&items, &torn, flags);
                let (ours, theirs) = (ids.observed(), strings.observed());
                prop_assert_eq!(ours.0.len(), theirs.0.len());
                prop_assert_eq!(&ours.0, &theirs.0);
                prop_assert_eq!(&ours.1, &theirs.1);
                prop_assert_eq!(ours.2, theirs.2);
            }
        }
    }
}
