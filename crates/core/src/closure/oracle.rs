//! The string-keyed closure maintenance that [`super::ClosureIndex`]
//! replaced, kept as the test oracle for it.
//!
//! Every node here is its item name and every ancestor set a
//! `BTreeSet<String>` of renders, cloned at each step; the edges are
//! re-parsed from their renders on every pass. It makes, in the same
//! order and with the same bytes, every request the id-based indexer
//! makes: the proptest in `closure.rs`'s tests indexes the same groups
//! through both on twin worlds and compares their request logs and
//! closure domains after every group. If that test fails, the id-based
//! indexer is wrong, not this one.

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

/// Parses a stored attribute value as an object reference, requiring an
/// exact round-trip — the same equality the walk engine's
/// `['input' = '...']` queries apply to stored values.
pub(super) fn parse_render(value: &str) -> Option<ObjectRef> {
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

/// The string-keyed maintenance engine.
#[derive(Debug, Default)]
pub(super) struct OracleIndex {
    /// `CreateDomain` already sent.
    domain_ready: bool,
    /// item name -> ancestor renders, for nodes indexed in this
    /// process's lifetime.
    cache: HashMap<String, BTreeSet<String>>,
}

impl OracleIndex {
    /// Drops all in-memory state, as a process crash would.
    pub(super) fn reset(&mut self) {
        self.cache.clear();
    }

    /// Indexes one commit group through `parts`: the `(item name, stored
    /// attributes)` pairs exactly as they were written to the provenance
    /// domain. Fires `mid_site` after each index batch lands.
    pub(super) fn index_items(
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

        // Premature descendants, looked up before this group's writes.
        let mut descs = self.stored_descendants(parts, group.keys())?;

        // Repair fixpoint over a working ancestor map seeded with the
        // resolved sets and a descendant map seeded with the premature
        // children plus the descendant edges this group adds.
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

        // Emit the adds from the converged sets.
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
            // Group rows: replace (converged set is complete);
            // repaired bystanders: extend.
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
    /// closure domain, or only in the main provenance domain (a heal).
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
        let stored = parts.db.get_attributes(DOMAIN, item, None)?;
        if stored.is_empty() {
            return Ok(BTreeSet::new());
        }
        let pairs = stored.iter().map(|p| (p.name, p.value));
        group.insert(item.to_string(), NodeInfo::from_pairs(pairs));
        self.resolve(parts, item, group, resolved, stack)
    }

    /// The descendants the index already holds for each of `items`.
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
                        if let Some(&item) = by_render.get(term.value) {
                            descs.entry(item.clone()).or_default().insert(desc.render());
                        }
                    }
                }
                Ok(page.next_token)
            })?;
        }
        Ok(descs)
    }

    /// Reads the stored ancestor set of a marked closure row; `None`
    /// when the row is missing or unmarked.
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
            match pair.name {
                CLOSURE_ATTR_ANC => {
                    ancestors.insert(pair.value.to_string());
                }
                CLOSURE_ATTR_FRAGS => buckets.extend(closure_mark_bucket(pair.value)),
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
