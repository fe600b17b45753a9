//! The three provenance queries of the paper's evaluation (§5, Table 3)
//! and the SimpleDB engine that executes them.
//!
//! * **Q1** — given an object and version, retrieve its provenance (the
//!   paper runs it over *all* objects);
//! * **Q2** — find all files that were outputs of `blast`;
//! * **Q3** — find all the descendants of files derived from `blast`.
//!
//! Architecture 1 has no search capability: [`crate::StandaloneS3`] can
//! only HEAD-scan the provenance metadata of every object in the
//! repository, and evaluates Q2 and Q3 on the scanned corpus as a
//! [`ProvGraph`]. Architectures 2 and 3 share one read side,
//! [`ServeParts`], whose [`ServeParts::query`] issues indexed
//! `QueryWithAttributes` lookups — every expression it issues is pinned
//! down by `=` terms on `type`, `name` or `input`, so the simulated
//! service answers each from its attribute postings in time
//! proportional to the answer, and bills it as one request. SimpleDB has
//! no recursive queries, so Q3 walks the graph one generation of
//! `QueryWithAttributes` at a time — still orders of magnitude more
//! selective than the scan. When the store keeps the closure index Q3 is
//! instead the walk's two seed lookups, issued names-only, and one posted
//! `['a' = seed] union …` lookup on the closure domain for every
//! generation at once, then one `GetAttributes` per answer item;
//! [`ServeParts::walking`] turns the index off again.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use pass::{ObjectRef, ProvenanceRecord, RecordKey};
use serde::{Deserialize, Serialize};

use crate::error::Result;
use crate::graph::ProvGraph;
use crate::layout::{closure_row_name, CLOSURE_ATTR_ANC, CLOSURE_DOMAIN, DOMAIN};
use crate::readpath::fetch_overflow;
use crate::serialize::decode_attributes;
use crate::serve::ServeParts;

/// How many `union` predicates we pack into one SimpleDB query
/// expression when looking up many values of one attribute at once.
pub(crate) const UNION_BATCH: usize = 20;

/// A provenance query.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ProvQuery {
    /// Q1 over the whole repository: provenance of every stored object
    /// version.
    ProvenanceOfAll,
    /// Q1 for one object version.
    ProvenanceOf {
        /// Object name.
        name: String,
        /// Version.
        version: u32,
    },
    /// Q2: all files that were outputs of the program (direct children
    /// of any process version running it).
    OutputsOf {
        /// Executable name, e.g. `blastall`.
        program: String,
    },
    /// Q3: everything derived, transitively, from the outputs of the
    /// program.
    DescendantsOf {
        /// Executable name.
        program: String,
    },
}

/// One hit: an object version and its provenance records.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryItem {
    /// The object version.
    pub object: ObjectRef,
    /// Its provenance.
    pub records: Vec<ProvenanceRecord>,
}

/// The result set of a [`ProvQuery`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct QueryAnswer {
    /// Matching object versions, in deterministic (name, version) order.
    pub items: Vec<QueryItem>,
}

impl QueryAnswer {
    pub(crate) fn from_map(map: BTreeMap<ObjectRef, Vec<ProvenanceRecord>>) -> QueryAnswer {
        QueryAnswer {
            items: map
                .into_iter()
                .map(|(object, records)| QueryItem { object, records })
                .collect(),
        }
    }

    /// Number of hits.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing matched.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The rendered `name:version` of every hit.
    pub fn names(&self) -> Vec<String> {
        self.items.iter().map(|i| i.object.render()).collect()
    }
}

// --- helpers shared by both query paths ---

/// The value of the first `name` record, if any.
fn name_record(records: &[ProvenanceRecord]) -> Option<&str> {
    records.iter().find_map(|r| match (&r.key, &r.value) {
        (RecordKey::Name, pass::RecordValue::Text(t)) => Some(t.as_str()),
        _ => None,
    })
}

/// `true` when the records mark a process running `program`.
fn is_process_named(records: &[ProvenanceRecord], program: &str) -> bool {
    let is_process = records.iter().any(|r| {
        r.key == RecordKey::Type && matches!(&r.value, pass::RecordValue::Text(t) if t == "process")
    });
    is_process && name_record(records) == Some(program)
}

/// `true` when the records mark a file.
fn is_file(records: &[ProvenanceRecord]) -> bool {
    records.iter().any(|r| {
        r.key == RecordKey::Type && matches!(&r.value, pass::RecordValue::Text(t) if t == "file")
    })
}

/// Appends `text` to an expression with every `'` doubled, the escape
/// the SimpleDB query language reads inside a quoted string.
fn push_quoted(expr: &mut String, text: &str) {
    let mut parts = text.split('\'');
    expr.push_str(parts.next().unwrap_or_default());
    for part in parts {
        expr.push_str("''");
        expr.push_str(part);
    }
}

/// A value a lookup compares against, written into the expression as its
/// quoted string says it — without going through `fmt`.
pub(crate) trait TermValue {
    /// Appends the value with every `'` doubled.
    fn push_quoted(&self, expr: &mut String);
}

impl TermValue for str {
    fn push_quoted(&self, expr: &mut String) {
        push_quoted(expr, self);
    }
}

/// `name:version`: the name quoted, the version in decimal digits.
impl TermValue for ObjectRef {
    fn push_quoted(&self, expr: &mut String) {
        push_quoted(expr, &self.name);
        expr.push(':');
        let (mut digits, mut at, mut rest) = ([0u8; 10], 10, self.version);
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        expr.extend(digits[at..].iter().map(|&d| char::from(d)));
    }
}

impl<T: TermValue + ?Sized> TermValue for &T {
    fn push_quoted(&self, expr: &mut String) {
        (**self).push_quoted(expr);
    }
}

/// `['attr' = v1] union ['attr' = v2] union …`: the items carrying any of
/// `values` under `attr`, as one posted lookup, each value written
/// straight into the one string. `Query` bills the expression's length,
/// so this text is part of the bill.
pub(crate) fn union_of_equals<V: TermValue>(
    attr: &str,
    values: impl IntoIterator<Item = V>,
) -> String {
    let values = values.into_iter();
    // Room for terms with values of about an object reference's length.
    let mut expr = String::with_capacity(values.size_hint().0 * (attr.len() + 32));
    for value in values {
        if !expr.is_empty() {
            expr.push_str(" union ");
        }
        expr.push_str("['");
        expr.push_str(attr);
        expr.push_str("' = '");
        value.push_quoted(&mut expr);
        expr.push_str("']");
    }
    expr
}

/// The walk's phase-1 expression: the process versions running `program`.
fn processes_named(program: &str) -> String {
    let mut expr = String::from("['type' = 'process'] intersection ['name' = '");
    push_quoted(&mut expr, program);
    expr.push_str("']");
    expr
}

// --- Q2 and Q3 on an in-memory graph (Architecture 1) ---

/// Q2 (`descendants` false) or Q3 on an in-memory graph, the corpus the
/// S3 scan reads: Q2 is the file children of the program's process nodes,
/// Q3 every descendant of those seeds except the seeds themselves.
pub(crate) fn graph_query(graph: &ProvGraph, program: &str, descendants: bool) -> QueryAnswer {
    let processes = graph
        .iter()
        .filter(|(_, records)| is_process_named(records, program));
    let seeds: BTreeSet<ObjectRef> = processes
        .flat_map(|(process, _)| graph.children(process))
        .filter(|child| graph.records(child).is_some_and(is_file))
        .collect();
    let hits = if descendants {
        &graph.descendants_of_any(&seeds) - &seeds
    } else {
        seeds
    };
    let item = |object: ObjectRef| QueryItem {
        records: graph.records(&object).unwrap_or_default().to_vec(),
        object,
    };
    QueryAnswer {
        items: hits.into_iter().map(item).collect(),
    }
}

// --- the SimpleDB engine (Architectures 2 and 3) ---

/// Pages one SimpleDB request to its end: `page` issues the request from
/// a token (`None` for the first page), consumes the page and returns its
/// next token; the first `None` ends the loop.
pub(crate) fn page_through(
    mut page: impl FnMut(Option<&str>) -> Result<Option<String>>,
) -> Result<()> {
    let mut token = page(None)?;
    while let Some(next) = token {
        token = page(Some(&next))?;
    }
    Ok(())
}

impl ServeParts {
    /// These parts with the closure index off: Q3 walks the graph one
    /// generation at a time whatever the store keeps — the oracle the
    /// index-served Q3 is checked against.
    pub fn walking(&self) -> ServeParts {
        ServeParts {
            serve_closure: false,
            ..self.clone()
        }
    }

    /// Executes a query against SimpleDB, reading overflow values from S3
    /// and retrying stale overflow GETs under the store's retry policy. Q3
    /// is served from the closure index ([`CLOSURE_DOMAIN`]) when the
    /// store keeps one and walked otherwise.
    ///
    /// # Errors
    ///
    /// SimpleDB/S3 service errors.
    pub fn query(&self, query: &ProvQuery) -> Result<QueryAnswer> {
        match query {
            ProvQuery::ProvenanceOf { name, version } => {
                let object = ObjectRef::new(name.clone(), *version);
                let hit = self.fetch_item(&object)?.map(|records| (object, records));
                Ok(QueryAnswer::from_map(hit.into_iter().collect()))
            }
            ProvQuery::ProvenanceOfAll => {
                // No way to generalise: enumerate items, then one
                // GetAttributes per item (the paper's ~72K ops for Q1).
                let mut map = BTreeMap::new();
                page_through(|token| {
                    let page = self.db.query(DOMAIN, None, Some(250), token)?;
                    for item_name in &page.item_names {
                        let Some(object) = ObjectRef::parse_item_name(item_name) else {
                            continue;
                        };
                        if let Some(records) = self.fetch_item(&object)? {
                            map.insert(object, records);
                        }
                    }
                    Ok(page.next_token)
                })?;
                Ok(QueryAnswer::from_map(map))
            }
            ProvQuery::OutputsOf { program } => {
                Ok(QueryAnswer::from_map(self.outputs_of(program)?))
            }
            ProvQuery::DescendantsOf { program } => {
                if self.serve_closure {
                    return Ok(QueryAnswer::from_map(self.descendants_via_index(program)?));
                }
                // Q3 = Q2 seeds, then one generation at a time; SimpleDB
                // "does not support recursive queries or stored
                // procedures" (§5).
                let seeds = self.outputs_of(program)?;
                let children_of = |parent: &ObjectRef| union_of_equals("input", [parent]);
                let mut result: BTreeMap<ObjectRef, Vec<ProvenanceRecord>> = BTreeMap::new();
                // Each frontier item as the expression that asks for its
                // children.
                let mut frontier: VecDeque<String> = seeds.keys().map(children_of).collect();
                while let Some(expr) = frontier.pop_front() {
                    // One QueryWithAttributes per frontier item, as the
                    // paper describes. Objects already visited — the seeds
                    // and everything found so far — are skipped before
                    // decoding, so a diamond in the graph costs one record
                    // fetch, not one per path, and every child returned is
                    // new.
                    let visited = |o: &ObjectRef| seeds.contains_key(o) || result.contains_key(o);
                    for (object, records) in self.query_children(&expr, visited)? {
                        frontier.push_back(children_of(&object));
                        result.insert(object, records);
                    }
                }
                Ok(QueryAnswer::from_map(result))
            }
        }
    }

    /// Q2 in two indexed phases (§5): find the program's process
    /// versions, then everything that lists one of them as `input`.
    fn outputs_of(&self, program: &str) -> Result<BTreeMap<ObjectRef, Vec<ProvenanceRecord>>> {
        let processes = self.query_all_pages(&processes_named(program))?;
        let mut outputs = BTreeMap::new();
        let refs: Vec<&ObjectRef> = processes.keys().collect();
        for batch in refs.chunks(UNION_BATCH) {
            let expr = union_of_equals("input", batch);
            for (object, records) in self.query_all_pages(&expr)? {
                if is_file(&records) {
                    outputs.insert(object, records);
                }
            }
        }
        Ok(outputs)
    }

    /// Q3 over the closure index: three names-only posted lookups, then
    /// the answer.
    ///
    /// 1. the walk's phase 1 on the main domain: the program's process
    ///    versions;
    /// 2. the walk's phase 2: the files listing one of them as `input` —
    ///    the seeds;
    /// 3. `['a' = seed] union …` on the closure domain: every node with a
    ///    seed among its ancestors, i.e. the transitive descendants;
    /// 4. one `GetAttributes` per answer object fetches its records.
    ///
    /// Steps 2 and 3 take [`UNION_BATCH`] terms per expression and page at
    /// 250, so requests scale with the answer, never with the corpus or
    /// the depth of the graph. The answer matches the walk item for item:
    /// the index maintains exactly the walk's edge relation (stored inline
    /// `input` values that round-trip as refs), and seeds are excluded
    /// from the result just as the walk pre-loads them into `visited`.
    fn descendants_via_index(
        &self,
        program: &str,
    ) -> Result<BTreeMap<ObjectRef, Vec<ProvenanceRecord>>> {
        let procs = self.query_refs(DOMAIN, &processes_named(program))?;
        let seeds =
            self.refs_carrying(DOMAIN, "input", &procs, " intersection ['type' = 'file']")?;
        let hits = self.refs_carrying(CLOSURE_DOMAIN, CLOSURE_ATTR_ANC, &seeds, "")?;
        let mut result = BTreeMap::new();
        for object in hits.difference(&seeds) {
            // A missing main-domain item here is a stale phantom (the
            // closure outlived a deleted row); skip it rather than fail.
            if let Some(records) = self.fetch_item(object)? {
                result.insert(object.clone(), records);
            }
        }
        Ok(result)
    }

    /// The objects in `domain` carrying the render of any of `values`
    /// under `attr` (and satisfying `suffix`, a trailing
    /// ` intersection …` clause or nothing).
    fn refs_carrying(
        &self,
        domain: &str,
        attr: &str,
        values: &BTreeSet<ObjectRef>,
        suffix: &str,
    ) -> Result<BTreeSet<ObjectRef>> {
        let values: Vec<&ObjectRef> = values.iter().collect();
        let mut out = BTreeSet::new();
        for batch in values.chunks(UNION_BATCH) {
            let expr = union_of_equals(attr, batch) + suffix;
            out.append(&mut self.query_refs(domain, &expr)?);
        }
        Ok(out)
    }

    /// Runs one names-only `Query` across all pages. Closure fragments
    /// fold into the row they belong to, and an index domain that was
    /// never created matches nothing.
    fn query_refs(&self, domain: &str, expr: &str) -> Result<BTreeSet<ObjectRef>> {
        let mut out = BTreeSet::new();
        page_through(|token| {
            let page = match self.db.query(domain, Some(expr), Some(250), token) {
                Err(sim_simpledb::SdbError::NoSuchDomain { .. }) if domain == CLOSURE_DOMAIN => {
                    return Ok(None)
                }
                reply => reply?,
            };
            let rows = page.item_names.iter().map(|name| closure_row_name(name));
            out.extend(rows.filter_map(ObjectRef::parse_item_name));
            Ok(page.next_token)
        })?;
        Ok(out)
    }

    /// Runs one QueryWithAttributes expression across all pages,
    /// skipping the decode (and its overflow GETs) for objects `skip`
    /// accepts.
    fn query_children(
        &self,
        expr: &str,
        skip: impl Fn(&ObjectRef) -> bool,
    ) -> Result<BTreeMap<ObjectRef, Vec<ProvenanceRecord>>> {
        let mut out = BTreeMap::new();
        page_through(|token| {
            let page = self
                .db
                .query_with_attributes(DOMAIN, Some(expr), None, Some(250), token)?;
            for item in page.items {
                let Some(object) = ObjectRef::parse_item_name(&item.name) else {
                    continue;
                };
                if skip(&object) || out.contains_key(&object) {
                    continue;
                }
                let records = decode_attributes(&item.attributes, |key| self.fetch_overflow(key))?;
                out.insert(object, records);
            }
            Ok(page.next_token)
        })?;
        Ok(out)
    }

    /// Runs one QueryWithAttributes expression across all pages.
    fn query_all_pages(&self, expr: &str) -> Result<BTreeMap<ObjectRef, Vec<ProvenanceRecord>>> {
        self.query_children(expr, |_| false)
    }

    /// GetAttributes for one item; `None` when the item does not exist.
    fn fetch_item(&self, object: &ObjectRef) -> Result<Option<Vec<ProvenanceRecord>>> {
        let item = self.db.get_attributes(DOMAIN, &object.item_name(), None)?;
        if item.is_empty() {
            return Ok(None);
        }
        Ok(Some(decode_attributes(&item, |key| {
            self.fetch_overflow(key)
        })?))
    }

    fn fetch_overflow(&self, key: &str) -> Result<String> {
        fetch_overflow(&self.s3, &self.world, &self.retry, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Serveable;
    use simworld::SimWorld;

    fn rec(k: &str, v: &str) -> ProvenanceRecord {
        ProvenanceRecord::from_pair(k, v)
    }

    fn corpus() -> BTreeMap<ObjectRef, Vec<ProvenanceRecord>> {
        // in.fa:1 -> proc blastall:1 -> hits.txt:1 -> proc awk:1 -> top.txt:1
        //                            -> log.txt:1 (also from blastall)
        // unrelated.txt:1 from proc cp:1
        let mut m = BTreeMap::new();
        m.insert(
            ObjectRef::new("in.fa", 1),
            vec![rec("type", "file"), rec("name", "in.fa")],
        );
        m.insert(
            ObjectRef::new("proc:1:blastall", 1),
            vec![
                rec("type", "process"),
                rec("name", "blastall"),
                rec("input", "in.fa:1"),
            ],
        );
        m.insert(
            ObjectRef::new("hits.txt", 1),
            vec![
                rec("type", "file"),
                rec("name", "hits.txt"),
                rec("input", "proc:1:blastall:1"),
            ],
        );
        m.insert(
            ObjectRef::new("log.txt", 1),
            vec![
                rec("type", "file"),
                rec("name", "log.txt"),
                rec("input", "proc:1:blastall:1"),
            ],
        );
        m.insert(
            ObjectRef::new("proc:2:awk", 1),
            vec![
                rec("type", "process"),
                rec("name", "awk"),
                rec("input", "hits.txt:1"),
            ],
        );
        m.insert(
            ObjectRef::new("top.txt", 1),
            vec![
                rec("type", "file"),
                rec("name", "top.txt"),
                rec("input", "proc:2:awk:1"),
            ],
        );
        m.insert(
            ObjectRef::new("proc:3:cp", 1),
            vec![rec("type", "process"), rec("name", "cp")],
        );
        m.insert(
            ObjectRef::new("unrelated.txt", 1),
            vec![
                rec("type", "file"),
                rec("name", "unrelated.txt"),
                rec("input", "proc:3:cp:1"),
            ],
        );
        m
    }

    /// Q2 (`descendants` false) or Q3 for `program` on [`corpus`].
    fn on_graph(program: &str, descendants: bool) -> QueryAnswer {
        graph_query(&ProvGraph::from_records(corpus()), program, descendants)
    }

    #[test]
    fn outputs_of_finds_direct_children_files_only() {
        let answer = on_graph("blastall", false);
        assert_eq!(answer.names(), vec!["hits.txt:1", "log.txt:1"]);
        let c = corpus();
        for item in &answer.items {
            assert_eq!(item.records, c[&item.object], "{:?}", item.object);
        }
    }

    #[test]
    fn outputs_of_unknown_program_is_empty() {
        assert!(on_graph("nonexistent", false).is_empty());
        assert!(on_graph("nonexistent", true).is_empty());
    }

    #[test]
    fn descendants_walk_through_processes() {
        // Descendants of {hits.txt, log.txt}: the awk process and top.txt.
        let answer = on_graph("blastall", true);
        assert_eq!(answer.names(), vec!["proc:2:awk:1", "top.txt:1"]);
    }

    #[test]
    fn descendants_exclude_unrelated_branches() {
        let names = on_graph("blastall", true).names();
        assert!(!names.iter().any(|n| n.starts_with("unrelated.txt")));
        assert!(
            !names.iter().any(|n| n.starts_with("in.fa")),
            "ancestors are not descendants"
        );
    }

    #[test]
    fn query_answer_accessors() {
        let ans = QueryAnswer::from_map(corpus());
        assert_eq!(ans.len(), 8);
        assert!(!ans.is_empty());
        assert_eq!(ans.names().len(), 8);
        assert!(QueryAnswer::default().is_empty());
    }

    #[test]
    fn quote_escapes_quotes() {
        let mut expr = String::from("'");
        ObjectRef::new("o'brien''", 1).push_quoted(&mut expr);
        assert_eq!(expr, "'o''brien'''':1");
        // A version is its decimal digits, as `Display` writes it.
        for version in [0, 7, 10, 4_096, u32::MAX] {
            let (mut expr, object) = (String::new(), ObjectRef::new("n", version));
            object.push_quoted(&mut expr);
            assert_eq!(expr, object.to_string());
        }
    }

    /// `Query` bills `expression.len()` as request bytes: the text of a
    /// lookup is pinned, byte for byte.
    #[test]
    fn lookup_expressions_render_their_billed_text() {
        assert_eq!(
            union_of_equals("input", ["a:1", "o'b:2"]),
            "['input' = 'a:1'] union ['input' = 'o''b:2']"
        );
        let object = ObjectRef::new("it's", 3);
        assert_eq!(union_of_equals("input", [&object]), "['input' = 'it''s:3']");
        assert_eq!(union_of_equals("input", [""; 0]), "");
        assert_eq!(
            processes_named("it's"),
            "['type' = 'process'] intersection ['name' = 'it''s']"
        );
    }

    /// The benchmark's corpus shape: `runs` pipelines of
    /// `in -> s0 -> f0 -> s1 -> f1 -> s2 -> f2 -> s3 -> f3`, persisted
    /// one pipeline per batch into an arch2 store that maintains the index.
    fn staged_corpus(runs: u32) -> (SimWorld, crate::S3SimpleDb) {
        use crate::{Arch2Config, ClosureMode, ProvenanceStore};
        use pass::{Observer, TraceEvent};
        use simworld::Blob;

        let world = SimWorld::counting();
        let mut store = crate::S3SimpleDb::new(&world);
        store.set_config(Arch2Config {
            closure: ClosureMode::Serve,
            ..Arch2Config::default()
        });
        for run in 0..runs {
            let mut observer = Observer::new();
            let mut prev = format!("r{run}/in.dat");
            let mut events = vec![TraceEvent::source(&prev, Blob::synthetic(0, 64))];
            for stage in 0..4 {
                let pid = run * 4 + stage + 1;
                let next = format!("r{run}/f{stage}.dat");
                events.extend([
                    TraceEvent::exec(pid, format!("s{stage}"), "cmd", "PATH=/bin", None),
                    TraceEvent::read(pid, &prev),
                    TraceEvent::write(pid, &next),
                    TraceEvent::close(pid, &next, Blob::synthetic(u64::from(pid), 64)),
                    TraceEvent::exit(pid),
                ]);
                prev = next;
            }
            let flushes: Vec<_> = events
                .into_iter()
                .flat_map(|event| observer.observe(event).unwrap())
                .collect();
            store.persist_batch(&flushes).unwrap();
        }
        world.settle();
        (world, store)
    }

    #[test]
    fn index_served_q3_bills_three_lookups_plus_the_answer() {
        use simworld::Service;

        let (world, store) = staged_corpus(5);
        let index = store.serve_parts();
        let walk = index.walking();
        let bill = |program: String| {
            let q = ProvQuery::DescendantsOf { program };
            let before = world.meters();
            let answer = index.query(&q).unwrap();
            let cost = world.meters() - before;
            assert_eq!(answer, walk.query(&q).unwrap(), "{q:?}");
            assert_eq!(cost.service_ops(Service::S3), 0, "{q:?}");
            (answer.len() as u64, cost.service_ops(Service::SimpleDb))
        };
        // Stage k's outputs have the 2 * (3 - k) later nodes of each of
        // the five runs as descendants.
        for (stage, hits) in [(0, 30), (1, 20), (2, 10), (3, 0)] {
            assert_eq!(bill(format!("s{stage}")), (hits, 3 + hits), "stage {stage}");
        }
        // Nobody ran it: phase 1 finds no process and nothing else is asked.
        assert_eq!(bill("s9".into()), (0, 1));
    }

    #[test]
    fn a_hit_whose_item_was_deleted_is_skipped() {
        let (world, store) = staged_corpus(1);
        let index = store.serve_parts();
        let q = ProvQuery::DescendantsOf {
            program: "s1".into(),
        };
        assert_eq!(index.query(&q).unwrap().len(), 4);
        // The closure row outlives the main-domain item it describes.
        let none = None::<&[sim_simpledb::DeletableAttribute]>;
        store
            .simpledb()
            .delete_attributes(DOMAIN, "r0/f3.dat 1", none)
            .unwrap();
        world.settle();
        let names = index.query(&q).unwrap().names();
        assert_eq!(names.len(), 3);
        assert!(!names.contains(&"r0/f3.dat:1".to_string()));
    }

    #[test]
    fn helper_predicates() {
        let c = corpus();
        let blast = &c[&ObjectRef::new("proc:1:blastall", 1)];
        assert!(is_process_named(blast, "blastall"));
        assert!(!is_process_named(blast, "awk"));
        assert!(!is_file(blast));
        let hits = &c[&ObjectRef::new("hits.txt", 1)];
        assert!(is_file(hits));
        assert!(!is_process_named(hits, "hits.txt"));
    }
}
