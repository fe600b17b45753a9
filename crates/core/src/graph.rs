//! Provenance-graph analytics over query results.
//!
//! The paper's introduction motivates provenance with three usage
//! scenarios: audit every data set touched by a flawed tool, map corrupt
//! hardware into affected outputs, and — when one group cannot reproduce
//! another's results — *"comparing the provenance will shed insight into
//! the differences in the experiment."* This module supplies the graph
//! machinery those scenarios need on top of the query engines: ancestry
//! and descendant closures, roots/leaves, topological order, cycle
//! detection (the hazard PASS's versioning exists to avoid — Braun et
//! al., cited as [4] in the paper), Graphviz export, and a structural
//! **diff** between two provenance graphs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

use pass::{ObjectRef, ProvenanceRecord};
use serde::{Deserialize, Serialize};

use crate::query::{QueryAnswer, QueryItem};

/// An immutable provenance DAG: object versions and their `input` /
/// `forkparent` edges (child → ancestor).
///
/// # Examples
///
/// ```
/// use pass::{ObjectRef, ProvenanceRecord};
/// use provenance_cloud::ProvGraph;
///
/// let graph = ProvGraph::from_records(vec![
///     (ObjectRef::new("in", 1), vec![]),
///     (ObjectRef::new("out", 1), vec![ProvenanceRecord::input(ObjectRef::new("in", 1))]),
/// ]);
/// assert_eq!(graph.len(), 2);
/// assert!(graph.ancestors(&ObjectRef::new("out", 1)).contains(&ObjectRef::new("in", 1)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProvGraph {
    nodes: BTreeMap<ObjectRef, Vec<ProvenanceRecord>>,
    /// child → parents (derived from reference records).
    parents: BTreeMap<ObjectRef, BTreeSet<ObjectRef>>,
    /// parent → children (inverted index).
    children: BTreeMap<ObjectRef, BTreeSet<ObjectRef>>,
}

/// Every node reachable in one or more `edges` steps from any of
/// `start`; the walk borrows the edge sets and clones only the answer.
fn closure<'a>(
    edges: &'a BTreeMap<ObjectRef, BTreeSet<ObjectRef>>,
    start: impl IntoIterator<Item = &'a ObjectRef>,
) -> BTreeSet<ObjectRef> {
    let mut seen = BTreeSet::new();
    let mut frontier: VecDeque<&ObjectRef> = start.into_iter().collect();
    while let Some(current) = frontier.pop_front() {
        for next in edges.get(current).into_iter().flatten() {
            if seen.insert(next) {
                frontier.push_back(next);
            }
        }
    }
    seen.into_iter().cloned().collect()
}

impl ProvGraph {
    /// Builds a graph from `(object, records)` pairs.
    pub fn from_records(
        items: impl IntoIterator<Item = (ObjectRef, Vec<ProvenanceRecord>)>,
    ) -> ProvGraph {
        let mut graph = ProvGraph::default();
        for (object, records) in items {
            for parent in records.iter().filter_map(ProvenanceRecord::reference) {
                graph
                    .parents
                    .entry(object.clone())
                    .or_default()
                    .insert(parent.clone());
                graph
                    .children
                    .entry(parent.clone())
                    .or_default()
                    .insert(object.clone());
            }
            graph.nodes.insert(object, records);
        }
        graph
    }

    /// Builds a graph from a [`QueryAnswer`] (typically
    /// [`crate::ProvQuery::ProvenanceOfAll`]).
    pub fn from_answer(answer: &QueryAnswer) -> ProvGraph {
        ProvGraph::from_records(
            answer
                .items
                .iter()
                .map(|QueryItem { object, records }| (object.clone(), records.clone())),
        )
    }

    /// Number of object versions in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The records of one node, if present.
    pub fn records(&self, object: &ObjectRef) -> Option<&[ProvenanceRecord]> {
        self.nodes.get(object).map(Vec::as_slice)
    }

    /// Iterates every node in `(name, version)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&ObjectRef, &[ProvenanceRecord])> {
        self.nodes.iter().map(|(o, r)| (o, r.as_slice()))
    }

    /// Direct ancestors of a node (referenced object versions).
    pub fn parents(&self, object: &ObjectRef) -> BTreeSet<ObjectRef> {
        self.parents.get(object).cloned().unwrap_or_default()
    }

    /// Direct descendants of a node.
    pub fn children(&self, object: &ObjectRef) -> BTreeSet<ObjectRef> {
        self.children.get(object).cloned().unwrap_or_default()
    }

    /// Transitive ancestor closure (excluding `object` itself). Includes
    /// dangling references — ancestors mentioned by records but not
    /// present as nodes — because *detecting* those is how causal-
    /// ordering violations surface.
    pub fn ancestors(&self, object: &ObjectRef) -> BTreeSet<ObjectRef> {
        closure(&self.parents, [object])
    }

    /// Transitive descendant closure (excluding `object` itself).
    pub fn descendants(&self, object: &ObjectRef) -> BTreeSet<ObjectRef> {
        closure(&self.children, [object])
    }

    /// Every node one or more child steps below any of `seeds`, in one
    /// walk: the union of their [`ProvGraph::descendants`].
    pub(crate) fn descendants_of_any<'a>(
        &'a self,
        seeds: impl IntoIterator<Item = &'a ObjectRef>,
    ) -> BTreeSet<ObjectRef> {
        closure(&self.children, seeds)
    }

    /// Nodes with no ancestors: the primary inputs of the experiment.
    pub fn roots(&self) -> Vec<ObjectRef> {
        self.nodes
            .keys()
            .filter(|o| self.parents(o).is_empty())
            .cloned()
            .collect()
    }

    /// Nodes nothing depends on: the final outputs.
    pub fn leaves(&self) -> Vec<ObjectRef> {
        self.nodes
            .keys()
            .filter(|o| self.children(o).is_empty())
            .cloned()
            .collect()
    }

    /// References to object versions that are not nodes of the graph —
    /// a non-empty result means causal ordering is (currently) violated.
    pub fn dangling_references(&self) -> Vec<ObjectRef> {
        let mut out = Vec::new();
        for parents in self.parents.values() {
            for p in parents {
                if !self.nodes.contains_key(p) {
                    out.push(p.clone());
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Kahn topological order (ancestors before descendants), or `None`
    /// if the graph contains a cycle — which PASS versioning is designed
    /// to prevent (§2.4, and Braun et al. \[4\]).
    pub fn topological_order(&self) -> Option<Vec<ObjectRef>> {
        // In-degree = number of *present* parents.
        let mut indegree: BTreeMap<&ObjectRef, usize> = BTreeMap::new();
        for node in self.nodes.keys() {
            let present_parents = self
                .parents(node)
                .into_iter()
                .filter(|p| self.nodes.contains_key(p))
                .count();
            indegree.insert(node, present_parents);
        }
        let mut queue: VecDeque<&ObjectRef> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(o, _)| *o)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(node) = queue.pop_front() {
            order.push(node.clone());
            for child in self.children(node) {
                if let Some(d) = indegree.get_mut(&child) {
                    // Reborrow the key held by the map, not our temp.
                    *d -= 1;
                    if *d == 0 {
                        let (key, _) = self.nodes.get_key_value(&child).expect("node exists");
                        queue.push_back(key);
                    }
                }
            }
        }
        (order.len() == self.nodes.len()).then_some(order)
    }

    /// `true` when the graph is acyclic (the PASS invariant).
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Longest ancestor-chain length in the graph (pipeline depth).
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic; check [`ProvGraph::is_acyclic`]
    /// first for untrusted inputs.
    pub fn depth(&self) -> usize {
        let order = self
            .topological_order()
            .expect("depth requires an acyclic graph");
        let mut depth: BTreeMap<&ObjectRef, usize> = BTreeMap::new();
        let mut max = 0;
        for node in &order {
            let d = self
                .parents(node)
                .iter()
                .filter_map(|p| depth.get(p).copied())
                .max()
                .map(|d| d + 1)
                .unwrap_or(0);
            let (key, _) = self.nodes.get_key_value(node).expect("node in order");
            depth.insert(key, d);
            max = max.max(d);
        }
        max
    }

    /// Renders the graph in Graphviz DOT form (files as boxes, processes
    /// as ellipses).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph provenance {\n  rankdir=BT;\n");
        for (object, records) in &self.nodes {
            let is_process = records
                .iter()
                .any(|r| r.to_pair() == ("type".to_string(), "process".to_string()));
            let shape = if is_process { "ellipse" } else { "box" };
            let _ = writeln!(
                out,
                "  \"{}\" [shape={shape}];",
                object.render().replace('"', "\\\"")
            );
        }
        for (child, parents) in &self.parents {
            for parent in parents {
                let _ = writeln!(
                    out,
                    "  \"{}\" -> \"{}\";",
                    child.render().replace('"', "\\\""),
                    parent.render().replace('"', "\\\"")
                );
            }
        }
        out.push_str("}\n");
        out
    }

    /// Structural comparison with another graph — the paper's
    /// reproduction scenario: run the experiment twice, compare the
    /// provenance, and the differences explain the differing results.
    pub fn diff(&self, other: &ProvGraph) -> GraphDiff {
        let mut diff = GraphDiff::default();
        for (object, records) in &self.nodes {
            match other.nodes.get(object) {
                None => diff.only_in_left.push(object.clone()),
                Some(other_records) => {
                    let mut left: Vec<_> = records.iter().map(|r| r.to_pair()).collect();
                    let mut right: Vec<_> = other_records.iter().map(|r| r.to_pair()).collect();
                    left.sort();
                    right.sort();
                    if left != right {
                        let left_set: BTreeSet<_> = left.into_iter().collect();
                        let right_set: BTreeSet<_> = right.into_iter().collect();
                        diff.changed.push(NodeDiff {
                            object: object.clone(),
                            removed: left_set.difference(&right_set).cloned().collect(),
                            added: right_set.difference(&left_set).cloned().collect(),
                        });
                    }
                }
            }
        }
        for object in other.nodes.keys() {
            if !self.nodes.contains_key(object) {
                diff.only_in_right.push(object.clone());
            }
        }
        diff
    }
}

/// Per-node record changes found by [`ProvGraph::diff`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeDiff {
    /// The object version whose provenance differs.
    pub object: ObjectRef,
    /// `(key, value)` pairs present only in the left graph.
    pub removed: Vec<(String, String)>,
    /// `(key, value)` pairs present only in the right graph.
    pub added: Vec<(String, String)>,
}

/// Result of comparing two provenance graphs.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphDiff {
    /// Object versions present only in the left graph.
    pub only_in_left: Vec<ObjectRef>,
    /// Object versions present only in the right graph.
    pub only_in_right: Vec<ObjectRef>,
    /// Object versions whose records differ.
    pub changed: Vec<NodeDiff>,
}

impl GraphDiff {
    /// `true` when the graphs are structurally identical.
    pub fn is_empty(&self) -> bool {
        self.only_in_left.is_empty() && self.only_in_right.is_empty() && self.changed.is_empty()
    }

    /// Human-readable summary, one line per difference.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.only_in_left {
            let _ = writeln!(out, "- {} (only in first run)", o.render());
        }
        for o in &self.only_in_right {
            let _ = writeln!(out, "+ {} (only in second run)", o.render());
        }
        for c in &self.changed {
            let _ = writeln!(out, "~ {}:", c.object.render());
            for (k, v) in &c.removed {
                let _ = writeln!(out, "    - ({k}, {v})");
            }
            for (k, v) in &c.added {
                let _ = writeln!(out, "    + ({k}, {v})");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass::RecordValue;

    fn rec(k: &str, v: &str) -> ProvenanceRecord {
        ProvenanceRecord::from_pair(k, v)
    }

    /// in -> proc -> mid -> proc2 -> out, with a side branch.
    fn pipeline() -> ProvGraph {
        ProvGraph::from_records(vec![
            (ObjectRef::new("in", 1), vec![rec("type", "file")]),
            (
                ObjectRef::new("proc:1:t", 1),
                vec![rec("type", "process"), rec("input", "in:1")],
            ),
            (
                ObjectRef::new("mid", 1),
                vec![rec("type", "file"), rec("input", "proc:1:t:1")],
            ),
            (
                ObjectRef::new("proc:2:u", 1),
                vec![rec("type", "process"), rec("input", "mid:1")],
            ),
            (
                ObjectRef::new("out", 1),
                vec![rec("type", "file"), rec("input", "proc:2:u:1")],
            ),
        ])
    }

    #[test]
    fn closures() {
        let g = pipeline();
        let out = ObjectRef::new("out", 1);
        let ancestors = g.ancestors(&out);
        assert_eq!(ancestors.len(), 4);
        assert!(ancestors.contains(&ObjectRef::new("in", 1)));
        let descendants = g.descendants(&ObjectRef::new("in", 1));
        assert_eq!(descendants.len(), 4);
        assert!(descendants.contains(&out));
    }

    #[test]
    fn roots_and_leaves() {
        let g = pipeline();
        assert_eq!(g.roots(), vec![ObjectRef::new("in", 1)]);
        assert_eq!(g.leaves(), vec![ObjectRef::new("out", 1)]);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = pipeline();
        let order = g.topological_order().expect("acyclic");
        let pos = |name: &str| order.iter().position(|o| o.name == name).unwrap();
        assert!(pos("in") < pos("proc:1:t"));
        assert!(pos("proc:1:t") < pos("mid"));
        assert!(pos("mid") < pos("out"));
        assert!(g.is_acyclic());
        assert_eq!(g.depth(), 4);
    }

    #[test]
    fn cycles_are_detected() {
        // a depends on b depends on a — the pathology PASS versioning
        // prevents; the graph layer must still detect it.
        let g = ProvGraph::from_records(vec![
            (ObjectRef::new("a", 1), vec![rec("input", "b:1")]),
            (ObjectRef::new("b", 1), vec![rec("input", "a:1")]),
        ]);
        assert!(!g.is_acyclic());
        assert!(g.topological_order().is_none());
    }

    #[test]
    fn dangling_references_surface() {
        let g = ProvGraph::from_records(vec![(
            ObjectRef::new("orphaned-child", 1),
            vec![rec("input", "never-stored:1")],
        )]);
        assert_eq!(
            g.dangling_references(),
            vec![ObjectRef::new("never-stored", 1)]
        );
        // Pipeline graph has none.
        assert!(pipeline().dangling_references().is_empty());
    }

    #[test]
    fn dot_export_contains_every_node_and_edge() {
        let g = pipeline();
        let dot = g.to_dot();
        assert!(dot.contains("\"out:1\" -> \"proc:2:u:1\""));
        assert!(dot.contains("\"proc:1:t:1\" [shape=ellipse]"));
        assert!(dot.contains("\"in:1\" [shape=box]"));
    }

    #[test]
    fn diff_finds_changed_inputs() {
        let left = pipeline();
        // The second run used a different version of `in`.
        let mut items: Vec<(ObjectRef, Vec<ProvenanceRecord>)> =
            left.iter().map(|(o, r)| (o.clone(), r.to_vec())).collect();
        for (object, records) in &mut items {
            if object.name == "proc:1:t" {
                for r in records.iter_mut() {
                    if r.reference().is_some() {
                        *r = ProvenanceRecord::new(
                            r.key.clone(),
                            RecordValue::Ref(ObjectRef::new("in", 2)),
                        );
                    }
                }
            }
        }
        items.push((ObjectRef::new("in", 2), vec![rec("type", "file")]));
        let right = ProvGraph::from_records(items);

        let diff = left.diff(&right);
        assert!(!diff.is_empty());
        assert_eq!(diff.only_in_right, vec![ObjectRef::new("in", 2)]);
        assert_eq!(diff.changed.len(), 1);
        assert_eq!(diff.changed[0].object.name, "proc:1:t");
        assert!(diff.render().contains("in:2"));
    }

    #[test]
    fn diff_of_identical_graphs_is_empty() {
        let d = pipeline().diff(&pipeline());
        assert!(d.is_empty());
        assert!(d.render().is_empty());
    }

    #[test]
    fn from_answer_round_trip() {
        let g = pipeline();
        let answer = QueryAnswer {
            items: g
                .iter()
                .map(|(o, r)| QueryItem {
                    object: o.clone(),
                    records: r.to_vec(),
                })
                .collect(),
        };
        assert_eq!(ProvGraph::from_answer(&answer), g);
    }
}
