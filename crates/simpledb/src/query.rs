//! The 2009 SimpleDB *Query* language: bracketed predicates combined with
//! `intersection`, `union` and `not`, plus an optional trailing `sort`.
//!
//! ```text
//! ['type' = 'file'] intersection ['input' starts-with 'blast'] sort 'name' desc
//! ```
//!
//! Semantics faithful to the 2009 service:
//!
//! * attributes are **multi-valued**; a predicate matches an item when
//!   *some single value* of the predicate's attribute satisfies the
//!   comparison combination (so `['x' = '1' and 'x' = '2']` needs one
//!   value equal to both — i.e. never matches — while
//!   `['x' = '1'] intersection ['x' = '2']` matches an item carrying both
//!   values);
//! * every comparison inside one predicate must reference the same
//!   attribute;
//! * `not` negates the following predicate; `intersection`/`union`
//!   associate left with equal precedence;
//! * all values compare lexicographically as strings;
//! * `sort` orders by the attribute's smallest value and drops items
//!   lacking the attribute (the real service requires the sort attribute
//!   to appear in a predicate; dropping is the equivalent observable
//!   behaviour).
//!
//! # Equality covers
//!
//! SimpleDB indexes every attribute, so an expression pinned down by
//! `=` comparisons is an index lookup, not a scan. [`EqCover`] derives
//! what to look up: a set of `(attribute, value)` pairs of which every
//! matching item carries at least one. The store draws its candidates
//! from the postings of those pairs and still evaluates the full
//! expression on each, so a cover only has to be *necessary* for a
//! match, never sufficient.

use std::fmt;

use crate::error::{Result, SdbError};
use crate::model::ItemState;

/// Comparison operators available in Query predicates.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `starts-with`
    StartsWith,
}

impl CmpOp {
    fn eval(self, candidate: &str, operand: &str) -> bool {
        match self {
            CmpOp::Eq => candidate == operand,
            CmpOp::Ne => candidate != operand,
            CmpOp::Lt => candidate < operand,
            CmpOp::Gt => candidate > operand,
            CmpOp::Le => candidate <= operand,
            CmpOp::Ge => candidate >= operand,
            CmpOp::StartsWith => candidate.starts_with(operand),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::StartsWith => "starts-with",
        })
    }
}

/// A cover — equality pairs, named by their index in
/// [`EqCover::eq_pairs`] — together with the postings behind it (the
/// candidates a fetch over it has to check).
#[derive(Debug)]
pub(crate) struct Weighed {
    pairs: Vec<usize>,
    postings: usize,
}

impl Weighed {
    /// The cover of nothing at all — the identity of [`Weighed::plus`].
    pub(crate) const EMPTY: Weighed = Weighed {
        pairs: Vec::new(),
        postings: 0,
    };

    /// Covers `a and b`: either side's cover will do, so take the one
    /// with fewer postings.
    pub(crate) fn either(a: Option<Weighed>, b: Option<Weighed>) -> Option<Weighed> {
        match (a, b) {
            (Some(a), Some(b)) => Some(if b.postings < a.postings { b } else { a }),
            (a, b) => a.or(b),
        }
    }

    /// Covers `self or other`: candidates are drawn from both.
    pub(crate) fn plus(mut self, other: Weighed) -> Weighed {
        self.pairs.extend(other.pairs);
        self.postings += other.postings;
        self
    }

    /// Covers `a or b`, which needs both sides covered.
    pub(crate) fn both(a: Option<Weighed>, b: Option<Weighed>) -> Option<Weighed> {
        Some(a?.plus(b?))
    }
}

/// Weighs one `(attribute, value)` pair for [`EqCover::derive`].
pub(crate) type WeighPair<'f, 'a> = &'f mut dyn FnMut(&'a str, &'a str) -> Weighed;

/// An expression the store can serve from attribute postings.
pub(crate) trait EqCover {
    /// The one walk behind both methods below: folds the expression's
    /// `=` pairs into a cover, or `None` when it has none and only a scan
    /// can answer it. `pair` is asked about every pair a cover could draw
    /// on, once each, in an order (and with a `None`-or-not outcome) that
    /// the expression alone decides — never what `pair` answers.
    fn derive<'a>(&'a self, pair: WeighPair<'_, 'a>) -> Option<Weighed>;

    /// The `(attribute, value)` pairs a cover could draw on, in the
    /// order [`EqCover::derive`] meets them.
    fn eq_pairs(&self) -> Vec<(&str, &str)> {
        let mut pairs = Vec::new();
        self.derive(&mut |attr, value| {
            pairs.push((attr, value));
            Weighed::EMPTY
        });
        pairs
    }

    /// The equality cover, as indices into [`EqCover::eq_pairs`], where
    /// `postings[i]` items are posted under pair `i`.
    fn cover(&self, postings: &[usize]) -> Option<Vec<usize>> {
        let mut met = 0;
        let cover = self.derive(&mut |_, _| {
            let pair = met;
            met += 1;
            Weighed {
                pairs: vec![pair],
                postings: postings[pair],
            }
        });
        debug_assert_eq!(met, postings.len(), "one weight per pair of eq_pairs()");
        cover.map(|w| w.pairs)
    }
}

/// One `['attr' op 'value' and/or ...]` predicate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Predicate {
    /// The single attribute every comparison references.
    pub attribute: String,
    /// Comparisons in source order.
    pub comparisons: Vec<(CmpOp, String)>,
    /// Connectives between consecutive comparisons (`true` = and);
    /// length is `comparisons.len() - 1`. `and` binds tighter than `or`.
    pub connectives: Vec<bool>,
}

impl Predicate {
    /// Does any single attribute value satisfy the combination?
    pub fn matches(&self, item: &ItemState) -> bool {
        let values = item.get(&self.attribute);
        values.iter().any(|p| self.eval_on_value(&p.value))
    }

    /// A single value has to satisfy one `or`-separated run of `and`ed
    /// comparisons; a run containing `= x` pins that value to `x`. So
    /// the predicate is covered when every run has an `=`.
    fn cover<'a>(&'a self, pair: WeighPair<'_, 'a>) -> Option<Weighed> {
        let mut cover = Some(Weighed::EMPTY);
        let mut run = None;
        for (i, (op, operand)) in self.comparisons.iter().enumerate() {
            if *op == CmpOp::Eq {
                run = Weighed::either(run, Some(pair(&self.attribute, operand)));
            }
            // `connectives[i]` joins comparison `i` to `i + 1`; `false` is `or`.
            if self.connectives.get(i) != Some(&true) {
                cover = Weighed::both(cover, run.take());
            }
        }
        cover
    }

    fn eval_on_value(&self, v: &str) -> bool {
        // Evaluate with `and` binding tighter than `or`: split comparison
        // runs at `or` connectives; each run is a conjunction.
        let mut any = false;
        let mut run = true;
        for (i, (op, operand)) in self.comparisons.iter().enumerate() {
            run &= op.eval(v, operand);
            let is_last = i + 1 == self.comparisons.len();
            let or_next = !is_last && !self.connectives[i];
            if is_last || or_next {
                any |= run;
                run = true;
            }
        }
        any
    }
}

/// A parsed Query expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryExpr {
    terms: Vec<(SetOp, bool, Predicate)>, // (combine-with-previous, negated, pred)
    sort: Option<(String, bool)>,         // (attribute, ascending)
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum SetOp {
    First,
    Intersection,
    Union,
}

impl QueryExpr {
    /// Parses the bracketed query syntax.
    ///
    /// # Errors
    ///
    /// [`SdbError::InvalidQuery`] with a description of the first problem.
    pub fn parse(input: &str) -> Result<QueryExpr> {
        Parser::new(input).parse_query()
    }

    /// Evaluates against one item.
    pub fn matches(&self, item: &ItemState) -> bool {
        let mut acc = false;
        for (i, (setop, negated, pred)) in self.terms.iter().enumerate() {
            let hit = pred.matches(item) != *negated;
            acc = match (i, setop) {
                (0, _) => hit,
                (_, SetOp::Intersection) => acc && hit,
                (_, SetOp::Union) => acc || hit,
                (_, SetOp::First) => unreachable!("First only at index 0"),
            };
        }
        acc
    }

    /// The sort clause: `(attribute, ascending)` if present.
    pub fn sort(&self) -> Option<(&str, bool)> {
        self.sort.as_ref().map(|(a, asc)| (a.as_str(), *asc))
    }

    /// Applies the sort clause to `(name, item)` pairs: orders by the
    /// attribute's smallest value (then item name for stability) and
    /// drops items lacking the attribute. Without a sort clause the
    /// input order (item-name order) is preserved.
    pub fn apply_sort(&self, mut rows: Vec<(String, ItemState)>) -> Vec<(String, ItemState)> {
        let Some((attr, asc)) = self.sort() else {
            return rows;
        };
        rows.retain(|(_, item)| item.contains_key(attr));
        rows.sort_by(|(an, a), (bn, b)| {
            let av = a.get(attr).first().map(|p| &p.value);
            let bv = b.get(attr).first().map(|p| &p.value);
            let ord = av.cmp(&bv).then_with(|| an.cmp(bn));
            if asc {
                ord
            } else {
                ord.reverse()
            }
        });
        rows
    }
}

/// `intersection` keeps whichever side's cover has fewer postings,
/// `union` needs both sides covered, and `not`, `!=`, ranges and
/// `starts-with` cover nothing. A `sort` clause plays no part: sorted
/// queries are served by offset over the whole view and never ask.
impl EqCover for QueryExpr {
    fn derive<'a>(&'a self, pair: WeighPair<'_, 'a>) -> Option<Weighed> {
        let mut acc = None;
        for (setop, negated, pred) in &self.terms {
            let term = if *negated { None } else { pred.cover(pair) };
            acc = match setop {
                SetOp::First => term,
                SetOp::Intersection => Weighed::either(acc, term),
                SetOp::Union => Weighed::both(acc, term),
            };
        }
        acc
    }
}

// --- lexer / parser ---

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    LBracket,
    RBracket,
    Str(String),
    Word(String), // lowercased keyword or operator
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn new(input: &str) -> Parser {
        Parser {
            toks: lex(input),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(SdbError::InvalidQuery {
            message: message.into(),
        })
    }

    fn parse_query(&mut self) -> Result<QueryExpr> {
        let mut terms = Vec::new();
        let (negated, pred) = self.parse_term()?;
        terms.push((SetOp::First, negated, pred));
        let mut sort = None;
        loop {
            match self.next() {
                None => break,
                Some(Tok::Word(w)) if w == "intersection" || w == "union" => {
                    let setop = if w == "intersection" {
                        SetOp::Intersection
                    } else {
                        SetOp::Union
                    };
                    let (negated, pred) = self.parse_term()?;
                    terms.push((setop, negated, pred));
                }
                Some(Tok::Word(w)) if w == "sort" => {
                    let attr = match self.next() {
                        Some(Tok::Str(s)) => s,
                        other => {
                            return self
                                .err(format!("sort expects a quoted attribute, got {other:?}"))
                        }
                    };
                    let asc = match self.peek() {
                        Some(Tok::Word(w)) if w == "asc" => {
                            self.next();
                            true
                        }
                        Some(Tok::Word(w)) if w == "desc" => {
                            self.next();
                            false
                        }
                        _ => true,
                    };
                    sort = Some((attr, asc));
                    if let Some(t) = self.peek() {
                        return self.err(format!("unexpected token after sort: {t:?}"));
                    }
                    break;
                }
                Some(t) => return self.err(format!("expected intersection/union/sort, got {t:?}")),
            }
        }
        Ok(QueryExpr { terms, sort })
    }

    fn parse_term(&mut self) -> Result<(bool, Predicate)> {
        let negated = matches!(self.peek(), Some(Tok::Word(w)) if w == "not");
        if negated {
            self.next();
        }
        Ok((negated, self.parse_predicate()?))
    }

    fn parse_predicate(&mut self) -> Result<Predicate> {
        match self.next() {
            Some(Tok::LBracket) => {}
            other => return self.err(format!("expected '[', got {other:?}")),
        }
        let mut attribute: Option<String> = None;
        let mut comparisons = Vec::new();
        let mut connectives = Vec::new();
        loop {
            let attr = match self.next() {
                Some(Tok::Str(s)) => s,
                other => return self.err(format!("expected quoted attribute name, got {other:?}")),
            };
            match &attribute {
                None => attribute = Some(attr.clone()),
                Some(a) if *a == attr => {}
                Some(a) => {
                    return self.err(format!(
                        "all comparisons in a predicate must use the same attribute \
                         (saw {a:?} and {attr:?})"
                    ))
                }
            }
            let op = match self.next() {
                Some(Tok::Word(w)) => match w.as_str() {
                    "=" => CmpOp::Eq,
                    "!=" => CmpOp::Ne,
                    "<" => CmpOp::Lt,
                    ">" => CmpOp::Gt,
                    "<=" => CmpOp::Le,
                    ">=" => CmpOp::Ge,
                    "starts-with" => CmpOp::StartsWith,
                    other => return self.err(format!("unknown operator {other:?}")),
                },
                other => return self.err(format!("expected operator, got {other:?}")),
            };
            let value = match self.next() {
                Some(Tok::Str(s)) => s,
                other => return self.err(format!("expected quoted value, got {other:?}")),
            };
            comparisons.push((op, value));
            match self.next() {
                Some(Tok::RBracket) => break,
                Some(Tok::Word(w)) if w == "and" => connectives.push(true),
                Some(Tok::Word(w)) if w == "or" => connectives.push(false),
                other => return self.err(format!("expected and/or/']', got {other:?}")),
            }
        }
        Ok(Predicate {
            attribute: attribute.expect("at least one comparison parsed"),
            comparisons,
            connectives,
        })
    }
}

fn lex(input: &str) -> Vec<Tok> {
    let mut toks = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '[' => {
                chars.next();
                toks.push(Tok::LBracket);
            }
            ']' => {
                chars.next();
                toks.push(Tok::RBracket);
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\'') => {
                            // '' escapes a literal quote
                            if chars.peek() == Some(&'\'') {
                                chars.next();
                                s.push('\'');
                            } else {
                                break;
                            }
                        }
                        Some(ch) => s.push(ch),
                        None => break, // unterminated; parser will complain downstream
                    }
                }
                toks.push(Tok::Str(s));
            }
            '=' => {
                chars.next();
                toks.push(Tok::Word("=".into()));
            }
            '!' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    toks.push(Tok::Word("!=".into()));
                } else {
                    toks.push(Tok::Word("!".into()));
                }
            }
            '<' | '>' => {
                chars.next();
                let mut w = c.to_string();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    w.push('=');
                }
                toks.push(Tok::Word(w));
            }
            _ => {
                let mut w = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_alphanumeric() || ch == '-' || ch == '_' {
                        w.push(ch);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if w.is_empty() {
                    // Unknown character: consume to avoid an infinite loop.
                    chars.next();
                    toks.push(Tok::Word(c.to_string()));
                } else {
                    toks.push(Tok::Word(w.to_lowercase()));
                }
            }
        }
    }
    toks
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn item(pairs: &[(&str, &str)]) -> ItemState {
        ItemState::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn simple_equality() {
        let q = QueryExpr::parse("['type' = 'file']").unwrap();
        assert!(q.matches(&item(&[("type", "file")])));
        assert!(!q.matches(&item(&[("type", "process")])));
        assert!(!q.matches(&item(&[("other", "file")])));
    }

    #[test]
    fn multivalued_any_semantics() {
        let q = QueryExpr::parse("['phone' = '222']").unwrap();
        assert!(q.matches(&item(&[("phone", "111"), ("phone", "222")])));
    }

    #[test]
    fn and_within_predicate_is_single_value() {
        // No single value can equal both — the classic SimpleDB gotcha.
        let q = QueryExpr::parse("['x' = '1' and 'x' = '2']").unwrap();
        assert!(!q.matches(&item(&[("x", "1"), ("x", "2")])));
        // Whereas a range on one value works:
        let q = QueryExpr::parse("['x' >= '1' and 'x' <= '3']").unwrap();
        assert!(q.matches(&item(&[("x", "2")])));
        assert!(!q.matches(&item(&[("x", "9")])));
    }

    #[test]
    fn intersection_spans_values() {
        let q = QueryExpr::parse("['x' = '1'] intersection ['x' = '2']").unwrap();
        assert!(q.matches(&item(&[("x", "1"), ("x", "2")])));
        assert!(!q.matches(&item(&[("x", "1")])));
    }

    #[test]
    fn union_and_not() {
        let q = QueryExpr::parse("['t' = 'a'] union ['t' = 'b']").unwrap();
        assert!(q.matches(&item(&[("t", "b")])));
        let q = QueryExpr::parse("not ['t' = 'a']").unwrap();
        assert!(q.matches(&item(&[("t", "b")])));
        assert!(
            q.matches(&item(&[("z", "1")])),
            "missing attribute satisfies not"
        );
        assert!(!q.matches(&item(&[("t", "a")])));
    }

    #[test]
    fn or_within_predicate() {
        let q = QueryExpr::parse("['t' = 'a' or 't' = 'b']").unwrap();
        assert!(q.matches(&item(&[("t", "a")])));
        assert!(q.matches(&item(&[("t", "b")])));
        assert!(!q.matches(&item(&[("t", "c")])));
    }

    #[test]
    fn and_binds_tighter_than_or() {
        // a or (b and c): value 'z' fails b-and-c but passes via 'a'? The
        // comparisons run per single value: v='a' → true or (f and f) = true.
        let q = QueryExpr::parse("['t' = 'a' or 't' >= 'b' and 't' <= 'd']").unwrap();
        assert!(q.matches(&item(&[("t", "a")])));
        assert!(q.matches(&item(&[("t", "c")])));
        assert!(!q.matches(&item(&[("t", "x")])));
    }

    #[test]
    fn starts_with_and_comparisons() {
        let q = QueryExpr::parse("['name' starts-with 'blast']").unwrap();
        assert!(q.matches(&item(&[("name", "blastall")])));
        assert!(!q.matches(&item(&[("name", "makeblast")])));
        let q = QueryExpr::parse("['v' > '5']").unwrap();
        assert!(q.matches(&item(&[("v", "7")])));
        assert!(!q.matches(&item(&[("v", "3")])));
    }

    #[test]
    fn mixed_attributes_in_predicate_rejected() {
        let err = QueryExpr::parse("['a' = '1' and 'b' = '2']").unwrap_err();
        assert!(matches!(err, SdbError::InvalidQuery { .. }));
    }

    #[test]
    fn parse_errors_are_descriptive() {
        for bad in [
            "",
            "['a' = ]",
            "['a' ?? 'b']",
            "['a' = 'b'] nonsense ['c' = 'd']",
            "['a' = 'b'] sort",
            "['a' = 'b'] sort 'x' asc trailing",
        ] {
            let err = QueryExpr::parse(bad).unwrap_err();
            assert!(matches!(err, SdbError::InvalidQuery { .. }), "input: {bad}");
        }
    }

    #[test]
    fn quoted_escapes() {
        let q = QueryExpr::parse("['name' = 'o''brien']").unwrap();
        assert!(q.matches(&item(&[("name", "o'brien")])));
    }

    #[test]
    fn sort_orders_and_drops_missing() {
        let q = QueryExpr::parse("['t' starts-with ''] sort 'rank' desc").unwrap();
        let rows = vec![
            ("low".to_string(), item(&[("t", "x"), ("rank", "1")])),
            ("none".to_string(), item(&[("t", "x")])),
            ("high".to_string(), item(&[("t", "x"), ("rank", "9")])),
        ];
        let sorted = q.apply_sort(rows);
        let names: Vec<_> = sorted.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["high", "low"]);
    }

    #[test]
    fn sort_ascending_is_default() {
        let q = QueryExpr::parse("['t' starts-with ''] sort 'rank'").unwrap();
        assert_eq!(q.sort(), Some(("rank", true)));
    }

    #[test]
    fn lexicographic_comparison_warning_case() {
        // "10" < "9" lexicographically — faithful to SimpleDB, which is
        // why callers zero-pad numbers.
        let q = QueryExpr::parse("['v' < '9']").unwrap();
        assert!(q.matches(&item(&[("v", "10")])));
    }

    // --- equality covers ---

    /// Posting counts for the cover tests: `type` values are common,
    /// everything else is rare.
    fn counts(attr: &str, _value: &str) -> usize {
        if attr == "type" {
            1_000
        } else {
            5
        }
    }

    /// An expression's cover by name, weighing each pair with `counts`.
    pub(crate) fn cover_of(
        expr: &impl EqCover,
        counts: impl Fn(&str, &str) -> usize,
    ) -> Option<Vec<(&str, &str)>> {
        let pairs = expr.eq_pairs();
        let postings: Vec<usize> = pairs.iter().map(|(a, v)| counts(a, v)).collect();
        let cover = expr.cover(&postings)?;
        Some(cover.into_iter().map(|i| pairs[i]).collect())
    }

    fn assert_cover(expr: &str, expected: Option<&[(&str, &str)]>) {
        let q = QueryExpr::parse(expr).unwrap();
        assert_eq!(cover_of(&q, counts).as_deref(), expected, "{expr}");
    }

    #[test]
    fn equality_terms_cover_themselves() {
        assert_cover("['type' = 'file']", Some(&[("type", "file")]));
        assert_cover("['x' = 'a' or 'x' = 'b']", Some(&[("x", "a"), ("x", "b")]));
        // One `=` pins the value; the range beside it is the re-check's job.
        assert_cover("['x' = 'a' and 'x' starts-with 'a']", Some(&[("x", "a")]));
    }

    #[test]
    fn intersection_keeps_the_side_with_fewer_postings() {
        let rare: &[(&str, &str)] = &[("name", "blast")];
        assert_cover(
            "['type' = 'process'] intersection ['name' = 'blast']",
            Some(rare),
        );
        assert_cover(
            "['name' = 'blast'] intersection ['type' = 'process']",
            Some(rare),
        );
        // An uncoverable side just drops out.
        assert_cover(
            "['rank' > '4'] intersection ['type' = 'file']",
            Some(&[("type", "file")]),
        );
        assert_cover(
            "['type' = 'file'] intersection not ['name' = 'n3']",
            Some(&[("type", "file")]),
        );
    }

    #[test]
    fn union_needs_every_side_covered() {
        assert_cover(
            "['a' = '1'] union ['b' = '2']",
            Some(&[("a", "1"), ("b", "2")]),
        );
        assert_cover("['a' = '1'] union ['b' > '2']", None);
        assert_cover("['a' = '1'] union not ['b' = '2']", None);
        assert_cover("['x' = 'a' or 'x' > 'b']", None);
    }

    #[test]
    fn set_operators_fold_left() {
        // (type ∩ name) ∪ input: the intersection resolves first.
        assert_cover(
            "['type' = 'file'] intersection ['name' = 'n'] union ['input' = 'i']",
            Some(&[("name", "n"), ("input", "i")]),
        );
        // (name ∪ input) ∩ type: 10 postings beat 1 000.
        assert_cover(
            "['name' = 'n'] union ['input' = 'i'] intersection ['type' = 'file']",
            Some(&[("name", "n"), ("input", "i")]),
        );
    }

    #[test]
    fn negation_ranges_and_inequality_cover_nothing() {
        for expr in [
            "not ['type' = 'file']",
            "['v' > '5']",
            "['v' >= '1' and 'v' <= '3']",
            "['v' != 'x']",
            "['name' starts-with 'blast']",
        ] {
            assert_cover(expr, None);
        }
    }

    #[test]
    fn a_cover_is_necessary_not_sufficient() {
        // No single value equals both, so nothing matches — but the
        // cover still names a pair the item carries. The re-check decides.
        let q = QueryExpr::parse("['x' = 'a' and 'x' = 'b']").unwrap();
        assert_eq!(cover_of(&q, counts), Some(vec![("x", "a")]));
        assert!(!q.matches(&item(&[("x", "a"), ("x", "b")])));
    }
}
