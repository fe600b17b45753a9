//! The 2009 SimpleDB *Query* language: bracketed predicates combined with
//! `intersection`, `union` and `not`.
//!
//! ```text
//! ['type' = 'file'] intersection ['input' starts-with 'blast']
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
//! * answers come in item-name order. The 2009 service's trailing
//!   `sort 'attr'` clause is not simulated: it is an
//!   [`SdbError::InvalidQuery`] like any other unknown syntax.
//!
//! # Equality covers
//!
//! SimpleDB indexes every attribute, so an expression pinned down by
//! `=` comparisons is an index lookup, not a scan. `QueryExpr::cover`
//! derives what to look up: a set of `(attribute, value)` pairs of which
//! every matching item carries at least one. The store draws its
//! candidates from the postings of those pairs and still evaluates the
//! full expression on each, so a cover only has to be *necessary* for a
//! match, never sufficient.

use std::borrow::Cow;
use std::fmt;
use std::iter::Peekable;
use std::ops::Range;

use simworld::Pairs;

use crate::error::{Result, SdbError};
use crate::model::ItemState;

#[cfg(test)]
mod oracle;

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
/// [`QueryExpr::eq_pairs`] — together with the postings behind it (the
/// candidates a fetch over it has to check). The first pair is held
/// inline, so a cover of one pair allocates nothing.
#[derive(Debug)]
pub(crate) struct Weighed {
    /// `None` only for the empty cover, whose `rest` is empty too.
    first: Option<usize>,
    rest: Vec<usize>,
    postings: usize,
}

impl IntoIterator for Weighed {
    type Item = usize;
    type IntoIter = std::iter::Chain<std::option::IntoIter<usize>, std::vec::IntoIter<usize>>;

    /// The cover's pairs, in the order they were met.
    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

impl Weighed {
    /// The cover of nothing at all — the identity of [`Weighed::both`].
    const EMPTY: Weighed = Weighed {
        first: None,
        rest: Vec::new(),
        postings: 0,
    };

    /// The cover of pair `pair` alone, with `postings` behind it.
    fn pair(pair: usize, postings: usize) -> Weighed {
        Weighed {
            first: Some(pair),
            rest: Vec::new(),
            postings,
        }
    }

    /// Covers `a and b`: either side's cover will do, so take the one
    /// with fewer postings.
    fn either(a: Option<Weighed>, b: Option<Weighed>) -> Option<Weighed> {
        match (a, b) {
            (Some(a), Some(b)) => Some(if b.postings < a.postings { b } else { a }),
            (a, b) => a.or(b),
        }
    }

    /// Covers `a or b`, which needs both sides covered: candidates are
    /// drawn from both.
    fn both(a: Option<Weighed>, b: Option<Weighed>) -> Option<Weighed> {
        let (mut a, b) = (a?, b?);
        a.postings += b.postings;
        if a.first.is_none() {
            return Some(Weighed {
                postings: a.postings,
                ..b
            });
        }
        a.rest.extend(b);
        Some(a)
    }
}

/// Weighs one `(attribute, value)` pair for [`QueryExpr::derive`].
type WeighPair<'f, 'a> = &'f mut dyn FnMut(&'a str, &'a str) -> Weighed;

/// One `['attr' op 'value' and/or ...]` predicate, read out of its
/// expression's buffers.
#[derive(Clone, Copy)]
struct Predicate<'a> {
    /// The single attribute every comparison references.
    attribute: &'a str,
    /// Comparisons in source order.
    comparisons: &'a [Comparison],
    /// The expression's text, which holds the operands.
    text: &'a str,
}

/// One comparison of a predicate.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Comparison {
    op: CmpOp,
    /// Where the operand is in the expression's text.
    operand: Range<usize>,
    /// `and` (not `or`) joins it to the next comparison, if one follows.
    /// `and` binds tighter than `or`.
    and_next: bool,
}

impl<'a> Predicate<'a> {
    /// Does any single attribute value satisfy the combination?
    #[cfg(test)]
    fn matches(&self, item: &ItemState) -> bool {
        self.matches_run(item.get(self.attribute))
    }

    /// [`Predicate::matches`] on the item's run of this attribute.
    fn matches_run(&self, mut values: Pairs<'_>) -> bool {
        values.any(|p| self.eval_on_value(p.value))
    }

    fn operand(&self, c: &Comparison) -> &'a str {
        &self.text[c.operand.clone()]
    }

    /// A single value has to satisfy one `or`-separated run of `and`ed
    /// comparisons; a run containing `= x` pins that value to `x`. So
    /// the predicate is covered when every run has an `=`.
    fn cover(&self, pair: WeighPair<'_, 'a>) -> Option<Weighed> {
        let mut cover = Some(Weighed::EMPTY);
        let mut run = None;
        for c in self.comparisons {
            if c.op == CmpOp::Eq {
                run = Weighed::either(run, Some(pair(self.attribute, self.operand(c))));
            }
            if !c.and_next {
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
        for c in self.comparisons {
            run &= c.op.eval(v, self.operand(c));
            if !c.and_next {
                any |= run;
                run = true;
            }
        }
        any
    }
}

/// A parsed Query expression. Its terms, their comparisons and their
/// text each live in one buffer, however many terms there are.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryExpr {
    terms: Vec<Term>,
    /// Every term's comparisons, term after term.
    comparisons: Vec<Comparison>,
    /// Every attribute name and operand, unescaped, back to back.
    text: String,
}

/// One term of a [`QueryExpr`]: how it combines with the result so
/// far, whether it is negated, and where its predicate is.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Term {
    setop: SetOp,
    negated: bool,
    /// Where the attribute is in the text.
    attribute: Range<usize>,
    /// Where the comparisons are.
    comparisons: Range<usize>,
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

    /// Appends `s` to the text and says where it went.
    fn push_text(&mut self, s: &str) -> Range<usize> {
        self.text.push_str(s);
        self.text.len() - s.len()..self.text.len()
    }

    /// The terms, each with its predicate.
    fn terms(&self) -> impl Iterator<Item = (SetOp, bool, Predicate<'_>)> {
        self.terms.iter().map(|term| {
            let predicate = Predicate {
                attribute: &self.text[term.attribute.clone()],
                comparisons: &self.comparisons[term.comparisons.clone()],
                text: &self.text,
            };
            (term.setop, term.negated, predicate)
        })
    }

    /// Evaluates against one item. Terms fold left, so a `union` term
    /// after a true result and an `intersection` term after a false one
    /// cannot change it and are skipped; every other term decides the
    /// result alone. Consecutive terms on one attribute share one lookup
    /// of its run.
    pub fn matches(&self, item: &ItemState) -> bool {
        let mut acc = false;
        let mut run: Option<(&str, Pairs)> = None;
        for (setop, negated, pred) in self.terms() {
            match setop {
                SetOp::Union if acc => continue,
                SetOp::Intersection if !acc => continue,
                _ => {}
            }
            let values = match run {
                Some((attr, values)) if attr == pred.attribute => values,
                _ => {
                    let values = item.get(pred.attribute);
                    run = Some((pred.attribute, values));
                    values
                }
            };
            acc = pred.matches_run(values) != negated;
        }
        acc
    }
}

/// How the store serves an expression from attribute postings:
/// `intersection` keeps whichever side's cover has fewer postings,
/// `union` needs both sides covered, and `not`, `!=`, ranges and
/// `starts-with` cover nothing.
impl QueryExpr {
    /// The one walk behind both methods below: folds the expression's
    /// `=` pairs into a cover, or `None` when it has none and only a scan
    /// can answer it. `pair` is asked about every pair a cover could draw
    /// on, once each, in an order (and with a `None`-or-not outcome) that
    /// the expression alone decides — never what `pair` answers.
    fn derive<'a>(&'a self, pair: WeighPair<'_, 'a>) -> Option<Weighed> {
        let mut acc = None;
        for (setop, negated, pred) in self.terms() {
            let term = if negated { None } else { pred.cover(pair) };
            acc = match setop {
                SetOp::First => term,
                SetOp::Intersection => Weighed::either(acc, term),
                SetOp::Union => Weighed::both(acc, term),
            };
        }
        acc
    }

    /// The `(attribute, value)` pairs a cover could draw on, in the
    /// order [`QueryExpr::derive`] meets them, each as `each` makes it.
    pub(crate) fn eq_pairs<'a, T>(&'a self, mut each: impl FnMut(&'a str, &'a str) -> T) -> Vec<T> {
        let mut pairs = Vec::new();
        self.derive(&mut |attr, value| {
            pairs.push(each(attr, value));
            Weighed::EMPTY
        });
        pairs
    }

    /// The equality cover, which iterates as indices into
    /// [`QueryExpr::eq_pairs`], where `postings[i]` items are posted
    /// under pair `i`.
    pub(crate) fn cover(&self, postings: &[usize]) -> Option<Weighed> {
        let mut met = 0;
        let cover = self.derive(&mut |_, _| {
            let pair = met;
            met += 1;
            Weighed::pair(pair, postings[pair])
        });
        debug_assert_eq!(met, postings.len(), "one weight per pair of eq_pairs()");
        cover
    }
}

// --- lexer / parser ---

/// One token, borrowed from the expression text unless lexing changed
/// it: a string with `''` escapes, or a word with upper-case letters.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok<'a> {
    LBracket,
    RBracket,
    Str(Cow<'a, str>),
    Word(Cow<'a, str>), // lowercased keyword or operator
}

/// Tokens are lexed as the parser asks for them and handed over by
/// value.
struct Parser<'a> {
    toks: Peekable<Lexer<'a>>,
    /// At most as many terms as the text has `[`s.
    brackets: usize,
    /// The text's length, which bounds what its strings unescape to.
    len: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser {
            toks: Lexer { input, at: 0 }.peekable(),
            brackets: input.bytes().filter(|&b| b == b'[').count(),
            len: input.len(),
        }
    }

    fn peek(&mut self) -> Option<&Tok<'a>> {
        self.toks.peek()
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        self.toks.next()
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(SdbError::InvalidQuery {
            message: message.into(),
        })
    }

    /// Parses the whole expression into buffers sized once: at most as
    /// many terms as `[`s, and no more text than the input has.
    fn parse_query(&mut self) -> Result<QueryExpr> {
        let mut expr = QueryExpr {
            terms: Vec::with_capacity(self.brackets),
            comparisons: Vec::with_capacity(self.brackets),
            text: String::with_capacity(self.len),
        };
        self.parse_term(&mut expr, SetOp::First)?;
        loop {
            match self.next() {
                None => break,
                Some(Tok::Word(w)) if w == "intersection" || w == "union" => {
                    let setop = if w == "intersection" {
                        SetOp::Intersection
                    } else {
                        SetOp::Union
                    };
                    self.parse_term(&mut expr, setop)?;
                }
                Some(t) => return self.err(format!("expected intersection/union, got {t:?}")),
            }
        }
        Ok(expr)
    }

    fn parse_term(&mut self, expr: &mut QueryExpr, setop: SetOp) -> Result<()> {
        let negated = matches!(self.peek(), Some(Tok::Word(w)) if w == "not");
        if negated {
            self.next();
        }
        self.parse_predicate(expr, setop, negated)
    }

    /// Parses one predicate onto the end of `expr`: its attribute and
    /// operands into the text, its comparisons after the others.
    fn parse_predicate(&mut self, expr: &mut QueryExpr, setop: SetOp, negated: bool) -> Result<()> {
        match self.next() {
            Some(Tok::LBracket) => {}
            other => return self.err(format!("expected '[', got {other:?}")),
        }
        let mut attribute: Option<Range<usize>> = None;
        let from = expr.comparisons.len();
        loop {
            let attr = match self.next() {
                Some(Tok::Str(s)) => s,
                other => return self.err(format!("expected quoted attribute name, got {other:?}")),
            };
            match &attribute {
                None => attribute = Some(expr.push_text(&attr)),
                Some(a) if expr.text[a.clone()] == *attr => {}
                Some(a) => {
                    let a = &expr.text[a.clone()];
                    return self.err(format!(
                        "all comparisons in a predicate must use the same attribute \
                         (saw {a:?} and {attr:?})"
                    ));
                }
            }
            let op = match self.next() {
                Some(Tok::Word(w)) => match &*w {
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
            let operand = match self.next() {
                Some(Tok::Str(s)) => expr.push_text(&s),
                other => return self.err(format!("expected quoted value, got {other:?}")),
            };
            let and_next = match self.next() {
                Some(Tok::RBracket) => None,
                Some(Tok::Word(w)) if w == "and" => Some(true),
                Some(Tok::Word(w)) if w == "or" => Some(false),
                other => return self.err(format!("expected and/or/']', got {other:?}")),
            };
            expr.comparisons.push(Comparison {
                op,
                operand,
                and_next: and_next == Some(true),
            });
            if and_next.is_none() {
                break;
            }
        }
        expr.terms.push(Term {
            setop,
            negated,
            attribute: attribute.expect("at least one comparison parsed"),
            comparisons: from..expr.comparisons.len(),
        });
        Ok(())
    }
}

/// The expression's tokens from byte offset `at` on, one per `next`.
struct Lexer<'a> {
    input: &'a str,
    at: usize,
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Tok<'a>;

    fn next(&mut self) -> Option<Tok<'a>> {
        let input = self.input;
        let rest = input[self.at..].trim_start_matches([' ', '\t', '\n', '\r']);
        let start = input.len() - rest.len();
        let c = rest.chars().next()?;
        let mut end = start + c.len_utf8();
        let tok = match c {
            '[' => Tok::LBracket,
            ']' => Tok::RBracket,
            '\'' => {
                let (text, past) = quoted(input, end);
                end = past;
                Tok::Str(text)
            }
            '=' => Tok::Word(Cow::Borrowed("=")),
            // `!=`, `<=` and `>=`, or the character alone.
            '!' | '<' | '>' => {
                if input.as_bytes().get(end) == Some(&b'=') {
                    end += 1;
                }
                Tok::Word(Cow::Borrowed(&input[start..end]))
            }
            _ => {
                let word_char = |ch: char| ch.is_alphanumeric() || ch == '-' || ch == '_';
                match rest.find(|ch| !word_char(ch)).unwrap_or(rest.len()) {
                    // An unknown character is a word of its own, as is.
                    0 => Tok::Word(Cow::Borrowed(&input[start..end])),
                    len => {
                        end = start + len;
                        Tok::Word(lowercased(&input[start..end]))
                    }
                }
            }
        };
        self.at = end;
        Some(tok)
    }
}

/// The text of the string whose body starts at byte `from` (just past
/// its opening quote) and the offset just past its closing quote. `''`
/// is a quote in the text; an unterminated string runs to the end, and
/// the parser complains downstream.
fn quoted(input: &str, from: usize) -> (Cow<'_, str>, usize) {
    let mut unescaped = String::new();
    let mut segment = from;
    let (text_end, past) = loop {
        let Some(q) = input[segment..].find('\'').map(|i| segment + i) else {
            break (input.len(), input.len());
        };
        if input.as_bytes().get(q + 1) != Some(&b'\'') {
            break (q, q + 1);
        }
        unescaped.push_str(&input[segment..=q]);
        segment = q + 2;
    };
    if unescaped.is_empty() {
        return (Cow::Borrowed(&input[from..text_end]), past);
    }
    unescaped.push_str(&input[segment..text_end]);
    (Cow::Owned(unescaped), past)
}

/// `word.to_lowercase()`, borrowed when that changes no character.
fn lowercased(word: &str) -> Cow<'_, str> {
    if word.chars().all(|c| c.to_lowercase().eq([c])) {
        Cow::Borrowed(word)
    } else {
        Cow::Owned(word.to_lowercase())
    }
}

#[cfg(test)]
mod tests {
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
            "['a' = 'b'] sort 'x'",
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
    fn cover_of(expr: &QueryExpr) -> Option<Vec<(&str, &str)>> {
        let pairs = expr.eq_pairs(|attr, value| (attr, value));
        let postings: Vec<usize> = pairs.iter().map(|(a, v)| counts(a, v)).collect();
        let cover = expr.cover(&postings)?;
        Some(cover.into_iter().map(|i| pairs[i]).collect())
    }

    fn assert_cover(expr: &str, expected: Option<&[(&str, &str)]>) {
        let q = QueryExpr::parse(expr).unwrap();
        assert_eq!(cover_of(&q).as_deref(), expected, "{expr}");
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
        assert_eq!(cover_of(&q), Some(vec![("x", "a")]));
        assert!(!q.matches(&item(&[("x", "a"), ("x", "b")])));
    }

    // --- the borrowing lexer and the short-circuit matcher, held to the
    // owning lexer and the every-term matcher they replaced (`oracle`) ---

    use proptest::prelude::*;

    /// Attributes as quoted in an expression, and the names they denote.
    /// Two share a prefix; one needs `''`; one has upper-case letters.
    const ATTRS: &[(&str, &str)] = &[
        ("a", "a"),
        ("ab", "ab"),
        ("input", "input"),
        ("o''q", "o'q"),
        ("Type", "Type"),
    ];
    const VALUES: &[(&str, &str)] = &[
        ("", ""),
        ("1", "1"),
        ("10", "10"),
        ("x", "x"),
        ("o''b", "o'b"),
        ("é", "é"),
        ("a:1", "a:1"),
        ("ΣA", "ΣA"),
    ];
    const OPS: &[&str] = &["=", "!=", "<", ">", "<=", ">=", "starts-with"];

    /// `word` as written: lower, upper or capitalised, by `case`.
    fn cased(word: &str, case: u8) -> String {
        match case % 3 {
            0 => word.to_string(),
            1 => word.to_uppercase(),
            _ => word[..1].to_uppercase() + &word[1..],
        }
    }

    /// One term: `(set operator, not, comparisons)`. A comparison is
    /// `(attribute, operator, value, flags)`; its flags pick the `and` /
    /// `or` after it, their case, and now and then a second attribute,
    /// which the parser must refuse.
    type Term = (u8, u8, Vec<(usize, usize, usize, u8)>);

    /// Renders generated terms, and cuts the text to `cut.1` characters
    /// when `cut.0 == 0`.
    fn render(terms: &[Term], cut: (u8, usize)) -> String {
        let mut out = String::new();
        for (i, (setop, not, comparisons)) in terms.iter().enumerate() {
            if i > 0 {
                let op = if setop % 2 == 0 {
                    "intersection"
                } else {
                    "union"
                };
                out += &format!(" {} ", cased(op, setop / 2));
            }
            if not % 2 == 1 {
                out += &cased("not", not / 2);
                out += " ";
            }
            out += "[";
            let own = comparisons[0].0;
            for (j, &(attr, op, value, flags)) in comparisons.iter().enumerate() {
                if j > 0 {
                    let word = if flags % 2 == 0 { "and" } else { "or" };
                    out += &format!(" {} ", cased(word, flags / 2));
                }
                let attr = if flags % 16 == 15 { attr } else { own };
                out += &format!("'{}' {} '{}'", ATTRS[attr].0, OPS[op], VALUES[value].0);
            }
            out += "]";
        }
        if cut.0 == 0 {
            out = out
                .chars()
                .take(cut.1 % (out.chars().count() + 1))
                .collect();
        }
        out
    }

    fn terms() -> impl Strategy<Value = Vec<Term>> {
        let comparison = (0..ATTRS.len(), 0..OPS.len(), 0..VALUES.len(), 0u8..16);
        proptest::collection::vec(
            (0u8..6, 0u8..6, proptest::collection::vec(comparison, 1..4)),
            1..7,
        )
    }

    /// Garbage built from the language's own pieces and a few characters
    /// whose lower case differs or takes more bytes.
    fn shards() -> impl Strategy<Value = Vec<&'static str>> {
        let pieces = vec![
            "[", "]", "'", "''", " ", "\t", "=", "!", "!=", "<", ">=", "and", "OR", "Union", "not",
            "sort", "DESC", "x", "é", "İ", "ǅ", "Σ", "?", "-", "_9",
        ];
        proptest::collection::vec(proptest::sample::select(pieces), 0..24)
    }

    fn parsed(input: &str) -> std::result::Result<QueryExpr, String> {
        QueryExpr::parse(input).map_err(|e| e.to_string())
    }

    fn parsed_by_oracle(input: &str) -> std::result::Result<QueryExpr, String> {
        oracle::parse(input).map_err(|e| e.to_string())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Well-formed and truncated expressions: 1–6 terms, `union`,
        // `intersection` and `not`, `and`/`or` inside brackets, `''`
        // escapes, upper-case keywords. The same text with the 2009
        // service's `sort 'x' desc` after it is refused by both alike.
        #[test]
        fn the_parser_reads_expressions_as_the_oracle_does(
            terms in terms(),
            sort in (0u8..12, 0..ATTRS.len()),
            cut in (0u8..4, 0usize..400),
        ) {
            let input = render(&terms, cut);
            let (new, old) = (parsed(&input), parsed_by_oracle(&input));
            prop_assert!(new == old, "{input:?}\n  parsed: {new:?}\n  oracle: {old:?}");
            let (keyword, attr) = (cased("sort", sort.0), ATTRS[sort.1].0);
            let direction = ["", " asc", " desc", " DESC"][usize::from(sort.0 / 3)];
            let sorted = format!("{input} {keyword} '{attr}'{direction}");
            let (new, old) = (parsed(&sorted), parsed_by_oracle(&sorted));
            prop_assert!(new.is_err(), "{sorted:?} parsed: {new:?}");
            prop_assert!(new == old, "{sorted:?}\n  parsed: {new:?}\n  oracle: {old:?}");
        }

        #[test]
        fn the_parser_refuses_garbage_as_the_oracle_does(
            pieces in shards(),
            noise in "\\PC{0,24}",
        ) {
            for input in [pieces.concat(), noise] {
                let (new, old) = (parsed(&input), parsed_by_oracle(&input));
                prop_assert!(new == old, "{input:?}\n  parsed: {new:?}\n  oracle: {old:?}");
            }
        }

        // Items carry several values per attribute, so `intersection`
        // across terms and `and` inside one disagree; every term of the
        // reference is evaluated.
        #[test]
        fn matches_agrees_with_evaluating_every_term(
            terms in terms(),
            items in proptest::collection::vec(
                proptest::collection::vec((0..ATTRS.len(), 0..VALUES.len()), 0..10),
                1..6,
            ),
        ) {
            let Ok(expr) = QueryExpr::parse(&render(&terms, (1, 0))) else {
                return Ok(()); // two attributes in one predicate
            };
            for pairs in items {
                let item = ItemState::from_pairs(pairs.iter().map(|&(a, v)| (ATTRS[a].1, VALUES[v].1)));
                let (new, old) = (expr.matches(&item), oracle::matches(&expr, &item));
                prop_assert!(new == old, "{expr:?} on {item:?}: {new} against {old}");
            }
        }
    }

    #[test]
    fn generated_expressions_cover_the_grammar() {
        let text = render(
            &[
                (0, 3, vec![(3, 0, 4, 1), (3, 6, 7, 3)]),
                (1, 0, vec![(4, 5, 0, 0)]),
            ],
            (1, 0),
        );
        assert_eq!(
            text,
            "NOT ['o''q' = 'o''b' OR 'o''q' starts-with 'ΣA'] union ['Type' >= '']"
        );
        assert_eq!(parsed(&text), parsed_by_oracle(&text));
        assert!(parsed(&text).is_ok());
        let sorted = format!("{text} sort 'a' desc");
        assert_eq!(parsed(&sorted), parsed_by_oracle(&sorted));
        assert_eq!(
            parsed(&sorted).unwrap_err(),
            "invalid query expression: expected intersection/union, got Word(\"sort\")"
        );
    }
}
