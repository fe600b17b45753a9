//! The Query lexer, parser and matcher as they were before tokens
//! borrowed the expression text and `matches` skipped settled terms:
//! every token an owned `String`, lexed up front into a `Vec` and
//! cloned out of it by `next`, every term evaluated. Kept as the
//! definition the rewritten ones are held to (`super::tests`): if the
//! two disagree, the rewrite is wrong, not this. Neither accepts a
//! `sort` clause. It parses into owned predicates (an attribute `String`,
//! a `Vec` of comparisons with their values, a `Vec` of connectives), and
//! lays them out as a [`QueryExpr`] only once the whole text has parsed.

use super::{CmpOp, Comparison, QueryExpr, SetOp, Term};
use crate::error::{Result, SdbError};
use crate::model::ItemState;

/// `QueryExpr::parse`, as the oracle parser has it.
pub(crate) fn parse(input: &str) -> Result<QueryExpr> {
    Parser::new(input).parse_query()
}

/// `QueryExpr::matches` with every term evaluated and folded in order.
pub(crate) fn matches(expr: &QueryExpr, item: &ItemState) -> bool {
    let mut acc = false;
    for (i, (setop, negated, pred)) in expr.terms().enumerate() {
        let hit = pred.matches(item) != negated;
        acc = match (i, setop) {
            (0, _) => hit,
            (_, SetOp::Intersection) => acc && hit,
            (_, SetOp::Union) => acc || hit,
            (_, SetOp::First) => unreachable!("First only at index 0"),
        };
    }
    acc
}

/// One parsed predicate, every string owned.
struct Predicate {
    attribute: String,
    comparisons: Vec<(CmpOp, String)>,
    /// Between consecutive comparisons, `true` for `and`.
    connectives: Vec<bool>,
}

/// Lays parsed terms out as a [`QueryExpr`]: the attribute, then each
/// operand, appended to the text term after term.
fn layout(terms: Vec<(SetOp, bool, Predicate)>) -> QueryExpr {
    let mut expr = QueryExpr {
        terms: Vec::new(),
        comparisons: Vec::new(),
        text: String::new(),
    };
    for (setop, negated, pred) in terms {
        let attribute = expr.push_text(&pred.attribute);
        let from = expr.comparisons.len();
        for (i, (op, value)) in pred.comparisons.iter().enumerate() {
            let operand = expr.push_text(value);
            let and_next = pred.connectives.get(i) == Some(&true);
            expr.comparisons.push(Comparison {
                op: *op,
                operand,
                and_next,
            });
        }
        let comparisons = from..expr.comparisons.len();
        expr.terms.push(Term {
            setop,
            negated,
            attribute,
            comparisons,
        });
    }
    expr
}

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
                Some(t) => return self.err(format!("expected intersection/union, got {t:?}")),
            }
        }
        Ok(layout(terms))
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
