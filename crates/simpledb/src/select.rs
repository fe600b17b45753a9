//! The SimpleDB `Select` statement — the SQL-form query interface added
//! in 2008 and described in §2.2 of the paper.
//!
//! Supported grammar (case-insensitive keywords):
//!
//! ```text
//! select <output> from <domain> [where <expr>] [limit N]
//!
//! output  := * | itemName() | count(*) | attr [, attr ...]
//! expr    := disjunction of conjunctions of [not] primaries
//! primary := '(' expr ')'
//!          | operand (= | != | > | >= | < | <=) 'value'
//!          | operand like 'pattern%'          -- %-wildcards at either end
//!          | operand between 'a' and 'b'
//!          | operand in ('a', 'b', ...)
//!          | operand is [not] null
//!          | every(attr) <op> 'value'
//! operand := attr | `quoted attr` | itemName()
//! ```
//!
//! Multi-valued semantics as in the real service: a plain comparison is
//! satisfied when *any* value of the attribute matches; `every()` demands
//! all values match; `is null` means the attribute is absent. Rows come
//! in item-name order: the real service's `order by` clause is not
//! simulated, and is an [`SdbError::InvalidQuery`] like any other
//! unknown syntax.

use std::fmt;

use crate::error::{Result, SdbError};
use crate::model::ItemState;
use crate::query::{CmpOp, EqCover, WeighPair, Weighed};

/// Default page size when no `limit` clause is given.
pub const DEFAULT_LIMIT: usize = 100;

/// Hard cap on `limit`.
pub const MAX_LIMIT: usize = 2500;

/// What the statement projects.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Output {
    /// `select *`
    All,
    /// `select itemName()`
    ItemName,
    /// `select count(*)`
    Count,
    /// `select a, b, c`
    Attrs(Vec<String>),
}

/// What a comparison's left side refers to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Operand {
    /// A named attribute (any value may satisfy).
    Attr(String),
    /// The item name.
    ItemName,
    /// `every(attr)` — all values must satisfy.
    Every(String),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Attr(a) => write!(f, "{a}"),
            Operand::ItemName => f.write_str("itemName()"),
            Operand::Every(a) => write!(f, "every({a})"),
        }
    }
}

/// A boolean condition over one item.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Cond {
    /// Binary comparison.
    Cmp(Operand, CmpOp, String),
    /// `like 'pattern'` with `%` wildcards at either end.
    Like(Operand, String),
    /// `between 'a' and 'b'` (inclusive).
    Between(Operand, String, String),
    /// `in ('a', 'b', ...)`.
    In(Operand, Vec<String>),
    /// `is null` (attribute absent).
    IsNull(String),
    /// `is not null` (attribute present).
    IsNotNull(String),
    /// Negation.
    Not(Box<Cond>),
    /// Conjunction.
    And(Vec<Cond>),
    /// Disjunction.
    Or(Vec<Cond>),
}

impl Cond {
    /// Evaluates against one `(name, item)` pair.
    pub fn matches(&self, name: &str, item: &ItemState) -> bool {
        match self {
            Cond::Cmp(operand, op, value) => {
                eval_operand(operand, name, item, |v| cmp_eval(*op, v, value))
            }
            Cond::Like(operand, pattern) => {
                eval_operand(operand, name, item, |v| like_match(v, pattern))
            }
            Cond::Between(operand, lo, hi) => eval_operand(operand, name, item, |v| {
                v >= lo.as_str() && v <= hi.as_str()
            }),
            Cond::In(operand, values) => {
                eval_operand(operand, name, item, |v| values.iter().any(|x| x == v))
            }
            Cond::IsNull(attr) => !item.contains_key(attr),
            Cond::IsNotNull(attr) => item.contains_key(attr),
            Cond::Not(inner) => !inner.matches(name, item),
            Cond::And(parts) => parts.iter().all(|c| c.matches(name, item)),
            Cond::Or(parts) => parts.iter().any(|c| c.matches(name, item)),
        }
    }
}

/// `=` and `in` on a plain attribute yield their pairs, `and` keeps the
/// covered side with the fewest postings, `or` needs every side covered,
/// and everything else — `not`, `!=`, ranges, `like`, `is [not] null`,
/// `every()`, `itemName()` — covers nothing.
impl EqCover for Cond {
    fn derive<'a>(&'a self, pair: WeighPair<'_, 'a>) -> Option<Weighed> {
        match self {
            Cond::Cmp(Operand::Attr(attr), CmpOp::Eq, value) => Some(pair(attr, value)),
            Cond::In(Operand::Attr(attr), values) => {
                let pairs = values.iter().map(|value| pair(attr, value));
                Some(pairs.fold(Weighed::EMPTY, Weighed::plus))
            }
            Cond::And(parts) => parts
                .iter()
                .fold(None, |acc, part| Weighed::either(acc, part.derive(pair))),
            Cond::Or(parts) => parts.iter().try_fold(Weighed::EMPTY, |acc, part| {
                Some(acc.plus(part.derive(pair)?))
            }),
            _ => None,
        }
    }
}

fn cmp_eval(op: CmpOp, candidate: &str, operand: &str) -> bool {
    match op {
        CmpOp::Eq => candidate == operand,
        CmpOp::Ne => candidate != operand,
        CmpOp::Lt => candidate < operand,
        CmpOp::Gt => candidate > operand,
        CmpOp::Le => candidate <= operand,
        CmpOp::Ge => candidate >= operand,
        CmpOp::StartsWith => candidate.starts_with(operand),
    }
}

fn eval_operand(
    operand: &Operand,
    name: &str,
    item: &ItemState,
    pred: impl Fn(&str) -> bool,
) -> bool {
    match operand {
        Operand::ItemName => pred(name),
        Operand::Attr(attr) => item.get(attr).iter().any(|p| pred(&p.value)),
        Operand::Every(attr) => {
            let values = item.get(attr);
            !values.is_empty() && values.iter().all(|p| pred(&p.value))
        }
    }
}

/// `%` wildcard match: `%` allowed at the start and/or end of the
/// pattern (the forms the 2009 service accepted).
fn like_match(value: &str, pattern: &str) -> bool {
    let starts = pattern.starts_with('%');
    let ends = pattern.ends_with('%') && pattern.len() > 1;
    let core = &pattern[(starts as usize)..pattern.len() - (ends as usize)];
    match (starts, ends) {
        (false, false) => value == core,
        (false, true) => value.starts_with(core),
        (true, false) => value.ends_with(core),
        (true, true) => value.contains(core),
    }
}

/// A parsed `select` statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SelectStatement {
    /// Projection.
    pub output: Output,
    /// Target domain name.
    pub domain: String,
    /// `where` clause, if any.
    pub condition: Option<Cond>,
    /// `limit` clause (defaults to [`DEFAULT_LIMIT`], capped at
    /// [`MAX_LIMIT`]).
    pub limit: usize,
}

impl SelectStatement {
    /// Parses a `select` statement.
    ///
    /// # Errors
    ///
    /// [`SdbError::InvalidQuery`] describing the first syntax problem.
    pub fn parse(sql: &str) -> Result<SelectStatement> {
        Parser::new(sql)?.parse_select()
    }
}

// --- lexer ---

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Word(String),   // keyword/identifier, original case preserved
    Str(String),    // 'quoted'
    Quoted(String), // `backtick quoted attribute`
    Sym(String),    // punctuation / operators
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut toks = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                let mut closed = false;
                while let Some(ch) = chars.next() {
                    if ch == '\'' {
                        if chars.peek() == Some(&'\'') {
                            chars.next();
                            s.push('\'');
                        } else {
                            closed = true;
                            break;
                        }
                    } else {
                        s.push(ch);
                    }
                }
                if !closed {
                    return Err(SdbError::InvalidQuery {
                        message: "unterminated string literal".into(),
                    });
                }
                toks.push(Tok::Str(s));
            }
            '`' => {
                chars.next();
                let mut s = String::new();
                let mut closed = false;
                for ch in chars.by_ref() {
                    if ch == '`' {
                        closed = true;
                        break;
                    }
                    s.push(ch);
                }
                if !closed {
                    return Err(SdbError::InvalidQuery {
                        message: "unterminated quoted attribute".into(),
                    });
                }
                toks.push(Tok::Quoted(s));
            }
            '(' | ')' | ',' | '*' => {
                chars.next();
                toks.push(Tok::Sym(c.to_string()));
            }
            '=' => {
                chars.next();
                toks.push(Tok::Sym("=".into()));
            }
            '!' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    toks.push(Tok::Sym("!=".into()));
                } else {
                    return Err(SdbError::InvalidQuery {
                        message: "stray '!'".into(),
                    });
                }
            }
            '<' | '>' => {
                chars.next();
                let mut s = c.to_string();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    s.push('=');
                }
                toks.push(Tok::Sym(s));
            }
            _ if c.is_alphanumeric() || c == '_' => {
                let mut w = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_alphanumeric() || ch == '_' || ch == '-' || ch == '.' || ch == '/' {
                        w.push(ch);
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Word(w));
            }
            other => {
                return Err(SdbError::InvalidQuery {
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(toks)
}

// --- parser ---

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Parser> {
        Ok(Parser {
            toks: lex(sql)?,
            pos: 0,
        })
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

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Word(w)) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.next();
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {kw:?}, got {:?}", self.peek()))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if let Some(Tok::Sym(s)) = self.peek() {
            if s == sym {
                self.next();
                return true;
            }
        }
        false
    }

    fn parse_select(&mut self) -> Result<SelectStatement> {
        self.expect_keyword("select")?;
        let output = self.parse_output()?;
        self.expect_keyword("from")?;
        let domain = match self.next() {
            Some(Tok::Word(w)) => w,
            Some(Tok::Quoted(w)) => w,
            other => return self.err(format!("expected domain name, got {other:?}")),
        };
        let condition = if self.eat_keyword("where") {
            Some(self.parse_or()?)
        } else {
            None
        };
        let limit = if self.eat_keyword("limit") {
            match self.next() {
                Some(Tok::Word(w)) => match w.parse::<usize>() {
                    Ok(n) if n >= 1 => n.min(MAX_LIMIT),
                    _ => return self.err(format!("invalid limit {w:?}")),
                },
                other => return self.err(format!("expected limit count, got {other:?}")),
            }
        } else {
            DEFAULT_LIMIT
        };
        if let Some(t) = self.peek() {
            return self.err(format!("unexpected trailing token {t:?}"));
        }
        Ok(SelectStatement {
            output,
            domain,
            condition,
            limit,
        })
    }

    fn parse_output(&mut self) -> Result<Output> {
        if self.eat_sym("*") {
            return Ok(Output::All);
        }
        // count(*) / itemName() / attribute list
        if let Some(Tok::Word(w)) = self.peek().cloned() {
            if w.eq_ignore_ascii_case("count") {
                self.next();
                if self.eat_sym("(") && self.eat_sym("*") && self.eat_sym(")") {
                    return Ok(Output::Count);
                }
                return self.err("malformed count(*)");
            }
            if w.eq_ignore_ascii_case("itemname") {
                // itemName() — possibly with the call parens
                self.next();
                if self.eat_sym("(") && !self.eat_sym(")") {
                    return self.err("malformed itemName()");
                }
                return Ok(Output::ItemName);
            }
        }
        let mut attrs = Vec::new();
        loop {
            match self.next() {
                Some(Tok::Word(w)) => attrs.push(w),
                Some(Tok::Quoted(w)) => attrs.push(w),
                other => {
                    return self.err(format!("expected attribute in select list, got {other:?}"))
                }
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Output::Attrs(attrs))
    }

    fn parse_or(&mut self) -> Result<Cond> {
        let mut parts = vec![self.parse_and()?];
        while self.eat_keyword("or") {
            parts.push(self.parse_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Cond::Or(parts)
        })
    }

    fn parse_and(&mut self) -> Result<Cond> {
        let mut parts = vec![self.parse_not()?];
        while self.eat_keyword("and") {
            parts.push(self.parse_not()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Cond::And(parts)
        })
    }

    fn parse_not(&mut self) -> Result<Cond> {
        if self.eat_keyword("not") {
            Ok(Cond::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<Cond> {
        if self.eat_sym("(") {
            let inner = self.parse_or()?;
            if !self.eat_sym(")") {
                return self.err("expected ')'");
            }
            return Ok(inner);
        }
        let operand = self.parse_operand()?;
        // is [not] null
        if self.eat_keyword("is") {
            let attr = match &operand {
                Operand::Attr(a) => a.clone(),
                other => return self.err(format!("is null applies to attributes, not {other}")),
            };
            if self.eat_keyword("not") {
                self.expect_keyword("null")?;
                return Ok(Cond::IsNotNull(attr));
            }
            self.expect_keyword("null")?;
            return Ok(Cond::IsNull(attr));
        }
        if self.eat_keyword("like") {
            let pattern = self.parse_value()?;
            return Ok(Cond::Like(operand, pattern));
        }
        if self.eat_keyword("between") {
            let lo = self.parse_value()?;
            self.expect_keyword("and")?;
            let hi = self.parse_value()?;
            return Ok(Cond::Between(operand, lo, hi));
        }
        if self.eat_keyword("in") {
            if !self.eat_sym("(") {
                return self.err("expected '(' after in");
            }
            let mut values = Vec::new();
            loop {
                values.push(self.parse_value()?);
                if self.eat_sym(")") {
                    break;
                }
                if !self.eat_sym(",") {
                    return self.err("expected ',' or ')' in value list");
                }
            }
            return Ok(Cond::In(operand, values));
        }
        let op = match self.next() {
            Some(Tok::Sym(s)) => match s.as_str() {
                "=" => CmpOp::Eq,
                "!=" => CmpOp::Ne,
                "<" => CmpOp::Lt,
                ">" => CmpOp::Gt,
                "<=" => CmpOp::Le,
                ">=" => CmpOp::Ge,
                other => return self.err(format!("unknown comparison {other:?}")),
            },
            other => return self.err(format!("expected comparison operator, got {other:?}")),
        };
        let value = self.parse_value()?;
        Ok(Cond::Cmp(operand, op, value))
    }

    fn parse_operand(&mut self) -> Result<Operand> {
        match self.next() {
            Some(Tok::Quoted(attr)) => Ok(Operand::Attr(attr)),
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case("itemname") => {
                if self.eat_sym("(") && !self.eat_sym(")") {
                    return self.err("malformed itemName()");
                }
                Ok(Operand::ItemName)
            }
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case("every") => {
                if !self.eat_sym("(") {
                    return self.err("expected '(' after every");
                }
                let attr = match self.next() {
                    Some(Tok::Word(a)) => a,
                    Some(Tok::Quoted(a)) => a,
                    other => {
                        return self.err(format!("expected attribute in every(), got {other:?}"))
                    }
                };
                if !self.eat_sym(")") {
                    return self.err("expected ')' after every(attr");
                }
                Ok(Operand::Every(attr))
            }
            Some(Tok::Word(w)) => Ok(Operand::Attr(w)),
            other => self.err(format!("expected operand, got {other:?}")),
        }
    }

    fn parse_value(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Str(s)) => Ok(s),
            other => self.err(format!("expected quoted value, got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::tests::cover_of;

    fn item(pairs: &[(&str, &str)]) -> ItemState {
        ItemState::from_pairs(pairs.iter().copied())
    }

    fn parses(sql: &str) -> SelectStatement {
        SelectStatement::parse(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    #[test]
    fn basic_forms_parse() {
        assert_eq!(parses("select * from d").output, Output::All);
        assert_eq!(parses("SELECT itemName() FROM d").output, Output::ItemName);
        assert_eq!(parses("select count(*) from d").output, Output::Count);
        assert_eq!(
            parses("select a, b from d").output,
            Output::Attrs(vec!["a".into(), "b".into()])
        );
        assert_eq!(parses("select * from d").domain, "d");
    }

    #[test]
    fn where_comparisons_evaluate() {
        let s = parses("select * from d where type = 'file'");
        let cond = s.condition.unwrap();
        assert!(cond.matches("i", &item(&[("type", "file")])));
        assert!(!cond.matches("i", &item(&[("type", "proc")])));
        assert!(!cond.matches("i", &item(&[])));
    }

    #[test]
    fn any_value_semantics_vs_every() {
        let any = parses("select * from d where tag = 'x'").condition.unwrap();
        let every = parses("select * from d where every(tag) = 'x'")
            .condition
            .unwrap();
        let mixed = item(&[("tag", "x"), ("tag", "y")]);
        let uniform = item(&[("tag", "x")]);
        assert!(any.matches("i", &mixed));
        assert!(!every.matches("i", &mixed));
        assert!(every.matches("i", &uniform));
    }

    #[test]
    fn itemname_comparisons() {
        let c = parses("select * from d where itemName() like 'foo%'")
            .condition
            .unwrap();
        assert!(c.matches("foo_2", &item(&[])));
        assert!(!c.matches("bar_2", &item(&[])));
    }

    #[test]
    fn like_wildcards() {
        let both = parses("select * from d where a like '%mid%'")
            .condition
            .unwrap();
        assert!(both.matches("i", &item(&[("a", "a-mid-z")])));
        let suffix = parses("select * from d where a like '%end'")
            .condition
            .unwrap();
        assert!(suffix.matches("i", &item(&[("a", "the-end")])));
        assert!(!suffix.matches("i", &item(&[("a", "end-the")])));
        let exact = parses("select * from d where a like 'x'")
            .condition
            .unwrap();
        assert!(exact.matches("i", &item(&[("a", "x")])));
        assert!(!exact.matches("i", &item(&[("a", "xy")])));
    }

    #[test]
    fn between_in_null() {
        let between = parses("select * from d where v between '3' and '5'")
            .condition
            .unwrap();
        assert!(between.matches("i", &item(&[("v", "4")])));
        assert!(!between.matches("i", &item(&[("v", "6")])));

        let inlist = parses("select * from d where v in ('a', 'b')")
            .condition
            .unwrap();
        assert!(inlist.matches("i", &item(&[("v", "b")])));
        assert!(!inlist.matches("i", &item(&[("v", "c")])));

        let isnull = parses("select * from d where v is null").condition.unwrap();
        assert!(isnull.matches("i", &item(&[("w", "1")])));
        assert!(!isnull.matches("i", &item(&[("v", "1")])));

        let notnull = parses("select * from d where v is not null")
            .condition
            .unwrap();
        assert!(notnull.matches("i", &item(&[("v", "1")])));
    }

    #[test]
    fn boolean_precedence_and_parens() {
        // a='1' or a='2' and b='3'  ==  a='1' or (a='2' and b='3')
        let c = parses("select * from d where a = '1' or a = '2' and b = '3'")
            .condition
            .unwrap();
        assert!(c.matches("i", &item(&[("a", "1")])));
        assert!(c.matches("i", &item(&[("a", "2"), ("b", "3")])));
        assert!(!c.matches("i", &item(&[("a", "2")])));

        let c = parses("select * from d where (a = '1' or a = '2') and b = '3'")
            .condition
            .unwrap();
        assert!(!c.matches("i", &item(&[("a", "1")])));
        assert!(c.matches("i", &item(&[("a", "1"), ("b", "3")])));
    }

    #[test]
    fn not_negates() {
        let c = parses("select * from d where not a = '1'")
            .condition
            .unwrap();
        assert!(c.matches("i", &item(&[("a", "2")])));
        assert!(!c.matches("i", &item(&[("a", "1")])));
    }

    #[test]
    fn backtick_attributes_and_escaped_quotes() {
        let c = parses("select * from d where `weird attr` = 'o''brien'")
            .condition
            .unwrap();
        assert!(c.matches("i", &item(&[("weird attr", "o'brien")])));
    }

    #[test]
    fn limit_clamped_to_service_max() {
        assert_eq!(parses("select * from d limit 99999").limit, MAX_LIMIT);
        assert_eq!(
            parses("select * from d where a is not null limit 7").limit,
            7
        );
        assert_eq!(parses("select * from d").limit, DEFAULT_LIMIT);
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "select",
            "select * from",
            "select * from d where",
            "select * from d where a ==",
            "select * from d where a = 'x' garbage",
            "select * from d limit 0",
            "select * from d where a between '1'",
            "select * from d where a in ('1',",
            "select * from d where a = 'unterminated",
            "select * from d order by a",
        ] {
            assert!(
                matches!(
                    SelectStatement::parse(bad),
                    Err(SdbError::InvalidQuery { .. })
                ),
                "should fail: {bad}"
            );
        }
    }

    // --- equality covers ---

    fn assert_cover(where_clause: &str, expected: Option<&[(&str, &str)]>) {
        let stmt = parses(&format!("select * from d where {where_clause}"));
        // `type` values are common, everything else is rare.
        let counts = |attr: &str, _: &str| if attr == "type" { 1_000 } else { 5 };
        let cover = cover_of(stmt.condition.as_ref().unwrap(), counts);
        assert_eq!(cover.as_deref(), expected, "{where_clause}");
    }

    #[test]
    fn equality_and_in_cover_themselves() {
        assert_cover("type = 'file'", Some(&[("type", "file")]));
        assert_cover("name in ('a', 'b')", Some(&[("name", "a"), ("name", "b")]));
    }

    #[test]
    fn and_keeps_the_covered_side_with_fewest_postings() {
        assert_cover(
            "type = 'process' and name = 'blast'",
            Some(&[("name", "blast")]),
        );
        assert_cover("rank > '4' and type = 'file'", Some(&[("type", "file")]));
        // 10 postings across the `or` still beat 1 000.
        assert_cover(
            "(name = 'a' or name = 'b') and type = 'process'",
            Some(&[("name", "a"), ("name", "b")]),
        );
    }

    #[test]
    fn or_needs_every_side_covered() {
        assert_cover(
            "type = 'file' or input = 'i'",
            Some(&[("type", "file"), ("input", "i")]),
        );
        assert_cover("type = 'file' or rank > '7'", None);
    }

    #[test]
    fn everything_else_covers_nothing() {
        for clause in [
            "not type = 'file'",
            "type != 'file'",
            "rank > '4'",
            "rank between '1' and '3'",
            "name like 'bla%'",
            "name is not null",
            "every(name) = 'n1'",
            "itemName() = 'i005'",
            "itemName() in ('a', 'b')",
        ] {
            assert_cover(clause, None);
        }
    }

    #[test]
    fn a_cover_is_necessary_not_sufficient() {
        // Unlike the bracket language, `and` spans values here: an item
        // carrying both values matches, one carrying only the covered
        // value does not — the re-check decides.
        let stmt = parses("select * from d where x = 'a' and x = 'b'");
        let cond = stmt.condition.as_ref().unwrap();
        assert_eq!(cover_of(cond, |_, _| 1), Some(vec![("x", "a")]));
        assert!(cond.matches("i", &item(&[("x", "a"), ("x", "b")])));
        assert!(!cond.matches("i", &item(&[("x", "a")])));
    }
}
