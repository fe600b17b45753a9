//! Sharding must be invisible in answers: whatever the shard count, the
//! page size, or a split between two pages, the pages of a name-ordered
//! `Query`/`Select` concatenate to exactly what one shard answers in one
//! page — nothing skipped, nothing served twice, every token accepted.
//!
//! The expressions are chosen to pull the page fetch every way it can
//! go: an `intersection` whose lighter side differs from shard to shard
//! (the cover is weighed over all of them), `union`s and `in (…)` lists
//! whose pairs live on different shards, `not` and range terms that a
//! cover must ignore, and range terms under `union`/`or` that defeat it.

use proptest::prelude::*;
use sim_simpledb::{ReplaceableAttribute, ResultItem, SimpleDb};
use simworld::SimWorld;

/// `(a, b, c bits, rank)`: single-valued `a`/`b` out of four values
/// each, multi-valued `c`, a one-digit `rank`.
type Item = (usize, usize, u8, usize);
/// `(item, kind, value)`: replace `a`, add a `c` value, or delete.
type Churn = (usize, u8, usize);
/// `(form, x, y, 3r + z)`: which expression, and the values in it.
type Pick = (usize, usize, usize, usize);

fn name(k: usize) -> String {
    format!("i{k:03}")
}

fn build(shards: usize, items: &[Item], churn: &[Churn]) -> SimpleDb {
    // Strong consistency: every replica serves the newest write, so the
    // answer cannot depend on which replica a layout happens to draw.
    let db = SimpleDb::with_shards(&SimWorld::counting(), shards);
    db.create_domain("d").unwrap();
    let add = ReplaceableAttribute::add;
    for (k, &(a, b, c, rank)) in items.iter().enumerate() {
        let mut attrs = vec![
            add("a", format!("a{a}")),
            add("b", format!("b{b}")),
            add("rank", rank.to_string()),
        ];
        attrs.extend(
            (0..3)
                .filter(|bit| c >> bit & 1 == 1)
                .map(|bit| add("c", format!("c{bit}"))),
        );
        db.put_attributes("d", &name(k), &attrs).unwrap();
    }
    // Postings exist before the churn, so its writes maintain them.
    db.query(
        "d",
        Some("['a' = 'a0'] union ['b' = 'b0'] union ['c' = 'c0']"),
        None,
        None,
    )
    .unwrap();
    for &(k, kind, v) in churn {
        let item = name(k % items.len());
        match kind {
            0 => {
                let a = ReplaceableAttribute::replace("a", format!("a{v}"));
                db.put_attributes("d", &item, &[a]).unwrap();
            }
            1 => db
                .put_attributes("d", &item, &[add("c", format!("c{}", v % 3))])
                .unwrap(),
            _ => db.delete_attributes("d", &item, None).unwrap(),
        }
    }
    db
}

fn query_expr((form, x, y, zr): Pick) -> String {
    let (x2, z, r) = ((x + 1) % 4, zr % 3, zr / 3);
    match form % 7 {
        0 => format!("['a' = 'a{x}'] intersection ['b' = 'b{y}']"),
        1 => format!("['a' = 'a{x}'] union ['b' = 'b{y}'] union ['c' = 'c{z}']"),
        2 => format!("['c' = 'c{z}'] intersection not ['b' = 'b{y}']"),
        3 => format!("['a' = 'a{x}'] union ['rank' > '{r}']"),
        4 => format!("['a' = 'a{x}' or 'a' = 'a{x2}'] intersection ['rank' >= '{r}']"),
        5 => format!("['b' = 'b{y}'] intersection ['c' = 'c{z}'] union ['a' = 'a{x}']"),
        _ => "['a' = 'nobody'] union ['b' = 'nobody']".to_string(),
    }
}

fn select_where((form, x, y, zr): Pick) -> String {
    let (x2, z, r) = ((x + 1) % 4, zr % 3, zr / 3);
    match form % 5 {
        0 => format!("a in ('a{x}', 'a{x2}') and b = 'b{y}'"),
        1 => format!("a = 'a{x}' or c = 'c{z}'"),
        2 => format!("(a = 'a{x}' or b = 'b{y}') and not c = 'c{z}'"),
        3 => format!("a = 'a{x}' or rank > '{r}'"),
        _ => format!("c in ('c{z}', 'nobody') and rank between '2' and '{r}'"),
    }
}

/// Pages `fetch` to the end, force-splitting the fullest shard after
/// page `split_after`. Every page but the last must be full.
fn walk(
    db: &SimpleDb,
    page_size: usize,
    split_after: Option<usize>,
    fetch: impl Fn(Option<&str>) -> (Vec<ResultItem>, Option<String>),
) -> Vec<ResultItem> {
    let mut rows = Vec::new();
    let mut token: Option<String> = None;
    for page in 0.. {
        let (items, next) = fetch(token.as_deref());
        assert!(items.len() <= page_size);
        assert!(
            next.is_none() || items.len() == page_size,
            "a short page ends the walk"
        );
        rows.extend(items);
        if split_after == Some(page) {
            db.split_hottest("d");
        }
        match next {
            Some(next) => token = Some(next),
            None => break,
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_pages_concatenate_to_the_one_shard_answer(
        items in proptest::collection::vec((0usize..4, 0usize..4, 0u8..8, 0usize..10), 30..90),
        churn in proptest::collection::vec((0usize..90, 0u8..3, 0usize..4), 0..20),
        pick in (0usize..35, 0usize..4, 0usize..4, 0usize..30),
        split_after in 0usize..6,
    ) {
        let expr = query_expr(pick);
        let condition = select_where(pick);
        let query = |db: &SimpleDb, page: usize, split| {
            walk(db, page, split, |token| {
                let r = db.query_with_attributes("d", Some(&expr), None, Some(page), token).unwrap();
                (r.items, r.next_token)
            })
        };
        let select = |db: &SimpleDb, page: usize, split| {
            let sql = format!("select * from d where {condition} limit {page}");
            walk(db, page, split, |token| {
                let r = db.select(&sql, token).unwrap();
                (r.items, r.next_token)
            })
        };
        // `count(*)` and the page fetch share one predicate: the count
        // must be the length of the walk it summarises.
        let count = |db: &SimpleDb| {
            let sql = format!("select count(*) from d where {condition} limit 2500");
            db.select(&sql, None).unwrap().count
        };
        let unsharded = build(1, &items, &churn);
        let (query_answer, select_answer) = (query(&unsharded, 250, None), select(&unsharded, 250, None));
        let select_count = Some(select_answer.len() as u64);
        for shards in [1usize, 4, 16] {
            prop_assert_eq!(count(&build(shards, &items, &churn)), select_count);
            for page in [1usize, 3, 250] {
                // A split changes the layout for good: each walk gets its own store.
                let split = (split_after < 4).then_some(split_after);
                let db = build(shards, &items, &churn);
                prop_assert_eq!(&query(&db, page, split), &query_answer);
                let db = build(shards, &items, &churn);
                prop_assert_eq!(&select(&db, page, split), &select_answer);
                if split.is_some() {
                    prop_assert_eq!(count(&db), select_count);
                }
            }
        }
    }
}
