//! Sharding must be invisible in answers: whatever the shard count or
//! the page size, the pages of a name-ordered `Query` or
//! `QueryWithAttributes` concatenate to exactly what one shard answers
//! in one page — nothing skipped, nothing served twice, every token
//! accepted.
//!
//! The expressions are chosen to pull the page fetch every way it can
//! go: an `intersection` whose lighter side differs from shard to shard
//! (the cover is weighed over all of them), `union`s and `or` runs
//! whose pairs live on different shards, `not` and range terms that a
//! cover must ignore, and range terms under `union` that defeat it.

use proptest::prelude::*;
use sim_simpledb::{ReplaceableAttribute, SimpleDb};
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

/// Pages `fetch` to the end. Every page but the last must be full.
fn walk<T>(page_size: usize, fetch: impl Fn(Option<&str>) -> (Vec<T>, Option<String>)) -> Vec<T> {
    let mut rows = Vec::new();
    let mut token: Option<String> = None;
    loop {
        let (items, next) = fetch(token.as_deref());
        assert!(items.len() <= page_size);
        assert!(
            next.is_none() || items.len() == page_size,
            "a short page ends the walk"
        );
        rows.extend(items);
        match next {
            Some(next) => token = Some(next),
            None => return rows,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_pages_concatenate_to_the_one_shard_answer(
        items in proptest::collection::vec((0usize..4, 0usize..4, 0u8..8, 0usize..10), 30..90),
        churn in proptest::collection::vec((0usize..90, 0u8..3, 0usize..4), 0..20),
        pick in (0usize..35, 0usize..4, 0usize..4, 0usize..30),
    ) {
        let expr = query_expr(pick);
        let rows = |db: &SimpleDb, page: usize| {
            walk(page, |token| {
                let r = db.query_with_attributes("d", Some(&expr), None, Some(page), token).unwrap();
                (r.items, r.next_token)
            })
        };
        let names = |db: &SimpleDb, page: usize| {
            walk(page, |token| {
                let r = db.query("d", Some(&expr), Some(page), token).unwrap();
                (r.item_names, r.next_token)
            })
        };
        let unsharded = build(1, &items, &churn);
        let (rows_answer, names_answer) = (rows(&unsharded, 250), names(&unsharded, 250));
        for shards in [1usize, 4, 16] {
            let db = build(shards, &items, &churn);
            for page in [1usize, 3, 250] {
                prop_assert_eq!(&rows(&db, page), &rows_answer);
                prop_assert_eq!(&names(&db, page), &names_answer);
            }
        }
    }
}
