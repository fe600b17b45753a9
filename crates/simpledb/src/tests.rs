//! Unit tests for the SimpleDB service simulator.

use simworld::{Consistency, LatencyModel, Op, Service, SimConfig, SimDuration, SimWorld};

use crate::{
    pairs, DeletableAttribute, ReplaceableAttribute, SdbError, SimpleDb, DEFAULT_SHARDS,
    MAX_DOMAINS, QUERY_MAX_PAGE,
};

fn counting() -> (SimWorld, SimpleDb) {
    let world = SimWorld::counting();
    let db = SimpleDb::new(&world);
    db.create_domain("d").unwrap();
    (world, db)
}

fn eventual(seed: u64) -> (SimWorld, SimpleDb) {
    let world = SimWorld::with_config(SimConfig {
        seed,
        consistency: Consistency::eventual(SimDuration::from_secs(30)),
        latency: LatencyModel::zero(),
        replicas: 3,
    });
    let db = SimpleDb::new(&world);
    db.create_domain("d").unwrap();
    (world, db)
}

fn add(name: impl Into<String>, value: impl Into<String>) -> ReplaceableAttribute {
    ReplaceableAttribute::add(name, value)
}

#[test]
fn put_and_get_round_trip() {
    let (_, db) = counting();
    db.put_attributes("d", "item", &[add("a", "1"), add("b", "2")])
        .unwrap();
    let attrs = db.get_attributes("d", "item", None).unwrap();
    assert_eq!(pairs(&attrs), vec![("a", "1"), ("b", "2")]);
}

#[test]
fn get_with_name_filter() {
    let (_, db) = counting();
    db.put_attributes("d", "item", &[add("a", "1"), add("b", "2")])
        .unwrap();
    let attrs = db.get_attributes("d", "item", Some(&["b"])).unwrap();
    assert_eq!(pairs(&attrs), vec![("b", "2")]);
}

#[test]
fn get_absent_item_returns_empty() {
    let (_, db) = counting();
    assert!(db.get_attributes("d", "ghost", None).unwrap().is_empty());
}

#[test]
fn multivalued_attributes_accumulate() {
    let (_, db) = counting();
    db.put_attributes("d", "i", &[add("phone", "111")]).unwrap();
    db.put_attributes("d", "i", &[add("phone", "222")]).unwrap();
    let attrs = db.get_attributes("d", "i", None).unwrap();
    assert_eq!(attrs.len(), 2);
}

#[test]
fn replace_drops_previous_values() {
    let (_, db) = counting();
    db.put_attributes("d", "i", &[add("phone", "111"), add("phone", "222")])
        .unwrap();
    db.put_attributes("d", "i", &[ReplaceableAttribute::replace("phone", "333")])
        .unwrap();
    let attrs = db.get_attributes("d", "i", None).unwrap();
    assert_eq!(pairs(&attrs), vec![("phone", "333")]);
}

#[test]
fn replace_within_one_call_keeps_all_new_values() {
    let (_, db) = counting();
    db.put_attributes("d", "i", &[add("t", "old")]).unwrap();
    db.put_attributes(
        "d",
        "i",
        &[
            ReplaceableAttribute::replace("t", "new1"),
            ReplaceableAttribute::replace("t", "new2"),
        ],
    )
    .unwrap();
    let attrs = db.get_attributes("d", "i", None).unwrap();
    assert_eq!(
        attrs.len(),
        2,
        "both new values survive; only pre-call values dropped"
    );
}

#[test]
fn put_is_idempotent() {
    let (_, db) = counting();
    let attrs = [add("a", "1"), add("b", "2")];
    db.put_attributes("d", "i", &attrs).unwrap();
    let first = db.get_attributes("d", "i", None).unwrap();
    db.put_attributes("d", "i", &attrs).unwrap();
    db.put_attributes("d", "i", &attrs).unwrap();
    assert_eq!(db.get_attributes("d", "i", None).unwrap(), first);
}

#[test]
fn limits_enforced() {
    let (_, db) = counting();
    // Empty list
    assert!(matches!(
        db.put_attributes("d", "i", &[]),
        Err(SdbError::EmptyAttributeList)
    ));
    // >100 attributes per call
    let many: Vec<_> = (0..101).map(|i| add("a", format!("{i}"))).collect();
    assert!(matches!(
        db.put_attributes("d", "i", &many),
        Err(SdbError::TooManyAttributesInCall { submitted: 101 })
    ));
    // 256 pairs per item: three calls of 100/100/57 unique values
    let batch = |lo: usize, n: usize| -> Vec<ReplaceableAttribute> {
        (lo..lo + n).map(|i| add("v", format!("{i:04}"))).collect()
    };
    db.put_attributes("d", "big", &batch(0, 100)).unwrap();
    db.put_attributes("d", "big", &batch(100, 100)).unwrap();
    assert!(matches!(
        db.put_attributes("d", "big", &batch(200, 57)),
        Err(SdbError::TooManyAttributesOnItem { .. })
    ));
    // exactly 256 is fine
    db.put_attributes("d", "big", &batch(200, 56)).unwrap();
    // 1KB name/value limits
    let long = "x".repeat(1025);
    assert!(db
        .put_attributes("d", "i", &[add(long.clone(), "v")])
        .is_err());
    assert!(db
        .put_attributes("d", "i", &[add("n", long.clone())])
        .is_err());
    assert!(db.put_attributes("d", &long, &[add("n", "v")]).is_err());
}

#[test]
fn missing_domain_errors() {
    let (_, db) = counting();
    assert!(matches!(
        db.put_attributes("zzz", "i", &[add("a", "1")]),
        Err(SdbError::NoSuchDomain { .. })
    ));
    assert!(matches!(
        db.query("zzz", None, None, None),
        Err(SdbError::NoSuchDomain { .. })
    ));
}

#[test]
fn create_domain_is_idempotent_but_limited() {
    let (_, db) = counting();
    db.create_domain("d").unwrap(); // second create: fine
    for i in 0..(MAX_DOMAINS - 1) {
        db.create_domain(format!("extra{i}")).unwrap();
    }
    assert!(matches!(
        db.create_domain("one-too-many"),
        Err(SdbError::TooManyDomains { .. })
    ));
}

#[test]
fn delete_attribute_variants() {
    let (_, db) = counting();
    db.put_attributes("d", "i", &[add("a", "1"), add("a", "2"), add("b", "3")])
        .unwrap();
    // delete one pair
    db.delete_attributes("d", "i", Some(&[DeletableAttribute::pair("a", "1")]))
        .unwrap();
    assert_eq!(
        pairs(&db.get_attributes("d", "i", None).unwrap()),
        vec![("a", "2"), ("b", "3")]
    );
    // delete all values of a name
    db.delete_attributes("d", "i", Some(&[DeletableAttribute::all_of("a")]))
        .unwrap();
    assert_eq!(
        pairs(&db.get_attributes("d", "i", None).unwrap()),
        vec![("b", "3")]
    );
    // delete the whole item
    db.delete_attributes("d", "i", None).unwrap();
    assert!(db.get_attributes("d", "i", None).unwrap().is_empty());
    assert!(db.latest_item_names("d").is_empty());
}

#[test]
fn delete_is_idempotent() {
    let (_, db) = counting();
    db.delete_attributes("d", "never-existed", None).unwrap();
    db.put_attributes("d", "i", &[add("a", "1")]).unwrap();
    db.delete_attributes("d", "i", None).unwrap();
    db.delete_attributes("d", "i", None).unwrap();
    db.delete_attributes("d", "i", Some(&[DeletableAttribute::all_of("a")]))
        .unwrap();
}

#[test]
fn deleting_last_attribute_removes_item() {
    let (_, db) = counting();
    db.put_attributes("d", "i", &[add("a", "1")]).unwrap();
    db.delete_attributes("d", "i", Some(&[DeletableAttribute::pair("a", "1")]))
        .unwrap();
    assert!(db.latest_item_names("d").is_empty());
}

#[test]
fn query_filters_and_returns_names() {
    let (_, db) = counting();
    db.put_attributes("d", "f1", &[add("type", "file")])
        .unwrap();
    db.put_attributes("d", "p1", &[add("type", "process")])
        .unwrap();
    db.put_attributes("d", "f2", &[add("type", "file")])
        .unwrap();
    let r = db
        .query("d", Some("['type' = 'file']"), None, None)
        .unwrap();
    assert_eq!(r.item_names, vec!["f1", "f2"]);
    assert!(r.next_token.is_none());
}

#[test]
fn covered_queries_follow_writes_made_after_their_postings_exist() {
    let (_, db) = counting();
    let files = |db: &SimpleDb| {
        db.query("d", Some("['type' = 'file']"), None, None)
            .unwrap()
            .item_names
    };
    db.put_attributes("d", "f1", &[add("type", "file")])
        .unwrap();
    db.put_attributes("d", "p1", &[add("type", "process")])
        .unwrap();
    // The first equality query on `type` builds its postings; every
    // later write has to keep them current.
    assert_eq!(files(&db), vec!["f1"]);
    db.put_attributes("d", "f2", &[add("type", "file")])
        .unwrap();
    db.put_attributes("d", "p1", &[ReplaceableAttribute::replace("type", "file")])
        .unwrap();
    assert_eq!(files(&db), vec!["f1", "f2", "p1"]);
    db.delete_attributes("d", "f1", None).unwrap();
    db.delete_attributes("d", "f2", Some(&[DeletableAttribute::pair("type", "file")]))
        .unwrap();
    db.batch_put_attributes("d", &[("f3".to_string(), vec![add("type", "file")])])
        .unwrap();
    assert_eq!(files(&db), vec!["f3", "p1"]);
    let either = "['type' = 'file' or 'type' = 'process']";
    let names = db.query("d", Some(either), None, None).unwrap().item_names;
    assert_eq!(names, vec!["f3", "p1"]);
}

#[test]
fn one_value_cannot_equal_two_things_even_through_the_postings() {
    let (_, db) = counting();
    db.put_attributes("d", "i", &[add("x", "a"), add("x", "b")])
        .unwrap();
    // `i` is posted under ('x','a'), which covers this expression — and
    // the re-check still throws it out: no single value equals both.
    let both = db
        .query("d", Some("['x' = 'a' and 'x' = 'b']"), None, None)
        .unwrap();
    assert!(both.item_names.is_empty());
    let spanning = db
        .query(
            "d",
            Some("['x' = 'a'] intersection ['x' = 'b']"),
            None,
            None,
        )
        .unwrap();
    assert_eq!(spanning.item_names, vec!["i"]);
}

#[test]
fn query_none_matches_all() {
    let (_, db) = counting();
    db.put_attributes("d", "a", &[add("x", "1")]).unwrap();
    db.put_attributes("d", "b", &[add("y", "2")]).unwrap();
    assert_eq!(db.query("d", None, None, None).unwrap().item_names.len(), 2);
}

#[test]
fn query_pagination_round_trip() {
    let (_, db) = counting();
    for i in 0..25 {
        db.put_attributes("d", &format!("i{i:02}"), &[add("t", "x")])
            .unwrap();
    }
    let mut names = Vec::new();
    let mut token: Option<String> = None;
    let mut pages = 0;
    loop {
        let r = db
            .query("d", Some("['t' = 'x']"), Some(10), token.as_deref())
            .unwrap();
        names.extend(r.item_names);
        pages += 1;
        match r.next_token {
            Some(t) => token = Some(t),
            None => break,
        }
    }
    assert_eq!(pages, 3);
    assert_eq!(names.len(), 25);
    assert!(
        names.windows(2).all(|w| w[0] < w[1]),
        "name-ordered across pages"
    );
}

#[test]
fn query_page_size_clamped() {
    let (_, db) = counting();
    for i in 0..(QUERY_MAX_PAGE + 50) {
        db.put_attributes("d", &format!("i{i:04}"), &[add("t", "x")])
            .unwrap();
    }
    let r = db.query("d", None, Some(100_000), None).unwrap();
    assert_eq!(r.item_names.len(), QUERY_MAX_PAGE);
    assert!(r.next_token.is_some());
}

#[test]
fn invalid_next_token_rejected() {
    let (_, db) = counting();
    assert!(matches!(
        db.query("d", None, None, Some("not-a-number")),
        Err(SdbError::InvalidNextToken)
    ));
}

/// Calls `Query` (`api` 0) or `QueryWithAttributes` (1) on domain `d`
/// with the bracket expression `expr`.
fn call(db: &SimpleDb, api: usize, expr: &str, token: Option<&str>) -> crate::Result<()> {
    match api {
        0 => db.query("d", Some(expr), None, token).map(drop),
        _ => db
            .query_with_attributes("d", Some(expr), None, None, token)
            .map(drop),
    }
}

#[test]
fn a_rejected_call_charges_nothing_and_draws_nothing() {
    // One of two identical worlds makes the rejected call; the other
    // never does. Latency is on, so a charge would move the clock.
    let twin = || {
        let world = SimWorld::with_config(SimConfig {
            seed: 11,
            consistency: Consistency::eventual(SimDuration::from_secs(30)),
            latency: LatencyModel::default(),
            replicas: 3,
        });
        let db = SimpleDb::with_shards(&world, 4);
        db.create_domain("d").unwrap();
        for i in 0..12 {
            let attrs = [add("t", "x"), add("rank", i.to_string())];
            db.put_attributes("d", &format!("i{i:02}"), &attrs).unwrap();
        }
        world.settle();
        let token = db.query("d", None, Some(5), None).unwrap().next_token;
        (world, db, token.expect("more pages"))
    };
    let (_, _, token) = twin();
    let (pin, _) = token.rsplit_once(";a").expect("a resume-after-name token");
    let offset = format!("{pin};o5");

    let unsupported = "['t' = 'x'] sort 'rank'";
    let malformed = "['t' = ]";
    let valid = "['t' = 'x']";
    let mut cases: Vec<(usize, &str, Option<&str>, fn(&SdbError) -> bool)> = Vec::new();
    let invalid_query = |e: &SdbError| matches!(e, SdbError::InvalidQuery { .. });
    let invalid_token = |e: &SdbError| matches!(e, SdbError::InvalidNextToken);
    for api in 0..2 {
        cases.push((api, unsupported, None, invalid_query));
        cases.push((api, malformed, None, invalid_query));
        cases.push((api, valid, Some("garbage"), invalid_token));
        cases.push((api, valid, Some(&offset), invalid_token));
    }
    for (api, expr, token, expected) in cases {
        let (world, db, _) = twin();
        let (untouched, ..) = twin();
        let err = call(&db, api, expr, token).unwrap_err();
        let case = format!("api {api}, {expr:?}, token {token:?}");
        assert!(expected(&err), "{case}: {err:?}");
        assert_eq!(world.meters(), untouched.meters(), "{case}: billed");
        assert_eq!(world.now(), untouched.now(), "{case}: clock moved");
        assert_eq!(world.rand_u64(), untouched.rand_u64(), "{case}: drew");
    }

    // The twins do tell a served call apart.
    let (world, db, token) = twin();
    let (untouched, ..) = twin();
    call(&db, 0, valid, Some(&token)).unwrap();
    assert_ne!(world.meters(), untouched.meters());
    assert_ne!(world.now(), untouched.now());
}

#[test]
fn query_with_attributes_and_filter() {
    let (_, db) = counting();
    db.put_attributes("d", "i", &[add("a", "1"), add("b", "2")])
        .unwrap();
    let r = db
        .query_with_attributes(
            "d",
            Some("['a' = '1']"),
            Some(&["b".to_string()]),
            None,
            None,
        )
        .unwrap();
    assert_eq!(r.items.len(), 1);
    assert_eq!(pairs(&r.items[0].attributes), vec![("b", "2")]);
}

#[test]
fn eventual_consistency_hides_fresh_inserts_sometimes() {
    let (world, db) = eventual(3);
    db.put_attributes("d", "fresh", &[add("t", "x")]).unwrap();
    let mut missed = false;
    for _ in 0..64 {
        if db
            .query("d", Some("['t' = 'x']"), None, None)
            .unwrap()
            .item_names
            .is_empty()
        {
            missed = true;
            break;
        }
    }
    assert!(
        missed,
        "a query right after insert should sometimes miss it (§2.2)"
    );
    world.settle();
    assert_eq!(
        db.query("d", Some("['t' = 'x']"), None, None)
            .unwrap()
            .item_names
            .len(),
        1
    );
}

#[test]
fn billing_records_ops_and_bytes() {
    let (world, db) = counting();
    let before = world.meters();
    db.put_attributes("d", "i", &[add("abc", "defg")]).unwrap();
    let delta = world.meters() - before;
    assert_eq!(delta.op_count(Op::SdbPutAttributes), 1);
    assert_eq!(
        delta.bytes_in(),
        ("abc".len() + "defg".len() + "i".len()) as u64
    );

    let before = world.meters();
    let _ = db.query("d", Some("['abc' = 'defg']"), None, None).unwrap();
    let delta = world.meters() - before;
    assert_eq!(delta.op_count(Op::SdbQuery), 1);
    assert!(delta.bytes_out() > 0);
}

#[test]
fn stored_bytes_gauge_tracks_item_size() {
    let (world, db) = counting();
    db.put_attributes("d", "i", &[add("aa", "bb")]).unwrap();
    assert_eq!(world.meters().stored_bytes(Service::SimpleDb), 4);
    db.delete_attributes("d", "i", None).unwrap();
    assert_eq!(world.meters().stored_bytes(Service::SimpleDb), 0);
}

#[test]
fn clones_share_state() {
    let (_, db) = counting();
    let db2 = db.clone();
    db.put_attributes("d", "i", &[add("a", "1")]).unwrap();
    assert_eq!(db2.get_attributes("d", "i", None).unwrap().len(), 1);
}

// --- sharding ---

fn eventual_sharded(seed: u64, shards: usize) -> (SimWorld, SimpleDb) {
    let world = SimWorld::with_config(SimConfig {
        seed,
        consistency: Consistency::eventual(SimDuration::from_secs(30)),
        latency: LatencyModel::zero(),
        replicas: 3,
    });
    let db = SimpleDb::with_shards(&world, shards);
    db.create_domain("d").unwrap();
    (world, db)
}

#[test]
fn shard_count_defaults_and_clamps() {
    let world = SimWorld::counting();
    assert_eq!(SimpleDb::new(&world).shard_count(), DEFAULT_SHARDS);
    assert_eq!(SimpleDb::with_shards(&world, 0).shard_count(), 1);
    assert_eq!(SimpleDb::with_shards(&world, 7).shard_count(), 7);
    assert_eq!(
        SimpleDb::with_shards(&world, 100_000).shard_count(),
        crate::MAX_SHARDS
    );
}

#[test]
fn point_ops_touch_one_shard_queries_touch_all() {
    let world = SimWorld::counting();
    let db = SimpleDb::with_shards(&world, 4);
    db.create_domain("d").unwrap();
    let before = world.meters();
    db.put_attributes("d", "item", &[add("a", "1")]).unwrap();
    let delta = world.meters() - before;
    let touched: u64 = (0..4)
        .map(|s| delta.shard_op_count(Service::SimpleDb, s))
        .sum();
    assert_eq!(touched, 1, "a put lands on exactly one shard");

    let before = world.meters();
    let _ = db.query("d", None, None, None).unwrap();
    let delta = world.meters() - before;
    for shard in 0..4 {
        assert_eq!(
            delta.shard_op_count(Service::SimpleDb, shard),
            1,
            "a query fans out to shard {shard}"
        );
    }
}

#[test]
fn items_spread_across_shards_and_merge_in_name_order() {
    let (_, db) = counting(); // default 16 shards
    for i in (0..40).rev() {
        db.put_attributes("d", &format!("i{i:02}"), &[add("t", "x")])
            .unwrap();
    }
    let r = db.query("d", None, None, None).unwrap();
    let want: Vec<String> = (0..40).map(|i| format!("i{i:02}")).collect();
    assert_eq!(r.item_names, want, "merge restores global name order");
}

#[test]
fn token_from_a_different_shard_layout_is_rejected() {
    let world = SimWorld::counting();
    let token_from = |shards: usize| {
        let db = SimpleDb::with_shards(&world, shards);
        db.create_domain("d").unwrap();
        for i in 0..10 {
            db.put_attributes("d", &format!("i{i}"), &[add("t", "x")])
                .unwrap();
        }
        db.query("d", None, Some(3), None)
            .unwrap()
            .next_token
            .expect("more pages")
    };
    let two = token_from(2);
    let four = token_from(4);
    // Keeps `s2` but pins id 2, which no 2-shard layout has.
    let foreign = two.replacen(".1:", ".2:", 1);
    assert_ne!(foreign, two);

    for (shards, token) in [(4, &two), (2, &four), (2, &foreign)] {
        let db = SimpleDb::with_shards(&world, shards);
        db.create_domain("d").unwrap();
        db.put_attributes("d", "i", &[add("t", "x")]).unwrap();
        assert!(
            matches!(
                db.query("d", None, Some(3), Some(token)),
                Err(SdbError::InvalidNextToken)
            ),
            "token {token} on {shards} shards"
        );
    }
}

/// Runs one full paginated `Query` scan, mutating the domain between
/// pages with the supplied closure. Returns every name served.
fn scan_with_churn(db: &SimpleDb, page: usize, mut churn: impl FnMut(u32)) -> Vec<String> {
    let mut names = Vec::new();
    let mut token: Option<String> = None;
    let mut round = 0u32;
    loop {
        let r = db
            .query("d", Some("['t' = 'x']"), Some(page), token.as_deref())
            .unwrap();
        names.extend(r.item_names);
        churn(round);
        round += 1;
        match r.next_token {
            Some(t) => token = Some(t),
            None => break,
        }
    }
    names
}

#[test]
fn paginated_query_never_skips_or_duplicates_under_concurrent_writes() {
    // The acceptance bar of the sharding issue: with shards > 1, a full
    // paginated scan must neither duplicate an item name nor miss an
    // item that was visible in the scanned replica view for the whole
    // scan — no matter what is inserted or deleted between pages.
    for seed in [1u64, 7, 23] {
        let (world, db) = eventual_sharded(seed, 8);
        let stable: Vec<String> = (0..40).map(|i| format!("stable{i:02}")).collect();
        for name in &stable {
            db.put_attributes("d", name, &[add("t", "x")]).unwrap();
        }
        // Fully propagated: visible on every replica for the whole scan.
        world.settle();

        let names = scan_with_churn(&db, 7, |round| {
            // Churn both sides of the key space mid-scan, with the same
            // matching attribute so the filter cannot hide mistakes.
            db.put_attributes("d", &format!("aa-churn{round:02}"), &[add("t", "x")])
                .unwrap();
            db.put_attributes("d", &format!("zz-churn{round:02}"), &[add("t", "x")])
                .unwrap();
            db.put_attributes("d", &format!("stable-churn{round:02}"), &[add("t", "x")])
                .unwrap();
            if round > 0 {
                db.delete_attributes("d", &format!("aa-churn{:02}", round - 1), None)
                    .unwrap();
            }
        });

        let mut seen = std::collections::BTreeSet::new();
        for name in &names {
            assert!(seen.insert(name.clone()), "seed {seed}: duplicate {name}");
        }
        for name in &stable {
            assert!(
                seen.contains(name),
                "seed {seed}: stable item {name} skipped"
            );
        }
    }
}

#[test]
fn pinned_replicas_keep_one_scan_on_one_view_per_shard() {
    // A token pins a replica per shard; a scan started after settling
    // must therefore see exactly the settled state even if fresh writes
    // land mid-scan (they may appear, but the settled items cannot
    // flicker out page-to-page under replica resampling).
    let (world, db) = eventual_sharded(5, 4);
    for i in 0..20 {
        db.put_attributes("d", &format!("i{i:02}"), &[add("t", "x")])
            .unwrap();
    }
    world.settle();
    for trial in 0..16 {
        let names = scan_with_churn(&db, 3, |_| {});
        assert_eq!(names.len(), 20, "trial {trial}: settled scan is complete");
    }
}

// --- batch operations ---

mod batch {
    use super::*;
    use crate::{MAX_BATCH_ITEMS, MAX_PAIRS_PER_BATCH};

    fn put_entry(name: &str, n: usize) -> (String, Vec<ReplaceableAttribute>) {
        (
            name.to_string(),
            (0..n)
                .map(|i| ReplaceableAttribute::add(format!("a{i}"), format!("v{i}")))
                .collect(),
        )
    }

    #[test]
    fn batch_put_writes_all_items_in_one_request() {
        let (world, db) = counting();
        let items: Vec<_> = (0..10)
            .map(|i| put_entry(&format!("item{i:02}"), 3))
            .collect();
        let before = world.meters();
        db.batch_put_attributes("d", &items).unwrap();
        let delta = world.meters() - before;
        assert_eq!(delta.op_count(Op::SdbBatchPutAttributes), 1);
        assert_eq!(delta.batch_entry_count(Op::SdbBatchPutAttributes), 10);
        assert_eq!(delta.op_count(Op::SdbPutAttributes), 0);
        for i in 0..10 {
            let attrs = db
                .get_attributes("d", &format!("item{i:02}"), None)
                .unwrap();
            assert_eq!(attrs.len(), 3, "item{i:02}");
        }
    }

    #[test]
    fn batch_put_equals_point_puts_in_final_state() {
        // Same entries through the point API and the batch API must
        // converge to identical store state.
        let (_, point_db) = counting();
        let (_, batch_db) = counting();
        let items: Vec<_> = (0..8).map(|i| put_entry(&format!("f/{i}"), 4)).collect();
        for (name, attrs) in &items {
            point_db.put_attributes("d", name, attrs).unwrap();
        }
        batch_db.batch_put_attributes("d", &items).unwrap();
        assert_eq!(
            point_db.latest_item_names("d"),
            batch_db.latest_item_names("d")
        );
        for (name, _) in &items {
            assert_eq!(
                point_db.latest_item("d", name),
                batch_db.latest_item("d", name),
                "{name}"
            );
        }
    }

    #[test]
    fn batch_put_respects_replace_semantics() {
        let (_, db) = counting();
        db.put_attributes("d", "x", &[ReplaceableAttribute::add("k", "old")])
            .unwrap();
        db.batch_put_attributes(
            "d",
            &[(
                "x".to_string(),
                vec![
                    ReplaceableAttribute::replace("k", "new1"),
                    ReplaceableAttribute::add("k", "new2"),
                ],
            )],
        )
        .unwrap();
        let got = db.latest_item("d", "x").unwrap();
        assert_eq!(pairs(&got), vec![("k", "new1"), ("k", "new2")]);
    }

    #[test]
    fn batch_shape_violations_mutate_nothing() {
        let (world, db) = counting();
        let before = world.meters();
        assert_eq!(db.batch_put_attributes("d", &[]), Err(SdbError::EmptyBatch));
        let too_many: Vec<_> = (0..MAX_BATCH_ITEMS + 1)
            .map(|i| put_entry(&format!("i{i}"), 1))
            .collect();
        assert_eq!(
            db.batch_put_attributes("d", &too_many),
            Err(SdbError::TooManyItemsInBatch {
                submitted: MAX_BATCH_ITEMS + 1
            })
        );
        let dup = vec![put_entry("same", 1), put_entry("same", 2)];
        assert_eq!(
            db.batch_put_attributes("d", &dup),
            Err(SdbError::DuplicateItemInBatch {
                item: "same".to_string()
            })
        );
        // Two items x 130 attrs = 260 > 256 total.
        let heavy = vec![put_entry("a", 130), put_entry("b", 130)];
        assert_eq!(
            db.batch_put_attributes("d", &heavy),
            Err(SdbError::TooManyAttributesInBatch { submitted: 260 })
        );
        assert_eq!(
            db.batch_put_attributes("nope", &[put_entry("a", 1)]),
            Err(SdbError::NoSuchDomain {
                domain: "nope".to_string()
            })
        );
        let delta = world.meters() - before;
        assert_eq!(delta.total_ops(), 0, "rejected batches leave no trace");
        assert!(db.latest_item_names("d").is_empty());
        assert_eq!(world.meters().stored_bytes(Service::SimpleDb), 0);
    }

    #[test]
    fn rejected_batch_applies_no_entries() {
        // The satellite regression: one entry would push an item past
        // the 256-pair limit — the *whole* batch must be a no-op,
        // including the entries that were individually fine.
        let (world, db) = counting();
        // Pre-fill "full" with 250 pairs through the point API.
        let mut pre: Vec<ReplaceableAttribute> = (0..250)
            .map(|i| ReplaceableAttribute::add(format!("p{i:03}"), "v"))
            .collect();
        for chunk in pre.chunks(100) {
            db.put_attributes("d", "full", chunk).unwrap();
        }
        let stored_before = world.meters().stored_bytes(Service::SimpleDb);
        let ops_before = world.meters();
        // "fresh" is fine on its own; "full" + 10 more pairs is not.
        let batch = vec![
            put_entry("fresh", 2),
            (
                "full".to_string(),
                (0..10)
                    .map(|i| ReplaceableAttribute::add(format!("q{i}"), "w"))
                    .collect(),
            ),
        ];
        let err = db.batch_put_attributes("d", &batch).unwrap_err();
        assert!(
            matches!(err, SdbError::TooManyAttributesOnItem { ref item, pairs } if item == "full" && pairs == 260),
            "{err:?}"
        );
        assert!(
            db.latest_item("d", "fresh").is_none(),
            "no entry of a rejected batch may apply"
        );
        assert_eq!(db.latest_item("d", "full").unwrap().len(), 250);
        assert_eq!(
            world.meters().stored_bytes(Service::SimpleDb),
            stored_before
        );
        let delta = world.meters() - ops_before;
        assert_eq!(delta.total_ops(), 0);
        pre.truncate(0);
    }

    #[test]
    fn batch_pairs_cap_admits_a_full_single_item() {
        // A single 256-pair item is exactly one legal batch.
        let (_, db) = counting();
        let entry = put_entry("big", MAX_PAIRS_PER_BATCH);
        db.batch_put_attributes("d", std::slice::from_ref(&entry))
            .unwrap();
        assert_eq!(db.latest_item("d", "big").unwrap().len(), 256);
    }

    #[test]
    fn batch_put_is_cheaper_than_point_puts_in_virtual_time() {
        let elapsed = |batched: bool| {
            let world = SimWorld::new(77);
            let db = SimpleDb::new(&world);
            db.create_domain("d").unwrap();
            let items: Vec<_> = (0..20).map(|i| put_entry(&format!("t{i:02}"), 3)).collect();
            let t0 = world.now();
            if batched {
                for chunk in items.chunks(MAX_BATCH_ITEMS) {
                    db.batch_put_attributes("d", chunk).unwrap();
                }
            } else {
                for (name, attrs) in &items {
                    db.put_attributes("d", name, attrs).unwrap();
                }
            }
            (world.now() - t0).as_micros()
        };
        let point = elapsed(false);
        let batch = elapsed(true);
        assert!(
            batch * 2 < point,
            "batch {batch}µs must undercut point puts {point}µs by >2x"
        );
    }
}

mod sharing {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;
    use crate::ItemState;

    const ITEMS: [&str; 3] = ["i0", "i1", "i2"];
    const NAMES: [&str; 3] = ["a", "b", "c"];
    const VALUES: [&str; 4] = ["1", "2", "3", "4"];

    /// An answer, beside the pairs it held when it was read.
    fn snapshot(answer: &ItemState) -> (ItemState, BTreeSet<(String, String)>) {
        let owned = pairs(answer).into_iter();
        let owned = owned.map(|(n, v)| (n.to_string(), v.to_string()));
        (answer.clone(), owned.collect())
    }

    // Every read hands out the stored slice itself, so a write that edited
    // a slice in place would show through each answer read before it.
    // Random puts, replaces, deletes and batch puts, each preceded by a read
    // of every item through `GetAttributes` and `QueryWithAttributes`:
    // after each op, every answer read so far still holds exactly the pairs
    // it was read with.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn an_answer_keeps_the_pairs_it_was_read_with(
            ops in proptest::collection::vec(
                (0u8..4, 0usize..3, proptest::collection::vec((0usize..3, 0usize..4), 1..4)),
                1..20,
            ),
        ) {
            let (_, db) = counting();
            let mut answers = Vec::new();
            for (kind, item, picks) in ops {
                for name in ITEMS {
                    answers.push(snapshot(&db.get_attributes("d", name, None).unwrap()));
                }
                let query = db.query_with_attributes("d", None, None, None, None).unwrap();
                answers.extend(query.items.iter().map(|row| snapshot(&row.attributes)));

                let attrs: Vec<ReplaceableAttribute> = picks
                    .iter()
                    .map(|&(n, v)| ReplaceableAttribute {
                        name: NAMES[n].into(),
                        value: VALUES[v].into(),
                        replace: kind == 1,
                    })
                    .collect();
                match kind {
                    0 | 1 => db.put_attributes("d", ITEMS[item], &attrs).unwrap(),
                    2 => {
                        let spec = |&(n, v): &(usize, usize)| match v {
                            0 => DeletableAttribute::all_of(NAMES[n]),
                            _ => DeletableAttribute::pair(NAMES[n], VALUES[v]),
                        };
                        let specs: Vec<_> = picks.iter().map(spec).collect();
                        db.delete_attributes("d", ITEMS[item], Some(&specs)).unwrap();
                    }
                    _ => {
                        let entry = |name: &str| (name.to_string(), attrs.clone());
                        let batch: Vec<_> = ITEMS.iter().map(|name| entry(name)).collect();
                        db.batch_put_attributes("d", &batch).unwrap();
                    }
                }
                for (answer, held) in &answers {
                    prop_assert_eq!(&snapshot(answer).1, held);
                }
            }
        }
    }
}
