//! Determinism pin for the modelled SimpleDB service.
//!
//! The attribute postings under `Query` change *where candidates
//! come from*, never what the service models: answers, `next_token`s,
//! meters, virtual time and every request's latency sample must all be
//! exactly what a full scan of every shard produced. This test replays a
//! fixed script on an eventually-consistent world and compares a digest
//! of everything observable against constants captured on the commit
//! before postings existed (b63e004).
//!
//! A query's `scanned` count is the `rows` of its `Cost::Scan` charge,
//! which feeds the scan term of the latency model, so every query's
//! examined-cell count is folded into the final clock and the
//! completion instants of the samples.
//!
//! Both digests were re-derived when the world's event trace was
//! deleted: a transcript now ends with one `sample` line per charged
//! request (in issue order) where it ended with one `event` line per
//! fired completion. The new lengths and hashes are what `19e986f`
//! (which still had the trace) prints for the transcript with that one
//! edit; the line counts and the final clocks did not move.
//!
//! Both were re-captured again when hot-shard splitting was deleted:
//! the sweeps lost the force-split after the second page of one walk
//! per phase, so those walks and every later request run on the fixed
//! layout. The constants are what `1edd029` (which still split) prints
//! for the transcripts with the split steps dropped.
//!
//! Both lengths and hashes were re-derived when provider rate limiting
//! was deleted: each meters line lost its always-zero 503 counter and
//! each sample line its always-zero client id. The new pairs are what
//! `25e0a0b` prints with those two fields' text cut from the
//! transcript; the line counts and the final clocks did not move.
//!
//! Both were re-captured once more when `Select` was deleted: each sweep
//! lost its `Select` walks (the thirteen statements of the scripted run,
//! the three small-page ones of the covered run), so their page lines,
//! their charges and their replica and latency draws are gone and every
//! later request sees the shorter stream. The constants are what
//! `dcecb7f`, which still had `Select`, prints for the transcripts with
//! those walks dropped.

use std::fmt::Write as _;

use sim_simpledb::{DeletableAttribute, ReplaceableAttribute, ResultItem, SimpleDb};
use simworld::{fnv1a_64, Consistency, LatencyModel, SimConfig, SimDuration, SimWorld};

const ITEMS: usize = 120;

/// Bracket-language expressions; `None` is the match-all query.
const QUERIES: &[Option<&str>] = &[
    // Equality covers: served from postings.
    Some("['type' = 'process']"),
    Some("['type' = 'process'] intersection ['name' = 'n3']"),
    Some("['input' = 'i005'] union ['input' = 'i010'] union ['input' = 'i115']"),
    Some("['name' = 'n1' or 'name' = 'n2']"),
    Some("['name' = 'n1' and 'name' = 'n2']"),
    Some("['type' = 'file'] intersection not ['name' = 'n3']"),
    Some("['name' = 'n4' and 'name' starts-with 'n']"),
    Some("['name' = 'absent']"),
    // No cover: the scan serves these.
    None,
    Some("not ['type' = 'file']"),
    Some("['name' starts-with 'n']"),
    Some("['rank' > '4']"),
    Some("['type' = 'file'] union ['rank' > '7']"),
    Some("['type' = 'process'] union not ['name' = 'n3']"),
];

/// Covered expressions for the small-page walks over 16 shards, where
/// most shards post nothing under the cover and, from the second page
/// on, sit behind a cursor: what a page charges for them is pinned here.
const COVERED: &[&str] = &[
    "['input' = 'i005']",
    "['type' = 'process'] intersection ['name' = 'n3']",
    "['input' = 'i005'] union ['input' = 'i010'] union ['input' = 'i115'] \
     union ['input' = 'i001'] union ['input' = 'i002']",
    "['name' = 'n1' or 'name' = 'n2']",
    "['type' = 'file'] intersection not ['name' = 'n3']",
    "['name' = 'absent']",
];

fn item_name(k: usize) -> String {
    format!("i{k:03}")
}

fn add(name: &str, value: impl Into<String>) -> ReplaceableAttribute {
    ReplaceableAttribute::add(name, value)
}

fn seed_items(db: &SimpleDb) {
    for k in 0..ITEMS {
        let mut attrs = vec![
            add("type", if k % 3 == 0 { "process" } else { "file" }),
            add("name", format!("n{}", k % 7)),
            add("input", item_name((k * 5) % ITEMS)),
            add("rank", (k % 10).to_string()),
        ];
        if k % 4 == 1 {
            attrs.push(add("input", item_name((k * 7 + 3) % ITEMS)));
        }
        db.put_attributes("d", &item_name(k), &attrs).unwrap();
    }
}

/// Overwrites and deletes issued while earlier writes are still
/// propagating, so some replicas keep serving the older state: an item
/// may match a query only through a write that is no longer its newest.
fn churn(db: &SimpleDb, round: usize) {
    for k in (round..ITEMS).step_by(4) {
        db.put_attributes(
            "d",
            &item_name(k),
            &[ReplaceableAttribute::replace(
                "name",
                format!("n{}", (k + round + 1) % 7),
            )],
        )
        .unwrap();
    }
    for k in (round..ITEMS).step_by(9) {
        db.delete_attributes("d", &item_name(k), None).unwrap();
    }
    for k in (round + 2..ITEMS).step_by(11) {
        db.delete_attributes(
            "d",
            &item_name(k),
            Some(&[DeletableAttribute::all_of("type")]),
        )
        .unwrap();
    }
    let batch: Vec<(String, Vec<ReplaceableAttribute>)> = (0..10)
        .map(|j| {
            let k = (round * 10 + j * 13) % ITEMS;
            (
                item_name(k),
                vec![
                    add("type", "file"),
                    add("name", "n2"),
                    add("input", item_name(j)),
                ],
            )
        })
        // A batch may name an item once: let the map drop the repeats.
        .collect::<std::collections::BTreeMap<_, _>>()
        .into_iter()
        .collect();
    db.batch_put_attributes("d", &batch).unwrap();
}

/// `items` in the text the digests were captured over: the `Debug` of a
/// `Vec<ResultItem>` when each item carried its pairs as a
/// `Vec<Attribute { name, value }>`.
fn render(items: &[ResultItem]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        write!(
            out,
            "{sep}ResultItem {{ name: {:?}, attributes: [",
            item.name
        )
        .unwrap();
        for (j, p) in item.attributes.iter().enumerate() {
            let sep = if j > 0 { ", " } else { "" };
            let (name, value) = (&p.name, &p.value);
            write!(out, "{sep}Attribute {{ name: {name:?}, value: {value:?} }}").unwrap();
        }
        out.push_str("] }");
    }
    out.push(']');
    out
}

/// Pages `fetch` to the end, logging every page.
fn walk(
    log: &mut String,
    label: &str,
    mut fetch: impl FnMut(Option<&str>) -> (String, Option<String>),
) {
    let mut token: Option<String> = None;
    for page in 0.. {
        let (rendered, next) = fetch(token.as_deref());
        writeln!(log, "{label} p{page}: {rendered} -> {next:?}").unwrap();
        match next {
            Some(t) => token = Some(t),
            None => break,
        }
    }
}

fn query_sweep(log: &mut String, db: &SimpleDb, phase: &str) {
    for (qi, expr) in QUERIES.iter().enumerate() {
        for max_items in [1usize, 7, 250] {
            // The one-item walks are long; keep them to a few shapes.
            if max_items == 1 && qi % 4 != 1 {
                continue;
            }
            walk(
                log,
                &format!("{phase} query#{qi} max{max_items}"),
                |token| {
                    let r = db.query("d", *expr, Some(max_items), token).unwrap();
                    (r.item_names.join(","), r.next_token)
                },
            );
        }
        let filter = ["name".to_string(), "input".to_string()];
        walk(log, &format!("{phase} qwa#{qi}"), |token| {
            let r = db
                .query_with_attributes("d", *expr, Some(&filter), Some(40), token)
                .unwrap();
            (render(&r.items), r.next_token)
        });
    }
}

fn covered_sweep(log: &mut String, db: &SimpleDb, phase: &str) {
    for (qi, expr) in COVERED.iter().enumerate() {
        for max_items in [1usize, 2, 3] {
            walk(
                log,
                &format!("{phase} covered#{qi} max{max_items}"),
                |token| {
                    let r = db.query("d", Some(expr), Some(max_items), token).unwrap();
                    (r.item_names.join(","), r.next_token)
                },
            );
        }
        walk(log, &format!("{phase} covered qwa#{qi}"), |token| {
            let r = db
                .query_with_attributes("d", Some(expr), None, Some(2), token)
                .unwrap();
            (render(&r.items), r.next_token)
        });
    }
}

type Sweep = fn(&mut String, &SimpleDb, &str);

fn transcript(shards: usize, sweep: Sweep) -> (String, SimWorld) {
    let world = SimWorld::with_config(SimConfig {
        seed: 2009,
        consistency: Consistency::eventual(SimDuration::from_secs(30)),
        latency: LatencyModel::default(),
        replicas: 3,
    });
    world.enable_latency_samples();
    let db = SimpleDb::with_shards(&world, shards);
    db.create_domain("d").unwrap();
    let mut log = String::new();

    seed_items(&db);
    churn(&db, 0);
    // Everything above is at most ~10 virtual seconds old: replicas
    // disagree, and older writes still serve.
    sweep(&mut log, &db, "fresh");
    churn(&db, 1);
    world.advance(SimDuration::from_secs(12));
    sweep(&mut log, &db, "lagging");
    churn(&db, 2);
    world.settle();
    sweep(&mut log, &db, "settled");

    writeln!(log, "shards {:?}", db.domain_shard_ids("d")).unwrap();
    writeln!(log, "meters {:?}", world.meters()).unwrap();
    writeln!(log, "clock {:?}", world.now()).unwrap();
    for sample in world.take_latency_samples() {
        writeln!(log, "sample {sample:?}").unwrap();
    }
    (log, world)
}

#[test]
fn scripted_run_matches_the_scan_era_constants() {
    let (log, world) = transcript(4, query_sweep);
    let digest = (log.lines().count(), log.len(), fnv1a_64(&log));
    // Captured on the parent commit (full-scan Query/Select). A change
    // here means the *modelled service* moved — an answer, a token, a
    // meter, a latency draw or a scan charge — not merely its speed.
    assert_eq!(
        (digest, world.now().as_micros()),
        ((2030, 435_688, 12_328_744_971_591_414_038), 111_319_363),
        "SimpleDB's observable behaviour diverged from the pinned script"
    );
}

#[test]
fn covered_small_page_walks_match_the_fetch_everywhere_constants() {
    let (log, world) = transcript(16, covered_sweep);
    let digest = (log.lines().count(), log.len(), fnv1a_64(&log));
    // Captured on 64e282d, where a covered page still derived its cover
    // and fetched on every shard.
    assert_eq!(
        (digest, world.now().as_micros()),
        ((1862, 295_230, 1_885_431_362_567_209_290), 106_043_422),
        "covered pagination diverged from the pinned script"
    );
}
