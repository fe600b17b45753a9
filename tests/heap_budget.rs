//! What a stored record costs in heap, by layer.
//!
//! The benchmark's `live_heap_mib` is an end-to-end figure with a 10 %
//! bound; it cannot say *which* layer grew. This test can: it counts the
//! bytes the process holds allocated (requested sizes, through a wrapper
//! around the system allocator) before and after a store takes a known
//! number of records, with everything but the store dropped, and holds
//! the difference per record to a budget. The simulated services keep
//! every item, object and message on the heap, so that difference is
//! their representation: pairs, cells, metadata. Around the same runs it
//! counts allocator calls, per record written and per query answered.
//! Every figure is printed to stderr beside its budget, so `cargo test
//! --release --test heap_budget -- --nocapture` reads them all, pass or
//! fail.
//!
//! Every measurement lives in one `#[test]`: the counters are
//! process-wide, and a second test running beside it would be counted
//! too.

// The workspace denies `unsafe`; a `GlobalAlloc` cannot be written
// without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pass::{FileFlush, Observer, TraceEvent};
use provenance_cloud::{
    Arch2Config, Arch3Config, ClosureMode, ProvQuery, S3SimpleDb, S3SimpleDbSqs, ServeHandle,
    Serveable,
};
use simworld::{splitmix64, Blob, SimWorld};

/// Bytes requested from the system allocator and not yet given back.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Calls that asked the system allocator for memory (`alloc` + `realloc`).
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is handed to `System` unchanged, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and touches no
// memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let block = unsafe { System.alloc(layout) };
        CALLS.fetch_add(1, Ordering::Relaxed);
        if !block.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        block
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        // SAFETY: `block` came from `alloc`/`realloc` above, which is to
        // say from `System`, with this `layout`.
        unsafe { System.dealloc(block, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let moved = unsafe { System.realloc(block, layout, new_size) };
        CALLS.fetch_add(1, Ordering::Relaxed);
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const STAGES: usize = 4;

/// One pipeline shaped like the benchmark's `corpus_std`: a 2 KiB source,
/// then four stages, each a process that reads the previous file and
/// writes a 1 KiB one — nine flushes, a program shared by every fifth
/// pipeline of a group of 80.
fn pipeline(p: usize, seed: &mut u64) -> Vec<FileFlush> {
    let mut observer = Observer::new();
    let mut flushes = Vec::new();
    let mut feed = |event| flushes.extend(observer.observe(event).expect("a well-formed trace"));
    let mut prev = format!("p{p}/in.dat");
    feed(TraceEvent::source(
        &prev,
        Blob::synthetic(splitmix64(seed), 2048),
    ));
    for stage in 0..STAGES {
        let pid = (p * STAGES + stage) as u32 + 1;
        let exe = format!("s{stage}g{}", p % 80);
        let next = format!("p{p}/f{stage}.dat");
        feed(TraceEvent::exec(
            pid,
            &exe,
            format!("{exe} {prev}"),
            "PATH=/bin",
            None,
        ));
        feed(TraceEvent::read(pid, &prev));
        feed(TraceEvent::write(pid, &next));
        feed(TraceEvent::close(
            pid,
            &next,
            Blob::synthetic(splitmix64(seed), 1024),
        ));
        feed(TraceEvent::exit(pid));
        prev = next;
    }
    flushes
}

/// Bytes the store behind `handle` holds once `fill` has run and all it
/// allocated for itself is dropped.
fn held_by_store(build: impl FnOnce() -> ServeHandle, fill: impl FnOnce(&ServeHandle)) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    let handle = build();
    fill(&handle);
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    drop(handle);
    held
}

/// Allocator calls made while `work` runs.
fn calls_in(work: impl FnOnce()) -> usize {
    let before = CALLS.load(Ordering::Relaxed);
    work();
    CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn a_stored_record_stays_within_its_heap_budget() {
    // arch3, the `ingest_wal` shape: point records through the WAL, a
    // flush (commit-daemon drain) every 64. 2 000 records and up.
    // Measured 1 028 B; 1 083 B (at `50e0319`, where this test fails)
    // while every name and value of an item or of metadata was a box of
    // its own; 1 108 B earlier; 1 092 B before an item's shared slice
    // carried its reference counts; 4 289 B when an item was a map of
    // sets, a cell a `Vec` of writes and metadata a map.
    const RECORD_BUDGET: usize = 1_060;
    // The same run also counts allocator calls: what the write path costs
    // in `malloc`s, where the bytes above are what it leaves behind. A
    // record is logged by `record` and applied by its share of a `flush`.
    // Measured 100.3 (40.0 + 60.4); 102.5 (42.2 + 60.4, at `a507526`,
    // where this test fails) while each digest of a synthetic blob
    // allocated a buffer per 8 KiB step; 110.1 (42.2 + 67.9, at
    // `50e0319`) while a put boxed every name and value it stored; 114.1
    // (43.2 + 70.9, at `6ec1513`) while every write carried a `Vec` of
    // one visibility instant per replica, strong world or not;
    // 114.4 (43.2 + 71.3) while a put gathered its pairs in a growing
    // `Vec`; 179.4 (83.6 + 95.8) while SQS built three `Vec`s per send,
    // formatted every id and handle and copied each body out per delivery,
    // `chunk_pairs` copied its pairs, S3 looked keys up by
    // `key.to_string()` and the daemon cloned each data object's metadata
    // per copy; 394.2 (234.6 + 159.6) when the WAL codec built a
    // `Vec<String>` per record, the chunker trial-encoded per pair and the
    // daemon cloned what it had decoded.
    const CALL_BUDGET: usize = 102;
    let mut records = 0usize;
    let (mut record_calls, mut flush_calls) = (0usize, 0usize);
    let arch3 = || {
        let world = SimWorld::counting();
        let mut store = S3SimpleDbSqs::new(&world, "budget");
        store.set_config(Arch3Config {
            closure: ClosureMode::Off,
            ..Arch3Config::default()
        });
        ServeHandle::new(store)
    };
    let held = held_by_store(arch3, |handle| {
        let mut seed = 7u64;
        for p in 0.. {
            for flush in pipeline(p, &mut seed) {
                record_calls += calls_in(|| handle.record(&flush).expect("record"));
                records += 1;
                if records.is_multiple_of(64) {
                    flush_calls += calls_in(|| handle.flush().expect("flush"));
                }
            }
            if records >= 2_000 {
                break;
            }
        }
        flush_calls += calls_in(|| handle.flush().expect("flush"));
    });
    let per_record = held / records;
    let per = |calls: usize| calls as f64 / records as f64;
    eprintln!(
        "arch3: {per_record} B per record ({held} B / {records}), budget {RECORD_BUDGET}; \
         {:.1} allocator calls per record (record {:.1} + flush {:.1}), budget {CALL_BUDGET}",
        per(record_calls + flush_calls),
        per(record_calls),
        per(flush_calls),
    );
    assert!(
        per_record <= RECORD_BUDGET,
        "arch3 holds {per_record} B per record ({held} B / {records}), budget {RECORD_BUDGET}"
    );
    assert!(
        record_calls + flush_calls <= CALL_BUDGET * records,
        "arch3 makes {:.1} allocator calls per record (record {:.1} + flush {:.1}, {records} \
         records), budget {CALL_BUDGET}",
        per(record_calls + flush_calls),
        per(record_calls),
        per(flush_calls),
    );

    // arch2 with the closure served, the `mixed_closure` preload shape:
    // 100 pipelines in batches, then the index read back. An item here
    // is one flush: its object, its provenance item, its closure rows
    // and their postings. Measured 2 824 B (every item's pairs one packed
    // text and one table of offsets); 2 886 B (at `50e0319`, where this
    // test fails) while each name and value was a box of its own, with
    // the indexer's cache an id list per node and the postings one table
    // per domain; 3 140 B while it kept a `BTreeSet<String>` of renders
    // per node (the items' shared slices carry their reference counts);
    // 3 047 B with unshared ones; 10 654 B before.
    const ITEM_BUDGET: usize = 2_860;
    // The same run counts allocator calls per record around each
    // `record_batch`: the plain arch2 write plus the closure maintenance
    // of its group. Measured 107.8; 110.0 (at `a507526`, where this test
    // fails) while each digest of a synthetic blob allocated a buffer per
    // 8 KiB step; 120.7 (at `50e0319`) while a batch put boxed every name
    // and value it stored; 128.3 (at `6ec1513`) while each write carried
    // a `Vec` of visibility instants and each lookup's parse three copies
    // per term; 239.1 (at `f276dc7`; 44.5 of them the plain write) while
    // the indexer computed on strings — ancestor sets as
    // `BTreeSet<String>`s cloned at every step, each edge re-parsed and
    // re-rendered per pass, the emitted rows gathered in a map of sets —
    // and the write side cloned every item's attributes for it.
    const INDEXED_CALL_BUDGET: usize = 109;
    let mut items = 0usize;
    let mut batch_calls = 0usize;
    // The walk oracle and a second handle share the store's services and
    // allocate nothing of their own; they keep the store for the read
    // path's count below.
    let (mut walk, mut kept) = (None, None);
    let arch2 = || {
        let world = SimWorld::counting();
        let mut store = S3SimpleDb::new(&world);
        store.set_config(Arch2Config {
            closure: ClosureMode::Serve,
            ..Arch2Config::default()
        });
        walk = Some(store.serve_parts().walking());
        ServeHandle::new(store)
    };
    let held = held_by_store(arch2, |handle| {
        let mut seed = 7u64;
        for p in 0..100 {
            let flushes = pipeline(p, &mut seed);
            batch_calls += calls_in(|| handle.record_batch(&flushes).expect("record_batch"));
            items += flushes.len();
        }
        for stage in 0..STAGES {
            let program = format!("s{stage}g0");
            let q3 = ProvQuery::DescendantsOf { program };
            let answer = handle.query(&q3).expect("index-served Q3");
            assert!(!answer.items.is_empty() || stage == STAGES - 1);
        }
        kept = Some(handle.clone());
    });
    let per_item = held / items;
    let per_batched = batch_calls as f64 / items as f64;
    eprintln!(
        "arch2 + closure: {per_item} B per item ({held} B / {items}), budget {ITEM_BUDGET}; \
         {per_batched:.1} allocator calls per record, budget {INDEXED_CALL_BUDGET}"
    );
    assert!(
        per_item <= ITEM_BUDGET,
        "arch2 + closure holds {per_item} B per item ({held} B / {items}), budget {ITEM_BUDGET}"
    );
    assert!(
        batch_calls <= INDEXED_CALL_BUDGET * items,
        "arch2 + closure makes {per_batched:.1} allocator calls per record ({items} records), \
         budget {INDEXED_CALL_BUDGET}"
    );

    // The read path on that corpus: allocator calls per query, for the
    // 20 programs of each stage that two pipelines run, once every
    // attribute's postings are built. Q2 is two posted lookups; a
    // walk-served Q3 one more per descendant; an index-served Q3 three
    // lookups and one `GetAttributes` per descendant. Measured 61.0 /
    // 233.7 / 149.4; 73.0 / 273.7 / 169.4 (at `6ec1513`, where this test
    // fails) while the parser copied each term's attribute, value and
    // comparison list apart, a page weighed a buffer per shard and pair,
    // pinned its replicas through two `Vec`s and merged even a one-pair
    // cover through a `Vec` of heads; 121.0 / 442.3 / 263.4 (at `b8cc04f`, where this test
    // fails) while every read copied each returned pair into an owned
    // `Attribute`, the decode copied each value again and the walk cloned
    // every answer's `ObjectRef` into a `visited` set; 222.0 / 830.3 /
    // 449.5 while the lexer built a `String` per token and the parser
    // cloned it, `matches` evaluated every term, a replica pin was a
    // `BTreeMap`, a cover a `Vec` per pair, the merge cloned a cursor key
    // per fetch and each expression was joined from `format!`ed terms.
    const Q2_BUDGET: usize = 67;
    const Q3_WALK_BUDGET: usize = 257;
    const Q3_INDEX_BUDGET: usize = 164;
    let (walk, index) = (walk.expect("built"), kept.expect("filled"));
    let programs =
        |stages: usize| (0..stages).flat_map(|s| (0..20).map(move |g| format!("s{s}g{g}")));
    let q2s: Vec<_> = programs(STAGES)
        .map(|program| ProvQuery::OutputsOf { program })
        .collect();
    // The last stage's outputs have no descendants.
    let q3s: Vec<_> = programs(STAGES - 1)
        .map(|program| ProvQuery::DescendantsOf { program })
        .collect();
    let by_handle = |q: &ProvQuery| assert!(!index.query(q).expect("served").is_empty());
    let by_walk = |q: &ProvQuery| assert!(!walk.query(q).expect("walk").is_empty());
    let per_query = |queries: &[ProvQuery], engine: &dyn Fn(&ProvQuery)| {
        queries.iter().for_each(engine);
        calls_in(|| queries.iter().for_each(engine)) as f64 / queries.len() as f64
    };
    for (what, calls, budget) in [
        ("Q2", per_query(&q2s, &by_handle), Q2_BUDGET),
        ("walk-served Q3", per_query(&q3s, &by_walk), Q3_WALK_BUDGET),
        (
            "index-served Q3",
            per_query(&q3s, &by_handle),
            Q3_INDEX_BUDGET,
        ),
    ] {
        eprintln!("{what}: {calls:.1} allocator calls per query, budget {budget}");
        assert!(
            calls <= budget as f64,
            "{what} makes {calls:.1} allocator calls per query, budget {budget}"
        );
    }

    // The store fingerprint on that corpus: the running digest of each
    // shard of both domains and the bucket, less a range over each bucket
    // shard's `tmp/` keys. Measured 0; 7 071 at `bc18941`, where this test
    // fails, while it collected and sorted every key, cloned every item
    // and object and rendered each ETag to hex.
    const FINGERPRINT_CALL_BUDGET: usize = 0;
    let fingerprint_calls = calls_in(|| {
        std::hint::black_box(index.fingerprint());
    });
    eprintln!(
        "fingerprint: {fingerprint_calls} allocator calls per read, \
         budget {FINGERPRINT_CALL_BUDGET}"
    );
    // The budget is none at all, so "within" is "equal".
    assert_eq!(
        fingerprint_calls, FINGERPRINT_CALL_BUDGET,
        "a fingerprint read makes {fingerprint_calls} allocator calls, \
         budget {FINGERPRINT_CALL_BUDGET}"
    );

    // Both digests of a synthetic blob — S3's ETag and the client's
    // `MD5(data ‖ nonce)` — empty, on either side of a block, past 8 KiB
    // and at 1 MiB. Measured 0; at `a507526`, where this test fails, each
    // digest allocated and filled a buffer per 8 KiB step of the blob.
    const DIGEST_CALL_BUDGET: usize = 0;
    for len in [0, 63, 1_024, 2_048, 8_193, 1 << 20] {
        let blob = Blob::synthetic(11, len);
        let digest_calls = calls_in(|| {
            std::hint::black_box(blob.md5());
            std::hint::black_box(blob.md5_with_suffix(b"nonce"));
        });
        eprintln!(
            "digest: {digest_calls} allocator calls for both digests of {len} B, \
             budget {DIGEST_CALL_BUDGET}"
        );
        assert_eq!(
            digest_calls, DIGEST_CALL_BUDGET,
            "both digests of a {len} B synthetic blob make {digest_calls} allocator calls, \
             budget {DIGEST_CALL_BUDGET}"
        );
    }
}
