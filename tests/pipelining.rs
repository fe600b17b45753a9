//! The pipelined persist path, end to end: driving arch2/arch3 through
//! `persist_groups` inside a pipeline region must produce
//! **byte-identical** final store state and provenance graph to the
//! synchronous batch path — while virtual completion time strictly
//! falls as the in-flight depth rises, and the per-request log replays
//! bit-for-bit at a fixed seed.
//! This is the acceptance bar of the pipelining issue; `BASELINE.md`
//! records the medium-scale depth sweep.
//!
//! Every run takes one depth policy, `Option<AdaptiveDepth>`: `None` is
//! the synchronous client / serial daemon, `AdaptiveDepth::fixed(n)` a
//! fixed depth, `AdaptiveDepth::new()` the AIMD controller.

use pass_cloud::cloud::{
    layout, persist_groups, store_fingerprint, Arch3Config, ProvGraph, ProvQuery, ProvenanceStore,
    S3SimpleDb, S3SimpleDbSqs,
};
use pass_cloud::simworld::{fnv1a_64, AdaptiveDepth, SimDuration, SimWorld};
use pass_cloud::workloads::Combined;
// The bench harness owns the priced world; reusing it keeps the
// acceptance test and the BASELINE sweep measuring identical
// quantities.
use prov_bench::harness::priced_world;

fn graph_of(store: &mut dyn ProvenanceStore) -> ProvGraph {
    ProvGraph::from_answer(&store.query(&ProvQuery::ProvenanceOfAll).unwrap())
}

/// What a run's schedule came to: the virtual clock (µs), the billable
/// requests, and an FNV-1a digest of their latency samples.
type Pin = (u64, u64, u64);

fn pin_of(world: &SimWorld) -> Pin {
    (
        world.now().as_micros(),
        world.meters().total_ops(),
        fnv1a_64(&format!("{:?}", world.take_latency_samples())),
    )
}

fn sampled_world() -> SimWorld {
    let world = priced_world(2009);
    world.enable_latency_samples();
    world
}

/// One run of the combined workload, reduced to what the tests compare.
struct Run {
    /// The authoritative fingerprint (every durable S3 object and
    /// SimpleDB item) plus the `tmp/` residue, which the fingerprint
    /// excludes by design. Pipelined and synchronous runs draw the
    /// identical seeded RNG stream (same ops, same order), so even
    /// arch3's random transaction ids line up and the temporaries
    /// compare key for key.
    state: (u64, Vec<String>),
    graph: ProvGraph,
    elapsed: SimDuration,
    pin: Pin,
}

/// Persists `Combined::small` in groups of 25 under the `client` depth
/// policy and drains the daemons. Every run of one comparison cuts the
/// same groups, so only the overlap differs.
fn run(
    world: &SimWorld,
    store: &mut dyn ProvenanceStore,
    (s3, db): (pass_cloud::s3::S3, pass_cloud::simpledb::SimpleDb),
    mut client: Option<AdaptiveDepth>,
) -> Run {
    let (flushes, _) = Combined::small().flushes();
    let t0 = world.now();
    persist_groups(world, store, &flushes, 25, client.as_mut()).unwrap();
    store.run_daemons_until_idle().unwrap();
    let elapsed = world.now() - t0;
    let pin = pin_of(world);
    world.settle();
    Run {
        state: (
            store_fingerprint(&s3, &db),
            s3.latest_keys(layout::BUCKET, layout::TMP_PREFIX),
        ),
        graph: graph_of(store),
        elapsed,
        pin,
    }
}

fn run_arch2(depth: Option<AdaptiveDepth>) -> Run {
    let world = sampled_world();
    let mut store = S3SimpleDb::new(&world);
    let services = (store.s3().clone(), store.simpledb().clone());
    run(&world, &mut store, services, depth)
}

/// The client persists under `client`, the commit daemon steps under
/// `daemon` (`None` is the pre-pipelining behaviour).
fn run_arch3(client: Option<AdaptiveDepth>, daemon: Option<AdaptiveDepth>) -> Run {
    let world = sampled_world();
    let mut store = S3SimpleDbSqs::new(&world, "pin");
    store.set_config(Arch3Config {
        daemon_depth: daemon,
        ..Arch3Config::default()
    });
    let services = (store.s3().clone(), store.simpledb().clone());
    let run = run(&world, &mut store, services, client);
    assert_eq!(store.wal_depth_exact(), 0, "WAL must drain completely");
    run
}

fn fixed(depth: usize) -> Option<AdaptiveDepth> {
    Some(AdaptiveDepth::fixed(depth))
}

/// The bar every depth sweep shares: at each depth in `[1, 2, 4, 8]`
/// the run left the same bytes and the same graph as `sync`, and
/// finished strictly sooner than the run before it. Returns the four
/// times.
fn assert_identical_and_strictly_faster(
    what: &str,
    sync: &Run,
    run_at: impl Fn(usize) -> Run,
) -> Vec<SimDuration> {
    let mut times = vec![sync.elapsed];
    for depth in [1, 2, 4, 8] {
        let run = run_at(depth);
        assert_eq!(
            run.state, sync.state,
            "{what} depth {depth}: pipelining must not change a single byte of the final store"
        );
        assert!(
            run.graph.diff(&sync.graph).is_empty(),
            "{what} depth {depth}: provenance graphs diverged"
        );
        let last = *times.last().expect("starts non-empty");
        assert!(
            run.elapsed < last,
            "{what} depth {depth}: virtual completion time must strictly fall \
             ({:?} !< {last:?})",
            run.elapsed
        );
        times.push(run.elapsed);
    }
    times.split_off(1)
}

#[test]
fn pipelined_arch2_is_byte_identical_and_strictly_faster_with_depth() {
    assert_identical_and_strictly_faster("arch2", &run_arch2(None), |d| run_arch2(fixed(d)));
}

#[test]
fn pipelined_arch3_is_byte_identical_and_strictly_faster_with_depth() {
    let sync = run_arch3(None, None);
    assert_identical_and_strictly_faster("arch3", &sync, |d| run_arch3(fixed(d), None));
}

/// The tentpole acceptance bar: pipelining the commit daemon's
/// receive/assemble/apply loop (client and daemon at the same depth)
/// leaves the final cloud state byte-identical to the fully serial run,
/// end-to-end time strictly falls with depth, the depth-8 run clears
/// 3x, and the adaptive controller lands within 10% of the best fixed
/// depth without anyone hand-tuning the depth.
#[test]
fn daemon_pipelined_arch3_is_byte_identical_and_clears_3x() {
    let sync = run_arch3(None, None);
    let times = assert_identical_and_strictly_faster("arch3 daemon", &sync, |d| {
        run_arch3(fixed(d), fixed(d))
    });
    let at_8 = times[3];
    assert!(
        at_8.as_secs_f64() * 3.0 <= sync.elapsed.as_secs_f64(),
        "arch3 at daemon depth 8 must clear 3x over the serial daemon \
         ({at_8:?} vs {:?})",
        sync.elapsed
    );

    let adaptive = Some(AdaptiveDepth::new());
    let run = run_arch3(adaptive, adaptive);
    assert_eq!(run.state, sync.state, "adaptive: final store diverged");
    assert!(
        run.graph.diff(&sync.graph).is_empty(),
        "adaptive: graph diverged"
    );
    // Strictly falling, so the deepest fixed run is the best one.
    assert!(
        run.elapsed.as_secs_f64() <= at_8.as_secs_f64() * 1.10,
        "adaptive must land within 10% of the best fixed depth \
         ({:?} vs best {at_8:?})",
        run.elapsed
    );
}

#[test]
fn scheduler_event_order_is_deterministic_at_fixed_seed() {
    let run = || {
        let world = sampled_world();
        let mut store = S3SimpleDbSqs::new(&world, "det");
        let (flushes, _) = Combined::small().flushes();
        let fixed = &mut AdaptiveDepth::fixed(4);
        persist_groups(&world, &mut store, &flushes[..100], 10, Some(fixed)).unwrap();
        store.run_daemons_until_idle().unwrap();
        (world.now(), world.take_latency_samples())
    };
    let (now_a, samples_a) = run();
    let (now_b, samples_b) = run();
    assert_eq!(now_a, now_b, "same seed, same config ⇒ same virtual clock");
    assert!(!samples_a.is_empty(), "the run must issue requests");
    assert_eq!(
        samples_a, samples_b,
        "same seed, same config ⇒ identical request log"
    );
}

#[test]
fn pipelined_run_survives_eventual_consistency() {
    // The overlap story on a laggy, jittery world: after the daemons
    // settle, every object reads back verified-consistent.
    let world = SimWorld::new(7);
    let mut store = S3SimpleDbSqs::new(&world, "ec");
    let (flushes, _) = Combined::small().flushes();
    persist_groups(
        &world,
        &mut store,
        &flushes[..60],
        10,
        Some(&mut AdaptiveDepth::fixed(4)),
    )
    .unwrap();
    store.run_daemons_until_idle().unwrap();
    world.settle();
    let mut checked = 0;
    for flush in flushes.iter().take(60) {
        if flush.kind == pass_cloud::pass::ObjectKind::File {
            let read = store.read(&flush.object.name).unwrap();
            assert!(read.consistent(), "{}", flush.object.name);
            checked += 1;
        }
    }
    assert!(checked > 10, "the trace prefix must contain real files");
}

/// Virtual time is a *value*, not just an ordering. These constants
/// were captured at the last commit that still had one entry point per
/// mode (synchronous, fixed-depth and adaptive, for client and daemon
/// separately); the one depth policy that replaced them must land on
/// every one of them. The other tests in this file only assert
/// `time < last_time`; a change that reorders one request, one RNG draw
/// or one controller observation moves these numbers and nothing else.
/// The third component was re-derived once, when the world's event
/// trace gave way to latency samples: each is what `19e986f` (which
/// still had the trace) prints for the samples digest; no clock or bill
/// moved.
#[test]
fn virtual_time_bill_and_event_trace_are_pinned_per_depth_policy() {
    let adaptive = Some(AdaptiveDepth::new());
    // The same policy on the client and (arch3) on the daemon.
    let arch2: [(Option<AdaptiveDepth>, Pin); 4] = [
        (None, (14_125_008, 256, 11627268480247574404)),
        (fixed(1), (13_616_829, 256, 10301359064235802160)),
        (fixed(4), (3_509_189, 256, 18298261186654410304)),
        (adaptive, (1_736_294, 256, 12492969134038310336)),
    ];
    for (depth, pin) in arch2 {
        assert_eq!(run_arch2(depth).pin, pin, "arch2 under {depth:?}");
    }
    let arch3: [(Option<AdaptiveDepth>, Pin); 4] = [
        (None, (51_657_076, 1036, 9816516624370353870)),
        (fixed(1), (39_917_848, 1036, 11491134288497138346)),
        (fixed(4), (9_754_002, 958, 7580588185689606200)),
        (adaptive, (4_152_832, 919, 10166888195619217908)),
    ];
    for (depth, pin) in arch3 {
        assert_eq!(run_arch3(depth, depth).pin, pin, "arch3 under {depth:?}");
    }
}
