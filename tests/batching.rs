//! The batched request path, end to end: for the combined workload,
//! driving arch2/arch3 in fixed-size groups (`chunks(n)`) through the
//! services' native batch APIs must produce **identical** final store
//! state and provenance graph to the point-op path — while issuing ≥ 5x
//! fewer billable requests on the provenance flush path and finishing
//! sooner in (deterministic) virtual time. This is the acceptance bar
//! of the batching issue; `BASELINE.md` records the medium-scale sweep.

use pass_cloud::cloud::{
    layout, store_fingerprint, ProvGraph, ProvQuery, ProvenanceStore, S3SimpleDb, S3SimpleDbSqs,
};
use pass_cloud::pass::FileFlush;
use pass_cloud::simworld::{SimDuration, SimWorld};
use pass_cloud::workloads::Combined;
// The bench harness owns the priced world and the flush-path request
// definition; reusing them keeps the acceptance test and the BASELINE
// sweep measuring identical quantities.
use prov_bench::batchbench::flush_path_requests;
use prov_bench::harness::priced_world;

/// Drives `flushes` into `store` — point persists, or groups of
/// `group_size` through `persist_batch` — and returns the
/// requests on the provenance flush path plus the elapsed virtual time.
fn drive(
    world: &SimWorld,
    store: &mut dyn ProvenanceStore,
    flushes: &[FileFlush],
    group_size: Option<usize>,
) -> (u64, SimDuration) {
    let before = world.meters();
    let t0 = world.now();
    match group_size {
        None => {
            for flush in flushes {
                store.persist(flush).unwrap();
            }
        }
        Some(n) => {
            for group in flushes.chunks(n) {
                store.persist_batch(group).unwrap();
            }
        }
    }
    store.run_daemons_until_idle().unwrap();
    let elapsed = world.now() - t0;
    let delta = world.meters() - before;
    (flush_path_requests(&delta), elapsed)
}

fn graph_of(store: &mut dyn ProvenanceStore) -> ProvGraph {
    ProvGraph::from_answer(&store.query(&ProvQuery::ProvenanceOfAll).unwrap())
}

#[test]
fn batched_arch2_matches_point_path_with_5x_fewer_flush_requests() {
    let (flushes, _) = Combined::small().flushes();

    let point_world = priced_world(2009);
    let mut point = S3SimpleDb::new(&point_world);
    let (point_reqs, point_time) = drive(&point_world, &mut point, &flushes, None);

    let batch_world = priced_world(2009);
    let mut batch = S3SimpleDb::new(&batch_world);
    let (batch_reqs, batch_time) = drive(&batch_world, &mut batch, &flushes, Some(25));

    point_world.settle();
    batch_world.settle();
    assert_eq!(
        store_fingerprint(point.s3(), point.simpledb()),
        store_fingerprint(batch.s3(), batch.simpledb()),
        "batching must not change a single byte of the final store"
    );
    // The fingerprint leaves `tmp/` out by design; arch2 stages no
    // temporaries on either path.
    assert_eq!(
        point.s3().latest_keys(layout::BUCKET, layout::TMP_PREFIX),
        batch.s3().latest_keys(layout::BUCKET, layout::TMP_PREFIX),
    );
    assert!(
        graph_of(&mut point).diff(&graph_of(&mut batch)).is_empty(),
        "provenance graphs diverged"
    );
    assert!(
        batch_reqs * 5 <= point_reqs,
        "arch2 flush path: {batch_reqs} batched vs {point_reqs} point requests"
    );
    assert!(
        batch_time < point_time,
        "arch2 batched persist must be faster in virtual time ({batch_time:?} vs {point_time:?})"
    );
}

#[test]
fn batched_arch3_matches_point_path_with_5x_fewer_flush_requests() {
    let (flushes, _) = Combined::small().flushes();

    let point_world = priced_world(2009);
    let mut point = S3SimpleDbSqs::new(&point_world, "bench");
    let (point_reqs, point_time) = drive(&point_world, &mut point, &flushes, None);

    let batch_world = priced_world(2009);
    let mut batch = S3SimpleDbSqs::new(&batch_world, "bench");
    let (batch_reqs, batch_time) = drive(&batch_world, &mut batch, &flushes, Some(25));

    point_world.settle();
    batch_world.settle();
    assert_eq!(
        point.wal_depth_exact(),
        0,
        "point path must drain its WAL completely"
    );
    assert_eq!(
        batch.wal_depth_exact(),
        0,
        "batched path must drain its WAL completely"
    );
    // The WAL's temp keys embed random txids and the two protocols
    // draw them at different points, so compare the *durable* state
    // (data + provenance, which is what the fingerprint covers), not
    // tmp residue — the cleaner owns that either way.
    assert_eq!(
        store_fingerprint(point.s3(), point.simpledb()),
        store_fingerprint(batch.s3(), batch.simpledb()),
        "batching must not change a single byte of the durable store"
    );
    assert!(
        graph_of(&mut point).diff(&graph_of(&mut batch)).is_empty(),
        "provenance graphs diverged"
    );
    assert!(
        batch_reqs * 5 <= point_reqs,
        "arch3 flush path: {batch_reqs} batched vs {point_reqs} point requests"
    );
    assert!(
        batch_time < point_time,
        "arch3 batched persist must be faster in virtual time ({batch_time:?} vs {point_time:?})"
    );
}

#[test]
fn batched_path_survives_eventual_consistency() {
    // Same grouped drive on a laggy, jittery world: every object still
    // reads back verified-consistent after the daemons settle.
    let world = SimWorld::new(7);
    let mut store = S3SimpleDbSqs::new(&world, "ec");
    let (flushes, _) = Combined::small().flushes();
    for group in flushes[..60].chunks(25) {
        store.persist_batch(group).unwrap();
    }
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
