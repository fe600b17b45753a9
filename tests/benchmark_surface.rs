//! Tier-1 pin of what `benchmark/` names from this workspace.
//!
//! `benchmark/` is a workspace of its own, so `cargo build --release &&
//! cargo test -q` at the root never compiles it: a renamed export or a
//! dropped config field would only break CI's "Benchmark self-tests"
//! step, or the driver's build. This test `use`s and constructs what
//! `benchmark/src/{stack,probes,spec,corpus,drive,run,trace}.rs` import,
//! under the crate names the benchmark's manifest gives them, so such a
//! break fails here first. It pins names and shapes, not numbers.

use std::os::unix::net::UnixStream;

use costmodel::{cost_of, PriceBook};
use frontend::{
    decode_command, decode_reply, encode_command, encode_reply, Client, Command, Reply, Server,
};
use pass::{FileFlush, ObjectRef, Observer, TraceEvent};
use provenance_cloud::layout::{data_key, BUCKET, DOMAIN};
use provenance_cloud::{
    store_fingerprint, Arch2Config, Arch3Config, ClosureMode, ProvGraph, ProvQuery,
    ProvenanceStore, QueryAnswer, ReadOutcome, S3SimpleDb, S3SimpleDbSqs, ServeHandle,
};
use sim_s3::{Metadata, MetadataDirective, S3};
use sim_simpledb::{ReplaceableAttribute, SimpleDb};
use sim_sqs::Sqs;
use simworld::{splitmix64, Blob, MeterSnapshot, Op, Service, SimWorld};
use workloads::ZipfKeys;

#[test]
fn the_benchmark_compile_surface_holds() {
    // corpus.rs: an observer turns trace events into flushes.
    let mut seed = 7u64;
    let mut observer = Observer::new();
    let mut flushes: Vec<FileFlush> = Vec::new();
    for event in [
        TraceEvent::source("in.dat", Blob::synthetic(splitmix64(&mut seed), 2048)),
        TraceEvent::exec(1, "s0", "s0 in.dat", "PATH=/bin", None),
        TraceEvent::read(1, "in.dat"),
        TraceEvent::write(1, "f0.dat"),
        TraceEvent::close(1, "f0.dat", Blob::synthetic(splitmix64(&mut seed), 1024)),
        TraceEvent::exit(1),
    ] {
        flushes.extend(observer.observe(event).expect("a well-formed trace"));
    }
    let mut zipf = ZipfKeys::new(flushes.len(), 0.99, splitmix64(&mut seed));
    assert!(zipf.next_index() < flushes.len());

    // probes.rs: arch2 over endpoints the caller made, index on.
    let world = SimWorld::counting();
    let s3 = S3::new(&world);
    s3.create_bucket(BUCKET).expect("fresh bucket");
    let db = SimpleDb::new(&world);
    db.create_domain(DOMAIN).expect("fresh domain");
    let mut arch2 = S3SimpleDb::with_services(&world, &s3, &db);
    arch2.set_config(Arch2Config {
        closure: ClosureMode::Serve,
        ..Default::default()
    });
    arch2.persist(&flushes[0]).expect("persist");
    arch2.persist_batch(&flushes[1..]).expect("persist_batch");
    let fingerprint = store_fingerprint(&s3, &db);
    let extra = [ReplaceableAttribute::add("probe", "1")];
    db.put_attributes(DOMAIN, "probe 1", &extra).expect("put");
    s3.put_object(BUCKET, "probe/p", Blob::from("x"), Metadata::new())
        .expect("put_object");
    let (src, copy) = (data_key("in.dat"), MetadataDirective::Copy);
    s3.copy_object(BUCKET, &src, BUCKET, "probe/c", copy)
        .expect("copy_object");
    world.record_op(Op::S3Head, 0, 128);
    let meters: MeterSnapshot = world.meters();
    assert!(meters.stored_bytes(Service::SimpleDb) > 0 && meters.stored_bytes(Service::S3) > 0);
    assert_eq!(Service::ALL.len(), 3);
    let _ = Sqs::new(&world);

    // stack.rs: both stores behind a ServeHandle, configured by
    // struct update from the defaults; the arch2 one served on a socket.
    let world3 = SimWorld::counting();
    let mut arch3 = S3SimpleDbSqs::new(&world3, "bench");
    arch3.set_config(Arch3Config {
        closure: ClosureMode::Off,
        ..Arch3Config::default()
    });
    let handle3 = ServeHandle::new(arch3);
    handle3.record_batch(&flushes).expect("in-process write");
    handle3.flush().expect("in-process flush");
    assert_eq!(handle3.architecture(), "s3+simpledb+sqs");

    let handle = ServeHandle::new(arch2);
    assert_eq!(handle.architecture(), "s3+simpledb");
    assert_ne!(
        handle.fingerprint(),
        fingerprint,
        "the probe writes moved it"
    );
    let path = std::env::temp_dir().join(format!("surface-{}.sock", std::process::id()));
    let server = Server::bind_unix(handle.clone(), &path, 1).expect("bind");
    let mut client: Client<UnixStream> = Client::connect_unix(&path).expect("connect");
    let read: ReadOutcome = client.read("f0.dat").expect("read");
    assert!(read.consistent());
    let q3 = ProvQuery::DescendantsOf {
        program: "s0".into(),
    };
    let answer: QueryAnswer = client.query(&q3).expect("query");
    assert_eq!(answer, handle.query(&q3).expect("in-process query"));
    assert!(client.raw_round_trip(&[0xEE]).is_ok(), "a fault reply");
    drop(client);
    server.shutdown();

    // corpus.rs / drive.rs / trace.rs: graphs, the codec, the bill.
    let everything = handle.query(&ProvQuery::ProvenanceOfAll).expect("q1");
    let records = everything.items.into_iter().map(|i| (i.object, i.records));
    let graph = ProvGraph::from_records(records);
    let f0 = ObjectRef::new("f0.dat", 1);
    assert!(graph.records(&f0).is_some());
    assert!(graph.children(&f0).is_empty() && graph.descendants(&f0).is_empty());
    let command = Command::Read("f0.dat".into());
    let frame = encode_command(&command);
    assert_eq!(decode_command(&frame).expect("decodes"), command);
    let frame = encode_reply(&Reply::Unit);
    assert_eq!(decode_reply(&frame).expect("decodes"), Reply::Unit);
    let bill = cost_of(&world.meters(), 0.0, &PriceBook::january_2009());
    assert!(bill.operations_total() > 0.0);
}
