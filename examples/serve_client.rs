//! Serving over the wire: start a server on the store — on a
//! Unix-domain socket, or with `--tcp` on an ephemeral TCP port — then
//! record a pipeline, flush, and run a Q3 descendants query through
//! the network client.
//!
//! Run with: `cargo run --example serve_client [-- --tcp]`

use std::io::{Read, Write};

use pass_cloud::cloud::{ProvQuery, S3SimpleDb, ServeHandle};
use pass_cloud::frontend::{Client, Server};
use pass_cloud::pass::{Observer, TraceEvent};
use pass_cloud::simworld::{Blob, SimWorld};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The store and its serving facade, then a 2-worker server pool.
    // Both transports serve the same protocol through the same code.
    let handle = ServeHandle::new(S3SimpleDb::new(&SimWorld::counting()));
    if std::env::args().any(|arg| arg == "--tcp") {
        let server = Server::bind_tcp(handle, "127.0.0.1:0", 2)?;
        let addr = server.tcp_addr().expect("a TCP server has an address");
        println!("serving on {addr}");
        drive(Client::connect_tcp(addr)?)?;
        server.shutdown();
    } else {
        let socket =
            std::env::temp_dir().join(format!("pass-cloud-serve-{}.sock", std::process::id()));
        let server = Server::bind_unix(handle, &socket, 2)?;
        println!("serving on {}", socket.display());
        drive(Client::connect_unix(&socket)?)?;
        server.shutdown();
        assert!(!socket.exists(), "shutdown removes the socket file");
    }
    Ok(())
}

fn drive<S: Read + Write>(mut client: Client<S>) -> Result<(), Box<dyn std::error::Error>> {
    // The client records a two-stage pipeline: `etl` derives
    // staged.csv from raw.csv, `report` derives summary.txt from
    // staged.csv.
    let mut observer = Observer::new();
    for event in [
        TraceEvent::source("raw.csv", Blob::synthetic(1, 64 * 1024)),
        TraceEvent::exec(1, "etl", "etl raw.csv", "PATH=/usr/bin", None),
        TraceEvent::read(1, "raw.csv"),
        TraceEvent::write(1, "staged.csv"),
        TraceEvent::close(1, "staged.csv", Blob::synthetic(2, 16 * 1024)),
        TraceEvent::exit(1),
        TraceEvent::exec(2, "report", "report staged.csv", "PATH=/usr/bin", None),
        TraceEvent::read(2, "staged.csv"),
        TraceEvent::write(2, "summary.txt"),
        TraceEvent::close(2, "summary.txt", Blob::synthetic(3, 4 * 1024)),
        TraceEvent::exit(2),
    ] {
        for flush in observer.observe(event)? {
            client.record(&flush)?;
        }
    }
    client.flush()?;

    // A verified read and a Q3 over the same connection: everything
    // transitively derived from the outputs of `etl`.
    let read = client.read("summary.txt")?;
    println!(
        "read {} ({}), status: {}",
        read.object,
        read.data.len(),
        read.status
    );
    let descendants = client.query(&ProvQuery::DescendantsOf {
        program: "etl".into(),
    })?;
    println!("descendants of etl: {:?}", descendants.names());
    assert!(descendants
        .names()
        .iter()
        .any(|n| n.starts_with("summary.txt")));

    // Stats carry the store-state fingerprint: any in-process run of
    // the same workload converges to exactly this value.
    let stats = client.stats()?;
    println!(
        "server handled {} requests on {}; store fingerprint {:016x}",
        stats.requests, stats.architecture, stats.fingerprint
    );
    Ok(())
}
