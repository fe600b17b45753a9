//! # simworld — deterministic substrate for the PASS-on-AWS simulation
//!
//! This crate provides everything the simulated cloud services
//! ([`sim-s3`](../sim_s3/index.html), [`sim-simpledb`](../sim_simpledb/index.html),
//! [`sim-sqs`](../sim_sqs/index.html)) share:
//!
//! * a **virtual clock** ([`SimInstant`], [`SimDuration`]) — nothing reads
//!   wall time, so runs replay bit-for-bit;
//! * a **pipelined in-flight model** ([`SimWorld::begin_pipeline`]) so
//!   overlapping requests complete in one deterministic order, and one
//!   per-request log ([`SimWorld::enable_latency_samples`]) of
//!   [`LatencySample`]s in issue order;
//! * a **seeded RNG** and **latency model** so request timing is realistic
//!   yet reproducible;
//! * **metering** ([`MeterBook`], [`MeterSnapshot`]) of every billable
//!   operation and transferred byte, the currency of the paper's analysis;
//! * an **eventually-consistent replicated map** ([`EcMap`]) implementing
//!   the staleness semantics the paper's consistency property targets;
//! * **fault injection** ([`CrashSite`], [`FaultPlan`]) for the crash
//!   scenarios behind the paper's atomicity arguments;
//! * cheap **blobs** ([`Blob`]) and a from-scratch **MD5** ([`Md5`]) for
//!   the `MD5(data ‖ nonce)` consistency token.
//!
//! # Examples
//!
//! ```
//! use simworld::{Blob, EcMap, Op, SimWorld};
//!
//! let world = SimWorld::new(42);
//! let mut store: EcMap<String, Blob> = EcMap::new();
//!
//! let body = Blob::synthetic(7, 64 * 1024);
//! world.record_op(Op::S3Put, body.len(), 0);
//! store.write(&world, "bucket/key".to_string(), Some(body.clone()));
//!
//! world.settle(); // let replication finish
//! let got = store.read(&world, &"bucket/key".to_string()).unwrap();
//! assert_eq!(got.md5(), body.md5());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod blob;
mod clock;
mod ecstore;
mod faults;
mod hash;
mod latency;
mod md5;
mod merge;
mod metering;
mod samples;
mod shardmap;
mod world;

pub use blob::Blob;
pub use clock::{SimDuration, SimInstant};
pub use ecstore::{value_hash, Cover, EcMap, Pair, PairSet, Pairs, ValuesOf, Visibility};
pub use faults::{CrashSite, Crashed, FaultPlan};
pub use hash::{fnv1a_64, splitmix64, Fnv1a, WordHash};
pub use latency::{Cost, LatencyModel, ServiceLatency};
pub use md5::{Md5, Md5Digest};
pub use merge::merged_shard_page;
pub use metering::{format_bytes, MeterBook, MeterSnapshot, Op, Service, ServiceMeter};
pub use samples::LatencySample;
pub use shardmap::{
    clamp_shards, Cells, DigestOf, ReplicaPin, ShardCells, ShardMap, ShardRegistry, MAX_SHARDS,
};
pub use world::{Charge, Consistency, PipelineStats, SimConfig, SimWorld};
