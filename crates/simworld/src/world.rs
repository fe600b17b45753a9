//! The shared simulation context.
//!
//! A [`SimWorld`] bundles the virtual clock, a seeded RNG, the billing
//! meters and the fault plan behind one cheaply-clonable handle. Every
//! simulated AWS service and every client holds a clone, so a whole
//! experiment — clients, daemons, services — advances one logical
//! timeline and reads one ledger, deterministically for a given seed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::clock::{SimDuration, SimInstant};
use crate::ecstore::Visibility;
use crate::faults::{CrashSite, Crashed, FaultPlan};
use crate::latency::{Cost, LatencyModel};
use crate::metering::{MeterBook, MeterSnapshot, Op, Service};
use crate::samples::LatencySample;

/// The consistency regime the simulated services run under.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Consistency {
    /// Writes are visible everywhere immediately. Useful as a control in
    /// experiments, and for isolating protocol bugs from staleness.
    Strong,
    /// AWS semantics: each write propagates to each replica after an
    /// independent uniform delay in `[0, max_lag]`. A read served by a
    /// replica that has not yet received the newest write returns stale
    /// state.
    Eventual {
        /// Upper bound on per-replica propagation delay.
        max_lag: SimDuration,
    },
}

impl Consistency {
    /// Convenience constructor for the eventual regime.
    pub fn eventual(max_lag: SimDuration) -> Consistency {
        Consistency::Eventual { max_lag }
    }
}

/// Configuration for a [`SimWorld`].
#[derive(Copy, Clone, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Consistency regime for every service.
    pub consistency: Consistency,
    /// Request latency model.
    pub latency: LatencyModel,
    /// Replica count per service datastore.
    pub replicas: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            consistency: Consistency::Eventual {
                max_lag: SimDuration::from_millis(500),
            },
            latency: LatencyModel::default(),
            replicas: 3,
        }
    }
}

impl SimConfig {
    /// A config for pure op-count analyses: strong consistency, zero
    /// latency — the clock stands still and nothing is ever stale.
    pub fn counting() -> SimConfig {
        SimConfig {
            seed: 0,
            consistency: Consistency::Strong,
            latency: LatencyModel::zero(),
            replicas: 1,
        }
    }
}

/// What an open pipeline did, reported by [`SimWorld::drain_pipeline`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Requests issued while the pipeline was open.
    pub requests: u64,
    /// When the last in-flight request completed (the drain instant).
    pub completed_at: SimInstant,
}

/// Per-service in-flight request sets: each entry is the completion
/// instant of one request still on the wire. A request issued at `t`
/// starts at `max(t, earliest completion when the service is full,
/// same-key predecessor)` and completes `latency` later — the
/// "completion = max(channel-free time, issue time) + sampled latency"
/// rule that replaces the serial sum.
struct PipelineState {
    /// Per-service cap on concurrently in-flight requests.
    depth: usize,
    inflight: [Vec<SimInstant>; 3],
    /// Per-(service, order-key) FIFO constraint: the completion instant
    /// of the last request issued on that key. A later request on the
    /// same key never completes earlier (WAL sends to one queue stay
    /// BEGIN..COMMIT-ordered however deep the pipeline runs).
    keyed: HashMap<(usize, u64), SimInstant>,
    /// Requests issued while the region was open.
    requests: u64,
}

fn service_index(service: Service) -> usize {
    match service {
        Service::S3 => 0,
        Service::SimpleDb => 1,
        Service::Sqs => 2,
    }
}

/// Everything one request tells the ledger, applied by
/// [`SimWorld::charge`] under one lock acquisition. Fields a request
/// has nothing to say about keep [`Charge::point`]'s defaults:
///
/// ```
/// use simworld::{Charge, Cost, Op, Service, SimWorld};
///
/// let world = SimWorld::counting();
/// world.charge(Charge {
///     cost: Cost::Batch { entries: 3, gating: 2 },
///     shards: &[0, 5],
///     stored_delta: 300,
///     ..Charge::point(Op::SdbBatchPutAttributes, 300, 0)
/// });
/// let m = world.meters();
/// assert_eq!(m.batch_entry_count(Op::SdbBatchPutAttributes), 3);
/// assert_eq!(m.shard_op_count(Service::SimpleDb, 5), 1);
/// assert_eq!(m.stored_bytes(Service::SimpleDb), 300);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct Charge<'a> {
    /// The billable API call.
    pub op: Op,
    /// Request payload bytes.
    pub bytes_in: u64,
    /// Response payload bytes.
    pub bytes_out: u64,
    /// How the request is metered and priced.
    pub cost: Cost,
    /// Completion-order key: requests of one service carrying the same
    /// key complete in issue order even when pipelined (WAL sends to one
    /// SQS queue, a transaction's apply-chain copies). Serial behaviour
    /// is identical with or without it.
    pub order_key: Option<u64>,
    /// Stable ids of the storage shards of `op`'s service the request
    /// touched, one touch counted per listed id — load accounting,
    /// unbilled.
    pub shards: &'a [u32],
    /// Change of the service's stored-bytes gauge.
    pub stored_delta: i64,
}

impl Charge<'_> {
    /// A point request touching no shard and storing nothing — what
    /// [`SimWorld::record_op`] charges.
    pub const fn point(op: Op, bytes_in: u64, bytes_out: u64) -> Charge<'static> {
        Charge {
            op,
            bytes_in,
            bytes_out,
            cost: Cost::Point,
            order_key: None,
            shards: &[],
            stored_delta: 0,
        }
    }
}

struct WorldState {
    now: SimInstant,
    rng: SmallRng,
    meters: MeterBook,
    faults: FaultPlan,
    config: SimConfig,
    pipeline: Option<PipelineState>,
    /// One sample per charged request, in issue order; `None` keeps
    /// recording free.
    samples: Option<Vec<LatencySample>>,
}

impl WorldState {
    /// Issues one request of `latency` against the clock. Serial mode
    /// (no open pipeline): the clock advances to the completion. Pipeline
    /// mode: the request takes the earliest-free of its service's
    /// channels, the clock stays at issue time (advancing only on
    /// backpressure, when every channel is busy), and the completion
    /// stays in the in-flight set until [`SimWorld::drain_pipeline`].
    fn issue(&mut self, op: Op, latency: SimDuration, order_key: Option<u64>) {
        let (issued_at, completed_at) = match self.pipeline.as_mut() {
            None => {
                let issued_at = self.now;
                self.now += latency;
                (issued_at, self.now)
            }
            Some(p) => {
                let svc = service_index(op.service());
                let now = self.now;
                p.inflight[svc].retain(|t| *t > now);
                if p.inflight[svc].len() >= p.depth {
                    // Every channel of this service is busy: the issuer
                    // blocks until the earliest in-flight request of
                    // the service completes.
                    let free = p.inflight[svc]
                        .iter()
                        .copied()
                        .min()
                        .expect("a full service has in-flight requests");
                    self.now = free;
                    let now = self.now;
                    p.inflight[svc].retain(|t| *t > now);
                }
                // max(channel-free, issue): both cases now equal `now`.
                let start = self.now;
                let mut completes = start + latency;
                if let Some(key) = order_key {
                    let slot = p.keyed.entry((svc, key)).or_insert(completes);
                    if *slot > completes {
                        completes = *slot;
                    }
                    *slot = completes;
                }
                p.inflight[svc].push(completes);
                p.requests += 1;
                (start, completes)
            }
        };
        if let Some(log) = self.samples.as_mut() {
            log.push(LatencySample {
                op,
                issued_at,
                completed_at,
            });
        }
    }
}

/// Handle to the shared simulation context.
///
/// Clones are shallow: all clones observe the same clock, RNG stream,
/// meters and fault plan.
///
/// # Examples
///
/// ```
/// use simworld::{Op, SimDuration, SimWorld};
///
/// let world = SimWorld::new(42);
/// world.record_op(Op::S3Put, 1024, 0);
/// assert_eq!(world.meters().op_count(Op::S3Put), 1);
/// assert!(world.now().as_micros() > 0); // the call took simulated time
/// ```
#[derive(Clone)]
pub struct SimWorld {
    inner: Arc<Shared>,
}

/// What every clone of a [`SimWorld`] shares: the state behind its one
/// lock, and beside it whether the fault plan is idle.
struct Shared {
    state: Mutex<WorldState>,
    /// [`FaultPlan::is_idle`] as of the last [`SimWorld::with_faults`]:
    /// `true` lets [`SimWorld::crash_point`] pass without taking the lock
    /// — outside crash tests, every visit. Stored (`Release`) while
    /// `with_faults` still holds the lock, loaded (`Acquire`) by
    /// `crash_point`: a visit ordered after an arming sees the plan
    /// un-idle and takes the lock.
    faults_idle: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, WorldState> {
        self.state.lock()
    }
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.lock();
        f.debug_struct("SimWorld")
            .field("now", &st.now)
            .field("config", &st.config)
            .finish_non_exhaustive()
    }
}

impl SimWorld {
    /// A world with default config and the given seed.
    pub fn new(seed: u64) -> SimWorld {
        SimWorld::with_config(SimConfig {
            seed,
            ..SimConfig::default()
        })
    }

    /// A world with explicit configuration.
    pub fn with_config(config: SimConfig) -> SimWorld {
        SimWorld {
            inner: Arc::new(Shared {
                state: Mutex::new(WorldState {
                    now: SimInstant::EPOCH,
                    rng: SmallRng::seed_from_u64(config.seed),
                    meters: MeterBook::new(),
                    faults: FaultPlan::new(),
                    config,
                    pipeline: None,
                    samples: None,
                }),
                faults_idle: AtomicBool::new(true),
            }),
        }
    }

    /// A zero-latency, strongly-consistent world for op counting.
    pub fn counting() -> SimWorld {
        SimWorld::with_config(SimConfig::counting())
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.inner.lock().now
    }

    /// Moves the clock forward (e.g. to let eventual consistency settle or
    /// retention windows expire).
    pub fn advance(&self, d: SimDuration) {
        self.inner.lock().now += d;
    }

    /// The active configuration.
    pub fn config(&self) -> SimConfig {
        self.inner.lock().config
    }

    /// Replica count services should use.
    pub fn replicas(&self) -> usize {
        self.inner.lock().config.replicas
    }

    /// Uniform `u64`.
    pub fn rand_u64(&self) -> u64 {
        self.inner.lock().rng.gen()
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn rand_below(&self, bound: u64) -> u64 {
        assert!(bound > 0, "rand_below bound must be positive");
        self.inner.lock().rng.gen_range(0..bound)
    }

    /// Charges one request — the single place a simulated service call
    /// meets the world. Under one lock acquisition, in this order: the
    /// request is metered per its [`Cost`] (a batch also counts its
    /// entries), one jitter draw
    /// prices it through [`LatencyModel::sample`], and the request is
    /// issued — with no pipeline open the clock advances to the
    /// completion; inside
    /// [`SimWorld::begin_pipeline`] the request joins the in-flight set
    /// and the clock stays at issue time. Then the commutative counters:
    /// one touch per listed shard and the stored-bytes delta.
    pub fn charge(&self, c: Charge<'_>) {
        let mut st = self.inner.lock();
        match c.cost {
            Cost::Point | Cost::Scan { .. } => st.meters.record(c.op, c.bytes_in, c.bytes_out),
            Cost::Batch { entries, .. } => {
                st.meters
                    .record_batch(c.op, entries, c.bytes_in, c.bytes_out);
            }
        }
        let draw: f64 = st.rng.gen();
        let latency = st
            .config
            .latency
            .sample(c.op, c.bytes_in + c.bytes_out, c.cost, draw);
        st.issue(c.op, latency, c.order_key);
        let service = c.op.service();
        st.meters.record_shard_touches(service, c.shards);
        st.meters.adjust_stored(service, c.stored_delta);
    }

    /// [`SimWorld::charge`] for a plain point request: no shard, no
    /// stored bytes, no order key.
    pub fn record_op(&self, op: Op, bytes_in: u64, bytes_out: u64) {
        self.charge(Charge::point(op, bytes_in, bytes_out));
    }

    /// Opens a pipelined region: until [`SimWorld::drain_pipeline`],
    /// every recorded request joins an in-flight set instead of
    /// advancing the clock to its completion. Each service runs up to
    /// `max_in_flight` concurrent channels; a request issued when all of
    /// its service's channels are busy blocks the issuer (backpressure)
    /// until the earliest channel frees. `max_in_flight == 1` recovers
    /// per-service serial behaviour while still overlapping *across*
    /// services, exactly as one outstanding request per connection
    /// would.
    ///
    /// # Panics
    ///
    /// Panics if `max_in_flight` is zero or a pipeline is already open
    /// (pipelines do not nest).
    pub fn begin_pipeline(&self, max_in_flight: usize) {
        assert!(max_in_flight > 0, "pipeline depth must be positive");
        let mut st = self.inner.lock();
        assert!(
            st.pipeline.is_none(),
            "a pipeline is already open; pipelines do not nest"
        );
        st.pipeline = Some(PipelineState {
            depth: max_in_flight,
            inflight: std::array::from_fn(|_| Vec::new()),
            keyed: HashMap::new(),
            requests: 0,
        });
    }

    /// Closes the pipelined region: the clock advances to the last
    /// in-flight completion and the region's statistics are returned.
    /// A no-op returning default stats when no pipeline is open.
    pub fn drain_pipeline(&self) -> PipelineStats {
        let mut st = self.inner.lock();
        let Some(p) = st.pipeline.take() else {
            return PipelineStats::default();
        };
        let last = p
            .inflight
            .iter()
            .flat_map(|q| q.iter().copied())
            .max()
            .unwrap_or(st.now);
        st.now = st.now.max(last);
        PipelineStats {
            requests: p.requests,
            completed_at: st.now,
        }
    }

    /// Depth of the currently open pipeline, if any.
    pub fn pipeline_depth(&self) -> Option<usize> {
        let st = self.inner.lock();
        st.pipeline.as_ref().map(|p| p.depth)
    }

    /// Starts logging one [`LatencySample`] per charged request, in
    /// issue order — the world's one per-request record. Off by default;
    /// recording costs nothing while disabled. Re-enabling starts an
    /// empty log.
    pub fn enable_latency_samples(&self) {
        self.inner.lock().samples = Some(Vec::new());
    }

    /// Takes the samples recorded so far, in issue order, and keeps
    /// sampling. Inside an open pipeline this includes requests still in
    /// flight, whose `completed_at` lies past [`SimWorld::now`]. Empty
    /// when sampling is off.
    pub fn take_latency_samples(&self) -> Vec<LatencySample> {
        self.inner
            .lock()
            .samples
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Adjusts a service's stored-bytes gauge outside any request —
    /// SQS retention expiry is the one caller; a request's own delta
    /// rides its [`Charge`].
    pub fn adjust_stored(&self, service: Service, delta: i64) {
        self.inner.lock().meters.adjust_stored(service, delta);
    }

    /// Snapshot of the billing ledger.
    pub fn meters(&self) -> MeterSnapshot {
        self.inner.lock().meters.snapshot()
    }

    /// Samples when each replica starts serving a write performed now.
    ///
    /// Under [`Consistency::Strong`] every replica serves it at once:
    /// one instant, `now`, and no draw. Under eventual consistency one
    /// randomly chosen replica (the one that accepted the write) serves
    /// it immediately; the rest lag by an independent uniform delay.
    pub fn sample_visibility(&self) -> Visibility {
        let mut st = self.inner.lock();
        let now = st.now;
        let replicas = st.config.replicas.max(1);
        match st.config.consistency {
            Consistency::Strong => Visibility::All(now),
            Consistency::Eventual { max_lag } => {
                let primary = st.rng.gen_range(0..replicas);
                let at = (0..replicas).map(|r| {
                    if r == primary {
                        now
                    } else {
                        let lag = st.rng.gen_range(0..=max_lag.as_micros());
                        now + SimDuration::from_micros(lag)
                    }
                });
                Visibility::Each(at.collect())
            }
        }
    }

    /// Picks the replica that will serve a read issued now.
    pub fn sample_read_replica(&self) -> usize {
        let mut st = self.inner.lock();
        let replicas = st.config.replicas.max(1);
        st.rng.gen_range(0..replicas)
    }

    /// Samples `n` independent read replicas, in order, under one lock
    /// acquisition — one per shard of a fan-out scan.
    pub fn sample_read_replicas(&self, n: usize) -> Vec<usize> {
        let mut st = self.inner.lock();
        let replicas = st.config.replicas.max(1);
        (0..n).map(|_| st.rng.gen_range(0..replicas)).collect()
    }

    /// Declares a protocol step boundary; returns `Err` if a test armed a
    /// crash here.
    ///
    /// # Errors
    ///
    /// [`Crashed`] when the fault plan fires; the caller must abandon the
    /// protocol immediately, leaving remote state as-is.
    pub fn crash_point(&self, site: CrashSite) -> Result<(), Crashed> {
        if self.inner.faults_idle.load(Ordering::Acquire) {
            return Ok(());
        }
        self.inner.lock().faults.check(site)
    }

    /// Mutates the fault plan (arming/disarming sites).
    pub fn with_faults<T>(&self, f: impl FnOnce(&mut FaultPlan) -> T) -> T {
        let mut st = self.inner.lock();
        let out = f(&mut st.faults);
        self.inner
            .faults_idle
            .store(st.faults.is_idle(), Ordering::Release);
        out
    }

    /// The upper bound on replication lag under the current config
    /// (zero when strong). Advancing the clock by at least this much
    /// guarantees all past writes are visible everywhere.
    pub fn max_lag(&self) -> SimDuration {
        match self.inner.lock().config.consistency {
            Consistency::Strong => SimDuration::ZERO,
            Consistency::Eventual { max_lag } => max_lag,
        }
    }

    /// Advances the clock far enough that every write issued so far is
    /// visible on every replica ("let the cloud settle").
    pub fn settle(&self) {
        let lag = self.max_lag();
        if lag > SimDuration::ZERO {
            self.advance(lag + SimDuration::from_micros(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a = SimWorld::new(7);
        let b = SimWorld::new(7);
        let xs: Vec<u64> = (0..10).map(|_| a.rand_u64()).collect();
        let ys: Vec<u64> = (0..10).map(|_| b.rand_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn clones_share_state() {
        let a = SimWorld::new(1);
        let b = a.clone();
        a.advance(SimDuration::from_secs(5));
        assert_eq!(b.now(), SimInstant::EPOCH + SimDuration::from_secs(5));
        a.record_op(Op::SqsSendMessage, 10, 0);
        assert_eq!(b.meters().op_count(Op::SqsSendMessage), 1);
    }

    #[test]
    fn counting_world_keeps_clock_still() {
        let w = SimWorld::counting();
        w.record_op(Op::S3Put, 1 << 20, 0);
        w.record_op(Op::SdbQuery, 0, 4096);
        assert_eq!(w.now(), SimInstant::EPOCH);
    }

    #[test]
    fn default_world_advances_clock_per_op() {
        let w = SimWorld::new(0);
        let t0 = w.now();
        w.record_op(Op::S3Put, 8 * 1024, 0);
        assert!(w.now() > t0);
    }

    #[test]
    fn strong_visibility_is_immediate_everywhere() {
        let w = SimWorld::with_config(SimConfig {
            consistency: Consistency::Strong,
            replicas: 4,
            ..SimConfig::default()
        });
        assert_eq!(w.sample_visibility(), Visibility::All(w.now()));
    }

    #[test]
    fn eventual_visibility_has_one_immediate_replica() {
        let w = SimWorld::with_config(SimConfig {
            seed: 3,
            consistency: Consistency::eventual(SimDuration::from_secs(10)),
            replicas: 5,
            ..SimConfig::default()
        });
        let now = w.now();
        let Visibility::Each(vis) = w.sample_visibility() else {
            panic!("an eventual write reaches its replicas one by one");
        };
        assert_eq!(vis.len(), 5);
        assert!(vis.contains(&now), "primary replica is immediate");
        assert!(vis.iter().all(|t| *t <= now + SimDuration::from_secs(10)));
    }

    #[test]
    fn settle_outruns_max_lag() {
        let w = SimWorld::with_config(SimConfig {
            consistency: Consistency::eventual(SimDuration::from_secs(2)),
            latency: LatencyModel::zero(),
            ..SimConfig::default()
        });
        let before = w.now();
        w.settle();
        assert!(w.now() - before > SimDuration::from_secs(2));
    }

    #[test]
    fn crash_point_propagates_armed_faults() {
        const SITE: CrashSite = CrashSite::new("world.test");
        let w = SimWorld::new(0);
        assert!(w.crash_point(SITE).is_ok());
        w.with_faults(|f| f.arm(SITE));
        assert!(w.crash_point(SITE).is_err());
        assert!(w.crash_point(SITE).is_ok(), "fires only once");
    }

    #[test]
    fn arming_after_an_idle_stretch_fires_on_the_counted_visit() {
        const SITE: CrashSite = CrashSite::new("world.idle");
        let w = SimWorld::new(0);
        for _ in 0..5 {
            assert!(w.crash_point(SITE).is_ok(), "idle plan: nothing fires");
        }
        w.with_faults(|f| f.arm(SITE));
        assert!(w.crash_point(SITE).is_err(), "the next visit fires");
        // Idle again (the one armed site has fired): skipped visits
        // before a new arming are not counted against it.
        for _ in 0..5 {
            assert!(w.crash_point(SITE).is_ok());
        }
        w.with_faults(|f| f.arm_after(SITE, 2));
        assert!(w.crash_point(SITE).is_ok());
        assert!(w.crash_point(SITE).is_ok());
        assert!(w.crash_point(SITE).is_err(), "the third visit after arming");
        w.with_faults(|f| f.record_visits(true));
        w.crash_point(SITE).expect("fired already");
        assert_eq!(w.with_faults(|f| f.visits().to_vec()), [SITE]);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn rand_below_zero_panics() {
        SimWorld::new(0).rand_below(0);
    }

    /// A world with a constant (jitter-free) latency model, for exact
    /// pipeline arithmetic.
    fn flat_world() -> SimWorld {
        let flat = crate::latency::ServiceLatency {
            base: SimDuration::from_millis(10),
            per_8kb: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            per_scanned_row: SimDuration::ZERO,
            per_batch_entry: SimDuration::ZERO,
        };
        SimWorld::with_config(SimConfig {
            consistency: Consistency::Strong,
            latency: LatencyModel {
                s3: flat,
                simpledb: flat,
                sqs: flat,
            },
            ..SimConfig::default()
        })
    }

    #[test]
    fn pipelined_requests_overlap_up_to_depth() {
        let w = flat_world();
        w.begin_pipeline(4);
        for _ in 0..4 {
            w.record_op(Op::S3Put, 0, 0);
        }
        // Four 10 ms requests on four channels: all issued at t=0.
        assert_eq!(w.now(), SimInstant::EPOCH);
        let stats = w.drain_pipeline();
        assert_eq!(w.now(), SimInstant::EPOCH + SimDuration::from_millis(10));
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.completed_at, w.now());
    }

    #[test]
    fn full_channels_backpressure_the_issuer() {
        let w = flat_world();
        w.begin_pipeline(2);
        for _ in 0..3 {
            w.record_op(Op::S3Put, 0, 0);
        }
        // Third request had to wait for a channel: issued at t=10ms.
        assert_eq!(w.now(), SimInstant::EPOCH + SimDuration::from_millis(10));
        w.drain_pipeline();
        assert_eq!(w.now(), SimInstant::EPOCH + SimDuration::from_millis(20));
    }

    #[test]
    fn services_pipeline_independently() {
        let w = flat_world();
        w.begin_pipeline(1);
        w.record_op(Op::S3Put, 0, 0);
        w.record_op(Op::SdbPutAttributes, 0, 0);
        w.record_op(Op::SqsSendMessage, 0, 0);
        // Depth 1 per service still overlaps across services.
        assert_eq!(w.now(), SimInstant::EPOCH);
        let stats = w.drain_pipeline();
        assert_eq!(w.now(), SimInstant::EPOCH + SimDuration::from_millis(10));
        assert_eq!(stats.requests, 3);
    }

    #[test]
    fn serial_and_depth_one_single_service_agree() {
        // For one service, a depth-1 pipeline is the serial sum.
        let serial = flat_world();
        for _ in 0..5 {
            serial.record_op(Op::S3Put, 0, 0);
        }
        let piped = flat_world();
        piped.begin_pipeline(1);
        for _ in 0..5 {
            piped.record_op(Op::S3Put, 0, 0);
        }
        piped.drain_pipeline();
        assert_eq!(serial.now(), piped.now());
    }

    #[test]
    fn keyed_requests_complete_in_issue_order() {
        let w = SimWorld::new(9); // jittered latencies
        w.enable_latency_samples();
        w.begin_pipeline(8);
        for _ in 0..20 {
            w.charge(Charge {
                order_key: Some(42),
                ..Charge::point(Op::SqsSendMessage, 64, 0)
            });
        }
        w.drain_pipeline();
        let samples = w.take_latency_samples();
        assert_eq!(samples.len(), 20);
        // Samples are in issue order, and their completion instants never
        // fall: the per-key FIFO constraint held at depth 8.
        assert!(samples
            .windows(2)
            .all(|w| w[0].completed_at <= w[1].completed_at));
    }

    #[test]
    fn pipelining_leaves_the_rng_stream_untouched() {
        // The jitter draws must not depend on the pipeline mode, or a
        // pipelined run would diverge from its serial twin.
        let a = SimWorld::new(5);
        a.record_op(Op::S3Put, 100, 0);
        a.record_op(Op::SqsSendMessage, 10, 0);
        let b = SimWorld::new(5);
        b.begin_pipeline(4);
        b.record_op(Op::S3Put, 100, 0);
        b.record_op(Op::SqsSendMessage, 10, 0);
        b.drain_pipeline();
        assert_eq!(a.rand_u64(), b.rand_u64());
    }

    #[test]
    fn pipelined_time_never_exceeds_serial_time() {
        let serial = SimWorld::new(11);
        let piped = SimWorld::new(11);
        piped.begin_pipeline(4);
        for i in 0..30u64 {
            let op = match i % 3 {
                0 => Op::S3Put,
                1 => Op::SdbPutAttributes,
                _ => Op::SqsSendMessage,
            };
            serial.record_op(op, i * 100, 0);
            piped.record_op(op, i * 100, 0);
        }
        piped.drain_pipeline();
        assert!(piped.now() < serial.now());
    }

    #[test]
    fn stalls_are_attributed_to_the_gating_service() {
        let w = flat_world();
        w.begin_pipeline(1);
        for _ in 0..3 {
            w.record_op(Op::S3Put, 0, 0);
        }
        w.record_op(Op::SqsSendMessage, 0, 0);
        w.record_op(Op::SqsSendMessage, 0, 0);
        // The third put issues at 20 ms; the first send finds SQS idle
        // and issues beside it, the second waits for the first (30 ms).
        // Had S3's busy channel gated SQS, the sends would have issued
        // at 30 and 40 ms.
        assert_eq!(w.now(), SimInstant::EPOCH + SimDuration::from_millis(30));
        w.drain_pipeline();
        assert_eq!(w.now(), SimInstant::EPOCH + SimDuration::from_millis(40));
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn nested_pipelines_panic() {
        let w = SimWorld::new(0);
        w.begin_pipeline(2);
        w.begin_pipeline(2);
    }

    #[test]
    fn drain_without_pipeline_is_a_noop() {
        let w = SimWorld::new(0);
        let t0 = w.now();
        assert_eq!(w.drain_pipeline(), PipelineStats::default());
        assert_eq!(w.now(), t0);
    }

    #[test]
    fn event_trace_is_deterministic_across_runs() {
        let run = || {
            let w = SimWorld::new(7);
            w.enable_latency_samples();
            w.begin_pipeline(3);
            for i in 0..12u64 {
                let op = if i % 2 == 0 {
                    Op::S3Put
                } else {
                    Op::SdbPutAttributes
                };
                w.record_op(op, i * 512, 0);
            }
            w.drain_pipeline();
            (w.now(), w.take_latency_samples())
        };
        let (now_a, samples_a) = run();
        let (now_b, samples_b) = run();
        assert_eq!(now_a, now_b);
        assert_eq!(samples_a.len(), 12);
        assert_eq!(samples_a, samples_b);
    }

    #[test]
    fn latency_samples_bracket_serial_charges() {
        let w = flat_world();
        w.enable_latency_samples();
        w.record_op(Op::S3Put, 0, 0);
        w.record_op(Op::SdbPutAttributes, 0, 0);
        let samples = w.take_latency_samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].issued_at, SimInstant::EPOCH);
        assert_eq!(samples[0].latency(), SimDuration::from_millis(10));
        assert_eq!(samples[1].issued_at, samples[0].completed_at);
        assert_eq!(samples[1].service(), Service::SimpleDb);
        // Draining keeps sampling on.
        w.record_op(Op::S3Put, 0, 0);
        assert_eq!(w.take_latency_samples().len(), 1);
    }

    #[test]
    fn pipelined_samples_record_issue_not_drain() {
        let w = flat_world();
        w.enable_latency_samples();
        w.begin_pipeline(2);
        for _ in 0..3 {
            w.record_op(Op::S3Put, 0, 0);
        }
        // A take inside the open region returns every issued request,
        // the ones still in flight included.
        let samples = w.take_latency_samples();
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().any(|s| s.completed_at > w.now()));
        w.drain_pipeline();
        assert!(w.take_latency_samples().is_empty());
        // First two overlap at t=0; the third waited for a channel.
        assert_eq!(samples[0].issued_at, SimInstant::EPOCH);
        assert_eq!(samples[1].issued_at, SimInstant::EPOCH);
        assert_eq!(
            samples[2].issued_at,
            SimInstant::EPOCH + SimDuration::from_millis(10)
        );
        // Each individual request still took one flat round trip.
        assert!(samples
            .iter()
            .all(|s| s.latency() == SimDuration::from_millis(10)));
    }

    #[test]
    fn sampling_is_off_by_default() {
        let w = flat_world();
        w.record_op(Op::S3Put, 0, 0);
        assert!(w.take_latency_samples().is_empty());
        w.enable_latency_samples();
        w.record_op(Op::S3Put, 0, 0);
        w.record_op(Op::SdbPutAttributes, 0, 0);
        let ops: Vec<Op> = w.take_latency_samples().iter().map(|s| s.op).collect();
        assert_eq!(ops, [Op::S3Put, Op::SdbPutAttributes]);
    }

    #[test]
    fn read_replica_in_range() {
        let w = SimWorld::with_config(SimConfig {
            replicas: 3,
            ..SimConfig::default()
        });
        for _ in 0..50 {
            assert!(w.sample_read_replica() < 3);
        }
    }
}
