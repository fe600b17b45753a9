//! Fleet-scale multi-tenant simulation: open-loop arrivals, provider
//! throttling, and latency percentiles.
//!
//! Every earlier bench drives one client and reports totals; this one
//! drives N tenants — each with its own buckets, domains, and WAL queue
//! on one shared virtual clock — from a pre-computed open-loop arrival
//! schedule ([`workloads::fleet_schedule`]). Demand arrives on timers,
//! not think time: if the fleet falls behind, arrivals queue up and the
//! backlog shows in the tail, exactly as in a real multi-tenant cloud.
//!
//! With provider throttling enabled, every service rejects over-rate
//! writes with a 503 and the store's retry machinery backs off and
//! re-issues; the winning attempt's latency sample is backdated to the
//! first issue, so p50/p99/p999 report *client-observed* latency —
//! backoff and rejected attempts included. The invariant under test:
//! throttling moves the percentiles and the bill, never the final
//! store ([`FleetFingerprint`], one [`store_fingerprint`] per tenant).
//!
//! [`FleetSweep`] runs five scenarios per tenant count ([`FleetGroup`]);
//! [`FleetSweep::check`] asserts, per group:
//!
//! * every service's percentiles are ordered (p50 ≤ p99 ≤ p999 ≤ max)
//!   and no persist exhausted its retry budget;
//! * uniform and zipf fleets alike: the unthrottled run sees no 503s,
//!   its throttled twin sees 503s and retries yet converges to the same
//!   store fingerprint;
//! * under the same throttle the skewed fleet's overall p99 is above
//!   the uniform fleet's;
//! * the store-only throttle rejects on the hot fleet.

use pass::FileFlush;
use provenance_cloud::{store_fingerprint, CloudError, ProvenanceStore, Result, S3SimpleDbSqs};
use simworld::{Blob, Percentiles, Service, ThrottleConfig};
use workloads::{fleet_schedule, ArrivalProcess, FleetSpec};

use crate::harness::{
    ensure, overall_percentiles, per_service_percentiles, priced_world, render_percentile_rows,
    Size, Sweep,
};

/// One fleet scenario.
#[derive(Clone, Copy, Debug)]
pub struct FleetParams {
    /// Number of tenants; each gets its own endpoints and WAL queue.
    pub tenants: usize,
    /// Arrivals generated per tenant slot.
    pub arrivals_per_tenant: usize,
    /// Per-tenant Poisson arrival rate (requests per virtual second).
    pub rate_per_sec: f64,
    /// Shards per SimpleDB domain and S3 bucket.
    pub shards: usize,
    /// `Some(theta)` skews which tenant each arrival belongs to
    /// (Zipf, tenant 0 hottest); `None` is the uniform fleet.
    pub skew: Option<f64>,
    /// Provider-side token-bucket throttle, applied to all three
    /// services of every tenant; `None` runs unthrottled.
    pub throttle: Option<ThrottleConfig>,
    /// When `false`, the WAL queue (SQS) is exempt from `throttle`: the
    /// store-only variant the hot fleet runs, so every rejection lands
    /// on a shard of S3 or SimpleDB.
    pub throttle_wal: bool,
    /// Seed for the world and the arrival schedule.
    pub seed: u64,
}

impl FleetParams {
    /// A short human label ("uniform" / "zipf(0.99)+throttle").
    pub fn label(&self) -> String {
        let skew = match self.skew {
            Some(theta) => format!("zipf({theta})"),
            None => "uniform".to_string(),
        };
        let mut label = skew;
        if self.throttle.is_some() {
            label.push_str(if self.throttle_wal {
                "+throttle"
            } else {
                "+storethrottle"
            });
        }
        label
    }
}

/// Measured output of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetRow {
    /// Scenario label.
    pub label: String,
    /// Tenants in the fleet.
    pub tenants: usize,
    /// Arrivals actually persisted.
    pub persisted: u64,
    /// Client-observed latency percentiles per service (only services
    /// that recorded samples appear).
    pub per_service: Vec<(Service, Percentiles)>,
    /// Percentiles over every recorded sample.
    pub overall: Option<Percentiles>,
    /// 503 rejections metered across the fleet.
    pub throttled: u64,
    /// Backoff-and-retry rounds taken in response to 503s.
    pub retries: u64,
    /// Persists abandoned with [`CloudError::RetryExhausted`].
    pub exhausted: u64,
    /// Billable requests issued (rejections included).
    pub requests: u64,
    /// USD bill for those requests (January 2009 prices, ops only).
    pub bill_usd: f64,
    /// Virtual seconds from first arrival to fleet quiescence.
    pub virtual_secs: f64,
}

/// The state a fleet run converged to, reduced for cross-run equality:
/// each tenant's [`store_fingerprint`], in tenant order — unbilled, over
/// every committed item, object, ETag and metadata value, and blind to
/// shard placement. Two runs with the same schedule must match
/// fingerprints no matter how much throttling slowed one of them down.
pub type FleetFingerprint = Vec<u64>;

/// The flush tenant `t` persists as its `seq`-th arrival: a fresh file
/// derived from the tenant's previous one, so each tenant grows a
/// provenance chain.
fn fleet_flush(tenant: usize, seq: usize, seed: u64) -> FileFlush {
    let name = format!("t{tenant}/f{seq}.dat");
    let mut builder = FileFlush::builder(&name).data(Blob::synthetic(
        seed ^ ((tenant as u64) << 32 | seq as u64),
        1024,
    ));
    if seq > 0 {
        let parent = format!("t{tenant}/f{}.dat", seq - 1);
        builder = builder.record("input", &format!("{parent}:1"));
    }
    builder.build()
}

/// What one scenario measured and what its store converged to.
pub type FleetRun = (FleetRow, FleetFingerprint);

/// Runs one fleet scenario to quiescence and reduces it to a row and a
/// state fingerprint.
///
/// # Errors
///
/// Propagates service errors other than retry exhaustion (which is
/// counted, not fatal — an exhausted persist abandons that arrival).
pub fn run_fleet(params: &FleetParams) -> Result<FleetRun> {
    let world = priced_world(params.seed);
    world.enable_latency_samples();

    let mut stores: Vec<S3SimpleDbSqs> = (0..params.tenants)
        .map(|t| S3SimpleDbSqs::with_shards(&world, &format!("t{t}"), params.shards))
        .collect();
    if let Some(cfg) = params.throttle {
        for store in &stores {
            store.s3().set_throttle(Some(cfg));
            store.simpledb().set_throttle(Some(cfg));
            if params.throttle_wal {
                store.sqs().set_throttle(Some(cfg));
            }
        }
    }

    let schedule = fleet_schedule(&FleetSpec {
        tenants: params.tenants,
        arrivals_per_tenant: params.arrivals_per_tenant,
        arrivals: ArrivalProcess::Poisson {
            rate_per_sec: params.rate_per_sec,
        },
        skew: params.skew,
        seed: params.seed,
    });

    let start = world.now();
    let mut persisted = 0u64;
    let mut exhausted = 0u64;
    for arrival in &schedule {
        // Demand-driven clock: idle until the timer fires. A backlogged
        // fleet has already passed the instant and issues immediately.
        let due = start + arrival.at.saturating_since(simworld::SimInstant::EPOCH);
        let lag = due.saturating_since(world.now());
        if lag > simworld::SimDuration::ZERO {
            world.advance(lag);
        }
        world.set_tenant(arrival.tenant as u64);
        let flush = fleet_flush(arrival.tenant, arrival.seq, params.seed);
        match stores[arrival.tenant].persist(&flush) {
            Ok(()) => persisted += 1,
            Err(CloudError::RetryExhausted { .. }) => exhausted += 1,
            Err(e) => return Err(e),
        }
    }
    for (t, store) in stores.iter_mut().enumerate() {
        world.set_tenant(t as u64);
        store.run_daemons_until_idle()?;
    }
    world.settle();
    let virtual_secs = world.now().saturating_since(start).as_secs_f64();

    // The row is read off the world before the (unbilled) fingerprint.
    let samples = world.take_latency_samples();
    let per_service = per_service_percentiles(&samples);
    let overall = overall_percentiles(&samples);
    let meters = world.meters();
    let bill = costmodel::cost_of(&meters, 0.0, &costmodel::PriceBook::january_2009());
    let row = FleetRow {
        label: params.label(),
        tenants: params.tenants,
        persisted,
        per_service,
        overall,
        throttled: meters.total_throttled(),
        retries: world.throttle_retries(),
        exhausted,
        requests: meters.total_ops(),
        bill_usd: bill.operations_total(),
        virtual_secs,
    };

    let fingerprint = stores
        .iter()
        .map(|store| store_fingerprint(store.s3(), store.simpledb()))
        .collect();
    Ok((row, fingerprint))
}

/// The five scenarios `--mode=fleet` runs at one tenant count: 16 shards,
/// 50 arrivals/s per tenant, seed 2009.
#[derive(Clone, Debug)]
pub struct FleetGroup {
    /// Uniform tenants, no throttle.
    pub uniform: FleetRun,
    /// Uniform tenants, every service throttled at 4/s per shard.
    pub uniform_throttled: FleetRun,
    /// zipf(0.99) tenants, no throttle.
    pub zipf: FleetRun,
    /// zipf(0.99) tenants under the same throttle.
    pub zipf_throttled: FleetRun,
    /// The hot fleet: zipf(0.99) tenants, 8x the arrivals, and only S3
    /// and SimpleDB throttled, at 1/s per shard — tight enough that the
    /// hot tenant's shards reject.
    pub hot: FleetRun,
}

impl FleetGroup {
    fn run(tenants: usize, arrivals: usize) -> Result<FleetGroup> {
        let base = FleetParams {
            tenants,
            arrivals_per_tenant: arrivals,
            rate_per_sec: 50.0,
            shards: 16,
            skew: None,
            throttle: None,
            throttle_wal: true,
            seed: 2009,
        };
        let throttle = Some(ThrottleConfig::per_shard(4.0).with_burst(8.0));
        let hot = FleetParams {
            arrivals_per_tenant: arrivals * 8,
            skew: Some(0.99),
            throttle: Some(ThrottleConfig::per_shard(1.0).with_burst(2.0)),
            throttle_wal: false,
            ..base
        };
        Ok(FleetGroup {
            uniform: run_fleet(&base)?,
            uniform_throttled: run_fleet(&FleetParams { throttle, ..base })?,
            zipf: run_fleet(&FleetParams {
                skew: Some(0.99),
                ..base
            })?,
            zipf_throttled: run_fleet(&FleetParams {
                skew: Some(0.99),
                throttle,
                ..base
            })?,
            hot: run_fleet(&hot)?,
        })
    }

    /// The runs in table order.
    fn runs(&self) -> [&FleetRun; 5] {
        [
            &self.uniform,
            &self.uniform_throttled,
            &self.zipf,
            &self.zipf_throttled,
            &self.hot,
        ]
    }
}

/// `--mode=fleet`: one [`FleetGroup`] per tenant count.
#[derive(Clone, Debug)]
pub struct FleetSweep {
    /// The groups, by ascending tenant count.
    pub groups: Vec<FleetGroup>,
}

impl Sweep for FleetSweep {
    fn run(size: Size) -> Result<Self> {
        let (tenant_counts, arrivals): (&[usize], usize) = match size {
            Size::Smoke => (&[8], 4),
            Size::Full(_) => (&[4, 8, 16], 8),
        };
        let groups: Result<Vec<FleetGroup>> = tenant_counts
            .iter()
            .map(|&tenants| FleetGroup::run(tenants, arrivals))
            .collect();
        Ok(FleetSweep { groups: groups? })
    }

    /// Per run: one percentile table, then the throttle/retry/bill
    /// summary.
    fn render(&self) -> String {
        let mut out = String::new();
        for group in &self.groups {
            for (row, _) in group.runs() {
                out.push_str(&format!(
                    "fleet {} — {} tenants, {} persists, {:.1} virtual s\n",
                    row.label, row.tenants, row.persisted, row.virtual_secs
                ));
                let mut latency_rows: Vec<(String, Percentiles)> = row
                    .per_service
                    .iter()
                    .map(|(service, p)| (format!("{service:?}"), *p))
                    .collect();
                if let Some(p) = row.overall {
                    latency_rows.push(("all".to_string(), p));
                }
                out.push_str(&render_percentile_rows(&latency_rows));
                out.push_str(&format!(
                    "503s {} | retries {} | exhausted {} | requests {} | ops bill {}\n\n",
                    row.throttled,
                    row.retries,
                    row.exhausted,
                    row.requests,
                    costmodel::format_usd(row.bill_usd),
                ));
            }
            out.push('\n');
        }
        out
    }

    fn check(&self) -> std::result::Result<(), String> {
        for group in &self.groups {
            for (row, _) in group.runs() {
                for (service, p) in &row.per_service {
                    ensure!(
                        p.p50 <= p.p99 && p.p99 <= p.p999 && p.p999 <= p.max,
                        "{} {service:?} percentiles out of order: {p:?}",
                        row.label
                    );
                }
                ensure!(
                    row.exhausted == 0,
                    "{}: a persist exhausted its retry budget",
                    row.label
                );
            }
            for ((plain, plain_store), (throttled, throttled_store)) in [
                (&group.uniform, &group.uniform_throttled),
                (&group.zipf, &group.zipf_throttled),
            ] {
                let label = &throttled.label;
                ensure!(
                    throttled.throttled > 0 && throttled.retries > 0,
                    "{label} saw no 503s/retries"
                );
                ensure!(plain.throttled == 0, "{} saw 503s", plain.label);
                ensure!(
                    throttled_store == plain_store,
                    "{label}: throttling changed the fleet's final store"
                );
            }
            // The hot tenant's contention shows in the tail.
            let p99 = |run: &FleetRun| run.0.overall.as_ref().expect("samples recorded").p99;
            ensure!(
                p99(&group.zipf_throttled) > p99(&group.uniform_throttled),
                "zipf p99 {:?} not above uniform p99 {:?} under throttle",
                p99(&group.zipf_throttled),
                p99(&group.uniform_throttled)
            );
            ensure!(
                group.hot.0.throttled > 0,
                "the store-only throttle never rejected"
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simworld::SimDuration;
    use std::collections::BTreeSet;

    fn small(skew: Option<f64>, throttle: Option<ThrottleConfig>) -> FleetParams {
        FleetParams {
            tenants: 4,
            arrivals_per_tenant: 4,
            rate_per_sec: 50.0,
            shards: 4,
            skew,
            throttle,
            throttle_wal: true,
            seed: 7,
        }
    }

    #[test]
    fn fixed_seed_runs_are_identical() {
        let params = small(
            Some(0.99),
            Some(ThrottleConfig::per_shard(4.0).with_burst(8.0)),
        );
        let (a, fa) = run_fleet(&params).unwrap();
        let (b, fb) = run_fleet(&params).unwrap();
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "rows must replay exactly"
        );
        assert_eq!(fa, fb);
        assert_eq!(a.retries, b.retries);
    }

    #[test]
    fn percentiles_are_ordered_and_cover_all_services() {
        let (row, print) = run_fleet(&small(None, None)).unwrap();
        assert_eq!(row.exhausted, 0);
        assert_eq!(row.persisted, 16);
        // Four tenants, each holding its own chain: four distinct stores.
        assert_eq!(print.iter().collect::<BTreeSet<_>>().len(), 4);
        assert_eq!(row.per_service.len(), 3, "all three services sampled");
        for (service, p) in &row.per_service {
            assert!(p.count > 0);
            assert!(
                p.p50 <= p.p99 && p.p99 <= p.p999 && p.p999 <= p.max,
                "{service:?}: percentiles out of order: {p:?}"
            );
            assert!(
                p.p50 > SimDuration::ZERO,
                "{service:?}: zero-latency sample"
            );
        }
    }

    #[test]
    fn throttling_costs_latency_and_money_but_not_state() {
        let plain = small(Some(0.99), None);
        let hot = small(
            Some(0.99),
            Some(ThrottleConfig::per_shard(4.0).with_burst(8.0)),
        );
        let (prow, pprint) = run_fleet(&plain).unwrap();
        let (hrow, hprint) = run_fleet(&hot).unwrap();
        assert!(hrow.throttled > 0, "the throttle must bite: {hrow:?}");
        assert!(hrow.retries > 0);
        assert_eq!(prow.throttled, 0);
        assert_eq!(
            hprint, pprint,
            "throttling must not change the converged store"
        );
        // Satellite: the 503s are billable, so equal useful work costs
        // strictly more once the provider starts rejecting.
        assert!(
            hrow.bill_usd > prow.bill_usd,
            "rejections must inflate the bill: {} vs {}",
            hrow.bill_usd,
            prow.bill_usd
        );
        assert!(hrow.requests > prow.requests);
    }
}
