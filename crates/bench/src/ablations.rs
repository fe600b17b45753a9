//! `--mode=ablations`: five design decisions of the architectures, each
//! varied on its own (the printed results: `golden/ablations_smoke.txt`).
//!
//! 1. **MD5 vs MD5+nonce** — same-content overwrites are invisible to a
//!    bare data hash (§4.2's remark), visible with the nonce;
//! 2. **commit threshold** — daemon polling cost vs WAL backlog;
//! 3. **overflow threshold pressure** — how environment-record size
//!    drives overflow objects and extra operations;
//! 4. **visibility timeout** — duplicate deliveries when consumers are
//!    slower than the timeout (idempotency makes them harmless but
//!    billable);
//! 5. **replication lag** — read retries needed by the §4.2 consistency
//!    loop as staleness grows.

use pass::FileFlush;
use provenance_cloud::{
    Arch3Config, ArchKind, ProvenanceStore, ReadStatus, Result, RetryPolicy, S3SimpleDb,
    S3SimpleDbSqs,
};
use sim_sqs::Sqs;
use simworld::{Blob, Consistency, LatencyModel, Op, SimConfig, SimDuration, SimWorld};
use workloads::{Combined, LinuxCompile};

use crate::harness::{ensure, persist_dataset, Size, Sweep, SEED};

/// All five ablations, each at a small, fixed scale.
#[derive(Clone, Debug, PartialEq)]
pub struct Ablations {
    /// `(same-content overwrites, token collisions with nonce, without)`.
    pub nonce: (u32, u32, u32),
    /// Per threshold: `(threshold, daemon poll ops, mean WAL depth)`.
    pub commit_threshold: Vec<(usize, u64, f64)>,
    /// Per env-size range: `(max env bytes, overflow records, prov ops)`.
    pub overflow_pressure: Vec<(usize, u64, u64)>,
    /// Per visibility timeout: `(timeout secs, deliveries, unique)`.
    pub visibility: Vec<(u64, u64, u64)>,
    /// Per replication lag: `(lag ms, mean read retries)`.
    pub lag_retries: Vec<(u64, f64)>,
}

impl Sweep for Ablations {
    /// The ablations have one fixed scale, so every size runs the same.
    fn run(_: Size) -> Result<Self> {
        Ok(Ablations {
            nonce: nonce_ablation(SEED)?,
            commit_threshold: commit_threshold_ablation(SEED)?,
            overflow_pressure: overflow_pressure_ablation(SEED)?,
            visibility: visibility_ablation(SEED)?,
            lag_retries: lag_retries_ablation(SEED)?,
        })
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Ablation 1: consistency token vs same-content overwrites\n");
        let (pairs, with_nonce, without) = self.nonce;
        out.push_str(&format!(
            "  {pairs} same-content overwrites: {with_nonce} collisions with nonce, \
             {without} without (undetectable)\n",
        ));
        out.push_str("\nAblation 2: commit threshold vs polling cost and backlog\n");
        for (threshold, polls, depth) in &self.commit_threshold {
            out.push_str(&format!(
                "  threshold {threshold:>4}: {polls:>6} daemon ops, mean WAL depth {depth:.1}\n"
            ));
        }
        out.push_str("\nAblation 3: environment size vs overflow pressure (arch 2)\n");
        for (env, overflow, ops) in &self.overflow_pressure {
            out.push_str(&format!(
                "  env ≤ {env:>5}B: {overflow:>5} records >1KB, {ops:>7} persist ops\n"
            ));
        }
        out.push_str("\nAblation 4: visibility timeout vs duplicate deliveries\n");
        for (timeout, deliveries, unique) in &self.visibility {
            out.push_str(&format!(
                "  timeout {timeout:>4}s: {deliveries:>5} deliveries of {unique} messages \
                 ({:.2}x)\n",
                *deliveries as f64 / (*unique).max(1) as f64
            ));
        }
        out.push_str("\nAblation 5: replication lag vs read retries (arch 2)\n");
        for (lag, retries) in &self.lag_retries {
            out.push_str(&format!(
                "  lag {lag:>5}ms: mean {retries:.2} retries per read\n"
            ));
        }
        out
    }

    fn check(&self) -> Verdict {
        check_nonce(self.nonce)?;
        check_commit_threshold(&self.commit_threshold)?;
        check_overflow_pressure(&self.overflow_pressure)?;
        check_visibility(&self.visibility)?;
        check_lag_retries(&self.lag_retries)
    }
}

// `check`, one ablation at a time: the unit tests hold each ablation to
// its part at a seed of their own.
type Verdict = std::result::Result<(), String>;

fn check_nonce((pairs, with_nonce, without): (u32, u32, u32)) -> Verdict {
    ensure!(
        with_nonce == 0 && without == pairs,
        "{pairs} same-content overwrites: {with_nonce} collisions with the nonce, {without} without"
    );
    Ok(())
}

fn check_commit_threshold(rows: &[(usize, u64, f64)]) -> Verdict {
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    ensure!(
        last.1 <= first.1 && last.2 > first.2,
        "a higher threshold must not add polling work and must grow the backlog: {rows:?}"
    );
    Ok(())
}

fn check_overflow_pressure(rows: &[(usize, u64, u64)]) -> Verdict {
    ensure!(
        rows[0].1 < rows[rows.len() - 1].1,
        "overflow records did not grow with the environment size: {rows:?}"
    );
    Ok(())
}

/// A timeout shorter than the 10 s processing redelivers; the longest
/// delivers every message once.
fn check_visibility(rows: &[(u64, u64, u64)]) -> Verdict {
    let (short, long) = (&rows[0], &rows[rows.len() - 1]);
    ensure!(
        short.1 > short.2 && long.1 == long.2 && short.1 > long.1,
        "visibility timeouts (secs, deliveries, unique): {rows:?}"
    );
    Ok(())
}

fn check_lag_retries(rows: &[(u64, f64)]) -> Verdict {
    ensure!(
        rows[0].1 == 0.0 && rows[rows.len() - 1].1 > rows[0].1,
        "retries must start at 0 without lag and grow with it: {rows:?}"
    );
    Ok(())
}

/// Same-content overwrites: how often do consecutive versions produce
/// identical consistency tokens?
fn nonce_ablation(seed: u64) -> Result<(u32, u32, u32)> {
    let pairs = 32u32;
    let mut collide_with = 0;
    let mut collide_without = 0;
    for use_nonce in [true, false] {
        let world = SimWorld::counting();
        let mut store = S3SimpleDb::new(&world);
        store.set_config(provenance_cloud::Arch2Config {
            use_nonce,
            ..provenance_cloud::Arch2Config::default()
        });
        for i in 0..pairs {
            let name = format!("f{i}");
            // Overwrite with the *same* content (the paper's hard case).
            let content = Blob::synthetic(seed ^ u64::from(i), 512);
            store.persist(
                &FileFlush::builder(&name)
                    .version(1)
                    .data(content.clone())
                    .build(),
            )?;
            store.persist(&FileFlush::builder(&name).version(2).data(content).build())?;
            let token = |version: u32| -> String {
                store
                    .simpledb()
                    .latest_item("provenance", &format!("{name} {version}"))
                    .expect("item stored")
                    .get("md5")
                    .next()
                    .expect("md5 attribute")
                    .value
                    .to_string()
            };
            if token(1) == token(2) {
                if use_nonce {
                    collide_with += 1;
                } else {
                    collide_without += 1;
                }
            }
        }
    }
    Ok((pairs, collide_with, collide_without))
}

/// Sweep the daemon's commit threshold; measure polling cost and mean
/// backlog.
fn commit_threshold_ablation(_seed: u64) -> Result<Vec<(usize, u64, f64)>> {
    let mut rows = Vec::new();
    for threshold in [0usize, 2, 8, 32, 128] {
        let world = SimWorld::counting();
        let mut store = S3SimpleDbSqs::new(&world, "ablate");
        let config = Arch3Config {
            commit_threshold: threshold,
            ..Arch3Config::default()
        };
        store.set_config(config);
        let before = world.meters();
        let mut depth_sum = 0usize;
        let flushes: u32 = 120;
        for i in 0..flushes {
            let flush = FileFlush::builder(format!("f{i:03}"))
                .data(Blob::synthetic(u64::from(i), 2048))
                .build();
            store.persist(&flush)?;
            store.poll_daemon()?;
            depth_sum += store.wal_depth_exact();
        }
        let delta = world.meters() - before;
        let daemon_ops = delta.op_count(Op::SqsGetQueueAttributes)
            + delta.op_count(Op::SqsReceiveMessage)
            + delta.op_count(Op::SqsDeleteMessage);
        rows.push((threshold, daemon_ops, depth_sum as f64 / f64::from(flushes)));
        // Leave the store clean so nothing dangles between runs.
        store.run_daemons_until_idle()?;
    }
    Ok(rows)
}

/// Sweep the environment-size distribution and measure overflow
/// pressure on Architecture 2.
fn overflow_pressure_ablation(_seed: u64) -> Result<Vec<(usize, u64, u64)>> {
    let mut rows = Vec::new();
    for (lo, hi) in [(200usize, 600usize), (700, 2_200), (2_000, 4_800)] {
        let dataset = Combined {
            seed: 7,
            compile: LinuxCompile {
                env_size: (lo, hi),
                ..LinuxCompile::default().scaled(0.2)
            },
            blast: workloads::Blast {
                env_size: (lo, hi),
                db_fragment_size: 1 << 20,
                ..workloads::Blast::default().scaled(0.2)
            },
            challenge: workloads::ProvenanceChallenge {
                env_size: (lo, hi),
                image_size: 64 * 1024,
                ..workloads::ProvenanceChallenge::default().scaled(0.2)
            },
        };
        let persisted = persist_dataset(ArchKind::S3SimpleDb, &dataset)?;
        rows.push((
            hi,
            persisted.stats.records_over_1kb,
            persisted.persist_meters.total_ops(),
        ));
    }
    Ok(rows)
}

/// Sweep the visibility timeout against a deliberately slow, pipelined
/// consumer: it fetches the next batch before deleting the previous one,
/// so when processing outlasts the timeout the undeleted messages are
/// redelivered.
fn visibility_ablation(seed: u64) -> Result<Vec<(u64, u64, u64)>> {
    let mut rows = Vec::new();
    let unique = 40u64;
    for timeout_secs in [5u64, 30, 120] {
        let world = SimWorld::with_config(SimConfig {
            seed,
            consistency: Consistency::Strong,
            latency: LatencyModel::zero(),
            replicas: 1,
        });
        let sqs = Sqs::new(&world);
        let url = sqs.create_queue("ablate-visibility");
        sqs.set_visibility_timeout(&url, SimDuration::from_secs(timeout_secs))
            .expect("queue exists");
        for i in 0..unique {
            sqs.send_message(&url, format!("m{i}")).expect("fits");
        }
        let mut deliveries = 0u64;
        let mut pending: Vec<sim_sqs::ReceivedMessage> = Vec::new();
        let mut idle = 0;
        while idle < 60 {
            let batch = sqs.receive_message(&url, 10).expect("queue exists");
            deliveries += batch.len() as u64;
            // Finish (delete) the PREVIOUS batch only now — its
            // processing took 10 simulated seconds.
            for msg in pending.drain(..) {
                sqs.delete_message(&url, &msg.receipt_handle)
                    .expect("handle valid");
            }
            if batch.is_empty() && sqs.exact_message_count(&url) == 0 {
                break;
            }
            if batch.is_empty() {
                idle += 1;
            } else {
                idle = 0;
            }
            world.advance(SimDuration::from_secs(10)); // slow processing
            pending = batch;
        }
        for msg in pending {
            sqs.delete_message(&url, &msg.receipt_handle)
                .expect("handle valid");
        }
        rows.push((timeout_secs, deliveries, unique));
    }
    Ok(rows)
}

/// Sweep replica lag; measure how many retries the §4.2 read loop
/// needs.
fn lag_retries_ablation(seed: u64) -> Result<Vec<(u64, f64)>> {
    let mut rows = Vec::new();
    for lag_ms in [0u64, 200, 1_000, 5_000] {
        let world = SimWorld::with_config(SimConfig {
            seed,
            consistency: Consistency::eventual(SimDuration::from_millis(lag_ms)),
            latency: LatencyModel::zero(),
            replicas: 3,
        });
        let mut store = S3SimpleDb::new(&world);
        store.set_config(provenance_cloud::Arch2Config {
            retry: RetryPolicy::flat(500, SimDuration::from_millis(50)),
            ..provenance_cloud::Arch2Config::default()
        });
        let reads = 24u32;
        let mut total_retries = 0u64;
        for i in 0..reads {
            let name = format!("f{i}");
            let flush = FileFlush::builder(&name)
                .data(Blob::synthetic(u64::from(i), 4096))
                .build();
            store.persist(&flush)?;
            // Read immediately, mid-propagation.
            match store.read(&name)?.status {
                ReadStatus::VerifiedConsistent { retries } => total_retries += u64::from(retries),
                other => panic!("expected convergence, got {other}"),
            }
        }
        rows.push((lag_ms, total_retries as f64 / f64::from(reads)));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonce_ablation_shows_the_papers_remark() {
        check_nonce(nonce_ablation(3).unwrap()).unwrap();
    }

    #[test]
    fn higher_threshold_fewer_daemon_ops_more_backlog() {
        check_commit_threshold(&commit_threshold_ablation(1).unwrap()).unwrap();
    }

    #[test]
    fn bigger_envs_more_overflow() {
        check_overflow_pressure(&overflow_pressure_ablation(1).unwrap()).unwrap();
    }

    #[test]
    fn short_visibility_timeouts_cause_duplicates() {
        check_visibility(&visibility_ablation(5).unwrap()).unwrap();
    }

    #[test]
    fn retries_grow_with_lag() {
        check_lag_retries(&lag_retries_ablation(7).unwrap()).unwrap();
    }
}
