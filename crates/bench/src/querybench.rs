//! Query-scaling sweep: the SimpleDB walk engine vs the materialized
//! closure index, on corpora from 50 to 2000 churn chains.
//!
//! Two Q3 targets separate the regimes:
//!
//! * `blastall` — a fixed two-item answer no matter how large the
//!   corpus grows. Both engines answer it from postings in a handful of
//!   requests: three lookups and the two answer items for the index, one
//!   query per frontier node for the walk.
//! * `churn` — the bulk target whose seed set grows with the corpus.
//!   The walk issues one `QueryWithAttributes` per seed; the index looks
//!   twenty seeds up per `['a' = …] union …` request.
//!
//! Each corpus size runs twice — closure maintenance off (`walk` leg)
//! and on (`index` leg) — so the sweep also measures what the index
//! costs at persist time. [`QuerySweep::check`] asserts:
//!
//! * at every corpus size the index answers both queries item-for-item
//!   what the walk answers, the data + provenance stores are
//!   byte-identical with maintenance on or off, and maintenance is
//!   billed (the index leg's persist phase issues more requests);
//! * the index's `q3 ops` is the same at every corpus size, and at every
//!   size the index issues no more requests than the walk on `q3` and
//!   fewer on `bulk`;
//! * the walk's `q3 ms` grows from 50 to 2000 chains while the index's
//!   grows by at most 2x.
//!
//! The wall-clock side of the same curve is the `query` criterion
//! group (BASELINE.md).

use pass::{FileFlush, Observer, TraceEvent};
use provenance_cloud::layout::{BUCKET, DOMAIN};
use provenance_cloud::{
    domain_fingerprint, Arch2Config, ClosureMode, ProvQuery, ProvenanceStore, Result, S3SimpleDb,
};
use simworld::{Blob, MeterSnapshot, SimWorld};

use crate::harness::{count, ensure, metered, priced_world, Size, Sweep, SEED};

/// Corpus sizes of the sweep, at either size (the whole sweep is
/// seconds-scale because the world is simulated).
const QUERY_CHAINS: [u32; 4] = [50, 200, 500, 2000];

/// Builds the query corpus: `chains` one-tool pipelines
/// (`raw/i.dat -> churn -> cooked/i.dat`) plus one blast pipeline
/// (`q.fa -> blastall -> hits.out -> fmtblast -> report.txt`) whose
/// descendant set stays fixed at two items as the corpus grows.
pub fn query_corpus(chains: u32) -> Vec<FileFlush> {
    let mut obs = Observer::new();
    let mut flushes = Vec::new();
    for i in 0..chains {
        let pid = i + 1;
        let src = format!("raw/{i}.dat");
        let out = format!("cooked/{i}.dat");
        for ev in [
            TraceEvent::source(&src, Blob::synthetic(u64::from(i), 1024)),
            TraceEvent::exec(pid, "churn", "churn", "E=1", None),
            TraceEvent::read(pid, &src),
            TraceEvent::write(pid, &out),
            TraceEvent::close(pid, &out, Blob::synthetic(u64::from(i) + 5000, 512)),
            TraceEvent::exit(pid),
        ] {
            flushes.extend(obs.observe(ev).expect("trace is well-formed"));
        }
    }
    let pid = chains + 1;
    for ev in [
        TraceEvent::source("q.fa", Blob::synthetic(9001, 256)),
        TraceEvent::exec(pid, "blastall", "blastall q.fa", "E=1", None),
        TraceEvent::read(pid, "q.fa"),
        TraceEvent::write(pid, "hits.out"),
        TraceEvent::close(pid, "hits.out", Blob::synthetic(9002, 2048)),
        TraceEvent::exit(pid),
    ] {
        flushes.extend(obs.observe(ev).expect("trace is well-formed"));
    }
    let pid = chains + 2;
    for ev in [
        TraceEvent::exec(pid, "fmtblast", "fmtblast hits.out", "E=1", None),
        TraceEvent::read(pid, "hits.out"),
        TraceEvent::write(pid, "report.txt"),
        TraceEvent::close(pid, "report.txt", Blob::synthetic(9003, 512)),
        TraceEvent::exit(pid),
    ] {
        flushes.extend(obs.observe(ev).expect("trace is well-formed"));
    }
    flushes
}

/// One engine leg at one corpus size.
#[derive(Clone, Debug)]
pub struct QueryScalingRow {
    /// Churn chains in the corpus.
    pub chains: u32,
    /// `"walk"` or `"index"`.
    pub engine: &'static str,
    /// Billable requests the persist phase issued (index maintenance
    /// rides here on the index leg).
    pub persist_ops: u64,
    /// Virtual time of `DescendantsOf("blastall")` in milliseconds.
    pub q3_ms: f64,
    /// Billable requests of the same query.
    pub q3_ops: u64,
    /// Its hits (fixed at 2 by construction).
    pub q3_results: u64,
    /// Virtual time of `DescendantsOf("churn")` in milliseconds.
    pub bulk_ms: f64,
    /// Billable requests of the bulk query.
    pub bulk_ops: u64,
    /// Its hits.
    pub bulk_results: u64,
}

/// What one leg converged to, for cross-leg equality checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryLegState {
    /// FNV-1a over the provenance domain's authoritative latest state.
    pub prov_fingerprint: u64,
    /// Sorted `(key, md5)` of every live data object.
    pub data: Vec<(String, String)>,
    /// Rendered hits of `DescendantsOf("blastall")`, sorted.
    pub q3_names: Vec<String>,
    /// Rendered hits of `DescendantsOf("churn")`, sorted.
    pub bulk_names: Vec<String>,
}

/// Persists the `chains`-chain corpus into a fresh arch2 store on a
/// priced world under closure `mode`; returns the world, the store and
/// the meters of the persist phase.
fn persist_corpus(chains: u32, mode: ClosureMode) -> Result<(SimWorld, S3SimpleDb, MeterSnapshot)> {
    let world = priced_world(SEED);
    let mut store = S3SimpleDb::new(&world);
    store.set_config(Arch2Config {
        closure: mode,
        ..Arch2Config::default()
    });
    let ((), phase, _) = metered(&world, || {
        query_corpus(chains)
            .iter()
            .try_for_each(|flush| store.persist(flush))
    })?;
    Ok((world, store, phase))
}

fn run_leg(chains: u32, mode: ClosureMode) -> Result<(QueryScalingRow, QueryLegState)> {
    let (world, store, phase) = persist_corpus(chains, mode)?;
    let persist_ops = phase.total_ops();
    world.settle();

    let timed = |query: &ProvQuery| -> Result<(f64, u64, Vec<String>)> {
        let (answer, meters, elapsed) = metered(&world, || store.query(query))?;
        Ok((
            elapsed.as_secs_f64() * 1000.0,
            meters.total_ops(),
            answer.names(),
        ))
    };
    let (q3_ms, q3_ops, q3_names) = timed(&ProvQuery::DescendantsOf {
        program: "blastall".into(),
    })?;
    let (bulk_ms, bulk_ops, bulk_names) = timed(&ProvQuery::DescendantsOf {
        program: "churn".into(),
    })?;

    let s3 = store.s3();
    let mut data: Vec<(String, String)> = s3
        .latest_keys(BUCKET, "")
        .into_iter()
        .map(|key| {
            let md5 = s3
                .latest_object(BUCKET, &key)
                .map(|o| o.body.md5().to_hex())
                .unwrap_or_default();
            (key, md5)
        })
        .collect();
    data.sort();

    Ok((
        QueryScalingRow {
            chains,
            engine: if mode == ClosureMode::Serve {
                "index"
            } else {
                "walk"
            },
            persist_ops,
            q3_ms,
            q3_ops,
            q3_results: q3_names.len() as u64,
            bulk_ms,
            bulk_ops,
            bulk_results: bulk_names.len() as u64,
        },
        QueryLegState {
            prov_fingerprint: domain_fingerprint(store.simpledb(), DOMAIN),
            data,
            q3_names,
            bulk_names,
        },
    ))
}

/// `--mode=query`: walk and index legs at 50, 200, 500 and 2000 chains.
/// The same run at both sizes.
#[derive(Clone, Debug)]
pub struct QuerySweep {
    /// `(walk, index)` row pairs, one pair per corpus size.
    pub rows: Vec<QueryScalingRow>,
    /// What each leg converged to, matching `rows`.
    pub states: Vec<QueryLegState>,
}

impl Sweep for QuerySweep {
    fn run(_size: Size) -> Result<Self> {
        let mut sweep = QuerySweep {
            rows: Vec::new(),
            states: Vec::new(),
        };
        for chains in QUERY_CHAINS {
            for mode in [ClosureMode::Off, ClosureMode::Serve] {
                let (row, state) = run_leg(chains, mode)?;
                sweep.rows.push(row);
                sweep.states.push(state);
            }
        }
        Ok(sweep)
    }

    /// `maintain Δops` is the extra billable requests the index leg's
    /// persist phase paid over the walk leg's — the price of keeping the
    /// closure current.
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Q3 scaling: SimpleDB walk vs materialized closure index (virtual time)\n");
        out.push_str(
            " chains | engine | persist ops | maintain Δops |  q3 ms | q3 ops | q3 hits | bulk ms | bulk ops | bulk hits\n",
        );
        for pair in self.rows.chunks(2) {
            for row in pair {
                let delta = if row.engine == "index" {
                    count(row.persist_ops.saturating_sub(pair[0].persist_ops))
                } else {
                    "-".to_string()
                };
                out.push_str(&format!(
                    " {:>6} | {:<6} | {:>11} | {:>13} | {:>6.1} | {:>6} | {:>7} | {:>7.1} | {:>8} | {:>9}\n",
                    row.chains,
                    row.engine,
                    count(row.persist_ops),
                    delta,
                    row.q3_ms,
                    count(row.q3_ops),
                    row.q3_results,
                    row.bulk_ms,
                    count(row.bulk_ops),
                    row.bulk_results,
                ));
            }
        }
        out
    }

    fn check(&self) -> std::result::Result<(), String> {
        for (rows, states) in self.rows.chunks(2).zip(self.states.chunks(2)) {
            let chains = rows[0].chains;
            let (walk, index) = (&states[0], &states[1]);
            ensure!(
                walk.q3_names == index.q3_names && walk.bulk_names == index.bulk_names,
                "index answers diverge from the walk at {chains} chains"
            );
            ensure!(
                walk.prov_fingerprint == index.prov_fingerprint && walk.data == index.data,
                "closure maintenance changed the store at {chains} chains"
            );
            ensure!(
                rows[1].persist_ops > rows[0].persist_ops,
                "index maintenance was not billed at {chains} chains"
            );
        }
        // The index's fixed-answer Q3 touches the same rows no matter
        // how large the corpus grows (O(answer), not O(graph)); the
        // walk's scans keep growing with the domain.
        let leg = |chains: u32, engine: &str| {
            let found = self
                .rows
                .iter()
                .find(|r| r.chains == chains && r.engine == engine);
            found.expect("sweep covers the size")
        };
        ensure!(
            self.rows.iter().all(|r| r.q3_results == 2),
            "a Q3 missed the blast pipeline's two fixed descendants"
        );
        let (walk_small, index_small) = (leg(50, "walk"), leg(50, "index"));
        let (walk_large, index_large) = (leg(2000, "walk"), leg(2000, "index"));
        let index_ops = index_small.q3_ops;
        ensure!(
            self.rows
                .iter()
                .all(|r| r.engine != "index" || r.q3_ops == index_ops),
            "index q3 op count moved with the corpus size"
        );
        // The index has to win on request count, or shrink: a
        // descendant lookup is one posted query per twenty seeds, where
        // the walk pays one per frontier node.
        for pair in self.rows.chunks(2) {
            let (walk, index) = (&pair[0], &pair[1]);
            ensure!(
                index.q3_ops <= walk.q3_ops && index.bulk_ops < walk.bulk_ops,
                "at {} chains the index issues {} / {} requests against the walk's {} / {}",
                walk.chains,
                index.q3_ops,
                index.bulk_ops,
                walk.q3_ops,
                walk.bulk_ops
            );
        }
        ensure!(
            walk_large.q3_ms > walk_small.q3_ms,
            "the walk's scan cost did not grow with the corpus"
        );
        ensure!(
            index_large.q3_ms <= index_small.q3_ms * 2.0,
            "index q3 virtual time scaled {:.2}x from 50 to 2000 chains",
            index_large.q3_ms / index_small.q3_ms
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_shape_is_stable() {
        let flushes = query_corpus(3);
        // 3 churn chains of 4 flushes (src, proc, out, proc-exit
        // absorbed) plus the two blast stages.
        assert!(flushes.len() > 10);
        assert!(flushes.iter().any(|f| f.object.name == "report.txt"));
    }

    #[test]
    fn closure_maintenance_ops_and_bill_delta_is_pinned() {
        // Persist the 50-chain corpus with closure maintenance off and
        // on, and price both phases: maintaining the index costs a
        // pinned number of extra billable requests, and those requests
        // land on the operations line of the bill.
        let mut legs = Vec::new();
        for mode in [ClosureMode::Off, ClosureMode::Serve] {
            let (_, _, phase) = persist_corpus(50, mode).unwrap();
            let bill = costmodel::cost_of(&phase, 0.0, &costmodel::PriceBook::january_2009());
            legs.push((phase.total_ops(), bill.operations_total()));
        }
        assert_eq!(legs[0].0, 310, "walk persist ops moved");
        assert_eq!(legs[1].0, 621, "index persist ops moved");
        assert_eq!(legs[1].0 - legs[0].0, 311, "maintenance op delta moved");
        assert!(
            legs[1].1 > legs[0].1,
            "maintenance must show up on the bill"
        );
    }

    #[test]
    fn index_q3_request_counts_are_pinned() {
        // `q3` is three lookups (processes, seeds, descendants) and the
        // two answer items; `bulk` is one process lookup and, twenty
        // terms a request, three seed lookups and three descendant
        // lookups with nothing to fetch.
        let (walk, _) = run_leg(50, ClosureMode::Off).unwrap();
        let (index, _) = run_leg(50, ClosureMode::Serve).unwrap();
        assert_eq!((walk.engine, index.engine), ("walk", "index"));
        assert_eq!((walk.q3_ops, walk.bulk_ops), (5, 54), "walk moved");
        assert_eq!((index.q3_ops, index.bulk_ops), (5, 7), "index moved");
    }
}
