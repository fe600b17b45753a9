//! Architecture 1 — **Standalone S3** (§4.1).
//!
//! PASS uses S3 as the storage layer for both data and provenance: each
//! file maps to one S3 object and the provenance rides as the object's
//! user metadata on the *same* PUT. That single call makes the pair
//! atomic and mutually consistent (read correctness holds by
//! construction), and causal ordering holds because flushes arrive in
//! ancestor-first order. The price is the query path: the only way to
//! read provenance is a HEAD per object, so any search is a full scan.
//!
//! Records larger than 1 KB are stored as separate S3 objects to stay
//! under the 2 KB metadata cap (§5); so are the largest remaining records
//! if the total still exceeds the cap (§4.1 discusses why this workaround
//! is unattractive).

use std::collections::BTreeMap;

use pass::{FileFlush, ObjectRef, ProvenanceRecord};
use sim_s3::{Metadata, S3Error, S3};
use simworld::{Blob, CrashSite, SimWorld};

use crate::error::Result;
use crate::graph::ProvGraph;
use crate::layout::{data_key, parse_data_key, BUCKET, DATA_PREFIX, PROV_PREFIX};
use crate::query::{graph_query, ProvQuery, QueryAnswer};
use crate::readpath::{fetch_overflow, get_object_with_retry};
use crate::retry::RetryPolicy;
use crate::serialize::{decode_metadata, encode_metadata, encode_records, read_version};
use crate::store::{ProvenanceStore, ReadOutcome, ReadStatus, RecoveryReport};

/// Crash site: client dies before storing an overflow object.
pub const A1_BEFORE_OVERFLOW_PUT: CrashSite = CrashSite::new("arch1.before_overflow_put");

/// Crash site: client dies after the overflow objects but before the
/// data+provenance PUT.
pub const A1_BEFORE_DATA_PUT: CrashSite = CrashSite::new("arch1.before_data_put");

/// PUTs an object that carries no metadata — a provenance overflow or
/// continuation object, an arch3 temporary. The one such PUT in the
/// crate: every architecture's write path calls it.
pub(crate) fn put_plain(s3: &S3, key: &str, blob: &Blob) -> Result<()> {
    Ok(s3.put_object(BUCKET, key, blob.clone(), Metadata::new())?)
}

/// The Standalone-S3 provenance store.
///
/// # Examples
///
/// ```
/// use pass::FileFlush;
/// use provenance_cloud::{ProvenanceStore, StandaloneS3};
/// use simworld::{Blob, SimWorld};
///
/// let world = SimWorld::counting();
/// let mut store = StandaloneS3::new(&world);
/// let flush = FileFlush::builder("a.txt").data(Blob::from("hi")).build();
/// store.persist(&flush)?;
/// let read = store.read("a.txt")?;
/// assert!(read.consistent());
/// # Ok::<(), provenance_cloud::CloudError>(())
/// ```
#[derive(Debug)]
pub struct StandaloneS3 {
    world: SimWorld,
    s3: S3,
    retry: RetryPolicy,
}

impl StandaloneS3 {
    /// Creates the store with its own S3 endpoint and bucket (default
    /// S3 shard count).
    pub fn new(world: &SimWorld) -> StandaloneS3 {
        let s3 = S3::new(world);
        s3.create_bucket(BUCKET)
            .expect("fresh endpoint has no buckets");
        StandaloneS3 {
            world: world.clone(),
            s3,
            retry: RetryPolicy::default(),
        }
    }

    /// The underlying S3 handle (shared).
    pub fn s3(&self) -> &S3 {
        &self.s3
    }

    /// HEAD one object and decode its provenance (overflow values are
    /// fetched with GETs).
    fn head_one(&self, name: &str) -> Result<Option<(ObjectRef, Vec<ProvenanceRecord>)>> {
        let head = match self.s3.head_object(BUCKET, &data_key(name)) {
            Ok(h) => h,
            Err(S3Error::NoSuchKey { .. }) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let version = read_version(&head.metadata)?;
        let records = decode_metadata(&head.metadata, |key| {
            fetch_overflow(&self.s3, &self.world, &self.retry, key)
        })?;
        Ok(Some((ObjectRef::new(name.to_string(), version), records)))
    }

    /// The full repository scan: LIST pages + one HEAD per object.
    fn scan(&self) -> Result<BTreeMap<ObjectRef, Vec<ProvenanceRecord>>> {
        let mut out = BTreeMap::new();
        for summary in self.s3.list_all(BUCKET, DATA_PREFIX)? {
            let Some(name) = parse_data_key(&summary.key) else {
                continue;
            };
            if let Some((object, records)) = self.head_one(name)? {
                out.insert(object, records);
            }
        }
        Ok(out)
    }
}

impl ProvenanceStore for StandaloneS3 {
    fn architecture(&self) -> &'static str {
        "s3"
    }

    /// §4.1 protocol: (1) read the cache files — `flush` *is* the data
    /// cache file plus the hidden provenance file — (2) convert provenance
    /// to attribute-value pairs, (3) one PUT carrying object + provenance.
    fn persist(&mut self, flush: &FileFlush) -> Result<()> {
        // Step 2: serialise, spilling oversized records.
        let encoded = encode_records(&flush.object, &flush.records);
        let (metadata, overflows) = encode_metadata(&flush.object, encoded);
        for (key, blob) in overflows {
            self.world.crash_point(A1_BEFORE_OVERFLOW_PUT)?;
            put_plain(&self.s3, &key, &blob)?;
        }

        // Step 3: data and provenance in a single PUT — the atomicity
        // story of this architecture.
        self.world.crash_point(A1_BEFORE_DATA_PUT)?;
        self.s3.put_object(
            BUCKET,
            &data_key(&flush.object.name),
            flush.data.clone(),
            metadata,
        )?;
        Ok(())
    }

    fn read(&self, name: &str) -> Result<ReadOutcome> {
        let key = data_key(name);
        let object = get_object_with_retry(&self.s3, &self.world, &self.retry, &key, name, &mut 0)?;
        let version = read_version(&object.metadata)?;
        // Overflow chunks ride the same retry: they were PUT before the
        // main object, but a different replica may serve their GET.
        let records = decode_metadata(&object.metadata, |k| {
            fetch_overflow(&self.s3, &self.world, &self.retry, k)
        })?;
        Ok(ReadOutcome {
            object: ObjectRef::new(name.to_string(), version),
            data: object.body,
            records,
            status: ReadStatus::AtomicUnit,
        })
    }

    /// Every query is a full HEAD scan — §4.1: "we might need to iterate
    /// over the provenance of every object in the repository, which is
    /// so inefficient as to be impractical". Q2 and Q3 are then
    /// evaluated on the scanned corpus as a [`ProvGraph`].
    fn query(&self, query: &ProvQuery) -> Result<QueryAnswer> {
        let (program, descendants) = match query {
            ProvQuery::ProvenanceOf { name, version } => {
                let hit = self.head_one(name)?;
                let hit = hit.filter(|(object, _)| object.version == *version);
                return Ok(QueryAnswer::from_map(hit.into_iter().collect()));
            }
            ProvQuery::ProvenanceOfAll => return Ok(QueryAnswer::from_map(self.scan()?)),
            ProvQuery::OutputsOf { program } => (program, false),
            ProvQuery::DescendantsOf { program } => (program, true),
        };
        let graph = ProvGraph::from_records(self.scan()?);
        Ok(graph_query(&graph, program, descendants))
    }

    /// Architecture 1 has no protocol-level recovery to run; the only
    /// residue a crash can leave is orphaned overflow objects (stored
    /// before the main PUT that never happened). This scan deletes
    /// overflow objects describing versions newer than the object they
    /// belong to.
    fn recover(&mut self) -> Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        for summary in self.s3.list_all(BUCKET, PROV_PREFIX)? {
            report.items_scanned += 1;
            // Key shape: prov/{name} {version}/{idx}
            let Some(rest) = summary.key.strip_prefix(PROV_PREFIX) else {
                continue;
            };
            let Some((item_name, _idx)) = rest.rsplit_once('/') else {
                continue;
            };
            let Some(object) = ObjectRef::parse_item_name(item_name) else {
                continue;
            };
            let current = match self.s3.head_object(BUCKET, &data_key(&object.name)) {
                Ok(head) => Some(read_version(&head.metadata)?),
                Err(S3Error::NoSuchKey { .. }) => None,
                Err(e) => return Err(e.into()),
            };
            // Live overflow objects describe the version the data object
            // currently has; anything else is residue.
            if current != Some(object.version) {
                self.s3.delete_object(BUCKET, &summary.key)?;
                report.objects_removed += 1;
            }
        }
        Ok(report)
    }
}
