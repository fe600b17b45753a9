//! The pipelined persist client: a flush stream cut into groups and
//! issued into an open request pipeline.
//!
//! In the paper the client persists one flush per `close()` through the
//! point protocol. Grouping and overlap are this reproduction's
//! additions, and [`persist_groups`] is the one client driver for both:
//! every group issues through [`ProvenanceStore::persist_batch`] while
//! the pipeline keeps up to `depth` requests per service outstanding —
//! groups overlap in flight instead of draining synchronously in the
//! submitting client. How deep is one number, `Option<usize>`: `None`
//! for no region at all, `Some(n)` for a region `n` deep. A group is a
//! run of consecutive flushes: the stream cut with `chunks(group_size)`,
//! the last group taking the remainder.
//!
//! A client crash inside a group fires at that architecture's own crash
//! sites. It loses at most the groups not yet issued (and on
//! Architecture 3 a half-issued group is a commit-less suffix the
//! commit daemon ignores) — the same durability story as the
//! synchronous paths, now with overlap.

use pass::FileFlush;
use simworld::SimWorld;

use crate::error::Result;
use crate::store::ProvenanceStore;

/// Persists `flushes` in groups of `group_size` (`chunks(group_size)`)
/// through [`ProvenanceStore::persist_batch`] under one depth policy:
/// `None` is the synchronous client — one group at a time, no region,
/// the serial latency sum; `Some(n)` opens a pipelined region
/// ([`SimWorld::begin_pipeline`]`(n)`) in which each group's requests
/// *issue* without waiting for the previous group's completions.
/// Requests issue in the same order either way, so the final store
/// state is identical; only the completion accounting — the virtual
/// clock — differs.
///
/// # Errors
///
/// Service errors, or [`crate::CloudError::Crashed`] when a client
/// crash site fires; requests issued before the crash stay on the wire
/// either way, so earlier groups — and part of the failing one — may
/// already be durable.
///
/// # Panics
///
/// When `group_size` is 0, or the depth is `Some(0)`.
pub fn persist_groups(
    world: &SimWorld,
    store: &mut dyn ProvenanceStore,
    flushes: &[FileFlush],
    group_size: usize,
    depth: Option<usize>,
) -> Result<()> {
    let mut groups = flushes.chunks(group_size);
    let Some(depth) = depth else {
        return groups.try_for_each(|g| store.persist_batch(g));
    };
    world.begin_pipeline(depth);
    let result = groups.try_for_each(|g| store.persist_batch(g));
    // Drain even when a crash fired: issued requests are on the wire
    // regardless of the client dying, and the world's pipeline must
    // close either way.
    world.drain_pipeline();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch2::S3SimpleDb;
    use crate::serve::store_fingerprint;
    use simworld::Blob;

    fn flushes(n: usize) -> Vec<FileFlush> {
        (0..n)
            .map(|i| {
                FileFlush::builder(format!("f{i:03}"))
                    .data(Blob::synthetic(i as u64, 512))
                    .build()
            })
            .collect()
    }

    /// Persists `n` flushes in groups of `size` into a fresh arch2 store
    /// on `world`; every one of them must read back consistent and the
    /// region must close. Returns the store's fingerprint.
    fn drive(world: &SimWorld, n: usize, size: usize, depth: Option<usize>) -> u64 {
        let mut store = S3SimpleDb::new(world);
        persist_groups(world, &mut store, &flushes(n), size, depth).unwrap();
        assert!(world.pipeline_depth().is_none(), "the region must close");
        for i in 0..n {
            assert!(store.read(&format!("f{i:03}")).unwrap().consistent());
        }
        store_fingerprint(store.s3(), store.simpledb())
    }

    #[test]
    fn depth_8_and_no_region_give_the_same_fingerprint() {
        let piped = drive(&SimWorld::new(2009), 40, 5, Some(8));
        let sync = drive(&SimWorld::new(2009), 40, 5, None);
        assert_eq!(piped, sync, "the depth must not change the store");
    }

    #[test]
    fn persist_groups_lands_every_group_and_closes_the_region() {
        drive(&SimWorld::new(7), 30, 6, Some(4));
    }

    #[test]
    #[should_panic(expected = "pipeline depth must be positive")]
    fn a_zero_depth_is_rejected() {
        let world = SimWorld::new(7);
        let mut store = S3SimpleDb::new(&world);
        let _ = persist_groups(&world, &mut store, &flushes(4), 2, Some(0));
    }
}
