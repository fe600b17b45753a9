//! One page of a key-ordered merge across hash shards.
//!
//! Shared by every sharded simulated backend (SimpleDB `Query`,
//! S3 `LIST`): shards hold disjoint key sets, so one page of a global
//! key-ordered scan is the first `page_size` keys of a merge of
//! per-shard pages. The subtle parts — when a candidate is *final*, how
//! much to fetch from each shard, how to account scan work — live here
//! once, so a fix in the pagination machinery cannot drift between
//! services.

/// One page of a key-ordered scan across `shard_count` disjoint shards.
///
/// `fetch(shard, cursor, quota)` returns up to `quota` entries of that
/// shard strictly after `cursor` (`None` = from the start), in key
/// order, plus how many cells it examined. The merge uses an adaptive
/// quota: every shard contributes its proportional share first (a
/// uniform hash spreads consecutive keys evenly, so one round is the
/// common case), then the quota doubles for whichever shard gates the
/// merge. A candidate is *final* once its key is at or below every
/// unexhausted shard's fetch horizon — no shard can still produce a
/// smaller key, because shards hold disjoint key sets.
///
/// A shard `skip` accepts is known to hold nothing after `after`: it is
/// taken as exhausted without a fetch, having examined nothing, and still
/// counts towards the shares of the first round.
///
/// Returns `(page, more, scanned)`: the first `page_size` merged
/// entries, whether more entries remain past the page, and the cells
/// the busiest shard examined (shards scan in parallel, so the busiest
/// one gates a scan-priced call).
pub fn merged_shard_page<K, V, F>(
    shard_count: usize,
    after: Option<K>,
    page_size: usize,
    skip: impl Fn(usize) -> bool,
    mut fetch: F,
) -> (Vec<(K, V)>, bool, u64)
where
    K: Ord,
    F: FnMut(usize, Option<&K>, usize) -> (Vec<(K, V)>, u64),
{
    let need = page_size + 1;
    // Per shard: the pool index of the last key it returned (`None`:
    // nothing yet, so it resumes after `after`), whether it is
    // exhausted, and the cells it examined. Entries are only ever
    // appended to the pool, so an index stays valid while the merge runs.
    let cursors = (0..shard_count).map(|i| (None, skip(i), 0));
    let mut cursors: Vec<(Option<usize>, bool, u64)> = cursors.collect();
    let mut pool: Vec<(K, V)> = Vec::new();
    let mut quota = need.div_ceil(shard_count).max(1);
    // First round: every shard contributes its proportional share.
    // Refill rounds: keys below the finalization boundary can only come
    // from the *gating* shard (the unexhausted shard with the smallest
    // fetch horizon), so only it is fetched again, with a doubled quota
    // while it blocks.
    let mut targets = 0..shard_count;
    loop {
        for i in targets {
            let (cursor, exhausted, examined_here) = &mut cursors[i];
            if *exhausted {
                continue;
            }
            let from = cursor.map_or(after.as_ref(), |at| Some(&pool[at].0));
            let (items, examined) = fetch(i, from, quota);
            *examined_here += examined;
            if items.len() < quota {
                *exhausted = true;
            }
            if !items.is_empty() {
                *cursor = Some(pool.len() + items.len() - 1);
            }
            pool.extend(items);
        }
        let gate: Option<(usize, &K)> = cursors
            .iter()
            .enumerate()
            .filter(|(_, (_, exhausted, _))| !exhausted)
            .map(|(i, (at, _, _))| {
                let at = at.expect("unexhausted shards have fetched a page");
                (i, &pool[at].0)
            })
            .min_by(|a, b| a.1.cmp(b.1));
        let Some((gate, horizon)) = gate else {
            break; // every shard exhausted: the pool is complete
        };
        let finalized = pool.iter().filter(|(k, _)| k <= horizon).count();
        if finalized >= need {
            break;
        }
        targets = gate..gate + 1;
        quota = quota.saturating_mul(2);
    }
    let mut candidates = pool;
    candidates.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
    let more = candidates.len() > page_size;
    candidates.truncate(page_size);
    let scanned = cursors.iter().map(|c| c.2).max().unwrap_or(0);
    (candidates, more, scanned)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic fake backend: shard i holds the keys with
    /// `key % shards == i`.
    fn fetch_from(
        shards: &[Vec<u32>],
    ) -> impl FnMut(usize, Option<&u32>, usize) -> (Vec<(u32, u32)>, u64) + '_ {
        |i, cursor, quota| {
            let items: Vec<(u32, u32)> = shards[i]
                .iter()
                .filter(|k| cursor.map(|c| *k > c).unwrap_or(true))
                .take(quota)
                .map(|k| (*k, *k * 10))
                .collect();
            let examined = items.len() as u64;
            (items, examined)
        }
    }

    fn shards_of(n: u32, shard_count: usize) -> Vec<Vec<u32>> {
        let mut shards = vec![Vec::new(); shard_count];
        for k in 0..n {
            shards[(k as usize) % shard_count].push(k);
        }
        shards
    }

    #[test]
    fn merges_in_key_order_without_skips_or_dups() {
        let shards = shards_of(100, 7);
        let mut after = None;
        let mut walked = Vec::new();
        loop {
            let (page, more, _) = merged_shard_page(7, after, 9, |_| false, fetch_from(&shards));
            walked.extend(page.iter().map(|(k, _)| *k));
            if !more {
                break;
            }
            after = page.last().map(|(k, _)| *k);
        }
        assert_eq!(walked, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn single_shard_degenerates_to_plain_pagination() {
        let shards = shards_of(10, 1);
        let (page, more, scanned) = merged_shard_page(1, None, 4, |_| false, fetch_from(&shards));
        assert_eq!(
            page.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        assert!(more);
        assert!(scanned >= 5, "needs page_size + 1 to prove truncation");
    }

    #[test]
    fn empty_shards_produce_an_empty_final_page() {
        let shards = shards_of(0, 4);
        let (page, more, scanned) = merged_shard_page(4, None, 5, |_| false, fetch_from(&shards));
        assert!(page.is_empty());
        assert!(!more);
        assert_eq!(scanned, 0);
    }

    #[test]
    fn skewed_shards_gate_the_scan_charge() {
        // All keys on one shard: the busiest-shard charge equals the
        // whole scan, as a skewed layout deserves.
        let mut shards = vec![Vec::new(); 4];
        shards[2] = (0..20).collect();
        let (page, more, scanned) = merged_shard_page(4, None, 6, |_| false, fetch_from(&shards));
        assert_eq!(page.len(), 6);
        assert!(more);
        assert!(scanned >= 7);
    }
}
