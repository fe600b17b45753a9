//! A replicated, eventually-consistent key/value map.
//!
//! This is the storage engine under all three service simulators. Each
//! key keeps a short history of writes; each write carries per-replica
//! visibility instants sampled from [`crate::SimWorld::sample_visibility`].
//! A read picks a replica and serves the newest write *visible on that
//! replica*, so a read issued immediately after a write may observe the
//! previous value — exactly the anomaly the paper's consistency property
//! is about. Writes are last-writer-wins, deletes are tombstones, and
//! fully-propagated history is compacted away.
//!
//! # Attribute postings
//!
//! A map whose values are attribute sets (SimpleDB items) can answer
//! "which keys carry `(attribute, value)`?" from a secondary index
//! instead of a scan. Postings are **lazy per attribute**: nothing is
//! kept until [`EcMap::posting_counts`] is first asked about an
//! attribute; from then on every write maintains that attribute's
//! postings. They cover a cell's whole *history*, not just its newest
//! write — a replica may still serve an older one — so they are a
//! superset of what any replica can see, and the page fetch re-checks
//! visibility and the caller's predicate on every candidate. A pair
//! leaves the postings only when compaction drops the last write that
//! carried it.
//!
//! Values are posted under a 64-bit hash ([`value_hash`]), not under a
//! copy of the string: a query hashes each value it asks about once and
//! every shard is probed with that integer. Two values that collide share
//! a key list, which only makes the list a larger superset — the extra
//! candidates carry some other value and fail the predicate re-check like
//! any stale one, and [`EcMap::posting_counts`] stays the upper bound it
//! is documented to be. The hash map is only ever probed, never
//! iterated, so its order cannot reach an answer, a charge or a token —
//! which is also why it can take its key, a hash already, as the table
//! hash ([`PostedHash`]) instead of running SipHash over it.

use std::borrow::Borrow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Bound;

use crate::clock::SimInstant;
use crate::hash::fnv1a_64;
use crate::world::SimWorld;

/// One attribute name–value pair. Ordered by name, then value: a slice
/// sorted that way keeps every pair of one name in one run, values
/// ascending — the order a map from name to a set of values iterates in.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pair {
    /// Attribute name.
    pub name: Box<str>,
    /// Attribute value.
    pub value: Box<str>,
}

impl Pair {
    /// Builds a pair.
    pub fn new(name: impl Into<Box<str>>, value: impl Into<Box<str>>) -> Pair {
        Pair {
            name: name.into(),
            value: value.into(),
        }
    }

    /// The run of `sorted` (ascending, see [`Pair`]) named `name`; empty
    /// when no pair is.
    pub fn run<'a>(sorted: &'a [Pair], name: &str) -> &'a [Pair] {
        let from = sorted.partition_point(|p| *p.name < *name);
        let len = sorted[from..].partition_point(|p| *p.name == *name);
        &sorted[from..from + len]
    }
}

#[derive(Clone, Debug)]
struct Write<V> {
    /// `visible_at[r]` is when replica `r` starts serving this write.
    visible_at: Vec<SimInstant>,
    /// `None` is a delete tombstone.
    value: Option<V>,
}

impl<V> Write<V> {
    /// The pairs this write's state carries for `attr`.
    fn values(&self, values_of: ValuesOf<V>, attr: &str) -> &[Pair] {
        self.value.as_ref().map_or(&[], |v| values_of(v, attr))
    }

    /// True once every replica serves this write.
    fn settled(&self, now: SimInstant) -> bool {
        self.visible_at.iter().all(|t| *t <= now)
    }
}

/// One key's write history. The newest write lives in the cell itself;
/// `older` holds what some replica may still serve instead, oldest
/// first, and owns no allocation once the newest has reached them all.
#[derive(Clone, Debug)]
struct Cell<V> {
    older: Vec<Write<V>>,
    latest: Write<V>,
}

impl<V> Cell<V> {
    /// The whole history, oldest first.
    fn writes(&self) -> impl DoubleEndedIterator<Item = &Write<V>> + Clone {
        self.older.iter().chain(std::iter::once(&self.latest))
    }

    /// The newest write visible on `replica` at `now`.
    fn visible(&self, replica: usize, now: SimInstant) -> Option<&Write<V>> {
        self.writes()
            .rev()
            .find(|w| w.visible_at.get(replica).map(|t| *t <= now).unwrap_or(true))
    }

    /// How many of the oldest writes can never be served again: all
    /// those before the newest one that every replica has reached.
    fn settled_prefix(&self, now: SimInstant) -> usize {
        if self.latest.settled(now) {
            return self.older.len();
        }
        self.older.iter().rposition(|w| w.settled(now)).unwrap_or(0)
    }

    /// Drops the first `cut` writes (at most all of `older`).
    fn drop_oldest(&mut self, cut: usize) {
        if cut == self.older.len() {
            self.older = Vec::new();
        } else {
            self.older.drain(..cut);
        }
    }

    /// True when the only remaining state is a fully-propagated tombstone.
    fn fully_deleted(&self, now: SimInstant) -> bool {
        self.older.is_empty() && self.latest.value.is_none() && self.latest.settled(now)
    }
}

/// Reads the run of pairs `state` carries for an attribute (empty when
/// it carries none) — how an [`EcMap`] looks inside an otherwise opaque
/// `V` to keep attribute postings.
pub type ValuesOf<V> = for<'a> fn(&'a V, &str) -> &'a [Pair];

/// The hash attribute values are posted under (see the module docs).
/// Callers hash a value once and probe every shard with the result.
pub fn value_hash(value: &str) -> u64 {
    fnv1a_64(value)
}

/// The table hash of a [`value_hash`]: the key itself, times an odd
/// constant so that the table's control bits (the top seven) depend on
/// every bit of a key and a narrowed [`Postings::mask`] still spreads.
#[derive(Clone, Copy, Default, Debug)]
struct PostedHash(u64);

impl Hasher for PostedHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a posting table is keyed by u64 alone");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One attribute's postings: value hash → the keys, ascending.
type PostedKeys<K> = HashMap<u64, Vec<K>, BuildHasherDefault<PostedHash>>;

/// The secondary index: attribute → value hash → the keys, ascending,
/// whose write history carries a pair hashing there (see the module docs).
#[derive(Clone, Debug)]
struct Postings<K, V> {
    by_attr: BTreeMap<String, PostedKeys<K>>,
    /// Set by the first build; `by_attr` is empty until then.
    values_of: Option<ValuesOf<V>>,
    /// And-ed onto every hash, stored or probed. All ones, except in the
    /// tests that narrow it until nearly every probe collides.
    mask: u64,
}

impl<K, V> Default for Postings<K, V> {
    fn default() -> Self {
        Postings {
            by_attr: BTreeMap::new(),
            values_of: None,
            mask: u64::MAX,
        }
    }
}

/// Posts `key` under `hash`, keeping the key list ascending and
/// duplicate-free.
fn post<K: Ord + Clone>(by_value: &mut PostedKeys<K>, hash: u64, key: &K) {
    // Most values are carried by one key: a first push would reserve four.
    let keys = by_value
        .entry(hash)
        .or_insert_with(|| Vec::with_capacity(1));
    if let Err(at) = keys.binary_search(key) {
        keys.insert(at, key.clone());
    }
}

/// Where the pairs `writes` carry for `attr` are posted.
fn posted_hashes<'a, V: 'a>(
    writes: impl Iterator<Item = &'a Write<V>> + 'a,
    values_of: ValuesOf<V>,
    attr: &'a str,
    mask: u64,
) -> impl Iterator<Item = u64> + 'a {
    let carried = writes.flat_map(move |w| w.values(values_of, attr));
    carried.map(move |pair| value_hash(&pair.value) & mask)
}

impl<K: Ord + Clone, V> Postings<K, V> {
    /// Posts `key` under every indexed pair `state` carries.
    fn add(&mut self, key: &K, state: &V) {
        let Some(values_of) = self.values_of else {
            return;
        };
        let mask = self.mask;
        for (attr, by_value) in &mut self.by_attr {
            for pair in values_of(state, attr) {
                post(by_value, value_hash(&pair.value) & mask, key);
            }
        }
    }

    /// Unposts `key` from every indexed hash that a pair of one of its
    /// cell's first `cut` writes — the ones about to be dropped — landed
    /// on and no pair of a later write still does.
    fn forget(&mut self, key: &K, cell: &Cell<V>, cut: usize) {
        let (true, Some(values_of)) = (cut > 0, self.values_of) else {
            return;
        };
        let mask = self.mask;
        for (attr, by_value) in &mut self.by_attr {
            for hash in posted_hashes(cell.writes().take(cut), values_of, attr, mask) {
                let mut kept = posted_hashes(cell.writes().skip(cut), values_of, attr, mask);
                if kept.any(|k| k == hash) {
                    continue;
                }
                let Some(keys) = by_value.get_mut(&hash) else {
                    continue;
                };
                if let Ok(at) = keys.binary_search(key) {
                    keys.remove(at);
                }
                if keys.is_empty() {
                    by_value.remove(&hash);
                }
            }
        }
    }

    /// The keys from `start` on posted under any `(attribute, value
    /// hash)` pair of `cover`, ascending and deduplicated — or `None`
    /// when the cover names an attribute that has no postings (yet).
    fn candidates<'a>(
        &'a self,
        cover: &[(&str, u64)],
        start: Bound<&K>,
    ) -> Option<impl Iterator<Item = &'a K>> {
        let mut heads = Vec::with_capacity(cover.len());
        for (attr, hash) in cover {
            let keys = self
                .by_attr
                .get(*attr)?
                .get(&(hash & self.mask))
                .map_or(&[][..], Vec::as_slice);
            let from = match start {
                Bound::Unbounded => 0,
                Bound::Included(s) => keys.partition_point(|k| k < s),
                Bound::Excluded(s) => keys.partition_point(|k| k <= s),
            };
            heads.push(keys[from..].iter().peekable());
        }
        // A merge of the sorted lists; an item carrying two pairs of the
        // cover is posted under both and must come out once.
        Some(std::iter::from_fn(move || {
            let next = heads.iter_mut().filter_map(|h| h.peek().copied()).min()?;
            for head in &mut heads {
                if head.peek() == Some(&next) {
                    head.next();
                }
            }
            Some(next)
        }))
    }
}

/// An eventually-consistent map from `K` to `V`.
///
/// # Examples
///
/// ```
/// use simworld::{EcMap, SimConfig, SimWorld};
///
/// let world = SimWorld::counting(); // strong consistency: reads are fresh
/// let mut map = EcMap::new();
/// map.write(&world, "key", Some(1));
/// assert_eq!(map.read(&world, &"key"), Some(1));
/// map.write(&world, "key", None); // delete
/// assert_eq!(map.read(&world, &"key"), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EcMap<K: Ord, V> {
    cells: BTreeMap<K, Cell<V>>,
    postings: Postings<K, V>,
}

impl<K: Ord + Clone, V: Clone> EcMap<K, V> {
    /// An empty map.
    pub fn new() -> EcMap<K, V> {
        EcMap {
            cells: BTreeMap::new(),
            postings: Postings::default(),
        }
    }

    /// Applies a write (`Some`) or delete (`None`) at the current virtual
    /// time, with per-replica propagation sampled from `world`.
    pub fn write(&mut self, world: &SimWorld, key: K, value: Option<V>) {
        self.write_at(world.now(), world.sample_visibility(), key, value);
    }

    /// Applies a write with an explicit propagation schedule: replica `i`
    /// starts serving the write at `visible_at[i]`. This is the
    /// deterministic core of [`EcMap::write`]; tests (notably the
    /// compaction-invariant proptest) use it to inject adversarial
    /// schedules without going through the world RNG.
    pub fn write_at(
        &mut self,
        now: SimInstant,
        visible_at: Vec<SimInstant>,
        key: K,
        value: Option<V>,
    ) {
        if let Some(state) = &value {
            self.postings.add(&key, state);
        }
        let write = Write { visible_at, value };
        match self.cells.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(Cell {
                    older: Vec::new(),
                    latest: write,
                });
            }
            Entry::Occupied(mut slot) => {
                let cell = slot.get_mut();
                let previous = std::mem::replace(&mut cell.latest, write);
                cell.older.push(previous);
                let cut = cell.settled_prefix(now);
                self.postings.forget(slot.key(), slot.get(), cut);
                slot.get_mut().drop_oldest(cut);
            }
        }
    }

    /// Serves a read from a randomly chosen replica; may return stale
    /// state under eventual consistency.
    pub fn read<Q>(&self, world: &SimWorld, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.read_with(world, key, |value| value.cloned())
    }

    /// [`EcMap::read`] without the clone: `f` sees the served value in
    /// place (`None` for an absent, deleted or not-yet-visible key). The
    /// replica is drawn before the clock is read, exactly as `read` does.
    pub fn read_with<Q, R>(&self, world: &SimWorld, key: &Q, f: impl FnOnce(Option<&V>) -> R) -> R
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let replica = world.sample_read_replica();
        let now = world.now();
        f(self.visible_value(replica, now, key))
    }

    /// Serves a read from an explicitly chosen replica at an explicit
    /// instant. A paginated scan that pins one replica per shard uses
    /// this to keep every page of one logical scan on the same view.
    pub fn read_on<Q>(&self, replica: usize, now: SimInstant, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.visible_value(replica, now, key).cloned()
    }

    fn visible_value<Q>(&self, replica: usize, now: SimInstant, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.cells.get(key)?.visible(replica, now)?.value.as_ref()
    }

    /// The authoritative newest value, ignoring propagation (what every
    /// replica will eventually serve). Use for invariant checks, not for
    /// simulated client reads.
    pub fn read_latest<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.read_latest_with(key, V::clone)
    }

    /// [`EcMap::read_latest`] without the clone: `f` of the newest value
    /// in place, `None` for an absent or deleted key.
    pub fn read_latest_with<Q, R>(&self, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.cells.get(key)?.latest.value.as_ref().map(f)
    }

    /// Iterates the authoritative live entries in key order.
    pub fn iter_latest(&self) -> impl Iterator<Item = (&K, V)> + '_ {
        self.cells
            .iter()
            .filter_map(|(k, c)| c.latest.value.clone().map(|v| (k, v)))
    }

    /// For each `(attribute, hash)` probe — the [`value_hash`] of the
    /// value asked about — the number of keys posted there, written to
    /// the same index of `counts`: an upper bound on the candidates a page
    /// fetch covered by that pair has to check. Consecutive probes of one
    /// attribute (the terms of a `union`) share one lookup of it. The
    /// first probe naming an attribute builds its postings from every
    /// cell's full history; writes keep them current from then on.
    pub fn posting_counts(
        &mut self,
        values_of: ValuesOf<V>,
        probes: &[(&str, u64)],
        counts: &mut [usize],
    ) {
        let mask = self.postings.mask;
        let mut counts = counts.iter_mut();
        for run in probes.chunk_by(|a, b| a.0 == b.0) {
            let attr = run[0].0;
            let by_value = match self.postings.by_attr.get(attr) {
                Some(by_value) => by_value,
                None => {
                    let mut by_value = PostedKeys::default();
                    for (key, cell) in &self.cells {
                        for posted in posted_hashes(cell.writes(), values_of, attr, mask) {
                            post(&mut by_value, posted, key);
                        }
                    }
                    self.postings.values_of = Some(values_of);
                    self.postings
                        .by_attr
                        .entry(attr.to_string())
                        .or_insert(by_value)
                }
            };
            for ((_, hash), count) in run.iter().zip(&mut counts) {
                *count = by_value.get(&(hash & mask)).map_or(0, Vec::len);
            }
        }
    }

    /// Up to `limit` live entries visible on `replica`, in key order,
    /// strictly after `after` (`None` starts from the beginning). `select`
    /// sees each visible entry in place and returns the row to serve for
    /// it, or `None` to pass it over — so only what a caller keeps of a
    /// matching value is ever copied out of the map. This is the
    /// per-shard building block of cursor-based pagination: resuming
    /// strictly after the last key served can neither skip nor duplicate
    /// a key, no matter what was inserted or deleted between pages.
    ///
    /// `cover` is an *equality cover* of `select`: `(attribute, value
    /// hash)` pairs of which every entry `select` keeps carries at least
    /// one. With a cover whose attributes all have postings (see
    /// [`EcMap::posting_counts`]) the candidates come from the postings
    /// instead of a walk over every cell; the result is the same either
    /// way, because every candidate still passes through the visibility
    /// check and `select`.
    ///
    /// Also returns how many cells a scan of the range examines — up to
    /// and including the entry that filled the page, else to the end —
    /// so callers can charge a scan cost proportional to the modelled
    /// work, whichever way the candidates were found.
    pub fn visible_page_on<T>(
        &self,
        replica: usize,
        now: SimInstant,
        after: Option<&K>,
        limit: usize,
        cover: Option<&[(&str, u64)]>,
        select: impl FnMut(&K, &V) -> Option<T>,
    ) -> (Vec<(K, T)>, u64) {
        let start = match after {
            Some(k) => Bound::Excluded(k),
            None => Bound::Unbounded,
        };
        self.page(replica, now, start, limit, cover, |_| false, select)
    }

    /// Range-bounded form of [`EcMap::visible_page_on`], serving whole
    /// values `pred` accepts: the scan starts at `start` and stops at the
    /// first key `beyond` accepts, without charging for cells past it.
    /// Keys scan in order, so a caller whose matches form a contiguous
    /// key range — e.g. an S3 prefix LIST — avoids examining (and being
    /// billed for) the rest of the shard.
    pub fn visible_page_from<F, G>(
        &self,
        replica: usize,
        now: SimInstant,
        start: Bound<&K>,
        limit: usize,
        beyond: G,
        mut pred: F,
    ) -> (Vec<(K, V)>, u64)
    where
        F: FnMut(&K, &V) -> bool,
        G: FnMut(&K) -> bool,
    {
        let whole = |k: &K, v: &V| pred(k, v).then(|| v.clone());
        self.page(replica, now, start, limit, None, beyond, whole)
    }

    /// The one page loop. Candidates are every cell from `start`, or —
    /// under a posted `cover` — only the cells posted under it; what
    /// happens to a candidate does not depend on where it came from.
    /// (`beyond` and `cover` never meet: a posted fetch cannot tell how
    /// many unposted cells lie before the first key `beyond` accepts.)
    #[allow(clippy::too_many_arguments)]
    fn page<T>(
        &self,
        replica: usize,
        now: SimInstant,
        start: Bound<&K>,
        limit: usize,
        cover: Option<&[(&str, u64)]>,
        mut beyond: impl FnMut(&K) -> bool,
        mut select: impl FnMut(&K, &V) -> Option<T>,
    ) -> (Vec<(K, T)>, u64) {
        let mut posted = cover.and_then(|c| self.postings.candidates(c, start));
        let from_postings = posted.is_some();
        let mut scan = self.cells.range::<K, _>((start, Bound::Unbounded));
        let candidates = std::iter::from_fn(|| match &mut posted {
            Some(keys) => keys.find_map(|k| self.cells.get_key_value(k)),
            None => scan.next(),
        });
        let mut examined = 0u64;
        let mut out = Vec::new();
        for (k, c) in candidates {
            if beyond(k) {
                break;
            }
            examined += 1;
            let Some(v) = c.visible(replica, now).and_then(|w| w.value.as_ref()) else {
                continue;
            };
            let Some(row) = select(k, v) else {
                continue;
            };
            out.push((k.clone(), row));
            if out.len() >= limit {
                break;
            }
        }
        if from_postings {
            // Charge what the scan would have examined: the cells up to
            // the entry that filled the page, else all of them — a count
            // over keys alone, and no walk at all from the very start.
            examined = match (start, out.last().filter(|_| out.len() >= limit)) {
                (Bound::Unbounded, None) => self.cells.len() as u64,
                (_, None) => self.cells.range::<K, _>((start, Bound::Unbounded)).count() as u64,
                (_, Some((last, _))) => self
                    .cells
                    .range::<K, _>((start, Bound::Included(last)))
                    .count() as u64,
            };
        }
        (out, examined)
    }

    /// Number of cells currently stored, live or tombstoned — the rows
    /// a full scan examines.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Iterates every cell key, live or tombstoned, in key order.
    pub fn cell_keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.cells.keys()
    }

    /// Moves every cell whose key `pred` accepts into a new map,
    /// carrying its full write history — values, tombstones, and
    /// per-replica visibility schedules — untouched, so reads against
    /// the moved cells behave exactly as they would have in place. This
    /// is the migration engine under hot-shard splitting in
    /// [`crate::ShardMap`]. Attribute postings are dropped on both halves
    /// and rebuilt lazily.
    pub fn split_off_by<F>(&mut self, mut pred: F) -> EcMap<K, V>
    where
        F: FnMut(&K) -> bool,
    {
        let moving: Vec<K> = self.cells.keys().filter(|k| pred(k)).cloned().collect();
        let mut moved = BTreeMap::new();
        for key in moving {
            if let Some(cell) = self.cells.remove(&key) {
                moved.insert(key, cell);
            }
        }
        // Neither half keeps postings: each rebuilds an attribute's from
        // its own cells the next time a query names it.
        self.postings.by_attr.clear();
        EcMap {
            cells: moved,
            postings: Postings {
                by_attr: BTreeMap::new(),
                ..self.postings
            },
        }
    }

    /// Counts the live entries visible on `replica` that `pred` accepts,
    /// without cloning any value — the engine under `count(*)`. Returns
    /// `(matches, cells examined)`.
    pub fn visible_count_on<F>(&self, replica: usize, now: SimInstant, mut pred: F) -> (u64, u64)
    where
        F: FnMut(&K, &V) -> bool,
    {
        let mut matched = 0u64;
        let mut scanned = 0u64;
        for (k, c) in &self.cells {
            scanned += 1;
            if let Some(v) = c.visible(replica, now).and_then(|w| w.value.as_ref()) {
                if pred(k, v) {
                    matched += 1;
                }
            }
        }
        (matched, scanned)
    }

    /// Drops tombstoned keys whose deletion has reached every replica and
    /// compacts remaining history. Call opportunistically.
    pub fn gc(&mut self, now: SimInstant) {
        let postings = &mut self.postings;
        self.cells.retain(|key, cell| {
            let cut = cell.settled_prefix(now);
            // A cell about to be reclaimed is down to one tombstone, which
            // carries no pairs: the writes cut are everything left to unpost.
            postings.forget(key, cell, cut);
            cell.drop_oldest(cut);
            !cell.fully_deleted(now)
        });
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::clock::SimDuration;
    use crate::latency::LatencyModel;
    use crate::world::{Consistency, SimConfig};

    fn eventual_world(seed: u64, lag_secs: u64) -> SimWorld {
        SimWorld::with_config(SimConfig {
            seed,
            consistency: Consistency::eventual(SimDuration::from_secs(lag_secs)),
            latency: LatencyModel::zero(),
            replicas: 3,
        })
    }

    #[test]
    fn strong_reads_are_always_fresh() {
        let world = SimWorld::counting();
        let mut map = EcMap::new();
        for i in 0..100 {
            map.write(&world, "k", Some(i));
            assert_eq!(map.read(&world, &"k"), Some(i));
        }
    }

    #[test]
    fn eventual_read_can_be_stale_then_settles() {
        let world = eventual_world(11, 60);
        let mut map = EcMap::new();
        map.write(&world, "k", Some("old"));
        world.settle();
        map.write(&world, "k", Some("new"));
        // Immediately after the write some replica still serves "old".
        let mut saw_stale = false;
        for _ in 0..64 {
            if map.read(&world, &"k") == Some("old") {
                saw_stale = true;
                break;
            }
        }
        assert!(
            saw_stale,
            "with 60s lag and 3 replicas a stale read should occur"
        );
        // After the lag bound passes, every replica serves "new".
        world.settle();
        for _ in 0..16 {
            assert_eq!(map.read(&world, &"k"), Some("new"));
        }
    }

    #[test]
    fn last_writer_wins() {
        let world = eventual_world(5, 30);
        let mut map = EcMap::new();
        map.write(&world, "k", Some(1));
        map.write(&world, "k", Some(2)); // concurrent overwrite
        world.settle();
        assert_eq!(map.read(&world, &"k"), Some(2));
        assert_eq!(map.read_latest(&"k"), Some(2));
    }

    #[test]
    fn delete_is_a_tombstone_that_eventually_hides_the_key() {
        let world = eventual_world(9, 60);
        let mut map = EcMap::new();
        map.write(&world, "k", Some(5));
        world.settle();
        map.write(&world, "k", None);
        // Some replica may still serve 5 for a while...
        let _ = map.read(&world, &"k");
        world.settle();
        assert_eq!(map.read(&world, &"k"), None);
        assert_eq!(map.read_latest(&"k"), None);
    }

    #[test]
    fn read_of_missing_key_is_none() {
        let world = SimWorld::counting();
        let map: EcMap<&str, u32> = EcMap::new();
        assert_eq!(map.read(&world, &"nope"), None);
        assert_eq!(map.read_latest(&"nope"), None);
    }

    #[test]
    fn a_new_write_is_visible_somewhere_immediately() {
        // The accepting (primary) replica serves its own write at once.
        let world = eventual_world(13, 3600);
        let mut map = EcMap::new();
        map.write(&world, "k", Some(7));
        let mut seen = false;
        for _ in 0..128 {
            if map.read(&world, &"k") == Some(7) {
                seen = true;
                break;
            }
        }
        assert!(seen);
    }

    #[test]
    fn len_and_iter_track_latest_state() {
        let world = SimWorld::counting();
        let mut map = EcMap::new();
        map.write(&world, "a", Some(1));
        map.write(&world, "b", Some(2));
        map.write(&world, "c", Some(3));
        map.write(&world, "b", None);
        let live: Vec<_> = map.iter_latest().map(|(k, v)| (*k, v)).collect();
        assert_eq!(live, vec![("a", 1), ("c", 3)]);
        // The tombstone is still a cell until it is swept.
        assert_eq!(map.cell_count(), 3);
    }

    #[test]
    fn visible_entries_respect_replica_lag() {
        let world = eventual_world(21, 60);
        let mut map = EcMap::new();
        let wrote_at = world.now();
        map.write(&world, "a", Some(1));
        let list = |replica, now| {
            let (page, _) = map.visible_page_on(replica, now, None, 10, None, |_, v| Some(*v));
            page
        };
        // Before settling, a list includes "a" on the replicas the write
        // has reached and on no other — the accepting replica at once.
        let reached = (0..3).filter(|r| !list(*r, wrote_at).is_empty()).count();
        assert!((1..3).contains(&reached), "{reached} of 3 replicas");
        for replica in 0..3 {
            let served = map.read_on(replica, wrote_at, &"a");
            assert_eq!(
                list(replica, wrote_at),
                Vec::from_iter(served.map(|v| ("a", v)))
            );
        }
        // Afterwards it must, everywhere.
        world.settle();
        for replica in 0..3 {
            assert_eq!(list(replica, world.now()), vec![("a", 1)]);
        }
    }

    #[test]
    fn gc_reclaims_fully_deleted_cells() {
        let world = eventual_world(2, 1);
        let mut map = EcMap::new();
        map.write(&world, "a", Some(1));
        map.write(&world, "b", Some(2));
        map.write(&world, "a", None);
        world.settle();
        map.gc(world.now());
        // The tombstoned cell is physically gone.
        assert_eq!(map.cell_keys().collect::<Vec<_>>(), vec![&"b"]);
        assert_eq!(map.iter_latest().count(), 1);
    }

    #[test]
    fn a_settled_cell_owns_no_history_allocation() {
        // Strong consistency: every overwrite settles as it lands.
        let world = SimWorld::counting();
        let mut map = EcMap::new();
        for i in 0..10 {
            map.write(&world, "k", Some(i));
            assert_eq!(map.cells[&"k"].older.capacity(), 0);
        }
        // Eventual: history is held while a replica may serve it...
        let world = eventual_world(6, 60);
        let mut map = EcMap::new();
        map.write(&world, "k", Some(0));
        world.settle();
        for i in 1..4 {
            map.write(&world, "k", Some(i));
        }
        assert!(!map.cells[&"k"].older.is_empty());
        // ...and given back, buffer and all, by the write or the sweep
        // that finds the newest write everywhere.
        world.settle();
        map.gc(world.now());
        assert_eq!(map.cells[&"k"].older.capacity(), 0);
        assert_eq!(map.read(&world, &"k"), Some(3));
    }

    #[test]
    fn compaction_preserves_served_values() {
        let world = eventual_world(4, 1);
        let mut map = EcMap::new();
        for i in 0..50 {
            map.write(&world, "k", Some(i));
            world.settle();
        }
        map.gc(world.now());
        assert_eq!(map.read(&world, &"k"), Some(49));
    }

    #[test]
    fn visible_keys_match_visible_entries() {
        let world = eventual_world(8, 30);
        let mut map = EcMap::new();
        for i in 0..20 {
            map.write(&world, format!("k{i:02}"), Some(i));
        }
        map.write(&world, "k05".to_string(), None); // delete one
        let keys_on = |replica, now| {
            let (page, _) = map.visible_page_on(replica, now, None, 100, None, |_, _| Some(()));
            page.into_iter().map(|(k, ())| k).collect::<Vec<String>>()
        };
        // At any staleness level a key listing agrees, key for key, with
        // the point reads taken on the same replica at the same instant.
        let stale = world.now();
        world.settle();
        for now in [stale, world.now()] {
            for replica in 0..3 {
                let keys = keys_on(replica, now);
                for i in 0..20 {
                    let key = format!("k{i:02}");
                    let served = map.read_on(replica, now, &key).is_some();
                    assert_eq!(keys.contains(&key), served, "{key} on replica {replica}");
                }
            }
        }
        let keys = keys_on(0, world.now());
        assert_eq!(keys.len(), 19);
        assert!(!keys.contains(&"k05".to_string()));
    }

    // --- attribute postings ---

    /// Sorted and duplicate-free, as `ValuesOf` needs it.
    type Item = Vec<Pair>;

    fn item(pairs: &[(&str, &str)]) -> Item {
        let mut item: Item = pairs.iter().map(|(a, v)| Pair::new(*a, *v)).collect();
        item.sort();
        item.dedup();
        item
    }

    fn item_values<'a>(item: &'a Item, attr: &str) -> &'a [Pair] {
        Pair::run(item, attr)
    }

    fn carries(item: &Item, attr: &str, value: &str) -> bool {
        item_values(item, attr).iter().any(|p| *p.value == *value)
    }

    /// A cover as the map takes it: values replaced by their hashes.
    fn hashed<'a>(cover: &[(&'a str, &str)]) -> Vec<(&'a str, u64)> {
        let hash = |(attr, value): &(&'a str, &str)| (*attr, value_hash(value));
        cover.iter().map(hash).collect()
    }

    fn count(map: &mut EcMap<impl Ord + Clone, Item>, attr: &str, value: &str) -> usize {
        let mut count = [0];
        map.posting_counts(item_values, &[(attr, value_hash(value))], &mut count);
        count[0]
    }

    /// Serves whole items `pred` accepts.
    fn whole<K>(mut pred: impl FnMut(&K, &Item) -> bool) -> impl FnMut(&K, &Item) -> Option<Item> {
        move |k, v| pred(k, v).then(|| v.clone())
    }

    #[test]
    fn unqueried_maps_keep_no_postings() {
        let world = SimWorld::counting();
        let mut map = EcMap::new();
        map.write(&world, "k", Some(item(&[("a", "x")])));
        assert!(map.postings.by_attr.is_empty());
        // A cover over an attribute nobody asked about falls back to the scan.
        let cover = hashed(&[("a", "x")]);
        let now = world.now();
        let all = whole(|_, _| true);
        let (hits, examined) = map.visible_page_on(0, now, None, 10, Some(&cover), all);
        assert_eq!((hits.len(), examined), (1, 1));
        assert!(map.postings.by_attr.is_empty());
    }

    #[test]
    fn postings_reach_an_older_write_a_lagging_replica_still_serves() {
        let t0 = SimInstant::EPOCH;
        let later = t0 + SimDuration::from_secs(10);
        let mut map = EcMap::new();
        map.write_at(t0, vec![t0, t0], "k", Some(item(&[("a", "x")])));
        map.write_at(t0, vec![t0, t0], "other", Some(item(&[("a", "z")])));
        assert_eq!(count(&mut map, "a", "x"), 1);
        // The overwrite reaches replica 0 at once and replica 1 in 10 s.
        map.write_at(t0, vec![t0, later], "k", Some(item(&[("a", "y")])));
        assert_eq!(count(&mut map, "a", "x"), 1);
        assert_eq!(count(&mut map, "a", "y"), 1);

        let cover = hashed(&[("a", "x")]);
        let is_x = |_: &&str, v: &Item| carries(v, "a", "x");
        // Replica 1 still serves a=x, though the newest write says a=y.
        let (hits, examined) = map.visible_page_on(1, t0, None, 10, Some(&cover), whole(is_x));
        assert_eq!(hits, vec![("k", item(&[("a", "x")]))]);
        assert_eq!(examined, 2, "charged as the scan of both cells");
        // Replica 0 has moved on: the candidate fails the re-check.
        let (hits, _) = map.visible_page_on(0, t0, None, 10, Some(&cover), whole(is_x));
        assert!(hits.is_empty());

        // Once every replica serves a=y the old write compacts away, and
        // with it the last reason to post `k` under a=x.
        map.gc(later);
        assert_eq!(count(&mut map, "a", "x"), 0);
        assert_eq!(count(&mut map, "a", "y"), 1);
    }

    #[test]
    fn split_drops_postings_and_both_halves_rebuild() {
        let world = SimWorld::counting();
        let mut map = EcMap::new();
        for k in 0..10u64 {
            map.write(&world, k, Some(item(&[("a", "x")])));
        }
        assert_eq!(count(&mut map, "a", "x"), 10);
        let mut moved = map.split_off_by(|k| k % 2 == 1);
        assert!(map.postings.by_attr.is_empty() && moved.postings.by_attr.is_empty());
        assert_eq!(count(&mut map, "a", "x"), 5);
        assert_eq!(count(&mut moved, "a", "x"), 5);
    }

    #[test]
    fn a_collision_inflates_the_count_but_not_the_page() {
        let world = SimWorld::counting();
        let mut map = EcMap::new();
        map.postings.mask = 0; // every value of an attribute shares one key list
        for k in 0..9u64 {
            let value = ["x", "y", "z"][k as usize % 3];
            map.write(&world, k, Some(item(&[("a", value)])));
        }
        assert_eq!(count(&mut map, "a", "x"), 9, "an upper bound: 3 carry a=x");
        assert_eq!(count(&mut map, "a", "nobody-has-this-value"), 9);
        let cover = hashed(&[("a", "x")]);
        let is_x = whole(|_: &u64, v: &Item| carries(v, "a", "x"));
        let (hits, examined) = map.visible_page_on(0, world.now(), None, 10, Some(&cover), is_x);
        let keys: Vec<u64> = hits.into_iter().map(|(k, _)| k).collect();
        assert_eq!((keys, examined), (vec![0, 3, 6], 9));
        // Overwriting a=x with a=y drops a pair whose hash a kept one
        // still lands on: the key must stay posted there.
        map.write(&world, 0, Some(item(&[("a", "y")])));
        assert_eq!(count(&mut map, "a", "y"), 9);
    }

    /// The covers the proptest probes with; every `pred` it pairs them
    /// with implies "carries one of these pairs".
    const COVERS: &[&[(&str, &str)]] = &[
        &[("a", "x")],
        &[("a", "x"), ("a", "y")],
        &[("b", "p")],
        &[("a", "y"), ("b", "q")],
        &[("a", "nobody-has-this-value")],
        &[("c", "nobody-has-this-attribute")],
        &[("a", "x"), ("a", "x")],
    ];

    /// Index-fed and scan-fed fetches of one map must agree on entries
    /// *and* on the examined count, and the postings must be exactly
    /// what a rebuild from the surviving histories would give.
    fn check_postings(
        map: &mut EcMap<u64, Item>,
        now: SimInstant,
        (replica, cursor, limit, shape): (usize, u64, usize, usize),
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let cover = COVERS[shape % COVERS.len()];
        let mut true_counts = Vec::new();
        for (attr, value) in cover {
            let carrying = map.cells.values().filter(|c| {
                let mut states = c.writes().filter_map(|w| w.value.as_ref());
                states.any(|v| carries(v, attr, value))
            });
            true_counts.push(carrying.count());
        }
        for ((attr, value), carrying) in cover.iter().zip(true_counts) {
            prop_assert!(count(map, attr, value) >= carrying);
        }
        let hashes = hashed(cover);
        prop_assert!(map.postings.candidates(&hashes, Bound::Unbounded).is_some());
        let after = (cursor < 12).then_some(cursor);
        let pred = |_: &u64, v: &Item| {
            cover.iter().any(|(attr, value)| carries(v, attr, value))
                && (limit % 2 == 0 || carries(v, "b", "p"))
        };
        let (after, cover) = (after.as_ref(), Some(&hashes[..]));
        let posted = map.visible_page_on(replica, now, after, limit, cover, whole(pred));
        let scanned = map.visible_page_on(replica, now, after, limit, None, whole(pred));
        prop_assert_eq!(posted, scanned);

        let mut rebuilt = map.clone();
        rebuilt.postings.by_attr.clear();
        for attr in map.postings.by_attr.keys() {
            rebuilt.posting_counts(item_values, &[(attr, 0)], &mut [0]);
        }
        prop_assert_eq!(&rebuilt.postings.by_attr, &map.postings.by_attr);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn posted_fetch_equals_scanned_fetch(
            ops in proptest::collection::vec(
                (
                    (0u64..12, 0u8..8, 0u8..8),
                    (0u64..5_000, 0u64..5_000, 0u64..5_000),
                    (0usize..3, 0u64..14, 1usize..6, 0usize..7),
                ),
                1..60,
            ),
        ) {
            // Once as deployed, once with the hash cut to two bits — two
            // on which `x`, `y` and the value nobody has all agree — so
            // nearly every probe lands on a list other values share.
            for mask in [u64::MAX, 0x84] {
                run_ops(&ops, mask)?;
            }
        }
    }

    type Op = ((u64, u8, u8), (u64, u64, u64), (usize, u64, usize, usize));

    fn run_ops(ops: &[Op], mask: u64) -> Result<(), proptest::test_runner::TestCaseError> {
        let ms = SimDuration::from_millis;
        let mut now = SimInstant::EPOCH;
        let mut map: EcMap<u64, Item> = EcMap::new();
        map.postings.mask = mask;
        for &((key, kind, bits), (l0, l1, l2), probe) in ops {
            // Adversarial, even out-of-order, propagation: an older
            // write can outlive a newer one on some replica.
            let visible_at = vec![now + ms(l0), now + ms(l1), now + ms(l2)];
            match kind {
                0..=3 => {
                    let mut pairs = vec![("b", if bits & 4 == 0 { "p" } else { "q" })];
                    for (bit, value) in [(1, "x"), (2, "y")] {
                        if bits & bit != 0 {
                            pairs.push(("a", value));
                        }
                    }
                    map.write_at(now, visible_at, key, Some(item(&pairs)));
                }
                4 => map.write_at(now, visible_at, key, None),
                5 | 6 => {
                    now += ms(l0);
                    map.gc(now);
                }
                _ => {
                    // The child is checked once and retired; the
                    // parent carries on (and may be re-sent its keys).
                    let mut moved = map.split_off_by(|k| k % 2 == l0 % 2);
                    check_postings(&mut moved, now, probe)?;
                }
            }
            // Skipping some probes varies how much history exists
            // when an attribute's postings are first built.
            if l2 % 3 != 0 {
                check_postings(&mut map, now, probe)?;
            }
        }
        Ok(())
    }
}
