//! A replicated, eventually-consistent key/value map.
//!
//! This is the storage engine under all three service simulators. Each
//! key keeps a short history of writes; each write carries when each
//! replica starts serving it, sampled from
//! [`crate::SimWorld::sample_visibility`] — one instant for all of them
//! on a strong world. A read picks a replica and serves the newest write
//! *visible on that replica*, so a read issued immediately after a write
//! may observe the previous value — exactly the anomaly the paper's
//! consistency property is about. Writes are last-writer-wins, deletes
//! are tombstones, and fully-propagated history is compacted away.
//!
//! # Attribute postings
//!
//! A map whose values are attribute sets (SimpleDB items) can answer
//! "which keys carry `(attribute, value)`?" from a secondary index
//! instead of a scan. The index does not live in an `EcMap`: a
//! [`crate::ShardMap`] keeps **one table for all of its shards**
//! ([`Postings`]), keyed by attribute and value hash. Each entry holds,
//! for every shard that posts the value, that shard's keys ascending —
//! the list a shard-local index would hold — so inserting a key moves
//! no more than one shard's share of a popular value's keys. A map never
//! queried has no table, and its writes take no lock but their shard's.
//!
//! Postings are **lazy per attribute**: nothing is kept until a query
//! first weighs an attribute ([`crate::ShardMap::weigh`]), which posts
//! it from every cell's full history, shard by shard; from then on
//! every write to a shard maintains it. They cover a cell's whole
//! *history*, not just its newest write — a replica may still serve an
//! older one — so they are a superset of what any replica can see, and
//! the page fetch re-checks visibility and the caller's predicate on
//! every candidate. A pair leaves the postings only when compaction
//! drops the last write that carried it.
//!
//! **Lock order: the shard, then the table.** A writer holds its
//! shard's lock and then takes the table's; a first build visits the
//! shards one at a time the same way. A page fetch from shard *i* holds
//! *i*'s lock and then reads the table, so *i*'s run cannot change under
//! it and the shard stays atomic. The weigh pass reads the table alone:
//! one probe per `=` pair gives each pair's keys on every shard at once.
//!
//! **Charges cannot move.** A probe yields, shard for shard, the same
//! keys a shard-local index holds, so the cover chosen and the
//! candidates fetched are the same. A page charges the cells a scan
//! would have examined, counted over the cells, not the postings; and a
//! shard the cover posts nothing on is charged its whole cell count,
//! which the table keeps per shard — every writer sets it under both
//! locks — so the weigh pass needs no shard lock for it either.
//!
//! Values are posted under a 64-bit hash ([`value_hash`]), not under a
//! copy of the string: a query hashes each value it asks about once and
//! probes the table with that integer. Two values that collide share a
//! key list, which only makes the list a larger superset — the extra
//! candidates carry some other value and fail the predicate re-check like
//! any stale one, and a weighed count stays an upper bound. The hash map
//! is only ever probed, never iterated, so its order cannot reach an
//! answer, a charge or a token — which is also why it can take its key,
//! a hash already, as the table hash ([`PostedHash`]) instead of running
//! SipHash over it.

use std::borrow::Borrow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Bound;
use std::sync::Arc;

use crate::clock::SimInstant;
use crate::hash::{fnv1a_64, WordHash};
use crate::shardmap::MAX_SHARDS;
use crate::world::SimWorld;

/// One attribute name–value pair, borrowed from the [`PairSet`] that
/// holds it. Ordered by name, then value: a set sorted that way keeps
/// every pair of one name in one run, values ascending — the order a map
/// from name to a set of values iterates in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pair<'a> {
    /// Attribute name.
    pub name: &'a str,
    /// Attribute value.
    pub value: &'a str,
}

/// Pairs ascending by [`Pair`] order, each once, packed: every name and
/// value back to back in one text, and beside it a table of where each
/// one ends. A set of any size is those two blocks, both shared, so a
/// clone is two reference-count bumps; a write builds a new set rather
/// than editing one a reader may hold.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PairSet {
    text: Arc<str>,
    /// Pair `i`'s name ends at `[2i]` and its value at `[2i + 1]`; each
    /// starts where the one before it ends.
    ends: Arc<[u32]>,
}

impl PairSet {
    /// Packs `pairs`, which must ascend strictly, into a set allocated
    /// once, at the size it holds.
    pub fn from_sorted<'p>(pairs: impl Iterator<Item = Pair<'p>> + Clone) -> PairSet {
        let count = |(n, bytes), p: Pair<'_>| (n + 1, bytes + p.name.len() + p.value.len());
        let (n, bytes) = pairs.clone().fold((0, 0), count);
        if n == 0 {
            return PairSet::default();
        }
        let mut text = String::with_capacity(bytes);
        let mut parts = pairs.flat_map(|p| [p.name, p.value]);
        // A counted range has an exact length, so the table is allocated
        // once, at the size it keeps.
        let ends = (0..2 * n)
            .map(|_| {
                text.push_str(parts.next().expect("counted above"));
                u32::try_from(text.len()).expect("a pair set's text fits a u32 offset")
            })
            .collect();
        let set = PairSet {
            text: text.into(),
            ends,
        };
        debug_assert!(
            set.iter().is_sorted_by(|a, b| a < b),
            "{set:?} does not ascend"
        );
        set
    }

    /// Every pair, ascending.
    pub fn iter(&self) -> Pairs<'_> {
        Pairs {
            text: &self.text,
            ends: &self.ends,
            start: 0,
        }
    }

    /// Pairs in the set.
    pub fn len(&self) -> usize {
        self.ends.len() / 2
    }

    /// `true` when the set holds no pair.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The run of pairs named `name`, values ascending; empty when no
    /// pair is.
    pub fn named(&self, name: &str) -> Pairs<'_> {
        let all = self.iter();
        let from = all.partition_point(|p| p.name < name);
        let to = all.partition_point(|p| p.name <= name);
        all.slice(from, to)
    }

    /// `true` when the set holds `pair`.
    pub fn contains(&self, pair: Pair<'_>) -> bool {
        let all = self.iter();
        let at = all.partition_point(|p| p < pair);
        at < self.len() && all.at(at) == pair
    }

    /// Bytes of every name and value together.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Folds the set into `hash`: its text, then its table of ends, two
    /// to a word. Equal sets hash alike, however they were built.
    pub fn hash_into(&self, hash: &mut WordHash) {
        hash.write(self.text.as_bytes());
        for ends in self.ends.chunks_exact(2) {
            hash.word(u64::from(ends[0]) | u64::from(ends[1]) << 32);
        }
        hash.word(self.ends.len() as u64);
    }

    /// `true` when `other` is a clone of this very set, not merely an
    /// equal one.
    pub fn shares(&self, other: &PairSet) -> bool {
        Arc::ptr_eq(&self.text, &other.text) && Arc::ptr_eq(&self.ends, &other.ends)
    }
}

/// Renders the pairs as the list they are: `[Pair { name: "a", value:
/// "1" }, ..]`.
impl fmt::Debug for PairSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A run of a [`PairSet`]'s pairs, ascending: an iterator that hands out
/// each pair as a [`Pair`] borrowed from the set.
#[derive(Clone, Copy, Debug)]
pub struct Pairs<'a> {
    text: &'a str,
    /// The run's part of the set's table, two ends per pair.
    ends: &'a [u32],
    /// Where the run's first name starts.
    start: usize,
}

impl<'a> Pairs<'a> {
    /// The run of no pair.
    pub const EMPTY: Pairs<'static> = Pairs {
        text: "",
        ends: &[],
        start: 0,
    };

    /// `true` when the run holds no pair.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Where pair `i` of the run starts.
    fn start_of(&self, i: usize) -> usize {
        if i == 0 {
            self.start
        } else {
            self.ends[2 * i - 1] as usize
        }
    }

    /// Pair `i` of the run.
    fn at(&self, i: usize) -> Pair<'a> {
        let (name_end, value_end) = (self.ends[2 * i] as usize, self.ends[2 * i + 1] as usize);
        Pair {
            name: &self.text[self.start_of(i)..name_end],
            value: &self.text[name_end..value_end],
        }
    }

    /// Pairs `from..to` of the run.
    fn slice(&self, from: usize, to: usize) -> Pairs<'a> {
        Pairs {
            text: self.text,
            ends: &self.ends[2 * from..2 * to],
            start: self.start_of(from),
        }
    }

    /// How many of the run's first pairs `pred` holds for, when it holds
    /// for a prefix of the run and for nothing after it.
    fn partition_point(&self, pred: impl Fn(Pair<'a>) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.at(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl<'a> Iterator for Pairs<'a> {
    type Item = Pair<'a>;

    fn next(&mut self) -> Option<Pair<'a>> {
        if self.ends.is_empty() {
            return None;
        }
        let pair = self.at(0);
        *self = self.slice(1, self.len());
        Some(pair)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.ends.len() / 2;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Pairs<'_> {}

/// When each replica starts serving a write.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Visibility {
    /// Every replica at this instant: a strong world's every write.
    All(SimInstant),
    /// Replica `r` at `[r]`; a replica past the end serves it at once.
    Each(Vec<SimInstant>),
}

impl Visibility {
    /// True when `replica` serves the write at `now`.
    fn on(&self, replica: usize, now: SimInstant) -> bool {
        match self {
            Visibility::All(at) => *at <= now,
            Visibility::Each(at) => at.get(replica).is_none_or(|t| *t <= now),
        }
    }

    /// True once every replica serves the write.
    fn everywhere(&self, now: SimInstant) -> bool {
        match self {
            Visibility::All(at) => *at <= now,
            Visibility::Each(at) => at.iter().all(|t| *t <= now),
        }
    }
}

impl From<Vec<SimInstant>> for Visibility {
    fn from(at: Vec<SimInstant>) -> Visibility {
        Visibility::Each(at)
    }
}

#[derive(Clone, Debug)]
struct Write<V> {
    visible_at: Visibility,
    /// `None` is a delete tombstone.
    value: Option<V>,
}

impl<V> Write<V> {
    /// The pairs this write's state carries for `attr`.
    fn values(&self, values_of: ValuesOf<V>, attr: &str) -> Pairs<'_> {
        self.value
            .as_ref()
            .map_or(Pairs::EMPTY, |v| values_of(v, attr))
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
        self.writes().rev().find(|w| w.visible_at.on(replica, now))
    }

    /// How many of the oldest writes can never be served again: all
    /// those before the newest one that every replica has reached.
    fn settled_prefix(&self, now: SimInstant) -> usize {
        if self.latest.visible_at.everywhere(now) {
            return self.older.len();
        }
        let settled = |w: &Write<V>| w.visible_at.everywhere(now);
        self.older.iter().rposition(settled).unwrap_or(0)
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
        let latest = &self.latest;
        self.older.is_empty() && latest.value.is_none() && latest.visible_at.everywhere(now)
    }
}

/// Reads the run of pairs `state` carries for an attribute (empty when
/// it carries none) — how `Postings` look inside an otherwise opaque
/// `V`.
pub type ValuesOf<V> = for<'a> fn(&'a V, &str) -> Pairs<'a>;

/// The hash attribute values are posted under (see the module docs).
/// Callers hash a value once and probe the postings with the result.
pub fn value_hash(value: &str) -> u64 {
    fnv1a_64(value)
}

/// The table hash of a [`value_hash`]: the key itself, times an odd
/// constant so that the table's control bits (the top seven) depend on
/// every bit of a key and a narrowed [`Postings`] mask still spreads.
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

/// One value's posted keys: for each shard that posts it, in shard
/// order, the shard and its keys, ascending.
type PostedKeys<K> = Vec<(u32, Vec<K>)>;

/// One attribute's postings: value hash → its posted keys.
type ByValue<K> = HashMap<u64, PostedKeys<K>, BuildHasherDefault<PostedHash>>;

/// The attribute postings of every shard of one map (see the module
/// docs); a shard is its index in the map. Attributes join `attrs` in the
/// order queries first ask about them, and shard `s` posts the first
/// `built[s]` of them.
#[derive(Clone, Debug)]
pub(crate) struct Postings<K, V> {
    values_of: ValuesOf<V>,
    attrs: Vec<(Box<str>, ByValue<K>)>,
    built: Vec<usize>,
    /// Per shard: the cells it holds, live or tombstoned.
    cells: Vec<u64>,
    /// And-ed onto every hash, stored or probed. All ones, except in the
    /// tests that narrow it until nearly every probe collides.
    pub(crate) mask: u64,
}

/// Posts `key`, of `shard`, under `hash`, keeping the shard's keys
/// ascending and duplicate-free.
fn post<K: Ord + Clone>(by_value: &mut ByValue<K>, hash: u64, shard: u32, key: &K) {
    // Most values are carried by one key: a first push would reserve four.
    let runs = by_value
        .entry(hash)
        .or_insert_with(|| Vec::with_capacity(1));
    let at = match runs.binary_search_by_key(&shard, |(s, _)| *s) {
        Ok(at) => at,
        Err(at) => {
            runs.insert(at, (shard, Vec::with_capacity(1)));
            at
        }
    };
    let keys = &mut runs[at].1;
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
    carried.map(move |pair| value_hash(pair.value) & mask)
}

impl<K: Ord + Clone, V> Postings<K, V> {
    /// An empty table over `shards` shards.
    pub(crate) fn new(shards: usize, values_of: ValuesOf<V>) -> Self {
        Postings {
            values_of,
            attrs: Vec::new(),
            built: vec![0; shards],
            cells: vec![0; shards],
            mask: u64::MAX,
        }
    }

    /// Indexes every attribute `probes` name, then brings `shard`, whose
    /// cells are `map`, up to date: every indexed attribute it does not
    /// post yet is posted from every cell's full history.
    pub(crate) fn build(&mut self, shard: u32, map: &EcMap<K, V>, probes: &[(&str, u64)]) {
        for (attr, _) in probes {
            if !self.attrs.iter().any(|(a, _)| **a == **attr) {
                self.attrs.push(((*attr).into(), ByValue::default()));
            }
        }
        let (values_of, mask, s) = (self.values_of, self.mask, shard as usize);
        self.cells[s] = map.cells.len() as u64;
        for (attr, by_value) in &mut self.attrs[self.built[s]..] {
            for (key, cell) in &map.cells {
                for hash in posted_hashes(cell.writes(), values_of, attr, mask) {
                    post(by_value, hash, shard, key);
                }
            }
        }
        self.built[s] = self.attrs.len();
    }

    /// The attributes `shard` posts, with their postings.
    fn posted_on(&mut self, shard: u32) -> &mut [(Box<str>, ByValue<K>)] {
        &mut self.attrs[..self.built[shard as usize]]
    }

    /// Posts `key`, of `shard`, under every pair `state` carries for an
    /// attribute the shard posts.
    fn add(&mut self, shard: u32, key: &K, state: &V) {
        let (values_of, mask) = (self.values_of, self.mask);
        for (attr, by_value) in self.posted_on(shard) {
            for pair in values_of(state, attr) {
                post(by_value, value_hash(pair.value) & mask, shard, key);
            }
        }
    }

    /// Unposts `key`, of `shard`, from every hash that a pair of one of
    /// its cell's first `cut` writes — the ones about to be dropped —
    /// landed on and no pair of a later write still does.
    fn forget(&mut self, shard: u32, key: &K, cell: &Cell<V>, cut: usize) {
        if cut == 0 {
            return;
        }
        let (values_of, mask) = (self.values_of, self.mask);
        for (attr, by_value) in self.posted_on(shard) {
            for hash in posted_hashes(cell.writes().take(cut), values_of, attr, mask) {
                let mut kept = posted_hashes(cell.writes().skip(cut), values_of, attr, mask);
                if kept.any(|k| k == hash) {
                    continue;
                }
                let Some(runs) = by_value.get_mut(&hash) else {
                    continue;
                };
                if let Ok(run) = runs.binary_search_by_key(&shard, |(s, _)| *s) {
                    let keys = &mut runs[run].1;
                    if let Ok(at) = keys.binary_search(key) {
                        keys.remove(at);
                    }
                    if keys.is_empty() {
                        runs.remove(run);
                    }
                }
                if runs.is_empty() {
                    by_value.remove(&hash);
                }
            }
        }
    }

    /// Where `attr` is in `attrs`, if it is indexed.
    fn at(&self, attr: &str) -> Option<usize> {
        self.attrs.iter().position(|(a, _)| **a == *attr)
    }

    /// The keys posted under the `at`th attribute and `hash`, shard by
    /// shard.
    fn keys_at(&self, at: usize, hash: u64) -> &[(u32, Vec<K>)] {
        let keys = self.attrs[at].1.get(&(hash & self.mask));
        keys.map_or(&[], Vec::as_slice)
    }

    /// [`Postings::keys_at`] by attribute name.
    fn keys(&self, attr: &str, hash: u64) -> &[(u32, Vec<K>)] {
        self.at(attr).map_or(&[], |at| self.keys_at(at, hash))
    }

    /// How many keys each of `probes` — `(attribute, value hash)` pairs —
    /// has posted, summed over the shards: an upper bound on the
    /// candidates a cover drawing on it fetches. One lookup each; `None`
    /// while a probe names an attribute some shard does not post.
    pub(crate) fn totals(&self, probes: &[(&str, u64)]) -> Option<Vec<usize>> {
        let total = |(attr, hash): &(&str, u64)| {
            let at = self.at(attr)?;
            let everywhere = self.built.iter().all(|b| *b > at);
            let runs = everywhere.then(|| self.keys_at(at, *hash))?;
            Some(runs.iter().map(|(_, keys)| keys.len()).sum())
        };
        probes.iter().map(total).collect()
    }

    /// The cover made of `pairs`, indices into `probes` (whose
    /// attributes every shard posts): which shards post any of them, and
    /// the most cells any other shard holds.
    pub(crate) fn cover<'p>(
        &self,
        probes: &[(&'p str, u64)],
        pairs: impl IntoIterator<Item = usize>,
    ) -> Cover<'p> {
        let pairs: Vec<(&'p str, u64)> = pairs.into_iter().map(|i| probes[i]).collect();
        let mut busy = ShardSet::default();
        for (attr, hash) in &pairs {
            for (shard, _) in self.keys(attr, *hash) {
                busy.insert(*shard);
            }
        }
        let idle = (0..self.cells.len()).filter(|s| !busy.contains(*s));
        let idle_cells = idle.map(|s| self.cells[s]).max().unwrap_or(0);
        Cover {
            pairs,
            busy,
            idle_cells,
        }
    }

    /// The keys of `shard` from `start` on posted under any pair of
    /// `cover`, ascending and deduplicated.
    pub(crate) fn candidates<'a>(
        &'a self,
        shard: u32,
        cover: &[(&str, u64)],
        start: Bound<&K>,
    ) -> impl Iterator<Item = &'a K> {
        let run = |(attr, hash): &(&str, u64)| {
            let runs = self.keys(attr, *hash);
            let at = runs.binary_search_by_key(&shard, |(s, _)| *s);
            let keys = at.map_or(&[][..], |at| &runs[at].1[..]);
            let from = match start {
                Bound::Unbounded => 0,
                Bound::Included(s) => keys.partition_point(|k| k < s),
                Bound::Excluded(s) => keys.partition_point(|k| k <= s),
            };
            keys[from..].iter()
        };
        // One pair's run is the answer; more are merged. An item carrying
        // two pairs of the cover is posted under both and comes out once.
        let one = match cover {
            [pair] => Some(run(pair)),
            _ => None,
        };
        let merged = (one.is_none()).then(|| {
            let mut heads: Vec<_> = cover.iter().map(|pair| run(pair).peekable()).collect();
            std::iter::from_fn(move || {
                let next = heads.iter_mut().filter_map(|h| h.peek().copied()).min()?;
                for head in &mut heads {
                    if head.peek() == Some(&next) {
                        head.next();
                    }
                }
                Some(next)
            })
        });
        one.into_iter()
            .flatten()
            .chain(merged.into_iter().flatten())
    }
}

/// A set of shards, each below [`MAX_SHARDS`].
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct ShardSet([u64; MAX_SHARDS / 64]);

impl ShardSet {
    fn insert(&mut self, shard: u32) {
        self.0[shard as usize / 64] |= 1 << (shard % 64);
    }

    pub(crate) fn contains(&self, shard: usize) -> bool {
        self.0[shard / 64] & (1 << (shard % 64)) != 0
    }
}

/// The equality cover a posted page draws its candidates from, as
/// [`crate::ShardMap::weigh`] weighed it: the `(attribute, value hash)`
/// pairs, the shards that post any of them, and the most cells any other
/// shard holds — its charge for a first page it contributes nothing to.
#[derive(Clone, Debug)]
pub struct Cover<'p> {
    pub(crate) pairs: Vec<(&'p str, u64)>,
    pub(crate) busy: ShardSet,
    pub(crate) idle_cells: u64,
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
}

/// The postings a write or a sweep keeps current: a table, and the shard
/// the map is in it.
type PostedIn<'a, K, V> = Option<(&'a mut Postings<K, V>, u32)>;

impl<K: Ord + Clone, V: Clone> EcMap<K, V> {
    /// An empty map.
    pub fn new() -> EcMap<K, V> {
        EcMap {
            cells: BTreeMap::new(),
        }
    }

    /// Applies a write (`Some`) or delete (`None`) at the current virtual
    /// time, with per-replica propagation sampled from `world`.
    pub fn write(&mut self, world: &SimWorld, key: K, value: Option<V>) {
        self.write_at(world.now(), world.sample_visibility(), key, value);
    }

    /// Applies a write with an explicit propagation schedule: replica `i`
    /// starts serving the write at `visible_at[i]` (a `Vec` of instants
    /// converts). This is the deterministic core of [`EcMap::write`];
    /// tests (notably the compaction-invariant proptest) use it to inject
    /// adversarial schedules without going through the world RNG.
    pub fn write_at(
        &mut self,
        now: SimInstant,
        visible_at: impl Into<Visibility>,
        key: K,
        value: Option<V>,
    ) {
        self.apply(now, visible_at.into(), key, value, None, |_, _, _| {});
    }

    /// [`EcMap::write_at`], keeping `postings` current when the map is a
    /// shard of a posted map. `replaced` sees the key, the newest state
    /// it held and the one it now holds (`None`: absent or deleted), from
    /// the one lookup the write makes.
    pub(crate) fn apply(
        &mut self,
        now: SimInstant,
        visible_at: Visibility,
        key: K,
        value: Option<V>,
        mut postings: PostedIn<'_, K, V>,
        replaced: impl FnOnce(&K, Option<&V>, Option<&V>),
    ) {
        if let (Some(state), Some((table, shard))) = (&value, &mut postings) {
            table.add(*shard, &key, state);
        }
        let write = Write { visible_at, value };
        match self.cells.entry(key) {
            Entry::Vacant(slot) => {
                replaced(slot.key(), None, write.value.as_ref());
                slot.insert(Cell {
                    older: Vec::new(),
                    latest: write,
                });
            }
            Entry::Occupied(mut slot) => {
                let held = slot.get().latest.value.as_ref();
                replaced(slot.key(), held, write.value.as_ref());
                let cell = slot.get_mut();
                let previous = std::mem::replace(&mut cell.latest, write);
                cell.older.push(previous);
                let cut = cell.settled_prefix(now);
                if let Some((table, shard)) = &mut postings {
                    table.forget(*shard, slot.key(), slot.get(), cut);
                }
                slot.get_mut().drop_oldest(cut);
            }
        }
        if let Some((table, shard)) = postings {
            table.cells[shard as usize] = self.cells.len() as u64;
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

    /// The authoritative live entries from `from` on, in key order, in
    /// place: a prefix's keys are the run from the prefix itself up to
    /// the first key without it.
    pub fn latest_from<Q>(&self, from: &Q) -> impl Iterator<Item = (&K, &V)> + '_
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let cells = self
            .cells
            .range::<Q, _>((Bound::Included(from), Bound::Unbounded));
        cells.filter_map(|(k, c)| c.latest.value.as_ref().map(|v| (k, v)))
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
    /// Also returns how many cells the scan examined — up to and
    /// including the entry that filled the page, else to the end — so
    /// callers can charge a scan cost proportional to the modelled work.
    pub fn visible_page_on<T>(
        &self,
        replica: usize,
        now: SimInstant,
        after: Option<&K>,
        limit: usize,
        select: impl FnMut(&K, &V) -> Option<T>,
    ) -> (Vec<(K, T)>, u64) {
        let (start, none) = (after_bound(after), None::<std::iter::Empty<&K>>);
        self.page(replica, now, start, limit, none, |_| false, select)
    }

    /// [`EcMap::visible_page_on`] over `candidates` alone: the keys after
    /// `after`, ascending, that the postings of an *equality cover* of
    /// `select` hold — every entry `select` keeps is among them. The
    /// result is the scan's, because every candidate still passes
    /// through the visibility check and `select`, and so is the examined
    /// count: what the scan would have examined, counted over the cells.
    pub(crate) fn posted_page_on<'c, T>(
        &self,
        replica: usize,
        now: SimInstant,
        after: Option<&K>,
        limit: usize,
        candidates: impl Iterator<Item = &'c K>,
        select: impl FnMut(&K, &V) -> Option<T>,
    ) -> (Vec<(K, T)>, u64)
    where
        K: 'c,
    {
        let start = after_bound(after);
        self.page(
            replica,
            now,
            start,
            limit,
            Some(candidates),
            |_| false,
            select,
        )
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
        let none = None::<std::iter::Empty<&K>>;
        self.page(replica, now, start, limit, none, beyond, whole)
    }

    /// The one page loop. Candidates are every cell from `start`, or —
    /// when `posted` — only those keys; what happens to a candidate does
    /// not depend on where it came from. (`beyond` and `posted` never
    /// meet: a posted fetch cannot tell how many unposted cells lie before
    /// the first key `beyond` accepts.)
    #[allow(clippy::too_many_arguments)]
    fn page<'c, T>(
        &self,
        replica: usize,
        now: SimInstant,
        start: Bound<&K>,
        limit: usize,
        mut posted: Option<impl Iterator<Item = &'c K>>,
        mut beyond: impl FnMut(&K) -> bool,
        mut select: impl FnMut(&K, &V) -> Option<T>,
    ) -> (Vec<(K, T)>, u64)
    where
        K: 'c,
    {
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

    /// Drops tombstoned keys whose deletion has reached every replica and
    /// compacts remaining history. Call opportunistically.
    pub fn gc(&mut self, now: SimInstant) {
        self.sweep(now, None);
    }

    /// [`EcMap::gc`], keeping `postings` current when the map is a shard
    /// of a posted map.
    pub(crate) fn sweep(&mut self, now: SimInstant, mut postings: PostedIn<'_, K, V>) {
        self.cells.retain(|key, cell| {
            let cut = cell.settled_prefix(now);
            // A cell about to be reclaimed is down to one tombstone, which
            // carries no pairs: the writes cut are everything left to unpost.
            if let Some((table, shard)) = &mut postings {
                table.forget(*shard, key, cell, cut);
            }
            cell.drop_oldest(cut);
            !cell.fully_deleted(now)
        });
        if let Some((table, shard)) = postings {
            table.cells[shard as usize] = self.cells.len() as u64;
        }
    }
}

/// Where a page resuming strictly after `after` starts.
fn after_bound<K>(after: Option<&K>) -> Bound<&K> {
    after.map_or(Bound::Unbounded, Bound::Excluded)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tables are equal when they post the same keys under the same
    /// attributes and hashes, with the same builds and cell counts.
    impl<K: PartialEq, V> PartialEq for Postings<K, V> {
        fn eq(&self, other: &Self) -> bool {
            (self.attrs == other.attrs && self.built == other.built)
                && (self.cells == other.cells && self.mask == other.mask)
        }
    }

    impl<K, V> Postings<K, V> {
        /// The indexed attributes, first asked about first.
        pub(crate) fn indexed(&self) -> Vec<String> {
            self.attrs.iter().map(|(a, _)| a.to_string()).collect()
        }
    }
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
            let (page, _) = map.visible_page_on(replica, now, None, 10, |_, v| Some(*v));
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
        assert_eq!(map.cell_count(), 1);
        assert_eq!(
            map.iter_latest().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec!["b"]
        );
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
            let (page, _) = map.visible_page_on(replica, now, None, 100, |_, _| Some(()));
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
    type Item = PairSet;

    fn item(pairs: &[(&str, &str)]) -> Item {
        let mut pairs: Vec<Pair> = pairs
            .iter()
            .map(|&(name, value)| Pair { name, value })
            .collect();
        pairs.sort();
        pairs.dedup();
        PairSet::from_sorted(pairs.into_iter())
    }

    fn item_values<'a>(item: &'a Item, attr: &str) -> Pairs<'a> {
        item.named(attr)
    }

    fn carries(item: &Item, attr: &str, value: &str) -> bool {
        item_values(item, attr).any(|p| p.value == value)
    }

    /// One map as the only shard of a table of postings.
    struct Posted<K: Ord> {
        map: EcMap<K, Item>,
        table: Postings<K, Item>,
    }

    impl<K: Ord + Clone> Posted<K> {
        fn new() -> Self {
            Posted {
                map: EcMap::new(),
                table: Postings::new(1, item_values),
            }
        }

        fn write_at(&mut self, now: SimInstant, at: Visibility, key: K, value: Option<Item>) {
            self.map.apply(
                now,
                at,
                key,
                value,
                Some((&mut self.table, 0)),
                |_, _, _| {},
            );
        }

        /// Keys posted under `attr = value`, the attribute posted first.
        fn count(&mut self, attr: &str, value: &str) -> usize {
            let probe = [(attr, value_hash(value))];
            self.table.build(0, &self.map, &probe);
            self.table.totals(&probe).expect("posted")[0]
        }

        /// The page served from the postings of `cover`, whole items.
        fn page(
            &self,
            replica: usize,
            now: SimInstant,
            cover: &[(&str, &str)],
            mut pred: impl FnMut(&Item) -> bool,
        ) -> (Vec<(K, Item)>, u64) {
            let cover: Vec<(&str, u64)> = cover.iter().map(|(a, v)| (*a, value_hash(v))).collect();
            let candidates = self.table.candidates(0, &cover, Bound::Unbounded);
            let whole = |_: &K, v: &Item| pred(v).then(|| v.clone());
            self.map
                .posted_page_on(replica, now, None, 10, candidates, whole)
        }
    }

    #[test]
    fn postings_reach_an_older_write_a_lagging_replica_still_serves() {
        let t0 = SimInstant::EPOCH;
        let later = t0 + SimDuration::from_secs(10);
        let mut posted = Posted::new();
        posted.write_at(t0, Visibility::All(t0), "k", Some(item(&[("a", "x")])));
        posted.write_at(t0, Visibility::All(t0), "other", Some(item(&[("a", "z")])));
        assert_eq!(posted.count("a", "x"), 1);
        // The overwrite reaches replica 0 at once and replica 1 in 10 s.
        let lagging = Visibility::Each(vec![t0, later]);
        posted.write_at(t0, lagging, "k", Some(item(&[("a", "y")])));
        assert_eq!(posted.count("a", "x"), 1);
        assert_eq!(posted.count("a", "y"), 1);

        let is_x = |v: &Item| carries(v, "a", "x");
        // Replica 1 still serves a=x, though the newest write says a=y.
        let (hits, examined) = posted.page(1, t0, &[("a", "x")], is_x);
        assert_eq!(hits, vec![("k", item(&[("a", "x")]))]);
        assert_eq!(examined, 2, "charged as the scan of both cells");
        // Replica 0 has moved on: the candidate fails the re-check.
        let (hits, _) = posted.page(0, t0, &[("a", "x")], is_x);
        assert!(hits.is_empty());

        // Once every replica serves a=y the old write compacts away, and
        // with it the last reason to post `k` under a=x.
        posted.map.sweep(later, Some((&mut posted.table, 0)));
        assert_eq!(posted.count("a", "x"), 0);
        assert_eq!(posted.count("a", "y"), 1);
    }

    #[test]
    fn a_collision_inflates_the_count_but_not_the_page() {
        let now = SimInstant::EPOCH;
        let mut posted = Posted::new();
        posted.table.mask = 0; // every value of an attribute shares one key list
        for k in 0..9u64 {
            let value = ["x", "y", "z"][k as usize % 3];
            posted.write_at(now, Visibility::All(now), k, Some(item(&[("a", value)])));
        }
        assert_eq!(posted.count("a", "x"), 9, "an upper bound: 3 carry a=x");
        assert_eq!(posted.count("a", "nobody-has-this-value"), 9);
        let is_x = |v: &Item| carries(v, "a", "x");
        let (hits, examined) = posted.page(0, now, &[("a", "x")], is_x);
        let keys: Vec<u64> = hits.into_iter().map(|(k, _)| k).collect();
        assert_eq!((keys, examined), (vec![0, 3, 6], 9));
        // Overwriting a=x with a=y drops a pair whose hash a kept one
        // still lands on: the key must stay posted there.
        posted.write_at(now, Visibility::All(now), 0, Some(item(&[("a", "y")])));
        assert_eq!(posted.count("a", "y"), 9);
    }
}
