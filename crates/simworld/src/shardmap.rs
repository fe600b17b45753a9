//! Hash-sharded maps with a fixed layout.
//!
//! SimpleDB domains and S3 buckets are each a [`ShardMap`]: `n` shards,
//! each holding its cells in its own `Mutex<EcMap>`, plus an ordered
//! batch-locking helper and per-shard replica pinning for pagination
//! tokens. A map that has been queried also keeps one attribute posting
//! table for all of its shards, behind a lock taken after a shard's
//! (see the module docs of `ecstore`). The layout is fixed when the map
//! is created: no shard is ever added, removed or moved, so nothing on
//! the access path takes a layout lock.
//!
//! # Routing
//!
//! A key lives on shard `fnv1a_64(key) % n`. A shard's index `0..n` is
//! its only identity: the meters count touches under it, batches lock
//! shards in its order, and a pagination token pins one replica per
//! index.
//!
//! # Shard-count clamping
//!
//! Both services clamp requested shard counts the same way:
//! `with_shards(0)` is promoted to 1 and oversized requests are capped
//! at [`MAX_SHARDS`]. The clamp lives here ([`clamp_shards`]) so the
//! rule cannot drift between services again.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Bound, Deref};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::clock::SimInstant;
use crate::ecstore::{Cover, EcMap, Postings, ValuesOf};
use crate::hash::fnv1a_64;
use crate::merge::merged_shard_page;
use crate::world::SimWorld;

/// Hard cap on the number of shards a map may hold. Requests beyond it
/// are silently clamped — the same rule in SimpleDB and S3.
pub const MAX_SHARDS: usize = 256;

/// The one shard-count validation rule: zero becomes one shard,
/// oversized requests cap at [`MAX_SHARDS`].
pub fn clamp_shards(requested: usize) -> usize {
    requested.clamp(1, MAX_SHARDS)
}

/// One read replica pinned per shard, indexed by shard — the payload of
/// a pagination token. A scan pins its replicas once at the first page,
/// and every later page reads the same replica per shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaPin {
    replicas: Vec<usize>,
}

impl ReplicaPin {
    /// Pins `replicas[i]` for shard `i`.
    pub fn new(replicas: Vec<usize>) -> ReplicaPin {
        ReplicaPin { replicas }
    }

    /// The replica pinned for `shard`.
    ///
    /// # Panics
    ///
    /// Panics unless the pin covers `shard`: pass a pin of as many
    /// shards as the map it reads.
    pub fn get(&self, shard: usize) -> usize {
        self.replicas[shard]
    }

    /// The pinned replicas in shard order.
    pub fn replicas(&self) -> &[usize] {
        &self.replicas
    }
}

/// A hash-sharded table of per-shard [`EcMap`]s — the one sharding layer
/// both SimpleDB domains and S3 buckets are built on.
///
/// # Examples
///
/// ```
/// use simworld::{ShardMap, SimWorld};
///
/// let world = SimWorld::counting();
/// let map: ShardMap<u32> = ShardMap::new(4);
/// map.with_cells("key", |shard, cells| {
///     cells.write(&world, "key".to_string(), Some(7));
///     assert!(shard < 4);
/// });
/// assert_eq!(map.shard_count(), 4);
/// ```
pub struct ShardMap<V> {
    /// Shard `i` holds the keys with `fnv1a_64(key) % n == i`.
    shards: Box<[Mutex<EcMap<String, V>>]>,
    /// `0..n`: every shard, as a fan-out's charge names them.
    ids: Box<[u32]>,
    /// The attribute postings of every shard, made by the first
    /// [`ShardMap::weigh`]: a map never queried has none.
    postings: OnceLock<RwLock<Postings<String, V>>>,
}

impl<V> fmt::Debug for ShardMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardMap")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<V: Clone> ShardMap<V> {
    /// Builds a map of `shards` shards, clamped by [`clamp_shards`].
    pub fn new(shards: usize) -> ShardMap<V> {
        let n = clamp_shards(shards);
        ShardMap {
            shards: (0..n).map(|_| Mutex::new(EcMap::new())).collect(),
            ids: (0..n as u32).collect(),
            postings: OnceLock::new(),
        }
    }

    /// Shards in the map.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Every shard index, ascending — the shards a fan-out touches.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The shard owning `key`: `fnv1a_64(key) % n`.
    pub fn route(&self, key: &str) -> u32 {
        (fnv1a_64(key) % self.shards.len() as u64) as u32
    }

    /// Routes every key.
    pub fn route_all<I, S>(&self, keys: I) -> Vec<u32>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        keys.into_iter().map(|k| self.route(k.as_ref())).collect()
    }

    /// Runs `f` against the cells of the shard owning `key`, under its
    /// lock, passing the shard's index alongside.
    pub fn with_cells<R>(&self, key: &str, f: impl FnOnce(u32, &mut Cells<'_, V>) -> R) -> R {
        let shard = self.route(key);
        let mut map = self.shards[shard as usize].lock();
        f(shard, &mut self.cells(&mut map, shard))
    }

    /// The cells of `shard`, whose lock the caller holds as `map`. The
    /// postings are looked up only now, under that lock: a first build
    /// that made them has visited the shard, or waits for it.
    fn cells<'a>(&'a self, map: &'a mut EcMap<String, V>, shard: u32) -> Cells<'a, V> {
        Cells {
            map,
            postings: self.postings.get(),
            shard,
        }
    }

    /// Locks the listed shards in ascending order — the one global order
    /// that keeps concurrent batches deadlock-free — and hands `f` an
    /// accessor over all of them.
    ///
    /// # Panics
    ///
    /// Panics on a shard the map does not hold; callers route first.
    pub fn with_cells_multi<R>(
        &self,
        shards: &[u32],
        f: impl FnOnce(&mut ShardCells<'_, V>) -> R,
    ) -> R {
        let mut order: Vec<u32> = shards.to_vec();
        order.sort_unstable();
        order.dedup();
        let guards = order
            .into_iter()
            .map(|shard| (shard, self.shards[shard as usize].lock()))
            .collect();
        f(&mut ShardCells { map: self, guards })
    }

    /// Runs `f` against the cell map of `shard`, under its lock.
    pub fn with_cells_at<R>(&self, shard: usize, f: impl FnOnce(&EcMap<String, V>) -> R) -> R {
        f(&self.shards[shard].lock())
    }

    /// Weighs a query's `=` pairs on the map's attribute postings: one
    /// probe of the table per pair. `probes` are `(attribute,
    /// [`crate::value_hash`] of the value)`; `values_of` reads a value's
    /// pairs. `choose` is told how many keys each probe has posted,
    /// summed over the shards, and picks the cover as indices into
    /// `probes` (`None`: the page scans). An attribute asked about for
    /// the first time is posted first, shard by shard, each under its own
    /// lock and then the table's; the weigh itself takes no shard lock.
    pub fn weigh<'p, I>(
        &self,
        values_of: ValuesOf<V>,
        probes: &[(&'p str, u64)],
        choose: impl FnOnce(&[usize]) -> Option<I>,
    ) -> Option<Cover<'p>>
    where
        I: IntoIterator<Item = usize>,
    {
        let shards = self.shards.len();
        let table = (self.postings).get_or_init(|| RwLock::new(Postings::new(shards, values_of)));
        let mut posted = table.read();
        let totals = match posted.totals(probes) {
            Some(totals) => totals,
            None => {
                drop(posted);
                for (shard, cells) in self.shards.iter().enumerate() {
                    let map = cells.lock();
                    table.write().build(shard as u32, &map, probes);
                }
                posted = table.read();
                posted
                    .totals(probes)
                    .expect("every shard has just posted them")
            }
        };
        Some(posted.cover(probes, choose(&totals)?))
    }

    /// One page of the key-ordered merge of every shard's visible entries
    /// after `after` ([`merged_shard_page`]): each shard reads the
    /// replica `pin` holds for it at `now`, and `select` sees each visible
    /// value under its shard's lock and returns the row to serve for it.
    /// Returns the page, whether more remain, and the cells the busiest
    /// shard examined.
    ///
    /// With a `cover` weighed on this map ([`ShardMap::weigh`]) a shard
    /// fetches only the keys it posts under the cover, holding its lock
    /// and then the table's. A shard that posts none of them, on a first
    /// page, is not visited at all: it is charged its cell count, which
    /// is what a fetch of nothing from it examines. Past the first page
    /// every shard is visited, to price the scan behind the cursor.
    pub fn merged_page<T>(
        &self,
        pin: &ReplicaPin,
        now: SimInstant,
        after: Option<String>,
        page_size: usize,
        cover: Option<&Cover<'_>>,
        mut select: impl FnMut(&V) -> Option<T>,
    ) -> (Vec<(String, T)>, bool, u64) {
        // On a first page, a shard the cover posts nothing on is skipped
        // and charged `idle_cells` below.
        let idle = cover.filter(|_| after.is_none());
        let skip = |i| idle.is_some_and(|c| !c.busy.contains(i));
        let idle_cells = idle.map_or(0, |c| c.idle_cells);
        let fetch = |i: usize, cursor: Option<&String>, quota| {
            let replica = pin.get(i);
            let row = |_: &String, v: &V| select(v);
            let Some(cover) = cover else {
                let map = self.shards[i].lock();
                return map.visible_page_on(replica, now, cursor, quota, row);
            };
            let map = self.shards[i].lock();
            let table = self.postings.get().expect("a cover is weighed on a table");
            let table = table.read();
            let start = cursor.map_or(Bound::Unbounded, Bound::Excluded);
            let candidates = table.candidates(i as u32, &cover.pairs, start);
            map.posted_page_on(replica, now, cursor, quota, candidates, row)
        };
        let shards = self.shards.len();
        let (page, more, scanned) = merged_shard_page(shards, after, page_size, skip, fetch);
        (page, more, scanned.max(idle_cells))
    }

    /// Keys whose newest value is live and that `keep` accepts, ascending
    /// — the authoritative, unbilled listing behind the services'
    /// test-only `latest_*` views.
    pub fn latest_keys(&self, mut keep: impl FnMut(&str) -> bool) -> Vec<String> {
        let mut keys: Vec<String> = Vec::new();
        for shard in &self.shards {
            let cells = shard.lock();
            keys.extend(
                cells
                    .iter_latest()
                    .map(|(k, _)| k)
                    .filter(|k| keep(k))
                    .cloned(),
            );
        }
        keys.sort_unstable();
        keys
    }

    /// Pins one read replica per shard: one draw from the world per
    /// shard, in shard order.
    pub fn pin_replicas(&self, world: &SimWorld) -> ReplicaPin {
        ReplicaPin::new(world.sample_read_replicas(self.shards.len()))
    }
}

/// The named [`ShardMap`]s of one service endpoint — S3's buckets,
/// SimpleDB's domains — with the shard count new maps are built with.
/// Lookups clone the map's `Arc` out, so the name table is locked only
/// for the lookup.
pub struct ShardRegistry<V> {
    shards: usize,
    maps: RwLock<BTreeMap<String, Arc<ShardMap<V>>>>,
}

impl<V> fmt::Debug for ShardRegistry<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardRegistry")
            .field("maps", &self.maps.read().len())
            .field("shards", &self.shards)
            .finish_non_exhaustive()
    }
}

impl<V: Clone> ShardRegistry<V> {
    /// An empty registry whose maps will hold `shards` shards each,
    /// clamped by [`clamp_shards`].
    pub fn new(shards: usize) -> ShardRegistry<V> {
        ShardRegistry {
            shards: clamp_shards(shards),
            maps: RwLock::new(BTreeMap::new()),
        }
    }

    /// Shards per map (post-clamp).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The map called `name`, if one was created.
    pub fn get(&self, name: &str) -> Option<Arc<ShardMap<V>>> {
        self.maps.read().get(name).cloned()
    }

    /// Creates the map `name` if `gate` allows it.
    /// `gate` is told whether `name` already exists and how many maps
    /// there are, and runs with the name table write-locked, so no
    /// concurrent create can slip between its checks, the billing it
    /// does and the insert. `Ok(false)` is success without a new map.
    ///
    /// # Errors
    ///
    /// Whatever `gate` refuses with; nothing is inserted.
    pub fn create<E>(
        &self,
        name: String,
        gate: impl FnOnce(&str, bool, usize) -> Result<bool, E>,
    ) -> Result<(), E> {
        let mut maps = self.maps.write();
        if gate(&name, maps.contains_key(&name), maps.len())? {
            maps.insert(name, Arc::new(ShardMap::new(self.shards)));
        }
        Ok(())
    }
}

/// Accessor over the shards a [`ShardMap::with_cells_multi`] call
/// locked, keyed by shard.
pub struct ShardCells<'a, V> {
    map: &'a ShardMap<V>,
    guards: BTreeMap<u32, MutexGuard<'a, EcMap<String, V>>>,
}

impl<V> fmt::Debug for ShardCells<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardCells")
            .field("shards", &self.guards.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl<V: Clone> ShardCells<'_, V> {
    /// The cells locked for `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` was not in the locked set.
    pub fn get_mut(&mut self, shard: u32) -> Cells<'_, V> {
        let map = self.guards.get_mut(&shard).expect("shard not locked");
        self.map.cells(map, shard)
    }
}

/// One locked shard's cells. Reads go to its [`EcMap`] (`Deref`);
/// writes and sweeps go through [`Cells::write`] and [`Cells::gc`], which
/// keep the map's attribute postings current once it has any — taking
/// the table's lock after the shard's, and no lock at all before.
pub struct Cells<'a, V> {
    map: &'a mut EcMap<String, V>,
    postings: Option<&'a RwLock<Postings<String, V>>>,
    shard: u32,
}

impl<V> fmt::Debug for Cells<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cells")
            .field("shard", &self.shard)
            .field("posted", &self.postings.is_some())
            .finish_non_exhaustive()
    }
}

impl<V> Deref for Cells<'_, V> {
    type Target = EcMap<String, V>;

    fn deref(&self) -> &EcMap<String, V> {
        self.map
    }
}

impl<V: Clone> Cells<'_, V> {
    /// [`EcMap::write`].
    pub fn write(&mut self, world: &SimWorld, key: String, value: Option<V>) {
        let (now, visible_at) = (world.now(), world.sample_visibility());
        let mut table = self.postings.map(RwLock::write);
        let posted = table.as_deref_mut().map(|table| (table, self.shard));
        self.map.apply(now, visible_at, key, value, posted);
    }

    /// [`EcMap::gc`].
    pub fn gc(&mut self, now: SimInstant) {
        let mut table = self.postings.map(RwLock::write);
        let posted = table.as_deref_mut().map(|table| (table, self.shard));
        self.map.sweep(now, posted);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::clock::SimDuration;
    use crate::ecstore::{value_hash, Pair, PairSet, Pairs};
    use crate::latency::LatencyModel;
    use crate::world::{Consistency, SimConfig, SimWorld};

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("key-{i:05}")).collect()
    }

    #[test]
    fn clamp_rule_is_shared() {
        assert_eq!(clamp_shards(0), 1);
        assert_eq!(clamp_shards(1), 1);
        assert_eq!(clamp_shards(16), 16);
        assert_eq!(clamp_shards(10_000), MAX_SHARDS);
    }

    /// Checks that each of 500 keys routes to shard `fnv1a_64(key) % n`
    /// and that `with_cells` hands over, and writes into, that same shard.
    fn assert_modulo_placement(n: usize) {
        let world = SimWorld::counting();
        let map: ShardMap<u32> = ShardMap::new(n);
        assert_eq!(map.shard_count(), n);
        for k in keys(500) {
            let expect = (fnv1a_64(&k) % n as u64) as u32;
            assert_eq!(map.route(&k), expect, "key {k} in {n} shards");
            let handed = map.with_cells(&k, |shard, cells| {
                cells.write(&world, k.clone(), Some(shard));
                shard
            });
            assert_eq!(handed, expect, "key {k} in {n} shards");
            let held = map.with_cells_at(expect as usize, |cells| cells.read_latest(&k));
            assert_eq!(held, Some(expect), "key {k} in {n} shards");
        }
    }

    #[test]
    fn power_of_two_layouts_reproduce_modulo_placement() {
        for n in [1usize, 2, 8, 16, 64, 256] {
            assert_modulo_placement(n);
        }
    }

    #[test]
    fn non_power_of_two_layouts_cover_the_ring() {
        // Modulo placement over the whole hash space: every shard of an
        // odd layout receives keys, each exactly where `% n` puts it.
        for n in [3usize, 5, 7] {
            assert_modulo_placement(n);
            let map: ShardMap<u32> = ShardMap::new(n);
            let seen: std::collections::BTreeSet<u32> =
                keys(500).iter().map(|k| map.route(k)).collect();
            assert_eq!(seen.len(), n, "500 keys should touch all {n} shards");
        }
    }

    #[test]
    fn batch_locking_is_id_ordered_and_reaches_every_shard() {
        let world = SimWorld::counting();
        let map: ShardMap<u32> = ShardMap::new(8);
        let ks = keys(32);
        let ids = map.route_all(&ks);
        map.with_cells_multi(&ids, |cells| {
            for (k, id) in ks.iter().zip(&ids) {
                cells.get_mut(*id).write(&world, k.clone(), Some(5));
            }
        });
        for k in &ks {
            let got = map.with_cells(k, |_, c| c.read_latest(k));
            assert_eq!(got, Some(5));
        }
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

    #[test]
    fn unqueried_maps_keep_no_postings() {
        let world = SimWorld::counting();
        let map: ShardMap<Item> = ShardMap::new(4);
        for k in keys(8) {
            map.with_cells(&k, |_, cells| {
                assert!(cells.postings.is_none(), "a write takes no table lock");
                cells.write(&world, k.clone(), Some(item(&[("a", "x")])));
            });
        }
        // Scanned pages do not make a table either.
        let pin = map.pin_replicas(&world);
        let (page, more, _) = map.merged_page(&pin, world.now(), None, 10, None, |_| Some(()));
        assert_eq!((page.len(), more), (8, false));
        assert!(map.postings.get().is_none());
        // The first weigh does, and every later write keeps it current.
        let probes = [("a", value_hash("x"))];
        let cover = map.weigh(item_values, &probes, |totals| {
            assert_eq!(totals, [8]);
            Some([0])
        });
        assert!(cover.is_some());
        let k = &keys(9)[8];
        map.with_cells(k, |_, cells| {
            assert!(cells.postings.is_some());
            cells.write(&world, k.clone(), Some(item(&[("a", "x")])));
        });
        let cover = map.weigh(item_values, &probes, |totals| {
            assert_eq!(totals, [9]);
            Some([0])
        });
        let (page, _, _) =
            map.merged_page(&pin, world.now(), None, 10, cover.as_ref(), |_| Some(()));
        assert_eq!(page.len(), 9);
    }

    /// The covers the proptest weighs; every predicate it pairs them
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

    /// `(kind, key, pair bits, (cover, cursor, page size))`.
    type Op = (u8, u64, u8, (usize, u64, usize));

    fn name(key: u64) -> String {
        format!("k{key:02}")
    }

    /// `b` always, `a=x` and `a=y` by bit.
    fn pairs(bits: u8) -> Item {
        let mut pairs = vec![("b", if bits & 4 == 0 { "p" } else { "q" })];
        for (bit, value) in [(1, "x"), (2, "y")] {
            if bits & bit != 0 {
                pairs.push(("a", value));
            }
        }
        item(&pairs)
    }

    /// Runs `ops` on a fresh `shards`-shard map over an eventual world.
    /// From step `b_from` on, covers may name `b`: it is first indexed
    /// there, mid-schedule. `mask` narrows the posted hashes.
    fn run_ops(
        shards: usize,
        mask: u64,
        seed: u64,
        ops: &[Op],
        b_from: usize,
    ) -> Result<(), TestCaseError> {
        let world = SimWorld::with_config(SimConfig {
            seed,
            consistency: Consistency::eventual(SimDuration::from_secs(5)),
            latency: LatencyModel::zero(),
            replicas: 3,
        });
        let map: ShardMap<Item> = ShardMap::new(shards);
        if mask != u64::MAX {
            let table = map
                .postings
                .get_or_init(|| RwLock::new(Postings::new(shards, item_values)));
            table.write().mask = mask;
        }
        for (step, &(kind, key, bits, probe)) in ops.iter().enumerate() {
            match kind {
                // Put: the pairs join what the item holds.
                0 | 1 => map.with_cells(&name(key), |_, cells| {
                    let held = cells.read_latest(&name(key)).unwrap_or_default();
                    let added = pairs(bits);
                    let mut joined: Vec<Pair> = held.iter().chain(added.iter()).collect();
                    joined.sort();
                    joined.dedup();
                    let joined = PairSet::from_sorted(joined.into_iter());
                    cells.write(&world, name(key), Some(joined));
                }),
                // Replace.
                2 => map.with_cells(&name(key), |_, cells| {
                    cells.write(&world, name(key), Some(pairs(bits)));
                }),
                3 => map.with_cells(&name(key), |_, cells| cells.write(&world, name(key), None)),
                // A batch of three items, each shard locked once.
                4 => {
                    let names: Vec<String> = [0, 3, 7].map(|d| name((key + d) % 12)).into();
                    let ids = map.route_all(&names);
                    map.with_cells_multi(&ids, |cells| {
                        for (n, id) in names.iter().zip(&ids) {
                            cells
                                .get_mut(*id)
                                .write(&world, n.clone(), Some(pairs(bits)));
                        }
                    });
                }
                5 => {
                    let now = world.now();
                    map.with_cells_multi(map.ids(), |cells| {
                        for id in map.ids() {
                            cells.get_mut(*id).gc(now);
                        }
                    });
                }
                _ => world.advance(SimDuration::from_millis(key * 500)),
            }
            check_page(&world, &map, step >= b_from, probe)?;
        }
        Ok(())
    }

    /// A page served from a weighed cover must equal the scanned page —
    /// rows, `more` and the `scanned` charge — and the postings must be
    /// exactly what a rebuild from the surviving histories gives.
    fn check_page(
        world: &SimWorld,
        map: &ShardMap<Item>,
        b_indexed: bool,
        (shape, cursor, limit): (usize, u64, usize),
    ) -> Result<(), TestCaseError> {
        let cover = COVERS[shape % COVERS.len()];
        if !b_indexed && cover.iter().any(|(attr, _)| *attr == "b") {
            return Ok(());
        }
        let probes: Vec<(&str, u64)> = cover.iter().map(|(a, v)| (*a, value_hash(v))).collect();
        let weighed = map.weigh(item_values, &probes, |totals| Some(0..totals.len()));
        prop_assert!(weighed.is_some());
        let pin = map.pin_replicas(world);
        let after = (cursor < 12).then(|| name(cursor));
        let select = |v: &Item| {
            let covered = cover.iter().any(|(attr, value)| carries(v, attr, value));
            (covered && (limit % 2 == 0 || carries(v, "b", "p"))).then(|| v.clone())
        };
        let now = world.now();
        let posted = map.merged_page(&pin, now, after.clone(), limit, weighed.as_ref(), select);
        let scanned = map.merged_page(&pin, now, after, limit, None, select);
        prop_assert_eq!(posted, scanned);

        let table = map.postings.get().expect("weighed");
        let (indexed, mut rebuilt) = {
            let table = table.read();
            let mut rebuilt = Postings::new(map.shard_count(), item_values);
            rebuilt.mask = table.mask;
            (table.indexed(), rebuilt)
        };
        let indexed: Vec<(&str, u64)> = indexed.iter().map(|a| (a.as_str(), 0)).collect();
        for shard in 0..map.shard_count() {
            map.with_cells_at(shard, |cells| rebuilt.build(shard as u32, cells, &indexed));
        }
        prop_assert!(
            rebuilt == *table.read(),
            "maintained postings drifted from a rebuild"
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn posted_pages_equal_scanned_pages(
            seed in any::<u64>(),
            b_from in 0usize..40,
            ops in proptest::collection::vec(
                (0u8..8, 0u64..12, 0u8..8, (0usize..7, 0u64..14, 1usize..6)),
                1..40,
            ),
        ) {
            // Once as deployed, once with the hash cut to two bits — two
            // on which `x`, `y` and the value nobody has all agree — so
            // nearly every probe lands on a list other values share.
            for shards in [1, 2, 16] {
                for mask in [u64::MAX, 0x84] {
                    run_ops(shards, mask, seed, &ops, b_from)?;
                }
            }
        }
    }
}
