//! Range-routed shard maps with a fixed layout.
//!
//! SimpleDB domains and S3 buckets are each a [`ShardMap`]: a set of
//! shards, each owning a contiguous span of the 64-bit key-hash ring and
//! holding its cells in its own `Mutex<EcMap>`, plus an ordered
//! batch-locking helper and per-shard replica pinning for pagination
//! tokens. The layout is fixed when the map is
//! created: no shard is ever added, removed or moved, so nothing on the
//! access path takes a layout lock.
//!
//! # Routing
//!
//! A key's ring position is [`ring_position`]: FNV-1a, bit-reversed.
//! The bit-reversal turns the low modulo bits into the high range bits,
//! so a power-of-two layout places every key on **exactly the shard
//! `fnv1a_64(key) % n` chose** under the old modulo router (and
//! [`stable ids`](ShardMap::new) are assigned so the id equals the old
//! modulo index). An `n`-shard map's ids are `0..n`.
//!
//! # Shard-count clamping
//!
//! Both services clamp requested shard counts the same way:
//! `with_shards(0)` is promoted to 1 and oversized requests are capped
//! at [`MAX_SHARDS`]. The clamp lives here ([`clamp_shards`]) so the
//! rule cannot drift between services again.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::ecstore::EcMap;
use crate::hash::fnv1a_64;
use crate::world::SimWorld;

/// Hard cap on the number of shards a map may hold. Requests beyond it
/// are silently clamped — the same rule in SimpleDB and S3.
pub const MAX_SHARDS: usize = 256;

/// The one shard-count validation rule: zero becomes one shard,
/// oversized requests cap at [`MAX_SHARDS`].
pub fn clamp_shards(requested: usize) -> usize {
    requested.clamp(1, MAX_SHARDS)
}

/// A key's position on the 64-bit hash ring: FNV-1a, bit-reversed.
///
/// The bit-reversal makes an even power-of-two range layout reproduce
/// the historical `fnv1a_64(key) % n` placement exactly (the low modulo
/// bits become the high range bits), which keeps every pre-existing
/// baseline number intact.
pub fn ring_position(key: &str) -> u64 {
    fnv1a_64(key).reverse_bits()
}

/// One read replica pinned per shard, keyed by **stable shard id** — the
/// payload of a pagination token. A scan pins its replicas once at the
/// first page, and every later page reads the same replica per shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplicaPin {
    /// `(shard id, replica)`, ascending by id, each id once.
    entries: Vec<(u32, usize)>,
}

impl ReplicaPin {
    /// An empty pin.
    pub fn new() -> ReplicaPin {
        ReplicaPin::default()
    }

    /// Pins `replica` for shard `id` (overwrites any prior pin).
    pub fn insert(&mut self, id: u32, replica: usize) {
        match self.entries.binary_search_by_key(&id, |&(id, _)| id) {
            Ok(at) => self.entries[at].1 = replica,
            Err(at) => self.entries.insert(at, (id, replica)),
        }
    }

    /// The replica pinned for shard `id`, if any.
    pub fn get(&self, id: u32) -> Option<usize> {
        let at = self.entries.binary_search_by_key(&id, |&(id, _)| id);
        at.ok().map(|at| self.entries[at].1)
    }

    /// Number of pinned shards.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is pinned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(shard id, replica)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.entries.iter().copied()
    }
}

struct Shard<V> {
    id: u32,
    start: u64,
    cells: Mutex<EcMap<String, V>>,
}

/// A range-routed table of per-shard [`EcMap`]s — the one sharding layer
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
    /// Range order: ascending by `start`, `shards[0].start == 0`.
    shards: Box<[Shard<V>]>,
    /// Stable ids ascending (`0..n`): the order replica draws are
    /// assigned in and the order batches lock shards in.
    ids: Box<[u32]>,
}

impl<V> fmt::Debug for ShardMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardMap")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Range start of position `p` in an `n`-shard layout: an even slicing
/// of the ring.
fn initial_start(p: usize, n: usize) -> u64 {
    (((p as u128) << 64) / n as u128) as u64
}

/// Stable id of the shard at range position `p` in an `n`-shard layout.
/// For power-of-two `n` the position bits are reversed so the id equals
/// the historical modulo shard index (`fnv1a_64(key) % n`); otherwise
/// ids simply follow range order.
fn initial_id(p: usize, n: usize) -> u32 {
    if n.is_power_of_two() && n > 1 {
        let k = n.trailing_zeros();
        (p as u32).reverse_bits() >> (32 - k)
    } else {
        p as u32
    }
}

impl<V: Clone> ShardMap<V> {
    /// Builds a map of `shards` shards, clamped by [`clamp_shards`],
    /// slicing the ring evenly.
    pub fn new(shards: usize) -> ShardMap<V> {
        let n = clamp_shards(shards);
        ShardMap {
            shards: (0..n)
                .map(|p| Shard {
                    id: initial_id(p, n),
                    start: initial_start(p, n),
                    cells: Mutex::new(EcMap::new()),
                })
                .collect(),
            ids: (0..n as u32).collect(),
        }
    }

    /// Shards in the map.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Stable shard ids in range order.
    pub fn shard_ids(&self) -> Vec<u32> {
        self.shards.iter().map(|s| s.id).collect()
    }

    /// Stable ids in ascending **id** order — the deterministic order
    /// replica draws are assigned in, and the shards a fan-out touches.
    pub fn sorted_ids(&self) -> &[u32] {
        &self.ids
    }

    /// Range position of the shard owning `key`.
    fn position(&self, key: &str) -> usize {
        let ring = ring_position(key);
        self.shards.partition_point(|s| s.start <= ring) - 1
    }

    /// Stable id of the shard owning `key`.
    pub fn route(&self, key: &str) -> u32 {
        self.shards[self.position(key)].id
    }

    /// Routes every key.
    pub fn route_all<I, S>(&self, keys: I) -> Vec<u32>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        keys.into_iter().map(|k| self.route(k.as_ref())).collect()
    }

    /// Runs `f` against the cell map of the shard owning `key`, under its
    /// lock, passing the shard's stable id alongside.
    pub fn with_cells<R>(&self, key: &str, f: impl FnOnce(u32, &mut EcMap<String, V>) -> R) -> R {
        let shard = &self.shards[self.position(key)];
        f(shard.id, &mut shard.cells.lock())
    }

    /// Locks the listed shards in ascending-id order — the one global
    /// order that keeps concurrent batches deadlock-free — and hands `f`
    /// an accessor over all of them.
    ///
    /// # Panics
    ///
    /// Panics on an id the map does not hold; callers route first.
    pub fn with_cells_multi<R>(
        &self,
        ids: &[u32],
        f: impl FnOnce(&mut ShardCells<'_, V>) -> R,
    ) -> R {
        let mut order: Vec<u32> = ids.to_vec();
        order.sort_unstable();
        order.dedup();
        let guards = order
            .into_iter()
            .map(|id| {
                let shard = self.shards.iter().find(|s| s.id == id);
                (id, shard.expect("unknown shard id").cells.lock())
            })
            .collect();
        f(&mut ShardCells { guards })
    }

    /// Runs `f` against the cell map at range `position`, under its
    /// lock — mutably, so a scan can build the attribute postings it is
    /// about to read ([`EcMap::posting_counts`]).
    pub fn with_cells_at<R>(
        &self,
        position: usize,
        f: impl FnOnce(&mut EcMap<String, V>) -> R,
    ) -> R {
        f(&mut self.shards[position].cells.lock())
    }

    /// Keys whose newest value is live and that `keep` accepts, ascending
    /// — the authoritative, unbilled listing behind the services'
    /// test-only `latest_*` views.
    pub fn latest_keys(&self, mut keep: impl FnMut(&str) -> bool) -> Vec<String> {
        let mut keys: Vec<String> = Vec::new();
        for shard in &self.shards {
            let cells = shard.cells.lock();
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
    /// shard, assigned in ascending-id order — which on a power-of-two
    /// layout reproduces the historical draw-per-index assignment
    /// exactly.
    pub fn pin_replicas(&self, world: &SimWorld) -> ReplicaPin {
        let draws = world.sample_read_replicas(self.ids.len());
        ReplicaPin {
            entries: self.ids.iter().copied().zip(draws).collect(),
        }
    }

    /// `true` when `pin` pins exactly this map's shard ids. Anything
    /// else is a token minted against another layout.
    pub fn pin_matches(&self, pin: &ReplicaPin) -> bool {
        pin.iter().map(|(id, _)| id).eq(self.ids.iter().copied())
    }

    /// The replica `pin` holds for the shard at range `position`.
    ///
    /// # Panics
    ///
    /// Panics unless the pin covers the shard: pass a pin from
    /// [`ShardMap::pin_replicas`] or one [`ShardMap::pin_matches`]
    /// accepted.
    pub fn pinned_replica(&self, pin: &ReplicaPin, position: usize) -> usize {
        pin.get(self.shards[position].id)
            .expect("the pin was minted on, or checked against, this layout")
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
/// locked, keyed by stable shard id.
pub struct ShardCells<'a, V> {
    guards: BTreeMap<u32, MutexGuard<'a, EcMap<String, V>>>,
}

impl<V> fmt::Debug for ShardCells<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardCells")
            .field("ids", &self.guards.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl<V> ShardCells<'_, V> {
    /// The cell map locked for shard `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not in the locked set.
    pub fn get_mut(&mut self, id: u32) -> &mut EcMap<String, V> {
        self.guards.get_mut(&id).expect("shard id not locked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::SimWorld;

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

    #[test]
    fn power_of_two_layouts_reproduce_modulo_placement() {
        // The whole point of the bit-reversed ring: a fresh 2^k layout
        // routes every key to the stable id `fnv1a_64(key) % n`.
        for n in [1usize, 2, 4, 8, 16, 64] {
            let map: ShardMap<u32> = ShardMap::new(n);
            for k in keys(200) {
                let expect = (fnv1a_64(&k) % n as u64) as u32;
                assert_eq!(map.route(&k), expect, "key {k} in {n} shards");
            }
        }
    }

    #[test]
    fn non_power_of_two_layouts_cover_the_ring() {
        let map: ShardMap<u32> = ShardMap::new(5);
        assert_eq!(map.shard_count(), 5);
        let mut seen = std::collections::BTreeSet::new();
        for k in keys(500) {
            seen.insert(map.route(&k));
        }
        assert_eq!(seen.len(), 5, "500 keys should touch all 5 shards");
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
}
