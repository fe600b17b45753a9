//! Range-routed shard maps with hot-shard splitting.
//!
//! PRs 2–3 gave SimpleDB and S3 each their own copy of the same sharding
//! machinery: an `fnv1a_64(key) % n` router, a `Vec` of per-shard
//! `Mutex<EcMap>` tables, an ordered batch-locking helper, and per-shard
//! replica pinning for pagination tokens. This module is that machinery,
//! extracted once — and upgraded from modulo to **range routing**: each
//! shard owns a contiguous span of the 64-bit key-hash ring, so a hot
//! shard can split its span in two and hand off only its own cells,
//! without re-routing a single key outside it.
//!
//! # Routing
//!
//! A key's ring position is [`ring_position`]: FNV-1a, bit-reversed.
//! The bit-reversal turns the low modulo bits into the high range bits,
//! so a fresh power-of-two layout places every key on **exactly the
//! shard `fnv1a_64(key) % n` chose** under the old router (and
//! [`initial ids`](ShardMap::new) are assigned so the stable shard id
//! equals the old modulo index). Static layouts therefore behave — and
//! meter — identically to the pre-range-routing services; only split
//! shards diverge, and only inside the split range.
//!
//! # Splitting
//!
//! When a [`SplitPolicy`] is armed, the map watches two per-shard
//! signals: the shard's share of recent ops (hot keys concentrating on
//! one range) and its throttle rejections (a range whose token bucket
//! keeps running dry). Either trigger splits the shard at the median
//! occupied ring position: the lower half keeps the shard's stable id,
//! the upper half becomes a new shard that records its parent. Splits
//! are free background reorganisations — no RNG, no billing, no clock
//! movement — so converged store state is **byte-identical with
//! splitting on or off**; only placement and admission change.
//!
//! Stable ids never disappear (there are no merges), so a pagination
//! token pinned before a split still resolves: a shard born later walks
//! its parent chain to the nearest pinned ancestor ([`ReplicaPin`]).
//!
//! # Shard-count clamping
//!
//! Both services clamp requested shard counts the same way:
//! `with_shards(0)` is promoted to 1 and oversized requests are capped
//! at [`MAX_SHARDS`]. The clamp lives here ([`clamp_shards`]) so the
//! rule cannot drift between services again.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::clock::SimInstant;
use crate::ecstore::EcMap;
use crate::hash::fnv1a_64;
use crate::latency::Cost;
use crate::metering::Op;
use crate::throttle::{ThrottleConfig, TokenBucket};
use crate::world::{Charge, SimWorld};

/// Hard cap on the number of shards a map may hold, whether provisioned
/// up front or grown by splitting. Requests beyond it are silently
/// clamped — the same rule in SimpleDB and S3.
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
/// baseline number intact for static layouts.
pub fn ring_position(key: &str) -> u64 {
    fnv1a_64(key).reverse_bits()
}

/// When to split a hot shard.
///
/// Two independent triggers, either sufficient:
///
/// * **share** — a shard carried more than `max_share` of the window's
///   ops (once the window holds at least `min_ops`); catches key skew.
/// * **rejections** — a shard's token bucket rejected `max_rejects`
///   requests since its last split; catches throttling hot spots even
///   when load is even across the *tenant's* shards (shares near
///   uniform) but too high for each bucket.
///
/// A `max_share` above `1.0` disables the share trigger; `max_rejects`
/// of zero disables the rejection trigger.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitPolicy {
    /// Share of windowed ops above which a shard splits (> 1.0 disables).
    pub max_share: f64,
    /// Minimum ops the window must hold before the share trigger arms.
    pub min_ops: u64,
    /// Throttle rejections on one shard that force a split (0 disables).
    pub max_rejects: u64,
    /// Growth cap; clamped to at least the initial count and at most
    /// [`MAX_SHARDS`].
    pub max_shards: usize,
}

impl SplitPolicy {
    /// Split any shard whose windowed op share exceeds `max_share`.
    pub fn by_share(max_share: f64) -> SplitPolicy {
        SplitPolicy {
            max_share,
            min_ops: 1024,
            max_rejects: 0,
            max_shards: MAX_SHARDS,
        }
    }

    /// Split any shard the throttle rejected `max_rejects` times.
    ///
    /// # Panics
    ///
    /// Panics if `max_rejects` is zero (that would disable the trigger).
    pub fn by_rejections(max_rejects: u64) -> SplitPolicy {
        assert!(max_rejects > 0, "a zero rejection threshold never fires");
        SplitPolicy {
            max_share: 2.0,
            min_ops: 0,
            max_rejects,
            max_shards: MAX_SHARDS,
        }
    }

    /// Overrides the share-trigger warmup.
    pub fn with_min_ops(mut self, min_ops: u64) -> SplitPolicy {
        self.min_ops = min_ops;
        self
    }

    /// Overrides the growth cap (clamped to [`MAX_SHARDS`]).
    pub fn with_max_shards(mut self, max_shards: usize) -> SplitPolicy {
        self.max_shards = clamp_shards(max_shards);
        self
    }
}

/// How a service's shard map is provisioned: the initial shard count
/// (clamped by [`clamp_shards`]) plus an optional split policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardPlan {
    /// Requested initial shard count.
    pub shards: usize,
    /// Hot-shard splitting policy; `None` freezes the layout.
    pub split: Option<SplitPolicy>,
}

impl ShardPlan {
    /// A static layout of `shards` shards (no splitting) — the exact
    /// behaviour of the old `with_shards` constructors.
    pub fn fixed(shards: usize) -> ShardPlan {
        ShardPlan {
            shards,
            split: None,
        }
    }

    /// Arms hot-shard splitting on top of the plan.
    pub fn with_split(mut self, policy: SplitPolicy) -> ShardPlan {
        self.split = Some(policy);
        self
    }
}

/// Record of one completed split, for logs and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitEvent {
    /// Stable id of the shard that split (keeps the lower half).
    pub parent: u32,
    /// Stable id of the new shard (owns the upper half).
    pub child: u32,
    /// Ring position where the child's range begins.
    pub at: u64,
    /// Cells migrated into the child.
    pub moved_cells: usize,
}

/// One read replica pinned per shard, keyed by **stable shard id** — the
/// payload of a pagination token. A scan pins its replicas once at the
/// first page; later pages re-resolve against the then-current layout,
/// and a shard born from a split resolves to its nearest pinned
/// ancestor, so the whole walk stays on one consistent view.
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

struct ShardState<V> {
    id: u32,
    start: u64,
    parent: Option<u32>,
    cells: Mutex<EcMap<String, V>>,
}

struct MapState<V> {
    /// Ascending by `start`; `shards[0].start == 0`.
    shards: Vec<ShardState<V>>,
    next_id: u32,
}

#[derive(Default)]
struct GovState {
    /// Lazily-created token bucket per stable shard id.
    buckets: HashMap<u32, TokenBucket>,
    /// Ops per shard since that shard's last (attempted) split.
    window_ops: HashMap<u32, u64>,
    /// Sum of `window_ops` (kept incrementally for the share trigger).
    window_total: u64,
    /// Throttle rejections per shard since its last (attempted) split.
    rejects: HashMap<u32, u64>,
    splits: u64,
}

/// A range-routed table of per-shard [`EcMap`]s — the one sharding layer
/// both SimpleDB domains and S3 buckets are built on.
///
/// # Examples
///
/// ```
/// use simworld::{ShardMap, ShardPlan, SimWorld};
///
/// let world = SimWorld::counting();
/// let map: ShardMap<u32> = ShardMap::new(ShardPlan::fixed(4));
/// map.with_cells("key", |shard, cells| {
///     cells.write(&world, "key".to_string(), Some(7));
///     assert!(shard < 4);
/// });
/// assert_eq!(map.shard_count(), 4);
/// ```
pub struct ShardMap<V> {
    state: RwLock<MapState<V>>,
    gov: Mutex<GovState>,
    policy: Option<SplitPolicy>,
}

impl<V> fmt::Debug for ShardMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.read();
        f.debug_struct("ShardMap")
            .field("shards", &st.shards.len())
            .field("policy", &self.policy)
            .finish()
    }
}

/// Range start of position `p` in a fresh `n`-shard layout: an even
/// slicing of the ring.
fn initial_start(p: usize, n: usize) -> u64 {
    (((p as u128) << 64) / n as u128) as u64
}

/// Stable id of the shard at range position `p` in a fresh `n`-shard
/// layout. For power-of-two `n` the position bits are reversed so the id
/// equals the historical modulo shard index (`fnv1a_64(key) % n`);
/// otherwise ids simply follow range order.
fn initial_id(p: usize, n: usize) -> u32 {
    if n.is_power_of_two() && n > 1 {
        let k = n.trailing_zeros();
        (p as u32).reverse_bits() >> (32 - k)
    } else {
        p as u32
    }
}

/// Index of the shard owning ring position `ring`.
fn position_of<V>(shards: &[ShardState<V>], ring: u64) -> usize {
    shards.partition_point(|s| s.start <= ring) - 1
}

impl<V: Clone> ShardMap<V> {
    /// Builds the map per `plan`: `plan.shards` clamped by
    /// [`clamp_shards`], even ring slices, and the split policy armed if
    /// present (its growth cap raised to at least the initial count).
    pub fn new(plan: ShardPlan) -> ShardMap<V> {
        let n = clamp_shards(plan.shards);
        let shards = (0..n)
            .map(|p| ShardState {
                id: initial_id(p, n),
                start: initial_start(p, n),
                parent: None,
                cells: Mutex::new(EcMap::new()),
            })
            .collect();
        let policy = plan.split.map(|mut sp| {
            sp.max_shards = sp.max_shards.clamp(n, MAX_SHARDS);
            sp
        });
        ShardMap {
            state: RwLock::new(MapState {
                shards,
                next_id: n as u32,
            }),
            gov: Mutex::new(GovState::default()),
            policy,
        }
    }

    /// Shards currently live.
    pub fn shard_count(&self) -> usize {
        self.state.read().shards.len()
    }

    /// Stable shard ids in range order.
    pub fn shard_ids(&self) -> Vec<u32> {
        self.state.read().shards.iter().map(|s| s.id).collect()
    }

    /// Splits performed so far.
    pub fn split_count(&self) -> u64 {
        self.gov.lock().splits
    }

    /// The split policy the map runs under, if any.
    pub fn policy(&self) -> Option<SplitPolicy> {
        self.policy
    }

    /// Stable id of the shard currently owning `key`.
    pub fn route(&self, key: &str) -> u32 {
        let st = self.state.read();
        st.shards[position_of(&st.shards, ring_position(key))].id
    }

    /// Routes every key under one read-lock acquisition.
    pub fn route_all<I, S>(&self, keys: I) -> Vec<u32>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let st = self.state.read();
        keys.into_iter()
            .map(|k| st.shards[position_of(&st.shards, ring_position(k.as_ref()))].id)
            .collect()
    }

    /// Runs `f` against the cell map of the shard owning `key`, passing
    /// the shard's stable id alongside. Both the layout read lock and
    /// the shard's cell lock are held for the duration — release before
    /// calling [`ShardMap::note_ops`].
    pub fn with_cells<R>(&self, key: &str, f: impl FnOnce(u32, &mut EcMap<String, V>) -> R) -> R {
        let st = self.state.read();
        let shard = &st.shards[position_of(&st.shards, ring_position(key))];
        let mut cells = shard.cells.lock();
        f(shard.id, &mut cells)
    }

    /// A billed point operation on `key`: [`ShardMap::with_cells`], then
    /// — the guards released, as a split needs the layout write lock —
    /// the shard's touch goes into the split window
    /// ([`ShardMap::note_ops`]).
    pub fn point_op<R>(&self, key: &str, f: impl FnOnce(u32, &mut EcMap<String, V>) -> R) -> R {
        let (shard, out) = self.with_cells(key, |shard, cells| (shard, f(shard, cells)));
        self.note_ops(&[shard]);
        out
    }

    /// Locks the listed shards in ascending-id order — the one global
    /// order that keeps concurrent batches deadlock-free — and hands `f`
    /// an accessor over all of them (the shared replacement for the
    /// `lock_shards` helpers both services used to carry).
    ///
    /// # Panics
    ///
    /// Panics on an id the map does not hold; callers route first.
    pub fn with_cells_multi<R>(
        &self,
        ids: &[u32],
        f: impl FnOnce(&mut ShardCells<'_, V>) -> R,
    ) -> R {
        let st = self.state.read();
        let mut order: Vec<u32> = ids.to_vec();
        order.sort_unstable();
        order.dedup();
        let mut guards = BTreeMap::new();
        for id in order {
            let shard = st
                .shards
                .iter()
                .find(|s| s.id == id)
                .expect("with_cells_multi: unknown shard id");
            guards.insert(id, shard.cells.lock());
        }
        let mut cells = ShardCells { guards };
        f(&mut cells)
    }

    /// Keys whose newest value is live and that `keep` accepts, ascending
    /// — the authoritative, unbilled listing behind the services'
    /// test-only `latest_*` views.
    pub fn latest_keys(&self, mut keep: impl FnMut(&str) -> bool) -> Vec<String> {
        let st = self.state.read();
        let mut keys: Vec<String> = Vec::new();
        for shard in &st.shards {
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

    /// Runs `f` over a consistent view of the current range layout.
    /// Splits are excluded for the duration; individual cell maps still
    /// lock per access.
    pub fn read_view<R>(&self, f: impl FnOnce(&MapView<'_, V>) -> R) -> R {
        let st = self.state.read();
        f(&MapView { state: &st })
    }

    /// Clears all token-bucket state (an endpoint replacing its throttle
    /// config starts every bucket full again).
    fn reset_throttle(&self) {
        self.gov.lock().buckets.clear();
    }

    /// All-or-nothing admission across `distinct` shard ids: either every
    /// shard has a token — and one is taken from each — or no bucket is
    /// touched and the request is rejected. Rejections are remembered per
    /// starved shard for the split policy's rejection trigger.
    fn admit(&self, now: SimInstant, cfg: ThrottleConfig, distinct: &[u32]) -> bool {
        let mut gov = self.gov.lock();
        let mut ok = true;
        let mut starved = Vec::new();
        for &id in distinct {
            let bucket = gov
                .buckets
                .entry(id)
                .or_insert_with(|| TokenBucket::new(cfg, now));
            if !bucket.peek(now) {
                ok = false;
                starved.push(id);
            }
        }
        if ok {
            for id in distinct {
                gov.buckets
                    .get_mut(id)
                    .expect("bucket created during peek")
                    .take();
            }
        } else {
            for id in starved {
                *gov.rejects.entry(id).or_insert(0) += 1;
            }
        }
        ok
    }

    /// The write path's admission step under the endpoint's throttle
    /// `config` (`None` admits everything): the request needs a token
    /// from every distinct shard in `ids`, as of the world's clock, and a
    /// rejected batch drains none. On rejection this is the whole 503 —
    /// one [`Cost::Rejected`] charge of `op` carrying those shards
    /// (billed, one latency draw, nothing else), then
    /// [`ShardMap::maybe_split`], since a rejection can be the one that
    /// trips the split policy — and `false` tells the caller to return
    /// its `ServiceUnavailable`.
    pub fn admit_or_reject(
        &self,
        world: &SimWorld,
        config: Option<ThrottleConfig>,
        op: Op,
        bytes_in: u64,
        ids: &[u32],
    ) -> bool {
        let Some(cfg) = config else { return true };
        let mut distinct: Vec<u32> = ids.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if self.admit(world.now(), cfg, &distinct) {
            return true;
        }
        world.charge(Charge {
            cost: Cost::Rejected,
            shards: &distinct,
            ..Charge::point(op, bytes_in, 0)
        });
        self.maybe_split();
        false
    }

    /// Records shard touches into the split-governance window and then
    /// checks the triggers ([`ShardMap::maybe_split`]). No-op without a
    /// policy. Call *after* releasing any cell guards — a split takes
    /// the layout write lock.
    pub fn note_ops(&self, touched: &[u32]) -> Option<SplitEvent> {
        self.policy?;
        {
            let mut gov = self.gov.lock();
            for &id in touched {
                *gov.window_ops.entry(id).or_insert(0) += 1;
                gov.window_total += 1;
            }
        }
        self.maybe_split()
    }

    /// Checks the split triggers and performs at most one split. Splits
    /// consume no RNG, no billing, and no virtual time — they are free
    /// background reorganisations, which is what keeps converged store
    /// state byte-identical with splitting on or off.
    pub fn maybe_split(&self) -> Option<SplitEvent> {
        let policy = self.policy?;
        let candidate = {
            let st = self.state.read();
            if st.shards.len() >= policy.max_shards {
                return None;
            }
            let gov = self.gov.lock();
            pick_candidate(&st.shards, &gov, &policy)
        }?;
        self.split_shard(candidate)
    }

    /// Test/bench hook: splits the shard currently holding the most
    /// cells, regardless of policy. Returns `None` when nothing can
    /// split (fewer than two distinct ring positions everywhere, or the
    /// map is at [`MAX_SHARDS`]).
    pub fn force_split(&self) -> Option<SplitEvent> {
        let id = {
            let st = self.state.read();
            if st.shards.len() >= MAX_SHARDS {
                return None;
            }
            st.shards
                .iter()
                .map(|s| (s.cells.lock().cell_count(), s.id))
                .max()
                .map(|(_, id)| id)?
        };
        self.split_shard(id)
    }

    /// Splits shard `id` at the median occupied ring position: the lower
    /// half keeps `id`, the upper half becomes a fresh shard recording
    /// `id` as its parent. A shard whose cells sit on fewer than two
    /// distinct ring positions cannot split; its window resets as
    /// backoff so the trigger re-arms only after fresh load.
    fn split_shard(&self, id: u32) -> Option<SplitEvent> {
        let mut st = self.state.write();
        let pos = st.shards.iter().position(|s| s.id == id)?;
        let split = {
            let mut cells = st.shards[pos].cells.lock();
            let mut positions: Vec<u64> = cells.cell_keys().map(|k| ring_position(k)).collect();
            positions.sort_unstable();
            positions.dedup();
            if positions.len() < 2 {
                None
            } else {
                // Deduped and ascending, so the median is strictly above
                // the range start for len >= 2.
                let mid = positions[positions.len() / 2];
                let moved = cells.split_off_by(|k| ring_position(k) >= mid);
                Some((mid, moved))
            }
        };
        let mut gov = self.gov.lock();
        let window = gov.window_ops.remove(&id).unwrap_or(0);
        gov.window_total = gov.window_total.saturating_sub(window);
        gov.rejects.remove(&id);
        let (mid, moved) = split?;
        let moved_cells = moved.cell_count();
        let child_id = st.next_id;
        st.next_id += 1;
        st.shards.insert(
            pos + 1,
            ShardState {
                id: child_id,
                start: mid,
                parent: Some(id),
                cells: Mutex::new(moved),
            },
        );
        // The child inherits a copy of the parent's bucket — same config,
        // same fill — so admission capacity over the hot range doubles
        // from here on, with no retroactive burst.
        if let Some(bucket) = gov.buckets.get(&id).copied() {
            gov.buckets.insert(child_id, bucket);
        }
        gov.splits += 1;
        Some(SplitEvent {
            parent: id,
            child: child_id,
            at: mid,
            moved_cells,
        })
    }
}

/// The named [`ShardMap`]s of one service endpoint — S3's buckets,
/// SimpleDB's domains — with the [`ShardPlan`] new maps are provisioned
/// by and the endpoint's one optional [`ThrottleConfig`] (the per-shard
/// token buckets live inside each map, keyed by stable shard id so they
/// survive splits). Lookups clone the map's `Arc` out, so the name table
/// is locked only for the lookup.
pub struct ShardRegistry<V> {
    plan: ShardPlan,
    maps: RwLock<BTreeMap<String, Arc<ShardMap<V>>>>,
    throttle: Mutex<Option<ThrottleConfig>>,
}

impl<V> fmt::Debug for ShardRegistry<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardRegistry")
            .field("maps", &self.maps.read().len())
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl<V: Clone> ShardRegistry<V> {
    /// An empty registry whose maps will be built per `plan`.
    pub fn new(plan: ShardPlan) -> ShardRegistry<V> {
        ShardRegistry {
            plan,
            maps: RwLock::new(BTreeMap::new()),
            throttle: Mutex::new(None),
        }
    }

    /// The shard plan maps are provisioned with.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// The map called `name`, if one was created.
    pub fn get(&self, name: &str) -> Option<Arc<ShardMap<V>>> {
        self.maps.read().get(name).cloned()
    }

    /// Names of every map, ascending.
    pub fn names(&self) -> Vec<String> {
        self.maps.read().keys().cloned().collect()
    }

    /// Creates the map `name`, built per the plan, if `gate` allows it.
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
            maps.insert(name, Arc::new(ShardMap::new(self.plan)));
        }
        Ok(())
    }

    /// Installs (or, with `None`, removes) the endpoint's per-shard
    /// write-rate limit, replacing any prior one and refilling every
    /// token bucket.
    pub fn set_throttle(&self, config: Option<ThrottleConfig>) {
        *self.throttle.lock() = config;
        for map in self.maps.read().values() {
            map.reset_throttle();
        }
    }

    /// The active per-shard write-rate limit, if any.
    pub fn throttle(&self) -> Option<ThrottleConfig> {
        *self.throttle.lock()
    }
}

fn pick_candidate<V>(
    shards: &[ShardState<V>],
    gov: &GovState,
    policy: &SplitPolicy,
) -> Option<u32> {
    // Rejection trigger first: it is the sharper signal (the bucket is
    // already turning work away).
    if policy.max_rejects > 0 {
        let worst = shards
            .iter()
            .filter_map(|s| gov.rejects.get(&s.id).map(|r| (*r, s.id)))
            .filter(|(r, _)| *r >= policy.max_rejects)
            .max();
        if let Some((_, id)) = worst {
            return Some(id);
        }
    }
    if policy.max_share <= 1.0 && gov.window_total >= policy.min_ops.max(1) {
        let hottest = shards
            .iter()
            .filter_map(|s| gov.window_ops.get(&s.id).map(|o| (*o, s.id)))
            .max();
        if let Some((ops, id)) = hottest {
            if ops >= 2 && ops as f64 > policy.max_share * gov.window_total as f64 {
                return Some(id);
            }
        }
    }
    None
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

/// A consistent snapshot of a map's range layout, for fan-out scans and
/// pagination (see [`ShardMap::read_view`]). Positions index shards in
/// ascending range order.
pub struct MapView<'a, V> {
    state: &'a MapState<V>,
}

impl<V> fmt::Debug for MapView<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapView")
            .field("shards", &self.state.shards.len())
            .finish()
    }
}

impl<V: Clone> MapView<'_, V> {
    /// Shards in this view.
    pub fn shard_count(&self) -> usize {
        self.state.shards.len()
    }

    /// Stable ids in ascending **id** order (the deterministic order
    /// replica draws are assigned in).
    pub fn sorted_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.state.shards.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }

    /// Runs `f` against the cell map at range `position`, under its
    /// lock — mutably, so a scan can build the attribute postings it is
    /// about to read ([`EcMap::posting_counts`]).
    pub fn with_cells_at<R>(
        &self,
        position: usize,
        f: impl FnOnce(&mut EcMap<String, V>) -> R,
    ) -> R {
        let mut cells = self.state.shards[position].cells.lock();
        f(&mut cells)
    }

    /// Pins one read replica per current shard: `n` draws from the
    /// world, assigned in ascending-id order (`ids` is
    /// [`MapView::sorted_ids`], which a fan-out has already built to
    /// record its touches) — which on a fresh power-of-two layout
    /// reproduces the historical draw-per-index assignment exactly.
    pub fn pin_replicas(&self, world: &SimWorld, ids: &[u32]) -> ReplicaPin {
        debug_assert!(ids.is_sorted_by(|a, b| a < b), "ids are sorted_ids()");
        let draws = world.sample_read_replicas(ids.len());
        ReplicaPin {
            entries: ids.iter().copied().zip(draws).collect(),
        }
    }

    /// Resolves the pinned replica for the shard at range `position`,
    /// walking parent pointers for shards born after the pin was taken.
    /// `None` means the pin cannot cover this shard — a token from a
    /// different layout.
    pub fn resolve_pin(&self, pin: &ReplicaPin, position: usize) -> Option<usize> {
        let mut shard = &self.state.shards[position];
        loop {
            if let Some(replica) = pin.get(shard.id) {
                return Some(replica);
            }
            let parent = shard.parent?;
            shard = self.state.shards.iter().find(|s| s.id == parent)?;
        }
    }

    /// `true` when every pinned id names a shard in this view. Ids never
    /// disappear (shards split, never merge), so an unknown id marks a
    /// token minted against some other map.
    pub fn pin_ids_known(&self, pin: &ReplicaPin) -> bool {
        pin.iter()
            .all(|(id, _)| self.state.shards.iter().any(|s| s.id == id))
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
            let map: ShardMap<u32> = ShardMap::new(ShardPlan::fixed(n));
            for k in keys(200) {
                let expect = (fnv1a_64(&k) % n as u64) as u32;
                assert_eq!(map.route(&k), expect, "key {k} in {n} shards");
            }
        }
    }

    #[test]
    fn non_power_of_two_layouts_cover_the_ring() {
        let map: ShardMap<u32> = ShardMap::new(ShardPlan::fixed(5));
        assert_eq!(map.shard_count(), 5);
        let mut seen = std::collections::BTreeSet::new();
        for k in keys(500) {
            seen.insert(map.route(&k));
        }
        assert_eq!(seen.len(), 5, "500 keys should touch all 5 shards");
    }

    #[test]
    fn split_moves_only_the_parents_cells() {
        let world = SimWorld::counting();
        let map: ShardMap<u32> = ShardMap::new(ShardPlan::fixed(4));
        let all = keys(400);
        for (i, k) in all.iter().enumerate() {
            map.with_cells(k, |_, cells| cells.write(&world, k.clone(), Some(i as u32)));
        }
        let before: Vec<(String, u32)> = all.iter().map(|k| (k.clone(), map.route(k))).collect();
        let ev = map
            .force_split()
            .expect("400 keys over 4 shards must split");
        assert_eq!(map.shard_count(), 5);
        // Keys outside the split shard keep their routes; keys inside
        // stay in the parent or move to the child, nothing else.
        for (k, old) in before {
            let new = map.route(&k);
            if old == ev.parent {
                assert!(
                    new == ev.parent || new == ev.child,
                    "key {k} left the split range: {old} -> {new}"
                );
            } else {
                assert_eq!(new, old, "key {k} re-routed by an unrelated split");
            }
            // Values survive wherever they landed.
            let got = map.with_cells(&k, |_, cells| cells.read_latest(&k));
            assert!(got.is_some(), "key {k} lost by the split");
        }
        assert!(ev.moved_cells > 0, "median split must move something");
    }

    #[test]
    fn share_trigger_splits_the_hot_shard() {
        let world = SimWorld::counting();
        let policy = SplitPolicy::by_share(0.3).with_min_ops(64);
        let map: ShardMap<u32> = ShardMap::new(ShardPlan::fixed(4).with_split(policy));
        // Two hot keys on one shard; everything else cold.
        let hot = "hot-key-a";
        let hot_id = map.route(hot);
        let mut sibling = None;
        for k in keys(4000) {
            if map.route(&k) == hot_id && ring_position(&k) != ring_position(hot) {
                sibling = Some(k);
                break;
            }
        }
        let sibling = sibling.expect("some key shares the hot shard");
        map.with_cells(hot, |_, c| c.write(&world, hot.to_string(), Some(1)));
        map.with_cells(&sibling, |_, c| c.write(&world, sibling.clone(), Some(2)));
        let mut split = None;
        for _ in 0..200 {
            let id = map.route(hot);
            if let Some(ev) = map.note_ops(&[id]) {
                split = Some(ev);
                break;
            }
        }
        let ev = split.expect("hot shard should split");
        assert_eq!(ev.parent, hot_id);
        assert_eq!(map.shard_count(), 5);
        assert_eq!(map.split_count(), 1);
    }

    #[test]
    fn rejection_trigger_splits_and_doubles_admission() {
        use crate::clock::SimInstant;
        let world = SimWorld::counting();
        let policy = SplitPolicy::by_rejections(3);
        let map: ShardMap<u32> = ShardMap::new(ShardPlan::fixed(2).with_split(policy));
        // Give the target shard two distinct ring positions so it can
        // split.
        let ks = keys(64);
        for k in &ks {
            map.with_cells(k, |_, c| c.write(&world, k.clone(), Some(0)));
        }
        let cfg = ThrottleConfig::per_shard(1.0);
        let now = SimInstant::EPOCH;
        let id = map.route(&ks[0]);
        // Burn the bucket, then keep knocking: after 3 rejections the
        // shard splits.
        assert!(map.admit(now, cfg, &[id]));
        for _ in 0..3 {
            assert!(!map.admit(now, cfg, &[id]));
        }
        let ev = map.maybe_split().expect("rejections should force a split");
        assert_eq!(ev.parent, id);
        assert_eq!(map.shard_count(), 3);
        // The child cloned the parent's (empty) bucket: both halves now
        // refill independently, doubling capacity over the old range.
        let later = now + crate::clock::SimDuration::from_secs(2);
        assert!(map.admit(later, cfg, &[ev.parent]));
        assert!(map.admit(later, cfg, &[ev.child]));
    }

    #[test]
    fn pins_resolve_through_parent_chains() {
        let world = SimWorld::counting();
        let map: ShardMap<u32> = ShardMap::new(ShardPlan::fixed(2));
        for k in keys(128) {
            map.with_cells(&k, |_, c| c.write(&world, k.clone(), Some(9)));
        }
        let pin = map.read_view(|v| v.pin_replicas(&world, &v.sorted_ids()));
        assert_eq!(pin.len(), 2);
        map.force_split().expect("split 1");
        map.force_split().expect("split 2");
        map.read_view(|v| {
            assert_eq!(v.shard_count(), 4);
            assert!(v.pin_ids_known(&pin));
            for pos in 0..v.shard_count() {
                assert!(
                    v.resolve_pin(&pin, pos).is_some(),
                    "shard at {pos} must resolve through its ancestors"
                );
            }
        });
        // A pin naming a foreign id is detectable.
        let mut bogus = ReplicaPin::new();
        bogus.insert(99, 0);
        map.read_view(|v| assert!(!v.pin_ids_known(&bogus)));
    }

    #[test]
    fn unsplittable_shard_backs_off() {
        let world = SimWorld::counting();
        let policy = SplitPolicy::by_share(0.1).with_min_ops(4);
        let map: ShardMap<u32> = ShardMap::new(ShardPlan::fixed(1).with_split(policy));
        // One single key: one ring position, nothing to split.
        map.with_cells("only", |_, c| c.write(&world, "only".to_string(), Some(1)));
        let id = map.route("only");
        for _ in 0..64 {
            assert!(map.note_ops(&[id]).is_none());
        }
        assert_eq!(map.shard_count(), 1);
        assert_eq!(map.split_count(), 0);
    }

    #[test]
    fn growth_stops_at_the_policy_cap() {
        let world = SimWorld::counting();
        let policy = SplitPolicy::by_share(0.0)
            .with_min_ops(1)
            .with_max_shards(4);
        let map: ShardMap<u32> = ShardMap::new(ShardPlan::fixed(2).with_split(policy));
        for k in keys(256) {
            map.with_cells(&k, |_, c| c.write(&world, k.clone(), Some(0)));
        }
        for k in keys(256) {
            let id = map.route(&k);
            map.note_ops(&[id]);
        }
        assert_eq!(map.shard_count(), 4, "cap must hold");
    }

    #[test]
    fn batch_locking_is_id_ordered_and_reaches_every_shard() {
        let world = SimWorld::counting();
        let map: ShardMap<u32> = ShardMap::new(ShardPlan::fixed(8));
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
