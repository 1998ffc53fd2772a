//! The cluster: a collection of hosts plus the cluster-wide accounting the
//! scheduler and autoscaler read.
//!
//! # The incremental host index
//!
//! Placement runs once per kernel creation and commit/release once per
//! cell, so everything the scheduler reads on that path is served from
//! state maintained *incrementally* instead of being re-derived per query:
//!
//! * the host slab is ascending by id (ids are consecutive and never
//!   reused), and an id → slab-position table with one entry per id ever
//!   issued makes host lookup one load, before and after scale-in;
//! * `ΣG`/`ΣS`/`ΣC` fleet totals are plain integers moved by the
//!   cluster-level mutators ([`Cluster::subscribe`], [`Cluster::try_commit`],
//!   [`Cluster::release`], …) together with the per-host change;
//! * the shape census is a persistent sorted index updated on host
//!   add/remove, not an O(hosts × shapes) scan per query;
//! * a placement index (`HostIndex`, private) buckets every host by the
//!   two small integers the placement policies and the commit-side scans
//!   sort by — idle and subscribed GPUs — in id bitsets, so top-k host
//!   selection walks a few buckets instead of rescanning the slab per
//!   decision (see [`Cluster::rank_least_loaded_top`] and friends), and
//!   re-keying a host is a few word operations.
//!
//! Index ≡ slab holds by construction, not by repair: every `&mut Host` is
//! taken inside `apply_indexed`, which re-keys the host in the same call,
//! and [`Host`]'s accounting mutators are crate-private — so outside this
//! crate the typed `Cluster` mutators are the only way to change a host,
//! and no query ever has anything to rebuild or re-sum.
//!
//! # The grid, and the walk each query takes
//!
//! Every order the queries read is a function of two small integers: a
//! host's idle GPUs `I` and its subscribed GPUs `S`. Within a shape class
//! of `G` GPUs, committed is `G − I`, and the SR `S / (G·R)` is monotone in
//! `S`. So the index keeps hosts in dense buckets keyed by those two
//! integers, each bucket an id bitset (`IdSet`):
//!
//! * fleet-wide, `by_idle[I]`: every host;
//! * per shape class, over its hosts: the grid `cell(I, S)`;
//!   `occupied[I]`, the `S` levels whose cell in row `I` is non-empty;
//!   `per_sub[S]`, the count of hosts at level `S`; `subs`, the levels
//!   with a non-zero count; and `by_id` (id → `S`) for the rotation.
//!
//! | query | order | walk |
//! |---|---|---|
//! | least-loaded | `I`↓, `S`↑, id↑ | rows `I` descending; `occupied[I]` ascending; cell ids ascending |
//! | bin-packing | `S`↓, `C`↓, id↓ | `subs` descending; `I` ascending (`C = G − I`); cell ids descending |
//! | best-commit picks | `I`↓, id↓ | `by_idle` rows descending, down to the request's GPUs; ids descending |
//! | SR-cap split | by `S` | first and last of `subs` against the `class_cap` threshold |
//! | `viable_counts` | by `S` | `per_sub` summed over the `subs` above the threshold |
//! | round-robin | id, rotated | `by_id` ranges |
//!
//! A typed mutator snapshots `(I, S)` around the per-host change
//! and moves the host only where its key moved:
//!
//! * `try_commit` / `release` clear one bit and set another in `by_idle`
//!   and in the grid;
//! * `subscribe` / `unsubscribe` move the grid bit and the `per_sub`
//!   count, and rewrite the host's `by_id` value in place;
//! * a failed commit or a 0-GPU request moves nothing;
//! * `add_host` / `remove_host` join or leave everything.
//!
//! Each move is a few word operations, independent of fleet size; an
//! occupancy bit or a `subs` bit flips only when its bucket empties or
//! fills. The grid spans whole `S` rows up to the highest level a host of
//! the class holds: it grows when a subscription reaches a new level, and
//! an unsubscribe or removal that empties the top level drops the rows
//! above the new top (a live gateway's 8 hosts reach thousands of levels at
//! peak, and would otherwise keep every row for the rest of the run). A
//! bitset keeps its capacity up to the highest id it has held, so in steady
//! state a commit, release, subscribe or unsubscribe allocates nothing
//! unless it takes a host to a new top level.
//! `tests::index_equals_rebuild_after_every_typed_mutation` holds the
//! result to a rebuild from the slab after every mutation.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::host::{Host, HostId, OwnerId};
use crate::idset::IdSet;
use crate::resources::{ResourceBundle, ResourceRequest};

/// Placement candidates screened by one shared viability rule (capacity
/// covers the request), split by the dynamic SR cap
/// (§3.4.1). The cap is a *preference*: `over_cap` hosts are still usable
/// as a last resort — "the server is rejected in favor of another" — so
/// every placement policy ranks `within_cap` hosts ahead of `over_cap`
/// hosts and orders *within* each segment by its own criterion.
///
/// The buffers are reusable: [`Cluster::viable_hosts_into`] clears and
/// refills them, so a caller that owns one `Viability` screens every
/// placement without allocating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Viability {
    /// Hosts whose post-placement SR stays at or below the cap, ascending
    /// by host id.
    pub within_cap: Vec<HostId>,
    /// Hosts the SR cap forbids (usable only when nothing better exists),
    /// ascending by host id.
    pub over_cap: Vec<HostId>,
}

impl Viability {
    /// Total viable hosts across both segments.
    pub fn len(&self) -> usize {
        self.within_cap.len() + self.over_cap.len()
    }

    /// Whether no host is viable at all.
    pub fn is_empty(&self) -> bool {
        self.within_cap.is_empty() && self.over_cap.is_empty()
    }

    /// Empties both segments (keeping their capacity for reuse).
    pub fn clear(&mut self) {
        self.within_cap.clear();
        self.over_cap.clear();
    }
}

/// Reusable scratch for the least-loaded ranking
/// ([`Cluster::subscription_candidates_into`]): decorated `(idle GPUs,
/// SR, id)` keys per SR-cap segment, captured in the same pass as the
/// viability screen so ranking performs no per-host lookups at all.
#[derive(Debug, Clone, Default)]
pub struct RankScratch {
    within: Vec<(u32, f64, HostId)>,
    over: Vec<(u32, f64, HostId)>,
}

/// The sort key of one census entry; covers every [`ResourceBundle`]
/// field, so it totally orders shapes.
fn census_key(shape: &ResourceBundle) -> (u32, u64, u64) {
    (shape.gpus, shape.millicpus, shape.memory_mb)
}

/// Per-shape slice of the placement index, over the class's hosts. All
/// hosts in a class share one capacity [`ResourceBundle`],
/// hence one viability verdict per request, one SR denominator and
/// `committed = G − idle` — which is what lets the `(idle, subscribed)`
/// grid carry every order the queries read (module docs). Equality is set
/// equality: the grid and the counts span exactly the levels held
/// ([`ShapeClass::trim`]), and [`IdSet`] compares as a set.
#[derive(Debug, Clone, PartialEq)]
struct ShapeClass {
    shape: ResourceBundle,
    /// `cells[S · (G + 1) + I]`: the hosts with `S` subscribed and `I` idle
    /// GPUs. Grows by whole `S` rows and gives back the rows above the
    /// highest `S` still held ([`ShapeClass::trim`]).
    cells: Vec<IdSet>,
    /// `occupied[I]`: the `S` whose `(I, S)` cell is non-empty; `G + 1`
    /// rows.
    occupied: Vec<IdSet>,
    /// `per_sub[S]`: how many hosts have `S` subscribed GPUs.
    per_sub: Vec<usize>,
    /// The `S` with `per_sub[S] > 0`.
    subs: IdSet,
    /// id → subscribed GPUs: in-order iteration is exactly the
    /// round-robin rotation order within the class, with the subscription
    /// level at hand for the SR-cap check.
    by_id: BTreeMap<HostId, u64>,
}

/// Whether `a` and `b` agree where both are defined and the longer one
/// holds only defaults past the shorter.
fn eq_padded<T: PartialEq + Default>(a: &[T], b: &[T]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    long[..short.len()] == *short && long[short.len()..].iter().all(|x| *x == T::default())
}

impl ShapeClass {
    fn new(shape: ResourceBundle) -> Self {
        ShapeClass {
            shape,
            cells: Vec::new(),
            occupied: vec![IdSet::default(); shape.gpus as usize + 1],
            per_sub: Vec::new(),
            subs: IdSet::default(),
            by_id: BTreeMap::new(),
        }
    }

    /// Hosts in this class.
    fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Where the `(idle, subscribed)` cell sits in `cells`.
    fn slot(&self, idle: usize, subscribed: u64) -> usize {
        subscribed as usize * self.occupied.len() + idle
    }

    /// The hosts with `subscribed` subscribed and `idle` idle GPUs; the
    /// cell must lie in the grid.
    fn cell(&self, idle: usize, subscribed: u64) -> &IdSet {
        &self.cells[self.slot(idle, subscribed)]
    }

    /// Puts `id` in the cell of `key`, growing the grid to its row.
    fn cell_insert(&mut self, key: HostKey, id: HostId) {
        let at = self.slot(key.idle as usize, key.subscribed);
        if at >= self.cells.len() {
            let rows = key.subscribed as usize + 1;
            self.cells
                .resize_with(rows * self.occupied.len(), IdSet::default);
        }
        let cell = &mut self.cells[at];
        if cell.is_empty() {
            self.occupied[key.idle as usize].insert(key.subscribed);
        }
        cell.insert(id);
    }

    /// Takes `id`, indexed under `key`, out of its cell.
    fn cell_remove(&mut self, key: HostKey, id: HostId) {
        let at = self.slot(key.idle as usize, key.subscribed);
        let cell = &mut self.cells[at];
        let present = cell.remove(id);
        debug_assert!(present, "indexed host {id} is in its cell");
        if cell.is_empty() {
            self.occupied[key.idle as usize].remove(key.subscribed);
        }
    }

    /// Counts one more host at `subscribed`.
    fn count_insert(&mut self, subscribed: u64) {
        let s = subscribed as usize;
        if s >= self.per_sub.len() {
            self.per_sub.resize(s + 1, 0);
        }
        self.per_sub[s] += 1;
        if self.per_sub[s] == 1 {
            self.subs.insert(subscribed);
        }
    }

    /// Counts one host fewer at `subscribed`.
    fn count_remove(&mut self, subscribed: u64) {
        let s = subscribed as usize;
        self.per_sub[s] -= 1;
        if self.per_sub[s] == 0 {
            self.subs.remove(subscribed);
        }
    }

    /// Drops the grid rows and counts above the highest subscription level
    /// a host of the class still holds; run once a move is complete, when
    /// no host is indexed above that level.
    fn trim(&mut self) {
        let rows = self.subs.last().map_or(0, |top| top as usize + 1);
        self.per_sub.truncate(rows);
        self.cells.truncate(rows * self.occupied.len());
    }
}

/// Everything about a host the index orders by (its id and shape never
/// change, and within a class committed is capacity minus idle): taken
/// before and after a typed mutation, the two snapshots say whether and
/// where the mutation moved the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HostKey {
    idle: u32,
    subscribed: u64,
}

impl HostKey {
    fn of(h: &Host) -> Self {
        HostKey {
            idle: h.idle_gpus(),
            subscribed: h.subscribed_gpus(),
        }
    }
}

/// The placement index: the id-bitset buckets behind the `rank_*_top` /
/// `best_commit_host*` queries (module docs). Maintained incrementally by
/// the typed cluster mutators (apply → `relink`).
#[derive(Debug, Clone, Default)]
struct HostIndex {
    /// Per-shape structures, ascending by `census_key`.
    classes: Vec<ShapeClass>,
    /// `by_idle[I]`: every host with `I` idle GPUs, which the commit-side
    /// picks (reservation, batch, LCP and migration) walk.
    by_idle: Vec<IdSet>,
}

/// Set equality, as for [`ShapeClass`]: `by_idle` rows above every live
/// host's capacity are empty or absent depending on which hosts once were.
impl PartialEq for HostIndex {
    fn eq(&self, other: &Self) -> bool {
        self.classes == other.classes && eq_padded(&self.by_idle, &other.by_idle)
    }
}

impl HostIndex {
    /// Re-derives every structure from the slab: the reference the
    /// incremental maintenance is compared against.
    #[cfg(test)]
    fn rebuild(&mut self, hosts: &[Host]) {
        self.classes.clear();
        self.by_idle.clear();
        for h in hosts {
            self.link(h);
        }
    }

    /// The classes whose hosts' capacity covers `needed`.
    fn covering<'a>(&'a self, needed: &'a ResourceBundle) -> impl Iterator<Item = &'a ShapeClass> {
        self.classes.iter().filter(move |c| c.shape.covers(needed))
    }

    fn class_position(&self, shape: &ResourceBundle) -> Result<usize, usize> {
        self.classes
            .binary_search_by_key(&census_key(shape), |c| census_key(&c.shape))
    }

    /// The first host `accept` takes in the commit-side picks' order —
    /// most idle GPUs first, then highest id first — among hosts with at
    /// least `min_idle` idle GPUs.
    fn find_most_idle(
        &self,
        min_idle: u32,
        mut accept: impl FnMut(HostId) -> bool,
    ) -> Option<HostId> {
        let rows = self.by_idle.get(min_idle as usize..).unwrap_or_default();
        for row in rows.iter().rev() {
            for id in row.iter_rev() {
                if accept(id) {
                    return Some(id);
                }
            }
        }
        None
    }

    /// Inserts `h` (in its current state) into every structure.
    fn link(&mut self, h: &Host) {
        let (id, key) = (h.id(), HostKey::of(h));
        let rows = h.capacity().gpus as usize + 1;
        if rows > self.by_idle.len() {
            self.by_idle.resize_with(rows, IdSet::default);
        }
        self.by_idle[key.idle as usize].insert(id);
        let shape = h.capacity();
        let slot = match self.class_position(&shape) {
            Ok(i) => i,
            Err(i) => {
                self.classes.insert(i, ShapeClass::new(shape));
                i
            }
        };
        let class = &mut self.classes[slot];
        class.cell_insert(key, id);
        class.count_insert(key.subscribed);
        class.by_id.insert(id, key.subscribed);
    }

    /// Removes `h`, indexed under `key`, from every structure; the exact
    /// inverse of [`HostIndex::link`].
    fn unlink(&mut self, h: &Host, key: HostKey) {
        let id = h.id();
        self.by_idle[key.idle as usize].remove(id);
        let slot = self
            .class_position(&h.capacity())
            .expect("indexed host's shape class exists");
        let class = &mut self.classes[slot];
        class.cell_remove(key, id);
        class.count_remove(key.subscribed);
        class.by_id.remove(&id);
        if class.by_id.is_empty() {
            self.classes.remove(slot);
        } else {
            class.trim();
        }
    }

    /// Moves `h`, indexed under `old`, to its current state, touching only
    /// the buckets whose key changed (see the module docs for which
    /// mutator moves which).
    fn relink(&mut self, h: &Host, old: HostKey) {
        let (id, new) = (h.id(), HostKey::of(h));
        if new == old {
            return;
        }
        if new.idle != old.idle {
            self.by_idle[old.idle as usize].remove(id);
            self.by_idle[new.idle as usize].insert(id);
        }
        let slot = self
            .class_position(&h.capacity())
            .expect("indexed host's shape class exists");
        let class = &mut self.classes[slot];
        class.cell_remove(old, id);
        class.cell_insert(new, id);
        if new.subscribed != old.subscribed {
            class.count_remove(old.subscribed);
            class.count_insert(new.subscribed);
            *class
                .by_id
                .get_mut(&id)
                .expect("indexed host is in its class's rotation") = new.subscribed;
            if new.subscribed < old.subscribed {
                class.trim();
            }
        }
    }
}

/// The subscription ratio a host of `shape` with `subscribed` GPUs
/// reports — [`Host::subscription_ratio`] reproduced bit for bit from the
/// index keys.
fn class_sr(shape: ResourceBundle, replication_factor: u32, subscribed: u64) -> f64 {
    let denom = u64::from(shape.gpus) * u64::from(replication_factor.max(1));
    if denom == 0 {
        return 0.0;
    }
    subscribed as f64 / denom as f64
}

/// Largest subscribed-GPU count that keeps a host of `shape` within
/// `sr_cap` after accepting `request` — the scan path's
/// `post_sr(h) > sr_cap` predicate, which is monotone in `S`, so the
/// within-cap hosts of a class are exactly its levels `S ≤` the threshold.
/// `Some(u64::MAX)` when no subscription level is over the cap (always the
/// case for CPU-only requests, which are exempt), `None` when even `S = 0`
/// is over.
///
/// In O(1): the real-number answer `⌊cap · denom⌋ − g` is off from the
/// float predicate's by at most a few float roundings, so stepping it by
/// one until the predicate flips lands on the exact threshold (one or two
/// steps at the caps a fleet sees; a few thousand at most near `2^64`).
fn class_cap(
    request: &ResourceRequest,
    shape: ResourceBundle,
    replication_factor: u32,
    sr_cap: f64,
) -> Option<u64> {
    if request.gpus == 0 {
        return Some(u64::MAX);
    }
    let denom = (u64::from(shape.gpus.max(1)) * u64::from(replication_factor.max(1))) as f64;
    let g = u128::from(request.gpus);
    // u128 keeps the probe addition overflow-free; for any subscription
    // level a real host can hold the sum fits u64 and the f64 conversion
    // is identical to the scan's.
    let within = |s: u64| ((u128::from(s) + g) as f64) / denom <= sr_cap;
    if !within(0) {
        return None;
    }
    if within(u64::MAX) {
        return Some(u64::MAX);
    }
    // Past the two edges `sr_cap` is finite and the answer lies in
    // `[0, u64::MAX)`; the float-to-int cast saturates at both ends.
    let mut s = ((sr_cap * denom).floor() as u64).saturating_sub(u64::from(request.gpus));
    if within(s) {
        while within(s + 1) {
            s += 1;
        }
    } else {
        while !within(s) {
            s -= 1;
        }
    }
    Some(s)
}

/// How one shape class's members fall against the SR cap for a request:
/// entirely within, entirely over, or genuinely split at a subscribed-GPU
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CapSplit {
    /// Every member's post-placement SR stays at or below the cap.
    AllWithin,
    /// Every member is over the cap.
    AllOver,
    /// Members at or below the threshold are within; the rest are over.
    Mixed(u64),
}

/// Classifies `class` against the [`class_cap`] threshold from its lowest
/// and highest subscribed levels alone — the homogeneous verdicts every
/// same-load fleet hits, which is what keeps the round-robin walk and the
/// viability split flat when *all* hosts are over the cap.
fn cap_split(class: &ShapeClass, cap: Option<u64>) -> CapSplit {
    match cap {
        Some(u64::MAX) => CapSplit::AllWithin,
        None => CapSplit::AllOver,
        Some(t) => match (class.subs.first(), class.subs.last()) {
            (_, Some(max_s)) if max_s <= t => CapSplit::AllWithin,
            (Some(min_s), _) if min_s > t => CapSplit::AllOver,
            _ => CapSplit::Mixed(t),
        },
    }
}

/// The subscribed levels `lo..=hi` on one side of the `cap` split — the
/// over-cap side when `over` — or `None` when the threshold alone leaves
/// that side empty.
fn cap_side(cap: Option<u64>, over: bool) -> Option<(u64, u64)> {
    match (cap, over) {
        (None, false) | (Some(u64::MAX), true) => None,
        (Some(t), false) => Some((0, t)),
        (Some(t), true) => Some((t + 1, u64::MAX)),
        (None, true) => Some((0, u64::MAX)),
    }
}

/// Appends up to `take` host ids from `class` in ascending-id order over
/// `range` (one rotation phase), keeping only hosts on the requested side
/// of the cap split. Homogeneous classes answer in O(log + take); only a
/// genuinely `Mixed` class walks members past the threshold check.
fn gather_round_robin(
    class: &ShapeClass,
    split: CapSplit,
    over: bool,
    range: (Bound<HostId>, Bound<HostId>),
    take: usize,
    out: &mut Vec<HostId>,
) {
    match (split, over) {
        (CapSplit::AllWithin, true) | (CapSplit::AllOver, false) => {}
        (CapSplit::AllWithin, false) | (CapSplit::AllOver, true) => {
            out.extend(class.by_id.range(range).map(|(&id, _)| id).take(take));
        }
        (CapSplit::Mixed(t), _) => out.extend(
            class
                .by_id
                .range(range)
                .filter(|&(_, &s)| (s > t) == over)
                .map(|(&id, _)| id)
                .take(take),
        ),
    }
}

/// Appends up to `take` (≥ 1) least-loaded keys `(idle, SR, id)` from one
/// shape class, in that order — the `over` flag selects the over-cap side
/// of the `cap` split.
fn gather_least_loaded(
    class: &ShapeClass,
    cap: Option<u64>,
    over: bool,
    replication_factor: u32,
    take: usize,
    out: &mut Vec<(u32, f64, HostId)>,
) {
    let Some((lo, hi)) = cap_side(cap, over) else {
        return;
    };
    let start = out.len();
    for (idle, levels) in class.occupied.iter().enumerate().rev() {
        for s in levels.iter_from(lo).take_while(|&s| s <= hi) {
            let sr = class_sr(class.shape, replication_factor, s);
            for id in class.cell(idle, s).iter() {
                out.push((idle as u32, sr, id));
                if out.len() - start >= take {
                    return;
                }
            }
        }
    }
}

/// Appends up to `take` (≥ 1) bin-packing keys `(S, C, id)` — descending —
/// from one shape class; `over` selects the over-cap side of the `cap`
/// split.
fn gather_bin_packing(
    class: &ShapeClass,
    cap: Option<u64>,
    over: bool,
    take: usize,
    out: &mut Vec<(u64, u64, HostId)>,
) {
    let Some((lo, hi)) = cap_side(cap, over) else {
        return;
    };
    let start = out.len();
    let gpus = u64::from(class.shape.gpus);
    for s in class.subs.iter_rev_through(hi).take_while(|&s| s >= lo) {
        // Committed descending is idle ascending.
        for idle in 0..class.occupied.len() {
            for id in class.cell(idle, s).iter_rev() {
                out.push((s, gpus - idle as u64, id));
                if out.len() - start >= take {
                    return;
                }
            }
        }
    }
}

/// The exact comparator [`Cluster::subscription_candidates_into`] sorts
/// with: most idle GPUs first, then lowest SR, then lowest id.
fn least_loaded_first(keyed: &mut [(u32, f64, HostId)]) {
    keyed.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then(a.1.partial_cmp(&b.1).expect("SR is finite"))
            .then(a.2.cmp(&b.2))
    });
}

/// `Cluster::position`'s entry for an id whose host was removed.
const REMOVED: u32 = u32::MAX;

/// The fleet of GPU servers.
#[derive(Debug, Clone, Default)]
pub struct Cluster {
    /// Hosts ascending by id (ids grow by one per host and are never
    /// reused).
    hosts: Vec<Host>,
    /// `position[id]`: where host `id` sits in `hosts`, or `REMOVED`; one
    /// entry per id ever issued, so its length is the next id.
    position: Vec<u32>,
    /// Persistent shape census, ascending by
    /// `(gpus, millicpus, memory_mb)`; maintained on add/remove.
    census: Vec<(ResourceBundle, u32)>,
    /// Total GPUs across all hosts (`ΣG`). A host's capacity never
    /// changes after creation, so this is always exact.
    total_gpus: u64,
    /// `ΣS` / `ΣC`, moved by each typed mutator with the per-host change.
    total_subscribed: u64,
    total_committed: u64,
    /// The capacity-bucketed placement index, re-keyed by each typed
    /// mutator with the per-host change.
    index: HostIndex,
}

/// One typed fleet mutation, batch-applied through
/// [`Cluster::apply_batch`]. Each variant routes to the matching typed
/// mutator ([`Cluster::subscribe`], [`Cluster::try_commit`], …), so a
/// batch moves the fleet totals and the placement index exactly as the
/// single calls would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostMutation {
    /// Register a replica subscription ([`Cluster::subscribe`]).
    Subscribe {
        /// Target host.
        host: HostId,
        /// Shape being subscribed.
        request: ResourceRequest,
    },
    /// Remove a replica subscription ([`Cluster::unsubscribe`]).
    Unsubscribe {
        /// Target host.
        host: HostId,
        /// Shape being unsubscribed.
        request: ResourceRequest,
    },
    /// Exclusively bind resources for an executing replica
    /// ([`Cluster::try_commit`]; bound device ids are discarded).
    Commit {
        /// Target host.
        host: HostId,
        /// Committing replica.
        owner: OwnerId,
        /// Shape being bound.
        request: ResourceRequest,
    },
    /// Release an owner's commitment ([`Cluster::release`]).
    Release {
        /// Target host.
        host: HostId,
        /// Releasing replica.
        owner: OwnerId,
    },
}

impl Cluster {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        Cluster::default()
    }

    /// Creates a cluster of `n` identical hosts.
    pub fn with_hosts(n: usize, capacity: ResourceBundle) -> Self {
        let mut c = Cluster::new();
        for _ in 0..n {
            c.add_host(capacity);
        }
        c
    }

    /// Creates a heterogeneous cluster from `(shape, count)` pairs, in
    /// order — e.g. a fleet mixing 8-GPU trainers with smaller 4-GPU
    /// inference boxes. Host ids are assigned in pair order.
    pub fn with_host_mix(mix: &[(ResourceBundle, u32)]) -> Self {
        let mut c = Cluster::new();
        for &(shape, count) in mix {
            for _ in 0..count {
                c.add_host(shape);
            }
        }
        c
    }

    /// Adds a host, returning its id.
    pub fn add_host(&mut self, capacity: ResourceBundle) -> HostId {
        let id = self.position.len() as HostId;
        assert!(self.hosts.len() < REMOVED as usize, "too many hosts");
        self.position.push(self.hosts.len() as u32);
        self.hosts.push(Host::new(id, capacity));
        self.total_gpus += u64::from(capacity.gpus);
        match self
            .census
            .binary_search_by_key(&census_key(&capacity), |(s, _)| census_key(s))
        {
            Ok(i) => self.census[i].1 += 1,
            Err(i) => self.census.insert(i, (capacity, 1)),
        }
        self.index
            .link(self.hosts.last().expect("host just pushed"));
        id
    }

    /// Removes a host (only sensible when it is idle; the autoscaler
    /// retires idle hosts only). Returns the host if it existed.
    pub fn remove_host(&mut self, id: HostId) -> Option<Host> {
        let idx = self.host_position(id)?;
        self.index
            .unlink(&self.hosts[idx], HostKey::of(&self.hosts[idx]));
        let host = self.hosts.remove(idx);
        self.position[id as usize] = REMOVED;
        for later in &self.hosts[idx..] {
            self.position[later.id() as usize] -= 1;
        }
        let shape = host.capacity();
        self.total_gpus -= u64::from(shape.gpus);
        self.total_subscribed -= host.subscribed_gpus();
        self.total_committed -= u64::from(host.committed_gpus());
        let slot = self
            .census
            .binary_search_by_key(&census_key(&shape), |(s, _)| census_key(s))
            .expect("every host's shape is in the census");
        self.census[slot].1 -= 1;
        if self.census[slot].1 == 0 {
            self.census.remove(slot);
        }
        Some(host)
    }

    /// Slab position of host `id`: one table load, whether or not hosts
    /// have been removed (`remove_host` renumbers the hosts it shifts).
    fn host_position(&self, id: HostId) -> Option<usize> {
        let slot = *self.position.get(usize::try_from(id).ok()?)?;
        (slot != REMOVED).then_some(slot as usize)
    }

    /// All hosts, ascending by id.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Shared host lookup.
    pub fn host(&self, id: HostId) -> Option<&Host> {
        self.host_position(id).map(|idx| &self.hosts[idx])
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the cluster has no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    // ------------------------------------------------------------------
    // Typed mutators: the scheduler's hot path. Each applies the per-host
    // change, the fleet-total delta, and the placement-index relink in
    // O(log hosts), keeping every cluster-wide read O(1) and every top-k
    // placement query O(log hosts + k).
    // ------------------------------------------------------------------

    /// `apply` to `self.hosts[idx]`, then move the host in the orderings
    /// whose key the mutation changed. The one place a `&mut Host` is
    /// taken: what keeps the index equal to a rebuild from the slab.
    fn apply_indexed<T>(&mut self, idx: usize, apply: impl FnOnce(&mut Host) -> T) -> T {
        let host = &mut self.hosts[idx];
        let before = HostKey::of(host);
        let result = apply(host);
        self.index.relink(host, before);
        result
    }

    /// Registers a replica subscription on `host`. Returns `false` when
    /// the host does not exist.
    pub fn subscribe(&mut self, host: HostId, request: &ResourceRequest) -> bool {
        let Some(idx) = self.host_position(host) else {
            return false;
        };
        self.apply_indexed(idx, |h| h.subscribe(request));
        self.total_subscribed += u64::from(request.gpus);
        true
    }

    /// Removes a replica subscription from `host`. Returns `false` when
    /// the host does not exist.
    ///
    /// # Panics
    ///
    /// Panics if the host exists but holds no matching subscription —
    /// that is an accounting bug.
    pub fn unsubscribe(&mut self, host: HostId, request: &ResourceRequest) -> bool {
        let Some(idx) = self.host_position(host) else {
            return false;
        };
        self.apply_indexed(idx, |h| h.unsubscribe(request));
        self.total_subscribed -= u64::from(request.gpus);
        true
    }

    /// Exclusively binds `request` on `host` for `owner`, writing the
    /// bound GPU device ids into `devices` (cleared first; the buffer is
    /// reusable across calls). Returns `false` — changing nothing — when
    /// the host does not exist or the commit fails.
    pub fn try_commit(
        &mut self,
        host: HostId,
        owner: OwnerId,
        request: &ResourceRequest,
        devices: &mut Vec<u32>,
    ) -> bool {
        let Some(idx) = self.host_position(host) else {
            return false;
        };
        if self
            .apply_indexed(idx, |h| h.commit_into(owner, request, devices))
            .is_err()
        {
            return false;
        }
        self.total_committed += u64::from(request.gpus);
        true
    }

    /// Releases `owner`'s commitment on `host`, if any. Returns `false`
    /// when the host does not exist or the owner holds no commitment.
    pub fn release(&mut self, host: HostId, owner: OwnerId) -> bool {
        let Some(idx) = self.host_position(host) else {
            return false;
        };
        let Some(freed) = self.apply_indexed(idx, |h| h.release(owner)) else {
            return false;
        };
        self.total_committed -= u64::from(freed.gpus);
        true
    }

    /// Applies a batch of typed mutations in order, returning how many
    /// applied (a mutation naming a missing host, a failing commit, or a
    /// release with no matching commitment is skipped, exactly like its
    /// single-shot form). Equivalent to calling the typed mutators
    /// one-by-one but with one reusable device buffer across the whole
    /// batch — the way bench fixtures build loaded fleets.
    pub fn apply_batch<I>(&mut self, mutations: I) -> usize
    where
        I: IntoIterator<Item = HostMutation>,
    {
        let mut devices = Vec::new();
        let mut applied = 0;
        for mutation in mutations {
            let ok = match mutation {
                HostMutation::Subscribe { host, request } => self.subscribe(host, &request),
                HostMutation::Unsubscribe { host, request } => self.unsubscribe(host, &request),
                HostMutation::Commit {
                    host,
                    owner,
                    request,
                } => self.try_commit(host, owner, &request, &mut devices),
                HostMutation::Release { host, owner } => self.release(host, owner),
            };
            applied += usize::from(ok);
        }
        applied
    }

    // ------------------------------------------------------------------
    // Fleet-wide reads
    // ------------------------------------------------------------------

    /// Total GPUs across all hosts (`ΣG`).
    pub fn total_gpus(&self) -> u64 {
        self.total_gpus
    }

    /// Total subscribed GPUs across all hosts (`ΣS`).
    pub fn total_subscribed_gpus(&self) -> u64 {
        self.total_subscribed
    }

    /// Total GPUs exclusively committed to actively-executing replicas
    /// (`ΣC` in the autoscaler, §3.4.2).
    pub fn total_committed_gpus(&self) -> u64 {
        self.total_committed
    }

    /// The dynamic cluster-wide SR limit `ΣS / (ΣG · R)` (§3.4.1).
    ///
    /// Returns infinity for an empty/GPU-less cluster so that placement
    /// decisions degrade to capacity checks only.
    pub fn sr_limit(&self, replication_factor: u32) -> f64 {
        let denom = self.total_gpus() * u64::from(replication_factor.max(1));
        if denom == 0 {
            return f64::INFINITY;
        }
        self.total_subscribed_gpus() as f64 / denom as f64
    }

    /// Hosts that could host a new replica subscription of `request`,
    /// ranked by §3.4.1's default policy: hosts whose post-placement SR
    /// stays within `sr_cap` come first (most idle GPUs, then lowest SR),
    /// followed by over-cap hosts ordered by ascending SR. The SR cap is a
    /// *preference* — "the server is rejected in favor of another" — so
    /// when demand outruns supply the cluster oversubscribes beyond the cap
    /// (Fig. 10 shows the cluster-wide SR reaching 3.0) while the
    /// auto-scaler catches up.
    ///
    /// `sr_cap` is typically `max(cluster sr_limit, 1.0)` so an empty
    /// cluster can still accept its first kernels.
    ///
    /// This is the full-scan *reference* for
    /// [`Cluster::rank_least_loaded_top`], which serves placements from the
    /// index: the screen and the sort keys are captured in one pass over
    /// the slab into `scratch`, and the ranking is written to `out`
    /// (cleared first).
    pub fn subscription_candidates_into(
        &self,
        request: &ResourceRequest,
        replication_factor: u32,
        sr_cap: f64,
        scratch: &mut RankScratch,
        out: &mut Vec<HostId>,
    ) {
        scratch.within.clear();
        scratch.over.clear();
        out.clear();
        let capacity_needed = ResourceBundle::from_request(request);
        for h in &self.hosts {
            if !h.capacity().covers(&capacity_needed) {
                continue;
            }
            let keyed = (
                h.idle_gpus(),
                h.subscription_ratio(replication_factor),
                h.id(),
            );
            if request.gpus > 0 && post_sr(h, request, replication_factor) > sr_cap {
                scratch.over.push(keyed);
            } else {
                scratch.within.push(keyed);
            }
        }
        least_loaded_first(&mut scratch.within);
        least_loaded_first(&mut scratch.over);
        out.extend(scratch.within.iter().map(|&(_, _, id)| id));
        out.extend(scratch.over.iter().map(|&(_, _, id)| id));
    }

    /// The single viability rule every placement policy shares: hosts whose
    /// *capacity* covers the request, split into those the SR cap allows and those it forbids (§3.4.1). CPU-only
    /// requests never count against the cap. Segments are ascending by
    /// host id; policies order within them. Clears and refills `out`, so a
    /// caller that owns the buffer screens every placement without
    /// allocating.
    pub fn viable_hosts_into(
        &self,
        request: &ResourceRequest,
        replication_factor: u32,
        sr_cap: f64,
        out: &mut Viability,
    ) {
        out.clear();
        let capacity_needed = ResourceBundle::from_request(request);
        for h in &self.hosts {
            if !h.capacity().covers(&capacity_needed) {
                continue;
            }
            if request.gpus > 0 && post_sr(h, request, replication_factor) > sr_cap {
                out.over_cap.push(h.id());
            } else {
                out.within_cap.push(h.id());
            }
        }
        // `hosts` is ascending by id (ids are never reused and grow
        // monotonically), so the segments inherit that order.
    }

    /// The fleet's shape census: distinct host shapes with their counts,
    /// ascending by `(gpus, millicpus, memory_mb)` — the catalog the
    /// platform hands a shape-aware elasticity policy, so "first covering
    /// shape" means "cheapest covering shape". Served from the persistent
    /// census index (maintained on add/remove), not a fleet scan.
    pub fn shape_census(&self) -> Vec<(ResourceBundle, u32)> {
        self.census.clone()
    }

    // ------------------------------------------------------------------
    // Indexed placement queries: sub-linear replacements for the slab
    // scans. Each reproduces its scan counterpart's ordering bit for bit
    // (the golden determinism suite and the index-equivalence proptests
    // pin this), it just stops touching every host per decision.
    // ------------------------------------------------------------------

    /// Number of viable hosts for `request` (capacity covers) —
    /// [`Cluster::viable_hosts_into`]'s `len()` without the scan:
    /// O(shape classes) via the per-class live counts.
    pub fn viable_count(&self, request: &ResourceRequest) -> usize {
        let needed = ResourceBundle::from_request(request);
        self.index.covering(&needed).map(|c| c.len()).sum()
    }

    /// The viability *split* — [`Cluster::viable_hosts_into`]'s segment lengths
    /// `(within_cap, over_cap)` — without materializing the host lists.
    /// Per covering class the `class_cap` threshold against the lowest and
    /// highest subscribed levels resolves homogeneous classes in O(1); only
    /// a class the cap genuinely splits sums its per-level counts above the
    /// threshold, so no host in the slab is ever dereferenced.
    pub fn viable_counts(
        &self,
        request: &ResourceRequest,
        replication_factor: u32,
        sr_cap: f64,
    ) -> (usize, usize) {
        let needed = ResourceBundle::from_request(request);
        let (mut within, mut over) = (0usize, 0usize);
        for class in self.index.covering(&needed) {
            let cap = class_cap(request, class.shape, replication_factor, sr_cap);
            match cap_split(class, cap) {
                CapSplit::AllWithin => within += class.len(),
                CapSplit::AllOver => over += class.len(),
                CapSplit::Mixed(t) => {
                    let o: usize = class
                        .subs
                        .iter_from(t + 1)
                        .map(|s| class.per_sub[s as usize])
                        .sum();
                    over += o;
                    within += class.len() - o;
                }
            }
        }
        (within, over)
    }

    /// The first `limit` hosts of [`Cluster::subscription_candidates_into`]
    /// (the least-loaded ranking) without scanning the slab, plus the
    /// total viable count as the return value. Within each covering shape
    /// class the grid walk (module docs) *is* the least-loaded order, so
    /// this gathers ≤ `limit` candidates per class and merges the handful
    /// with the scan's exact comparator.
    pub fn rank_least_loaded_top(
        &self,
        request: &ResourceRequest,
        replication_factor: u32,
        sr_cap: f64,
        limit: usize,
        scratch: &mut RankScratch,
        out: &mut Vec<HostId>,
    ) -> usize {
        scratch.within.clear();
        scratch.over.clear();
        out.clear();
        let needed = ResourceBundle::from_request(request);
        let covering = || self.index.covering(&needed);
        let total: usize = covering().map(|c| c.len()).sum();
        if limit == 0 || total == 0 {
            return total;
        }
        for class in covering() {
            let cap = class_cap(request, class.shape, replication_factor, sr_cap);
            gather_least_loaded(
                class,
                cap,
                false,
                replication_factor,
                limit,
                &mut scratch.within,
            );
        }
        least_loaded_first(&mut scratch.within);
        scratch.within.truncate(limit);
        out.extend(scratch.within.iter().map(|&(_, _, id)| id));
        if out.len() < limit {
            let rest = limit - out.len();
            for class in covering() {
                let cap = class_cap(request, class.shape, replication_factor, sr_cap);
                gather_least_loaded(
                    class,
                    cap,
                    true,
                    replication_factor,
                    rest,
                    &mut scratch.over,
                );
            }
            least_loaded_first(&mut scratch.over);
            scratch.over.truncate(rest);
            out.extend(scratch.over.iter().map(|&(_, _, id)| id));
        }
        total
    }

    /// The first `limit` hosts of the bin-packing ranking (most
    /// subscribed, then most committed, then highest id, within-cap
    /// segment first) without scanning the slab; returns the total viable
    /// count. Same per-class gather-and-merge shape as
    /// [`Cluster::rank_least_loaded_top`].
    pub fn rank_bin_packing_top(
        &self,
        request: &ResourceRequest,
        replication_factor: u32,
        sr_cap: f64,
        limit: usize,
        keyed: &mut Vec<(u64, u64, HostId)>,
        out: &mut Vec<HostId>,
    ) -> usize {
        keyed.clear();
        out.clear();
        let needed = ResourceBundle::from_request(request);
        let covering = || self.index.covering(&needed);
        let total: usize = covering().map(|c| c.len()).sum();
        if limit == 0 || total == 0 {
            return total;
        }
        for class in covering() {
            let cap = class_cap(request, class.shape, replication_factor, sr_cap);
            gather_bin_packing(class, cap, false, limit, keyed);
        }
        keyed.sort_by(|a, b| b.cmp(a));
        keyed.truncate(limit);
        out.extend(keyed.iter().map(|&(_, _, id)| id));
        if out.len() < limit {
            let rest = limit - out.len();
            keyed.clear();
            for class in covering() {
                let cap = class_cap(request, class.shape, replication_factor, sr_cap);
                gather_bin_packing(class, cap, true, rest, keyed);
            }
            keyed.sort_by(|a, b| b.cmp(a));
            keyed.truncate(rest);
            out.extend(keyed.iter().map(|&(_, _, id)| id));
        }
        total
    }

    /// The first `limit` hosts of the round-robin ranking (ids rotated
    /// past `last`, within-cap segment first) and the total viable count.
    ///
    /// Served from the per-class rotation-ordered `by_id` maps rather than a
    /// circular slab walk: each rotation phase (ids after `last`, then
    /// the wrap back to `last`) range-scans every covering class in
    /// ascending-id order — which *is* the global rotation order within a
    /// phase — takes at most `limit` qualifying ids per class, and keeps
    /// the smallest across classes. A class whose members are uniformly
    /// over (or under) the SR cap is classified from its extreme subscribed
    /// levels, so the all-over-cap fleet that degraded the slab walk to
    /// O(hosts) now answers in O(classes · (log hosts + limit)). Only a class the cap genuinely splits walks members past
    /// the threshold check.
    // Mirrors the scan-path signature (request/RF/cap/cursor) plus the
    // two caller-owned scratch buffers the allocation-free API requires.
    #[allow(clippy::too_many_arguments)]
    pub fn rank_round_robin_top(
        &self,
        request: &ResourceRequest,
        replication_factor: u32,
        sr_cap: f64,
        last: Option<HostId>,
        limit: usize,
        over_scratch: &mut Vec<HostId>,
        out: &mut Vec<HostId>,
    ) -> usize {
        out.clear();
        over_scratch.clear();
        let needed = ResourceBundle::from_request(request);
        let covering = || self.index.covering(&needed);
        let total: usize = covering().map(|c| c.len()).sum();
        if limit == 0 || total == 0 {
            return total;
        }
        // Rotation phases: ids strictly after `last`, then the wrap back
        // to (and including) `last`. With no cursor the single unbounded
        // phase is the plain ascending order.
        let phases: [Option<(Bound<HostId>, Bound<HostId>)>; 2] = match last {
            Some(last) => [
                Some((Bound::Excluded(last), Bound::Unbounded)),
                Some((Bound::Unbounded, Bound::Included(last))),
            ],
            None => [Some((Bound::Unbounded, Bound::Unbounded)), None],
        };
        let fill = |over: bool, want: usize, dest: &mut Vec<HostId>| {
            for phase in phases.iter().flatten() {
                if dest.len() >= want {
                    break;
                }
                let before = dest.len();
                for class in covering() {
                    let cap = class_cap(request, class.shape, replication_factor, sr_cap);
                    gather_round_robin(
                        class,
                        cap_split(class, cap),
                        over,
                        *phase,
                        want - before,
                        dest,
                    );
                }
                // Within a phase every class range is ascending by id, so
                // the globally-first `want` ids are the smallest gathered.
                dest[before..].sort_unstable();
                dest.truncate(want.max(before));
            }
        };
        // Within-cap segment first, then — only if short — the over-cap
        // segment, exactly the scan path's preference order.
        fill(false, limit, out);
        if out.len() < limit {
            let rest = limit - out.len();
            fill(true, rest, over_scratch);
            out.extend(over_scratch.iter());
        }
        total
    }

    /// The host the commit-side baseline scans pick: maximum
    /// `(idle GPUs, id)` among hosts that can commit `request` right now.
    /// Served by a reverse walk of the global idle-GPU buckets — a few
    /// word reads when the most-idle host accepts, which is the common
    /// case.
    pub fn best_commit_host(&self, request: &ResourceRequest) -> Option<HostId> {
        self.index.find_most_idle(request.gpus, |id| {
            self.host(id)
                .expect("indexed host exists")
                .can_commit(request)
        })
    }

    /// [`Cluster::best_commit_host`] with the migration target scan's
    /// extra filter: skips everything in `exclude` (the kernel's current
    /// replica hosts).
    pub fn best_commit_host_excluding(
        &self,
        request: &ResourceRequest,
        exclude: &[HostId],
    ) -> Option<HostId> {
        self.index.find_most_idle(request.gpus, |id| {
            if exclude.contains(&id) {
                return false;
            }
            self.host(id)
                .expect("indexed host exists")
                .can_commit(request)
        })
    }

    /// The host the LCP submit scan picks: maximum `(has warm container,
    /// idle GPUs, id)` among hosts that can commit `request`, where
    /// `warm_on` reports a host's warm-container count. The first warm
    /// host on the reverse idle walk wins; otherwise the first host at
    /// all (the plain best-commit choice).
    pub fn best_warm_commit_host(
        &self,
        request: &ResourceRequest,
        warm_on: impl Fn(HostId) -> u32,
    ) -> Option<HostId> {
        let mut cold_best = None;
        let warm = self.index.find_most_idle(request.gpus, |id| {
            if !self
                .host(id)
                .expect("indexed host exists")
                .can_commit(request)
            {
                return false;
            }
            cold_best.get_or_insert(id);
            warm_on(id) > 0
        });
        warm.or(cold_best)
    }
}

/// The SR `host` would have after accepting `request` (§3.4.1).
fn post_sr(h: &Host, request: &ResourceRequest, replication_factor: u32) -> f64 {
    (h.subscribed_gpus() + u64::from(request.gpus)) as f64
        / (u64::from(h.capacity().gpus.max(1)) * u64::from(replication_factor.max(1))) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::CommitError;

    fn gpu_req(gpus: u32) -> ResourceRequest {
        ResourceRequest::new(4000, 16_384, gpus, 16)
    }

    /// The viability screen into a fresh buffer.
    fn viable(c: &Cluster, req: &ResourceRequest, rf: u32, cap: f64) -> Viability {
        let mut out = Viability::default();
        c.viable_hosts_into(req, rf, cap, &mut out);
        out
    }

    /// The full-scan least-loaded ranking into fresh buffers.
    fn candidates(c: &Cluster, req: &ResourceRequest, rf: u32, cap: f64) -> Vec<HostId> {
        let mut out = Vec::new();
        c.subscription_candidates_into(req, rf, cap, &mut RankScratch::default(), &mut out);
        out
    }

    /// `Cluster` holds no interior mutability: a shared reference can cross
    /// threads (what a sharded or locked index needs).
    #[test]
    fn cluster_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Cluster>();
    }

    #[test]
    fn add_and_remove_hosts() {
        let mut c = Cluster::with_hosts(3, ResourceBundle::p3_16xlarge());
        assert_eq!(c.len(), 3);
        assert_eq!(c.total_gpus(), 24);
        let removed = c.remove_host(1).unwrap();
        assert_eq!(removed.id(), 1);
        assert_eq!(c.len(), 2);
        assert!(c.remove_host(99).is_none());
        // Ids are never reused.
        let id = c.add_host(ResourceBundle::p3_16xlarge());
        assert_eq!(id, 3);
    }

    #[test]
    fn totals_track_subscriptions_and_commits() {
        let mut c = Cluster::with_hosts(2, ResourceBundle::p3_16xlarge());
        assert!(c.subscribe(0, &gpu_req(4)));
        assert!(c.subscribe(1, &gpu_req(2)));
        assert_eq!(c.total_subscribed_gpus(), 6);
        assert!(c.try_commit(0, 7, &gpu_req(4), &mut Vec::new()));
        assert_eq!(c.total_committed_gpus(), 4);
        // SR limit: 6 / (16 * 3).
        assert!((c.sr_limit(3) - 6.0 / 48.0).abs() < 1e-9);
    }

    #[test]
    fn typed_mutators_keep_totals_incremental() {
        let mut c = Cluster::with_hosts(2, ResourceBundle::p3_16xlarge());
        assert!(c.subscribe(0, &gpu_req(4)));
        assert!(c.subscribe(1, &gpu_req(2)));
        assert!(!c.subscribe(99, &gpu_req(1)), "missing host refused");
        assert_eq!(c.total_subscribed_gpus(), 6);

        let mut devices = Vec::new();
        assert!(c.try_commit(0, 7, &gpu_req(4), &mut devices));
        assert_eq!(devices, vec![0, 1, 2, 3]);
        assert!(
            !c.try_commit(0, 7, &gpu_req(1), &mut devices),
            "double commit refused"
        );
        assert!(
            !c.try_commit(99, 8, &gpu_req(1), &mut devices),
            "missing host refused"
        );
        assert_eq!(c.total_committed_gpus(), 4);

        assert!(c.release(0, 7));
        assert!(!c.release(0, 7), "second release refused");
        assert!(!c.release(99, 7));
        assert_eq!(c.total_committed_gpus(), 0);

        assert!(c.unsubscribe(0, &gpu_req(4)));
        assert!(!c.unsubscribe(99, &gpu_req(1)));
        assert_eq!(c.total_subscribed_gpus(), 2);
    }

    /// The batch covering every variant (plus skipped mutations).
    fn equivalence_batch() -> Vec<HostMutation> {
        vec![
            HostMutation::Subscribe {
                host: 0,
                request: gpu_req(4),
            },
            HostMutation::Subscribe {
                host: 1,
                request: gpu_req(2),
            },
            HostMutation::Subscribe {
                host: 2,
                request: gpu_req(1),
            },
            HostMutation::Commit {
                host: 0,
                owner: 7,
                request: gpu_req(4),
            },
            HostMutation::Commit {
                host: 1,
                owner: 8,
                request: gpu_req(2),
            },
            HostMutation::Unsubscribe {
                host: 2,
                request: gpu_req(1),
            },
            HostMutation::Release { host: 1, owner: 8 },
            // Skipped: missing host, double commit, release w/o commitment.
            HostMutation::Subscribe {
                host: 99,
                request: gpu_req(1),
            },
            HostMutation::Commit {
                host: 0,
                owner: 7,
                request: gpu_req(1),
            },
            HostMutation::Release { host: 2, owner: 42 },
        ]
    }

    /// One `equivalence_batch()` three ways: through `apply_batch`, through
    /// the single-shot mutators, and onto a bare `Vec<Host>` through
    /// `Host`'s own methods, which no index and no total watches.
    #[test]
    fn apply_batch_matches_one_at_a_time_typed_mutators_and_a_bare_slab() {
        let shape = ResourceBundle::p3_16xlarge();
        let mut batched = Cluster::with_hosts(4, shape);
        let applied = batched.apply_batch(equivalence_batch());
        assert_eq!(applied, 7, "three mutations are skipped");

        let mut single = Cluster::with_hosts(4, shape);
        let mut devices = Vec::new();
        assert!(single.subscribe(0, &gpu_req(4)));
        assert!(single.subscribe(1, &gpu_req(2)));
        assert!(single.subscribe(2, &gpu_req(1)));
        assert!(single.try_commit(0, 7, &gpu_req(4), &mut devices));
        assert!(single.try_commit(1, 8, &gpu_req(2), &mut devices));
        assert!(single.unsubscribe(2, &gpu_req(1)));
        assert!(single.release(1, 8));
        assert!(!single.subscribe(99, &gpu_req(1)));
        assert!(!single.try_commit(0, 7, &gpu_req(1), &mut devices));
        assert!(!single.release(2, 42));

        let mut slab: Vec<Host> = (0..4).map(|id| Host::new(id, shape)).collect();
        slab[0].subscribe(&gpu_req(4));
        slab[1].subscribe(&gpu_req(2));
        slab[2].subscribe(&gpu_req(1));
        slab[0].commit(7, &gpu_req(4)).unwrap();
        slab[1].commit(8, &gpu_req(2)).unwrap();
        slab[2].unsubscribe(&gpu_req(1));
        assert!(slab[1].release(8).is_some());
        assert_eq!(
            slab[0].commit(7, &gpu_req(1)),
            Err(CommitError::AlreadyCommitted(7))
        );
        assert!(!slab[2].has_commitment(42));

        // Identical per-host accounting and fleet totals…
        for c in [&batched, &single] {
            for (h, r) in c.hosts().iter().zip(&slab) {
                assert_eq!(h.id(), r.id());
                assert_eq!(h.subscribed_gpus(), r.subscribed_gpus(), "host {}", h.id());
                assert_eq!(h.committed_gpus(), r.committed_gpus(), "host {}", h.id());
            }
            assert_eq!(
                c.total_subscribed_gpus(),
                slab.iter().map(Host::subscribed_gpus).sum::<u64>()
            );
            assert_eq!(
                c.total_committed_gpus(),
                slab.iter()
                    .map(|h| u64::from(h.committed_gpus()))
                    .sum::<u64>()
            );
        }

        // …identical placement answers…
        assert_eq!(
            viable(&batched, &gpu_req(2), 3, 1.5),
            viable(&single, &gpu_req(2), 3, 1.5)
        );
        assert_eq!(
            candidates(&batched, &gpu_req(2), 3, 1.5),
            candidates(&single, &gpu_req(2), 3, 1.5)
        );

        // …and the index a rebuild from the bare slab gives.
        let mut rebuilt = HostIndex::default();
        rebuilt.rebuild(&slab);
        assert_eq!(batched.index, rebuilt);
        assert_eq!(single.index, rebuilt);
    }

    #[test]
    fn empty_cluster_sr_limit_is_infinite() {
        let c = Cluster::new();
        assert!(c.sr_limit(3).is_infinite());
    }

    #[test]
    fn candidates_prefer_least_loaded() {
        let mut c = Cluster::with_hosts(3, ResourceBundle::p3_16xlarge());
        // Host 0 busiest, host 2 idle.
        let mut devices = Vec::new();
        assert!(c.try_commit(0, 1, &gpu_req(6), &mut devices));
        assert!(c.try_commit(1, 2, &gpu_req(3), &mut devices));
        let ranked = candidates(&c, &gpu_req(1), 3, 1.0);
        assert_eq!(ranked, vec![2, 1, 0]);
    }

    #[test]
    fn candidates_prefer_hosts_within_sr_cap() {
        let mut c = Cluster::with_hosts(2, ResourceBundle::p3_16xlarge());
        // Host 0 heavily subscribed: S = 24 → SR = 1.0 at R = 3, so another
        // 4-GPU subscription would push it over the cap.
        for _ in 0..6 {
            assert!(c.subscribe(0, &gpu_req(4)));
        }
        let ranked = candidates(&c, &gpu_req(4), 3, 1.0);
        assert_eq!(
            ranked,
            vec![1, 0],
            "saturated host ranked last, not dropped"
        );
        // CPU-only kernels are exempt from the SR ordering.
        let cpu = ResourceRequest::new(1000, 1024, 0, 0);
        assert_eq!(candidates(&c, &cpu, 3, 1.0).len(), 2);
    }

    #[test]
    fn oversized_requests_have_no_candidates() {
        let c = Cluster::with_hosts(2, ResourceBundle::p3_16xlarge());
        let giant = ResourceRequest::new(1000, 1024, 9, 16);
        assert!(candidates(&c, &giant, 3, 10.0).is_empty());
    }

    #[test]
    fn viable_hosts_splits_on_sr_cap() {
        let mut c = Cluster::with_hosts(3, ResourceBundle::p3_16xlarge());
        // Host 0: S = 24 → another 4-GPU subscription exceeds SR 1.0 at R=3.
        for _ in 0..6 {
            assert!(c.subscribe(0, &gpu_req(4)));
        }
        assert!(c.remove_host(2).is_some());
        let v = viable(&c, &gpu_req(4), 3, 1.0);
        assert_eq!(v.within_cap, vec![1]);
        assert_eq!(v.over_cap, vec![0]);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        // CPU-only requests are exempt from the cap.
        let cpu = ResourceRequest::new(1000, 1024, 0, 0);
        let v = viable(&c, &cpu, 3, 1.0);
        assert_eq!(v.within_cap, vec![0, 1]);
        assert!(v.over_cap.is_empty());
        // The scratch form refills (not appends) reused buffers.
        let mut buf = Viability::default();
        c.viable_hosts_into(&gpu_req(4), 3, 1.0, &mut buf);
        let first = buf.clone();
        c.viable_hosts_into(&gpu_req(4), 3, 1.0, &mut buf);
        assert_eq!(buf, first);
    }

    #[test]
    fn heterogeneous_mix_builds_in_order() {
        let small = ResourceBundle::new(32_000, 249_856, 4);
        let c = Cluster::with_host_mix(&[(ResourceBundle::p3_16xlarge(), 2), (small, 3)]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.total_gpus(), 2 * 8 + 3 * 4);
        assert_eq!(c.host(0).unwrap().capacity().gpus, 8);
        assert_eq!(c.host(4).unwrap().capacity().gpus, 4);
    }

    #[test]
    fn shape_census_counts_distinct_shapes() {
        let small = ResourceBundle::new(32_000, 249_856, 4);
        let mut c = Cluster::with_host_mix(&[(ResourceBundle::p3_16xlarge(), 2), (small, 3)]);
        assert_eq!(
            c.shape_census(),
            vec![(small, 3), (ResourceBundle::p3_16xlarge(), 2)],
            "ascending by gpus"
        );
        c.remove_host(0);
        assert_eq!(
            c.shape_census(),
            vec![(small, 3), (ResourceBundle::p3_16xlarge(), 1)]
        );
        c.remove_host(1);
        assert_eq!(
            c.shape_census(),
            vec![(small, 3)],
            "exhausted shapes drop out of the census"
        );
        assert!(Cluster::new().shape_census().is_empty());
    }

    #[test]
    fn idle_host_detection() {
        let mut c = Cluster::with_hosts(2, ResourceBundle::p3_16xlarge());
        assert!(c.subscribe(0, &gpu_req(1)));
        let idle: Vec<HostId> = c
            .hosts()
            .iter()
            .filter(|h| h.is_idle())
            .map(Host::id)
            .collect();
        assert_eq!(idle, vec![1]);
    }

    /// Scan-path reference for [`Cluster::best_commit_host`].
    fn scan_best_commit(c: &Cluster, req: &ResourceRequest) -> Option<HostId> {
        c.hosts()
            .iter()
            .filter(|h| h.can_commit(req))
            .map(|h| (h.idle_gpus(), h.id()))
            .max()
            .map(|(_, id)| id)
    }

    #[test]
    fn indexed_least_loaded_matches_scan_prefix() {
        let small = ResourceBundle::new(32_000, 249_856, 4);
        let mut c = Cluster::with_host_mix(&[(ResourceBundle::p3_16xlarge(), 4), (small, 3)]);
        for i in 0..7u64 {
            for _ in 0..i % 4 {
                assert!(c.subscribe(i, &gpu_req(2)));
            }
        }
        let mut devices = Vec::new();
        assert!(c.try_commit(1, 50, &gpu_req(5), &mut devices));
        assert!(c.try_commit(4, 51, &gpu_req(2), &mut devices));
        assert!(c.remove_host(2).is_some());
        let mut scratch = RankScratch::default();
        let mut top = Vec::new();
        for req_gpus in [0, 1, 4] {
            let req = gpu_req(req_gpus);
            let full = candidates(&c, &req, 3, 1.0);
            for limit in [0, 1, 3, full.len(), full.len() + 2] {
                let total = c.rank_least_loaded_top(&req, 3, 1.0, limit, &mut scratch, &mut top);
                assert_eq!(total, full.len(), "viable total for limit {limit}");
                assert_eq!(
                    top,
                    full[..limit.min(full.len())],
                    "prefix for limit {limit}"
                );
            }
            assert_eq!(c.viable_count(&req), full.len());
        }
    }

    #[test]
    fn indexed_bin_packing_matches_scan_prefix() {
        let mut c = Cluster::with_hosts(6, ResourceBundle::p3_16xlarge());
        for i in 0..6u64 {
            for _ in 0..(6 - i) % 5 {
                assert!(c.subscribe(i, &gpu_req(3)));
            }
        }
        let mut devices = Vec::new();
        assert!(c.try_commit(3, 60, &gpu_req(4), &mut devices));
        let req = gpu_req(2);
        // Scan reference: the policy's (S, C, id)-descending order per
        // SR-cap segment.
        let v = viable(&c, &req, 3, 1.0);
        let keyed = |ids: &[HostId]| {
            let mut k: Vec<_> = ids
                .iter()
                .map(|&id| {
                    let h = c.host(id).unwrap();
                    (h.subscribed_gpus(), u64::from(h.committed_gpus()), id)
                })
                .collect();
            k.sort_by(|a, b| b.cmp(a));
            k.into_iter().map(|(_, _, id)| id).collect::<Vec<_>>()
        };
        let mut full = keyed(&v.within_cap);
        full.extend(keyed(&v.over_cap));
        let mut scratch = Vec::new();
        let mut top = Vec::new();
        for limit in [1, 2, full.len(), full.len() + 1] {
            let total = c.rank_bin_packing_top(&req, 3, 1.0, limit, &mut scratch, &mut top);
            assert_eq!(total, full.len());
            assert_eq!(
                top,
                full[..limit.min(full.len())],
                "prefix for limit {limit}"
            );
        }
    }

    #[test]
    fn indexed_round_robin_rotates_like_the_scan() {
        let mut c = Cluster::with_hosts(5, ResourceBundle::p3_16xlarge());
        assert!(c.remove_host(1).is_some());
        for _ in 0..7 {
            assert!(c.subscribe(3, &gpu_req(4)));
        }
        let req = gpu_req(4);
        // Scan reference: rotate each viability segment past `last`.
        let rotate = |ids: &[HostId], last: Option<HostId>| {
            let pivot = match last {
                Some(l) => ids.partition_point(|&h| h <= l) % ids.len().max(1),
                None => 0,
            };
            let mut r = ids[pivot..].to_vec();
            r.extend(&ids[..pivot]);
            r
        };
        let mut over = Vec::new();
        let mut top = Vec::new();
        for last in [None, Some(0), Some(2), Some(4), Some(9)] {
            let v = viable(&c, &req, 3, 1.0);
            let mut full = rotate(&v.within_cap, last);
            full.extend(rotate(&v.over_cap, last));
            for limit in [1, 2, full.len() + 1] {
                let total = c.rank_round_robin_top(&req, 3, 1.0, last, limit, &mut over, &mut top);
                assert_eq!(total, full.len());
                assert_eq!(
                    top,
                    full[..limit.min(full.len())],
                    "prefix for last {last:?} limit {limit}"
                );
            }
        }
    }

    #[test]
    fn indexed_best_commit_matches_scan_and_tracks_mutation() {
        let mut c = Cluster::with_hosts(4, ResourceBundle::p3_16xlarge());
        let mut devices = Vec::new();
        assert!(c.try_commit(2, 70, &gpu_req(6), &mut devices));
        assert!(c.try_commit(3, 71, &gpu_req(2), &mut devices));
        for req_gpus in [0, 1, 7] {
            let req = gpu_req(req_gpus);
            assert_eq!(c.best_commit_host(&req), scan_best_commit(&c, &req));
        }
        // Release moves host 2 back to the front (highest idle wins, ties
        // break towards the higher id).
        assert!(c.release(2, 70));
        assert_eq!(c.best_commit_host(&gpu_req(1)), Some(2));
        assert!(c.release(3, 71));
        assert_eq!(c.best_commit_host(&gpu_req(1)), Some(3));
        // The exclusion filter (the migration target scan).
        assert_eq!(
            c.best_commit_host_excluding(&gpu_req(1), &[3, 2, 1]),
            Some(0),
            "excluded hosts 3/2/1 skipped"
        );
        // Warm preference (the LCP submit scan): host 1 wins despite host
        // 2 being equally idle with a higher id.
        assert_eq!(
            c.best_warm_commit_host(&gpu_req(1), |id| u32::from(id == 1)),
            Some(1)
        );
        assert_eq!(
            c.best_warm_commit_host(&gpu_req(1), |_| 0),
            c.best_commit_host(&gpu_req(1))
        );
    }

    /// The incremental index after every one of a few thousand seeded
    /// typed mutations — each kind, on live and missing hosts —
    /// is the index a rebuild from the slab gives.
    #[test]
    fn index_equals_rebuild_after_every_typed_mutation() {
        let small = ResourceBundle::new(32_000, 249_856, 4);
        let big = ResourceBundle::p3_16xlarge();
        let mut c = Cluster::with_host_mix(&[(big, 40), (small, 24)]);
        let mut rng = notebookos_des::SimRng::seed(22);
        let mut subscriptions: Vec<(HostId, u32)> = Vec::new();
        let mut commitments: Vec<(HostId, OwnerId)> = Vec::new();
        let mut devices = Vec::new();
        let mut applied = [0u32; 7];
        for step in 0..4000u64 {
            // Mostly live ids, sometimes one that was removed or never was.
            let host = if c.is_empty() || rng.chance(0.05) {
                rng.below(c.position.len() as u64 + 2)
            } else {
                c.hosts[rng.index(c.len())].id()
            };
            let kind = rng.index(applied.len());
            let ok = match kind {
                0 => {
                    let gpus = rng.below(5) as u32;
                    let ok = c.subscribe(host, &gpu_req(gpus));
                    if ok {
                        subscriptions.push((host, gpus));
                    }
                    ok
                }
                1 if !subscriptions.is_empty() => {
                    let (host, gpus) = subscriptions.swap_remove(rng.index(subscriptions.len()));
                    c.unsubscribe(host, &gpu_req(gpus))
                }
                // A commit of 0 to 9 GPUs: some fit, some fail on a full
                // host or a small shape, and a repeated owner is refused.
                2 | 3 => {
                    let owner = if kind == 3 && !commitments.is_empty() {
                        commitments[rng.index(commitments.len())].1
                    } else {
                        step
                    };
                    let gpus = rng.below(10) as u32;
                    let ok = c.try_commit(host, owner, &gpu_req(gpus), &mut devices);
                    if ok {
                        commitments.push((host, owner));
                    }
                    ok
                }
                4 if !commitments.is_empty() => {
                    let (host, owner) = commitments.swap_remove(rng.index(commitments.len()));
                    c.release(host, owner)
                }
                5 => {
                    c.add_host(if rng.chance(0.5) { big } else { small });
                    true
                }
                6 if rng.chance(0.3) => {
                    subscriptions.retain(|&(h, _)| h != host);
                    commitments.retain(|&(h, _)| h != host);
                    c.remove_host(host).is_some()
                }
                _ => false,
            };
            applied[kind] += u32::from(ok);
            let mut rebuilt = HostIndex::default();
            rebuilt.rebuild(&c.hosts);
            assert_eq!(c.index, rebuilt, "step {step}, kind {kind}");
            assert_grid_spans_the_levels_held(&c, step);
        }
        assert!(
            applied.iter().all(|&n| n > 20),
            "every kind ran: {applied:?}"
        );
        assert_eq!(
            c.total_subscribed_gpus(),
            subscriptions
                .iter()
                .map(|&(_, g)| u64::from(g))
                .sum::<u64>()
        );

        // A storm: a few hosts climb hundreds of levels, then everything
        // is unsubscribed in random order; the grid never spans a row
        // above the highest level held.
        let hosts: Vec<HostId> = c.hosts.iter().map(Host::id).take(6).collect();
        for step in 4000..4600u64 {
            let host = hosts[rng.index(hosts.len())];
            let gpus = 1 + rng.below(4) as u32;
            assert!(c.subscribe(host, &gpu_req(gpus)));
            subscriptions.push((host, gpus));
            assert_grid_spans_the_levels_held(&c, step);
        }
        let mut step = 4600;
        while !subscriptions.is_empty() {
            let (host, gpus) = subscriptions.swap_remove(rng.index(subscriptions.len()));
            assert!(c.unsubscribe(host, &gpu_req(gpus)));
            let mut rebuilt = HostIndex::default();
            rebuilt.rebuild(&c.hosts);
            assert_eq!(c.index, rebuilt, "step {step}, unsubscribe");
            assert_grid_spans_the_levels_held(&c, step);
            step += 1;
        }
        for class in &c.index.classes {
            assert_eq!(
                (class.cells.len(), class.per_sub.len()),
                (class.occupied.len(), 1)
            );
        }
    }

    /// Each shape class's grid and counts span at most the levels up to the
    /// highest one a host of the class holds.
    fn assert_grid_spans_the_levels_held(c: &Cluster, step: u64) {
        for class in &c.index.classes {
            let rows = class
                .by_id
                .values()
                .max()
                .map_or(0, |&top| top as usize + 1);
            assert!(
                class.cells.len() <= rows * class.occupied.len() && class.per_sub.len() <= rows,
                "step {step}: {} grid cells and {} counts for levels 0..{rows}",
                class.cells.len(),
                class.per_sub.len()
            );
        }
    }

    /// Index equality is set equality: grid rows, counts, `by_idle` rows
    /// and bitset words that no host holds any more do not count.
    #[test]
    fn index_equality_ignores_buckets_no_host_holds() {
        let mut c = Cluster::with_hosts(2, ResourceBundle::p3_16xlarge());
        let wide = ResourceBundle::new(64_000, 499_712, 16);
        let extra: Vec<HostId> = (0..100).map(|_| c.add_host(wide)).collect();
        for _ in 0..150 {
            assert!(c.subscribe(1, &gpu_req(1)));
        }
        for _ in 0..150 {
            assert!(c.unsubscribe(1, &gpu_req(1)));
        }
        for id in extra {
            assert!(c.remove_host(id).is_some());
        }
        let mut rebuilt = HostIndex::default();
        rebuilt.rebuild(&c.hosts);
        // The grid gave its rows back; `by_idle` keeps the wide hosts' rows.
        assert_eq!(c.index.classes[0].cells, rebuilt.classes[0].cells);
        assert!(c.index.by_idle.len() > rebuilt.by_idle.len());
        assert_eq!(c.index, rebuilt);
        // …while a host in another cell does count.
        let mut devices = Vec::new();
        assert!(c.try_commit(1, 7, &gpu_req(1), &mut devices));
        assert_ne!(c.index, rebuilt);
    }

    #[test]
    fn host_position_agrees_with_the_binary_search() {
        let mut c = Cluster::with_hosts(12, ResourceBundle::p3_16xlarge());
        let check = |c: &Cluster| {
            for id in 0..c.position.len() as HostId + 2 {
                assert_eq!(
                    c.host_position(id),
                    c.hosts.binary_search_by_key(&id, Host::id).ok(),
                    "id {id}"
                );
            }
        };
        check(&c);
        // Front, middle, end; then growth past the hole, then the front
        // again so that the first id itself has moved.
        for id in [0, 5, 6, 11] {
            assert!(c.remove_host(id).is_some());
            check(&c);
        }
        c.add_host(ResourceBundle::p3_16xlarge());
        check(&c);
        assert!(c.remove_host(1).is_some());
        check(&c);
        for id in c.hosts.iter().map(Host::id).collect::<Vec<_>>() {
            assert!(c.remove_host(id).is_some());
            check(&c);
        }
    }

    #[test]
    fn viable_counts_split_matches_materialized_screen() {
        // Every way the split can fall: mixed shapes, a removed host, a
        // CPU-only (cap-exempt) request, classes entirely over the cap,
        // and classes the cap genuinely splits.
        let small = ResourceBundle::new(32_000, 249_856, 4);
        let mut c = Cluster::with_host_mix(&[(ResourceBundle::p3_16xlarge(), 4), (small, 3)]);
        for _ in 0..7 {
            assert!(c.subscribe(0, &gpu_req(4))); // push host 0 over the cap
        }
        for i in 4..7u64 {
            for _ in 0..4 {
                assert!(c.subscribe(i, &gpu_req(4))); // whole small class over
            }
        }
        assert!(c.remove_host(2).is_some());
        for req in [
            ResourceRequest::new(4000, 16_384, 1, 16),
            ResourceRequest::new(4000, 16_384, 4, 16),
            ResourceRequest::new(4000, 16_384, 6, 16), // only the big shape covers
            ResourceRequest::new(1000, 2_048, 0, 0),   // cap-exempt
            ResourceRequest::new(1_000_000, 1, 0, 0),  // nothing covers
        ] {
            let v = viable(&c, &req, 3, 1.0);
            assert_eq!(
                c.viable_counts(&req, 3, 1.0),
                (v.within_cap.len(), v.over_cap.len()),
                "split for {req:?}"
            );
        }
    }

    #[test]
    fn round_robin_worst_cases_match_the_scan_reference() {
        // The degradation case the rotation-ordered BTrees exist for:
        // every host over the SR cap.
        let mut c = Cluster::with_hosts(12, ResourceBundle::p3_16xlarge());
        for i in 0..12u64 {
            for _ in 0..7 {
                assert!(c.subscribe(i, &gpu_req(4)));
            }
        }
        let req = gpu_req(4);
        let rotate = |ids: &[HostId], last: Option<HostId>| {
            let pivot = match last {
                Some(l) => ids.partition_point(|&h| h <= l) % ids.len().max(1),
                None => 0,
            };
            let mut r = ids[pivot..].to_vec();
            r.extend(&ids[..pivot]);
            r
        };
        let mut over = Vec::new();
        let mut top = Vec::new();
        for last in [None, Some(9), Some(10), Some(11), Some(99)] {
            let v = viable(&c, &req, 3, 1.0);
            assert!(v.within_cap.is_empty(), "every host is over the cap");
            let full = rotate(&v.over_cap, last);
            for limit in [1, 2, 3, 5] {
                let total = c.rank_round_robin_top(&req, 3, 1.0, last, limit, &mut over, &mut top);
                assert_eq!(total, full.len());
                assert_eq!(
                    top,
                    full[..limit.min(full.len())],
                    "prefix for last {last:?} limit {limit}"
                );
            }
        }
        // Relieve one mid-fleet host's load: a genuinely mixed class (one
        // within-cap member among over-cap ones).
        for _ in 0..7 {
            assert!(c.unsubscribe(5, &gpu_req(4)));
        }
        let v = viable(&c, &req, 3, 1.0);
        assert_eq!(v.within_cap, vec![5]);
        for last in [None, Some(5), Some(11)] {
            let mut full = rotate(&v.within_cap, last);
            full.extend(rotate(&v.over_cap, last));
            let total = c.rank_round_robin_top(&req, 3, 1.0, last, 3, &mut over, &mut top);
            assert_eq!(total, full.len());
            assert_eq!(top, full[..3.min(full.len())], "mixed class, last {last:?}");
        }
    }

    /// The binary search [`class_cap`] replaced: 64 halvings of
    /// `[0, u64::MAX]` on the same `within` predicate.
    fn class_cap_search(
        request: &ResourceRequest,
        shape: ResourceBundle,
        replication_factor: u32,
        sr_cap: f64,
    ) -> Option<u64> {
        if request.gpus == 0 {
            return Some(u64::MAX);
        }
        let denom = (u64::from(shape.gpus.max(1)) * u64::from(replication_factor.max(1))) as f64;
        let g = u128::from(request.gpus);
        let within = |s: u64| ((u128::from(s) + g) as f64) / denom <= sr_cap;
        if !within(0) {
            return None;
        }
        if within(u64::MAX) {
            return Some(u64::MAX);
        }
        let (mut lo, mut hi) = (0u64, u64::MAX); // invariant: within(lo), !within(hi)
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if within(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    #[test]
    fn class_cap_equals_the_binary_search() {
        let one = 1.0f64;
        let mut caps = vec![
            1.0,
            f64::from_bits(one.to_bits() + 1),
            f64::from_bits(one.to_bits() - 1),
            2.999_999_999_999_999_6,
            3.0,
            0.0,
            -1.0,
            1e-300,
            4.5e15,
            1e17,
            1.8e19,
            1e30,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        let mut rng = notebookos_des::SimRng::seed(26);
        for _ in 0..200 {
            caps.push(rng.below(4_000) as f64 / 1_000.0);
        }
        let mut checked = 0;
        for &cap in &caps {
            for req_gpus in 0..=9 {
                for shape_gpus in 1..=8 {
                    for rf in 1..=5 {
                        let req = gpu_req(req_gpus);
                        let shape = ResourceBundle::new(64_000, 499_712, shape_gpus);
                        assert_eq!(
                            class_cap(&req, shape, rf, cap),
                            class_cap_search(&req, shape, rf, cap),
                            "cap {cap:e}, request {req_gpus}, shape {shape_gpus}, R {rf}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, caps.len() * 10 * 8 * 5);
    }

    #[test]
    fn oversized_commit_still_errors_through_the_host() {
        let mut c = Cluster::with_hosts(1, ResourceBundle::p3_16xlarge());
        let err = c.hosts[0].clone().commit(1, &gpu_req(99)).unwrap_err();
        assert!(matches!(err, CommitError::Insufficient { .. }));
        let mut devices = vec![7u32];
        assert!(!c.try_commit(0, 1, &gpu_req(99), &mut devices));
        assert!(devices.is_empty(), "failed commit clears the scratch");
    }
}
