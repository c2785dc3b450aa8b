//! Columnar committed-group storage for the wave scheduler.
//!
//! The analyzer used to hold its committed arrival groups as
//! `Vec<DiscreteDist>` — one heap allocation per node, scattered. A
//! [`GroupStore`] instead packs each wave's groups into one contiguous
//! [`EventSlab`] plane, addressed per node by a `(origin, offset, len)`
//! [`SlabDesc`]. Kernel operands read the planes through [`DistView`]s.
//!
//! The aliasing story mirrors the wave schedule: a node's fanins (and
//! every supergate-interior predecessor) were committed in strictly
//! earlier waves, so while a wave evaluates, workers only hold views into
//! *earlier* planes — the current wave's results are still owned by the
//! workers and are appended by the orchestration thread at commit time,
//! when no worker views are outstanding. Within a plane, appends never
//! move existing groups (descriptors are offsets, not pointers), and the
//! memory ladder's mid-run truncation narrows descriptors in place.

use pep_dist::{DiscreteDist, DistView, EventSlab, SlabDesc};

/// Sentinel for "no wave committed this node yet" (its group is empty).
const NO_WAVE: u32 = u32::MAX;

/// Per-node committed arrival groups, packed one [`EventSlab`] per wave.
pub(crate) struct GroupStore {
    /// One plane per wave seen so far; commits go to the last one.
    slabs: Vec<EventSlab>,
    /// `wave_of[node]` = index into `slabs`, or [`NO_WAVE`].
    wave_of: Vec<u32>,
    /// The node's group inside its wave's plane.
    descs: Vec<SlabDesc>,
    /// Recycled plane buffers from [`reset`](GroupStore::reset) /
    /// [`restore`](GroupStore::restore) / compaction.
    spare_planes: Vec<Vec<f64>>,
    /// Plane bytes under descriptors superseded by
    /// [`recommit`](GroupStore::recommit) — dead until a compaction or
    /// restore reclaims their planes.
    dead_bytes: usize,
}

impl GroupStore {
    /// A store for `n` nodes, all initially empty.
    pub fn new(n: usize) -> Self {
        GroupStore {
            slabs: Vec::new(),
            wave_of: vec![NO_WAVE; n],
            descs: vec![SlabDesc::empty(); n],
            spare_planes: Vec::new(),
            dead_bytes: 0,
        }
    }

    /// Opens the next wave's plane; subsequent [`commit`](Self::commit)s
    /// land there. Reuses a recycled plane buffer when one is available.
    pub fn begin_wave(&mut self) {
        let slab = match self.spare_planes.pop() {
            Some(plane) => EventSlab::from_plane(plane),
            None => EventSlab::new(),
        };
        self.slabs.push(slab);
    }

    /// Commits the group of the node at dense index `node` into the
    /// current wave's plane.
    ///
    /// # Panics
    ///
    /// Panics if no wave is open, or if the node was already committed
    /// (the wave schedule evaluates each node exactly once).
    pub fn commit(&mut self, node: usize, g: DistView<'_>) {
        let wi = self.slabs.len().checked_sub(1).expect("no wave open") as u32;
        debug_assert_eq!(self.wave_of[node], NO_WAVE, "double commit");
        let slab = self.slabs.last_mut().expect("no wave open");
        self.descs[node] = slab.push_view(g);
        self.wave_of[node] = wi;
    }

    /// The committed group at node index `node` (empty view if never
    /// committed).
    #[inline]
    pub fn view(&self, node: usize) -> DistView<'_> {
        self.view_with(&self.wave_of, &self.descs, node)
    }

    /// The group at node index `node` under an external placement (the
    /// retained base snapshot; see [`export_with`](Self::export_with)).
    #[inline]
    pub fn view_with(&self, wave_of: &[u32], descs: &[SlabDesc], node: usize) -> DistView<'_> {
        match wave_of[node] {
            NO_WAVE => DistView::empty(),
            wi => self.slabs[wi as usize].view(descs[node]),
        }
    }

    /// Resident event bytes under live descriptors (`len × 8` per node —
    /// the same accounting the memory ladder applied to owned groups).
    pub fn live_bytes(&self) -> usize {
        self.descs.iter().map(|d| d.len * 8).sum()
    }

    /// The memory ladder's re-truncation: drops events below `p_min`
    /// from every committed group and renormalizes, narrowing
    /// descriptors in place — no plane reallocates. Bit-identical to
    /// `truncate_below` + `normalize` on owned groups.
    pub fn truncate_below_all(&mut self, p_min: f64) {
        for li in 0..self.wave_of.len() {
            let wi = self.wave_of[li];
            if wi == NO_WAVE || self.descs[li].len == 0 {
                continue;
            }
            let slab = &mut self.slabs[wi as usize];
            slab.truncate_below(&mut self.descs[li], p_min);
            slab.normalize(self.descs[li]);
        }
    }

    /// Total plane slots across waves (live + truncation dead mass).
    pub fn occupied(&self) -> usize {
        self.slabs.iter().map(EventSlab::occupied).sum()
    }

    /// Plane slots under live descriptors.
    pub fn live(&self) -> usize {
        self.slabs.iter().map(EventSlab::live).sum()
    }

    /// Largest single-wave plane high-water mark.
    pub fn high_water(&self) -> usize {
        self.slabs
            .iter()
            .map(EventSlab::high_water)
            .max()
            .unwrap_or(0)
    }

    /// Materializes the committed groups as owned distributions (the
    /// analyzer's public result type), consuming the store.
    pub fn into_groups(self) -> Vec<DiscreteDist> {
        let n = self.wave_of.len();
        let mut out = Vec::with_capacity(n);
        for li in 0..n {
            out.push(match self.wave_of[li] {
                NO_WAVE => DiscreteDist::empty(),
                wi => self.slabs[wi as usize].view(self.descs[li]).to_dist(),
            });
        }
        out
    }

    /// Empties every plane (keeping buffers for reuse) and forgets all
    /// descriptors, returning the store to its post-`new` state. Reusing
    /// a store across repeated analyses MUST go through this (or
    /// [`retain_for_incremental`](Self::retain_for_incremental)):
    /// without it, the next run's `begin_wave`/`commit` cycle would pile
    /// new planes on top of the previous run's slots and the slab
    /// footprint would grow with every analysis.
    pub fn reset(&mut self) {
        for slab in self.slabs.drain(..) {
            self.spare_planes.push(slab.into_plane());
        }
        self.wave_of.fill(NO_WAVE);
        self.descs.fill(SlabDesc::empty());
        self.dead_bytes = 0;
    }

    /// Compacts every committed group into a single base plane (plane 0)
    /// and recycles all the per-wave planes — the retained-state form
    /// the incremental engine keeps between what-if queries. Dead slots
    /// left by truncation are squeezed out; descriptors are rewritten in
    /// node order.
    pub fn retain_for_incremental(&mut self) {
        let mut base = match self.spare_planes.pop() {
            Some(plane) => EventSlab::from_plane(plane),
            None => EventSlab::new(),
        };
        for li in 0..self.wave_of.len() {
            let wi = self.wave_of[li];
            if wi == NO_WAVE {
                continue;
            }
            self.descs[li] = base.push_view(self.slabs[wi as usize].view(self.descs[li]));
            self.wave_of[li] = 0;
        }
        for slab in self.slabs.drain(..) {
            self.spare_planes.push(slab.into_plane());
        }
        self.slabs.push(base);
        self.dead_bytes = 0;
    }

    /// Commits a node's group into the current plane, superseding any
    /// previous commit (the incremental engine's dirty-node overwrite —
    /// the old slot goes dead until a compaction or restore reclaims
    /// it). On a never-committed node this is exactly
    /// [`commit`](Self::commit).
    ///
    /// # Panics
    ///
    /// Panics if no plane is open.
    pub fn recommit(&mut self, node: usize, g: DistView<'_>) {
        let wi = self.slabs.len().checked_sub(1).expect("no wave open") as u32;
        // A superseded slot in plane 0 is the *base* group — still
        // referenced by the base snapshot for revert, so not dead; only
        // overwritten delta-plane slots are reclaimable.
        if self.wave_of[node] != NO_WAVE && self.wave_of[node] > 0 {
            self.dead_bytes += self.descs[node].len * 8;
        }
        let slab = self.slabs.last_mut().expect("no wave open");
        self.descs[node] = slab.push_view(g);
        self.wave_of[node] = wi;
    }

    /// The per-node placement (plane index and descriptor) of every
    /// committed group — valid for [`restore`](Self::restore) as long as
    /// the planes it references are only appended to, never dropped or
    /// truncated.
    pub fn snapshot(&self) -> (Vec<u32>, Vec<SlabDesc>) {
        (self.wave_of.clone(), self.descs.clone())
    }

    /// Restores a [`snapshot`](Self::snapshot), recycling every plane
    /// past the first `keep_planes` (the incremental engine's O(dirty)
    /// revert: the base snapshot lives entirely in plane 0, so deltas
    /// are undone by restoring descriptors and dropping delta planes).
    pub fn restore(&mut self, wave_of: &[u32], descs: &[SlabDesc], keep_planes: usize) {
        self.wave_of.copy_from_slice(wave_of);
        self.descs.copy_from_slice(descs);
        while self.slabs.len() > keep_planes {
            let slab = self.slabs.pop().expect("len checked");
            self.spare_planes.push(slab.into_plane());
        }
        self.dead_bytes = 0;
    }

    /// Rewrites every group living past the first `keep_planes` planes
    /// into one fresh plane, recycling the old delta planes — bounds the
    /// slab footprint when many what-if deltas stack up without a
    /// revert. Base descriptors (planes `< keep_planes`) stay untouched,
    /// so snapshots of the base remain valid.
    pub fn compact_deltas(&mut self, keep_planes: usize) {
        if self.slabs.len() <= keep_planes {
            return;
        }
        let mut fresh = match self.spare_planes.pop() {
            Some(plane) => EventSlab::from_plane(plane),
            None => EventSlab::new(),
        };
        for li in 0..self.wave_of.len() {
            let wi = self.wave_of[li];
            if wi == NO_WAVE || (wi as usize) < keep_planes {
                continue;
            }
            self.descs[li] = fresh.push_view(self.slabs[wi as usize].view(self.descs[li]));
            self.wave_of[li] = keep_planes as u32;
        }
        while self.slabs.len() > keep_planes {
            let slab = self.slabs.pop().expect("len checked");
            self.spare_planes.push(slab.into_plane());
        }
        self.slabs.push(fresh);
        self.dead_bytes = 0;
    }

    /// Bytes under recommit-superseded descriptors (reclaimable by
    /// [`compact_deltas`](Self::compact_deltas) or
    /// [`restore`](Self::restore)).
    pub fn dead_bytes(&self) -> usize {
        self.dead_bytes
    }

    /// Open planes (the retained base plus any delta planes).
    pub fn plane_count(&self) -> usize {
        self.slabs.len()
    }

    /// Materializes the groups under an external placement (the
    /// retained base snapshot) as owned distributions — `None` for
    /// nodes never committed. Well-defined even while delta planes are
    /// stacked on top, because base planes are append-only. The serve
    /// layer persists this across restarts.
    pub fn export_with(&self, wave_of: &[u32], descs: &[SlabDesc]) -> Vec<Option<DiscreteDist>> {
        (0..wave_of.len())
            .map(|node| {
                (wave_of[node] != NO_WAVE).then(|| self.view_with(wave_of, descs, node).to_dist())
            })
            .collect()
    }

    /// Builds a store in retained-base form — every group committed
    /// into plane 0 in node order, exactly the layout
    /// [`retain_for_incremental`](Self::retain_for_incremental) leaves
    /// behind — from groups previously captured by
    /// [`export_with`](Self::export_with).
    pub fn import_base(groups: &[Option<DiscreteDist>]) -> GroupStore {
        let mut store = GroupStore::new(groups.len());
        store.begin_wave();
        for (node, g) in groups.iter().enumerate() {
            if let Some(g) = g {
                store.commit(node, g.as_view());
            }
        }
        store
    }

    /// Resident heap footprint of the store: plane capacities plus
    /// per-node bookkeeping (the LRU accounting the serve-layer state
    /// cache evicts on).
    pub fn resident_bytes(&self) -> usize {
        let planes: usize = self
            .slabs
            .iter()
            .map(|s| s.capacity() * 8)
            .chain(self.spare_planes.iter().map(|p| p.capacity() * 8))
            .sum();
        planes + self.wave_of.len() * (4 + std::mem::size_of::<SlabDesc>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn commit_and_view_roundtrip() {
        let mut store = GroupStore::new(3);
        let a = DiscreteDist::from_ratios([(0, 1), (2, 1)]);
        store.begin_wave();
        store.commit(0, a.as_view());
        store.begin_wave();
        let b = DiscreteDist::from_ratios([(5, 1)]);
        store.commit(2, b.as_view());
        assert_eq!(store.view(0).to_dist(), a);
        assert_eq!(store.view(2).to_dist(), b);
        assert!(store.view(1).is_empty());
        assert_eq!(store.live_bytes(), (3 + 1) * 8);
        let groups = store.into_groups();
        assert_eq!(groups[0], a);
        assert!(groups[1].is_empty());
        assert_eq!(groups[2], b);
    }

    #[test]
    fn ladder_truncation_matches_owned() {
        let mut store = GroupStore::new(1);
        let mut owned = DiscreteDist::from_pairs([(0, 1e-8), (1, 0.6), (2, 0.4)]);
        store.begin_wave();
        store.commit(0, owned.as_view());
        store.truncate_below_all(1e-6);
        owned.truncate_below(1e-6);
        owned.normalize();
        assert_eq!(store.view(0).to_dist(), owned);
        assert!(store.live() < store.occupied(), "dead mass stays in plane");
    }

    #[test]
    fn retain_recommit_restore_roundtrip() {
        let mut store = GroupStore::new(3);
        let a = DiscreteDist::from_ratios([(0, 1), (2, 1)]);
        let b = DiscreteDist::from_ratios([(5, 1)]);
        store.begin_wave();
        store.commit(0, a.as_view());
        store.begin_wave();
        store.commit(1, b.as_view());
        // Compact the two waves into the single retained base plane.
        store.retain_for_incremental();
        assert_eq!(store.plane_count(), 1);
        assert_eq!(store.view(0).to_dist(), a);
        assert_eq!(store.view(1).to_dist(), b);
        let (base_waves, base_descs) = store.snapshot();

        // A delta run recommits node 1 into a delta plane.
        let c = DiscreteDist::from_ratios([(9, 2), (10, 1)]);
        store.begin_wave();
        store.recommit(1, c.as_view());
        assert_eq!(store.plane_count(), 2);
        assert_eq!(store.view(1).to_dist(), c);
        assert_eq!(store.view(0).to_dist(), a, "clean node replays the base");
        assert_eq!(store.dead_bytes(), 0, "base slots never go dead");

        // Recommitting again kills the first delta slot.
        let d = DiscreteDist::from_ratios([(11, 1)]);
        store.begin_wave();
        store.recommit(1, d.as_view());
        assert_eq!(store.dead_bytes(), c.support_len() * 8);
        store.compact_deltas(1);
        assert_eq!(store.plane_count(), 2);
        assert_eq!(store.dead_bytes(), 0);
        assert_eq!(store.view(1).to_dist(), d);

        // Revert: O(dirty) descriptor restore, delta planes recycled.
        store.restore(&base_waves, &base_descs, 1);
        assert_eq!(store.plane_count(), 1);
        assert_eq!(store.view(0).to_dist(), a);
        assert_eq!(store.view(1).to_dist(), b);
        assert!(store.view(2).is_empty());
        assert!(store.resident_bytes() > 0);
    }

    #[test]
    fn export_import_base_roundtrip() {
        let mut store = GroupStore::new(3);
        let a = DiscreteDist::from_ratios([(0, 1), (2, 1)]);
        let b = DiscreteDist::from_ratios([(5, 1)]);
        store.begin_wave();
        store.commit(0, a.as_view());
        store.begin_wave();
        store.commit(2, b.as_view());
        store.retain_for_incremental();
        let (wave_of, descs) = store.snapshot();

        // Deltas on top must not perturb the exported base.
        store.begin_wave();
        store.recommit(0, DiscreteDist::from_ratios([(9, 1)]).as_view());

        let exported = store.export_with(&wave_of, &descs);
        assert_eq!(exported[0].as_ref(), Some(&a));
        assert!(exported[1].is_none());
        assert_eq!(exported[2].as_ref(), Some(&b));

        let rebuilt = GroupStore::import_base(&exported);
        assert_eq!(rebuilt.plane_count(), 1);
        let (rw, rd) = rebuilt.snapshot();
        assert_eq!(rw, wave_of);
        assert_eq!(rd.len(), descs.len());
        assert_eq!(rebuilt.view(0).to_dist(), a);
        assert!(rebuilt.view(1).is_empty());
        assert_eq!(rebuilt.view(2).to_dist(), b);
    }

    #[test]
    fn reset_recycles_planes() {
        let mut store = GroupStore::new(1);
        store.begin_wave();
        store.commit(
            0,
            DiscreteDist::from_ratios((0..64).map(|t| (t, 1))).as_view(),
        );
        let cap_before = store.slabs[0].capacity();
        store.reset();
        assert!(store.view(0).is_empty());
        store.begin_wave();
        assert!(store.slabs[0].capacity() >= cap_before);
    }
}
