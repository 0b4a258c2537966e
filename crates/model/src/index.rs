//! Incrementally maintained acceleration structures for the Algorithm-1
//! seed scan.
//!
//! The paper's online heuristic (§IV-A) repeatedly asks four questions
//! about the remaining matrix `L`:
//!
//! 1. how much can node `i` provide in total (`Σ_j L_ij`)?
//! 2. how much does rack `r` hold of each type (`Σ_{i∈r} L_ij`)?
//! 3. how much can the best member of rack `r` hold of each type
//!    (`max_{i∈r} L_ij`)?
//! 4. which rack members currently provide the most?
//!
//! Recomputing these inside the per-seed sort comparators makes the scan
//! `O(n²m log n)` per request. [`PlacementIndex`] keeps all four answers
//! up to date as [`ClusterState::allocate`](crate::ClusterState::allocate)
//! and [`ClusterState::release`](crate::ClusterState::release) run, so the
//! scan reads them in `O(1)` and can rule out a whole rack — for the
//! single-node fast path, or for the admissible lower bound — from its
//! per-type maxima alone. It also caches two static per-rack facts about
//! the distance tiers — the cheapest same-rack hop and the cheapest
//! cross-rack hop — which drive that lower bound.

use crate::{ResourceMatrix, SparseMatrix};
use vc_topology::{NodeId, RackId, Topology};

/// Incremental per-node / per-rack aggregates over the remaining matrix
/// `L`, plus static distance minima, maintained by
/// [`ClusterState`](crate::ClusterState).
#[derive(Debug, Clone)]
pub struct PlacementIndex {
    num_types: usize,
    /// Rack index of each node (dense copy so updates avoid the topology).
    node_rack: Vec<usize>,
    /// Per-node free total `Σ_j L_ij`.
    node_free: Vec<u32>,
    /// Per-rack per-type free counts, row-major `racks × m`.
    rack_free: Vec<u32>,
    /// Per-rack per-type maximum over the rack's members, row-major
    /// `racks × m` (zero for an empty rack).
    rack_max: Vec<u32>,
    /// Per-rack members sorted by (free total descending, id ascending).
    rack_candidates: Vec<Vec<NodeId>>,
    /// Cheapest same-rack hop per rack: `d1` when the rack holds two
    /// nodes, else `u32::MAX`. Static: depends only on the topology.
    min_rack_dist: Vec<u32>,
    /// Cheapest hop from a rack's node to a node in another rack: the
    /// smaller of `d2` (another populated rack in the rack's cloud) and
    /// `d3` (any node in another cloud), or `u32::MAX` when there is
    /// neither. Static.
    min_cross_dist: Vec<u32>,
    /// Per-type availability `A_j = Σ_i L_ij`.
    avail: Vec<u32>,
}

impl PlacementIndex {
    /// Build the index from scratch for a remaining matrix.
    pub(crate) fn build(topology: &Topology, remaining: &ResourceMatrix) -> Self {
        let n = topology.num_nodes();
        let m = remaining.num_types();
        let num_racks = topology.num_racks();
        let mut node_rack = vec![0usize; n];
        let mut node_free = vec![0u32; n];
        let mut rack_free = vec![0u32; num_racks * m];
        let mut rack_max = vec![0u32; num_racks * m];
        let mut avail = vec![0u32; m];
        for i in 0..n {
            let node = NodeId::from_index(i);
            let rack = topology.rack_of(node).index();
            node_rack[i] = rack;
            let row = remaining.row(node);
            for (j, &v) in row.iter().enumerate() {
                node_free[i] = node_free[i].checked_add(v).expect("availability overflow");
                let r = &mut rack_free[rack * m + j];
                *r = r.checked_add(v).expect("availability overflow");
                let top = &mut rack_max[rack * m + j];
                *top = (*top).max(v);
                avail[j] = avail[j].checked_add(v).expect("availability overflow");
            }
        }
        // Distances are tiers, so the minima follow from counts: per cloud,
        // its nodes and its racks that hold any node.
        let tiers = topology.tiers();
        let racks = topology.racks();
        let num_clouds = racks.iter().map(|r| r.cloud.index() + 1).max().unwrap_or(0);
        let mut cloud_nodes = vec![0usize; num_clouds];
        let mut cloud_racks = vec![0usize; num_clouds];
        for r in racks.iter().filter(|r| !r.nodes.is_empty()) {
            cloud_nodes[r.cloud.index()] += r.nodes.len();
            cloud_racks[r.cloud.index()] += 1;
        }
        let mut min_rack_dist = vec![u32::MAX; num_racks];
        let mut min_cross_dist = vec![u32::MAX; num_racks];
        for (k, rack) in racks.iter().enumerate() {
            let c = rack.cloud.index();
            if rack.nodes.len() > 1 {
                min_rack_dist[k] = tiers.same_rack;
            }
            if cloud_racks[c] > 1 {
                min_cross_dist[k] = tiers.cross_rack;
            }
            if cloud_nodes[c] < n {
                min_cross_dist[k] = min_cross_dist[k].min(tiers.cross_cloud);
            }
        }
        let mut rack_candidates: Vec<Vec<NodeId>> = racks.iter().map(|r| r.nodes.clone()).collect();
        for members in &mut rack_candidates {
            members.sort_by_key(|&i| (std::cmp::Reverse(node_free[i.index()]), i));
        }
        Self {
            num_types: m,
            node_rack,
            node_free,
            rack_free,
            rack_max,
            rack_candidates,
            min_rack_dist,
            min_cross_dist,
            avail,
        }
    }

    /// Per-type free counts for one rack (`m` entries).
    #[inline]
    pub fn rack_free(&self, rack: RackId) -> &[u32] {
        let m = self.num_types;
        &self.rack_free[rack.index() * m..(rack.index() + 1) * m]
    }

    /// Per-type maximum free count over one rack's members (`m`
    /// entries). No member holds more of any type; a member covers a
    /// demand only if this row does.
    #[inline]
    pub fn rack_max(&self, rack: RackId) -> &[u32] {
        let m = self.num_types;
        &self.rack_max[rack.index() * m..(rack.index() + 1) * m]
    }

    /// Free total `Σ_j L_ij` of one node.
    #[inline]
    pub fn node_free(&self, node: NodeId) -> u32 {
        self.node_free[node.index()]
    }

    /// Rack members ordered by (free total descending, id ascending).
    ///
    /// This is exactly the paper's `rackList` order when the outstanding
    /// request dominates every member's free counts, because then
    /// `providable(i) = Σ_j L_ij`.
    #[inline]
    pub fn rack_candidates(&self, rack: RackId) -> &[NodeId] {
        &self.rack_candidates[rack.index()]
    }

    /// Cheapest same-rack hop from `node`, or `None` if it has no rack
    /// peer.
    #[inline]
    pub fn min_same_rack_distance(&self, node: NodeId) -> Option<u32> {
        self.rack_min_same_distance(RackId::from_index(self.node_rack[node.index()]))
    }

    /// Cheapest cross-rack hop from `node`, or `None` if every other node
    /// shares its rack.
    #[inline]
    pub fn min_cross_rack_distance(&self, node: NodeId) -> Option<u32> {
        self.rack_min_cross_distance(RackId::from_index(self.node_rack[node.index()]))
    }

    /// [`min_same_rack_distance`](Self::min_same_rack_distance) of every
    /// member of `rack`.
    #[inline]
    pub fn rack_min_same_distance(&self, rack: RackId) -> Option<u32> {
        let d = self.min_rack_dist[rack.index()];
        (d != u32::MAX).then_some(d)
    }

    /// [`min_cross_rack_distance`](Self::min_cross_rack_distance) of every
    /// member of `rack`.
    #[inline]
    pub fn rack_min_cross_distance(&self, rack: RackId) -> Option<u32> {
        let d = self.min_cross_dist[rack.index()];
        (d != u32::MAX).then_some(d)
    }

    /// Per-type availability vector `A` (`A_j = Σ_i L_ij`).
    #[inline]
    pub(crate) fn availability(&self) -> &[u32] {
        &self.avail
    }

    /// Fold an allocation delta into the aggregates. `allocate == true`
    /// subtracts the delta from the free counts, `false` adds it back;
    /// `remaining` is the matrix with the delta already applied. Costs
    /// `O(entries)` plus, per touched rack, one pass over its members.
    ///
    /// The caller (`ClusterState`) has already validated the delta against
    /// the remaining matrix, so the arithmetic here cannot under/overflow.
    pub(crate) fn record_delta(
        &mut self,
        delta: &SparseMatrix,
        allocate: bool,
        remaining: &ResourceMatrix,
    ) {
        let m = self.num_types;
        let mut dirty_racks: Vec<usize> = Vec::new();
        for (node, ty, count) in delta.entries() {
            let i = node.index();
            let rack = self.node_rack[i];
            let slots = [
                &mut self.node_free[i],
                &mut self.rack_free[rack * m + ty.index()],
                &mut self.avail[ty.index()],
            ];
            for slot in slots {
                *slot = if allocate {
                    slot.checked_sub(count).expect("index underflow")
                } else {
                    slot.checked_add(count).expect("index overflow")
                };
            }
            if !dirty_racks.contains(&rack) {
                dirty_racks.push(rack);
            }
        }
        for rack in dirty_racks {
            self.refresh_rack(rack, remaining);
        }
    }

    /// Replace one node's remaining row (`old` → `new`), e.g. on node
    /// failure or restoration; `remaining` already holds `new`. Distance
    /// minima are static and untouched.
    pub(crate) fn replace_row(
        &mut self,
        node: NodeId,
        old: &[u32],
        new: &[u32],
        remaining: &ResourceMatrix,
    ) {
        let i = node.index();
        let rack = self.node_rack[i];
        let m = self.num_types;
        for j in 0..m {
            let (o, v) = (old[j], new[j]);
            self.node_free[i] = self.node_free[i] - o + v;
            self.rack_free[rack * m + j] = self.rack_free[rack * m + j] - o + v;
            self.avail[j] = self.avail[j] - o + v;
        }
        self.refresh_rack(rack, remaining);
    }

    /// Re-sort one rack's candidates and recompute its per-type maxima.
    fn refresh_rack(&mut self, rack: usize, remaining: &ResourceMatrix) {
        let free = &self.node_free;
        let members = &mut self.rack_candidates[rack];
        members.sort_by_key(|&i| (std::cmp::Reverse(free[i.index()]), i));
        let m = self.num_types;
        let top = &mut self.rack_max[rack * m..(rack + 1) * m];
        top.fill(0);
        for &node in members.iter() {
            for (t, &v) in top.iter_mut().zip(remaining.row(node)) {
                *t = (*t).max(v);
            }
        }
    }

    /// Non-panicking consistency audit for the health watchdog: recompute
    /// the free-capacity aggregates straight from the remaining matrix
    /// (O(nodes × types), no index rebuild, no distance recomputation)
    /// and describe every aggregate that drifted. Empty means consistent.
    pub fn check_consistent(&self, remaining: &ResourceMatrix) -> Vec<String> {
        let m = self.num_types;
        let mut node_free = vec![0u32; self.node_free.len()];
        let mut rack_free = vec![0u32; self.rack_free.len()];
        let mut rack_max = vec![0u32; self.rack_max.len()];
        let mut avail = vec![0u32; m];
        for (node, ty, count) in remaining.entries() {
            let i = node.index();
            let cell = self.node_rack[i] * m + ty.index();
            node_free[i] += count;
            rack_free[cell] += count;
            rack_max[cell] = rack_max[cell].max(count);
            avail[ty.index()] += count;
        }
        let mut violations = Vec::new();
        let mut diff = |label: &str, got: &[u32], want: &[u32]| {
            if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
                violations.push(format!(
                    "{label}[{i}] drifted: index has {}, matrix says {}",
                    got[i], want[i]
                ));
            }
        };
        diff("node_free", &self.node_free, &node_free);
        diff("rack_free", &self.rack_free, &rack_free);
        diff("rack_max", &self.rack_max, &rack_max);
        diff("avail", &self.avail, &avail);
        violations
    }

    /// Panic unless every aggregate matches a from-scratch recomputation.
    /// Test support for the incremental-maintenance invariants.
    #[cfg(test)]
    pub(crate) fn assert_consistent(&self, topology: &Topology, remaining: &ResourceMatrix) {
        let fresh = Self::build(topology, remaining);
        assert_eq!(self.node_free, fresh.node_free, "node_free drifted");
        assert_eq!(self.rack_free, fresh.rack_free, "rack_free drifted");
        assert_eq!(self.rack_max, fresh.rack_max, "rack_max drifted");
        assert_eq!(self.avail, fresh.avail, "availability drifted");
        assert_eq!(
            self.rack_candidates, fresh.rack_candidates,
            "candidate order drifted"
        );
        assert_eq!(self.min_rack_dist, fresh.min_rack_dist);
        assert_eq!(self.min_cross_dist, fresh.min_cross_dist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_topology::{generate, DistanceTiers};

    fn topo() -> Topology {
        generate::uniform(2, 3, DistanceTiers::default())
    }

    fn remaining() -> ResourceMatrix {
        ResourceMatrix::from_rows(&[
            vec![2, 0, 1],
            vec![0, 3, 0],
            vec![1, 1, 1],
            vec![0, 0, 0],
            vec![4, 0, 0],
            vec![1, 2, 0],
        ])
    }

    #[test]
    #[should_panic(expected = "availability overflow")]
    fn build_panics_when_a_node_total_overflows() {
        // One node, three types: each per-type total fits in u32, but the
        // node's total (3 × 1431655766) does not.
        let t = generate::uniform(1, 1, DistanceTiers::default());
        PlacementIndex::build(&t, &ResourceMatrix::from_rows(&[vec![1_431_655_766; 3]]));
    }

    #[test]
    fn build_aggregates_match_matrix() {
        let t = topo();
        let l = remaining();
        let idx = PlacementIndex::build(&t, &l);
        assert_eq!(idx.node_free[0], 3);
        assert_eq!(idx.node_free[3], 0);
        assert_eq!(idx.rack_free(RackId(0)), &[3, 4, 2]);
        assert_eq!(idx.rack_free(RackId(1)), &[5, 2, 0]);
        assert_eq!(idx.rack_max(RackId(0)), &[2, 3, 1]);
        assert_eq!(idx.rack_max(RackId(1)), &[4, 2, 0]);
        assert_eq!(idx.availability(), &[8, 6, 2]);
    }

    #[test]
    fn candidates_sorted_by_free_then_id() {
        let t = topo();
        let idx = PlacementIndex::build(&t, &remaining());
        // rack 0: totals are n0=3, n1=3, n2=3 -> tie broken by id
        assert_eq!(
            idx.rack_candidates(RackId(0)),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        // rack 1: n4=4, n5=3, n3=0
        assert_eq!(
            idx.rack_candidates(RackId(1)),
            &[NodeId(4), NodeId(5), NodeId(3)]
        );
    }

    #[test]
    fn distance_minima() {
        let t = topo();
        let idx = PlacementIndex::build(&t, &remaining());
        let tiers = t.tiers();
        for i in t.node_ids() {
            assert_eq!(idx.min_same_rack_distance(i), Some(tiers.same_rack));
            assert_eq!(idx.min_cross_rack_distance(i), Some(tiers.cross_rack));
        }
    }

    #[test]
    fn single_node_rack_has_no_peer_distance() {
        let t = generate::heterogeneous(&[1, 2], DistanceTiers::default());
        let idx = PlacementIndex::build(&t, &ResourceMatrix::zeros(3, 2));
        assert_eq!(idx.min_same_rack_distance(NodeId(0)), None);
        assert!(idx.min_cross_rack_distance(NodeId(0)).is_some());
    }

    #[test]
    fn record_delta_keeps_aggregates_consistent() {
        let t = topo();
        let mut l = remaining();
        let mut idx = PlacementIndex::build(&t, &l);
        let delta = ResourceMatrix::from_rows(&[
            vec![2, 0, 0],
            vec![0, 1, 0],
            vec![0, 0, 0],
            vec![0, 0, 0],
            vec![3, 0, 0],
            vec![0, 0, 0],
        ]);
        l.checked_sub_assign(&delta);
        idx.record_delta(&SparseMatrix::from(&delta), true, &l);
        idx.assert_consistent(&t, &l);
        // rack 1 order flips: n4 drops to 1, n5 stays at 3
        assert_eq!(
            idx.rack_candidates(RackId(1)),
            &[NodeId(5), NodeId(4), NodeId(3)]
        );
        l.checked_add_assign(&delta);
        idx.record_delta(&SparseMatrix::from(&delta), false, &l);
        idx.assert_consistent(&t, &l);
    }

    #[test]
    fn check_consistent_reports_drift_without_panicking() {
        let t = topo();
        let l = remaining();
        let mut idx = PlacementIndex::build(&t, &l);
        assert!(idx.check_consistent(&l).is_empty());
        // Corrupt one aggregate per family; every drift is reported.
        idx.node_free[2] += 1;
        idx.rack_free[0] += 1;
        idx.rack_max[4] = 0;
        idx.avail[1] = 0;
        let violations = idx.check_consistent(&l);
        assert_eq!(violations.len(), 4, "{violations:?}");
        assert!(violations[0].contains("node_free[2]"), "{violations:?}");
        assert!(violations[1].contains("rack_free[0]"), "{violations:?}");
        assert!(violations[2].contains("rack_max[4]"), "{violations:?}");
        assert!(violations[3].contains("avail[1]"), "{violations:?}");
    }

    #[test]
    fn replace_row_rebuilds_rack_order() {
        let t = topo();
        let mut l = remaining();
        let mut idx = PlacementIndex::build(&t, &l);
        let old = l.row(NodeId(4)).to_vec();
        for (j, v) in [0u32, 0, 0].into_iter().enumerate() {
            l.set(NodeId(4), crate::VmTypeId::from_index(j), v);
        }
        idx.replace_row(NodeId(4), &old, &[0, 0, 0], &l);
        idx.assert_consistent(&t, &l);
        assert_eq!(idx.node_free[4], 0);
    }
}
