//! VM migration: failure repair and affinity-driven rebalancing.
//!
//! The paper defers dynamic topologies to future work (§VII: "how to
//! compute \[distance\] values when some VMs are down or reconfigured is
//! critical for the VM placement policy") and cites affinity-aware VM
//! *migration* as the complementary mechanism. This module provides both
//! halves:
//!
//! * [`repair`] — after a node failure removed some of a cluster's VMs
//!   (see `ClusterState::fail_node`), re-provision the lost VMs on the
//!   surviving capacity, nearest-to-centre first (Theorem 1), re-centring
//!   if that now yields a shorter cluster;
//! * [`rebalance`] — opportunistically migrate VMs of a live cluster onto
//!   closer nodes when capacity has freed up, bounded by a migration
//!   budget (each move costs a VM copy in practice, so callers cap it).

use crate::distance::{cluster_distance, distance_with_center};
use crate::policy::PlacementError;
use vc_model::{Allocation, ClusterState, SparseMatrix, VmTypeId};
use vc_topology::NodeId;

/// One VM relocation: `count` instances of `vm_type` move `from → to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Move {
    /// The VM type being moved.
    pub vm_type: VmTypeId,
    /// Source node (the failed node for repairs).
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Number of instances.
    pub count: u32,
}

/// Outcome of a repair or rebalance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    /// The moves performed, in application order.
    pub moves: Vec<Move>,
    /// Cluster distance before (measured at the old centre).
    pub distance_before: u64,
    /// Cluster distance after (measured at the new centre).
    pub distance_after: u64,
    /// The cluster's centre after the operation.
    pub center: NodeId,
}

/// Repair `allocation` after node `failed` went down.
///
/// The caller must already have called
/// [`ClusterState::fail_node`](vc_model::ClusterState::fail_node) (so the
/// state no longer counts the lost VMs or the node's capacity). The VMs
/// *this* allocation lost are derived from its own matrix — a failed node
/// may host several tenants, each repaired independently. On success the
/// replacement VMs are committed to `state`, `allocation` is updated
/// (lost VMs removed, replacements added, centre re-optimised), and the
/// report lists the moves.
///
/// Fails with [`PlacementError::Unsatisfiable`] if the surviving capacity
/// cannot host the lost VMs; the allocation then keeps the surviving VMs
/// only (degraded but consistent).
pub fn repair(
    allocation: &mut Allocation,
    failed: NodeId,
    state: &mut ClusterState,
) -> Result<MigrationReport, PlacementError> {
    let distance_before =
        distance_with_center(allocation.matrix(), state.topology(), allocation.center());

    // This allocation's share of the node's losses.
    let lost = allocation.matrix().row_request(failed);
    let lost = &lost;

    // Drop the lost VMs from the allocation's book-keeping.
    for (ty, count) in lost.nonzero() {
        allocation.matrix_mut().sub(failed, ty, count);
    }
    if lost.is_zero() {
        let (d, k) = cluster_distance(allocation.matrix(), state.topology());
        return Ok(MigrationReport {
            moves: vec![],
            distance_before,
            distance_after: d,
            center: k,
        });
    }

    if !state.can_satisfy(lost) {
        return Err(PlacementError::Unsatisfiable {
            request: lost.clone(),
        });
    }

    // Greedy nearest-first fill around the surviving cluster's best centre
    // (Theorem 1), trying every candidate centre like the exact solver.
    let remaining = state.remaining();
    let topo = state.topology();
    let mut best: Option<(u64, Vec<Move>, NodeId)> = None;
    for center in topo.node_ids() {
        let mut trial = allocation.matrix().clone();
        let mut moves = Vec::new();
        let mut feasible = true;
        for (ty, count) in lost.nonzero() {
            let mut need = count;
            for &node in &topo.nodes_by_distance(center) {
                if need == 0 {
                    break;
                }
                let free = remaining.get(node, ty);
                let take = need.min(free);
                if take > 0 {
                    trial.add(node, ty, take);
                    moves.push(Move {
                        vm_type: ty,
                        from: failed,
                        to: node,
                        count: take,
                    });
                    need -= take;
                }
            }
            if need > 0 {
                feasible = false;
                break;
            }
        }
        if !feasible {
            continue;
        }
        let d = distance_with_center(&trial, topo, center);
        if best.as_ref().is_none_or(|(bd, _, _)| d < *bd) {
            best = Some((d, moves, center));
        }
    }
    let (distance_after, moves, center) = best.ok_or_else(|| PlacementError::Unsatisfiable {
        request: lost.clone(),
    })?;

    // Commit: add the replacement VMs to both the allocation and the state.
    let delta = SparseMatrix::from_entries(
        allocation.matrix().num_nodes(),
        allocation.matrix().num_types(),
        moves.iter().map(|m| (m.to, m.vm_type, m.count)),
    );
    for m in &moves {
        allocation.matrix_mut().add(m.to, m.vm_type, m.count);
    }
    state
        .allocate(&Allocation::new(delta, center))
        .expect("repair fill respects remaining capacity");
    allocation.set_center(center);

    Ok(MigrationReport {
        moves,
        distance_before,
        distance_after,
        center,
    })
}

/// Migrate VMs of a live cluster onto strictly closer nodes while free
/// capacity allows, performing at most `max_moves` single-VM moves.
///
/// Each step moves one VM from the occupied node farthest from the centre
/// to the free slot nearest the centre, if that strictly reduces the
/// fixed-centre distance (Theorem 1 guarantees the delta is exactly
/// `D[x][to] − D[x][from]`). The state is updated transactionally per
/// move; the centre is re-optimised at the end.
pub fn rebalance(
    allocation: &mut Allocation,
    state: &mut ClusterState,
    max_moves: u32,
) -> MigrationReport {
    let topo = state.topology_arc();
    let center = allocation.center();
    let distance_before = distance_with_center(allocation.matrix(), &topo, center);
    let mut moves = Vec::new();

    for _ in 0..max_moves {
        let remaining = state.remaining();
        // Candidate: (gain, from, to, ty) with the largest positive gain.
        let mut best: Option<(u32, NodeId, NodeId, VmTypeId)> = None;
        for from in allocation.matrix().occupied_nodes() {
            let d_from = topo.distance(center, from);
            for to in topo.node_ids() {
                let d_to = topo.distance(center, to);
                if d_to >= d_from {
                    continue;
                }
                for j in 0..state.num_types() {
                    let ty = VmTypeId::from_index(j);
                    if allocation.matrix().get(from, ty) > 0 && remaining.get(to, ty) > 0 {
                        let gain = d_from - d_to;
                        if best.is_none_or(|(bg, _, _, _)| gain > bg) {
                            best = Some((gain, from, to, ty));
                        }
                    }
                }
            }
        }
        let Some((_, from, to, ty)) = best else { break };
        // Apply to the state: free `from`, occupy `to`.
        let n = allocation.matrix().num_nodes();
        let m = allocation.matrix().num_types();
        let one = |node| Allocation::new(SparseMatrix::from_entries(n, m, [(node, ty, 1)]), center);
        state
            .release(&one(from))
            .expect("migrating VM exists in the state");
        state.allocate(&one(to)).expect("destination slot was free");
        allocation.matrix_mut().sub(from, ty, 1);
        allocation.matrix_mut().add(to, ty, 1);
        moves.push(Move {
            vm_type: ty,
            from,
            to,
            count: 1,
        });
    }

    let (distance_after, new_center) = cluster_distance(allocation.matrix(), &topo);
    allocation.set_center(new_center);
    MigrationReport {
        moves,
        distance_before,
        distance_after,
        center: new_center,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online;
    use std::sync::Arc;
    use vc_model::{Request, ResourceMatrix, VmCatalog};
    use vc_topology::{generate, DistanceTiers};

    fn state(per_node: u32) -> ClusterState {
        let topo = Arc::new(generate::uniform(2, 3, DistanceTiers::paper_experiment()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        ClusterState::uniform_capacity(topo, cat, per_node)
    }

    #[test]
    fn repair_replaces_lost_vms() {
        let mut s = state(2);
        let req = Request::from_counts(vec![4, 0, 0]);
        let mut alloc = online::place(&req, &s).unwrap();
        s.allocate(&alloc).unwrap();

        let failed = alloc.matrix().occupied_nodes()[0];
        let lost = s.fail_node(failed);
        assert!(!lost.is_zero());
        let report = repair(&mut alloc, failed, &mut s).unwrap();

        assert!(
            alloc.satisfies(&req),
            "repaired cluster serves the full request"
        );
        assert_eq!(alloc.matrix().node_total(failed), 0);
        assert!(!report.moves.is_empty());
        // Every move sourced at the failed node.
        assert!(report.moves.iter().all(|m| m.from == failed));
        // State consistency: releasing everything still works.
        s.release(&alloc).unwrap();
        assert_eq!(s.used().total(), 0);
    }

    #[test]
    fn repair_fails_when_no_capacity() {
        let mut s = state(1);
        // Fill the entire cloud.
        let all = Request::from_counts(vec![6, 6, 6]);
        let mut alloc = online::place(&all, &s).unwrap();
        s.allocate(&alloc).unwrap();
        let failed = vc_topology::NodeId(0);
        let _lost = s.fail_node(failed);
        let err = repair(&mut alloc, failed, &mut s).unwrap_err();
        assert!(matches!(err, PlacementError::Unsatisfiable { .. }));
        // Degraded but consistent: surviving VMs remain tracked.
        assert_eq!(alloc.matrix().node_total(failed), 0);
    }

    #[test]
    fn repair_with_no_losses_is_noop() {
        let mut s = state(2);
        let req = Request::from_counts(vec![2, 0, 0]);
        let mut alloc = online::place(&req, &s).unwrap();
        s.allocate(&alloc).unwrap();
        // Fail an unused node.
        let unused = s
            .topology()
            .node_ids()
            .find(|&n| alloc.matrix().node_total(n) == 0)
            .unwrap();
        let lost = s.fail_node(unused);
        assert!(lost.is_zero());
        let report = repair(&mut alloc, unused, &mut s).unwrap();
        assert!(report.moves.is_empty());
        assert!(alloc.satisfies(&req));
    }

    /// A blocker holding `N1`, `N4`, `N5` forces a 3-VM request to
    /// straddle racks (`N0`, `N2` + one rack-1 node); when the blocker
    /// leaves, the stray VM can migrate into the freed same-rack slot.
    fn churn_scenario() -> (ClusterState, Allocation, Allocation, Request) {
        let mut s = state(1);
        let mut blocker_m = ResourceMatrix::zeros(6, 3);
        for node in [1u32, 4, 5] {
            blocker_m.set(vc_topology::NodeId(node), VmTypeId(0), 1);
        }
        let blocker = Allocation::new(blocker_m, vc_topology::NodeId(1));
        s.allocate(&blocker).unwrap();
        let req = Request::from_counts(vec![3, 0, 0]);
        let tenant = online::place(&req, &s).unwrap();
        s.allocate(&tenant).unwrap();
        (s, blocker, tenant, req)
    }

    #[test]
    fn rebalance_tightens_after_churn() {
        let (mut s, blocker, mut tenant, req) = churn_scenario();
        let before = distance_with_center(tenant.matrix(), s.topology(), tenant.center());
        assert!(
            before > 2,
            "tenant must straddle racks initially (got {before})"
        );

        s.release(&blocker).unwrap();
        let report = rebalance(&mut tenant, &mut s, 16);
        assert!(tenant.satisfies(&req));
        assert_eq!(report.distance_before, before);
        assert!(
            report.distance_after < before,
            "freed same-rack slot must attract the stray VM ({report:?})"
        );
        assert!(!report.moves.is_empty());
        // State still consistent.
        s.release(&tenant).unwrap();
        assert_eq!(s.used().total(), 0);
    }

    #[test]
    fn rebalance_respects_move_budget() {
        let (mut s, blocker, mut tenant, _) = churn_scenario();
        s.release(&blocker).unwrap();
        let report = rebalance(&mut tenant, &mut s, 1);
        assert!(report.moves.len() <= 1);
    }

    #[test]
    fn rebalance_on_optimal_cluster_is_noop() {
        let mut s = state(2);
        let req = Request::from_counts(vec![2, 1, 0]);
        let mut alloc = crate::exact::solve(&req, &s).unwrap();
        s.allocate(&alloc).unwrap();
        let report = rebalance(&mut alloc, &mut s, 8);
        assert_eq!(report.distance_before, report.distance_after);
    }

    #[test]
    fn repair_prefers_nearby_replacements() {
        let mut s = state(1);
        // Cluster of 3 in rack 0 (nodes 0,1,2), fail node 2; node capacity
        // exists in both racks — repair should stay in rack 0 if possible.
        let req = Request::from_counts(vec![3, 0, 0]);
        let mut alloc = online::place(&req, &s).unwrap();
        s.allocate(&alloc).unwrap();
        let failed = alloc.matrix().occupied_nodes()[2];
        let _lost = s.fail_node(failed);
        let report = repair(&mut alloc, failed, &mut s).unwrap();
        // The only spare type-0 slots are cross-rack (rack 0 is full), so
        // distance can only grow; but the report must be exact about it.
        assert_eq!(
            report.distance_after,
            distance_with_center(alloc.matrix(), s.topology(), alloc.center())
        );
        let _ = ResourceMatrix::zeros(1, 1);
    }
}

#[cfg(test)]
mod multi_tenant_tests {
    use super::*;
    use crate::online;
    use std::sync::Arc;
    use vc_model::{Request, VmCatalog};
    use vc_topology::{generate, DistanceTiers, NodeId};

    /// A failed node hosting VMs of *two* tenants: each allocation is
    /// repaired independently against its own losses.
    #[test]
    fn repair_handles_shared_failed_node() {
        let topo = Arc::new(generate::uniform(2, 3, DistanceTiers::paper_experiment()));
        let cat = Arc::new(VmCatalog::ec2_table1());
        let mut s = ClusterState::uniform_capacity(topo, cat, 2);

        let req_a = Request::from_counts(vec![2, 0, 0]);
        let mut a = online::place(&req_a, &s).unwrap();
        s.allocate(&a).unwrap();
        let req_b = Request::from_counts(vec![0, 2, 0]);
        let mut b = online::place(&req_b, &s).unwrap();
        s.allocate(&b).unwrap();
        // Both compact onto node 0 (capacity 2 per type).
        assert!(a.matrix().node_total(NodeId(0)) > 0);
        assert!(b.matrix().node_total(NodeId(0)) > 0);

        let failed = NodeId(0);
        let aggregate = s.fail_node(failed);
        assert_eq!(aggregate.total_vms(), 4, "both tenants lost VMs");

        // Repair each tenant independently — no panic, both made whole.
        repair(&mut a, failed, &mut s).unwrap();
        repair(&mut b, failed, &mut s).unwrap();
        assert!(a.satisfies(&req_a));
        assert!(b.satisfies(&req_b));
        s.release(&a).unwrap();
        s.release(&b).unwrap();
        assert!(s.used().is_zero());
    }
}
