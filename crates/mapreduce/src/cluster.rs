//! The virtual cluster a job runs on: VMs pinned to physical nodes.

use std::sync::Arc;
use vc_model::{Allocation, VmCatalog};
use vc_topology::{NodeId, Topology};

/// Identifier of a VM within one [`VirtualCluster`] (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct VmId(pub u32);

impl VmId {
    /// The raw index.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One provisioned VM.
#[derive(Debug, Clone)]
pub(crate) struct Vm {
    /// Physical node hosting this VM.
    pub node: NodeId,
    /// Concurrent map slots.
    pub map_slots: u32,
    /// Concurrent reduce slots.
    pub reduce_slots: u32,
    /// Per-slot map/reduce processing rate, MB/s.
    pub slot_mb_per_s: f64,
    /// Local disk streaming rate, MB/s.
    pub disk_mb_per_s: f64,
}

/// A materialised virtual cluster: the VM list, the master node, and the
/// physical topology underneath.
#[derive(Debug, Clone)]
pub struct VirtualCluster {
    vms: Vec<Vm>,
    master: NodeId,
    topology: Arc<Topology>,
}

impl VirtualCluster {
    /// Instantiate the VMs of an [`Allocation`]: one [`Vm`] per allocated
    /// instance, with slots and rates taken from the catalogue. The
    /// allocation's central node becomes the master (the paper's
    /// MapReduce clusters are master/slave with the master on the central
    /// node).
    ///
    /// # Panics
    /// Panics if the allocation is empty.
    pub fn from_allocation(
        allocation: &Allocation,
        catalog: &VmCatalog,
        topology: Arc<Topology>,
    ) -> Self {
        let placements = allocation.placements();
        assert!(
            !placements.is_empty(),
            "cannot build a cluster from an empty allocation"
        );
        let vms = placements
            .iter()
            .map(|&(node, ty)| {
                let t = catalog.get(ty);
                Vm {
                    node,
                    map_slots: t.map_slots,
                    reduce_slots: t.reduce_slots,
                    slot_mb_per_s: f64::from(t.cpu_mb_per_s) / f64::from(t.map_slots.max(1)),
                    disk_mb_per_s: f64::from(t.disk_mb_per_s),
                }
            })
            .collect();
        Self {
            vms,
            master: allocation.center(),
            topology,
        }
    }

    /// A homogeneous test cluster: `count` identical VMs on the given
    /// nodes (cycled), 1 map + 1 reduce slot, 25 MB/s CPU, 60 MB/s disk.
    ///
    /// # Panics
    /// Panics if `nodes` is empty or `count == 0`.
    pub fn homogeneous(nodes: &[NodeId], count: usize, topology: Arc<Topology>) -> Self {
        assert!(!nodes.is_empty() && count > 0, "cluster must be non-empty");
        let vms = (0..count)
            .map(|i| Vm {
                node: nodes[i % nodes.len()],
                map_slots: 1,
                reduce_slots: 1,
                slot_mb_per_s: 25.0,
                disk_mb_per_s: 60.0,
            })
            .collect();
        Self {
            vms,
            master: nodes[0],
            topology,
        }
    }

    /// The VMs, in id order.
    #[inline]
    pub(crate) fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// Look up a VM.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub(crate) fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id.index()]
    }

    /// Number of VMs.
    #[inline]
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// Whether the cluster has no VMs (never true after construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    /// The master's physical node (the allocation's central node).
    #[inline]
    pub fn master(&self) -> NodeId {
        self.master
    }

    /// The physical topology.
    #[inline]
    pub(crate) fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Shared handle to the topology.
    #[inline]
    pub(crate) fn topology_arc(&self) -> Arc<Topology> {
        Arc::clone(&self.topology)
    }

    /// Distinct physical nodes hosting VMs, in id order.
    pub(crate) fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.vms.iter().map(|vm| vm.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The paper's **cluster affinity** metric for this cluster: the sum
    /// over VMs of their distance to the master node (distance is `0`
    /// within a node, `d1` within a rack, `d2` across racks — §V-B sets
    /// `0/1/2`).
    pub fn affinity_distance(&self) -> u64 {
        self.vms
            .iter()
            .map(|vm| u64::from(self.topology.distance(vm.node, self.master)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_model::{Request, ResourceMatrix};
    use vc_topology::{generate, DistanceTiers};

    fn topo() -> Arc<Topology> {
        Arc::new(generate::uniform(2, 3, DistanceTiers::paper_experiment()))
    }

    #[test]
    fn from_allocation_expands_vms() {
        let topo = topo();
        let catalog = VmCatalog::ec2_table1();
        let alloc = Allocation::new(
            ResourceMatrix::from_rows(&[
                vec![2, 1, 0],
                vec![0, 0, 1],
                vec![0, 0, 0],
                vec![0, 0, 0],
                vec![0, 0, 0],
                vec![0, 0, 0],
            ]),
            NodeId(0),
        );
        assert!(alloc.satisfies(&Request::from_counts(vec![2, 1, 1])));
        let vc = VirtualCluster::from_allocation(&alloc, &catalog, topo);
        assert_eq!(vc.len(), 4);
        assert_eq!(vc.master(), NodeId(0));
        assert_eq!(vc.nodes(), vec![NodeId(0), NodeId(1)]);
        // small: 1 slot @25; medium: 2 slots @25 each; large: 4 slots.
        assert_eq!(
            vc.vms.iter().map(|v| v.map_slots).sum::<u32>(),
            1 + 1 + 2 + 4
        );
        let large = vc.vms().iter().find(|v| v.map_slots == 4).unwrap();
        assert!((large.slot_mb_per_s - 25.0).abs() < 1e-9);
    }

    #[test]
    fn affinity_distance_matches_tiers() {
        let topo = topo();
        // master on node 0; VMs: 1 on node 0, 1 on node 1 (same rack), 1 on node 3 (cross)
        let vc = VirtualCluster::homogeneous(&[NodeId(0), NodeId(1), NodeId(3)], 3, topo);
        assert_eq!(vc.affinity_distance(), 1 + 2);
    }

    #[test]
    fn homogeneous_cycles_nodes() {
        let vc = VirtualCluster::homogeneous(&[NodeId(0), NodeId(1)], 5, topo());
        assert_eq!(vc.vm(VmId(4)).node, NodeId(0));
        assert_eq!(vc.vms.iter().map(|v| v.reduce_slots).sum::<u32>(), 5);
        assert!(!vc.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_homogeneous_rejected() {
        let _ = VirtualCluster::homogeneous(&[], 1, topo());
    }

    #[test]
    #[should_panic(expected = "empty allocation")]
    fn empty_allocation_rejected() {
        let topo = topo();
        let catalog = VmCatalog::ec2_table1();
        let alloc = Allocation::new(ResourceMatrix::zeros(6, 3), NodeId(0));
        let _ = VirtualCluster::from_allocation(&alloc, &catalog, topo);
    }
}
