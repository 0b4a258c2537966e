//! Locality-aware slot scheduling (Hadoop's FIFO scheduler with locality
//! preference).
//!
//! When a VM frees a map slot, the scheduler hands it the lowest-id
//! pending task whose input is **node-local**, falling back to
//! **rack-local**, then **remote** — the same preference order Hadoop's
//! JobTracker applies on a TaskTracker heartbeat. The paper's Fig. 8
//! hinges on this mechanism: how many tasks end up in each class depends
//! on where the cluster's VMs sit relative to the block replicas.

use crate::cluster::{VirtualCluster, Vm};
use crate::hdfs::{BlockId, HdfsLayout};
use crate::metrics::Locality;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// How map tasks are matched to free slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// Hadoop's behaviour: node-local first, then rack-local, then any
    /// (FIFO within a class).
    #[default]
    LocalityAware,
    /// Strict FIFO: always the lowest-id pending task, blind to where its
    /// data lives. The ablation baseline showing what locality-aware
    /// dispatch buys.
    FifoBlind,
}

/// Pending-map-task pool with locality-aware dispatch.
#[derive(Debug, Clone)]
pub(crate) struct MapScheduler {
    pending: BTreeSet<u32>,
}

impl MapScheduler {
    /// All `num_maps` tasks pending.
    pub(crate) fn new(num_maps: u32) -> Self {
        Self {
            pending: (0..num_maps).collect(),
        }
    }

    /// Whether every task has been dispatched.
    pub(crate) fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }

    /// Dispatch the next task for `vm` under `policy`, or `None` if
    /// drained. The returned [`Locality`] describes where the chosen
    /// task's data actually is relative to `vm` (for FIFO dispatch this
    /// is whatever the draw happened to be).
    pub(crate) fn pick_for_with(
        &mut self,
        policy: SchedulerPolicy,
        vm: &Vm,
        layout: &HdfsLayout,
        cluster: &VirtualCluster,
    ) -> Option<(u32, Locality)> {
        match policy {
            SchedulerPolicy::LocalityAware => self.pick_for(vm, layout, cluster),
            SchedulerPolicy::FifoBlind => {
                let task = *self.pending.iter().next()?;
                self.pending.remove(&task);
                let block = BlockId(task);
                let locality = if layout.is_local(block, vm.node) {
                    Locality::NodeLocal
                } else if layout.is_rack_local(block, vm.node, cluster) {
                    Locality::RackLocal
                } else {
                    Locality::Remote
                };
                Some((task, locality))
            }
        }
    }

    /// Dispatch the best pending task for `vm`, or `None` if drained.
    ///
    /// Preference: node-local < rack-local < remote; lowest task id
    /// within a class (FIFO).
    fn pick_for(
        &mut self,
        vm: &Vm,
        layout: &HdfsLayout,
        cluster: &VirtualCluster,
    ) -> Option<(u32, Locality)> {
        let mut rack_choice: Option<u32> = None;
        let mut remote_choice: Option<u32> = None;
        for &task in &self.pending {
            let block = BlockId(task);
            if layout.is_local(block, vm.node) {
                self.pending.remove(&task);
                return Some((task, Locality::NodeLocal));
            }
            if rack_choice.is_none() && layout.is_rack_local(block, vm.node, cluster) {
                rack_choice = Some(task);
            } else if remote_choice.is_none() && rack_choice.is_none() {
                remote_choice = Some(task);
            }
        }
        if let Some(task) = rack_choice {
            self.pending.remove(&task);
            return Some((task, Locality::RackLocal));
        }
        if let Some(task) = remote_choice {
            self.pending.remove(&task);
            return Some((task, Locality::Remote));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use vc_topology::{generate, DistanceTiers, NodeId};

    fn setup() -> (VirtualCluster, HdfsLayout) {
        let topo = Arc::new(generate::uniform(2, 3, DistanceTiers::paper_experiment()));
        let cluster =
            VirtualCluster::homogeneous(&[NodeId(0), NodeId(1), NodeId(3), NodeId(4)], 4, topo);
        let mut rng = StdRng::seed_from_u64(1);
        let layout = HdfsLayout::place(&cluster, 8, 2, &mut rng);
        (cluster, layout)
    }

    #[test]
    fn prefers_node_local() {
        let (cluster, layout) = setup();
        let mut sched = MapScheduler::new(8);
        // For each VM, the first pick should be node-local when any of its
        // blocks live there.
        for vm in cluster.vms() {
            let has_local = (0..8).any(|t| layout.is_local(BlockId(t), vm.node));
            let mut s = sched.clone();
            if let Some((task, loc)) = s.pick_for(vm, &layout, &cluster) {
                if has_local {
                    assert_eq!(loc, Locality::NodeLocal, "vm on {} task {task}", vm.node);
                }
            }
        }
        // drain one vm completely: locality degrades monotonically per pick? not
        // guaranteed, but the pool must fully drain.
        let vm = &cluster.vms()[0];
        let mut count = 0;
        while sched.pick_for(vm, &layout, &cluster).is_some() {
            count += 1;
        }
        assert_eq!(count, 8);
        assert!(sched.is_drained());
    }

    #[test]
    fn lowest_id_within_class() {
        let (cluster, layout) = setup();
        let vm = &cluster.vms()[0];
        let mut sched = MapScheduler::new(8);
        let mut picked = vec![];
        while let Some((task, loc)) = sched.pick_for(vm, &layout, &cluster) {
            picked.push((task, loc));
        }
        // node-local ids ascend, then rack ids ascend, then remote ids ascend
        let locals: Vec<u32> = picked
            .iter()
            .filter(|(_, l)| *l == Locality::NodeLocal)
            .map(|&(t, _)| t)
            .collect();
        assert!(locals.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_pool_returns_none() {
        let (cluster, layout) = setup();
        let mut sched = MapScheduler::new(0);
        assert!(sched.is_drained());
        assert!(sched
            .pick_for(&cluster.vms()[0], &layout, &cluster)
            .is_none());
    }

    #[test]
    fn fifo_blind_ignores_locality() {
        let (cluster, layout) = setup();
        let vm = &cluster.vms()[0];
        let mut sched = MapScheduler::new(8);
        let mut picked = vec![];
        while let Some((task, _)) =
            sched.pick_for_with(SchedulerPolicy::FifoBlind, vm, &layout, &cluster)
        {
            picked.push(task);
        }
        assert_eq!(picked, (0..8).collect::<Vec<_>>(), "strict FIFO order");
    }

    #[test]
    fn locality_aware_never_worse_than_blind() {
        let (cluster, layout) = setup();
        let vm = &cluster.vms()[0];
        let count_local = |policy: SchedulerPolicy| {
            let mut sched = MapScheduler::new(8);
            let mut local = 0;
            while let Some((_, loc)) = sched.pick_for_with(policy, vm, &layout, &cluster) {
                if loc == Locality::NodeLocal {
                    local += 1;
                }
            }
            local
        };
        assert!(
            count_local(SchedulerPolicy::LocalityAware) >= count_local(SchedulerPolicy::FifoBlind)
        );
    }

    #[test]
    fn pending_counts_down() {
        let (cluster, layout) = setup();
        let mut sched = MapScheduler::new(3);
        assert_eq!(sched.pending.len(), 3);
        sched.pick_for(&cluster.vms()[0], &layout, &cluster);
        assert_eq!(sched.pending.len(), 2);
    }
}
