//! Simulated HDFS block placement over the cluster's physical nodes.
//!
//! Rack-aware replication as in Hadoop: the first replica lands on the
//! "writer" node (input blocks are loaded round-robin across the cluster,
//! modelling a balanced pre-existing dataset), the second on a node in a
//! *different* rack, the third on a different node of the second
//! replica's rack; further replicas fill remaining nodes. Replicas are
//! always on distinct nodes; if the cluster spans a single rack (or has
//! fewer nodes than the replication factor), placement degrades
//! gracefully to whatever distinct nodes exist.

use crate::cluster::VirtualCluster;
use rand::seq::SliceRandom;
use rand::Rng;
use vc_topology::NodeId;

/// Identifier of an input block / split (dense index; block `i` feeds map
/// task `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// One HDFS block and the nodes holding its replicas.
#[derive(Debug, Clone)]
pub struct Block {
    /// Hosting nodes, primary first; distinct.
    pub replicas: Vec<NodeId>,
}

/// The block layout of one job's input.
#[derive(Debug, Clone)]
pub struct HdfsLayout {
    blocks: Vec<Block>,
}

impl HdfsLayout {
    /// Place `num_blocks` blocks over the cluster with the given
    /// replication factor. Deterministic for a given RNG state.
    ///
    /// # Panics
    /// Panics if `replication == 0` or the cluster is empty.
    pub(crate) fn place(
        cluster: &VirtualCluster,
        num_blocks: usize,
        replication: u32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(replication > 0, "replication must be at least 1");
        let nodes = cluster.nodes();
        assert!(!nodes.is_empty(), "cluster has no nodes");
        let topo = cluster.topology();

        // Writers rotate through a shuffled node order: balanced but not
        // aligned with node ids, like a real pre-loaded dataset.
        let mut writers = nodes.clone();
        writers.shuffle(rng);

        let blocks = (0..num_blocks)
            .map(|i| {
                let primary = writers[i % writers.len()];
                let mut replicas = vec![primary];
                // Second replica: different rack if possible.
                let off_rack: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|&n| !topo.same_rack(n, primary))
                    .collect();
                if let Some(&second) = off_rack.choose(rng) {
                    replicas.push(second);
                    // Third+: same rack as second, else anywhere distinct.
                    let mut third_pref: Vec<NodeId> = nodes
                        .iter()
                        .copied()
                        .filter(|&n| !replicas.contains(&n) && topo.same_rack(n, second))
                        .collect();
                    third_pref.shuffle(rng);
                    let mut rest: Vec<NodeId> = nodes
                        .iter()
                        .copied()
                        .filter(|&n| !replicas.contains(&n) && !third_pref.contains(&n))
                        .collect();
                    rest.shuffle(rng);
                    third_pref.extend(rest);
                    for n in third_pref {
                        if replicas.len() >= replication as usize {
                            break;
                        }
                        replicas.push(n);
                    }
                } else {
                    // Single-rack cluster: just pick distinct nodes.
                    let mut rest: Vec<NodeId> =
                        nodes.iter().copied().filter(|&n| n != primary).collect();
                    rest.shuffle(rng);
                    for n in rest {
                        if replicas.len() >= replication as usize {
                            break;
                        }
                        replicas.push(n);
                    }
                }
                Block { replicas }
            })
            .collect();
        Self { blocks }
    }

    /// Look up one block.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Whether any replica of `block` lives on `node`.
    pub(crate) fn is_local(&self, block: BlockId, node: NodeId) -> bool {
        self.block(block).replicas.contains(&node)
    }

    /// Whether any replica of `block` shares a rack with `node`.
    pub(crate) fn is_rack_local(
        &self,
        block: BlockId,
        node: NodeId,
        cluster: &VirtualCluster,
    ) -> bool {
        self.block(block)
            .replicas
            .iter()
            .any(|&r| cluster.topology().same_rack(r, node))
    }

    /// The replica of `block` nearest to `node` (smallest distance, ties
    /// to the smaller node id).
    pub(crate) fn nearest_replica(
        &self,
        block: BlockId,
        node: NodeId,
        cluster: &VirtualCluster,
    ) -> NodeId {
        *self
            .block(block)
            .replicas
            .iter()
            .min_by_key(|&&r| (cluster.topology().distance(r, node), r))
            .expect("blocks always have at least one replica")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use vc_topology::{generate, DistanceTiers};

    fn cluster() -> VirtualCluster {
        let topo = Arc::new(generate::uniform(2, 3, DistanceTiers::paper_experiment()));
        // VMs on nodes 0,1 (rack 0) and 3,4 (rack 1)
        VirtualCluster::homogeneous(&[NodeId(0), NodeId(1), NodeId(3), NodeId(4)], 4, topo)
    }

    #[test]
    fn replicas_distinct_and_count() {
        let c = cluster();
        let mut rng = StdRng::seed_from_u64(1);
        let layout = HdfsLayout::place(&c, 16, 3, &mut rng);
        assert_eq!(layout.blocks.len(), 16);
        for b in &layout.blocks {
            assert_eq!(b.replicas.len(), 3);
            let mut sorted = b.replicas.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct");
        }
    }

    #[test]
    fn second_replica_off_rack() {
        let c = cluster();
        let mut rng = StdRng::seed_from_u64(2);
        let layout = HdfsLayout::place(&c, 8, 3, &mut rng);
        for b in &layout.blocks {
            assert!(
                !c.topology().same_rack(b.replicas[0], b.replicas[1]),
                "second replica must be off-rack when possible"
            );
        }
    }

    #[test]
    fn single_rack_cluster_degrades() {
        let topo = Arc::new(generate::uniform(1, 3, DistanceTiers::paper_experiment()));
        let c = VirtualCluster::homogeneous(&[NodeId(0), NodeId(1), NodeId(2)], 3, topo);
        let mut rng = StdRng::seed_from_u64(3);
        let layout = HdfsLayout::place(&c, 1, 3, &mut rng);
        assert_eq!(layout.block(BlockId(0)).replicas.len(), 3);
    }

    #[test]
    fn replication_capped_by_node_count() {
        let topo = Arc::new(generate::uniform(1, 2, DistanceTiers::paper_experiment()));
        let c = VirtualCluster::homogeneous(&[NodeId(0), NodeId(1)], 2, topo);
        let mut rng = StdRng::seed_from_u64(4);
        let layout = HdfsLayout::place(&c, 1, 3, &mut rng);
        assert_eq!(layout.block(BlockId(0)).replicas.len(), 2);
    }

    #[test]
    fn locality_queries() {
        let c = cluster();
        let mut rng = StdRng::seed_from_u64(5);
        let layout = HdfsLayout::place(&c, 1, 1, &mut rng);
        let primary = layout.block(BlockId(0)).replicas[0];
        assert!(layout.is_local(BlockId(0), primary));
        assert!(layout.is_rack_local(BlockId(0), primary, &c));
        assert_eq!(layout.nearest_replica(BlockId(0), primary, &c), primary);
    }

    #[test]
    fn writers_balanced() {
        let c = cluster();
        let mut rng = StdRng::seed_from_u64(6);
        let layout = HdfsLayout::place(&c, 16, 1, &mut rng);
        // 16 blocks over 4 nodes round-robin -> exactly 4 primaries each.
        let mut counts = std::collections::HashMap::new();
        for b in &layout.blocks {
            *counts.entry(b.replicas[0]).or_insert(0u32) += 1;
        }
        for &c in counts.values() {
            assert_eq!(c, 4);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let c = cluster();
        let a = HdfsLayout::place(&c, 8, 3, &mut StdRng::seed_from_u64(7));
        let b = HdfsLayout::place(&c, 8, 3, &mut StdRng::seed_from_u64(7));
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x.replicas, y.replicas);
        }
    }
}
