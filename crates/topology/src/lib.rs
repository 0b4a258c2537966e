//! Physical datacenter topology model for affinity-aware virtual cluster
//! placement.
//!
//! The paper (Yan et al., CLUSTER 2012, §II) models the infrastructure as a
//! set of physical nodes grouped into racks (and racks into clouds), with a
//! symmetric distance matrix `D` derived from network latency tiers:
//!
//! * `0`  — two VMs on the **same node**,
//! * `d1` — two nodes in the **same rack**,
//! * `d2` — two nodes in **different racks**,
//! * `d3` — two nodes in **different clouds**, with `0 < d1 < d2 < d3`.
//!
//! This crate provides:
//!
//! * [`Topology`] — an immutable hierarchy of clouds → racks → nodes whose
//!   [`distance`](Topology::distance) is computed from the two nodes' rack
//!   and cloud ids, so no `n × n` matrix is ever stored;
//! * [`TopologyBuilder`] — incremental construction;
//! * [`generate`] — canned generators (uniform racks, heterogeneous racks,
//!   multi-cloud) including the paper's simulation configuration of
//!   3 racks × 10 nodes;
//! * [`DistanceTiers`] — the `d1 < d2 < d3` latency classes.
//!
//! All identifiers are dense indices (`NodeId`, `RackId`, `CloudId`) so they
//! can be used directly as matrix offsets in the optimisation crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod generate;
mod ids;
mod tiers;

pub use builder::TopologyBuilder;
pub use ids::{CloudId, NodeId, RackId};
pub use tiers::DistanceTiers;

/// A physical machine that can host virtual machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Dense index of this node.
    pub id: NodeId,
    /// Rack containing this node.
    pub rack: RackId,
    /// Cloud containing this node.
    pub cloud: CloudId,
    /// Human-readable name (e.g. `"r0n3"`).
    pub name: String,
}

/// A rack of physical nodes behind a shared top-of-rack switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rack {
    /// Dense index of this rack.
    pub id: RackId,
    /// Cloud containing this rack.
    pub cloud: CloudId,
    /// Nodes in this rack, in id order.
    pub nodes: Vec<NodeId>,
    /// Human-readable name (e.g. `"rack0"`).
    pub name: String,
}

/// A cloud (datacenter / availability zone) containing racks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cloud {
    /// Dense index of this cloud.
    pub id: CloudId,
    /// Racks in this cloud, in id order.
    pub racks: Vec<RackId>,
    /// Human-readable name (e.g. `"cloud0"`).
    pub name: String,
}

/// An immutable physical topology: the node/rack/cloud hierarchy and the
/// latency tiers its distances are computed from.
///
/// Construct via [`TopologyBuilder`] or the helpers in [`generate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    nodes: Vec<Node>,
    racks: Vec<Rack>,
    clouds: Vec<Cloud>,
    /// `d1`/`d2`/`d3`. [`distance`](Self::distance) picks one by comparing
    /// the two nodes' rack and cloud ids, so no `n × n` matrix is stored.
    tiers: DistanceTiers,
}

impl Topology {
    /// Number of physical nodes (`n` in the paper).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of racks.
    #[inline]
    pub fn num_racks(&self) -> usize {
        self.racks.len()
    }

    /// The latency tiers this topology was built with.
    #[inline]
    pub fn tiers(&self) -> DistanceTiers {
        self.tiers
    }

    /// All nodes in id order.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All racks in id order.
    #[inline]
    pub fn racks(&self) -> &[Rack] {
        &self.racks
    }

    /// Rack containing `node`.
    #[inline]
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.nodes[node.index()].rack
    }

    /// Cloud containing `node`.
    #[inline]
    pub fn cloud_of(&self, node: NodeId) -> CloudId {
        self.nodes[node.index()].cloud
    }

    /// Whether two nodes share a rack.
    #[inline]
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// Whether two nodes share a cloud.
    #[inline]
    pub fn same_cloud(&self, a: NodeId, b: NodeId) -> bool {
        self.cloud_of(a) == self.cloud_of(b)
    }

    /// Distance `D[a][b]` between two nodes (latency units): `0` on the
    /// same node, else `d1`, `d2` or `d3` by whether the nodes share a rack,
    /// a cloud, or neither.
    ///
    /// # Panics
    /// Panics if either node is out of range.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let (x, y) = (&self.nodes[a.index()], &self.nodes[b.index()]);
        if a == b {
            0
        } else if x.cloud != y.cloud {
            self.tiers.cross_cloud
        } else if x.rack != y.rack {
            self.tiers.cross_rack
        } else {
            self.tiers.same_rack
        }
    }

    /// Iterator over all node ids, `0..n`.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Node ids in the same rack as `x`, **excluding** `x` itself.
    ///
    /// This is `getList(D, x, 0)` from the paper (§IV-A), before the
    /// resource-based sort applied by the placement algorithm.
    pub fn rack_peers(&self, x: NodeId) -> Vec<NodeId> {
        let rack = self.rack_of(x);
        self.racks[rack.index()]
            .nodes
            .iter()
            .copied()
            .filter(|&n| n != x)
            .collect()
    }

    /// Node ids **not** in the same rack as `x`.
    ///
    /// This is `getList(D, x, 1)` from the paper, before the resource-based
    /// sort applied by the placement algorithm.
    pub fn non_rack_peers(&self, x: NodeId) -> Vec<NodeId> {
        let rack = self.rack_of(x);
        self.node_ids()
            .filter(|&n| self.rack_of(n) != rack)
            .collect()
    }

    /// All node ids sorted by distance from `k` (ascending, ties by id).
    ///
    /// The first element is always `k` itself (distance 0).
    pub fn nodes_by_distance(&self, k: NodeId) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.node_ids().collect();
        ids.sort_by_key(|&i| (self.distance(k, i), i.0));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Topology {
        generate::uniform(2, 3, DistanceTiers::default())
    }

    #[test]
    fn uniform_counts() {
        let t = small();
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.num_racks(), 2);
        assert_eq!(t.clouds.len(), 1);
    }

    #[test]
    fn distance_tiers_applied() {
        let t = small();
        let tiers = t.tiers();
        // same node
        assert_eq!(t.distance(NodeId(0), NodeId(0)), 0);
        // same rack (nodes 0,1,2 are rack 0)
        assert_eq!(t.distance(NodeId(0), NodeId(1)), tiers.same_rack);
        // cross rack (node 3 is rack 1)
        assert_eq!(t.distance(NodeId(0), NodeId(3)), tiers.cross_rack);
    }

    #[test]
    fn distance_symmetric() {
        let t = small();
        for a in t.node_ids() {
            for b in t.node_ids() {
                assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
    }

    #[test]
    fn rack_peers_excludes_self() {
        let t = small();
        let peers = t.rack_peers(NodeId(1));
        assert_eq!(peers, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn non_rack_peers_other_rack() {
        let t = small();
        let peers = t.non_rack_peers(NodeId(0));
        assert_eq!(peers, vec![NodeId(3), NodeId(4), NodeId(5)]);
    }

    #[test]
    fn nodes_by_distance_starts_with_self() {
        let t = small();
        let order = t.nodes_by_distance(NodeId(4));
        assert_eq!(order[0], NodeId(4));
        // then same-rack nodes, then cross-rack
        assert!(order[1..3].iter().all(|&n| t.same_rack(n, NodeId(4))));
        assert!(order[3..].iter().all(|&n| !t.same_rack(n, NodeId(4))));
    }

    #[test]
    fn multi_cloud_distance() {
        let tiers = DistanceTiers::new(1, 2, 8).unwrap();
        let t = generate::multi_cloud(2, 2, 2, tiers);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.clouds.len(), 2);
        // nodes 0..4 in cloud 0, 4..8 in cloud 1
        assert_eq!(t.distance(NodeId(0), NodeId(7)), 8);
        assert_eq!(t.distance(NodeId(0), NodeId(3)), 2);
        assert_eq!(t.distance(NodeId(0), NodeId(1)), 1);
    }

    #[test]
    fn clone_equality() {
        let t = small();
        assert_eq!(t, t.clone());
    }
}
