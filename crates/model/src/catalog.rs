//! VM instance types and the catalogue of available types (paper Table I).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a VM type (`V_j` in the paper), a dense index into a
/// [`VmCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct VmTypeId(pub u32);

impl VmTypeId {
    /// The raw index as a `usize`, for matrix offsets.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a `usize` index.
    ///
    /// # Panics
    /// Panics if `i` exceeds `u32::MAX`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        Self(u32::try_from(i).expect("index exceeds u32::MAX"))
    }
}

impl fmt::Display for VmTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

/// One VM instance type.
///
/// The first five fields reproduce Table I of the paper (Amazon EC2
/// instances); the remaining fields parameterise the MapReduce performance
/// model in `vc-mapreduce` (slots and per-VM processing rates), scaled with
/// compute units as Hadoop deployments commonly configure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmType {
    /// Dense index of this type in its catalogue.
    pub id: VmTypeId,
    /// Human-readable name (e.g. `"small"`).
    pub name: String,
    /// Memory, in megabytes (Table I reports GB; 1.7 GB → 1740 MB).
    pub memory_mb: u32,
    /// EC2 compute units.
    pub compute_units: u32,
    /// Instance storage, in gigabytes.
    pub storage_gb: u32,
    /// Platform word size in bits (32 or 64).
    pub platform_bits: u8,
    /// Concurrent map task slots this VM offers.
    pub map_slots: u32,
    /// Concurrent reduce task slots this VM offers.
    pub reduce_slots: u32,
    /// CPU processing rate for map/reduce work, MB of input per second.
    pub cpu_mb_per_s: u32,
    /// Local disk streaming rate, MB per second.
    pub disk_mb_per_s: u32,
}

/// An ordered catalogue of VM types; index = [`VmTypeId`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmCatalog {
    types: Vec<VmType>,
}

impl VmCatalog {
    /// Build a catalogue from types; ids are (re)assigned densely in order.
    ///
    /// # Panics
    /// Panics if `types` is empty.
    pub fn new(mut types: Vec<VmType>) -> Self {
        assert!(
            !types.is_empty(),
            "catalogue must contain at least one VM type"
        );
        for (i, t) in types.iter_mut().enumerate() {
            t.id = VmTypeId::from_index(i);
        }
        Self { types }
    }

    /// The paper's Table I: Amazon EC2 `small` (V1), `medium` (V2), and
    /// `large` (V3) instances.
    ///
    /// Slots/rates scale with compute units: 1 map slot and 25 MB/s of CPU
    /// throughput per compute unit, one reduce slot per instance plus one
    /// extra for the large type, and 60–100 MB/s disks.
    pub fn ec2_table1() -> Self {
        Self::new(vec![
            VmType {
                id: VmTypeId(0),
                name: "small".into(),
                memory_mb: 1740,
                compute_units: 1,
                storage_gb: 160,
                platform_bits: 32,
                map_slots: 1,
                reduce_slots: 1,
                cpu_mb_per_s: 25,
                disk_mb_per_s: 60,
            },
            VmType {
                id: VmTypeId(1),
                name: "medium".into(),
                memory_mb: 3840,
                compute_units: 2,
                storage_gb: 410,
                platform_bits: 64,
                map_slots: 2,
                reduce_slots: 1,
                cpu_mb_per_s: 50,
                disk_mb_per_s: 80,
            },
            VmType {
                id: VmTypeId(2),
                name: "large".into(),
                memory_mb: 7680,
                compute_units: 4,
                storage_gb: 850,
                platform_bits: 64,
                map_slots: 4,
                reduce_slots: 2,
                cpu_mb_per_s: 100,
                disk_mb_per_s: 100,
            },
        ])
    }

    /// Number of VM types (`m` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the catalogue is empty (never true: construction forbids it).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Look up a type by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn get(&self, id: VmTypeId) -> &VmType {
        &self.types[id.index()]
    }

    /// All types in id order.
    #[inline]
    pub fn types(&self) -> &[VmType] {
        &self.types
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let c = VmCatalog::ec2_table1();
        assert_eq!(c.len(), 3);
        let small = c.get(VmTypeId(0));
        assert_eq!(small.name, "small");
        assert_eq!(small.memory_mb, 1740);
        assert_eq!(small.compute_units, 1);
        assert_eq!(small.storage_gb, 160);
        assert_eq!(small.platform_bits, 32);
        let large = c.get(VmTypeId(2));
        assert_eq!(large.name, "large");
        assert_eq!(large.compute_units, 4);
        assert_eq!(large.storage_gb, 850);
        assert_eq!(large.platform_bits, 64);
    }

    #[test]
    fn ids_dense_in_order() {
        let c = VmCatalog::ec2_table1();
        for (i, t) in c.types().iter().enumerate() {
            assert_eq!(t.id.index(), i);
        }
        assert_eq!(c.get(VmTypeId(1)).name, "medium");
    }

    #[test]
    fn new_reassigns_ids() {
        let mut types = VmCatalog::ec2_table1().types().to_vec();
        types.reverse();
        let c = VmCatalog::new(types);
        assert_eq!(c.get(VmTypeId(0)).name, "large");
        assert_eq!(c.get(VmTypeId(0)).id, VmTypeId(0));
    }

    #[test]
    #[should_panic(expected = "at least one VM type")]
    fn empty_catalogue_rejected() {
        let _ = VmCatalog::new(vec![]);
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(VmTypeId(2).to_string(), "V2");
    }

    #[test]
    fn slots_scale_with_compute_units() {
        let c = VmCatalog::ec2_table1();
        for t in c.types() {
            assert_eq!(t.map_slots, t.compute_units);
            assert_eq!(t.cpu_mb_per_s, 25 * t.compute_units);
        }
    }
}
