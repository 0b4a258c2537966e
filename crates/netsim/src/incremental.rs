//! Incremental max-min fair-share solver.
//!
//! [`max_min_fair_share_detailed`](crate::max_min_fair_share_detailed)
//! re-solves the whole flow set from scratch on every call; at cloud
//! scale the shuffle simulator spends its time there (and in the
//! allocation churn around it), not in the simulated network. This
//! module keeps the solve *state* alive between flow events:
//!
//! * per-link flow sets (`link_flows`) maintained on every start and
//!   completion, so membership changes are O(path);
//! * **staged changes, one settle**: [`stage_insert`] and
//!   [`stage_remove`] only update that membership and record the links
//!   whose flow sets changed; [`settle`] then solves the union of every
//!   staged component once. A MapReduce event that starts eight fetches
//!   at one instant pays one solve, not eight;
//! * a **component-restricted re-solve**: a settle only re-runs
//!   progressive filling over the connected components of the
//!   flow↔link bipartite graph whose membership changed — flows in
//!   untouched components provably keep their exact rates (max-min fair
//!   share decomposes over components);
//! * per-flow rate ceilings handled natively inside the filling loop
//!   (no synthetic one-flow resource materialized per flow per solve),
//!   with the same tie-breaking as the synthetic-resource formulation;
//! * all scratch buffers reused across solves — a solve allocates
//!   nothing on the steady-state path.
//!
//! [`stage_insert`]: IncrementalFairShare::stage_insert
//! [`stage_remove`]: IncrementalFairShare::stage_remove
//! [`settle`]: IncrementalFairShare::settle
//!
//! Flow state lives in a slab (`Vec<SolvedFlow>` addressed by `u32`
//! slot); the key→slot `BTreeMap` is consulted only on the cold paths
//! (insert, remove, point queries). Expansion, freezing, and
//! observation — the per-event hot loops — address flows by slot, so
//! they do array indexing instead of tree walks. The sorted ceiling
//! list is likewise maintained persistently across operations instead
//! of being rebuilt and re-sorted per solve.
//!
//! # Bit-identical by construction
//!
//! The component solve replays exactly the arithmetic the batch solver
//! would perform for that component, in the same order:
//!
//! * resources are scanned in ascending index order and the bottleneck
//!   is chosen by strict `<`, so ties pick the lowest-index link, and a
//!   physical link beats an equal per-flow ceiling (ceilings order after
//!   all physical resources, by flow key, exactly like the appended
//!   synthetic resources in the batch formulation);
//! * a freezing round freezes the bottleneck link's unfrozen flows in
//!   ascending flow-key order and deducts the share from each flow's
//!   path in path order — the same f64 operation sequence per residual
//!   as the batch solver;
//! * residuals are rebuilt from link capacities at every solve (never
//!   carried across solves), so no fp drift can accumulate.
//!
//! Within the batch solve, rounds belonging to different components
//! interleave by ascending share, but a round only reads and writes
//! state of its own component, so the component-restricted subsequence
//! is the solo-component solve. The equality proptests in this module
//! and `tests/batch_equiv.rs` assert bit-identical rates and bindings
//! against the batch solver on random instances and interleavings.
//!
//! The same argument makes coalescing exact. A component solve is a
//! pure function of the component's final flow set, so one settle after
//! several staged changes gives the rates that a solve after each
//! change would have reached after the last one; and a settle over the
//! union of several changed components solves each of them exactly as
//! it would be solved alone.

use crate::link::Bottleneck;
use std::collections::BTreeMap;

/// Effort of one incremental re-solve — the working set actually
/// touched, feeding [`SolverStats`](crate::SolverStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveReport {
    /// Flows in the re-solved connected component.
    pub flows_solved: u64,
    /// Links in the re-solved component (each carries ≥ 1 flow).
    pub links_solved: u64,
    /// Progressive-filling rounds the component solve ran.
    pub iterations: u64,
}

#[derive(Debug)]
struct SolvedFlow {
    key: u64,
    path: Vec<usize>,
    cap: f64,
    rate: f64,
    binding: Bottleneck,
    /// Epoch marker: flow is in the current component.
    visited: u64,
    /// Epoch marker: flow froze during the current solve.
    frozen: u64,
}

/// Max-min fair-share state that survives across flow starts and
/// completions, re-solving only the affected connected components.
///
/// Changes are staged ([`stage_insert`](Self::stage_insert),
/// [`stage_remove`](Self::stage_remove)) and take effect at the next
/// [`settle`](Self::settle); rates read before it are those of the last
/// settle.
///
/// Keys are caller-chosen `u64`s; all ordering-sensitive steps (freeze
/// order inside a round, ceiling tie-breaks) use ascending key order,
/// matching a batch solver that iterates flows in ascending key order.
#[derive(Debug)]
pub struct IncrementalFairShare {
    capacities: Vec<f64>,
    /// key → slab slot. Cold-path lookup only; the hot loops address
    /// flows by slot.
    index: BTreeMap<u64, u32>,
    slab: Vec<SolvedFlow>,
    free_slots: Vec<u32>,
    /// Per resource: `(key, slot)` of active flows through it,
    /// ascending by key.
    link_flows: Vec<Vec<(u64, u32)>>,
    epoch: u64,
    /// Has a change been staged since the last settle?
    staged: bool,
    /// Staged inserts with an empty path: no link leads a settle to
    /// them, so they seed its component directly.
    pathless: Vec<u32>,
    // ---- last-settle outputs ----
    /// Slots of the last component, ascending by key after the solve.
    comp_flows: Vec<u32>,
    comp_links: Vec<usize>,
    /// Staged links (paths of inserted and removed flows) until a
    /// settle; after it, those plus the solved component's links.
    touched_links: Vec<usize>,
    // ---- scratch, reused across solves ----
    in_comp_link: Vec<bool>,
    in_touched: Vec<bool>,
    users: Vec<u32>,
    residual: Vec<f64>,
    /// Every active finite-ceiling flow as `(cap bits, key, slot)`,
    /// ascending — positive-finite f64 bit order is numeric order, so
    /// this is (cap, key) order. Maintained persistently on
    /// insert/remove; a solve walks it with a cursor, skipping entries
    /// outside the current component.
    capped: Vec<(u64, u64, u32)>,
}

impl IncrementalFairShare {
    /// A solver over `capacities` physical resources (MB/s each).
    ///
    /// # Panics
    /// Panics if a capacity is negative, NaN, or infinite.
    pub fn new(capacities: Vec<f64>) -> Self {
        for &c in &capacities {
            assert!(c.is_finite() && c >= 0.0, "invalid capacity {c}");
        }
        let nr = capacities.len();
        Self {
            index: BTreeMap::new(),
            slab: Vec::new(),
            free_slots: Vec::new(),
            link_flows: vec![Vec::new(); nr],
            epoch: 0,
            staged: false,
            pathless: Vec::new(),
            comp_flows: Vec::new(),
            comp_links: Vec::new(),
            touched_links: Vec::new(),
            in_comp_link: vec![false; nr],
            in_touched: vec![false; nr],
            users: vec![0; nr],
            residual: vec![0.0; nr],
            capped: Vec::new(),
            capacities,
        }
    }

    /// Current rate of flow `key`, or `None` if unknown.
    #[cfg(test)]
    pub fn rate(&self, key: u64) -> Option<f64> {
        self.index.get(&key).map(|&s| self.slab[s as usize].rate)
    }

    /// Current binding attribution of flow `key`, or `None` if unknown.
    #[cfg(test)]
    pub fn binding(&self, key: u64) -> Option<Bottleneck> {
        self.index.get(&key).map(|&s| self.slab[s as usize].binding)
    }

    /// The flows whose rates the last settle recomputed, with their new
    /// rate and binding, in ascending key order — callers can apply the
    /// updates with a single sorted merge over their own flow table.
    pub fn changed(&self) -> impl Iterator<Item = (u64, f64, Bottleneck)> + '_ {
        self.comp_flows.iter().map(|&s| {
            let f = &self.slab[s as usize];
            (f.key, f.rate, f.binding)
        })
    }

    /// Links whose state (flow set or member rates) the last settle may
    /// have changed: the re-solved components' links plus the links of
    /// removed flows. Ascending; deduplicated.
    pub fn touched_links(&self) -> &[usize] {
        &self.touched_links
    }

    /// Fold resource `r`'s current state: (Σ member rates in key order,
    /// member count, does `r` bind at least one member's rate).
    pub fn observe_link(&self, r: usize) -> (f64, u32, bool) {
        let mut rate_sum = 0.0;
        let mut binding = false;
        for &(_, slot) in &self.link_flows[r] {
            let f = &self.slab[slot as usize];
            rate_sum += f.rate;
            binding |= f.binding == Bottleneck::Link(r);
        }
        (rate_sum, self.link_flows[r].len() as u32, binding)
    }

    /// Stage flow `key` over `path` with per-flow ceiling `rate_cap`
    /// (`f64::INFINITY` for none). Its rate is 0 until the next
    /// [`settle`](Self::settle).
    ///
    /// # Panics
    /// Panics if `key` is already active, a path entry is out of range
    /// or duplicated (the batch solver weights duplicates by
    /// multiplicity; this solver rejects them instead), or `rate_cap`
    /// is NaN/non-positive.
    pub fn stage_insert(&mut self, key: u64, path: &[usize], rate_cap: f64) {
        assert!(
            !rate_cap.is_nan() && rate_cap > 0.0,
            "invalid rate cap {rate_cap}"
        );
        for (i, &r) in path.iter().enumerate() {
            assert!(r < self.capacities.len(), "resource index {r} out of range");
            assert!(!path[..i].contains(&r), "duplicate resource {r} in path");
        }
        self.begin_staging();
        let flow = SolvedFlow {
            key,
            path: path.to_vec(),
            cap: rate_cap,
            rate: 0.0,
            binding: Bottleneck::Unconstrained,
            visited: 0,
            frozen: 0,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slab[s as usize] = flow;
                s
            }
            None => {
                self.slab.push(flow);
                (self.slab.len() - 1) as u32
            }
        };
        let inserted = self.index.insert(key, slot).is_none();
        assert!(inserted, "flow key {key} already active");
        if rate_cap.is_finite() {
            let entry = (rate_cap.to_bits(), key, slot);
            let pos = self.capped.binary_search(&entry).unwrap_err();
            self.capped.insert(pos, entry);
        }
        if path.is_empty() {
            self.pathless.push(slot);
        }
        for &r in path {
            let lf = &mut self.link_flows[r];
            let pos = lf.binary_search_by_key(&key, |e| e.0).unwrap_err();
            lf.insert(pos, (key, slot));
            self.touch(r);
        }
    }

    /// Stage the removal of flow `key`.
    ///
    /// # Panics
    /// Panics if `key` is not an active flow.
    pub fn stage_remove(&mut self, key: u64) {
        self.begin_staging();
        let slot = self.index.remove(&key).expect("removing unknown flow key");
        let f = &mut self.slab[slot as usize];
        let cap = f.cap;
        let path = std::mem::take(&mut f.path);
        if cap.is_finite() {
            let pos = self
                .capped
                .binary_search(&(cap.to_bits(), key, slot))
                .expect("capped entry missing");
            self.capped.remove(pos);
        }
        if path.is_empty() {
            // Only an insert staged since the last settle is listed.
            if let Some(pos) = self.pathless.iter().position(|&s| s == slot) {
                self.pathless.swap_remove(pos);
            }
        }
        for &r in &path {
            let lf = &mut self.link_flows[r];
            let pos = lf
                .binary_search_by_key(&key, |e| e.0)
                .expect("flow missing from link set");
            lf.remove(pos);
            self.touch(r);
        }
        self.free_slots.push(slot);
    }

    /// Solve every component a change was staged in since the last
    /// settle, once, and publish the result through
    /// [`changed`](Self::changed) and
    /// [`touched_links`](Self::touched_links). Returns `None`, and
    /// leaves the last settle's outputs in place, when nothing is
    /// staged.
    pub fn settle(&mut self) -> Option<SolveReport> {
        if !std::mem::take(&mut self.staged) {
            return None;
        }
        self.epoch += 1;
        // Seed the component from the staged links that still carry
        // flows; links emptied by a removal only need observing.
        for i in 0..self.touched_links.len() {
            let r = self.touched_links[i];
            if !self.link_flows[r].is_empty() {
                self.in_comp_link[r] = true;
                self.comp_links.push(r);
            }
        }
        for &slot in &self.pathless {
            self.slab[slot as usize].visited = self.epoch;
            self.comp_flows.push(slot);
        }
        self.pathless.clear();
        self.expand_component();
        Some(self.solve_component())
    }

    /// Mark `r` as a link whose flow set a staged change altered.
    fn touch(&mut self, r: usize) {
        if !self.in_touched[r] {
            self.in_touched[r] = true;
            self.touched_links.push(r);
        }
    }

    /// On the first change staged after a settle, clear that settle's
    /// component and touched marks.
    fn begin_staging(&mut self) {
        if std::mem::replace(&mut self.staged, true) {
            return;
        }
        for &r in &self.comp_links {
            self.in_comp_link[r] = false;
        }
        for &r in &self.touched_links {
            self.in_touched[r] = false;
        }
        self.comp_flows.clear();
        self.comp_links.clear();
        self.touched_links.clear();
    }

    /// Grow `comp_links`/`comp_flows` to the full connected component:
    /// every flow of a component link is in the component, and every
    /// link of a component flow is a component link.
    fn expand_component(&mut self) {
        let mut i = 0;
        while i < self.comp_links.len() {
            let r = self.comp_links[i];
            i += 1;
            for idx in 0..self.link_flows[r].len() {
                let (_, slot) = self.link_flows[r][idx];
                let flow = &mut self.slab[slot as usize];
                if flow.visited == self.epoch {
                    continue;
                }
                flow.visited = self.epoch;
                self.comp_flows.push(slot);
                for &l in &flow.path {
                    if !self.in_comp_link[l] {
                        self.in_comp_link[l] = true;
                        self.comp_links.push(l);
                    }
                }
            }
        }
    }

    /// Progressive filling restricted to the current component,
    /// replaying the batch solver's arithmetic exactly (see module
    /// docs for the ordering invariants).
    fn solve_component(&mut self) -> SolveReport {
        // Ascending link order reproduces the batch solver's
        // lowest-index tie-break on bottleneck selection.
        self.comp_links.sort_unstable();
        for &r in &self.comp_links {
            self.users[r] = self.link_flows[r].len() as u32;
            self.residual[r] = self.capacities[r];
        }
        // Ceiling candidates in (cap, key) order: the batch solver
        // appends one synthetic resource per capped flow in key order,
        // so equal ceilings break ties towards the smaller key, and a
        // physical link beats an equal ceiling (scanned first). The
        // cursor walks the persistent global list, skipping flows
        // outside this component without consuming them — `cap_idx` is
        // solve-local, so other components are unaffected.
        let mut cap_idx = 0usize;
        let mut iterations = 0u64;
        loop {
            // Bottleneck among component links with unfrozen flows.
            let mut best: Option<(usize, f64)> = None;
            for &r in &self.comp_links {
                if self.users[r] > 0 {
                    let share = self.residual[r].max(0.0) / f64::from(self.users[r]);
                    if best.is_none_or(|(_, s)| share < s) {
                        best = Some((r, share));
                    }
                }
            }
            // Smallest unfrozen per-flow ceiling in this component.
            while cap_idx < self.capped.len() && {
                let f = &self.slab[self.capped[cap_idx].2 as usize];
                f.visited != self.epoch || f.frozen == self.epoch
            } {
                cap_idx += 1;
            }
            let cap_next = self.capped.get(cap_idx).copied();
            match (best, cap_next) {
                (None, None) => break,
                (Some((r, share)), cap) => {
                    // A ceiling wins only strictly, like a synthetic
                    // resource scanned after all physical ones.
                    if let Some((cap_bits, _, slot)) = cap {
                        if f64::from_bits(cap_bits) < share {
                            iterations += 1;
                            self.freeze_at_cap(slot);
                            cap_idx += 1;
                            continue;
                        }
                    }
                    iterations += 1;
                    self.freeze_link(r, share);
                }
                (None, Some((_, _, slot))) => {
                    iterations += 1;
                    self.freeze_at_cap(slot);
                    cap_idx += 1;
                }
            }
        }
        // Flows with no resources and no finite ceiling never freeze.
        for i in 0..self.comp_flows.len() {
            let slot = self.comp_flows[i];
            let flow = &mut self.slab[slot as usize];
            if flow.frozen != self.epoch {
                flow.rate = f64::INFINITY;
                flow.binding = Bottleneck::Unconstrained;
            }
        }
        // Touched ⊇ component (plus removed flows' links, staged);
        // ascending for deterministic observation order.
        for i in 0..self.comp_links.len() {
            self.touch(self.comp_links[i]);
        }
        self.touched_links.sort_unstable();
        let report = SolveReport {
            flows_solved: self.comp_flows.len() as u64,
            links_solved: self.comp_links.len() as u64,
            iterations,
        };
        // Put `changed()` in ascending key order (discovery order until
        // here) for the callers' sorted-merge update.
        let Self {
            comp_flows, slab, ..
        } = &mut *self;
        comp_flows.sort_unstable_by_key(|&s| slab[s as usize].key);
        report
    }

    /// Freeze every unfrozen flow through `r` at `share`, in ascending
    /// key order, deducting along each flow's path in path order.
    fn freeze_link(&mut self, r: usize, share: f64) {
        for idx in 0..self.link_flows[r].len() {
            let (_, slot) = self.link_flows[r][idx];
            let flow = &mut self.slab[slot as usize];
            if flow.frozen == self.epoch {
                continue;
            }
            flow.frozen = self.epoch;
            // At a physical round every unfrozen flow's ceiling is
            // ≥ share (a smaller one would have won this round), so the
            // min matches the batch solver's post-solve clamp exactly.
            flow.rate = share.min(flow.cap);
            flow.binding = Bottleneck::Link(r);
            for &l in &flow.path {
                self.residual[l] -= share;
                self.users[l] -= 1;
            }
        }
    }

    /// Freeze the single flow in `slot` at its own finite ceiling.
    fn freeze_at_cap(&mut self, slot: u32) {
        let flow = &mut self.slab[slot as usize];
        debug_assert!(flow.frozen != self.epoch);
        flow.frozen = self.epoch;
        let cap = flow.cap;
        flow.rate = cap;
        flow.binding = Bottleneck::RateCap;
        for &l in &flow.path {
            self.residual[l] -= cap;
            self.users[l] -= 1;
        }
    }
}

/// Per-operation drivers: stage one change and settle it at once, the
/// cadence the coalesced settle is measured against.
#[cfg(test)]
impl IncrementalFairShare {
    fn insert(&mut self, key: u64, path: &[usize], rate_cap: f64) -> SolveReport {
        self.stage_insert(key, path, rate_cap);
        self.settle().expect("a change was staged")
    }

    fn remove_batch(&mut self, keys: &[u64]) -> SolveReport {
        for &key in keys {
            self.stage_remove(key);
        }
        self.settle().expect("a change was staged")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairshare::max_min_fair_share_detailed;

    /// The batch-solver formulation FlowNet's batch mode uses: append a
    /// synthetic single-flow resource per finite ceiling (in ascending
    /// key order), solve, clamp by the ceiling, translate bindings.
    /// `flows` must be in ascending key order.
    pub(super) fn batch_reference(
        caps: &[f64],
        flows: &[(u64, Vec<usize>, f64)],
    ) -> Vec<(u64, f64, Bottleneck)> {
        let physical = caps.len();
        let mut capacities = caps.to_vec();
        let paths: Vec<Vec<usize>> = flows
            .iter()
            .map(|(_, path, cap)| {
                let mut p = path.clone();
                if cap.is_finite() {
                    p.push(capacities.len());
                    capacities.push(*cap);
                }
                p
            })
            .collect();
        let fs = max_min_fair_share_detailed(&capacities, &paths);
        flows
            .iter()
            .zip(fs.rates)
            .zip(fs.binding)
            .map(|(((key, _, cap), rate), bind)| {
                let binding = match bind {
                    Some(r) if r < physical => Bottleneck::Link(r),
                    Some(_) => Bottleneck::RateCap,
                    None => Bottleneck::Unconstrained,
                };
                (*key, rate.min(*cap), binding)
            })
            .collect()
    }

    /// Assert the incremental state matches the batch reference over the
    /// given flow set, bit for bit.
    pub(super) fn assert_matches_batch(inc: &IncrementalFairShare, caps: &[f64]) {
        let flows: Vec<(u64, Vec<usize>, f64)> = inc
            .index
            .iter()
            .map(|(&k, &slot)| {
                let f = &inc.slab[slot as usize];
                (k, f.path.clone(), f.cap)
            })
            .collect();
        let expect = batch_reference(caps, &flows);
        for (key, rate, binding) in expect {
            let got_rate = inc.rate(key).expect("flow missing");
            assert_eq!(
                got_rate.to_bits(),
                rate.to_bits(),
                "flow {key}: incremental rate {got_rate} != batch {rate}"
            );
            assert_eq!(inc.binding(key), Some(binding), "flow {key} binding");
        }
    }

    #[test]
    fn classic_three_flow_example() {
        let mut s = IncrementalFairShare::new(vec![10.0, 30.0]);
        s.insert(0, &[0], f64::INFINITY);
        s.insert(1, &[0, 1], f64::INFINITY);
        s.insert(2, &[1], f64::INFINITY);
        assert_eq!(s.rate(1), Some(5.0));
        assert_eq!(s.rate(2), Some(25.0));
        assert_eq!(s.binding(2), Some(Bottleneck::Link(1)));
        s.remove_batch(&[1]);
        assert_eq!(s.rate(0), Some(10.0)); // component re-solved
        assert_eq!(s.rate(2), Some(30.0));
    }

    #[test]
    fn insert_matches_batch_classic() {
        let caps = vec![10.0, 30.0];
        let mut s = IncrementalFairShare::new(caps.clone());
        s.insert(0, &[0], f64::INFINITY);
        assert_matches_batch(&s, &caps);
        s.insert(1, &[0, 1], f64::INFINITY);
        assert_matches_batch(&s, &caps);
        s.insert(2, &[1], f64::INFINITY);
        assert_matches_batch(&s, &caps);
        assert_eq!(s.rate(0), Some(5.0));
        assert_eq!(s.rate(1), Some(5.0));
        assert_eq!(s.rate(2), Some(25.0));
    }

    #[test]
    fn disjoint_components_not_resolved() {
        // Two disjoint links: inserting into one never touches the other.
        let mut s = IncrementalFairShare::new(vec![10.0, 30.0]);
        s.insert(0, &[0], f64::INFINITY);
        let report = s.insert(1, &[1], f64::INFINITY);
        assert_eq!(report.flows_solved, 1, "flow 0 is in another component");
        assert_eq!(report.links_solved, 1);
        assert_eq!(s.touched_links(), &[1]);
        // Joining flow merges the components.
        let report = s.insert(2, &[0, 1], f64::INFINITY);
        assert_eq!(report.flows_solved, 3);
        assert_eq!(report.links_solved, 2);
    }

    #[test]
    fn remove_batch_observes_emptied_links() {
        let mut s = IncrementalFairShare::new(vec![10.0, 30.0]);
        s.insert(0, &[0, 1], f64::INFINITY);
        let report = s.remove_batch(&[0]);
        // Nothing left to solve, but both links changed state.
        assert_eq!(report.flows_solved, 0);
        assert_eq!(s.touched_links(), &[0, 1]);
        assert!(s.link_flows.iter().all(Vec::is_empty));
        assert_eq!(s.observe_link(0), (0.0, 0, false));
    }

    #[test]
    fn slots_are_reused_after_removal() {
        // Slab slots freed by removals are recycled by later inserts,
        // and the recycled state solves exactly.
        let caps = vec![100.0];
        let mut s = IncrementalFairShare::new(caps.clone());
        s.insert(0, &[0], 30.0);
        s.insert(1, &[0], f64::INFINITY);
        s.remove_batch(&[0]);
        assert_eq!(s.slab.len(), 2);
        s.insert(2, &[0], 10.0);
        assert_eq!(s.slab.len(), 2, "freed slot must be recycled");
        assert_matches_batch(&s, &caps);
        assert_eq!(s.rate(2), Some(10.0));
        assert_eq!(s.rate(1), Some(90.0));
    }

    #[test]
    fn rate_caps_match_synthetic_resources() {
        // Flow 0 capped below its fair share, flow 1 uncapped: the
        // leftover redistributes exactly as with a synthetic resource.
        let caps = vec![100.0];
        let mut s = IncrementalFairShare::new(caps.clone());
        s.insert(0, &[0], 20.0);
        s.insert(1, &[0], f64::INFINITY);
        assert_matches_batch(&s, &caps);
        assert_eq!(s.rate(0), Some(20.0));
        assert_eq!(s.binding(0), Some(Bottleneck::RateCap));
        assert_eq!(s.rate(1), Some(80.0));
        assert_eq!(s.binding(1), Some(Bottleneck::Link(0)));
    }

    #[test]
    fn equal_cap_and_link_share_prefers_link() {
        // Two flows share a 80 MB/s link (share 40); flow 0's ceiling is
        // exactly 40: the physical link wins the tie, like a synthetic
        // resource scanned after all physical ones.
        let caps = vec![80.0];
        let mut s = IncrementalFairShare::new(caps.clone());
        s.insert(0, &[0], 40.0);
        s.insert(1, &[0], f64::INFINITY);
        assert_matches_batch(&s, &caps);
        assert_eq!(s.binding(0), Some(Bottleneck::Link(0)));
        assert_eq!(s.binding(1), Some(Bottleneck::Link(0)));
    }

    #[test]
    fn zero_capacity_starves_members() {
        let caps = vec![0.0, 100.0];
        let mut s = IncrementalFairShare::new(caps.clone());
        s.insert(0, &[0, 1], f64::INFINITY);
        s.insert(1, &[1], f64::INFINITY);
        assert_matches_batch(&s, &caps);
        assert_eq!(s.rate(0), Some(0.0));
        assert_eq!(s.binding(0), Some(Bottleneck::Link(0)));
        // The healthy flow gets the full second link.
        assert_eq!(s.rate(1), Some(100.0));
    }

    #[test]
    fn empty_path_flows() {
        let caps = vec![10.0];
        let mut s = IncrementalFairShare::new(caps.clone());
        // Finite ceiling, no links: frozen at the ceiling.
        s.insert(0, &[], 4000.0);
        assert_eq!(s.rate(0), Some(4000.0));
        assert_eq!(s.binding(0), Some(Bottleneck::RateCap));
        // No ceiling, no links: unconstrained.
        s.insert(1, &[], f64::INFINITY);
        assert_eq!(s.rate(1), Some(f64::INFINITY));
        assert_eq!(s.binding(1), Some(Bottleneck::Unconstrained));
        assert_matches_batch(&s, &caps);
    }

    #[test]
    fn staged_changes_settle_once() {
        let caps = vec![10.0, 30.0, 50.0];
        let mut s = IncrementalFairShare::new(caps.clone());
        assert_eq!(s.settle(), None, "nothing staged");
        s.stage_insert(0, &[0], f64::INFINITY);
        s.stage_insert(1, &[0, 1], f64::INFINITY);
        s.stage_insert(2, &[2], f64::INFINITY);
        assert_eq!(s.rate(1), Some(0.0), "unsettled");
        let report = s.settle().unwrap();
        // One solve over both components: {0, 1} on links 0–1, {2} on 2.
        assert_eq!(report.flows_solved, 3);
        assert_eq!(report.links_solved, 3);
        assert_eq!(s.touched_links(), &[0, 1, 2]);
        assert_matches_batch(&s, &caps);
        assert_eq!(s.settle(), None, "already settled");
        assert_eq!(s.touched_links(), &[0, 1, 2], "outputs kept");
        // Removals and inserts staged together settle as one batch.
        s.stage_remove(0);
        s.stage_insert(3, &[1], 5.0);
        let report = s.settle().unwrap();
        assert_eq!(report.flows_solved, 2);
        assert_eq!(s.touched_links(), &[0, 1]);
        assert_matches_batch(&s, &caps);
        assert_eq!(s.rate(3), Some(5.0));
    }

    #[test]
    fn removing_an_unsettled_flow_leaves_no_trace() {
        let caps = vec![10.0, 30.0];
        let mut s = IncrementalFairShare::new(caps.clone());
        s.insert(0, &[0], f64::INFINITY);
        // Staged and removed before any settle: pathless and on links.
        s.stage_insert(1, &[], 7.0);
        s.stage_insert(2, &[0, 1], 3.0);
        s.stage_remove(1);
        s.stage_remove(2);
        // A recycled slot must not resurrect the removed pathless flow.
        s.stage_insert(3, &[1], f64::INFINITY);
        let report = s.settle().unwrap();
        assert_eq!(report.flows_solved, 2, "flows 0 and 3");
        assert_eq!(s.touched_links(), &[0, 1]);
        assert_eq!(s.rate(1), None);
        assert_eq!(s.rate(2), None);
        assert!(s.capped.is_empty());
        assert_matches_batch(&s, &caps);
        assert_eq!(s.changed().map(|(k, ..)| k).collect::<Vec<_>>(), [0, 3]);
    }

    #[test]
    #[should_panic(expected = "duplicate resource")]
    fn duplicate_path_entry_rejected() {
        let mut s = IncrementalFairShare::new(vec![10.0]);
        s.insert(0, &[0, 0], f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn duplicate_key_rejected() {
        let mut s = IncrementalFairShare::new(vec![10.0]);
        s.insert(0, &[0], f64::INFINITY);
        s.insert(0, &[0], f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "removing unknown flow key")]
    fn unknown_removal_rejected() {
        let mut s = IncrementalFairShare::new(vec![10.0]);
        s.remove_batch(&[3]);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{assert_matches_batch, batch_reference};
    use super::*;
    use proptest::prelude::*;

    /// Random solver instances: up to 6 resources with capacities in
    /// [0, 1000] (zero = failed link), up to 10 flows each traversing a
    /// random duplicate-free resource subset in random order, with an
    /// infinite or finite per-flow ceiling.
    #[allow(clippy::type_complexity)]
    fn instances() -> impl Strategy<Value = (Vec<f64>, Vec<(Vec<usize>, f64)>)> {
        (1usize..=6).prop_flat_map(|nr| {
            (
                // ~1 in 8 links is dead (capacity exactly 0) so the
                // starvation corner gets real coverage.
                proptest::collection::vec((0u8..8, 0.0f64..1000.0), nr),
                proptest::collection::vec(
                    (
                        proptest::collection::vec(0usize..nr, 0usize..=4),
                        any::<bool>(),
                        0.5f64..500.0,
                    ),
                    0usize..=10,
                ),
            )
                .prop_map(|(caps, raw)| {
                    let caps = caps
                        .into_iter()
                        .map(|(die, c)| if die == 0 { 0.0 } else { c })
                        .collect();
                    let flows = raw
                        .into_iter()
                        .map(|(path, capped, cap)| {
                            // Keep first occurrences only: the solver
                            // rejects duplicate path entries.
                            let mut dedup: Vec<usize> = Vec::new();
                            for r in path {
                                if !dedup.contains(&r) {
                                    dedup.push(r);
                                }
                            }
                            (dedup, if capped { cap } else { f64::INFINITY })
                        })
                        .collect();
                    (caps, flows)
                })
        })
    }

    proptest! {
        /// After every insert, the incremental state is bit-identical to
        /// a from-scratch batch solve of the full flow set (rates via
        /// `to_bits`, bindings exactly).
        #[test]
        fn inserts_match_batch((caps, flows) in instances()) {
            let mut s = IncrementalFairShare::new(caps.clone());
            for (key, (path, cap)) in flows.into_iter().enumerate() {
                s.insert(key as u64, &path, cap);
                assert_matches_batch(&s, &caps);
            }
        }

        /// Removing a random batch of flows leaves the survivors
        /// bit-identical to a batch solve over just the survivors, and
        /// inserts after the removal stay exact.
        #[test]
        fn removals_match_batch(
            (caps, flows) in instances(),
            selector in proptest::collection::vec(any::<bool>(), 10),
        ) {
            let mut s = IncrementalFairShare::new(caps.clone());
            for (key, (path, cap)) in flows.iter().enumerate() {
                s.insert(key as u64, path, *cap);
            }
            let doomed: Vec<u64> = (0..flows.len() as u64)
                .filter(|&k| selector[k as usize])
                .collect();
            if !doomed.is_empty() {
                s.remove_batch(&doomed);
            }
            assert_matches_batch(&s, &caps);
            // One more arrival after the removal batch.
            s.insert(flows.len() as u64, &[], 7.0);
            assert_matches_batch(&s, &caps);
        }

        /// Random groups of inserts and removals, each group staged and
        /// settled once, leave the state bit-identical to a batch solve
        /// of the surviving flows after every settle.
        #[test]
        fn coalesced_groups_match_batch(
            (caps, flows) in instances(),
            plan in proptest::collection::vec((any::<bool>(), 0usize..10, 0usize..3), 0..30),
        ) {
            let mut s = IncrementalFairShare::new(caps.clone());
            let mut live: Vec<u64> = Vec::new();
            let mut next = 0u64;
            for (remove, pick, group_end) in plan {
                if remove && !live.is_empty() {
                    let key = live.remove(pick % live.len());
                    s.stage_remove(key);
                } else if !flows.is_empty() {
                    let (path, cap) = &flows[pick % flows.len()];
                    s.stage_insert(next, path, *cap);
                    live.push(next);
                    next += 1;
                }
                if group_end == 0 {
                    s.settle();
                    assert_matches_batch(&s, &caps);
                }
            }
            s.settle();
            assert_matches_batch(&s, &caps);
        }

        /// The same operation sequence produces identical `SolveReport`s
        /// and identical `touched_links` on every run — the effort
        /// counters exported via `prof.solver.*` are deterministic.
        #[test]
        fn reports_are_deterministic((caps, flows) in instances()) {
            let run = || {
                let mut s = IncrementalFairShare::new(caps.clone());
                let mut log = Vec::new();
                for (key, (path, cap)) in flows.iter().enumerate() {
                    log.push(s.insert(key as u64, path, *cap));
                    log.push(SolveReport {
                        flows_solved: 0,
                        links_solved: s.touched_links().len() as u64,
                        iterations: 0,
                    });
                }
                if !flows.is_empty() {
                    log.push(s.remove_batch(&[0]));
                }
                log
            };
            prop_assert_eq!(run(), run());
        }

        /// `observe_link` matches a fresh whole-net scan: summing member
        /// rates in ascending key order — the same fp addition order the
        /// batch observation path uses.
        #[test]
        fn observation_matches_full_scan((caps, flows) in instances()) {
            let mut s = IncrementalFairShare::new(caps.clone());
            for (key, (path, cap)) in flows.iter().enumerate() {
                s.insert(key as u64, path, *cap);
            }
            let batch: Vec<(u64, Vec<usize>, f64)> = flows
                .iter()
                .enumerate()
                .map(|(k, (p, c))| (k as u64, p.clone(), *c))
                .collect();
            let solved = batch_reference(&caps, &batch);
            for r in 0..caps.len() {
                let mut rate_sum = 0.0f64;
                let mut active = 0u32;
                let mut binding = false;
                for ((_, path, _), (_, rate, bind)) in batch.iter().zip(&solved) {
                    if path.contains(&r) {
                        rate_sum += rate;
                        active += 1;
                        binding |= *bind == Bottleneck::Link(r);
                    }
                }
                let (got_sum, got_active, got_binding) = s.observe_link(r);
                prop_assert_eq!(got_sum.to_bits(), rate_sum.to_bits(), "link {} rate sum", r);
                prop_assert_eq!(got_active, active, "link {} active", r);
                prop_assert_eq!(got_binding, binding, "link {} binding", r);
            }
        }
    }
}
