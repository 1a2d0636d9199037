//! NVD4Q: node virtualization for QoS (paper §3.3, Algorithm 2).
//!
//! Naively densifying a Zigbee deployment *hurts*: the protocol greedily
//! hops to the nearest node, inflating a 10-node chain's 9 jumps into
//! ~25 (Figure 7). NVD4Q instead keeps the *logical* topology fixed:
//! each logical node is implemented by a set of physical **clones**
//! that share the NVRF controller state (channel, routes, association
//! lists — cloneable precisely because it lives in nonvolatile
//! registers) and take turns by phase-offset time-division
//! multiplexing. Each physical node therefore activates `1/M` as often,
//! giving it `M×` longer to accumulate energy per activation — the
//! mechanism behind Figure 13's low-power QoS gains.

#![expect(
    clippy::indexing_slicing,
    reason = "clone-group tables sized to the multiplex factor"
)]

use neofog_net::slots::{clone_schedules, SlotSchedule};
use neofog_rf::{NvRf, RadioCost};
use neofog_types::{LogicalId, NeoFogError, NodeId, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The clones implementing one logical node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CloneSet {
    /// The logical node these clones implement.
    pub logical: LogicalId,
    /// Member physical nodes, in phase order (member `k` wakes at
    /// slots ≡ k mod M).
    pub members: Vec<NodeId>,
    /// Per-member schedules.
    pub schedules: Vec<SlotSchedule>,
}

impl CloneSet {
    /// Creates a clone set over the given members.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    #[must_use]
    pub fn new(logical: LogicalId, members: Vec<NodeId>) -> Self {
        assert!(!members.is_empty(), "a clone set needs at least one member");
        let schedules = clone_schedules(members.len() as u32);
        CloneSet {
            logical,
            members,
            schedules,
        }
    }

    /// The multiplexing factor `M`.
    #[must_use]
    pub fn factor(&self) -> usize {
        self.members.len()
    }

    /// The physical node on duty at an absolute slot.
    #[must_use]
    pub fn active_member(&self, slot: u64) -> NodeId {
        let k = (slot % self.members.len() as u64) as usize;
        self.members[k]
    }

    /// The schedule of a given member.
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::NotFound`] if the node is not a member.
    pub fn schedule_of(&self, node: NodeId) -> Result<SlotSchedule> {
        let idx = self
            .members
            .iter()
            .position(|&m| m == node)
            .ok_or_else(|| NeoFogError::not_found(format!("{node} in clone set")))?;
        Ok(self.schedules[idx])
    }
}

/// Manages clone sets for a network and implements Algorithm 2's join
/// protocol.
#[derive(Debug, Clone, Default)]
pub struct VirtualizationManager {
    sets: Vec<CloneSet>,
    by_member: BTreeMap<NodeId, usize>,
}

impl VirtualizationManager {
    /// Creates an empty manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds uniform clone sets: logical node `i` of `logical_count`
    /// is implemented by `factor` physical nodes with consecutive ids
    /// (`i·factor .. (i+1)·factor`). This is the Figure 12/13 sweep
    /// configuration (100 % = factor 1, 300 % = factor 3, ...).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[must_use]
    pub fn uniform(logical_count: u32, factor: u32) -> Self {
        assert!(factor > 0, "multiplexing factor must be positive");
        let mut mgr = Self::new();
        for l in 0..logical_count {
            let members: Vec<NodeId> = (0..factor).map(|k| NodeId::new(l * factor + k)).collect();
            mgr.add_set(CloneSet::new(LogicalId::new(l), members));
        }
        mgr
    }

    /// Registers a clone set.
    ///
    /// # Panics
    ///
    /// Panics if any member already belongs to another set.
    pub fn add_set(&mut self, set: CloneSet) {
        let idx = self.sets.len();
        for &m in &set.members {
            let prev = self.by_member.insert(m, idx);
            assert!(prev.is_none(), "node {m} already in a clone set");
        }
        self.sets.push(set);
    }

    /// All clone sets.
    #[must_use]
    pub fn sets(&self) -> &[CloneSet] {
        &self.sets
    }

    /// The clone set a physical node belongs to, if any.
    #[must_use]
    pub fn set_of(&self, node: NodeId) -> Option<&CloneSet> {
        self.by_member.get(&node).map(|&i| &self.sets[i])
    }

    /// Algorithm 2 lines 1–4, executed on `joiner`: open the NVRF,
    /// clone the nearest member's controller state, synchronize the
    /// timer, get a unique phase. Returns the radio cost of the clone
    /// operation.
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::NotFound`] if `target_set` does not
    /// exist, or an error from the NVRF clone if the source is
    /// unconfigured.
    pub fn join(
        &mut self,
        logical: LogicalId,
        joiner_id: NodeId,
        joiner_rf: &mut NvRf,
        source_rf: &NvRf,
    ) -> Result<RadioCost> {
        let idx = self
            .sets
            .iter()
            .position(|s| s.logical == logical)
            .ok_or_else(|| NeoFogError::not_found(format!("clone set {logical}")))?;
        if self.by_member.contains_key(&joiner_id) {
            return Err(NeoFogError::invalid_config(format!(
                "{joiner_id} already belongs to a clone set"
            )));
        }
        // Clone the NVRF state (channel, network epoch, association).
        let cost = joiner_rf.clone_state_from(source_rf)?;
        // Extend the set and recompute the phase partition: the clones
        // of one logical node share the interval M and occupy phases
        // 0..M uniquely.
        let set = &mut self.sets[idx];
        set.members.push(joiner_id);
        set.schedules = clone_schedules(set.members.len() as u32);
        let m = set.schedules[set.members.len() - 1];
        joiner_rf.set_schedule(m.interval(), m.phase())?;
        self.by_member.insert(joiner_id, idx);
        // Existing members' NVRFs get the new interval at their next
        // software-requested update (Algorithm 2 line 6); the manager
        // records it immediately.
        Ok(cost)
    }

    /// Total physical nodes managed.
    #[must_use]
    pub fn physical_count(&self) -> usize {
        self.by_member.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neofog_rf::{RadioModel, RfConfig};

    #[test]
    fn uniform_sets_partition_ids() {
        let mgr = VirtualizationManager::uniform(10, 3);
        assert_eq!(mgr.sets().len(), 10);
        assert_eq!(mgr.physical_count(), 30);
        let set = mgr.set_of(NodeId::new(7)).unwrap();
        assert_eq!(set.logical, LogicalId::new(2));
        assert_eq!(
            set.members,
            vec![NodeId::new(6), NodeId::new(7), NodeId::new(8)]
        );
    }

    #[test]
    fn exactly_one_clone_active_per_slot() {
        let set = CloneSet::new(
            LogicalId::new(0),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
        );
        for slot in 0..12u64 {
            let active = set.active_member(slot);
            let awake: Vec<NodeId> = set
                .members
                .iter()
                .zip(&set.schedules)
                .filter(|(_, s)| s.wakes_at(slot))
                .map(|(&m, _)| m)
                .collect();
            assert_eq!(awake, vec![active], "slot {slot}");
        }
    }

    #[test]
    fn members_rotate_round_robin() {
        let set = CloneSet::new(LogicalId::new(0), vec![NodeId::new(4), NodeId::new(5)]);
        assert_eq!(set.active_member(0), NodeId::new(4));
        assert_eq!(set.active_member(1), NodeId::new(5));
        assert_eq!(set.active_member(2), NodeId::new(4));
    }

    #[test]
    fn join_clones_state_and_assigns_phase() {
        let mut mgr = VirtualizationManager::new();
        mgr.add_set(CloneSet::new(LogicalId::new(0), vec![NodeId::new(0)]));
        let mut source = NvRf::paper_default();
        source.initialize(RfConfig {
            channel: 20,
            ..RfConfig::new(5)
        });
        let mut joiner = NvRf::paper_default();
        let cost = mgr
            .join(LogicalId::new(0), NodeId::new(1), &mut joiner, &source)
            .unwrap();
        assert!(cost.time > neofog_types::Duration::ZERO);
        assert_eq!(joiner.config().unwrap().channel, 20);
        assert_eq!(joiner.config().unwrap().wake_interval_ticks, 2);
        assert_eq!(joiner.config().unwrap().phase_offset_ticks, 1);
        let set = mgr.set_of(NodeId::new(1)).unwrap();
        assert_eq!(set.factor(), 2);
    }

    #[test]
    fn join_rejects_double_membership() {
        let mut mgr = VirtualizationManager::uniform(1, 2);
        let mut src = NvRf::paper_default();
        src.initialize(RfConfig::new(1));
        let mut rf = NvRf::paper_default();
        let err = mgr
            .join(LogicalId::new(0), NodeId::new(1), &mut rf, &src)
            .unwrap_err();
        assert!(matches!(err, NeoFogError::InvalidConfig { .. }));
    }

    #[test]
    fn join_requires_configured_source() {
        let mut mgr = VirtualizationManager::uniform(1, 1);
        let src = NvRf::paper_default(); // never initialized
        let mut rf = NvRf::paper_default();
        assert!(mgr
            .join(LogicalId::new(0), NodeId::new(9), &mut rf, &src)
            .is_err());
    }

    #[test]
    fn unknown_logical_errors() {
        let mut mgr = VirtualizationManager::new();
        let mut src = NvRf::paper_default();
        src.initialize(RfConfig::new(1));
        let mut rf = NvRf::paper_default();
        assert!(mgr
            .join(LogicalId::new(3), NodeId::new(0), &mut rf, &src)
            .is_err());
    }
}
