//! Wheel-style scheduling for strictly periodic event streams.
//!
//! A discrete-event simulation of WebWave carries two kinds of events:
//! *irregular* ones (Poisson arrivals, packet hops, message deliveries)
//! and *strictly periodic* ones (each node's gossip timer and diffusion
//! timer). Keeping the periodic streams in the binary heap makes every
//! heap operation pay `O(log total)` for events whose firing order is
//! actually **fixed and cyclic**: all members of a stream share one
//! period, so once sorted by phase they fire forever in the same rotation.
//!
//! [`TimerRing`] exploits that: it stores one `next_fire` per member and a
//! rotation deque. `peek`/`pop`/`rearm` are all `O(1)` (insert scans the
//! rotation from the back, `O(1)` for the usual ascending-phase setup
//! order), and the main heap stays smaller — so the *irregular* events
//! get cheaper too.
//!
//! To merge ring events with heap events deterministically, every fire
//! carries a sequence number allocated from the owning
//! [`EventQueue`](crate::EventQueue) (see
//! [`EventQueue::alloc_seq`](crate::EventQueue::alloc_seq)); comparing
//! `(time, seq)` across sources reproduces exactly the total order a
//! single all-in-one heap would have produced — which is what keeps
//! simulation traces identical to the pre-ring implementation.

use crate::SimTime;
use std::collections::VecDeque;

/// A ring of recurring timers sharing one period.
///
/// # Example
///
/// ```
/// use ww_sim::{SimTime, TimerRing};
///
/// let mut ring = TimerRing::new(SimTime::from_secs(1.0), 2);
/// ring.insert(0, SimTime::from_secs(0.25), 0);
/// ring.insert(1, SimTime::from_secs(0.75), 1);
/// let (t, _seq, member) = ring.peek().unwrap();
/// assert_eq!((t.as_secs(), member), (0.25, 0));
/// let (t, member) = ring.pop().unwrap();
/// ring.rearm(member, 2); // next fire at t + period = 1.25
/// assert_eq!(ring.peek().unwrap().0.as_secs(), 0.75);
/// let _ = t;
/// ```
#[derive(Debug, Clone)]
pub struct TimerRing {
    period: SimTime,
    /// Next fire time per member.
    next: Vec<SimTime>,
    /// Sequence number of the pending fire per member (merge tie-break).
    seq: Vec<u64>,
    /// Members in firing order. Because all members share `period`, a
    /// rearmed member always belongs at the back, keeping this sorted by
    /// `(next, seq)` without any per-event sorting.
    order: VecDeque<usize>,
    /// Per member: whether it sits in `order` (armed), so the armed
    /// checks never scan the rotation.
    armed: Vec<bool>,
}

impl TimerRing {
    /// Creates a ring with the given `period` for up to `members` members
    /// (ids `0..members`).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: SimTime, members: usize) -> Self {
        assert!(period > SimTime::ZERO, "period must be positive");
        TimerRing {
            period,
            next: vec![SimTime::ZERO; members],
            seq: vec![0; members],
            order: VecDeque::with_capacity(members),
            armed: vec![false; members],
        }
    }

    /// The shared period of all members.
    pub fn period(&self) -> SimTime {
        self.period
    }

    /// Arms `member` for its first fire at `first_fire` with merge
    /// sequence `seq`. Members may be inserted in any order.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range or already armed.
    pub fn insert(&mut self, member: usize, first_fire: SimTime, seq: u64) {
        assert!(member < self.next.len(), "member out of range");
        assert!(!self.armed[member], "member {member} is already armed");
        self.armed[member] = true;
        self.next[member] = first_fire;
        self.seq[member] = seq;
        // Keep `order` sorted by (next, seq). Scanning from the back makes
        // the common setup pattern — members inserted in ascending phase
        // order — O(1) per insert instead of a full front scan.
        let pos = self
            .order
            .iter()
            .rposition(|&m| (self.next[m], self.seq[m]) < (first_fire, seq))
            .map_or(0, |p| p + 1);
        self.order.insert(pos, member);
    }

    /// The next fire as `(time, seq, member)`, if any member is armed.
    pub fn peek(&self) -> Option<(SimTime, u64, usize)> {
        self.order.front().map(|&m| (self.next[m], self.seq[m], m))
    }

    /// Takes the front fire, leaving its member *disarmed*; the caller
    /// must [`rearm`](TimerRing::rearm) it (typically at the point in the
    /// event handler where the old code rescheduled the timer, so merge
    /// sequence numbers match the historical all-heap order).
    pub fn pop(&mut self) -> Option<(SimTime, usize)> {
        let m = self.order.pop_front()?;
        self.armed[m] = false;
        Some((self.next[m], m))
    }

    /// Re-arms `member` one period after its previous fire, with merge
    /// sequence `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range or still armed.
    pub fn rearm(&mut self, member: usize, seq: u64) {
        assert!(member < self.next.len(), "member out of range");
        debug_assert!(!self.armed[member], "member {member} is already armed");
        self.armed[member] = true;
        self.next[member] = self.next[member] + self.period;
        self.seq[member] = seq;
        // The rotation is sorted before the push, so checking the new
        // back against its predecessor keeps it sorted after.
        debug_assert!(
            self.order.back().is_none_or(|&b| {
                (self.next[b], self.seq[b]) <= (self.next[member], self.seq[member])
            }),
            "ring rotation out of order"
        );
        self.order.push_back(member);
    }

    /// Grows the ring by one (disarmed) member, returning its id. Arm it
    /// with [`TimerRing::insert`] — a joining node's first fire is set by
    /// the driver at the barrier it joins at.
    pub fn add_member(&mut self) -> usize {
        self.next.push(SimTime::ZERO);
        self.seq.push(0);
        self.armed.push(false);
        self.next.len() - 1
    }

    /// Removes `member` — armed or not — compacting member ids by
    /// swap-remove: the highest id is renumbered into the vacated slot,
    /// keeping its pending fire time, sequence number, and place in the
    /// rotation. This mirrors exactly the id compaction dense per-node
    /// tables apply when a node leaves the simulated world.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range.
    pub fn swap_remove_member(&mut self, member: usize) {
        assert!(member < self.next.len(), "member out of range");
        let last = self.next.len() - 1;
        if self.armed[member] {
            let pos = self.order.iter().position(|&m| m == member);
            self.order
                .remove(pos.expect("armed members sit in the rotation"));
        }
        let renumbered_armed = self.armed[last];
        self.next.swap_remove(member);
        self.seq.swap_remove(member);
        self.armed.swap_remove(member);
        if member != last && renumbered_armed {
            for m in self.order.iter_mut() {
                if *m == last {
                    *m = member;
                }
            }
        }
    }

    /// The pending `(fire time, merge seq)` of `member`, or `None` if
    /// the member is currently disarmed (popped but not yet rearmed).
    /// Used by shard migration, which must carry a node's pending timer
    /// fire — phase included — into its new shard's ring.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range.
    pub fn fire_entry(&self, member: usize) -> Option<(SimTime, u64)> {
        assert!(member < self.next.len(), "member out of range");
        self.armed[member].then(|| (self.next[member], self.seq[member]))
    }

    /// Total member count (armed or not).
    pub fn members(&self) -> usize {
        self.next.len()
    }

    /// Number of armed members.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when no member is armed.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_phase_order_and_rotates() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 3);
        // Insert out of phase order; ring sorts at setup.
        ring.insert(2, SimTime::from_secs(0.9), 2);
        ring.insert(0, SimTime::from_secs(0.1), 0);
        ring.insert(1, SimTime::from_secs(0.5), 1);
        let mut fired = Vec::new();
        for seq in 3..12 {
            let (t, m) = ring.pop().unwrap();
            fired.push((t.as_secs(), m));
            ring.rearm(m, seq);
        }
        assert_eq!(
            fired,
            vec![
                (0.1, 0),
                (0.5, 1),
                (0.9, 2),
                (1.1, 0),
                (1.5, 1),
                (1.9, 2),
                (2.1, 0),
                (2.5, 1),
                (2.9, 2),
            ]
        );
    }

    #[test]
    fn equal_phases_keep_insertion_seq_order() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 2);
        let t0 = SimTime::from_secs(0.5);
        ring.insert(1, t0, 7);
        ring.insert(0, t0, 9);
        // Lower seq fires first on ties.
        assert_eq!(ring.pop().unwrap().1, 1);
        ring.rearm(1, 10);
        assert_eq!(ring.pop().unwrap().1, 0);
        ring.rearm(0, 11);
        // Rotation preserved.
        assert_eq!(ring.pop().unwrap().1, 1);
    }

    #[test]
    fn peek_matches_pop() {
        let mut ring = TimerRing::new(SimTime::from_millis(250.0), 1);
        ring.insert(0, SimTime::from_millis(100.0), 4);
        let (pt, pseq, pm) = ring.peek().unwrap();
        let (t, m) = ring.pop().unwrap();
        assert_eq!((pt, pm), (t, m));
        assert_eq!(pseq, 4);
        assert!(ring.is_empty());
        ring.rearm(0, 5);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.peek().unwrap().0, SimTime::from_millis(350.0));
    }

    #[test]
    fn members_join_mid_rotation() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 2);
        ring.insert(0, SimTime::from_secs(0.2), 0);
        ring.insert(1, SimTime::from_secs(0.7), 1);
        let (_, m) = ring.pop().unwrap();
        ring.rearm(m, 2); // member 0 next fires at 1.2
        let newcomer = ring.add_member();
        assert_eq!(newcomer, 2);
        assert_eq!(ring.members(), 3);
        // First fire between the existing members' next fires.
        ring.insert(newcomer, SimTime::from_secs(0.9), 3);
        let fired: Vec<usize> = (4..8)
            .map(|seq| {
                let (_, m) = ring.pop().unwrap();
                ring.rearm(m, seq);
                m
            })
            .collect();
        assert_eq!(fired, vec![1, 2, 0, 1]);
    }

    #[test]
    fn swap_remove_member_renumbers_last() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 3);
        ring.insert(0, SimTime::from_secs(0.1), 0);
        ring.insert(1, SimTime::from_secs(0.5), 1);
        ring.insert(2, SimTime::from_secs(0.9), 2);
        // Member 1 leaves; member 2 takes id 1, keeping its 0.9 fire.
        ring.swap_remove_member(1);
        assert_eq!(ring.members(), 2);
        let (t, m) = ring.pop().unwrap();
        assert_eq!((t.as_secs(), m), (0.1, 0));
        ring.rearm(0, 3);
        let (t, m) = ring.pop().unwrap();
        assert_eq!((t.as_secs(), m), (0.9, 1));
        ring.rearm(1, 4);
        // Rotation continues with the renumbered member.
        let (t, m) = ring.pop().unwrap();
        assert_eq!((t.as_secs(), m), (1.1, 0));
    }

    #[test]
    fn swap_remove_last_member_truncates() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 2);
        ring.insert(0, SimTime::from_secs(0.1), 0);
        ring.insert(1, SimTime::from_secs(0.5), 1);
        ring.swap_remove_member(1);
        assert_eq!(ring.members(), 1);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.pop().unwrap().1, 0);
    }

    #[test]
    fn armed_state_follows_a_member_through_every_operation() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 2);
        let armed = |r: &TimerRing, m: usize| r.fire_entry(m).is_some();
        assert!(!armed(&ring, 0) && !armed(&ring, 1));
        ring.insert(0, SimTime::from_secs(0.2), 0);
        ring.insert(1, SimTime::from_secs(0.6), 1);
        assert_eq!(ring.fire_entry(1), Some((SimTime::from_secs(0.6), 1)));
        // pop disarms, rearm re-arms.
        let (_, m) = ring.pop().unwrap();
        assert_eq!(m, 0);
        assert!(!armed(&ring, 0) && armed(&ring, 1));
        ring.rearm(0, 2);
        assert_eq!(ring.fire_entry(0), Some((SimTime::from_secs(1.2), 2)));
        // A newcomer starts disarmed until inserted.
        let newcomer = ring.add_member();
        assert!(!armed(&ring, newcomer));
        ring.insert(newcomer, SimTime::from_secs(0.9), 3);
        assert!(armed(&ring, newcomer));
        // Removing an armed member renumbers the armed last one into it.
        ring.swap_remove_member(0);
        assert_eq!(ring.members(), 2);
        assert_eq!(ring.fire_entry(0), Some((SimTime::from_secs(0.9), 3)));
        assert!(armed(&ring, 1));
        // Removing while the renumbered last member is disarmed keeps it
        // disarmed under its new id, and it can be re-armed there.
        let (_, m) = ring.pop().unwrap();
        assert_eq!(m, 1);
        ring.swap_remove_member(0);
        assert_eq!((ring.members(), ring.len()), (1, 0));
        assert!(!armed(&ring, 0));
        ring.rearm(0, 4);
        assert_eq!(ring.fire_entry(0), Some((SimTime::from_secs(1.6), 4)));
        assert_eq!(ring.pop(), Some((SimTime::from_secs(1.6), 0)));
    }

    #[test]
    #[should_panic(expected = "already armed")]
    fn double_insert_panics() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 1);
        ring.insert(0, SimTime::ZERO, 0);
        ring.insert(0, SimTime::ZERO, 1);
    }
}
