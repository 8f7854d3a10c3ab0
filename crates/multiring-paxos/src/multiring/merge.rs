//! The deterministic merge across subscribed rings.

use crate::recovery::CheckpointId;
use crate::types::{ConsensusValue, GroupId, InstanceId, ProcessId, SeqFilter, Value};
use std::collections::{BTreeMap, VecDeque};

/// One atomic-multicast delivery produced by the merge.
#[derive(Clone, PartialEq, Debug)]
pub struct MergeDelivery {
    /// Group the value was multicast to.
    pub group: GroupId,
    /// Consensus instance (of the group's ring) that decided it.
    pub instance: InstanceId,
    /// The value.
    pub value: Value,
}

#[derive(Hash, Debug)]
struct GroupQueue {
    group: GroupId,
    /// Decided ranges in instance order; contiguous from `next_expected`.
    ranges: VecDeque<(InstanceId, u32, ConsensusValue)>,
    /// Next instance the merge will consume from this group.
    next_expected: InstanceId,
}

/// Deterministic round-robin merge over the decision streams of the
/// subscribed groups (Section 4 of the paper).
///
/// Instances are consumed one at a time from each group, in group-id
/// order (the paper's `M = 1`, the setting of its evaluation). The
/// merge *blocks* on a group with no decided instance available — that
/// is what makes it deterministic — so rate leveling must keep every
/// subscribed ring moving.
#[derive(Hash, Debug)]
pub struct Merger {
    queues: Vec<GroupQueue>,
    /// Index of the group the merge consumes from next.
    cursor_group: usize,
    /// Exactly-once filter per (group, proposer): suppresses duplicate
    /// deliveries after coordinator failover re-proposals while still
    /// accepting old values that were overtaken by newer ones.
    delivered_seq: BTreeMap<(GroupId, ProcessId), SeqFilter>,
}

impl Merger {
    /// A merge over `groups` (sorted ascending internally).
    pub fn new(mut groups: Vec<GroupId>) -> Self {
        groups.sort_unstable();
        groups.dedup();
        Self {
            queues: groups
                .into_iter()
                .map(|group| GroupQueue {
                    group,
                    ranges: VecDeque::new(),
                    next_expected: InstanceId::new(1),
                })
                .collect(),
            cursor_group: 0,
            delivered_seq: BTreeMap::new(),
        }
    }

    /// The groups being merged, in round-robin order.
    pub fn groups(&self) -> Vec<GroupId> {
        self.queues.iter().map(|q| q.group).collect()
    }

    /// Offers a decided range of `group`. Ranges must arrive in instance
    /// order and contiguously (the per-ring learner guarantees this);
    /// stale or duplicate ranges are ignored.
    pub fn push(&mut self, group: GroupId, first: InstanceId, count: u32, value: ConsensusValue) {
        let Some(q) = self.queues.iter_mut().find(|q| q.group == group) else {
            return;
        };
        let last = first.plus(u64::from(count) - 1);
        let expected_next = q
            .ranges
            .back()
            .map_or(q.next_expected, |&(f, c, _)| f.plus(u64::from(c)));
        if last < expected_next {
            return; // stale duplicate
        }
        debug_assert_eq!(
            first, expected_next,
            "merge input for {group} must be contiguous"
        );
        q.ranges.push_back((first, count, value));
    }

    /// Runs the merge as far as possible, returning deliveries in the
    /// deterministic order. Returns an empty vector when the merge is
    /// blocked waiting on its current group.
    pub fn poll(&mut self) -> Vec<MergeDelivery> {
        let mut out = Vec::new();
        while let Some(q) = self.queues.get(self.cursor_group) {
            match q.ranges.front() {
                None => break,
                Some((_, count, ConsensusValue::Skip)) if *count > 1 => self.skip_rounds(),
                Some(_) => {}
            }
            let q = &mut self.queues[self.cursor_group];
            let front = q.ranges.front_mut().expect("checked above");
            let instance = q.next_expected;
            debug_assert_eq!(front.0, instance, "queue contiguity invariant");
            q.next_expected = instance.next();
            if matches!(front.2, ConsensusValue::Skip) && front.1 > 1 {
                // A skip range yields one slot per turn, like a decided
                // instance.
                front.0 = q.next_expected;
                front.1 -= 1;
            } else if let Some((_, _, ConsensusValue::Values(values))) = q.ranges.pop_front() {
                for value in values {
                    let fresh = self
                        .delivered_seq
                        .entry((q.group, value.id.proposer))
                        .or_default()
                        .insert(value.id.seq);
                    if fresh {
                        out.push(MergeDelivery {
                            group: q.group,
                            instance,
                            value,
                        });
                    }
                }
            }
            self.cursor_group = (self.cursor_group + 1) % self.queues.len();
        }
        out
    }

    /// While every queue opens with a skip range, the walk below only
    /// takes one slot from each per turn: takes `k` full turns at once,
    /// `k` one less than the shortest of those ranges, and leaves the
    /// cursor where it was — the state the walk would reach, in one
    /// step instead of `k × queues`.
    fn skip_rounds(&mut self) {
        let shortest = self.queues.iter().map(|q| match q.ranges.front() {
            Some((_, count, ConsensusValue::Skip)) => *count,
            _ => 1,
        });
        let k = shortest.min().unwrap_or(1) - 1;
        if k == 0 {
            return;
        }
        for q in &mut self.queues {
            let front = q.ranges.front_mut().expect("every queue opens with a skip");
            front.0 = front.0.plus(u64::from(k));
            front.1 -= k;
            q.next_expected = front.0;
        }
    }

    /// The merge position as a checkpoint id: per-group consumed
    /// watermarks, from which [`CheckpointId::cursor`] recovers the
    /// cursor.
    pub fn watermarks(&self) -> CheckpointId {
        CheckpointId {
            marks: self
                .queues
                .iter()
                .map(|q| (q.group, InstanceId::new(q.next_expected.value() - 1)))
                .collect(),
        }
    }

    /// Repositions the merge at `ckpt` (checkpoint installation during
    /// replica recovery). Buffered ranges at or below the new watermarks
    /// are discarded; straddling skip ranges are clipped.
    pub fn install(&mut self, ckpt: &CheckpointId) {
        for q in &mut self.queues {
            let mark = ckpt.mark_of(q.group);
            if mark.next() <= q.next_expected {
                continue;
            }
            q.next_expected = mark.next();
            while let Some(&(first, count, _)) = q.ranges.front() {
                let last = first.plus(u64::from(count) - 1);
                if last < q.next_expected {
                    q.ranges.pop_front();
                } else if first < q.next_expected {
                    let front = q.ranges.front_mut().expect("front exists");
                    let skip = q.next_expected.value() - first.value();
                    front.0 = q.next_expected;
                    front.1 -= skip as u32;
                    break;
                } else {
                    break;
                }
            }
        }
        self.cursor_group = ckpt.cursor().min(self.queues.len().saturating_sub(1));
    }

    /// Total instances consumed across groups (progress metric).
    pub fn total_consumed(&self) -> u64 {
        self.queues
            .iter()
            .map(|q| q.next_expected.value() - 1)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ValueId;

    fn g(i: u16) -> GroupId {
        GroupId::new(i)
    }

    fn i(n: u64) -> InstanceId {
        InstanceId::new(n)
    }

    fn val(group: u16, proposer: u32, seq: u64) -> ConsensusValue {
        ConsensusValue::Values(vec![Value::new(
            ValueId::new(ProcessId::new(proposer), seq),
            g(group),
            vec![0u8; 4],
        )])
    }

    #[test]
    fn single_group_passthrough() {
        let mut m = Merger::new(vec![g(0)]);
        m.push(g(0), i(1), 1, val(0, 1, 1));
        m.push(g(0), i(2), 1, val(0, 1, 2));
        let out = m.poll();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].instance, i(1));
        assert_eq!(out[1].instance, i(2));
    }

    #[test]
    fn round_robin_across_groups() {
        let mut m = Merger::new(vec![g(1), g(0)]);
        assert_eq!(m.groups(), vec![g(0), g(1)]); // sorted
        m.push(g(0), i(1), 1, val(0, 1, 1));
        m.push(g(1), i(1), 1, val(1, 1, 1));
        m.push(g(0), i(2), 1, val(0, 1, 2));
        m.push(g(1), i(2), 1, val(1, 1, 2));
        let out = m.poll();
        let order: Vec<(u16, u64)> = out
            .iter()
            .map(|d| (d.group.value(), d.instance.value()))
            .collect();
        assert_eq!(order, vec![(0, 1), (1, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn merge_blocks_on_missing_group() {
        let mut m = Merger::new(vec![g(0), g(1)]);
        m.push(g(0), i(1), 1, val(0, 1, 1));
        m.push(g(0), i(2), 1, val(0, 1, 2));
        let out = m.poll();
        // Only g0's first instance: the merge then waits on g1.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].group, g(0));
        // g1 unblocks the rest.
        m.push(g(1), i(1), 1, val(1, 1, 1));
        let out = m.poll();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].group, g(1));
        assert_eq!(out[1].group, g(0));
    }

    #[test]
    fn skips_consume_slots_silently() {
        let mut m = Merger::new(vec![g(0), g(1)]);
        m.push(g(0), i(1), 1, val(0, 1, 1));
        m.push(g(1), i(1), 5, ConsensusValue::Skip);
        m.push(g(0), i(2), 1, val(0, 1, 2));
        let out = m.poll();
        // g0#1, skip, g0#2, then stall on g1 (skips 2..=5 pending? no:
        // skip range of 5 instances: one consumed per turn).
        assert_eq!(out.len(), 2);
        assert_eq!(m.watermarks().mark_of(g(0)), i(2));
        assert_eq!(m.watermarks().mark_of(g(1)), i(2));
    }

    /// One ~20-byte `Decision` decides `u32::MAX` skipped instances; the
    /// merge used to walk them one per turn, holding its node for
    /// minutes (107 s in a debug build).
    #[test]
    fn a_skip_of_u32_max_instances_is_consumed_at_once() {
        #[allow(
            clippy::disallowed_methods,
            reason = "the walk's cost is wall-clock time the test itself spends"
        )]
        let started = std::time::Instant::now();
        for groups in [vec![g(0)], vec![g(0), g(1)]] {
            let mut m = Merger::new(groups.clone());
            for &group in &groups {
                m.push(group, i(1), u32::MAX, ConsensusValue::Skip);
            }
            assert!(m.poll().is_empty());
            for &group in &groups {
                assert_eq!(m.watermarks().mark_of(group), i(u64::from(u32::MAX)));
            }
        }
        assert!(
            started.elapsed().as_secs() < 10,
            "took {:?}",
            started.elapsed()
        );
    }

    fn digest(m: &Merger) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = crate::digest::Fnv1a::new();
        m.hash(&mut h);
        h.finish()
    }

    /// The merge as it was before it took whole turns over skip ranges
    /// at once: one slot per turn.
    fn walk(m: &mut Merger) -> Vec<MergeDelivery> {
        let mut out = Vec::new();
        while let Some(q) = m.queues.get_mut(m.cursor_group) {
            let Some(front) = q.ranges.front_mut() else {
                break;
            };
            let instance = q.next_expected;
            q.next_expected = instance.next();
            if matches!(front.2, ConsensusValue::Skip) && front.1 > 1 {
                front.0 = q.next_expected;
                front.1 -= 1;
            } else if let Some((_, _, ConsensusValue::Values(values))) = q.ranges.pop_front() {
                for value in values {
                    let fresh = m
                        .delivered_seq
                        .entry((q.group, value.id.proposer))
                        .or_default()
                        .insert(value.id.seq);
                    if fresh {
                        out.push(MergeDelivery {
                            group: q.group,
                            instance,
                            value,
                        });
                    }
                }
            }
            m.cursor_group = (m.cursor_group + 1) % m.queues.len();
        }
        out
    }

    /// Taking whole turns over skip ranges at once leaves exactly the
    /// state, hashed as `state_digest` hashes it, and the deliveries of
    /// the walk, whatever has arrived when the merge is polled.
    #[test]
    fn skipping_whole_turns_leaves_the_state_the_walk_leaves() {
        let streams: [&[(u32, bool)]; 3] = [
            &[(5, false), (1, true), (7, false), (1, true), (3, false)],
            &[(3, false), (1, true), (9, false), (2, false)],
            &[(4, false), (4, false), (1, true), (2, false), (6, false)],
        ];
        for poll_after in 0..5 {
            let groups = vec![g(0), g(1), g(2)];
            let (mut fast, mut slow) = (Merger::new(groups.clone()), Merger::new(groups));
            for n in 0..5 {
                for (k, stream) in streams.iter().enumerate() {
                    let Some(&(count, values)) = stream.get(n) else {
                        continue;
                    };
                    let group = g(k as u16);
                    let first = i(1 + stream[..n].iter().map(|&(c, _)| u64::from(c)).sum::<u64>());
                    let value = if values {
                        val(k as u16, 1, n as u64)
                    } else {
                        ConsensusValue::Skip
                    };
                    fast.push(group, first, count, value.clone());
                    slow.push(group, first, count, value);
                }
                if n % (poll_after + 1) == 0 || n == 4 {
                    assert_eq!(fast.poll(), walk(&mut slow));
                    assert_eq!(digest(&fast), digest(&slow), "after {n} pushes");
                }
            }
        }
    }

    #[test]
    fn duplicate_values_suppressed_by_sequence() {
        let mut m = Merger::new(vec![g(0)]);
        m.push(g(0), i(1), 1, val(0, 7, 1));
        // Failover re-proposal of the same value at a later instance.
        m.push(g(0), i(2), 1, val(0, 7, 1));
        m.push(g(0), i(3), 1, val(0, 7, 2));
        let out = m.poll();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value.id.seq, 1);
        assert_eq!(out[1].value.id.seq, 2);
    }

    #[test]
    fn watermarks_roundtrip_through_install() {
        let mut m = Merger::new(vec![g(0), g(1)]);
        m.push(g(0), i(1), 1, val(0, 1, 1));
        m.push(g(1), i(1), 1, val(1, 1, 1));
        m.push(g(0), i(2), 1, val(0, 1, 2));
        m.poll();
        let w = m.watermarks();
        assert_eq!(w.cursor(), 1);

        let mut fresh = Merger::new(vec![g(0), g(1)]);
        fresh.install(&w);
        assert_eq!(fresh.watermarks(), w);
        // Deliveries continue from the installed position.
        fresh.push(g(1), i(2), 1, val(1, 1, 2));
        let out = fresh.poll();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].group, g(1));
        assert_eq!(out[0].instance, i(2));
    }

    #[test]
    fn install_clips_straddling_ranges() {
        let mut m = Merger::new(vec![g(0)]);
        m.push(g(0), i(1), 10, ConsensusValue::Skip);
        let ckpt = CheckpointId {
            marks: vec![(g(0), i(4))],
        };
        m.install(&ckpt);
        m.poll();
        assert_eq!(m.watermarks().mark_of(g(0)), i(10));
    }

    #[test]
    fn stale_pushes_ignored() {
        let mut m = Merger::new(vec![g(0)]);
        m.push(g(0), i(1), 1, val(0, 1, 1));
        m.poll();
        m.push(g(0), i(1), 1, val(0, 1, 1)); // duplicate
        assert!(m.poll().is_empty());
        assert_eq!(m.watermarks().mark_of(g(0)), i(1));
    }

    #[test]
    fn unknown_group_pushes_ignored() {
        let mut m = Merger::new(vec![g(0)]);
        m.push(g(9), i(1), 1, val(9, 1, 1));
        assert!(m.poll().is_empty());
    }

    #[test]
    fn two_mergers_agree_regardless_of_arrival_interleaving() {
        // The determinism property: same per-ring streams, different
        // arrival interleavings, identical output.
        let mut a = Merger::new(vec![g(0), g(1)]);
        let mut b = Merger::new(vec![g(0), g(1)]);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        // a: all of g0 first, then g1.
        for k in 1..=6 {
            a.push(g(0), i(k), 1, val(0, 1, k));
            out_a.extend(a.poll());
        }
        for k in 1..=6 {
            a.push(g(1), i(k), 1, val(1, 2, k));
            out_a.extend(a.poll());
        }
        // b: interleaved arrival.
        for k in 1..=6 {
            b.push(g(1), i(k), 1, val(1, 2, k));
            b.push(g(0), i(k), 1, val(0, 1, k));
            out_b.extend(b.poll());
        }
        let key = |d: &MergeDelivery| (d.group, d.instance, d.value.id);
        assert_eq!(
            out_a.iter().map(key).collect::<Vec<_>>(),
            out_b.iter().map(key).collect::<Vec<_>>()
        );
    }
}
