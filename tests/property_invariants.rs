//! Property-based tests of the protocol's core invariants, driven by
//! proptest over randomized inputs and schedules.

use bytes::Bytes;
use multiring_paxos::multiring::{MergeDelivery, Merger};
use multiring_paxos::types::{ConsensusValue, GroupId, InstanceId, ProcessId, Value, ValueId};
use proptest::prelude::*;

type Stream = Vec<(InstanceId, ConsensusValue)>;

fn value(group: u16, proposer: u32, seq: u64) -> ConsensusValue {
    ConsensusValue::Values(vec![Value::new(
        ValueId::new(ProcessId::new(proposer), seq),
        GroupId::new(group),
        Bytes::from(vec![0u8; 8]),
    )])
}

/// Builds per-group decision streams: group g gets `lens[g]` instances,
/// a pseudo-random subset of which are skips.
fn streams(lens: &[u8], skip_mask: u64) -> Vec<Stream> {
    lens.iter()
        .enumerate()
        .map(|(g, &len)| {
            (1..=u64::from(len))
                .map(|i| {
                    let cv = if (skip_mask >> ((i + g as u64) % 64)) & 1 == 1 {
                        ConsensusValue::Skip
                    } else {
                        value(g as u16, g as u32 + 1, i)
                    };
                    (InstanceId::new(i), cv)
                })
                .collect()
        })
        .collect()
}

/// A merge over one group per stream.
fn merger(streams: &[Stream]) -> Merger {
    Merger::new((0..streams.len() as u16).map(GroupId::new).collect())
}

/// Pushes, group by group, every instance of `streams` that `keep` selects.
fn feed(m: &mut Merger, streams: &[Stream], keep: impl Fn(GroupId, InstanceId) -> bool) {
    for (g, s) in streams.iter().enumerate() {
        let g = GroupId::new(g as u16);
        for (i, cv) in s.iter().filter(|(i, _)| keep(g, *i)) {
            m.push(g, *i, 1, cv.clone());
        }
    }
}

/// What the merge delivered, in order.
fn order(out: &[MergeDelivery]) -> Vec<(GroupId, InstanceId, ValueId)> {
    out.iter()
        .map(|d| (d.group, d.instance, d.value.id))
        .collect()
}

proptest! {
    /// Determinism: for any pair of arrival interleavings of the same
    /// per-ring streams, two mergers deliver identical sequences.
    #[test]
    fn merge_is_deterministic_under_interleaving(
        lens in proptest::collection::vec(1u8..40, 2..4),
        skip_mask in any::<u64>(),
        order_seed in any::<u64>(),
    ) {
        let streams = streams(&lens, skip_mask);

        // Merger A: strictly group by group.
        let mut a = merger(&streams);
        feed(&mut a, &streams, |_, _| true);
        let out_a = a.poll();

        // Merger B: pseudo-random round-robin interleaving.
        let mut b = merger(&streams);
        let mut out_b = Vec::new();
        let mut cursors = vec![0usize; streams.len()];
        let mut state = order_seed | 1;
        while cursors.iter().zip(&streams).any(|(&c, s)| c < s.len()) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize % streams.len();
            if cursors[pick] < streams[pick].len() {
                let (i, cv) = &streams[pick][cursors[pick]];
                b.push(GroupId::new(pick as u16), *i, 1, cv.clone());
                cursors[pick] += 1;
                out_b.extend(b.poll());
            }
        }

        prop_assert_eq!(order(&out_a), order(&out_b));
    }

    /// Predicate 1 of the paper at every point: the marks are
    /// non-increasing in group order and at most one apart, and the
    /// cursor derived from them names the group the merge consumes from
    /// next.
    #[test]
    fn merge_watermarks_always_satisfy_predicate1(
        lens in proptest::collection::vec(1u8..30, 2..4),
        skip_mask in any::<u64>(),
    ) {
        let streams = streams(&lens, skip_mask);
        let mut merger = merger(&streams);
        for (g, s) in streams.iter().enumerate() {
            for (i, cv) in s {
                let before = merger.watermarks();
                merger.push(GroupId::new(g as u16), *i, 1, cv.clone());
                merger.poll();
                let w = merger.watermarks();
                let marks: Vec<u64> = w.marks.iter().map(|&(_, k)| k.value()).collect();
                prop_assert!(
                    marks.windows(2).all(|p| p[0] >= p[1])
                        && marks[0] <= marks[marks.len() - 1] + 1,
                    "watermark {w} breaks the round-robin shape"
                );
                // The poll took one instance per group per turn from the
                // cursor on: read round the groups from there, none
                // advanced further than the one before it.
                let mut advanced: Vec<u64> =
                    marks.iter().zip(&before.marks).map(|(&k, b)| k - b.1.value()).collect();
                advanced.rotate_left(before.cursor());
                prop_assert!(
                    advanced.windows(2).all(|p| p[0] >= p[1]),
                    "{before} -> {w}: the merge did not start at group {}", before.cursor()
                );
            }
        }
    }

    /// Install/watermark round trip: reconstructing a merger from any
    /// intermediate checkpoint resumes at exactly the same position.
    #[test]
    fn merge_install_resumes_identically(
        lens in proptest::collection::vec(5u8..30, 2..5),
        skip_mask in any::<u64>(),
        cuts in proptest::collection::vec(1u64..5, 4..5),
    ) {
        let streams = streams(&lens, skip_mask);
        // Feed each group a prefix of its own length, so the merge stops
        // at any cursor position, checkpoint, then feed the rest to both
        // the original and a freshly installed merger.
        let mut original = merger(&streams);
        feed(&mut original, &streams, |g, i| i.value() <= cuts[usize::from(g.value())]);
        original.poll();
        let ckpt = original.watermarks();
        let mut restored = merger(&streams);
        restored.install(&ckpt);
        prop_assert_eq!(restored.watermarks(), ckpt.clone());

        // Feed everything after the checkpoint to both.
        feed(&mut original, &streams, |g, i| i > ckpt.mark_of(g));
        feed(&mut restored, &streams, |g, i| i > ckpt.mark_of(g));
        prop_assert_eq!(order(&original.poll()), order(&restored.poll()));
    }

    /// Checkpoint total order (Predicate 1 consequence): any two
    /// checkpoints the merge produces over the same groups are comparable.
    #[test]
    fn valid_checkpoints_are_totally_ordered(
        lens in proptest::collection::vec(10u8..40, 2..3),
        skip_mask in any::<u64>(),
        cut_a in 1u64..9,
        cut_b in 1u64..9,
    ) {
        let streams = streams(&lens, skip_mask);
        let snapshot_at = |cut: u64| {
            let mut m = merger(&streams);
            feed(&mut m, &streams, |_, i| i.value() <= cut);
            m.poll();
            m.watermarks()
        };
        let a = snapshot_at(cut_a);
        let b = snapshot_at(cut_b);
        prop_assert!(
            a.dominates(&b) || b.dominates(&a),
            "checkpoints {a} and {b} are incomparable"
        );
    }
}
