//! Hosting a [`StateMachine`]: the rules every driver of an engine
//! shares, written once.
//!
//! A [`Host`] owns one state machine and its [`Timers`]. It arms each
//! [`Action::SetTimer`], hands each [`Action::Persist`] to the caller's
//! write and feeds the matching [`Event::PersistDone`] back, in FIFO
//! order, until the activation settles. What it emits, in the order the
//! machine did, is what the environment alone can do: [`Action::Send`],
//! [`Action::TrimStorage`], [`Action::Deliver`] and [`Action::Respond`].
//! A driver keeps only its I/O, its clock and its scheduling: the TCP
//! runtime, the model checker, the in-process benchmark pump and the
//! unit-test pumps all run engines through it. The simulator completes
//! persists on its disk model instead, and keeps the same [`Timers`].

use crate::event::{Action, Event, PersistRecord, StateMachine, TimerKind};
use crate::types::Time;
use std::collections::{BTreeMap, VecDeque};

/// The armed timers of one process: one deadline per [`TimerKind`].
///
/// Re-arming a pending kind replaces its deadline, and the superseded
/// deadline never fires; firing a timer disarms it. Timers due at the
/// same instant fire in `TimerKind` order.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Timers {
    due: BTreeMap<TimerKind, Time>,
}

impl Timers {
    /// Arms `kind` to fire at `due`, replacing any deadline it had.
    pub fn arm(&mut self, kind: TimerKind, due: Time) {
        self.due.insert(kind, due);
    }

    /// The deadline of `kind`, if it is armed.
    pub fn due(&self, kind: TimerKind) -> Option<Time> {
        self.due.get(&kind).copied()
    }

    /// The earliest armed timer, as `(deadline, kind)`.
    pub fn next(&self) -> Option<(Time, TimerKind)> {
        self.due.iter().map(|(&kind, &due)| (due, kind)).min()
    }

    /// Disarms and returns the earliest timer due at or before `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<TimerKind> {
        let (due, kind) = self.next().filter(|&(due, _)| due <= now)?;
        self.expire(kind, due).then_some(kind)
    }

    /// Disarms `kind` if `due` is still its deadline: `false` for a
    /// deadline that a later arm superseded.
    pub fn expire(&mut self, kind: TimerKind, due: Time) -> bool {
        self.due(kind) == Some(due) && self.due.remove(&kind).is_some()
    }

    /// Every armed timer, in `TimerKind` order.
    pub fn iter(&self) -> impl Iterator<Item = (TimerKind, Time)> + '_ {
        self.due.iter().map(|(&kind, &due)| (kind, due))
    }
}

/// One state machine and its timers, driven to the end of each
/// activation.
///
/// Every call takes the current time and two callbacks, run in the
/// order the machine emitted the actions. `write(record, sync)` makes a
/// record durable (flushed when `sync` is set) before it returns, since
/// its completion is fed back at once; `|_, _| {}` keeps stable state
/// in memory. `emit` carries out a `Send`, `TrimStorage`, `Deliver` or
/// `Respond`: an action emitted before a record leaves before that
/// record is written.
#[derive(Debug)]
pub struct Host<S> {
    machine: S,
    timers: Timers,
}

impl<S: StateMachine> Host<S> {
    /// Hosts `machine` with no timer armed.
    pub fn new(machine: S) -> Self {
        Self {
            machine,
            timers: Timers::default(),
        }
    }

    /// The hosted state machine.
    pub fn machine(&self) -> &S {
        &self.machine
    }

    /// The hosted state machine, for a direct call such as `multicast`;
    /// the actions that call returns go to [`Host::absorb`].
    pub fn machine_mut(&mut self) -> &mut S {
        &mut self.machine
    }

    /// The armed timers.
    pub fn timers(&self) -> &Timers {
        &self.timers
    }

    /// Feeds `event` and carries out what follows from it.
    pub fn on_event(
        &mut self,
        now: Time,
        event: Event,
        write: impl FnMut(&PersistRecord, bool),
        emit: impl FnMut(Action),
    ) {
        let actions = self.machine.on_event(now, event);
        self.absorb(now, actions, write, emit);
    }

    /// Takes the actions of a direct call on [`Host::machine_mut`]:
    /// arms their timers, writes their records, emits the rest, and
    /// feeds each completion back in the order the records were
    /// written, the records those completions provoke included.
    pub fn absorb(
        &mut self,
        now: Time,
        mut actions: Vec<Action>,
        mut write: impl FnMut(&PersistRecord, bool),
        mut emit: impl FnMut(Action),
    ) {
        let mut written = VecDeque::new();
        loop {
            for action in actions {
                match action {
                    Action::SetTimer { after_us, timer } => {
                        self.timers.arm(timer, now.plus(after_us));
                    }
                    Action::Persist {
                        record,
                        sync,
                        token,
                    } => {
                        write(&record, sync);
                        written.push_back(token);
                    }
                    other => emit(other),
                }
            }
            let Some(token) = written.pop_front() else {
                return;
            };
            actions = self.machine.on_event(now, Event::PersistDone(token));
        }
    }

    /// Fires `kind` at `now`; `false` when it is not armed.
    pub fn fire(
        &mut self,
        now: Time,
        kind: TimerKind,
        write: impl FnMut(&PersistRecord, bool),
        emit: impl FnMut(Action),
    ) -> bool {
        let due = self.timers.due(kind);
        let armed = due.is_some_and(|due| self.timers.expire(kind, due));
        if armed {
            self.on_event(now, Event::Timer(kind), write, emit);
        }
        armed
    }

    /// Fires every timer due at `now`, earliest first. A timer one of
    /// them arms waits for the next call, even when already due.
    pub fn fire_due(
        &mut self,
        now: Time,
        mut write: impl FnMut(&PersistRecord, bool),
        mut emit: impl FnMut(Action),
    ) {
        let due: Vec<TimerKind> = std::iter::from_fn(|| self.timers.pop_due(now)).collect();
        for kind in due {
            self.on_event(now, Event::Timer(kind), &mut write, &mut emit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Message, PersistToken};
    use crate::types::{GroupId, InstanceId, ProcessId};

    const RING: GroupId = GroupId::new(0);

    fn ms(n: u64) -> Time {
        Time::from_millis(n)
    }

    #[test]
    fn rearming_replaces_the_deadline_and_the_earlier_one_never_fires() {
        let mut timers = Timers::default();
        timers.arm(TimerKind::RecoveryRetry, ms(500));
        timers.arm(TimerKind::RecoveryRetry, ms(700));
        assert_eq!(timers.iter().count(), 1);
        assert_eq!(timers.pop_due(ms(500)), None);
        assert!(!timers.expire(TimerKind::RecoveryRetry, ms(500)));
        assert_eq!(timers.pop_due(ms(700)), Some(TimerKind::RecoveryRetry));
        assert_eq!(timers.next(), None, "firing disarms");
        assert_eq!(timers.pop_due(ms(10_000)), None);
    }

    #[test]
    fn equal_deadlines_fire_in_timer_kind_order() {
        let mut timers = Timers::default();
        let kinds = [
            TimerKind::SubmitFlush,
            TimerKind::RecoveryRetry,
            TimerKind::CheckpointTick,
            TimerKind::ProposalResend(RING),
            TimerKind::TrimTick(GroupId::new(1)),
            TimerKind::TrimTick(RING),
            TimerKind::GapCheck(RING),
            TimerKind::Delta(GroupId::new(1)),
            TimerKind::Delta(RING),
        ];
        for kind in kinds {
            timers.arm(kind, ms(5));
        }
        timers.arm(TimerKind::Delta(GroupId::new(2)), ms(6));
        let fired: Vec<TimerKind> = std::iter::from_fn(|| timers.pop_due(ms(5))).collect();
        let mut declared = kinds.to_vec();
        declared.reverse();
        assert_eq!(fired, declared);
        assert_eq!(
            timers.next(),
            Some((ms(6), TimerKind::Delta(GroupId::new(2))))
        );
    }

    /// Persists on every input and logs what it is fed.
    struct Recorder {
        fed: Vec<Event>,
        next: u64,
    }

    impl Recorder {
        fn persist(&mut self, sync: bool) -> Action {
            self.next += 1;
            Action::Persist {
                record: PersistRecord::Decision {
                    ring: RING,
                    first: InstanceId::new(self.next),
                    count: 1,
                },
                sync,
                token: PersistToken(self.next),
            }
        }
    }

    impl StateMachine for Recorder {
        fn on_event(&mut self, _: Time, event: Event) -> Vec<Action> {
            let out = match &event {
                // Two records, a send between them, and a timer.
                Event::Start => vec![
                    self.persist(true),
                    Action::Send {
                        to: ProcessId::new(1),
                        msg: Message::CheckpointQuery { seq: 1 },
                    },
                    self.persist(false),
                    Action::SetTimer {
                        after_us: 10,
                        timer: TimerKind::CheckpointTick,
                    },
                ],
                // The first completion writes one more record.
                Event::PersistDone(PersistToken(1)) => vec![self.persist(true)],
                _ => Vec::new(),
            };
            self.fed.push(event);
            out
        }

        fn process_id(&self) -> ProcessId {
            ProcessId::new(0)
        }
    }

    /// What a host did, in order.
    #[derive(Debug, PartialEq)]
    enum Done {
        Wrote(u64, bool),
        Emitted(Action),
    }

    fn wrote(record: &PersistRecord, sync: bool) -> Done {
        let PersistRecord::Decision { first, .. } = record else {
            panic!("{record:?}");
        };
        Done::Wrote(first.value(), sync)
    }

    #[test]
    fn each_completion_is_fed_after_its_record_was_written_in_write_order() {
        let mut host = Host::new(Recorder {
            fed: Vec::new(),
            next: 0,
        });
        let log = std::cell::RefCell::new(Vec::new());
        host.on_event(
            ms(1),
            Event::Start,
            |record, sync| log.borrow_mut().push(wrote(record, sync)),
            |action| log.borrow_mut().push(Done::Emitted(action)),
        );
        let send = Action::Send {
            to: ProcessId::new(1),
            msg: Message::CheckpointQuery { seq: 1 },
        };
        // The send leaves between the two records it was emitted
        // between, before the completions.
        assert_eq!(
            log.into_inner(),
            [
                Done::Wrote(1, true),
                Done::Emitted(send),
                Done::Wrote(2, false),
                Done::Wrote(3, true),
            ]
        );
        let done = |n| Event::PersistDone(PersistToken(n));
        assert_eq!(
            host.machine().fed,
            [Event::Start, done(1), done(2), done(3)]
        );
        assert_eq!(
            host.timers().due(TimerKind::CheckpointTick),
            Some(ms(1).plus(10))
        );
    }

    #[test]
    fn a_host_emits_no_timer_and_no_persist() {
        let mut host = Host::new(Recorder {
            fed: Vec::new(),
            next: 0,
        });
        let mut out = Vec::new();
        host.on_event(ms(1), Event::Start, |_, _| {}, |a| out.push(a));
        let actions = vec![
            Action::SetTimer {
                after_us: 3,
                timer: TimerKind::RecoveryRetry,
            },
            Action::TrimStorage {
                ring: RING,
                upto: InstanceId::new(2),
            },
        ];
        host.absorb(ms(2), actions, |_, _| {}, |a| out.push(a));
        // The tick is due, the retry (at 2 ms + 3 µs) not yet.
        host.fire_due(ms(2), |_, _| {}, |a| out.push(a));
        assert!(!host.fire(ms(3), TimerKind::CheckpointTick, |_, _| {}, drop));
        assert!(host.fire(ms(3), TimerKind::RecoveryRetry, |_, _| {}, |a| out.push(a)));
        assert_eq!(host.timers().next(), None);
        assert_eq!(out.len(), 2, "{out:?}");
        for action in &out {
            assert!(
                !matches!(action, Action::SetTimer { .. } | Action::Persist { .. }),
                "{action:?}"
            );
        }
    }
}
