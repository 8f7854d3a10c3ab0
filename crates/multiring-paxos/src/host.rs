//! Hosting a [`StateMachine`]: the rules every driver of an engine
//! shares, written once.
//!
//! A [`Host`] owns one state machine and its [`Timers`]. It arms each
//! [`Action::SetTimer`], hands each [`Action::Persist`] to the driver's
//! [`Io::write`] and feeds the matching [`Event::PersistDone`] back once
//! the record is durable: at once, in FIFO order, for a write durable
//! on return, or when the driver reports it through [`Host::complete`].
//! What it emits, in the order the machine did, is what the environment
//! alone can do: [`Action::Send`], [`Action::TrimStorage`],
//! [`Action::Deliver`] and [`Action::Respond`]. A driver keeps only its
//! I/O, its clock and its scheduling: the TCP runtime, the simulator,
//! the model checker, the in-process benchmark pump and the unit-test
//! pumps all run engines through it. The simulator's writes complete
//! later, on its disk model's clock.

use crate::event::{Action, Event, PersistRecord, PersistToken, StateMachine, TimerKind};
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
        let (_, kind) = self.next().filter(|&(due, _)| due <= now)?;
        self.due.remove(&kind).map(|_| kind)
    }

    /// Every armed timer, in `TimerKind` order.
    pub fn iter(&self) -> impl Iterator<Item = (TimerKind, Time)> + '_ {
        self.due.iter().map(|(&kind, &due)| (kind, due))
    }
}

/// What a [`Host`] needs of its driver, called in the order the machine
/// emitted the actions.
pub trait Io {
    /// Writes `record`, flushed when `sync` is set. Returns whether it is
    /// durable on return; if not, the driver reports its completion
    /// later through [`Host::complete`] with `token`.
    fn write(&mut self, record: PersistRecord, sync: bool, token: PersistToken) -> bool;

    /// Carries out a `Send`, `TrimStorage`, `Deliver` or `Respond`.
    fn emit(&mut self, action: Action);

    /// Learns that `timer` was armed to fire at `due`. The host keeps
    /// the deadline; a driver that schedules firings itself needs each
    /// arm in emission order.
    fn armed(&mut self, _timer: TimerKind, _due: Time) {}
}

/// Collects the emitted actions; records stay in memory and are
/// durable on return.
impl Io for Vec<Action> {
    fn write(&mut self, _: PersistRecord, _: bool, _: PersistToken) -> bool {
        true
    }

    fn emit(&mut self, action: Action) {
        self.push(action);
    }
}

/// One state machine and its timers, driven to the end of each
/// activation: every call carries out what follows from its input
/// through the driver's [`Io`], feeding back in FIFO order the
/// completion of each record durable on return.
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
    pub fn on_event(&mut self, now: Time, event: Event, io: &mut impl Io) {
        let actions = self.machine.on_event(now, event);
        self.absorb(now, actions, io);
    }

    /// Feeds the completion of the record written with `token`, which
    /// the driver's [`Io::write`] left pending, and carries out what
    /// follows from it.
    pub fn complete(&mut self, now: Time, token: PersistToken, io: &mut impl Io) {
        self.on_event(now, Event::PersistDone(token), io);
    }

    /// Takes the actions of a direct call on [`Host::machine_mut`]:
    /// arms their timers, writes their records, emits the rest, and
    /// feeds the completion of each record durable on return in the
    /// order the records were written, the records those completions
    /// provoke included.
    pub fn absorb(&mut self, now: Time, mut actions: Vec<Action>, io: &mut impl Io) {
        let mut written = VecDeque::new();
        loop {
            for action in actions {
                match action {
                    Action::SetTimer { after_us, timer } => {
                        let due = now.plus(after_us);
                        self.timers.arm(timer, due);
                        io.armed(timer, due);
                    }
                    Action::Persist {
                        record,
                        sync,
                        token,
                    } => {
                        if io.write(record, sync, token) {
                            written.push_back(token);
                        }
                    }
                    other => io.emit(other),
                }
            }
            let Some(token) = written.pop_front() else {
                return;
            };
            actions = self.machine.on_event(now, Event::PersistDone(token));
        }
    }

    /// Fires `kind` at `now`; `false` when it is not armed.
    pub fn fire(&mut self, now: Time, kind: TimerKind, io: &mut impl Io) -> bool {
        let armed = self.timers.due.remove(&kind).is_some();
        if armed {
            self.on_event(now, Event::Timer(kind), io);
        }
        armed
    }

    /// Fires every timer due at `now`, earliest first. A timer one of
    /// them arms waits for the next call, even when already due.
    pub fn fire_due(&mut self, now: Time, io: &mut impl Io) {
        let due: Vec<TimerKind> = std::iter::from_fn(|| self.timers.pop_due(now)).collect();
        for kind in due {
            self.on_event(now, Event::Timer(kind), io);
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
        fn new() -> Self {
            Self {
                fed: Vec::new(),
                next: 0,
            }
        }

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

    fn query(seq: u64) -> Action {
        Action::Send {
            to: ProcessId::new(1),
            msg: Message::CheckpointQuery { seq },
        }
    }

    impl StateMachine for Recorder {
        fn on_event(&mut self, _: Time, event: Event) -> Vec<Action> {
            let out = match &event {
                // Two records, a send between them, and a timer.
                Event::Start => vec![
                    self.persist(true),
                    query(1),
                    self.persist(false),
                    Action::SetTimer {
                        after_us: 10,
                        timer: TimerKind::CheckpointTick,
                    },
                ],
                // The first completion writes one more record and sends.
                Event::PersistDone(PersistToken(1)) => vec![self.persist(true), query(2)],
                _ => Vec::new(),
            };
            self.fed.push(event);
            out
        }

        fn process_id(&self) -> ProcessId {
            ProcessId::new(0)
        }
    }

    /// What a host asked of its driver, in order.
    #[derive(Debug, PartialEq)]
    enum Done {
        Wrote(u64, bool),
        Emitted(Action),
        Armed(TimerKind, Time),
    }

    /// A driver that logs every call; its writes are durable on return
    /// unless `later`.
    struct Log {
        done: Vec<Done>,
        later: bool,
    }

    impl Log {
        fn new(later: bool) -> Self {
            Self {
                done: Vec::new(),
                later,
            }
        }

        /// What was asked since the last call.
        fn take(&mut self) -> Vec<Done> {
            std::mem::take(&mut self.done)
        }
    }

    impl Io for Log {
        fn write(&mut self, record: PersistRecord, sync: bool, _: PersistToken) -> bool {
            let PersistRecord::Decision { first, .. } = record else {
                panic!("{record:?}");
            };
            self.done.push(Done::Wrote(first.value(), sync));
            !self.later
        }

        fn emit(&mut self, action: Action) {
            assert!(
                !matches!(action, Action::SetTimer { .. } | Action::Persist { .. }),
                "{action:?}"
            );
            self.done.push(Done::Emitted(action));
        }

        fn armed(&mut self, timer: TimerKind, due: Time) {
            self.done.push(Done::Armed(timer, due));
        }
    }

    fn done(n: u64) -> Event {
        Event::PersistDone(PersistToken(n))
    }

    #[test]
    fn each_completion_is_fed_after_its_record_was_written_in_write_order() {
        let mut host = Host::new(Recorder::new());
        let mut log = Log::new(false);
        host.on_event(ms(1), Event::Start, &mut log);
        // The send leaves between the two records it was emitted
        // between, before the completions; the arm is reported in its
        // place; what the first completion causes follows in order.
        assert_eq!(
            log.take(),
            [
                Done::Wrote(1, true),
                Done::Emitted(query(1)),
                Done::Wrote(2, false),
                Done::Armed(TimerKind::CheckpointTick, ms(1).plus(10)),
                Done::Wrote(3, true),
                Done::Emitted(query(2)),
            ]
        );
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
    fn a_later_record_is_completed_when_and_in_the_order_the_driver_reports() {
        let mut host = Host::new(Recorder::new());
        let mut log = Log::new(true);
        host.on_event(ms(1), Event::Start, &mut log);
        assert_eq!(log.take().len(), 4, "two writes, a send and an arm");
        assert_eq!(host.machine().fed, [Event::Start], "nothing is durable yet");
        // The second record completes first: fed as reported.
        host.complete(ms(2), PersistToken(2), &mut log);
        assert_eq!(log.take(), []);
        assert_eq!(host.machine().fed, [Event::Start, done(2)]);
        // What a completion causes goes out within the call, in the
        // order it was emitted, and its own record waits in turn.
        host.complete(ms(3), PersistToken(1), &mut log);
        assert_eq!(log.take(), [Done::Wrote(3, true), Done::Emitted(query(2))]);
        assert_eq!(host.machine().fed, [Event::Start, done(2), done(1)]);
        host.complete(ms(4), PersistToken(3), &mut log);
        assert_eq!(
            host.machine().fed,
            [Event::Start, done(2), done(1), done(3)]
        );
    }

    #[test]
    fn a_host_emits_no_timer_and_no_persist() {
        let mut host = Host::new(Recorder::new());
        let mut out = Vec::new();
        host.on_event(ms(1), Event::Start, &mut out);
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
        host.absorb(ms(2), actions, &mut out);
        // The tick is due, the retry (at 2 ms + 3 µs) not yet.
        host.fire_due(ms(2), &mut out);
        assert!(!host.fire(ms(3), TimerKind::CheckpointTick, &mut Vec::new()));
        assert!(host.fire(ms(3), TimerKind::RecoveryRetry, &mut out));
        assert_eq!(host.timers().next(), None);
        assert_eq!(out.len(), 3, "{out:?}");
        for action in &out {
            assert!(
                !matches!(action, Action::SetTimer { .. } | Action::Persist { .. }),
                "{action:?}"
            );
        }
    }
}
