//! The event queue / clock.

use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vc_obs::Recorder;

/// Events that can name their own variant for per-type counters.
///
/// Labels double as metric names, so pick stable dotted identifiers
/// (`"mr.event.map_cpu_done"`), not `Debug` output.
pub trait EventKind {
    /// A stable, static label for this event's variant.
    fn kind(&self) -> &'static str;
}

/// A future event: ordered by `(time, sequence)` so simultaneous events
/// dequeue in the order they were scheduled.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A discrete-event engine: a clock plus a pending-event queue.
///
/// The caller drives the main loop:
///
/// ```
/// # use vc_des::{Engine, SimTime};
/// let mut engine: Engine<u32> = Engine::new();
/// engine.schedule(SimTime::from_millis(1), 42);
/// while let Some((now, event)) = engine.pop() {
///     // handle `event`, possibly calling engine.schedule(...)
///     # let _ = (now, event);
/// }
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Entry<E>>>,
}

impl<E> std::fmt::Debug for Entry<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("at", &self.at)
            .field("seq", &self.seq)
            .finish()
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine at time zero with no pending events.
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Timestamp of the earliest pending event, or `None` when the queue
    /// is drained. Does not move the clock.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(entry)| entry.at)
    }

    /// Move the clock to `at` without popping an event, for a caller that
    /// handles an event from outside the queue at `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past, or later than the earliest pending
    /// event (which would then pop behind the clock).
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(
            at >= self.now,
            "advancing into the past: {at} < now {}",
            self.now
        );
        if let Some(next) = self.peek_time() {
            assert!(
                at <= next,
                "advancing past the queue head: {at} > next event {next}"
            );
        }
        self.now = at;
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — time travel is a simulation bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Remove and return the earliest pending event, advancing the clock
    /// to its timestamp. `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// [`Engine::pop`] plus bookkeeping into a [`Recorder`]: counts the
    /// event under `des.events_processed` and its [`EventKind`] label, and
    /// samples the post-pop heap depth into the `des.heap_depth`
    /// histogram. With a `NoopRecorder` this monomorphizes to `pop`.
    pub fn pop_traced<R: Recorder>(&mut self, rec: &R) -> Option<(SimTime, E)>
    where
        E: EventKind,
    {
        let (at, event) = self.pop()?;
        rec.counter_add("des.events_processed", 1);
        rec.counter_add(event.kind(), 1);
        rec.histogram_record("des.heap_depth", self.heap.len() as u64);
        Some((at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_micros(30), "c");
        e.schedule(SimTime::from_micros(10), "a");
        e.schedule(SimTime::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, ev)| ev).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(e.now(), SimTime::from_micros(30));
        assert!(e.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut e = Engine::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            e.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, ev)| ev).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reads_the_head_without_moving_the_clock() {
        let mut e = Engine::new();
        assert_eq!(e.peek_time(), None);
        e.schedule(SimTime::from_micros(20), "b");
        e.schedule(SimTime::from_micros(10), "a");
        assert_eq!(e.peek_time(), Some(SimTime::from_micros(10)));
        assert_eq!(e.now(), SimTime::ZERO);
        assert_eq!(e.pop(), Some((SimTime::from_micros(10), "a")));
        assert_eq!(e.peek_time(), Some(SimTime::from_micros(20)));
        e.pop().unwrap();
        assert_eq!(e.peek_time(), None);
    }

    #[test]
    fn advance_to_moves_the_clock_up_to_the_head() {
        let mut e = Engine::new();
        e.advance_to(SimTime::from_micros(7)); // an empty queue bounds nothing
        assert_eq!(e.now(), SimTime::from_micros(7));
        e.schedule(SimTime::from_micros(30), "queued");
        e.advance_to(SimTime::from_micros(12));
        assert_eq!(e.now(), SimTime::from_micros(12));
        // The head itself is a valid target.
        e.schedule(SimTime::from_micros(12), "now");
        e.advance_to(SimTime::from_micros(12));
        assert_eq!(e.pop(), Some((SimTime::from_micros(12), "now")));
        e.advance_to(SimTime::from_micros(30));
        assert_eq!(e.pop(), Some((SimTime::from_micros(30), "queued")));
        assert_eq!(e.now(), SimTime::from_micros(30));
    }

    #[test]
    #[should_panic(expected = "advancing into the past")]
    fn advance_to_the_past_panics() {
        let mut e = Engine::<()>::new();
        e.advance_to(SimTime::from_micros(10));
        e.advance_to(SimTime::from_micros(9));
    }

    #[test]
    #[should_panic(expected = "advancing past the queue head")]
    fn advance_to_past_the_head_panics() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_micros(10), ());
        e.advance_to(SimTime::from_micros(11));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_micros(10), ());
        e.pop().unwrap();
        e.schedule(SimTime::from_micros(5), ());
    }

    // The test events name their own kind.
    impl EventKind for &'static str {
        fn kind(&self) -> &'static str {
            self
        }
    }

    #[test]
    fn pop_traced_counts_kinds_and_depth() {
        use vc_obs::MemRecorder;

        let rec = MemRecorder::new();
        let mut e = Engine::new();
        e.schedule(SimTime::from_micros(1), "des.event.a");
        e.schedule(SimTime::from_micros(2), "des.event.b");
        e.schedule(SimTime::from_micros(3), "des.event.a");
        while e.pop_traced(&rec).is_some() {}
        let m = rec.metrics();
        assert_eq!(m.counters["des.events_processed"], 3);
        assert_eq!(m.counters["des.event.a"], 2);
        assert_eq!(m.counters["des.event.b"], 1);
        assert_eq!(m.histograms["des.heap_depth"].count, 3);
        assert_eq!(m.histograms["des.heap_depth"].max, 2);
    }

    #[test]
    fn pop_traced_preserves_fifo_ties() {
        // The instrumented pop must not disturb the (time, seq) order
        // guarantee for simultaneous events.
        let rec = vc_obs::NoopRecorder;
        let mut e = Engine::new();
        let t = SimTime::from_micros(9);
        for _ in 0..6 {
            e.schedule(t, "des.event.tie");
        }
        let mut n = 0;
        while let Some((at, _)) = e.pop_traced(&rec) {
            assert_eq!(at, t);
            n += 1;
        }
        assert_eq!(n, 6);
    }

    #[test]
    fn interleaved_schedule_pop() {
        // A chain: each event schedules the next; clock must advance
        // monotonically and deterministically.
        let mut e = Engine::new();
        e.schedule(SimTime::from_micros(1), 0u32);
        let mut seen = vec![];
        while let Some((t, ev)) = e.pop() {
            seen.push((t.as_micros(), ev));
            if ev < 3 {
                e.schedule(t + SimTime::from_micros(10), ev + 1);
            }
        }
        assert_eq!(seen, vec![(1, 0), (11, 1), (21, 2), (31, 3)]);
    }
}
