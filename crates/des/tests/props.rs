//! Property tests for the event kernel: ordering, determinism, clock
//! monotonicity.

use proptest::prelude::*;
use vc_des::{Engine, SimTime};

proptest! {
    /// Events always pop in (time, insertion) order regardless of the
    /// schedule order, and the clock never goes backwards.
    #[test]
    fn total_order_and_monotone_clock(times in proptest::collection::vec(0u64..1000, 0..64)) {
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule(SimTime::from_micros(t), i);
        }
        let mut last = (SimTime::ZERO, 0usize);
        let mut popped = 0;
        while let Some((t, idx)) = engine.pop() {
            prop_assert!(t >= last.0, "clock went backwards");
            if t == last.0 && popped > 0 {
                prop_assert!(idx > last.1, "FIFO violated for simultaneous events");
            }
            prop_assert_eq!(t, SimTime::from_micros(times[idx]));
            prop_assert_eq!(engine.now(), t);
            last = (t, idx);
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
        prop_assert_eq!(engine.peek_time(), None);
    }

    /// Two identical schedules drain identically (determinism).
    #[test]
    fn deterministic_drain(times in proptest::collection::vec(0u64..100, 0..32)) {
        let run = || {
            let mut e = Engine::new();
            for (i, &t) in times.iter().enumerate() {
                e.schedule(SimTime::from_micros(t), i);
            }
            std::iter::from_fn(move || e.pop()).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Interleaved scheduling during the drain preserves order: an event
    /// scheduled at `now + d` never pops before pending events ≤ that time.
    #[test]
    fn reentrant_scheduling_ordered(delays in proptest::collection::vec(1u64..50, 1..16)) {
        let mut engine = Engine::new();
        engine.schedule(SimTime::ZERO, 0usize);
        let mut order = vec![];
        while let Some((t, i)) = engine.pop() {
            order.push((t, i));
            if i < delays.len() {
                engine.schedule(t + SimTime::from_micros(delays[i]), i + 1);
            }
        }
        // Chain: timestamps strictly increase by the chosen delays.
        let mut expect = SimTime::ZERO;
        for (k, &(t, i)) in order.iter().enumerate() {
            prop_assert_eq!(i, k);
            prop_assert_eq!(t, expect);
            if k < delays.len() {
                expect += SimTime::from_micros(delays[k]);
            }
        }
    }

    /// A loop that merges the queue with an outside source of events
    /// (`peek_time` to compare, `advance_to` to take the outside one)
    /// visits every event of both in time order, queue first on ties,
    /// with a clock that never goes backwards.
    #[test]
    fn merging_an_outside_source_keeps_time_order(
        queued in proptest::collection::vec(0u64..100, 0..24),
        mut outside in proptest::collection::vec(0u64..100, 0..24),
    ) {
        outside.sort_unstable();
        let mut engine = Engine::new();
        for (i, &t) in queued.iter().enumerate() {
            engine.schedule(SimTime::from_micros(t), i);
        }
        let mut outside_iter = outside.iter().map(|&t| SimTime::from_micros(t)).peekable();
        let mut seen = vec![];
        loop {
            let next_outside = outside_iter.peek().copied();
            match (engine.peek_time(), next_outside) {
                (None, None) => break,
                (q, Some(o)) if q.is_none_or(|q| o < q) => {
                    engine.advance_to(o);
                    outside_iter.next();
                    seen.push((o, true));
                }
                _ => {
                    let (t, _) = engine.pop().expect("queue head was peeked");
                    seen.push((t, false));
                }
            }
            prop_assert_eq!(engine.now(), seen.last().unwrap().0);
        }
        let mut expect: Vec<(SimTime, bool)> = queued
            .iter()
            .map(|&t| (SimTime::from_micros(t), false))
            .chain(outside.iter().map(|&t| (SimTime::from_micros(t), true)))
            .collect();
        expect.sort(); // `false` (queued) sorts first among equal times
        prop_assert_eq!(seen, expect);
    }
}
