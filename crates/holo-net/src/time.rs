//! Virtual simulation time, and the one event queue every simulator
//! loop in the workspace pops from: a sorted run of the pushes that
//! arrive in time order beside a heap of the rest (see [`EventQueue`]).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in virtual time, microsecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From seconds.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e6).round() as u64)
    }

    /// From milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1000)
    }

    /// From microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// As seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0 + d.as_micros() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.as_micros() as u64;
    }
}

impl Sub for SimTime {
    type Output = Duration;
    fn sub(self, other: SimTime) -> Duration {
        Duration::from_micros(self.0.saturating_sub(other.0))
    }
}

/// A virtual-time event queue: [`pop`](EventQueue::pop) yields the
/// earliest event, and events pushed for the same instant come back in
/// the order they were pushed. That tie-break is what makes a seeded
/// simulation replay byte-identically, so it lives here once instead
/// of in every loop's own `Ord` impl; `T` itself is never compared.
///
/// Simulators push most of their timeline in time order (a stream
/// schedules every frame before it pops one), so the queue keeps two
/// parts: a run that takes every push at or after the run's last
/// entry, and a heap for every other push (retries, late arrivals).
/// Each entry carries its push number `seq`, so `(at, seq)` orders
/// entries totally: the run is sorted by it because its times never
/// fall and its push numbers rise, and `pop` takes the smaller of the
/// run's front and the heap's top. The pop sequence is therefore the
/// one a single heap over every entry gives, while an in-order push
/// and its pop cost O(1) instead of a sift through the whole timeline.
#[derive(Debug)]
pub struct EventQueue<T> {
    run: VecDeque<Entry<T>>,
    heap: BinaryHeap<Entry<T>>,
    pushed: u64,
}

#[derive(Debug)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    event: T,
}

impl<T> Entry<T> {
    /// The total order the queue pops in: time, then push order.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the queue pops earliest.
        other.key().cmp(&self.key())
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Entry<T> {}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self { run: VecDeque::new(), heap: BinaryHeap::new(), pushed: 0 }
    }

    /// Schedule `event` at `at`.
    pub fn push(&mut self, at: SimTime, event: T) {
        let entry = Entry { at, seq: self.pushed, event };
        self.pushed += 1;
        // A later push number breaks a tie in the entry's favour, so
        // `at` equal to the tail's time keeps the run sorted.
        if self.run.back().is_none_or(|tail| at >= tail.at) {
            self.run.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// The earliest scheduled event and its time; `None` when drained.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let from_run = match (self.run.front(), self.heap.peek()) {
            (Some(first), Some(top)) => first.key() < top.key(),
            (first, _) => first.is_some(),
        };
        let entry = if from_run { self.run.pop_front() } else { self.heap.pop() };
        entry.map(|e| (e.at, e.event))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_runtime::check::{any, collection};
    use holo_runtime::{holo_prop, prop_assert_eq};

    impl SimTime {
        /// As milliseconds (f64).
        pub(crate) fn as_millis_f64(self) -> f64 {
            self.0 as f64 / 1e3
        }
    }

    #[test]
    fn queue_pops_in_time_order() {
        let mut q = EventQueue::new();
        for ms in [30, 10, 20, 0, 40] {
            q.push(SimTime::from_millis(ms), ms);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [0, 10, 20, 30, 40]);
    }

    #[test]
    fn queue_is_fifo_among_equal_times_across_interleaved_push_and_pop() {
        // The payload type has no `Ord`: only time and push order decide.
        struct Tag(&'static str);
        let t = SimTime::from_millis(5);
        let mut q = EventQueue::new();
        q.push(t, Tag("a"));
        q.push(t, Tag("b"));
        q.push(SimTime::from_millis(1), Tag("early"));
        assert_eq!(q.pop().map(|(at, e)| (at, e.0)), Some((SimTime::from_millis(1), "early")));
        assert_eq!(q.pop().map(|(_, e)| e.0), Some("a"));
        // Pushed after a pop, for the same instant: still behind "b".
        q.push(t, Tag("c"));
        q.push(SimTime::from_millis(9), Tag("late"));
        q.push(t, Tag("d"));
        let rest: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e.0).collect();
        assert_eq!(rest, ["b", "c", "d", "late"]);
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.pop().is_none());
        q.push(SimTime::ZERO, 1);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 1)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_millis(5).0, 5000);
        assert_eq!(SimTime::from_secs_f64(1.5).0, 1_500_000);
        assert!((SimTime(2_500_000).as_secs_f64() - 2.5).abs() < 1e-9);
        assert!((SimTime(1500).as_millis_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), Duration::from_millis(5));
        // Saturating: earlier minus later is zero.
        assert_eq!(SimTime::from_millis(1) - SimTime::from_millis(5), Duration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert_eq!(SimTime::ZERO, SimTime(0));
    }

    /// One step of a queue script.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Push(u64),
        Pop,
        /// Pop until empty.
        Drain,
    }

    /// A script of `words.len()` steps in one of the patterns the
    /// simulators produce: 0 random interleavings, 1 bursts pushed in
    /// order, 2 equal times, 3 pushes earlier than the run's tail,
    /// 4 drain and refill; 5 mixes them all.
    fn script(pattern: u8, words: &[u32]) -> Vec<Step> {
        let mut tail = 0u64;
        words
            .iter()
            .map(|&w| {
                let pattern = if pattern == 5 { (w >> 24) as u8 % 5 } else { pattern };
                let small = u64::from(w >> 8) % 8;
                if w % 4 == 0 {
                    // A quarter of the steps pop; a refilling script
                    // sometimes drains instead.
                    return if pattern == 4 && w % 64 == 0 { Step::Drain } else { Step::Pop };
                }
                match pattern {
                    0 => Step::Push(u64::from(w >> 4) % 1_000),
                    2 => Step::Push(small % 3),
                    3 if w % 4 == 1 => Step::Push(tail.saturating_sub(1 + small)),
                    _ => {
                        tail += small / 2;
                        Step::Push(tail)
                    }
                }
            })
            .collect()
    }

    holo_prop! {
        #![cases(1024)]

        /// The run-plus-heap queue pops exactly what a reference
        /// ordered by `(at, push number)` pops, in every pattern.
        fn queue_pops_in_reference_order(
            pattern in 0u8..6,
            words in collection::vec(any::<u32>(), 0..400),
        ) {
            let mut queue = EventQueue::new();
            let mut reference: Vec<(SimTime, u64)> = Vec::new();
            let mut pushed = 0u64;
            let mut popped = 0usize;
            let mut pop = |queue: &mut EventQueue<u64>, reference: &mut Vec<(SimTime, u64)>| {
                let want = reference
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &entry)| entry)
                    .map(|(i, _)| i)
                    .map(|i| reference.remove(i));
                popped += 1;
                (queue.pop(), want)
            };
            for step in script(pattern, &words) {
                match step {
                    Step::Push(us) => {
                        queue.push(SimTime(us), pushed);
                        reference.push((SimTime(us), pushed));
                        pushed += 1;
                    }
                    Step::Pop => {
                        let (got, want) = pop(&mut queue, &mut reference);
                        prop_assert_eq!(got, want, "pop {}", popped);
                    }
                    Step::Drain => loop {
                        let (got, want) = pop(&mut queue, &mut reference);
                        prop_assert_eq!(got, want, "pop {}", popped);
                        if got.is_none() {
                            break;
                        }
                    },
                }
            }
            // Whatever is left drains in the same order too.
            loop {
                let (got, want) = pop(&mut queue, &mut reference);
                prop_assert_eq!(got, want, "final pop {}", popped);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
