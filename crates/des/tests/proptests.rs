//! Property-based tests for the DES engine: ordering, determinism,
//! backend equivalence, and distributional sanity of the RNG.

use proptest::prelude::*;

use peas_des::event::{EventQueue, Fired, HeapEventQueue, LadderEventQueue, QueueCore};
use peas_des::rng::SimRng;
use peas_des::sim::Simulator;
use peas_des::time::{SimDuration, SimTime};

/// One step of the differential queue exerciser: a schedule at a raw
/// nanosecond timestamp, a pop, a bounded pop, a revocation of the i-th
/// event scheduled so far, or a peek. Times are drawn from a lumpy menu
/// so the ladder's structures all get traffic: a dense near band (hits
/// the bottom rung and spawned child rungs), a far-future band (hits the
/// unsorted top), exact collisions (same-time ties broken by seq), the
/// epoch (pushes *behind* everything pending after progress has been
/// made), and `u64::MAX` (saturating bucket math).
#[derive(Clone, Debug)]
enum QueueOp {
    Schedule(u64),
    Pop,
    PopBefore(u64),
    Cancel(usize),
    PeekTime,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    // The vendored proptest stub's `prop_oneof!` is uniform, so weights
    // are expressed by listing a variant more than once: near-band
    // schedules and pops dominate, as in a real simulation.
    prop_oneof![
        (0u64..5_000).prop_map(QueueOp::Schedule),
        (0u64..5_000).prop_map(QueueOp::Schedule),
        (0u64..5_000).prop_map(QueueOp::Schedule),
        (0u64..5_000).prop_map(QueueOp::Schedule),
        (1_000_000_000u64..1_000_005_000).prop_map(QueueOp::Schedule),
        Just(QueueOp::Schedule(0)),
        Just(QueueOp::Schedule(42)),
        Just(QueueOp::Schedule(u64::MAX)),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
        (0u64..6_000).prop_map(QueueOp::PopBefore),
        (0usize..64).prop_map(QueueOp::Cancel),
        (0usize..64).prop_map(QueueOp::Cancel),
        Just(QueueOp::PeekTime),
    ]
}

/// A set of `u32` payloads.
#[derive(Default)]
struct Payloads(Vec<bool>);

impl Payloads {
    fn insert(&mut self, payload: u32) {
        let at = payload as usize;
        if at >= self.0.len() {
            self.0.resize(at + 1, false);
        }
        self.0[at] = true;
    }

    fn contains(&self, payload: u32) -> bool {
        self.0.get(payload as usize).copied().unwrap_or(false)
    }
}

/// Pops through `next` until an event whose payload was not revoked
/// comes out. This is revocation on the caller's side, as the simulator
/// does it: both backends see the same skips, so a compared stream keeps
/// every revoked input.
fn next_live(revoked: &Payloads, next: impl FnMut() -> Option<Fired<u32>>) -> Option<Fired<u32>> {
    std::iter::from_fn(next).find(|f| !revoked.contains(f.payload))
}

/// Replays `ops` against a queue and records every observable outcome:
/// the full `Fired` stream (time, payload) of events not revoked, plus
/// revoke/peek/len results. Two backends agree iff their transcripts are
/// identical.
fn transcript<C: QueueCore<u32> + Default>(ops: &[QueueOp]) -> Vec<String> {
    let mut q: EventQueue<u32, C> = EventQueue::new();
    let mut scheduled = Vec::new();
    let mut fired = Payloads::default();
    let mut revoked = Payloads::default();
    let mut out = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            QueueOp::Schedule(t) => {
                q.schedule(SimTime::from_nanos(*t), step as u32);
                scheduled.push(step as u32);
                out.push(format!("schedule {t} -> {step}"));
            }
            QueueOp::Pop => match next_live(&revoked, || q.pop()) {
                Some(f) => {
                    fired.insert(f.payload);
                    out.push(format!("pop -> {} {}", f.time.as_nanos(), f.payload));
                }
                None => out.push("pop -> none".into()),
            },
            QueueOp::PopBefore(h) => {
                let horizon = SimTime::from_nanos(*h);
                match next_live(&revoked, || q.pop_before(horizon)) {
                    Some(f) => {
                        fired.insert(f.payload);
                        out.push(format!(
                            "pop_before {h} -> {} {}",
                            f.time.as_nanos(),
                            f.payload
                        ));
                    }
                    None => out.push(format!("pop_before {h} -> none")),
                }
            }
            QueueOp::Cancel(i) => {
                if scheduled.is_empty() {
                    continue;
                }
                let payload = scheduled[i % scheduled.len()];
                let live = !fired.contains(payload) && !revoked.contains(payload);
                revoked.insert(payload);
                out.push(format!("cancel {payload} -> {live}"));
            }
            QueueOp::PeekTime => {
                out.push(format!(
                    "peek -> {:?}",
                    q.peek_time().map(SimTime::as_nanos)
                ));
            }
        }
        out.push(format!("len {} hw {}", q.len(), q.high_water()));
    }
    // Drain the remainder: total order must hold to the last entry.
    while let Some(f) = next_live(&revoked, || q.pop()) {
        out.push(format!("drain -> {} {}", f.time.as_nanos(), f.payload));
    }
    out
}

proptest! {
    /// Events always pop in non-decreasing time order, and events that share
    /// a timestamp pop in insertion order.
    #[test]
    fn queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(f) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(f.time >= lt);
                if f.time == lt {
                    prop_assert!(f.payload > li, "FIFO violated at equal times");
                }
            }
            last = Some((f.time, f.payload));
        }
        prop_assert!(q.is_empty());
    }

    /// Differential: the ladder queue and the binary-heap reference
    /// produce identical observable transcripts — the same `Fired`
    /// stream (same-time ties broken by seq), the same revoke/peek/len
    /// results — under arbitrary interleaved push/pop/revoke sequences
    /// including far-future and past-epoch pushes.
    #[test]
    fn ladder_matches_heap_reference(ops in prop::collection::vec(queue_op(), 1..400)) {
        let heap = transcript::<peas_des::heap_ref::HeapCore<u32>>(&ops);
        let ladder = transcript::<peas_des::ladder::LadderCore<u32>>(&ops);
        prop_assert_eq!(heap, ladder);
    }

    /// A simulator run over a random schedule is a pure function of its
    /// inputs (replaying produces the identical trace).
    #[test]
    fn simulator_replay_is_identical(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let run = |times: &[u64]| {
            let mut sim = Simulator::new();
            for (i, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(t), i);
            }
            let mut trace = Vec::new();
            while let Some(f) = sim.next() {
                trace.push((f.time, f.payload));
            }
            trace
        };
        prop_assert_eq!(run(&times), run(&times));
    }

    /// Two RNG streams from the same seed never produce identical prefixes.
    #[test]
    fn rng_streams_are_decoupled(seed in any::<u64>(), s1 in 0u64..64, s2 in 0u64..64) {
        prop_assume!(s1 != s2);
        let mut a = SimRng::stream(seed, s1);
        let mut b = SimRng::stream(seed, s2);
        let equal = (0..32).all(|_| a.next_u64() == b.next_u64());
        prop_assert!(!equal);
    }

    /// `below(n)` is always within range.
    #[test]
    fn below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
        }
    }

    /// Exponential samples are non-negative and finite for any positive rate.
    #[test]
    fn exp_samples_well_formed(seed in any::<u64>(), rate in 1e-6f64..1e6) {
        let mut rng = SimRng::new(seed);
        for _ in 0..20 {
            let x = rng.exp_secs(rate);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }

    /// range_duration stays within its bounds.
    #[test]
    fn range_duration_in_bounds(seed in any::<u64>(), lo in 0u64..1_000, span in 1u64..1_000) {
        let mut rng = SimRng::new(seed);
        let lo_d = SimDuration::from_nanos(lo);
        let hi_d = SimDuration::from_nanos(lo + span);
        for _ in 0..20 {
            let d = rng.range_duration(lo_d, hi_d);
            prop_assert!(d >= lo_d && d < hi_d);
        }
    }
}

/// A deterministic heavyweight differential run: timer-heavy workloads at
/// depths the proptest's short op sequences never reach, so rung spawning
/// and the top-flush path are both exercised against the reference. Two
/// inputs, each compared as the full `(time, payload)` pop stream of the
/// events the driver did not revoke:
///
/// * **churn** — 50k timers over about an hour, rescheduled ahead of each
///   pop, with a random scheduled timer revoked every third step;
/// * **hold** — the classic hold model at 1k and 10k pending: fill
///   uniformly over 20 s, pop and reschedule 100k times, schedule a fresh
///   third on top and revoke all of it, then drain.
#[test]
fn ladder_matches_heap_on_deep_timer_workload() {
    fn churn<C: QueueCore<u32> + Default>() -> Vec<(u64, u64)> {
        let mut q: EventQueue<u32, C> = EventQueue::new();
        let mut rng = SimRng::new(0xD1FF);
        let mut scheduled = Vec::new();
        let mut revoked = Payloads::default();
        // Load phase: 50k pending timers spread over ~an hour.
        for i in 0..50_000u32 {
            let t = rng.below(3_600_000_000_000);
            q.schedule(SimTime::from_nanos(t), i);
            scheduled.push(i);
        }
        let mut out = Vec::new();
        // Churn phase: pop, then reschedule ahead of the popped time and
        // occasionally revoke a random scheduled timer.
        for i in 0..50_000u32 {
            let f = next_live(&revoked, || q.pop()).expect("queue drained early");
            out.push((f.time.as_nanos(), f.payload as u64));
            let ahead = f.time + SimDuration::from_nanos(1 + rng.below(10_000_000_000));
            q.schedule(ahead, 50_000 + i);
            scheduled.push(50_000 + i);
            if i % 3 == 0 {
                let idx = rng.below(scheduled.len() as u64) as usize;
                revoked.insert(scheduled[idx]);
            }
        }
        while let Some(f) = next_live(&revoked, || q.pop()) {
            out.push((f.time.as_nanos(), f.payload as u64));
        }
        out
    }
    fn hold<C: QueueCore<u32> + Default>(size: u32) -> Vec<(u64, u64)> {
        const SPAN: SimDuration = SimDuration::from_secs(20);
        // Payloads of the fresh third: above every hold-phase payload.
        const FRESH: u32 = 1 << 20;
        let mut q: EventQueue<u32, C> = EventQueue::new();
        let mut revoked = Payloads::default();
        let mut rng = SimRng::stream(0xBEE5, u64::from(size));
        for i in 0..size {
            let at = SimTime::ZERO + rng.range_duration(SimDuration::ZERO, SPAN);
            q.schedule(at, i);
        }
        let mut out = Vec::new();
        for i in 0..100_000u32 {
            let f = q.pop().expect("the hold model never empties the queue");
            out.push((f.time.as_nanos(), f.payload as u64));
            let ahead = SimDuration::from_nanos(1 + rng.below(SPAN.as_nanos()));
            q.schedule(f.time + ahead, i);
        }
        let base = q.peek_time().unwrap_or(SimTime::ZERO);
        for i in 0..size / 3 {
            q.schedule(
                base + rng.range_duration(SimDuration::ZERO, SPAN),
                FRESH + i,
            );
            revoked.insert(FRESH + i);
        }
        let held = out.len();
        while let Some(f) = next_live(&revoked, || q.pop()) {
            out.push((f.time.as_nanos(), f.payload as u64));
        }
        assert_eq!(out.len() - held, size as usize, "the live count survives");
        assert!(q.is_empty(), "every revoked entry popped exactly once");
        out
    }
    let heap = churn::<peas_des::heap_ref::HeapCore<u32>>();
    let ladder = churn::<peas_des::ladder::LadderCore<u32>>();
    assert_eq!(heap.len(), ladder.len());
    assert_eq!(heap, ladder);
    for size in [1_000, 10_000] {
        let heap = hold::<peas_des::heap_ref::HeapCore<u32>>(size);
        let ladder = hold::<peas_des::ladder::LadderCore<u32>>(size);
        assert_eq!(heap, ladder, "hold model at {size} pending");
    }
}

/// The pinned type aliases resolve to distinct backends even when the
/// `heap-queue` feature flips the default.
#[test]
fn pinned_aliases_ignore_feature_flags() {
    let mut h: HeapEventQueue<u8> = EventQueue::new();
    let mut l: LadderEventQueue<u8> = EventQueue::new();
    h.schedule(SimTime::from_secs(1), 1);
    l.schedule(SimTime::from_secs(1), 1);
    assert_eq!(h.pop().unwrap().payload, l.pop().unwrap().payload);
}
