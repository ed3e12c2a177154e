//! Property-based tests for the radio substrate: conservation laws of the
//! medium, energy arithmetic, and propagation-model invariants.

use proptest::prelude::*;

use peas_des::rng::SimRng;
use peas_des::time::{SimDuration, SimTime};
use peas_geom::{Field, Point};
use peas_radio::{
    airtime, Battery, Disc, EnergyCause, EnergyLedger, Link, LogNormalShadowing, Medium, NodeId,
    PropagationModel, PropagationSpec, TerrainSpec,
};

fn arb_positions(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0f64..50.0, 0.0f64..50.0), 2..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

/// A link between two abstract nodes laid out along the x axis. Identity-
/// keyed models (shadowing) only read the ids and distance; position-keyed
/// models (terrain) only read the endpoints.
fn link(a: u32, b: u32, dist: f64) -> Link {
    Link {
        tx: NodeId(a),
        rx: NodeId(b),
        tx_pos: Point::new(0.0, 0.0),
        rx_pos: Point::new(dist, 0.0),
        distance: dist,
    }
}

proptest! {
    /// Every delivery of a completed broadcast goes to a node that is
    /// physically within the intended range (disc model), never to the
    /// sender, and each receiver appears at most once.
    #[test]
    fn deliveries_respect_geometry(
        positions in arb_positions(40),
        sender in 0usize..40,
        range in 1.0f64..20.0,
        seed in any::<u64>(),
    ) {
        let sender = sender % positions.len();
        let field = Field::new(50.0, 50.0);
        let mut medium = Medium::new(field, &positions, Disc, 20_000, 0.0);
        let mut rng = SimRng::new(seed);
        let tx = medium.start_broadcast(SimTime::ZERO, NodeId(sender as u32), range, 25, &mut rng);
        let deliveries = medium.complete(tx.id);
        let mut seen = std::collections::HashSet::new();
        for d in &deliveries {
            prop_assert_ne!(d.receiver.index(), sender, "sender cannot receive itself");
            prop_assert!(seen.insert(d.receiver), "duplicate receiver");
            let dist = positions[sender].distance(positions[d.receiver.index()]);
            prop_assert!(dist <= range + 1e-9);
            prop_assert!((d.info.distance - dist).abs() < 1e-9);
        }
        // Conversely every in-range node is among the deliveries.
        let in_range = positions
            .iter()
            .enumerate()
            .filter(|&(i, p)| i != sender && positions[sender].within(*p, range))
            .count();
        prop_assert_eq!(deliveries.len(), in_range);
    }

    /// Non-overlapping transmissions are always delivered intact on a
    /// loss-free channel, regardless of schedule.
    #[test]
    fn sequential_frames_never_collide(
        positions in arb_positions(20),
        gaps_ms in prop::collection::vec(0u64..50, 1..20),
        seed in any::<u64>(),
    ) {
        let field = Field::new(50.0, 50.0);
        let mut medium = Medium::new(field, &positions, Disc, 20_000, 0.0);
        let mut rng = SimRng::new(seed);
        let mut now = SimTime::ZERO;
        for (i, &gap) in gaps_ms.iter().enumerate() {
            let sender = NodeId((i % positions.len()) as u32);
            let tx = medium.start_broadcast(now, sender, 10.0, 25, &mut rng);
            let deliveries = medium.complete(tx.id);
            prop_assert!(deliveries.iter().all(|d| d.is_ok()));
            now = tx.end + SimDuration::from_millis(gap);
        }
        prop_assert_eq!(medium.stats().collisions, 0);
    }

    /// Medium statistics balance: sent copies = ok + collided + lost.
    #[test]
    fn stats_balance(
        positions in arb_positions(25),
        starts_ms in prop::collection::vec(0u64..100, 1..25),
        loss in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let field = Field::new(50.0, 50.0);
        let mut medium = Medium::new(field, &positions, Disc, 20_000, loss);
        let mut rng = SimRng::new(seed);
        let mut pending = Vec::new();
        let mut sorted = starts_ms.clone();
        sorted.sort_unstable();
        let mut copies = 0usize;
        for (i, &start) in sorted.iter().enumerate() {
            let sender = NodeId((i % positions.len()) as u32);
            let tx = medium.start_broadcast(
                SimTime::from_nanos(start * 1_000_000),
                sender,
                10.0,
                25,
                &mut rng,
            );
            pending.push(tx.id);
        }
        for id in pending {
            copies += medium.complete(id).len();
        }
        let stats = medium.stats();
        prop_assert_eq!(
            copies as u64,
            stats.deliveries_ok + stats.collisions + stats.random_losses
        );
        prop_assert_eq!(stats.frames_sent, sorted.len() as u64);
    }

    /// Battery drain arithmetic: sum of drains equals consumed, floor at 0.
    #[test]
    fn battery_conservation(capacity in 0.0f64..100.0, drains in prop::collection::vec(0.0f64..10.0, 0..50)) {
        let mut b = Battery::new(capacity);
        for &d in &drains {
            b.drain(d);
        }
        let total: f64 = drains.iter().sum();
        if total <= capacity {
            prop_assert!((b.consumed_j() - total).abs() < 1e-9);
        } else {
            prop_assert!(b.is_depleted());
            prop_assert!((b.consumed_j() - capacity).abs() < 1e-9);
        }
    }

    /// Ledger totals equal the sum of per-cause entries.
    #[test]
    fn ledger_totals(entries in prop::collection::vec((0usize..7, 0.0f64..5.0), 0..60)) {
        let mut ledger = EnergyLedger::new();
        let mut expected = 0.0;
        let mut expected_overhead = 0.0;
        for (cause_idx, joules) in entries {
            let cause = EnergyCause::ALL[cause_idx];
            ledger.add(cause, joules);
            expected += joules;
            if cause.is_protocol_overhead() {
                expected_overhead += joules;
            }
        }
        prop_assert!((ledger.total_j() - expected).abs() < 1e-9);
        prop_assert!((ledger.protocol_overhead_j() - expected_overhead).abs() < 1e-9);
        if expected > 0.0 {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&ledger.overhead_ratio()));
        }
    }

    /// Airtime is linear in size and inversely proportional to bitrate.
    #[test]
    fn airtime_scaling(size in 1usize..1_000, bitrate in 1_000u64..1_000_000) {
        let t1 = airtime(size, bitrate);
        let t2 = airtime(size * 2, bitrate);
        // Doubling the size doubles the airtime (up to 1 ns rounding).
        let diff = (t2.as_nanos() as i128 - 2 * t1.as_nanos() as i128).abs();
        prop_assert!(diff <= 2, "airtime not linear: {t1:?} vs {t2:?}");
    }

    /// Differential test: the dense slot-recycling [`Medium`] — including
    /// its precomputed range-class fast path — must produce exactly the
    /// delivery vectors of the retained brute-force [`ReferenceMedium`]
    /// oracle when both are driven through the same chronological schedule
    /// of overlapping broadcasts with identically-seeded RNGs — across
    /// random topologies, loss rates and all three propagation models. Each
    /// schedule entry either hits one of the two declared range classes
    /// (exercising the fast path) or an arbitrary range (exercising the
    /// grid fallback). Before each broadcast, every node's carrier sense
    /// must agree with the reference's brute-force scan.
    #[test]
    fn dense_medium_matches_brute_force_reference(
        positions in arb_positions(25),
        schedule in prop::collection::vec(
            (0u64..150, 0usize..25, 1.0f64..15.0, 10usize..60, 0u32..4),
            1..40,
        ),
        class_rp in 1.0f64..6.0,
        class_rt in 6.0f64..15.0,
        loss in 0.0f64..0.5,
        model_pick in 0u32..3,
        model_seed in any::<u64>(),
        rng_seed in any::<u64>(),
    ) {
        use peas_radio::reference::ReferenceMedium;

        let field = Field::new(50.0, 50.0);
        let spec = match model_pick {
            0 => PropagationSpec::Disc,
            1 => PropagationSpec::shadowed(model_seed),
            // An 11x11 lattice at 5 m pitch covers the 50 m field exactly.
            _ => PropagationSpec::Terrain(TerrainSpec::generated(11, 11, 5.0, model_seed)),
        };
        let classes = [class_rp, class_rt];
        let mut medium = Medium::with_range_classes(
            field, &positions, spec.build(), 20_000, loss, &classes,
        );
        let mut reference = ReferenceMedium::with_range_classes(
            field, &positions, spec.build(), 20_000, loss, &classes,
        );
        // The loss draws follow the documented grid-order contract in both
        // implementations, so identically-seeded generators stay aligned.
        let mut medium_rng = SimRng::new(rng_seed);
        let mut reference_rng = SimRng::new(rng_seed);

        // Broadcasts sorted by start time; the sort is stable, so ties keep
        // schedule order and both mediums see the identical sequence.
        let mut starts: Vec<(SimTime, usize, f64, usize)> = schedule
            .iter()
            .map(|&(ms, sender, range, size, pick)| {
                (
                    SimTime::from_nanos(ms * 1_000_000),
                    sender % positions.len(),
                    // Half the entries broadcast at a class range (fast
                    // path), half at the raw range (grid fallback).
                    match pick {
                        0 => class_rp,
                        1 => class_rt,
                        _ => range,
                    },
                    size,
                )
            })
            .collect();
        starts.sort_by_key(|&(t, ..)| t);

        // In-flight transmissions awaiting completion, in start order.
        let mut pending: Vec<(SimTime, peas_radio::TxId, peas_radio::reference::RefTxId)> =
            Vec::new();
        let mut next = 0usize;
        loop {
            // Earliest completion (first among equals — start order).
            let done = pending
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(end, ..))| end)
                .map(|(i, &(end, ..))| (i, end));
            let start = starts.get(next).map(|&(t, ..)| t);
            // Punctual completion: at equal instants, completes run first.
            let complete_now = match (done, start) {
                (Some((_, end)), Some(s)) => end <= s,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if complete_now {
                let (i, _) = done.unwrap();
                let (_, tx, rtx) = pending.remove(i);
                let got = medium.complete(tx);
                let want = reference.complete(rtx);
                prop_assert_eq!(got, want);
            } else {
                let (t, sender, range, size) = starts[next];
                next += 1;
                // Carrier sense as every node would see it before this
                // broadcast starts.
                for node in 0..positions.len() {
                    let node = NodeId(node as u32);
                    prop_assert_eq!(
                        medium.carrier_busy(node, t),
                        reference.carrier_busy(node, t),
                        "carrier sense at node {:?}, t {:?}", node, t
                    );
                }
                let tx = medium.start_broadcast(
                    t,
                    NodeId(sender as u32),
                    range,
                    size,
                    &mut medium_rng,
                );
                let (rtx, ref_end) = reference.start_broadcast(
                    t,
                    NodeId(sender as u32),
                    range,
                    size,
                    &mut reference_rng,
                );
                prop_assert_eq!(tx.end, ref_end);
                pending.push((tx.end, tx.id, rtx));
            }
        }
    }

    /// Shadowed links: symmetric, deterministic, and positive.
    #[test]
    fn shadowing_invariants(seed in any::<u64>(), a in 0u32..1_000, b in 0u32..1_000, dist in 0.1f64..50.0) {
        prop_assume!(a != b);
        let m = LogNormalShadowing::with_defaults(seed);
        let d1 = m.effective_distance(link(a, b, dist));
        let d2 = m.effective_distance(link(b, a, dist));
        prop_assert_eq!(d1, d2);
        prop_assert!(d1 > 0.0 && d1.is_finite());
        // Determinism across a fresh model with the same seed.
        let m2 = LogNormalShadowing::with_defaults(seed);
        prop_assert_eq!(d1, m2.effective_distance(link(a, b, dist)));
    }

    /// Terrain links: symmetric, deterministic, never shorter than the
    /// physical distance (diffraction only adds loss), and never delivered
    /// beyond the intended range the grid was sized for (`max_reach` is the
    /// identity, so the loss term must be non-negative).
    #[test]
    fn terrain_invariants(
        raster_seed in any::<u64>(),
        ax in 0.0f64..50.0, ay in 0.0f64..50.0,
        bx in 0.0f64..50.0, by in 0.0f64..50.0,
        a in 0u32..1_000, b in 0u32..1_000,
    ) {
        prop_assume!(a != b);
        let spec = TerrainSpec::generated(11, 11, 5.0, raster_seed);
        let model = PropagationSpec::Terrain(spec).build();
        let (pa, pb) = (Point::new(ax, ay), Point::new(bx, by));
        let dist = pa.distance(pb);
        prop_assume!(dist > 1e-6);
        let fwd = Link { tx: NodeId(a), rx: NodeId(b), tx_pos: pa, rx_pos: pb, distance: dist };
        let rev = Link { tx: NodeId(b), rx: NodeId(a), tx_pos: pb, rx_pos: pa, distance: dist };
        let d1 = model.effective_distance(fwd);
        prop_assert_eq!(d1, model.effective_distance(rev));
        prop_assert!(d1.is_finite());
        prop_assert!(d1 >= dist - 1e-12, "terrain shortened a link: {d1} < {dist}");
        prop_assert_eq!(model.max_reach(7.5), 7.5);
        // Determinism across a fresh model built from the same spec.
        let again = PropagationSpec::Terrain(TerrainSpec::generated(11, 11, 5.0, raster_seed)).build();
        prop_assert_eq!(d1, again.effective_distance(fwd));
    }
}
