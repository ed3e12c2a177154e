//! Brute-force reference medium for differential testing.
//!
//! [`ReferenceMedium`] re-implements the delivery semantics of
//! [`Medium`](crate::Medium) in the most obvious way possible: it remembers
//! every transmission forever and decides collisions at completion time by an
//! O(n²) scan for overlapping transmission intervals, instead of maintaining
//! incremental per-node arrival lists and corruption flags. Property tests
//! drive both implementations through identical schedules and require
//! identical deliveries, so a bookkeeping bug in the optimized dense-storage
//! medium cannot hide.
//!
//! Two deliberate points of contact with the production implementation:
//!
//! * random loss is drawn once per decodable receiver in the spatial grid's
//!   candidate order (bucket row-major, insertion order within a bucket) —
//!   that order is part of the medium's documented determinism contract, and
//!   following it here keeps the two implementations' RNG streams aligned;
//! * the decodable-receiver *set* the grid produces is re-verified on every
//!   broadcast by brute force over all nodes, so the shared enumeration
//!   cannot mask a grid query bug.
//!
//! Like the production medium, the reference assumes punctual completion:
//! [`ReferenceMedium::complete`] must be called at each transmission's end
//! time, before any broadcast starting at that same instant.

use peas_des::rng::SimRng;
use peas_des::time::SimTime;
use peas_geom::{Field, Point, SpatialGrid};

use crate::medium::{bucket_grid, derived_grid_cell, Delivery, RxOutcome};
use crate::packet::{airtime, NodeId, RxInfo};
use crate::propagation::{Link, PropagationModel};

/// Handle to one transmission started on a [`ReferenceMedium`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RefTxId(usize);

struct RefTx {
    sender: NodeId,
    /// The model's physical reach at the transmission's intended range.
    reach: f64,
    start: SimTime,
    end: SimTime,
    completed: bool,
    /// Decodable receivers in grid candidate order: (receiver, info, lost).
    receivers: Vec<(NodeId, RxInfo, bool)>,
}

/// The brute-force oracle. Grows without bound (it never forgets a
/// transmission); only suitable for tests.
pub struct ReferenceMedium {
    positions: Vec<Point>,
    grid: SpatialGrid,
    model: Box<dyn PropagationModel>,
    bitrate_bps: u64,
    loss_rate: f64,
    txs: Vec<RefTx>,
}

impl ReferenceMedium {
    /// Mirrors [`Medium::new`](crate::Medium::new).
    ///
    /// # Panics
    ///
    /// Panics if `loss_rate` is outside `[0, 1]`, `bitrate_bps` is zero, or
    /// any position lies outside `field`.
    pub fn new<M: PropagationModel + 'static>(
        field: Field,
        positions: &[Point],
        model: M,
        bitrate_bps: u64,
        loss_rate: f64,
    ) -> ReferenceMedium {
        ReferenceMedium::with_range_classes(field, positions, model, bitrate_bps, loss_rate, &[])
    }

    /// Mirrors [`Medium::with_range_classes`](crate::Medium::with_range_classes):
    /// derives the same bucket-grid cell size from `classes`, so the
    /// reference's candidate enumeration order — and therefore its RNG
    /// stream — stays aligned with the production medium's. The reference
    /// deliberately keeps querying the grid live instead of precomputing
    /// range-class rows; that independence is the point of the oracle.
    ///
    /// # Panics
    ///
    /// Panics if `loss_rate` is outside `[0, 1]`, `bitrate_bps` is zero, any
    /// position lies outside `field`, or any class is not strictly positive
    /// and finite.
    pub fn with_range_classes<M: PropagationModel + 'static>(
        field: Field,
        positions: &[Point],
        model: M,
        bitrate_bps: u64,
        loss_rate: f64,
        classes: &[f64],
    ) -> ReferenceMedium {
        assert!(
            (0.0..=1.0).contains(&loss_rate),
            "loss rate {loss_rate} not in [0,1]"
        );
        assert!(bitrate_bps > 0, "bitrate must be positive");
        for (i, &p) in positions.iter().enumerate() {
            assert!(field.contains(p), "node {i} at {p:?} outside the field");
        }
        ReferenceMedium {
            positions: positions.to_vec(),
            grid: bucket_grid(field, derived_grid_cell(&model, classes), positions),
            model: Box::new(model),
            bitrate_bps,
            loss_rate,
            txs: Vec::new(),
        }
    }

    /// Mirrors [`Medium::start_broadcast`](crate::Medium::start_broadcast);
    /// returns the handle and the transmission's end time.
    ///
    /// # Panics
    ///
    /// Panics if `intended_range` is not strictly positive, or if the grid's
    /// candidate set disagrees with a brute-force membership scan.
    pub fn start_broadcast(
        &mut self,
        now: SimTime,
        sender: NodeId,
        intended_range: f64,
        size_bytes: usize,
        rng: &mut SimRng,
    ) -> (RefTxId, SimTime) {
        assert!(intended_range > 0.0, "intended range must be positive");
        let end = now + airtime(size_bytes, self.bitrate_bps);
        let sender_pos = self.positions[sender.index()];
        let reach = self.model.max_reach(intended_range);

        let mut receivers = Vec::new();
        for (idx, pos) in self.grid.within_entries(sender_pos, reach) {
            if idx == sender.index() {
                continue;
            }
            let rx = NodeId::from_index(idx);
            let dist = sender_pos.distance(pos);
            let eff = self.model.effective_distance(Link {
                tx: sender,
                rx,
                tx_pos: sender_pos,
                rx_pos: pos,
                distance: dist,
            });
            if eff > intended_range {
                continue;
            }
            let lost = rng.bernoulli(self.loss_rate);
            let info = RxInfo {
                distance: dist,
                effective_distance: eff,
            };
            receivers.push((rx, info, lost));
        }

        // Independent membership check: every node, no grid.
        let mut from_grid: Vec<u32> = receivers.iter().map(|(rx, _, _)| rx.0).collect();
        from_grid.sort_unstable();
        let mut brute: Vec<u32> = (0..self.positions.len())
            .filter(|&i| i != sender.index())
            .filter(|&i| {
                let dist = sender_pos.distance(self.positions[i]);
                dist <= reach
                    && self.model.effective_distance(Link {
                        tx: sender,
                        rx: NodeId::from_index(i),
                        tx_pos: sender_pos,
                        rx_pos: self.positions[i],
                        distance: dist,
                    }) <= intended_range
            })
            .map(|i| NodeId::from_index(i).0)
            .collect();
        brute.sort_unstable();
        assert_eq!(
            from_grid, brute,
            "grid candidate set disagrees with brute-force membership"
        );

        self.txs.push(RefTx {
            sender,
            reach,
            start: now,
            end,
            completed: false,
            receivers,
        });
        (RefTxId(self.txs.len() - 1), end)
    }

    /// Mirrors [`Medium::carrier_busy`](crate::Medium::carrier_busy) by
    /// brute force: whether any transmission still on the air at `now`
    /// (`end > now`) reaches `node`'s position within its reach.
    pub fn carrier_busy(&self, node: NodeId, now: SimTime) -> bool {
        let pos = self.positions[node.index()];
        self.txs
            .iter()
            .any(|t| t.end > now && self.positions[t.sender.index()].within(pos, t.reach))
    }

    /// Mirrors [`Medium::complete`](crate::Medium::complete): reports every
    /// decodable receiver's outcome. A copy at receiver `r` collides exactly
    /// when some other transmission's interval strictly overlaps this one's
    /// and `r` is that transmission's sender or one of its decodable
    /// receivers.
    ///
    /// # Panics
    ///
    /// Panics if `tx` was already completed.
    pub fn complete(&mut self, tx: RefTxId) -> Vec<Delivery> {
        assert!(
            !self.txs[tx.0].completed,
            "reference transmission completed twice"
        );
        self.txs[tx.0].completed = true;
        let (start, end, nrx) = {
            let t = &self.txs[tx.0];
            (t.start, t.end, t.receivers.len())
        };
        let mut deliveries = Vec::with_capacity(nrx);
        for i in 0..nrx {
            let (rx, info, lost) = self.txs[tx.0].receivers[i];
            let collided = self.txs.iter().enumerate().any(|(j, other)| {
                j != tx.0
                    && other.start < end
                    && start < other.end
                    && (other.sender == rx || other.receivers.iter().any(|&(r, _, _)| r == rx))
            });
            let outcome = if collided {
                RxOutcome::Collision
            } else if lost {
                RxOutcome::RandomLoss
            } else {
                RxOutcome::Ok
            };
            deliveries.push(Delivery {
                receiver: rx,
                info,
                outcome,
            });
        }
        deliveries
    }
}
