//! The shared broadcast medium.
//!
//! Models the channel effects PEAS cares about (Section 4 "Compensate packet
//! losses"): receiver-side collisions between overlapping transmissions,
//! uniform random frame loss, carrier sensing before transmitting, and
//! half-duplex radios (a transmitting node hears nothing).
//!
//! The medium is *passive*: the simulator calls [`Medium::start_broadcast`]
//! when a node transmits, schedules a delivery event at the returned end
//! time, and calls [`Medium::complete`] there to learn which receivers got
//! the frame intact. Whether a receiver was awake is the simulator's
//! business — the medium reports physical reception only.
//!
//! ## Storage and determinism
//!
//! In-flight transmissions live in dense, slot-indexed storage: a slot (and
//! its receiver-list allocation) is recycled through a free list once its
//! transmission completes, so the steady-state hot path performs no heap
//! allocation. Random loss is drawn once per decodable receiver, in
//! [`SpatialGrid`] candidate order (bucket row-major, insertion order within
//! a bucket); that draw order is part of the medium's determinism contract
//! and is relied upon by the differential tests against the brute-force
//! reference implementation (see `reference.rs`).
//!
//! Carrier sense is per node: a broadcast raises a "busy until" instant on
//! every node within its reach (`distance² <= reach²`), the sender
//! included, and [`Medium::carrier_busy`] reads one value.
//!
//! ## Static-topology fast path
//!
//! Nodes never move, so for the handful of transmission ranges the protocol
//! actually uses (the probing range `Rp`, the data range), the nodes within
//! reach of every possible broadcast are known at construction time.
//! [`Medium::with_range_classes`] keeps, per range class, the
//! [`peas_geom::NeighborTables`] adjacency at the class's reach as CSR
//! columns: each sender's decodable receivers (`eff <= range`, in grid
//! candidate order) with their true distances, and the ids of the other
//! nodes within reach. Under `Disc` every link decodes at its true
//! distance, and the adjacency is adopted as it is. A broadcast whose
//! range matches a class then replays its rows: no grid scan, no `sqrt`,
//! no per-link shadowing draw. Because the rows keep candidate order and
//! the filtered-out candidates never consumed loss draws in the first
//! place, the fast path is RNG-for-RNG identical to the query path, which
//! [`Medium::set_fast_path`] exposes for differential tests. Broadcasts at
//! any other range fall back to the live grid query.

use peas_des::rng::SimRng;
use peas_des::time::{SimDuration, SimTime};
use peas_geom::{Field, NeighborTables, Point, SpatialGrid};

use crate::lists::BucketLists;
use crate::packet::{airtime, NodeId, RxInfo};
use crate::propagation::{Link, PropagationModel};

/// Identifier of one in-flight transmission.
///
/// Packs the dense storage slot (low 32 bits, recycled between
/// transmissions) with a per-slot generation counter (high 32 bits), so
/// every handle stays unique over the medium's lifetime even though slots
/// are reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TxId(u64);

impl TxId {
    fn pack(slot: u32, generation: u32) -> TxId {
        TxId(((generation as u64) << 32) | slot as u64)
    }

    /// Dense storage index of this transmission: unique among transmissions
    /// in flight at the same instant, recycled after completion. Useful as
    /// a direct array index for caller-side per-transmission state.
    pub fn slot(self) -> usize {
        (self.0 & u32::MAX as u64) as usize
    }

    fn generation(self) -> u32 {
        // peas-lint: allow(r3-unchecked-cast) -- the high 32 bits of a packed u64 always fit u32
        (self.0 >> 32) as u32
    }
}

/// A started broadcast: schedule the completion at `end`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transmission {
    /// Handle to pass back to [`Medium::complete`].
    pub id: TxId,
    /// Time the frame occupies the channel.
    pub airtime: SimDuration,
    /// Instant the transmission finishes.
    pub end: SimTime,
}

/// The outcome of one receiver's copy of a completed frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Delivery {
    /// The physical receiver.
    pub receiver: NodeId,
    /// Link measurements for threshold filtering.
    pub info: RxInfo,
    /// How the copy fared.
    pub outcome: RxOutcome,
}

impl Delivery {
    /// Whether the frame arrived intact.
    pub fn is_ok(&self) -> bool {
        self.outcome == RxOutcome::Ok
    }
}

/// Per-copy reception result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxOutcome {
    /// Received intact.
    Ok,
    /// Destroyed by an overlapping transmission at this receiver.
    Collision,
    /// Dropped by the uniform loss process.
    RandomLoss,
}

/// Running totals the medium keeps for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MediumStats {
    /// Broadcasts started.
    pub frames_sent: u64,
    /// Copies delivered intact.
    pub deliveries_ok: u64,
    /// Copies destroyed by collisions.
    pub collisions: u64,
    /// Copies dropped by random loss.
    pub random_losses: u64,
}

/// Marks an [`Arrival`] as the transmitting node's own (half-duplex) slot
/// occupation rather than a receiver entry.
const SENDER_ENTRY: u32 = u32::MAX;

/// Sentinel slot meaning "no arrival" in the inline per-node arrival slot
/// (valid slots stay below `u32::MAX`; `start_broadcast` asserts it).
const NO_ARRIVAL: u32 = u32::MAX;

/// One transmission currently arriving at a node.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    /// Storage slot of the transmission.
    slot: u32,
    /// Index into that slot's receiver list, or [`SENDER_ENTRY`] when the
    /// node is the transmission's sender.
    entry: u32,
}

/// The channel at one node, in one 16-byte record: the broadcast loop
/// that raises `busy_until` also writes a receiver's arrival marker.
#[derive(Clone, Copy, Debug)]
struct NodeAir {
    /// The node senses the carrier while `now < busy_until`.
    busy_until: SimTime,
    /// The first (usually only) transmission arriving here, its own
    /// included; `first.slot == NO_ARRIVAL` means none.
    first: Arrival,
}

/// One receiver's copy of an in-flight frame.
#[derive(Clone, Copy, Debug)]
struct RxEntry {
    rx: NodeId,
    info: RxInfo,
    /// Dropped by the uniform loss process.
    lost: bool,
    /// Destroyed by an overlapping transmission at this receiver.
    corrupted: bool,
}

/// Dense per-slot transmission state. The `receivers` allocation is kept
/// across reuse so steady-state broadcasts allocate nothing.
struct TxSlot {
    generation: u32,
    active: bool,
    sender: NodeId,
    receivers: Vec<RxEntry>,
}

/// Grid cell size used when no range classes are declared. Chosen for the
/// paper's 50 × 50 m field with 10 m data range; [`Medium::with_range_classes`]
/// derives the cell from the declared classes instead.
pub const DEFAULT_GRID_CELL: f64 = 10.0;

/// The bucket-grid cell size for a propagation model and set of range
/// classes: the largest physical reach any class can have (so one class's
/// candidates are always found within the 3 × 3 bucket neighborhood),
/// falling back to [`DEFAULT_GRID_CELL`] when no classes are declared.
pub(crate) fn derived_grid_cell(model: &dyn PropagationModel, classes: &[f64]) -> f64 {
    let mut cell = 0.0f64;
    for &r in classes {
        assert!(
            r.is_finite() && r > 0.0,
            "range class must be positive, got {r}"
        );
        cell = cell.max(model.max_reach(r));
    }
    if cell == 0.0 {
        DEFAULT_GRID_CELL
    } else {
        cell
    }
}

/// The bucket grid over `positions`, node `i` inserted in index order: that
/// order fixes the candidate order that loss draws follow.
pub(crate) fn bucket_grid(field: Field, cell: f64, positions: &[Point]) -> SpatialGrid {
    let mut grid = SpatialGrid::new(field, cell);
    for (i, &p) in positions.iter().enumerate() {
        grid.insert(i, p);
    }
    grid
}

/// One declared range class: every sender's neighborhood at the class's
/// reach, as CSR columns.
#[derive(Default)]
struct RangeClass {
    range: f64,
    /// The model's physical reach for this class, cached at build time so
    /// class-matching broadcasts never touch the (dynamically dispatched)
    /// propagation model on the hot path.
    reach: f64,
    /// `offsets[i]..offsets[i + 1]` indexes sender `i`'s decodable links
    /// in `rx`, `dist` (true distance) and `eff` (effective distance,
    /// empty when every one equals `dist`), in grid candidate order.
    offsets: Vec<u32>,
    rx: Vec<u32>,
    dist: Vec<f64>,
    eff: Vec<f64>,
    /// The same for the nodes within reach that never decode the sender;
    /// both empty when the class adopted the adjacency.
    sense_offsets: Vec<u32>,
    sense_only: Vec<u32>,
}

impl RangeClass {
    /// Narrows one class of the adjacency (`offsets`, `ids`, `dists`, in
    /// candidate order) through `model` to the links that decode at
    /// `range`. `effective_distance` is a pure per-link function (the
    /// trait's documented contract), so chunk-order splicing is
    /// byte-identical to a serial pass.
    fn narrow(
        (offsets, ids, dists): (Vec<u32>, Vec<u32>, Vec<f64>),
        range: f64,
        reach: f64,
        model: &dyn PropagationModel,
        positions: &[Point],
    ) -> RangeClass {
        let n = offsets.len() - 1;
        let workers = peas_geom::par::build_workers(n);
        // Each link of sender `i`'s row with its effective distance.
        let links = |i: usize| {
            let (ids, dists) = (&ids, &dists);
            (offsets[i] as usize..offsets[i + 1] as usize).map(move |k| {
                let link = Link {
                    tx: NodeId::from_index(i),
                    rx: NodeId(ids[k]),
                    tx_pos: positions[i],
                    rx_pos: positions[ids[k] as usize],
                    distance: dists[k],
                };
                (k, model.effective_distance(link))
            })
        };
        // Every link decoding at its true distance (always, under `Disc`)
        // lets the class adopt the adjacency's columns as they are.
        let exact = peas_geom::par::chunked_build(n, workers, |span| {
            span.flat_map(links)
                .all(|(k, eff)| eff == dists[k] && eff <= range)
        });
        if exact.into_iter().all(|chunk| chunk) {
            return RangeClass {
                range,
                reach,
                offsets,
                rx: ids,
                dist: dists,
                ..RangeClass::default()
            };
        }
        let chunks = peas_geom::par::chunked_build(n, workers, |span| {
            let (mut decode, mut decode_ends) = ((Vec::new(), Vec::new(), Vec::new()), Vec::new());
            let (mut sense, mut sense_ends) = (Vec::new(), Vec::new());
            for i in span {
                for (k, eff) in links(i) {
                    if eff <= range {
                        decode.0.push(ids[k]);
                        decode.1.push(dists[k]);
                        decode.2.push(eff);
                    } else {
                        sense.push(ids[k]);
                    }
                }
                decode_ends.push(decode.0.len());
                sense_ends.push(sense.len());
            }
            ((decode, decode_ends), (sense, sense_ends))
        });
        let (decode, sense): (Vec<_>, Vec<_>) = chunks.into_iter().unzip();
        let (offsets, (rx, dist, eff)) = peas_geom::par::join_chunks(decode, "links in one class");
        let (sense_offsets, sense_only) = peas_geom::par::join_chunks(sense, "links in one class");
        RangeClass {
            range,
            reach,
            offsets,
            rx,
            eff: if eff == dist { Vec::new() } else { eff },
            dist,
            sense_offsets,
            sense_only,
        }
    }

    /// Bytes of the class's columns.
    fn memory_bytes(&self) -> usize {
        let u32s = self.offsets.len() + self.rx.len() + self.sense_offsets.len();
        (u32s + self.sense_only.len()) * std::mem::size_of::<u32>()
            + (self.dist.len() + self.eff.len()) * std::mem::size_of::<f64>()
    }
}

/// The broadcast medium shared by all nodes of one network.
///
/// # Examples
///
/// ```
/// use peas_des::rng::SimRng;
/// use peas_des::time::SimTime;
/// use peas_geom::{Field, Point};
/// use peas_radio::{Disc, Medium, NodeId};
///
/// let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
/// let mut medium = Medium::new(Field::new(10.0, 10.0), &positions, Disc, 20_000, 0.0);
/// let mut rng = SimRng::new(1);
///
/// let tx = medium.start_broadcast(SimTime::ZERO, NodeId(0), 3.0, 25, &mut rng);
/// let deliveries = medium.complete(tx.id);
/// assert_eq!(deliveries.len(), 1);
/// assert!(deliveries[0].is_ok());
/// ```
pub struct Medium {
    field: Field,
    positions: Vec<Point>,
    /// Bucket grid of the live query path. Declared range classes replay
    /// their columns instead, so the grid is built on the first broadcast
    /// that needs it, and a run that only uses its classes never holds it.
    grid: Option<SpatialGrid>,
    grid_cell: f64,
    model: Box<dyn PropagationModel>,
    bitrate_bps: u64,
    loss_rate: f64,
    /// One entry per declared range class.
    classes: Vec<RangeClass>,
    /// When false, class-matching broadcasts use the live grid query even
    /// though a class exists (differential-testing hook).
    fast_path: bool,
    /// Slot-indexed in-flight transmissions; inactive slots are listed in
    /// `free` and recycled by the next broadcast.
    slots: Vec<TxSlot>,
    free: Vec<u32>,
    /// Per node: carrier-sense horizon and first arrival. The arrival
    /// list's internal order is unobservable — corruption marks every
    /// entry and removal is by membership — so the first/overflow split
    /// changes nothing.
    air: Vec<NodeAir>,
    /// Rare overflow: second and later concurrent arrivals per node.
    arrivals_more: BucketLists<Arrival>,
    /// Reused buffer for the in-reach candidates of one broadcast.
    scratch: Vec<(usize, Point)>,
    stats: MediumStats,
}

impl Medium {
    /// Creates a medium over stationary nodes at `positions` with no
    /// declared range classes: every broadcast uses the live grid query, on
    /// a [`DEFAULT_GRID_CELL`]-sized bucket grid.
    ///
    /// `loss_rate` is the per-copy uniform drop probability in `[0, 1]`.
    /// Callers that know their transmission ranges up front should prefer
    /// [`Medium::with_range_classes`], which also sizes the bucket grid to
    /// fit the largest reach instead of assuming the default.
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
    ) -> Medium {
        Medium::with_range_classes(field, positions, model, bitrate_bps, loss_rate, &[])
    }

    /// Creates a medium that precomputes, for every (sender, range class)
    /// pair, the nodes within reach and which of them decode, so
    /// broadcasts at exactly one of the declared `classes` ranges replay
    /// flat rows instead of running a spatial query (see the module-level
    /// *Static-topology fast path* notes). Class matching is exact `f64`
    /// equality — pass the same configured constants you will later hand
    /// to [`Medium::start_broadcast`].
    ///
    /// The bucket grid's cell size is derived from the classes (the largest
    /// [`PropagationModel::max_reach`] over them) rather than hardcoded, so
    /// fallback queries at unclassified ranges stay correct and cheap
    /// whatever the configuration. With an empty class list this is exactly
    /// [`Medium::new`].
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
    ) -> Medium {
        assert!(
            (0.0..=1.0).contains(&loss_rate),
            "loss rate {loss_rate} not in [0,1]"
        );
        assert!(bitrate_bps > 0, "bitrate must be positive");
        let grid_cell = derived_grid_cell(&model, classes);
        for (i, &p) in positions.iter().enumerate() {
            assert!(field.contains(p), "node {i} at {p:?} outside the field");
        }

        // Physical adjacency at each class's maximum reach, rows in grid
        // candidate order. The bucket grid is dropped once the adjacency
        // exists, and each class takes over its adjacency's columns.
        let reaches: Vec<f64> = classes.iter().map(|&r| model.max_reach(r)).collect();
        let adjacency = NeighborTables::build(
            &bucket_grid(field, grid_cell, positions),
            positions,
            &reaches,
        );
        let classes = adjacency
            .into_columns()
            .zip(classes.iter().zip(reaches))
            .map(|(columns, (&range, reach))| {
                RangeClass::narrow(columns, range, reach, &model, positions)
            })
            .collect();

        Medium {
            field,
            positions: positions.to_vec(),
            grid: None,
            grid_cell,
            model: Box::new(model),
            bitrate_bps,
            loss_rate,
            classes,
            fast_path: true,
            slots: Vec::new(),
            free: Vec::new(),
            air: vec![
                NodeAir {
                    busy_until: SimTime::ZERO,
                    first: Arrival {
                        slot: NO_ARRIVAL,
                        entry: 0,
                    },
                };
                positions.len()
            ],
            arrivals_more: BucketLists::new(positions.len()),
            scratch: Vec::new(),
            stats: MediumStats::default(),
        }
    }

    /// Enables or disables the precomputed range-class fast path. Defaults
    /// to enabled; disabling forces every broadcast through the live grid
    /// query. The two paths are RNG-for-RNG identical (same receivers, same
    /// draw order), so this only exists for differential tests and
    /// benchmarking the query path.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
    }

    /// The bucket-grid cell size in meters: the largest class reach when
    /// range classes were declared, [`DEFAULT_GRID_CELL`] otherwise.
    pub fn grid_cell(&self) -> f64 {
        self.grid_cell
    }

    /// Number of precomputed range classes.
    pub fn range_class_count(&self) -> usize {
        self.classes.len()
    }

    /// Bytes of the precomputed range-class columns: per class, `u32`
    /// offsets, a `u32` id and an `f64` distance per decodable link, an
    /// `f64` effective distance per decodable link where the model moves
    /// any, and a `u32` id per node within reach that never decodes.
    /// `perf` reports this as part of the per-topology memory budget.
    pub fn table_memory_bytes(&self) -> usize {
        self.classes.iter().map(RangeClass::memory_bytes).sum()
    }

    /// Number of nodes on this medium.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Every node's position, indexed by node.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Whether `node` would sense the channel busy at `now` (some ongoing
    /// transmission is audible at its position).
    pub fn carrier_busy(&self, node: NodeId, now: SimTime) -> bool {
        self.air[node.index()].busy_until > now
    }

    /// Starts a broadcast from `sender` with transmission power chosen to
    /// cover `intended_range` meters, carrying `size_bytes` of payload.
    ///
    /// Returns the transmission handle and end time; the caller must invoke
    /// [`Medium::complete`] once the simulated clock reaches `end`.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range or `intended_range` is not
    /// strictly positive.
    pub fn start_broadcast(
        &mut self,
        now: SimTime,
        sender: NodeId,
        intended_range: f64,
        size_bytes: usize,
        rng: &mut SimRng,
    ) -> Transmission {
        assert!(intended_range > 0.0, "intended range must be positive");
        let duration = airtime(size_bytes, self.bitrate_bps);
        let end = now + duration;
        self.stats.frames_sent += 1;

        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(!s.active, "free list held an active slot");
                s.generation = s.generation.wrapping_add(1);
                s.active = true;
                s.sender = sender;
                s.receivers.clear();
                slot
            }
            None => {
                assert!(
                    self.slots.len() < u32::MAX as usize,
                    "too many in-flight transmissions"
                );
                self.slots.push(TxSlot {
                    generation: 0,
                    active: true,
                    sender,
                    receivers: Vec::new(),
                });
                // peas-lint: allow(r3-unchecked-cast) -- live slots are bounded by in-flight transmissions, one per node
                (self.slots.len() - 1) as u32
            }
        };
        let id = TxId::pack(slot, self.slots[slot as usize].generation);

        // Classified ranges reuse the reach cached at table build, so the
        // per-broadcast fast path never dispatches into the propagation
        // model; only unclassified fallback ranges pay the virtual call.
        let class = self.classes.iter().position(|c| c.range == intended_range);
        let reach = match class {
            Some(c) => self.classes[c].reach,
            None => self.model.max_reach(intended_range),
        };
        let class = class.filter(|_| self.fast_path);
        // Sender occupies its own radio (half-duplex): its entry corrupts
        // any frame arriving during this transmission.
        self.note_sender(slot, sender, end);
        // Take the receiver list out of the slot so `push_receiver` can
        // borrow `self` mutably; no entry of the list can be reached through
        // `self.air` while it is detached (each receiver is registered at
        // most once per transmission, and only after its entry exists).
        let mut receivers = std::mem::take(&mut self.slots[slot as usize].receivers);
        let i = sender.index();
        if let Some(c) = class {
            // Fast path: replay the class's rows. Same receivers, same
            // order, same loss draws as the query path below.
            for k in self.classes[c].offsets[i] as usize..self.classes[c].offsets[i + 1] as usize {
                let class = &self.classes[c];
                let (rx, dist) = (class.rx[k], class.dist[k]);
                let eff = class.eff.get(k).copied().unwrap_or(dist);
                self.push_receiver(slot, &mut receivers, NodeId(rx), dist, eff, end, rng);
            }
            let class = &self.classes[c];
            if let Some(span) = class.sense_offsets.get(i..i + 2) {
                for &j in &class.sense_only[span[0] as usize..span[1] as usize] {
                    raise_busy(&mut self.air[j as usize], end);
                }
            }
        } else {
            let sender_pos = self.positions[i];
            let mut in_reach = std::mem::take(&mut self.scratch);
            in_reach.clear();
            let grid = self
                .grid
                .get_or_insert_with(|| bucket_grid(self.field, self.grid_cell, &self.positions));
            in_reach.extend(grid.within_entries(sender_pos, reach));
            for &(idx, pos) in &in_reach {
                if idx == i {
                    continue; // `note_sender` covered the sender
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
                    // Too weak to decode at this power level, but audible.
                    raise_busy(&mut self.air[idx], end);
                    continue;
                }
                self.push_receiver(slot, &mut receivers, rx, dist, eff, end, rng);
            }
            self.scratch = in_reach;
        }
        self.slots[slot as usize].receivers = receivers;
        Transmission {
            id,
            airtime: duration,
            end,
        }
    }

    /// Registers `rx` as a decodable receiver of the transmission in `slot`
    /// (whose receiver list is detached as `receivers`), on the air until
    /// `end`: draws the loss process, marks overlap corruption in both
    /// directions, and appends the entry plus its arrival marker.
    #[allow(clippy::too_many_arguments)]
    fn push_receiver(
        &mut self,
        slot: u32,
        receivers: &mut Vec<RxEntry>,
        rx: NodeId,
        dist: f64,
        eff: f64,
        end: SimTime,
        rng: &mut SimRng,
    ) {
        let lost = rng.bernoulli(self.loss_rate);
        let n = rx.index();
        raise_busy(&mut self.air[n], end);
        // All stored arrivals still have end > "now" (completed ones are
        // removed at their end instant), so any existing entry overlaps.
        let corrupted = self.air[n].first.slot != NO_ARRIVAL;
        if corrupted {
            self.corrupt_existing(n);
        }
        self.push_arrival(
            n,
            Arrival {
                slot,
                // peas-lint: allow(r3-unchecked-cast) -- receiver entries are bounded by the node count, validated below u32
                entry: receivers.len() as u32,
            },
        );
        receivers.push(RxEntry {
            rx,
            info: RxInfo {
                distance: dist,
                effective_distance: eff,
            },
            lost,
            corrupted,
        });
    }

    /// Registers that `sender` transmits in `slot` until `end`: its own
    /// radio is busy, and its slot occupation corrupts any frame arriving
    /// there. Corruption of a sender's own occupation has no observable
    /// effect (the sender hears nothing anyway), so only receiver entries
    /// carry the flag.
    fn note_sender(&mut self, slot: u32, sender: NodeId, end: SimTime) {
        let n = sender.index();
        raise_busy(&mut self.air[n], end);
        // All stored arrivals still have end > "now" (completed ones are
        // removed at their end instant), so any existing entry overlaps.
        if self.air[n].first.slot != NO_ARRIVAL {
            self.corrupt_existing(n);
        }
        self.push_arrival(
            n,
            Arrival {
                slot,
                entry: SENDER_ENTRY,
            },
        );
    }

    /// Marks every receiver entry currently arriving at node `n` corrupted.
    fn corrupt_existing(&mut self, n: usize) {
        let first = self.air[n].first;
        if first.entry != SENDER_ENTRY {
            self.slots[first.slot as usize].receivers[first.entry as usize].corrupted = true;
        }
        for a in self.arrivals_more.iter(n) {
            if a.entry != SENDER_ENTRY {
                self.slots[a.slot as usize].receivers[a.entry as usize].corrupted = true;
            }
        }
    }

    /// Appends an arrival marker for node `n`: into the inline slot when
    /// free, the overflow list otherwise.
    fn push_arrival(&mut self, n: usize, a: Arrival) {
        if self.air[n].first.slot == NO_ARRIVAL {
            self.air[n].first = a;
        } else {
            self.arrivals_more.push(n, a);
        }
    }

    /// Drops `node`'s arrival marker for `slot` (order-insensitive).
    fn remove_arrival(&mut self, node: NodeId, slot: u32) {
        let n = node.index();
        if self.air[n].first.slot == slot {
            // Promote any overflow entry into the inline slot; which one is
            // immaterial (the list is a set).
            self.air[n].first = self.arrivals_more.pop(n).unwrap_or(Arrival {
                slot: NO_ARRIVAL,
                entry: 0,
            });
            return;
        }
        let removed = self.arrivals_more.retain(n, |a| a.slot != slot);
        assert_eq!(removed, 1, "arrival bookkeeping out of sync");
    }
    /// Completes a transmission, reporting every physical receiver's
    /// outcome. Must be called exactly once per started broadcast, at (or
    /// after) its `end` time.
    ///
    /// # Panics
    ///
    /// Panics if `tx` was never started or was already completed.
    pub fn complete(&mut self, tx: TxId) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.complete_into(tx, &mut out);
        out
    }

    /// Like [`Medium::complete`], but writes the deliveries into a
    /// caller-owned buffer (cleared first) so the per-transmission
    /// allocation can be reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `tx` was never started or was already completed.
    pub fn complete_into(&mut self, tx: TxId, out: &mut Vec<Delivery>) {
        out.clear();
        let slot = tx.slot();
        let known = self
            .slots
            .get(slot)
            .is_some_and(|s| s.active && s.generation == tx.generation());
        assert!(
            known,
            "complete() called for unknown or already-completed transmission"
        );
        let sender = self.slots[slot].sender;
        // peas-lint: allow(r3-unchecked-cast) -- slot round-trips through TxId's packed low u32
        self.remove_arrival(sender, slot as u32);
        for i in 0..self.slots[slot].receivers.len() {
            let e = self.slots[slot].receivers[i];
            // peas-lint: allow(r3-unchecked-cast) -- slot round-trips through TxId's packed low u32
            self.remove_arrival(e.rx, slot as u32);
            let outcome = if e.corrupted {
                self.stats.collisions += 1;
                RxOutcome::Collision
            } else if e.lost {
                self.stats.random_losses += 1;
                RxOutcome::RandomLoss
            } else {
                self.stats.deliveries_ok += 1;
                RxOutcome::Ok
            };
            out.push(Delivery {
                receiver: e.rx,
                info: e.info,
                outcome,
            });
        }
        self.slots[slot].active = false;
        // peas-lint: allow(r3-unchecked-cast) -- slot round-trips through TxId's packed low u32
        self.free.push(slot as u32);
    }

    /// Medium-wide counters.
    pub fn stats(&self) -> MediumStats {
        self.stats
    }
}

impl std::fmt::Debug for Medium {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Medium")
            .field("nodes", &self.positions.len())
            .field("in_flight", &(self.slots.len() - self.free.len()))
            .field("stats", &self.stats)
            .finish()
    }
}

/// Keeps `air` busy until at least `end`.
fn raise_busy(air: &mut NodeAir, end: SimTime) {
    air.busy_until = air.busy_until.max(end);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::{Disc, LogNormalShadowing, PropagationSpec};

    fn line_medium(loss: f64) -> Medium {
        // Nodes at x = 0, 2, 4, ..., 18 on a line.
        let positions: Vec<Point> = (0..10).map(|i| Point::new(2.0 * i as f64, 0.0)).collect();
        Medium::new(Field::new(20.0, 5.0), &positions, Disc, 20_000, loss)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn broadcast_reaches_nodes_in_range_only() {
        let mut m = line_medium(0.0);
        let mut rng = SimRng::new(1);
        let tx = m.start_broadcast(SimTime::ZERO, NodeId(0), 5.0, 25, &mut rng);
        assert_eq!(tx.airtime, SimDuration::from_millis(10));
        let dels = m.complete(tx.id);
        let mut rxs: Vec<u32> = dels.iter().map(|d| d.receiver.0).collect();
        rxs.sort_unstable();
        assert_eq!(rxs, vec![1, 2]); // x=2 and x=4 within 5 m
        assert!(dels.iter().all(Delivery::is_ok));
    }

    #[test]
    fn rx_info_reports_distance() {
        let mut m = line_medium(0.0);
        let mut rng = SimRng::new(1);
        let tx = m.start_broadcast(SimTime::ZERO, NodeId(0), 3.0, 25, &mut rng);
        let dels = m.complete(tx.id);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].info.distance, 2.0);
        assert_eq!(dels[0].info.effective_distance, 2.0);
    }

    #[test]
    fn overlapping_transmissions_collide_at_common_receiver() {
        let mut m = line_medium(0.0);
        let mut rng = SimRng::new(1);
        // Node 0 and node 2 (x=4) both transmit with range 5: node 1 (x=2)
        // hears both simultaneously -> collision there.
        let tx_a = m.start_broadcast(SimTime::ZERO, NodeId(0), 5.0, 25, &mut rng);
        let tx_b = m.start_broadcast(t(1), NodeId(2), 5.0, 25, &mut rng);
        let dels_a = m.complete(tx_a.id);
        let a1 = dels_a.iter().find(|d| d.receiver == NodeId(1)).unwrap();
        assert_eq!(a1.outcome, RxOutcome::Collision);
        let dels_b = m.complete(tx_b.id);
        let b1 = dels_b.iter().find(|d| d.receiver == NodeId(1)).unwrap();
        assert_eq!(b1.outcome, RxOutcome::Collision);
        // Node 3 (x=6) hears only tx_b: intact.
        let b3 = dels_b.iter().find(|d| d.receiver == NodeId(3)).unwrap();
        assert_eq!(b3.outcome, RxOutcome::Ok);
        // Four corrupted copies in total: tx_a at node 1 and at node 2
        // (which was deaf while sending tx_b), tx_b at node 1 and at node 0
        // (which was still sending tx_a when tx_b began).
        assert_eq!(m.stats().collisions, 4);
    }

    #[test]
    fn non_overlapping_transmissions_do_not_collide() {
        let mut m = line_medium(0.0);
        let mut rng = SimRng::new(1);
        let tx_a = m.start_broadcast(SimTime::ZERO, NodeId(0), 5.0, 25, &mut rng);
        let dels_a = m.complete(tx_a.id); // completes at 10 ms
        let tx_b = m.start_broadcast(t(10), NodeId(2), 5.0, 25, &mut rng);
        let dels_b = m.complete(tx_b.id);
        assert!(dels_a.iter().all(Delivery::is_ok));
        assert!(dels_b.iter().all(Delivery::is_ok));
    }

    #[test]
    fn transmitting_node_cannot_receive() {
        let mut m = line_medium(0.0);
        let mut rng = SimRng::new(1);
        // Nodes 0 and 1 transmit simultaneously; each is deaf to the other,
        // and the medium models that as a collision at each sender.
        let tx_a = m.start_broadcast(SimTime::ZERO, NodeId(0), 5.0, 25, &mut rng);
        let tx_b = m.start_broadcast(SimTime::ZERO, NodeId(1), 5.0, 25, &mut rng);
        let dels_a = m.complete(tx_a.id);
        let at_b = dels_a.iter().find(|d| d.receiver == NodeId(1)).unwrap();
        assert_ne!(at_b.outcome, RxOutcome::Ok);
        let dels_b = m.complete(tx_b.id);
        let at_a = dels_b.iter().find(|d| d.receiver == NodeId(0)).unwrap();
        assert_ne!(at_a.outcome, RxOutcome::Ok);
    }

    #[test]
    fn random_loss_drops_roughly_the_configured_fraction() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let mut m = Medium::new(Field::new(5.0, 5.0), &positions, Disc, 20_000, 0.3);
        let mut rng = SimRng::new(5);
        let mut lost = 0;
        let n = 2000;
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            let tx = m.start_broadcast(now, NodeId(0), 2.0, 25, &mut rng);
            now = tx.end;
            let dels = m.complete(tx.id);
            if dels[0].outcome == RxOutcome::RandomLoss {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed loss rate {rate}");
        assert_eq!(m.stats().random_losses, lost);
    }

    #[test]
    fn carrier_sense_sees_ongoing_transmissions() {
        let mut m = line_medium(0.0);
        let mut rng = SimRng::new(1);
        assert!(!m.carrier_busy(NodeId(1), SimTime::ZERO));
        let tx = m.start_broadcast(SimTime::ZERO, NodeId(0), 5.0, 25, &mut rng);
        assert!(m.carrier_busy(NodeId(1), t(5)));
        // Node 9 at x=18 is far outside range 5 of x=0.
        assert!(!m.carrier_busy(NodeId(9), t(5)));
        // After the frame ends the channel is clear again.
        assert!(!m.carrier_busy(NodeId(1), tx.end));
        m.complete(tx.id);
    }

    #[test]
    fn back_to_back_frames_at_same_instant_do_not_overlap() {
        let mut m = line_medium(0.0);
        let mut rng = SimRng::new(1);
        let tx_a = m.start_broadcast(SimTime::ZERO, NodeId(0), 5.0, 25, &mut rng);
        let dels_a = m.complete(tx_a.id);
        // Second frame starts exactly when the first ended.
        let tx_b = m.start_broadcast(tx_a.end, NodeId(0), 5.0, 25, &mut rng);
        let dels_b = m.complete(tx_b.id);
        assert!(dels_a.iter().all(Delivery::is_ok));
        assert!(dels_b.iter().all(Delivery::is_ok));
    }

    #[test]
    #[should_panic(expected = "unknown or already-completed")]
    fn double_complete_panics() {
        let mut m = line_medium(0.0);
        let mut rng = SimRng::new(1);
        let tx = m.start_broadcast(SimTime::ZERO, NodeId(0), 5.0, 25, &mut rng);
        m.complete(tx.id);
        m.complete(tx.id);
    }

    #[test]
    #[should_panic(expected = "unknown or already-completed")]
    fn stale_id_for_reused_slot_panics() {
        let mut m = line_medium(0.0);
        let mut rng = SimRng::new(1);
        let tx_a = m.start_broadcast(SimTime::ZERO, NodeId(0), 5.0, 25, &mut rng);
        m.complete(tx_a.id);
        // tx_b recycles tx_a's slot; the old handle must not resolve to it.
        let tx_b = m.start_broadcast(tx_a.end, NodeId(0), 5.0, 25, &mut rng);
        assert_eq!(tx_a.id.slot(), tx_b.id.slot());
        assert_ne!(tx_a.id, tx_b.id);
        m.complete(tx_a.id);
    }

    #[test]
    fn slots_are_recycled_and_ids_stay_unique() {
        let mut m = line_medium(0.0);
        let mut rng = SimRng::new(1);
        let mut seen = std::collections::HashSet::new();
        let mut now = SimTime::ZERO;
        for _ in 0..50 {
            let tx = m.start_broadcast(now, NodeId(0), 5.0, 25, &mut rng);
            now = tx.end;
            assert_eq!(tx.id.slot(), 0, "serial broadcasts must reuse slot 0");
            assert!(seen.insert(tx.id), "TxId reused: {:?}", tx.id);
            m.complete(tx.id);
        }
    }

    #[test]
    fn complete_into_reuses_the_buffer() {
        let mut m = line_medium(0.0);
        let mut rng = SimRng::new(1);
        let mut buf = Vec::new();
        let tx_a = m.start_broadcast(SimTime::ZERO, NodeId(0), 5.0, 25, &mut rng);
        m.complete_into(tx_a.id, &mut buf);
        assert_eq!(buf.len(), 2);
        let tx_b = m.start_broadcast(tx_a.end, NodeId(9), 3.0, 25, &mut rng);
        m.complete_into(tx_b.id, &mut buf);
        // Cleared and refilled, not appended.
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].receiver, NodeId(8));
    }

    #[test]
    fn stats_track_sent_and_ok() {
        let mut m = line_medium(0.0);
        let mut rng = SimRng::new(1);
        let tx = m.start_broadcast(SimTime::ZERO, NodeId(5), 3.0, 25, &mut rng);
        let dels = m.complete(tx.id);
        assert_eq!(m.stats().frames_sent, 1);
        assert_eq!(m.stats().deliveries_ok, dels.len() as u64);
    }

    /// Drives a schedule with overlapping, loss-prone broadcasts at the
    /// declared class ranges plus an unclassified range, and returns every
    /// delivery in order.
    fn drive_schedule(m: &mut Medium, classes: &[f64], seed: u64) -> Vec<Delivery> {
        let mut rng = SimRng::new(seed);
        let mut out = Vec::new();
        let n = m.node_count() as u32;
        let mut pending: Vec<TxId> = Vec::new();
        let mut now = SimTime::ZERO;
        for step in 0..60u32 {
            let sender = NodeId((step * 7) % n);
            let range = if step % 5 == 4 {
                4.5 // unclassified: must take the query path in both media
            } else {
                classes[step as usize % classes.len()]
            };
            let tx = m.start_broadcast(now, sender, range, 25, &mut rng);
            pending.push(tx.id);
            // Overlap every other pair of frames.
            if step % 2 == 1 {
                now = tx.end;
                for id in pending.drain(..) {
                    out.extend(m.complete(id));
                }
            } else {
                now += SimDuration::from_millis(3);
            }
        }
        for id in pending {
            out.extend(m.complete(id));
        }
        out
    }

    #[test]
    fn fast_path_is_byte_identical_to_query_path() {
        let positions: Vec<Point> = (0..40)
            .map(|i| Point::new((i % 8) as f64 * 2.5, (i / 8) as f64 * 3.5))
            .collect();
        let field = Field::new(20.0, 20.0);
        let classes = [3.0, 10.0];
        for spec in [
            PropagationSpec::Disc,
            PropagationSpec::shadowed(42),
            PropagationSpec::Terrain(crate::propagation::TerrainSpec::generated(5, 5, 5.0, 7)),
        ] {
            for loss in [0.0, 0.3] {
                // `spec.build()` returns a boxed model; the generic
                // constructor accepts it through the Box delegation impl.
                let mut fast = Medium::with_range_classes(
                    field,
                    &positions,
                    spec.build(),
                    20_000,
                    loss,
                    &classes,
                );
                let mut slow = Medium::with_range_classes(
                    field,
                    &positions,
                    spec.build(),
                    20_000,
                    loss,
                    &classes,
                );
                slow.set_fast_path(false);
                let a = drive_schedule(&mut fast, &classes, 77);
                let b = drive_schedule(&mut slow, &classes, 77);
                assert_eq!(a, b, "model {spec:?} loss {loss}");
                assert!(!a.is_empty());
                assert_eq!(fast.stats(), slow.stats());
            }
        }
    }

    #[test]
    fn unclassified_range_falls_back_to_query_path() {
        let positions: Vec<Point> = (0..10).map(|i| Point::new(2.0 * i as f64, 0.0)).collect();
        let mut m = Medium::with_range_classes(
            Field::new(20.0, 5.0),
            &positions,
            Disc,
            20_000,
            0.0,
            &[3.0],
        );
        let mut rng = SimRng::new(1);
        // 5.0 is not a declared class; the broadcast must still deliver.
        let tx = m.start_broadcast(SimTime::ZERO, NodeId(0), 5.0, 25, &mut rng);
        let mut rxs: Vec<u32> = m.complete(tx.id).iter().map(|d| d.receiver.0).collect();
        rxs.sort_unstable();
        assert_eq!(rxs, vec![1, 2]);
    }

    #[test]
    fn grid_cell_derives_from_largest_class_reach() {
        let positions = vec![Point::new(1.0, 1.0)];
        let field = Field::new(60.0, 60.0);
        let m = Medium::with_range_classes(field, &positions, Disc, 20_000, 0.0, &[3.0, 10.0]);
        assert_eq!(m.grid_cell(), 10.0);
        assert_eq!(m.range_class_count(), 2);
        // Shadowing widens the physical reach past the intended range.
        let shadowed = Medium::with_range_classes(
            field,
            &positions,
            LogNormalShadowing::with_defaults(1),
            20_000,
            0.0,
            &[10.0],
        );
        assert_eq!(
            shadowed.grid_cell(),
            LogNormalShadowing::with_defaults(1).max_reach(10.0)
        );
        assert!(shadowed.grid_cell() > 10.0);
        // Class-less construction keeps the documented default.
        let plain = Medium::new(field, &positions, Disc, 20_000, 0.0);
        assert_eq!(plain.grid_cell(), DEFAULT_GRID_CELL);
        assert_eq!(plain.range_class_count(), 0);
    }

    #[test]
    fn disc_classes_adopt_the_adjacency() {
        let positions: Vec<Point> = (0..40).map(|i| Point::new(i as f64 / 2.0, 1.0)).collect();
        let (field, classes) = (Field::new(20.0, 5.0), [3.0, 10.0]);
        let grid = bucket_grid(field, 10.0, &positions);
        let adjacency = NeighborTables::build(&grid, &positions, &classes);
        let disc = Medium::with_range_classes(field, &positions, Disc, 20_000, 0.0, &classes);
        // Ids and distances only: every node within reach decodes.
        assert_eq!(disc.table_memory_bytes(), adjacency.memory_bytes());
        // Shadowing reaches past the range: the rest cost only an id.
        let shadow = LogNormalShadowing::with_defaults(1);
        let shadowed = Medium::with_range_classes(field, &positions, shadow, 20_000, 0.0, &classes);
        let class = &shadowed.classes[0];
        assert!(!class.sense_only.is_empty());
        assert_eq!(class.eff.len(), class.rx.len());
    }

    #[test]
    fn shadowed_channel_filters_by_effective_distance() {
        let positions: Vec<Point> = (0..40).map(|i| Point::new(i as f64, 0.0)).collect();
        let mut m = Medium::new(
            Field::new(40.0, 5.0),
            &positions,
            LogNormalShadowing::with_defaults(3),
            20_000,
            0.0,
        );
        let mut rng = SimRng::new(9);
        let tx = m.start_broadcast(SimTime::ZERO, NodeId(0), 10.0, 25, &mut rng);
        let dels = m.complete(tx.id);
        // Every delivered copy must appear within the intended range.
        assert!(dels.iter().all(|d| d.info.effective_distance <= 10.0));
        // Shadowing should make the receiver set differ from the pure disc.
        let true_dists: Vec<f64> = dels.iter().map(|d| d.info.distance).collect();
        let some_beyond = true_dists.iter().any(|&d| d > 10.0);
        let some_missing = (1..=10).any(|i| dels.iter().all(|d| d.receiver != NodeId(i)));
        assert!(
            some_beyond || some_missing,
            "shadowing had no observable effect: {true_dists:?}"
        );
    }
}
