//! The simulated sensor network: PEAS + GRAB over the radio substrate.
//!
//! [`World`] owns every node's protocol state machine, battery and RNG
//! stream, the shared [`Medium`], the failure injector and the metric
//! samplers. It drives everything through one deterministic event loop; the
//! same [`ScenarioConfig`] (including seed) always produces the identical
//! run.
//!
//! ## Energy accounting
//!
//! Every joule is charged to a [`EnergyCause`] so Table 1's overhead ratio
//! is measured directly:
//!
//! * a node's *baseline* draw follows its mode — sleep 0.03 mW, probing or
//!   working 12 mW (idle listening); probing-mode time is PEAS overhead;
//! * transmissions charge the full 60 mW for the frame's airtime to
//!   `ProtocolTx`/`AppTx` (the baseline for that span is not double
//!   charged);
//! * receptions reattribute one frame-time of the baseline to
//!   `ProtocolRx`/`AppRx` (reception draw equals idle draw on Motes, so the
//!   total is unchanged — only the attribution moves).

use std::sync::Arc;

use peas::{
    Action as PeasAction, Input as PeasInput, Message as PeasMessage, Mode, PeasNode,
    Timer as PeasTimer,
};
use peas_des::prelude::*;
use peas_geom::{CoverageCsr, CoverageGrid, Point};
use peas_grab::{GrabMessage, GrabRelay, GrabSink, GrabSource};
use peas_radio::{Battery, Delivery, EnergyCause, EnergyLedger, Medium, NodeId, RxInfo, TxId};

use crate::config::ScenarioConfig;
use crate::metrics::{RunReport, Sample};
use crate::trace::{DeathKind as TraceDeathKind, FrameKind, TraceEvent, TraceSink};

/// Boot-phase cost-field floods: the first working set forms within the
/// first ~30 s (λ₀ = 0.1), so the sink floods a few times early before
/// settling into the periodic `adv_period` refresh. This keeps the first
/// reports routable and the cumulative success ratio clean.
const BOOT_ADV_SECS: [u64; 3] = [10, 30, 60];
/// Carrier-sense retries before transmitting regardless.
const MAX_SEND_ATTEMPTS: u8 = 6;
/// `working_slot` sentinel: the sensor is not in the working set.
const NOT_WORKING: u32 = u32::MAX;

/// Dense index for per-mode censuses (`census[mode_rank(m)]`).
fn mode_rank(mode: Mode) -> usize {
    match mode {
        Mode::Working => 0,
        Mode::Probing => 1,
        Mode::Sleeping => 2,
        Mode::Dead => 3,
    }
}

/// The single checked `usize → u32` conversion for node indices. Node
/// ids travel as `u32` in event payloads, [`NodeId`]s and CSR rows;
/// [`ScenarioConfig::validate`] bounds `node_count` below the id space
/// (infrastructure included), so a failure here is a construction bug,
/// not a runtime condition.
fn node_u32(idx: usize) -> u32 {
    // peas-lint: allow(r1-unchecked-panic) -- ScenarioConfig::validate rejects node counts beyond the u32 id space
    u32::try_from(idx).expect("node index exceeds the u32 id space")
}

/// [`node_u32`] wrapped as a radio [`NodeId`].
fn node_id(idx: usize) -> NodeId {
    NodeId(node_u32(idx))
}

#[derive(Clone, Copy, Debug)]
enum Payload {
    Peas(PeasMessage),
    Grab(GrabMessage),
}

/// A deferred transmission parked in the [`World::send_jobs`] arena. The
/// heap entry carries only the arena handle, so the ~40-byte payload +
/// range + retry count never ride through the binary heap's sifts.
#[derive(Clone, Copy, Debug)]
struct SendJob {
    node: u32,
    payload: Payload,
    range: f64,
    attempts: u8,
}

#[derive(Clone, Copy, Debug)]
#[allow(clippy::enum_variant_names)] // SensorEvent is the domain term
enum Event {
    /// A PEAS timer fired for a sensor; stale unless `generation` is
    /// still its class's (see [`TimerTable`]).
    NodeTimer {
        node: u32,
        timer: PeasTimer,
        generation: u32,
    },
    /// Try to put a frame on the air (fresh, carrier-backoff or
    /// GRAB-delayed); the fat [`SendJob`] sits in the arena.
    SendAttempt { job: u32 },
    /// A transmission finished; resolve deliveries.
    TxDone { tx: TxId },
    /// Periodic sink cost-field flood.
    SinkAdv,
    /// Periodic source report generation.
    SourceReport,
    /// Inject one random node failure.
    Failure,
    /// A point event occurs somewhere in the field (event workload).
    SensorEvent,
    /// Periodic metrics snapshot (also the energy-death granularity).
    Sample,
}

/// Timer cancellation: one `u32` generation per node and timer class.
/// A scheduled [`Event::NodeTimer`] carries its class's generation, and
/// cancelling the class (a PEAS `Cancel` action, or a death) bumps it, so
/// every timer of that class already in the queue becomes stale. The
/// event loop drops a stale timer when it pops, before any handler runs
/// and without counting it. A timer armed after the cancel carries the
/// new generation and fires; one that already fired is gone from the
/// queue, so a later cancel cannot reach it. The queue itself never
/// learns of cancellation. A stale timer would alias only after 2³²
/// cancels of one class while it was pending.
struct TimerTable {
    generations: Vec<[u32; 4]>,
}

impl TimerTable {
    fn new(nodes: usize) -> TimerTable {
        TimerTable {
            generations: vec![[0; 4]; nodes],
        }
    }

    /// The event that fires `timer` for `node` under its class's current
    /// generation.
    fn event(&self, node: u32, timer: PeasTimer) -> Event {
        Event::NodeTimer {
            node,
            timer,
            generation: self.generations[node as usize][timer as usize],
        }
    }

    /// Makes every pending `timer` of `node` stale.
    fn cancel(&mut self, node: u32, timer: PeasTimer) {
        let generation = &mut self.generations[node as usize][timer as usize];
        *generation = generation.wrapping_add(1);
    }

    /// Whether a fired `timer` of `node` was armed under its class's
    /// current generation.
    fn is_current(&self, node: u32, timer: PeasTimer, generation: u32) -> bool {
        self.generations[node as usize][timer as usize] == generation
    }
}

/// Struct-of-arrays storage for the per-sensor runtime state. One
/// parallel vector per field keeps each event handler's working set
/// dense — a timer fire touches the `alive`/`timers`/`battery` lanes
/// without dragging the whole former `SensorRt` struct (PEAS machine,
/// GRAB relay, ledger, RNG — several cache lines) through the cache.
struct NodeStore {
    peas: Vec<PeasNode>,
    /// GRAB relays: length `node_count` when the workload is enabled
    /// (the config enables it for all sensors or none), else empty.
    grab: Vec<GrabRelay>,
    battery: Vec<Battery>,
    ledger: Vec<EnergyLedger>,
    rng: Vec<SimRng>,
    alive: Vec<bool>,
    /// Start of the not-yet-accounted baseline interval.
    last_account: Vec<SimTime>,
    /// Baseline already covered by tx/rx charges up to this instant.
    baseline_paid_until: Vec<SimTime>,
    /// The node's radio is transmitting until this instant.
    tx_busy_until: Vec<SimTime>,
    /// Timer generations for every node.
    timers: TimerTable,
}

impl NodeStore {
    fn len(&self) -> usize {
        self.peas.len()
    }

    fn grab_mut(&mut self, idx: usize) -> Option<&mut GrabRelay> {
        self.grab.get_mut(idx)
    }
}

/// The running network simulation.
///
/// # Examples
///
/// ```
/// use peas_sim::{ScenarioConfig, World};
///
/// let report = World::new(ScenarioConfig::small().with_seed(3)).run();
/// assert!(report.total_wakeups() > 0);
/// assert!(report.samples.len() > 10);
/// ```
pub struct World {
    cfg: ScenarioConfig,
    sim: Simulator<Event>,
    /// Also the one copy of every node's position.
    medium: Medium,
    nodes: NodeStore,
    /// Fat payloads of scheduled [`Event::SendAttempt`]s. Send attempts
    /// are never cancelled, so every `alloc` is paired with exactly one
    /// `take` when the event fires.
    send_jobs: Arena<SendJob>,
    source: Option<GrabSource>,
    sink: Option<GrabSink>,
    source_idx: usize,
    sink_idx: usize,
    infra_tx_busy: [SimTime; 2],
    /// In-flight transmissions indexed by [`TxId::slot`].
    in_flight: Vec<Option<(TxId, u32, Payload)>>,
    /// Reused delivery buffer for [`Medium::complete_into`].
    deliveries_buf: Vec<Delivery>,
    /// Reused action buffer for [`PeasNode::on_input_into`]. It is taken
    /// out while its actions are applied (see [`World::drive_peas`]).
    peas_actions: Vec<PeasAction>,
    coverage: CoverageGrid,
    /// Precomputed sensor→cell coverage rows: one Working transition is a
    /// pure counter walk over the node's row (exactly what rasterizing its
    /// disc would produce — the predicates are shared bitwise).
    coverage_csr: CoverageCsr,
    /// Per-sample-point working-node counts, maintained incrementally via
    /// [`CoverageCsr`] walks on Working transitions (exactly what a full
    /// rasterization of the current working set would produce).
    cov_counts: Vec<u32>,
    /// Scratch buffer for the debug-build full-rasterization cross-check.
    #[cfg(debug_assertions)]
    coverage_buf: Vec<u32>,
    /// Alive Working sensors (arbitrary order, swap-removed on exit) and
    /// their positions, maintained incrementally on mode transitions.
    working_nodes: Vec<u32>,
    working_pos: Vec<Point>,
    /// Per sensor: its index in `working_nodes`, or [`NOT_WORKING`].
    working_slot: Vec<u32>,
    /// Per sensor: `alive && mode.is_awake()`, maintained on every mode
    /// transition. The delivery hot path (~receivers × frames checks per
    /// run) reads this one flat byte instead of chasing the fat
    /// [`SensorRt`] for a mode that rarely changed.
    awake: Vec<bool>,
    /// Alive sensors per mode, indexed by [`mode_rank`].
    census: [usize; 4],
    /// Sum of every sensor's wakeup counter, maintained incrementally.
    total_wakeups: u64,
    samples: Vec<Sample>,
    failures_injected: u64,
    energy_deaths: u64,
    alive_sensors: usize,
    failure_rng: SimRng,
    misc_rng: SimRng,
    event_rng: SimRng,
    /// (events occurred, events detected, next event id).
    event_stats: (u64, u64, u64),
    /// (detector, event id) pairs launched toward the sink. Membership-only
    /// today, but kept deterministic (d1-std-hash) so a future iteration
    /// can never perturb the golden fingerprints.
    event_reports: DetSet<(u32, u64)>,
    events_delivered: u64,
    /// Events handled; stale timers are dropped uncounted.
    events_processed: u64,
    trace: Option<Box<dyn TraceSink>>,
    finished: bool,
}

impl World {
    /// Builds the network: deploys nodes, boots PEAS, schedules the
    /// workload, failure injector and samplers.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ScenarioConfig::validate`].
    pub fn new(config: ScenarioConfig) -> World {
        if let Err(e) = config.validate() {
            panic!("invalid scenario: {e}");
        }
        let seed = config.seed;
        let mut deploy_rng = SimRng::stream(seed, 1);
        let failure_rng = SimRng::stream(seed, 2);
        let misc_rng = SimRng::stream(seed, 3);
        let mut battery_rng = SimRng::stream(seed, 4);

        let mut positions =
            config
                .deployment
                .generate(config.field, config.node_count, &mut deploy_rng);
        // Infrastructure: source and sink at opposite corners (Section 5.2),
        // nudged inside the field so they sit on the medium's grid.
        let (source_idx, sink_idx) = if config.grab.is_some() {
            positions.push(Point::new(0.5, 0.5));
            positions.push(Point::new(
                config.field.width() - 0.5,
                config.field.height() - 0.5,
            ));
            (config.node_count, config.node_count + 1)
        } else {
            (usize::MAX, usize::MAX)
        };

        // The two transmission ranges the whole run will ever use: PEAS
        // control traffic and (when enabled) GRAB data traffic. Declaring
        // them lets the medium precompute per-sender rows.
        let mut range_classes = vec![config.peas.control_tx_range()];
        if let Some(g) = &config.grab {
            if !range_classes.contains(&g.data_range) {
                range_classes.push(g.data_range);
            }
        }
        let medium = Medium::with_range_classes(
            config.field,
            &positions,
            config.propagation.build(),
            config.bitrate_bps,
            config.loss_rate,
            &range_classes,
        );

        let mut sim = Simulator::new();
        let n = config.node_count;
        let mut nodes = NodeStore {
            peas: Vec::with_capacity(n),
            grab: Vec::with_capacity(if config.grab.is_some() { n } else { 0 }),
            battery: Vec::with_capacity(n),
            ledger: vec![EnergyLedger::new(); n],
            rng: Vec::with_capacity(n),
            alive: vec![true; n],
            last_account: vec![SimTime::ZERO; n],
            baseline_paid_until: vec![SimTime::ZERO; n],
            tx_busy_until: vec![SimTime::ZERO; n],
            timers: TimerTable::new(n),
        };
        // `validate` above checked `config.peas`, once for every node.
        let peas_config = Arc::new(config.peas.clone());
        for i in 0..n {
            // Same per-node order as ever: battery draw, then the node's
            // own stream — RNG consumption is part of the golden contract.
            let mut peas =
                PeasNode::with_shared_config(NodeId(node_u32(i)), Arc::clone(&peas_config));
            if let Some(g) = &config.grab {
                nodes.grab.push(GrabRelay::new(g.clone()));
            }
            nodes
                .battery
                .push(Battery::new(config.battery.draw(&mut battery_rng)));
            let mut rng = SimRng::stream(seed, 100 + i as u64);
            if let PeasAction::Schedule { timer, after } = peas.start(&mut rng) {
                sim.schedule_after(after, nodes.timers.event(node_u32(i), timer));
            }
            nodes.peas.push(peas);
            nodes.rng.push(rng);
        }

        let (source, sink) = match &config.grab {
            Some(grab_cfg) => {
                for &t in &BOOT_ADV_SECS {
                    sim.schedule_at(SimTime::from_secs(t), Event::SinkAdv);
                }
                sim.schedule_after(grab_cfg.report_period, Event::SourceReport);
                (
                    Some(GrabSource::new(node_id(source_idx), grab_cfg.clone())),
                    Some(GrabSink::new()),
                )
            }
            None => (None, None),
        };

        let mut census = [0usize; 4];
        let mut working_nodes = Vec::new();
        let mut working_pos = Vec::new();
        let mut working_slot = vec![NOT_WORKING; config.node_count];
        let mut awake = vec![false; config.node_count];
        for (i, peas) in nodes.peas.iter().enumerate() {
            let mode = if nodes.alive[i] {
                peas.mode()
            } else {
                Mode::Dead
            };
            census[mode_rank(mode)] += 1;
            awake[i] = nodes.alive[i] && mode.is_awake();
            if nodes.alive[i] && mode == Mode::Working {
                working_slot[i] = node_u32(working_nodes.len());
                working_nodes.push(node_u32(i));
                working_pos.push(positions[i]);
            }
        }

        let coverage = CoverageGrid::new(config.field, config.metrics.coverage_resolution);
        // Sensors only: the GRAB infrastructure nodes do not sense.
        let coverage_csr = CoverageCsr::build(
            &coverage,
            &positions[..config.node_count],
            config.sensing_range,
        );
        let mut cov_counts = vec![0u32; coverage.sample_count()];
        for &i in &working_nodes {
            coverage_csr.add_into(i as usize, &mut cov_counts);
        }

        let mut world = World {
            coverage,
            coverage_csr,
            cov_counts,
            awake,
            alive_sensors: config.node_count,
            sim,
            medium,
            nodes,
            send_jobs: Arena::new(),
            working_nodes,
            working_pos,
            working_slot,
            census,
            total_wakeups: 0,
            source,
            sink,
            source_idx,
            sink_idx,
            infra_tx_busy: [SimTime::ZERO; 2],
            in_flight: Vec::new(),
            deliveries_buf: Vec::new(),
            peas_actions: Vec::new(),
            #[cfg(debug_assertions)]
            coverage_buf: Vec::new(),
            samples: Vec::new(),
            failures_injected: 0,
            energy_deaths: 0,
            failure_rng,
            misc_rng,
            event_rng: SimRng::stream(seed, 5),
            event_stats: (0, 0, 0),
            event_reports: DetSet::new(),
            events_delivered: 0,
            events_processed: 0,
            trace: None,
            finished: false,
            cfg: config,
        };
        if let Some(f) = world.cfg.failure {
            let delay = world.failure_rng.exp_duration(f.per_second());
            world.sim.schedule_after(delay, Event::Failure);
        }
        if let Some(e) = world.cfg.events {
            let delay = world.event_rng.exp_duration(e.per_second());
            world.sim.schedule_after(delay, Event::SensorEvent);
        }
        let sample_period = world.cfg.metrics.sample_period;
        world.sim.schedule_after(sample_period, Event::Sample);
        world
    }

    /// Runs the simulation until the horizon, or until every sensor died.
    pub fn run(mut self) -> RunReport {
        let horizon = self.cfg.horizon;
        self.drain_before(horizon);
        self.into_report()
    }

    /// Runs until the given instant (for incremental inspection in tests
    /// and examples); returns `true` while the network still has alive
    /// sensors and the horizon was not reached.
    pub fn run_until(&mut self, t: SimTime) -> bool {
        let stop = t.min(self.cfg.horizon);
        self.drain_before(stop);
        !self.finished && stop < self.cfg.horizon
    }

    /// The shared event loop: delivers every event before `stop` (or
    /// until `finished` flips). A node timer whose class was cancelled
    /// since it was armed is dropped here, unhandled and uncounted. Its
    /// staleness is checked when it pops, not earlier: a handler may
    /// cancel a later timer due at this same instant.
    fn drain_before(&mut self, stop: SimTime) {
        while let Some(fired) = self.sim.next_before(stop) {
            if let Event::NodeTimer {
                node,
                timer,
                generation,
            } = fired.payload
            {
                if !self.nodes.timers.is_current(node, timer, generation) {
                    continue;
                }
            }
            self.events_processed += 1;
            self.handle(fired.time, fired.payload);
            if self.finished {
                return;
            }
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Positions of currently working sensors (for connectivity analysis).
    pub fn working_positions(&self) -> Vec<Point> {
        let positions = self.medium.positions();
        self.nodes
            .peas
            .iter()
            .enumerate()
            .filter(|(i, p)| self.nodes.alive[*i] && p.mode() == Mode::Working)
            .map(|(i, _)| positions[i])
            .collect()
    }

    /// Attaches a [`TraceSink`] receiving every mode change, death and
    /// frame transmission (see [`crate::trace`]). Replaces any previous
    /// sink. Tracing does not alter the simulation (same seed, same run).
    pub fn set_trace<S: TraceSink + 'static>(&mut self, sink: S) {
        self.trace = Some(Box::new(sink));
    }

    fn emit(&mut self, t: SimTime, event: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(t, &event);
        }
    }

    /// Renders the field as ASCII art, `cols` characters wide: `#` working,
    /// `.` sleeping/probing, `x` dead, `S`/`K` the GRAB source/sink. When
    /// several nodes share a character cell the most "active" one wins.
    ///
    /// # Panics
    ///
    /// Panics if `cols < 4` (too narrow for the frame).
    pub fn render_ascii(&self, cols: usize) -> String {
        assert!(cols >= 4, "need at least 4 columns");
        let aspect = self.cfg.field.height() / self.cfg.field.width();
        // Terminal cells are ~2x taller than wide.
        let rows = ((cols as f64 * aspect) / 2.0).ceil().max(1.0) as usize;
        let mut canvas = vec![vec![' '; cols]; rows];
        let put = |canvas: &mut Vec<Vec<char>>, p: Point, ch: char, rank: u8| {
            let cx = ((p.x / self.cfg.field.width()) * cols as f64) as usize;
            let cy = ((p.y / self.cfg.field.height()) * rows as f64) as usize;
            let (cx, cy) = (cx.min(cols - 1), cy.min(rows - 1));
            let current = canvas[cy][cx];
            let current_rank = match current {
                'S' | 'K' => 4,
                '#' => 3,
                '.' => 2,
                'x' => 1,
                _ => 0,
            };
            if rank > current_rank {
                canvas[cy][cx] = ch;
            }
        };
        let positions = self.medium.positions();
        for (i, peas) in self.nodes.peas.iter().enumerate() {
            let p = positions[i];
            let (ch, rank) = match (self.nodes.alive[i], peas.mode()) {
                (true, Mode::Working) => ('#', 3),
                (true, _) => ('.', 2),
                (false, _) => ('x', 1),
            };
            put(&mut canvas, p, ch, rank);
        }
        if self.source_idx != usize::MAX {
            put(&mut canvas, positions[self.source_idx], 'S', 4);
            put(&mut canvas, positions[self.sink_idx], 'K', 4);
        }
        let mut out = String::with_capacity((cols + 3) * (rows + 2));
        out.push('+');
        out.push_str(&"-".repeat(cols));
        out.push_str("+\n");
        for row in canvas {
            out.push('|');
            out.extend(row);
            out.push_str("|\n");
        }
        out.push('+');
        out.push_str(&"-".repeat(cols));
        out.push_str("+\n");
        out
    }

    /// Aggregated GRAB relay counters:
    /// (forwarded, dropped_budget, dropped_gradient, duplicates).
    pub fn grab_relay_totals(&self) -> (u64, u64, u64, u64) {
        let mut totals = (0, 0, 0, 0);
        for g in &self.nodes.grab {
            totals.0 += g.forwarded();
            totals.1 += g.dropped_budget();
            totals.2 += g.dropped_gradient();
            totals.3 += g.duplicates();
        }
        totals
    }

    /// Bytes of precomputed static-topology tables: the medium's
    /// range-class columns plus the coverage CSR. These are the O(n · degree)
    /// structures the memory budget at 10⁵–10⁶ nodes is dominated by (see
    /// DESIGN.md's memory model); the scale bench reports this next to
    /// peak RSS.
    pub fn topology_memory_bytes(&self) -> usize {
        self.medium.table_memory_bytes() + self.coverage_csr.memory_bytes()
    }

    /// Largest number of events the event queue ever held at once,
    /// stale timers included: a cancelled timer stays queued until its
    /// time comes. `perf` reports this per workload: pending depth —
    /// roughly one timer per probing or working node, plus in-flight
    /// frames — is what sizes the queue's working set.
    pub fn queue_high_water(&self) -> usize {
        self.sim.queue_high_water()
    }

    /// Approximate heap bytes currently held by the event queue (ladder
    /// rungs, bottom, top and spare buckets; see DESIGN.md §8).
    pub fn queue_memory_bytes(&self) -> usize {
        self.sim.queue_memory_bytes()
    }

    /// Current mode census: (working, probing, sleeping, dead).
    pub fn mode_census(&self) -> (usize, usize, usize, usize) {
        let mut census = (0, 0, 0, 0);
        for (peas, &alive) in self.nodes.peas.iter().zip(&self.nodes.alive) {
            match (alive, peas.mode()) {
                (true, Mode::Working) => census.0 += 1,
                (true, Mode::Probing) => census.1 += 1,
                (true, Mode::Sleeping) => census.2 += 1,
                _ => census.3 += 1,
            }
        }
        census
    }

    /// Builds the final report (consumes the world).
    pub fn into_report(mut self) -> RunReport {
        let now = self.sim.now();
        for i in 0..self.nodes.len() {
            self.account(i, now);
        }
        let mut node_stats = peas::NodeStats::default();
        let mut ledger = EnergyLedger::new();
        let mut consumed = 0.0;
        for i in 0..self.nodes.len() {
            node_stats.merge(&self.nodes.peas[i].stats());
            ledger.merge(&self.nodes.ledger[i]);
            consumed += self.nodes.battery[i].consumed_j();
        }
        RunReport {
            node_count: self.cfg.node_count,
            seed: self.cfg.seed,
            samples: self.samples,
            node_stats,
            ledger,
            consumed_j: consumed,
            medium: self.medium.stats(),
            failures_injected: self.failures_injected,
            energy_deaths: self.energy_deaths,
            generated_reports: self.source.as_ref().map_or(0, |s| s.generated()),
            delivered_reports: self
                .sink
                .as_ref()
                .map_or(0, |s| s.delivered_count())
                .saturating_sub(self.events_delivered),
            events_total: self.event_stats.0,
            events_detected: self.event_stats.1,
            events_delivered: self.events_delivered,
            end_secs: now.as_secs_f64(),
            events_processed: self.events_processed,
        }
    }

    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::NodeTimer { node, timer, .. } => self.on_node_timer(now, node, timer),
            Event::SendAttempt { job } => {
                let SendJob {
                    node,
                    payload,
                    range,
                    attempts,
                } = self.send_jobs.take(job);
                self.try_send(now, node as usize, payload, range, attempts);
            }
            Event::TxDone { tx } => self.on_tx_done(now, tx),
            Event::SinkAdv => self.on_sink_adv(now),
            Event::SourceReport => self.on_source_report(now),
            Event::Failure => self.on_failure(now),
            Event::SensorEvent => self.on_sensor_event(now),
            Event::Sample => self.on_sample(now),
        }
    }

    fn on_node_timer(&mut self, now: SimTime, node: u32, timer: PeasTimer) {
        let idx = node as usize;
        if !self.nodes.alive[idx] {
            return;
        }
        self.account(idx, now);
        if !self.nodes.alive[idx] {
            return; // accounting depleted the battery
        }
        let input = match timer {
            PeasTimer::Wake => PeasInput::WakeUp,
            PeasTimer::ProbeSend => PeasInput::ProbeSendTimer,
            PeasTimer::ReplyWindow => PeasInput::ReplyWindowClosed,
            PeasTimer::ReplyBackoff => PeasInput::ReplyBackoff,
        };
        self.drive_peas(now, idx, input);
    }

    /// Feeds one input to a sensor's PEAS machine and applies the actions,
    /// keeping the GRAB relay in sync with Working-mode membership.
    ///
    /// The node writes into the world's one action buffer, which is taken
    /// out of `self` while its actions are applied: a send there can
    /// drain the battery and kill the node, and nothing that handler runs
    /// may write into the buffer being drained. `kill` returns its four
    /// cancels by value, so today nothing does; a nested `drive_peas`
    /// would find an empty buffer, not this one.
    fn drive_peas(&mut self, now: SimTime, idx: usize, input: PeasInput) {
        let mode_before = self.nodes.peas[idx].mode();
        let was_working = mode_before == Mode::Working;
        let mut actions = std::mem::take(&mut self.peas_actions);
        // Split borrows: the PEAS machines and RNG streams are separate lanes.
        self.nodes.peas[idx].on_input_into(now, input, &mut self.nodes.rng[idx], &mut actions);
        let mode_after = self.nodes.peas[idx].mode();
        if mode_after != mode_before {
            // Sleeping → Probing is a wakeup, and the only move of the
            // node's wakeup counter.
            if mode_before == Mode::Sleeping && mode_after == Mode::Probing {
                self.total_wakeups += 1;
            }
            self.on_mode_transition(idx, mode_before, mode_after);
            self.emit(
                now,
                TraceEvent::ModeChange {
                    node: node_u32(idx),
                    from: mode_before,
                    to: mode_after,
                },
            );
        }
        let is_working = mode_after == Mode::Working;
        if was_working && !is_working {
            // Turned off (Section 4 rule): drop GRAB state; the node will
            // re-learn its cost on the next epoch if it works again.
            if let Some(grab) = self.nodes.grab_mut(idx) {
                grab.reset();
            }
        }
        self.apply_peas_actions(now, idx, &actions);
        actions.clear();
        self.peas_actions = actions;
    }

    fn apply_peas_actions(&mut self, now: SimTime, idx: usize, actions: &[PeasAction]) {
        for &action in actions {
            match action {
                PeasAction::Schedule { timer, after } => {
                    let event = self.nodes.timers.event(node_u32(idx), timer);
                    self.sim.schedule_at(now + after, event);
                }
                PeasAction::Cancel(timer) => self.nodes.timers.cancel(node_u32(idx), timer),
                PeasAction::Broadcast { msg, range } => {
                    self.try_send(now, idx, Payload::Peas(msg), range, 0);
                }
            }
        }
    }

    fn payload_size(&self, payload: &Payload) -> usize {
        match payload {
            Payload::Peas(msg) => msg.size_bytes(),
            Payload::Grab(GrabMessage::Adv { .. }) => {
                self.cfg.grab.as_ref().map_or(25, |g| g.adv_bytes)
            }
            Payload::Grab(GrabMessage::Report(_)) => {
                self.cfg.grab.as_ref().map_or(50, |g| g.report_bytes)
            }
        }
    }

    fn tx_busy_until(&self, idx: usize) -> SimTime {
        if idx == self.source_idx {
            self.infra_tx_busy[0]
        } else if idx == self.sink_idx {
            self.infra_tx_busy[1]
        } else {
            self.nodes.tx_busy_until[idx]
        }
    }

    /// Parks the fat payload in the arena and schedules the attempt.
    fn schedule_send(
        &mut self,
        at: SimTime,
        idx: usize,
        payload: Payload,
        range: f64,
        attempts: u8,
    ) {
        let job = self.send_jobs.alloc(SendJob {
            node: node_u32(idx),
            payload,
            range,
            attempts,
        });
        self.sim.schedule_at(at, Event::SendAttempt { job });
    }

    fn try_send(&mut self, now: SimTime, idx: usize, payload: Payload, range: f64, attempts: u8) {
        let is_infra = idx == self.source_idx || idx == self.sink_idx;
        if !is_infra {
            if !self.awake[idx] {
                return; // node died or went to sleep since scheduling
            }
            // A relay that stopped working must not forward stale GRAB frames.
            if matches!(payload, Payload::Grab(_)) && self.nodes.peas[idx].mode() != Mode::Working {
                return;
            }
        }
        // Radio is half-duplex: wait out our own transmission.
        let busy_until = self.tx_busy_until(idx);
        if now < busy_until {
            if attempts < MAX_SEND_ATTEMPTS {
                let jitter = self
                    .misc_rng
                    .range_duration(SimDuration::from_micros(100), SimDuration::from_millis(2));
                self.schedule_send(busy_until + jitter, idx, payload, range, attempts + 1);
            }
            return;
        }
        // CSMA-lite: back off while the channel is audibly busy, but after
        // MAX attempts transmit anyway (persistence beats starvation).
        if attempts < MAX_SEND_ATTEMPTS && self.medium.carrier_busy(node_id(idx), now) {
            let backoff = self
                .misc_rng
                .range_duration(SimDuration::from_millis(1), SimDuration::from_millis(12));
            self.schedule_send(now + backoff, idx, payload, range, attempts + 1);
            return;
        }

        let size = self.payload_size(&payload);
        let frame_kind = match payload {
            Payload::Peas(PeasMessage::Probe) => FrameKind::Probe,
            Payload::Peas(PeasMessage::Reply(_)) => FrameKind::Reply,
            Payload::Grab(GrabMessage::Adv { .. }) => FrameKind::Adv,
            Payload::Grab(GrabMessage::Report(_)) => FrameKind::Report,
        };
        self.emit(
            now,
            TraceEvent::FrameSent {
                node: node_u32(idx),
                kind: frame_kind,
                range,
            },
        );
        let tx = self
            .medium
            .start_broadcast(now, node_id(idx), range, size, &mut self.misc_rng);
        if is_infra {
            let slot = if idx == self.source_idx { 0 } else { 1 };
            self.infra_tx_busy[slot] = tx.end;
        } else {
            self.account(idx, now);
            let cause = match payload {
                Payload::Peas(_) => EnergyCause::ProtocolTx,
                Payload::Grab(_) => EnergyCause::AppTx,
            };
            if self.nodes.alive[idx] {
                let alive = self.nodes.battery[idx].drain_timed(
                    self.cfg.power.tx_mw,
                    tx.airtime,
                    cause,
                    &mut self.nodes.ledger[idx],
                );
                self.nodes.baseline_paid_until[idx] = tx.end;
                self.nodes.tx_busy_until[idx] = tx.end;
                if !alive {
                    self.kill(now, idx, DeathCause::Energy);
                }
            }
        }
        let slot = tx.id.slot();
        if slot >= self.in_flight.len() {
            self.in_flight.resize(slot + 1, None);
        }
        self.in_flight[slot] = Some((tx.id, node_u32(idx), payload));
        self.sim.schedule_at(tx.end, Event::TxDone { tx: tx.id });
    }

    fn on_tx_done(&mut self, now: SimTime, tx: TxId) {
        let (id, sender, payload) = self.in_flight[tx.slot()]
            .take()
            // peas-lint: allow(r1-unchecked-panic) -- every TxDone is scheduled by try_send right after filling this slot
            .expect("TxDone for unknown transmission");
        assert_eq!(id, tx, "TxDone for unknown transmission");
        let mut deliveries = std::mem::take(&mut self.deliveries_buf);
        self.medium.complete_into(tx, &mut deliveries);
        for d in &deliveries {
            if d.is_ok() {
                self.dispatch_rx(now, d.receiver.index(), sender, payload, d.info);
            }
        }
        self.deliveries_buf = deliveries;
    }

    fn dispatch_rx(
        &mut self,
        now: SimTime,
        rx: usize,
        sender: u32,
        payload: Payload,
        info: RxInfo,
    ) {
        if rx == self.sink_idx {
            if let Payload::Grab(GrabMessage::Report(report)) = payload {
                if let Some(sink) = self.sink.as_mut() {
                    let fresh = sink.on_report(report);
                    if fresh && self.event_reports.contains(&(report.source.0, report.seq)) {
                        self.events_delivered += 1;
                    }
                }
            }
            return;
        }
        if rx == self.source_idx {
            if let Payload::Grab(GrabMessage::Adv { epoch, cost }) = payload {
                if let Some(source) = self.source.as_mut() {
                    source.on_adv(epoch, cost);
                }
            }
            return;
        }
        if !self.awake[rx] {
            return; // radio powered down; the frame fell on deaf ears
        }
        self.account(rx, now);
        if !self.nodes.alive[rx] {
            return;
        }
        // Reattribute one frame-time of baseline as reception energy.
        let airtime = peas_radio::airtime(self.payload_size(&payload), self.cfg.bitrate_bps);
        let rx_cause = match payload {
            Payload::Peas(_) => EnergyCause::ProtocolRx,
            Payload::Grab(_) => EnergyCause::AppRx,
        };
        {
            let alive = self.nodes.battery[rx].drain_timed(
                self.cfg.power.rx_mw,
                airtime,
                rx_cause,
                &mut self.nodes.ledger[rx],
            );
            let paid = now + airtime;
            if paid > self.nodes.baseline_paid_until[rx] {
                self.nodes.baseline_paid_until[rx] = paid;
            }
            if !alive {
                self.kill(now, rx, DeathCause::Energy);
                return;
            }
        }
        match payload {
            Payload::Peas(msg) => {
                self.drive_peas(
                    now,
                    rx,
                    PeasInput::Frame {
                        from: NodeId(sender),
                        msg,
                        info,
                    },
                );
            }
            Payload::Grab(gmsg) => {
                if self.nodes.peas[rx].mode() != Mode::Working {
                    return; // only working nodes relay data
                }
                let outgoing = {
                    // Split borrows: relays and RNG streams are separate lanes.
                    let rng = &mut self.nodes.rng[rx];
                    let Some(relay) = self.nodes.grab.get_mut(rx) else {
                        return;
                    };
                    match gmsg {
                        GrabMessage::Adv { epoch, cost } => relay.on_adv(epoch, cost, rng),
                        GrabMessage::Report(report) => relay.on_report(report, rng),
                    }
                };
                if let Some(out) = outgoing {
                    // peas-lint: allow(r1-unchecked-panic) -- relays only exist when cfg.grab was set at build
                    let range = self.cfg.grab.as_ref().expect("grab enabled").data_range;
                    self.schedule_send(now + out.delay, rx, Payload::Grab(out.msg), range, 0);
                }
            }
        }
    }

    fn on_sink_adv(&mut self, now: SimTime) {
        let Some(grab_cfg) = self.cfg.grab.clone() else {
            return;
        };
        // peas-lint: allow(r1-unchecked-panic) -- sink is constructed with the world whenever cfg.grab is set
        let msg = self.sink.as_mut().expect("sink exists").next_adv();
        self.try_send(
            now,
            self.sink_idx,
            Payload::Grab(msg),
            grab_cfg.data_range,
            0,
        );
        // Chain the periodic refresh only from the last boot flood, so the
        // boot burst doesn't multiply into parallel flood chains.
        if now >= SimTime::from_secs(BOOT_ADV_SECS[BOOT_ADV_SECS.len() - 1]) {
            self.sim
                .schedule_at(now + grab_cfg.adv_period, Event::SinkAdv);
        }
    }

    fn on_source_report(&mut self, now: SimTime) {
        let Some(grab_cfg) = self.cfg.grab.clone() else {
            return;
        };
        // peas-lint: allow(r1-unchecked-panic) -- source is constructed with the world whenever cfg.grab is set
        let report = self.source.as_mut().expect("source exists").generate();
        if let Some(r) = report {
            self.try_send(
                now,
                self.source_idx,
                Payload::Grab(GrabMessage::Report(r)),
                grab_cfg.data_range,
                0,
            );
        }
        self.sim
            .schedule_at(now + grab_cfg.report_period, Event::SourceReport);
    }

    fn on_failure(&mut self, now: SimTime) {
        let Some(f) = self.cfg.failure else { return };
        if self.alive_sensors > 0 {
            // Uniform among alive sensors (failures strike any mode —
            // Section 5.2: "failures are deaths not incurred by energy
            // depletions"): pick the k-th alive sensor in index order.
            let k = self.failure_rng.index(self.alive_sensors);
            let victim = (0..self.nodes.len())
                .filter(|&i| self.nodes.alive[i])
                .nth(k)
                // peas-lint: allow(r1-unchecked-panic) -- alive_sensors is updated on every death; k < alive_sensors by construction
                .expect("alive_sensors count out of sync");
            self.account(victim, now);
            if self.nodes.alive[victim] {
                self.kill(now, victim, DeathCause::Failure);
            }
        }
        let delay = self.failure_rng.exp_duration(f.per_second());
        self.sim.schedule_after(delay, Event::Failure);
    }

    /// One point event: the closest working sensor with the event in
    /// sensing range detects it and launches a GRAB report toward the sink.
    fn on_sensor_event(&mut self, now: SimTime) {
        let Some(e) = self.cfg.events else { return };
        let pos = Point::new(
            self.event_rng.range_f64(0.0, self.cfg.field.width()),
            self.event_rng.range_f64(0.0, self.cfg.field.height()),
        );
        self.event_stats.0 += 1;
        let event_id = self.event_stats.2;
        self.event_stats.2 += 1;

        let positions = self.medium.positions();
        let detector = self
            .working_nodes
            .iter()
            .map(|&i| (i as usize, positions[i as usize].distance_squared(pos)))
            .filter(|&(_, d2)| d2 <= self.cfg.sensing_range * self.cfg.sensing_range)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i);
        if let Some(det) = detector {
            self.event_stats.1 += 1;
            // The detector needs a route; a relay without a cost cannot
            // send toward the sink (detected but unreportable).
            let cost = self.nodes.grab.get(det).and_then(|g| g.cost());
            if let (Some(cost), Some(grab_cfg)) = (cost, self.cfg.grab.clone()) {
                let report = peas_grab::Report {
                    source: node_id(det),
                    seq: event_id,
                    sender_cost: cost,
                    hops: 1,
                    budget: grab_cfg.hop_budget(cost),
                };
                self.event_reports.insert((node_u32(det), event_id));
                self.try_send(
                    now,
                    det,
                    Payload::Grab(GrabMessage::Report(report)),
                    grab_cfg.data_range,
                    0,
                );
            }
        }
        let delay = self.event_rng.exp_duration(e.per_second());
        self.sim.schedule_after(delay, Event::SensorEvent);
    }

    fn on_sample(&mut self, now: SimTime) {
        // Account everyone first: this is also where idle working nodes
        // discover their battery ran out.
        for i in 0..self.nodes.len() {
            if self.nodes.alive[i] {
                self.account(i, now);
            }
        }
        debug_assert_eq!(
            (
                self.working_nodes.len(),
                self.census[1],
                self.census[2],
                self.census[3]
            ),
            self.mode_census(),
            "incremental census out of sync with a full scan"
        );
        debug_assert_eq!(
            self.total_wakeups,
            self.nodes
                .peas
                .iter()
                .map(|p| p.stats().wakeups)
                .sum::<u64>(),
            "incremental wakeup total out of sync"
        );
        debug_assert!(
            self.nodes
                .peas
                .iter()
                .zip(&self.nodes.alive)
                .zip(&self.awake)
                .all(|((p, &alive), &w)| w == (alive && p.mode().is_awake())),
            "awake bitmap out of sync with sensor modes"
        );
        #[cfg(debug_assertions)]
        {
            let mut fresh = std::mem::take(&mut self.coverage_buf);
            self.coverage.coverage_counts_into(
                &self.working_pos,
                self.cfg.sensing_range,
                &mut fresh,
            );
            debug_assert_eq!(
                fresh, self.cov_counts,
                "incremental coverage counts out of sync with a full rasterization"
            );
            self.coverage_buf = fresh;
        }
        let coverage = self
            .coverage
            .k_coverages_from_counts(&self.cov_counts, self.cfg.metrics.max_k);
        let delivery_ratio = match (&self.source, &self.sink) {
            (Some(src), Some(snk)) if src.generated() > 0 => {
                Some(snk.delivered_count() as f64 / src.generated() as f64)
            }
            _ => None,
        };
        self.samples.push(Sample {
            t_secs: now.as_secs_f64(),
            coverage,
            working: self.working_nodes.len(),
            sleeping: self.census[mode_rank(Mode::Sleeping)],
            alive: self.alive_sensors,
            delivery_ratio,
            total_wakeups: self.total_wakeups,
        });
        if self.alive_sensors == 0 {
            self.finished = true;
            return;
        }
        self.sim
            .schedule_at(now + self.cfg.metrics.sample_period, Event::Sample);
    }

    /// Charges the baseline power for the interval since the node was last
    /// accounted, in its *current* mode. Call before any mode change.
    fn account(&mut self, idx: usize, now: SimTime) {
        let power = self.cfg.power;
        if !self.nodes.alive[idx] {
            self.nodes.last_account[idx] = now;
            return;
        }
        let start = self.nodes.last_account[idx];
        self.nodes.last_account[idx] = now;
        if now <= start {
            return;
        }
        let chargeable_from = start.max(self.nodes.baseline_paid_until[idx]);
        let dur = now.saturating_since(chargeable_from);
        if dur.is_zero() {
            return;
        }
        let (mw, cause) = match self.nodes.peas[idx].mode() {
            Mode::Sleeping => (power.sleep_mw, EnergyCause::Sleep),
            Mode::Probing => (power.idle_mw, EnergyCause::ProtocolIdle),
            Mode::Working => (power.idle_mw, EnergyCause::WorkingIdle),
            Mode::Dead => return,
        };
        let alive =
            self.nodes.battery[idx].drain_timed(mw, dur, cause, &mut self.nodes.ledger[idx]);
        if !alive {
            self.kill(now, idx, DeathCause::Energy);
        }
    }

    /// Keeps the incremental working set and mode census in step with one
    /// sensor's `from -> to` transition (only these two sites change a
    /// sensor's mode: [`World::drive_peas`] and [`World::kill`]).
    fn on_mode_transition(&mut self, idx: usize, from: Mode, to: Mode) {
        if from == to {
            return;
        }
        self.census[mode_rank(from)] -= 1;
        self.census[mode_rank(to)] += 1;
        self.awake[idx] = to.is_awake();
        if from == Mode::Working {
            let slot = self.working_slot[idx] as usize;
            self.working_nodes.swap_remove(slot);
            self.working_pos.swap_remove(slot);
            self.working_slot[idx] = NOT_WORKING;
            if slot < self.working_nodes.len() {
                let moved = self.working_nodes[slot] as usize;
                self.working_slot[moved] = node_u32(slot);
            }
            self.coverage_csr.remove_into(idx, &mut self.cov_counts);
        }
        if to == Mode::Working {
            self.working_slot[idx] = node_u32(self.working_nodes.len());
            self.working_nodes.push(node_u32(idx));
            self.working_pos.push(self.medium.positions()[idx]);
            self.coverage_csr.add_into(idx, &mut self.cov_counts);
        }
    }

    fn kill(&mut self, now: SimTime, idx: usize, cause: DeathCause) {
        if !self.nodes.alive[idx] {
            return;
        }
        let mode = self.nodes.peas[idx].mode();
        self.on_mode_transition(idx, mode, Mode::Dead);
        self.emit(
            now,
            TraceEvent::Death {
                node: node_u32(idx),
                cause: match cause {
                    DeathCause::Failure => TraceDeathKind::Failure,
                    DeathCause::Energy => TraceDeathKind::Energy,
                },
            },
        );
        self.nodes.alive[idx] = false;
        self.alive_sensors -= 1;
        match cause {
            DeathCause::Failure => self.failures_injected += 1,
            DeathCause::Energy => self.energy_deaths += 1,
        }
        for action in self.nodes.peas[idx].kill() {
            if let PeasAction::Cancel(timer) = action {
                self.nodes.timers.cancel(node_u32(idx), timer);
            }
        }
        if let Some(grab) = self.nodes.grab_mut(idx) {
            grab.reset();
        }
    }
}

/// Runs every config to completion on [`peas_des::par`]'s pool, with its
/// default worker count, and returns the reports in input order.
///
/// Each run is independent (its own world, RNG streams and medium), so
/// the reports equal `World::new(config).run()` for each config in turn;
/// only the wall time depends on the pool. The paper's figure points,
/// "averaged over 5 simulation runs" (Section 5.2), are the seeds of one
/// config run this way.
///
/// # Panics
///
/// Panics if any config fails [`ScenarioConfig::validate`].
pub fn run_all(configs: Vec<ScenarioConfig>) -> Vec<RunReport> {
    peas_des::par::map_ordered(&configs, peas_des::par::default_workers(), |config| {
        World::new(config.clone()).run()
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeathCause {
    Failure,
    Energy,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatterySpec, ScenarioConfig};

    fn quick_config(n: usize, seed: u64) -> ScenarioConfig {
        let mut c = ScenarioConfig::small().with_seed(seed);
        c.node_count = n;
        c
    }

    #[test]
    fn working_set_forms_during_boot() {
        let mut world = World::new(quick_config(60, 1));
        world.run_until(SimTime::from_secs(120));
        let (working, _probing, sleeping, dead) = world.mode_census();
        assert!(working > 5, "expected a working set, got {working}");
        assert!(sleeping > 10, "most nodes should sleep, got {sleeping}");
        assert_eq!(dead, 0, "nobody should die during boot");
    }

    #[test]
    fn working_set_is_mostly_rp_separated() {
        // The probing rule plus the Section 4 turn-off rule keep working
        // nodes roughly Rp apart. Collisions and simultaneous probes into
        // freshly opened gaps continually manufacture redundant workers
        // (the paper acknowledges this); the turn-off rule cycles them
        // back to sleep, so the *average* paired fraction stays bounded.
        let mut world = World::new(quick_config(80, 7));
        let rp = world.cfg.peas.probing_range;
        let mut paired_total = 0usize;
        let mut workers_total = 0usize;
        for t in [600u64, 1200, 1800, 2400, 3000] {
            world.run_until(SimTime::from_secs(t));
            let working = world.working_positions();
            let mut paired: std::collections::HashSet<usize> = std::collections::HashSet::new();
            for i in 0..working.len() {
                for j in (i + 1)..working.len() {
                    if working[i].distance(working[j]) < rp {
                        paired.insert(i);
                        paired.insert(j);
                    }
                }
            }
            paired_total += paired.len();
            workers_total += working.len();
        }
        assert!(
            paired_total * 2 <= workers_total,
            "{paired_total} paired worker observations out of {workers_total}"
        );
        // And the turn-off machinery must actually be cycling them out.
        let report = world.into_report();
        assert!(report.node_stats.turnoffs > 0, "turn-off rule never fired");
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let run = |seed| {
            let mut c = quick_config(40, seed);
            c.horizon = SimTime::from_secs(600);
            World::new(c).run()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.total_wakeups(), b.total_wakeups());
        assert_eq!(a.medium, b.medium);
        assert_eq!(a.samples.len(), b.samples.len());
        for (sa, sb) in a.samples.iter().zip(&b.samples) {
            assert_eq!(sa, sb);
        }
        let c = run(6);
        assert_ne!(a.total_wakeups(), c.total_wakeups());
    }

    #[test]
    fn run_all_equals_one_world_per_config_in_input_order() {
        let mut config = quick_config(25, 0);
        config.horizon = SimTime::from_secs(300);
        let configs: Vec<_> = (1..=5).map(|seed| config.clone().with_seed(seed)).collect();
        let serial: Vec<_> = configs
            .iter()
            .map(|c| World::new(c.clone()).run())
            .collect();
        let reports = run_all(configs);
        let seeds: Vec<u64> = reports.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, [1, 2, 3, 4, 5]);
        assert_eq!(reports, serial);
        assert!(run_all(Vec::new()).is_empty());
    }

    #[test]
    fn coverage_rises_then_collapses_when_batteries_die() {
        let mut c = quick_config(50, 3);
        c.battery = BatterySpec::Fixed(6.0); // ~500 s of working time
        c.horizon = SimTime::from_secs(4_000);
        let report = World::new(c).run();
        let cov1 = report.coverage_series(1);
        let peak = cov1.max_value().unwrap();
        assert!(peak > 0.9, "peak 1-coverage {peak}");
        let (_, final_cov) = cov1.last().unwrap();
        assert!(final_cov < 0.5, "coverage should collapse, got {final_cov}");
        assert!(report.energy_deaths > 0);
    }

    #[test]
    fn failures_are_injected_at_the_configured_rate() {
        let mut c = quick_config(80, 9);
        // Very aggressive: ~40 failures per 1000 s.
        c.failure = Some(crate::config::FailureConfig {
            rate_per_5000s: 200.0,
        });
        c.horizon = SimTime::from_secs(1_000);
        let report = World::new(c).run();
        assert!(
            (20..=60).contains(&(report.failures_injected as usize)),
            "failures {}",
            report.failures_injected
        );
    }

    #[test]
    fn energy_ledger_matches_battery_consumption() {
        let mut c = quick_config(30, 11);
        c.horizon = SimTime::from_secs(500);
        let report = World::new(c).run();
        assert!(
            (report.ledger.total_j() - report.consumed_j).abs() < 1e-6,
            "ledger {} vs battery {}",
            report.ledger.total_j(),
            report.consumed_j
        );
        assert!(report.ledger.total_j() > 0.0);
    }

    #[test]
    fn overhead_ratio_is_small() {
        let mut c = quick_config(60, 13);
        c.horizon = SimTime::from_secs(1_500);
        let report = World::new(c).run();
        let ratio = report.overhead_ratio();
        assert!(
            ratio < 0.05,
            "PEAS overhead should be tiny, got {:.4}",
            ratio
        );
        assert!(report.overhead_j() > 0.0, "probing must cost something");
    }

    #[test]
    fn grab_delivers_reports_end_to_end() {
        let mut c = ScenarioConfig::paper(200).with_seed(17);
        c.failure = None;
        c.horizon = SimTime::from_secs(900);
        let report = World::new(c).run();
        assert!(
            report.generated_reports >= 80,
            "{}",
            report.generated_reports
        );
        let ratio = report.final_delivery_ratio().unwrap();
        assert!(
            ratio > 0.8,
            "delivery ratio {ratio} ({} of {})",
            report.delivered_reports,
            report.generated_reports
        );
    }

    #[test]
    fn wakeups_accumulate_over_time() {
        let mut c = quick_config(50, 19);
        c.horizon = SimTime::from_secs(400);
        let short = World::new(c.clone()).run();
        c.horizon = SimTime::from_secs(1_600);
        let long = World::new(c).run();
        assert!(long.total_wakeups() > short.total_wakeups());
    }

    #[test]
    fn ascii_rendering_shows_the_field() {
        let mut c = ScenarioConfig::paper(80).with_seed(2);
        c.horizon = SimTime::from_secs(200);
        let mut world = World::new(c);
        world.run_until(SimTime::from_secs(100));
        let art = world.render_ascii(40);
        assert!(art.contains('#'), "no working nodes drawn:\n{art}");
        assert!(art.contains('.'), "no sleeping nodes drawn:\n{art}");
        assert!(
            art.contains('S') && art.contains('K'),
            "infra missing:\n{art}"
        );
        // Framed: first and last lines are borders of the right width.
        let first = art.lines().next().unwrap();
        assert_eq!(first.len(), 42);
        assert!(first.starts_with('+') && first.ends_with('+'));
    }

    #[test]
    fn event_workload_counts_are_consistent() {
        let mut c = ScenarioConfig::paper(200).with_seed(8);
        c.failure = None;
        c.events = Some(crate::config::EventWorkload {
            rate_per_100s: 40.0,
        });
        c.horizon = SimTime::from_secs(800);
        let report = World::new(c).run();
        assert!(report.events_total > 100, "{}", report.events_total);
        assert!(report.events_detected <= report.events_total);
        assert!(report.events_delivered <= report.events_detected);
        // A healthy 200-node network sees and reports nearly everything.
        assert!(report.event_detection_ratio().unwrap() > 0.9);
        assert!(report.event_delivery_ratio().unwrap() > 0.7);
    }

    #[test]
    fn tracing_observes_the_protocol_without_perturbing_it() {
        use crate::trace::TraceCounts;
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut c = quick_config(50, 6);
        c.horizon = SimTime::from_secs(500);
        // Baseline run, untraced.
        let untraced = World::new(c.clone()).run();

        let counts = Rc::new(RefCell::new(TraceCounts::default()));
        let sink_counts = Rc::clone(&counts);
        let first_changes: Rc<RefCell<std::collections::HashMap<u32, (Mode, Mode)>>> =
            Rc::new(RefCell::new(std::collections::HashMap::new()));
        let sink_changes = Rc::clone(&first_changes);
        let mut world = World::new(c);
        world.set_trace(move |t: SimTime, e: &TraceEvent| {
            sink_counts.borrow_mut().record(t, e);
            if let TraceEvent::ModeChange { node, from, to } = *e {
                sink_changes.borrow_mut().entry(node).or_insert((from, to));
            }
        });
        let traced = world.run();

        // Tracing must not change the run.
        assert_eq!(traced.samples, untraced.samples);
        assert_eq!(traced.medium, untraced.medium);

        let counts = counts.borrow();
        // Every frame the medium saw was announced to the sink.
        assert_eq!(counts.frames.iter().sum::<u64>(), traced.medium.frames_sent);
        // Probes dominate replies in a boot phase.
        assert!(counts.frames[0] > 0 && counts.frames[1] > 0);
        assert!(counts.mode_changes > 0);
        // Every node's first transition leaves Sleeping for Probing.
        for (&node, &(from, to)) in first_changes.borrow().iter() {
            assert_eq!(from, Mode::Sleeping, "node {node}");
            assert_eq!(to, Mode::Probing, "node {node}");
        }
    }

    /// A one-sensor world: until the sensor wakes, its boot Wake timer
    /// and the 25 s samples are the only events.
    fn lone_sensor() -> World {
        World::new(quick_config(1, 3))
    }

    /// Replaces the lone sensor's boot Wake with one due at 5 s.
    fn wake_at_5s(world: &mut World) {
        world.nodes.timers.cancel(0, PeasTimer::Wake);
        let wake = world.nodes.timers.event(0, PeasTimer::Wake);
        world.sim.schedule_at(SimTime::from_secs(5), wake);
    }

    #[test]
    fn a_cancelled_timer_never_fires_and_is_not_counted() {
        let mut world = lone_sensor();
        assert_eq!(world.sim.pending(), 2, "the boot Wake and the first sample");
        world.nodes.timers.cancel(0, PeasTimer::Wake);
        let report = world.run();
        assert_eq!(report.total_wakeups(), 0);
        assert_eq!(
            report.events_processed,
            report.samples.len() as u64,
            "only the samples were handled"
        );
    }

    #[test]
    fn a_timer_armed_after_a_cancel_fires() {
        let mut world = lone_sensor();
        // A second cancel of the same class changes nothing either.
        world.nodes.timers.cancel(0, PeasTimer::Wake);
        wake_at_5s(&mut world);
        world.run_until(SimTime::from_secs(6));
        assert_eq!(world.nodes.peas[0].stats().wakeups, 1);
    }

    #[test]
    fn kill_drops_every_outstanding_probe_send() {
        let mut world = lone_sensor();
        world.drive_peas(SimTime::ZERO, 0, PeasInput::WakeUp);
        world.kill(SimTime::ZERO, 0, DeathCause::Failure);
        let mut probe_sends = 0;
        while let Some(fired) = world.sim.next() {
            if let Event::NodeTimer {
                node,
                timer,
                generation,
            } = fired.payload
            {
                assert!(
                    !world.nodes.timers.is_current(node, timer, generation),
                    "a {timer:?} timer survived the kill"
                );
                probe_sends += u32::from(timer == PeasTimer::ProbeSend);
            }
        }
        assert_eq!(probe_sends, world.cfg.peas.probe_count);
    }

    #[test]
    fn a_send_that_empties_the_battery_kills_its_sender_mid_drain() {
        // The PROBE's transmit charge empties the battery, so applying the
        // node's Broadcast kills it while its actions are being drained.
        let mut world = lone_sensor();
        world.drive_peas(SimTime::ZERO, 0, PeasInput::WakeUp);
        let capacity = world.peas_actions.capacity();
        assert!(capacity > 0 && world.peas_actions.is_empty());
        world.nodes.battery[0] = Battery::new(1e-6);
        world.drive_peas(SimTime::ZERO, 0, PeasInput::ProbeSendTimer);
        assert!(!world.nodes.alive[0]);
        assert_eq!(world.nodes.peas[0].mode(), Mode::Dead);
        assert_eq!(world.energy_deaths, 1);
        // The frame still went out, and the buffer came back empty and
        // as large as it was.
        assert_eq!(world.medium.stats().frames_sent, 1);
        assert!(world.peas_actions.is_empty());
        assert_eq!(world.peas_actions.capacity(), capacity);
    }

    #[test]
    fn a_cancel_after_a_timer_fired_does_not_reach_it() {
        let mut world = lone_sensor();
        wake_at_5s(&mut world);
        world.run_until(SimTime::from_secs(5) + SimDuration::from_nanos(1));
        assert_eq!(world.events_processed, 1, "the Wake was handled");
        world.nodes.timers.cancel(0, PeasTimer::Wake);
        world.run_until(SimTime::from_secs(6));
        // The Wake keeps its effects and its count, and the probe burst
        // it armed, another class, still goes out.
        let stats = world.nodes.peas[0].stats();
        assert_eq!(stats.wakeups, 1);
        assert_eq!(stats.probes_sent, u64::from(world.cfg.peas.probe_count));
        assert!(world.events_processed > 1);
    }

    proptest::proptest! {
        /// Cancelling the timers of an arbitrary subset of sensors drops
        /// exactly that subset.
        #[test]
        fn cancelling_a_subset_drops_exactly_that_subset(
            times in proptest::collection::vec(0u64..100, 1..100),
            cancel_mask in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..100),
        ) {
            let mut sim = Simulator::new();
            let mut timers = TimerTable::new(times.len());
            for (i, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(t), timers.event(node_u32(i), PeasTimer::Wake));
            }
            let mut kept = Vec::new();
            for i in 0..times.len() {
                if cancel_mask.get(i).copied().unwrap_or(false) {
                    timers.cancel(node_u32(i), PeasTimer::Wake);
                } else {
                    kept.push(node_u32(i));
                }
            }
            let mut fired = Vec::new();
            while let Some(f) = sim.next() {
                if let Event::NodeTimer { node, timer, generation } = f.payload {
                    if timers.is_current(node, timer, generation) {
                        fired.push(node);
                    }
                }
            }
            fired.sort_unstable();
            proptest::prop_assert_eq!(fired, kept);
        }
    }

    #[test]
    fn all_dead_network_stops_early() {
        let mut c = quick_config(10, 23);
        c.battery = BatterySpec::Fixed(0.5); // ~40 s of awake time
        c.horizon = SimTime::from_secs(50_000);
        let report = World::new(c).run();
        assert!(report.end_secs < 10_000.0, "ended at {}", report.end_secs);
        let last = report.samples.last().unwrap();
        assert_eq!(last.alive, 0);
    }
}
