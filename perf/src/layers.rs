//! The traced run: one job of a workload with `TraceCounts` attached and
//! `run_until` called in fixed simulated slices, followed by replays of
//! each layer's public entry points on that job's exact inputs — its
//! deployment (`SimRng::stream(seed, 1)`), range classes, coverage grid
//! and pending-event depth. Every per-layer metric comes from here, and
//! every measurement sits in a span (see [`crate::trace`]).
//!
//! Layers are named by crate: `des` (event queue), `radio` (medium),
//! `core` (`PeasNode`), `geom` (deployment, neighbor and coverage
//! tables), `grab` (relay), `sim` (the `World` run loop) and `cache`
//! (`peas_sim::cache` with the schema-1 `report_json` codec).

use std::cell::RefCell;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use peas::{Input, Message, Mode, PeasConfig, PeasNode, Reply, CONTROL_FRAME_BYTES};
use peas_des::event::EventQueue;
use peas_des::rng::SimRng;
use peas_des::time::{SimDuration, SimTime};
use peas_geom::{CoverageCsr, CoverageGrid, NeighborTables, Point, SpatialGrid};
use peas_grab::{GrabConfig, GrabRelay, Report};
use peas_radio::{Medium, NodeId, PropagationModel, RxInfo};
use peas_sim::cache::encode_cache_line;
use peas_sim::{
    decode_report, encode_report, ResultCache, RunReport, ScenarioConfig, SweepPlan, TraceCounts,
    TraceEvent, TraceSink, World,
};

use crate::measure::{self, answer_text, Ledger, Outcome};
use crate::spec::{self, Kind, Workload, BOOT_END_S};
use crate::stats::ratio;
use crate::trace::{SpanId, Tracer};

/// Minimum host time behind each per-call figure.
const MIN_TIMED: Duration = Duration::from_millis(20);
/// Pop-and-reschedule operations in the queue's hold model.
const HOLD_OPS: usize = 1 << 21;
/// Report copies the simulation workloads replay through the cache.
const CACHE_COPIES: u64 = 32;

/// Runs the traced job of `w` at `seed` plus the layer replays. Returns
/// the per-layer metrics and the spans as JSON lines.
pub fn traced(w: &Workload, seed: u64, scratch: &Path) -> (Outcome, String) {
    let mut t = Tracer::new();
    let root = t.open(w.name, None);
    let mut out = Outcome::default();
    let cfg = spec::sim_config(w, seed);

    let reference = t.span("untraced", root, |_, _| measure::simulate(cfg.clone()));
    let reference_reports = std::slice::from_ref(&reference.report);
    let run = traced_sim(&mut t, root, cfg.clone(), w);
    let facts = measure::facts(std::slice::from_ref(&run.report), &run.answer);
    let mut problems = Vec::new();
    if facts != measure::facts(reference_reports, &answer_text(reference_reports)) {
        problems.push(format!("seed {}: tracing changed the run", cfg.seed));
    }
    let traced_frames: u64 = run.counts.frames.iter().sum();
    if traced_frames != facts.frames {
        problems.push(format!(
            "seed {}: the trace saw {traced_frames} frames, the medium sent {}",
            cfg.seed, facts.frames
        ));
    }
    if w.kind != Kind::Sweep {
        problems.extend(Ledger::new(w.name).check(cfg.seed, facts));
    }
    out.judge(problems);
    sim_metrics(&mut out, &run, reference.events_per_s());

    let tables_s = t.span("replay", root, |t, id| {
        let tables_s = replay_topology(t, id, &cfg, &run.boot_working, &mut out);
        replay_des(t, id, run.high_water, &mut out);
        replay_core(t, id, &cfg.peas, cfg.seed, &mut out);
        replay_grab(
            t,
            id,
            cfg.grab.clone().unwrap_or_else(GrabConfig::paper),
            &mut out,
        );
        tables_s
    });
    out.set("sim.setup_other_s", run.setup_s - tables_s);

    let dir = scratch.join(format!("cache-replay-{}", std::process::id()));
    let (plan, reports) = match w.kind {
        Kind::Sweep => {
            let job = t.span("sweep.job", root, |t, id| {
                let job = measure::job(spec::sweep_runs(seed), &dir);
                if let Ok(j) = &job {
                    t.count(id, "cold_s", j.cold_s);
                    t.count(id, "warm_ms_total", j.warm_ms.iter().sum());
                }
                job
            });
            match job {
                Ok(j) => {
                    let mut problems = Ledger::new(w.name).check(seed, j.facts());
                    problems.extend(j.problems.iter().cloned());
                    out.judge(problems);
                    (j.plan, j.reports)
                }
                Err(e) => {
                    out.judge(vec![format!("seed {seed}: cache I/O failed: {e}")]);
                    (SweepPlan::new(Vec::new()), Vec::new())
                }
            }
        }
        Kind::Paper | Kind::Scale { .. } => {
            let runs = (0..CACHE_COPIES)
                .map(|s| (format!("replay seed={s}"), cfg.clone().with_seed(s)))
                .collect();
            let reports = (0..CACHE_COPIES).map(|_| run.report.clone()).collect();
            (SweepPlan::new(runs), reports)
        }
    };
    if let Err(e) = t.span("cache", root, |t, id| {
        replay_cache(t, id, &plan, &reports, &dir, &mut out)
    }) {
        out.judge(vec![format!("cache replay I/O failed: {e}")]);
    }
    if let Err(e) = fs::remove_dir_all(&dir) {
        out.errors.push(format!("removing {}: {e}", dir.display()));
    }
    t.close(root);
    (out, t.to_jsonl(&format!("{}/seed={seed}", w.name)))
}

/// What the traced job saw.
struct TracedSim {
    report: RunReport,
    answer: String,
    setup_s: f64,
    run_s: f64,
    counts: TraceCounts,
    /// Host seconds and frames sent in the boot and steady windows.
    boot: (f64, u64),
    steady: (f64, u64),
    /// Working sensors when the boot window closed.
    boot_working: Vec<Point>,
    high_water: usize,
    queue_bytes: usize,
    /// GRAB relay outcomes: (forwarded, dropped_budget, dropped_gradient,
    /// duplicates).
    grab: (u64, u64, u64, u64),
}

fn traced_sim(t: &mut Tracer, parent: SpanId, cfg: ScenarioConfig, w: &Workload) -> TracedSim {
    let id = t.open("traced", Some(parent));
    let horizon = cfg.horizon.as_secs_f64() as u64;
    let setup = t.open("setup", Some(id));
    let mut world = World::new(cfg);
    t.close(setup);
    let counts = Rc::new(RefCell::new(TraceCounts::default()));
    let sink = Rc::clone(&counts);
    world.set_trace(move |at: SimTime, e: &TraceEvent| sink.borrow_mut().record(at, e));

    let mut bounds: Vec<u64> = (1..)
        .map(|k| k * w.slice_s)
        .take_while(|&b| b < horizon)
        .chain([BOOT_END_S, w.steady_from_s, horizon])
        .filter(|&b| b <= horizon)
        .collect();
    bounds.sort_unstable();
    bounds.dedup();

    let (mut boot, mut steady, mut run_s) = ((0.0, 0), (0.0, 0), 0.0);
    let mut boot_working = Vec::new();
    let (mut prev, mut from) = (TraceCounts::default(), 0);
    for to in bounds {
        let slice = t.open("slice", Some(id));
        let more = world.run_until(SimTime::from_secs(to));
        t.close(slice);
        let now = *counts.borrow();
        let secs = t.seconds(slice);
        let frames = now.frames.iter().sum::<u64>() - prev.frames.iter().sum::<u64>();
        t.count(slice, "sim_from_s", from as f64);
        t.count(slice, "sim_to_s", to as f64);
        for (k, kind) in ["probe", "reply", "adv", "report"].iter().enumerate() {
            let n = now.frames[k] - prev.frames[k];
            t.count(slice, &format!("frames.{kind}"), n as f64);
        }
        t.count(
            slice,
            "mode_changes",
            (now.mode_changes - prev.mode_changes) as f64,
        );
        t.count(slice, "deaths", (now.deaths - prev.deaths) as f64);
        run_s += secs;
        if to <= BOOT_END_S {
            boot = (boot.0 + secs, boot.1 + frames);
        }
        if from >= w.steady_from_s {
            steady = (steady.0 + secs, steady.1 + frames);
        }
        if to == BOOT_END_S {
            boot_working = world.working_positions();
        }
        (prev, from) = (now, to);
        if !more {
            break;
        }
    }
    let high_water = world.queue_high_water();
    let queue_bytes = world.queue_memory_bytes();
    let grab = world.grab_relay_totals();
    t.count(id, "topology_bytes", world.topology_memory_bytes() as f64);
    let answer_span = t.open("answer", Some(id));
    let report = world.into_report();
    let answer = answer_text(std::slice::from_ref(&report));
    t.close(answer_span);
    t.close(id);
    let counts = *counts.borrow();
    TracedSim {
        report,
        answer,
        setup_s: t.seconds(setup),
        run_s,
        counts,
        boot,
        steady,
        boot_working,
        high_water,
        queue_bytes,
        grab,
    }
}

fn sim_metrics(out: &mut Outcome, run: &TracedSim, untraced_events_per_s: f64) {
    let r = &run.report;
    let traced_events_per_s = r.events_processed as f64 / run.run_s;
    out.set("sim.boot_s", run.boot.0);
    out.set("sim.steady_s", run.steady.0);
    out.set(
        "sim.boot_ns_per_frame",
        ratio(run.boot.0 * 1e9, run.boot.1 as f64),
    );
    out.set(
        "sim.steady_ns_per_frame",
        ratio(run.steady.0 * 1e9, run.steady.1 as f64),
    );
    out.set(
        "sim.trace_overhead_pct",
        (untraced_events_per_s / traced_events_per_s - 1.0) * 100.0,
    );
    for (k, name) in [
        "radio.frames.probe",
        "radio.frames.reply",
        "radio.frames.adv",
        "radio.frames.report",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, run.counts.frames[k] as f64);
    }
    let m = r.medium;
    let copies = (m.deliveries_ok + m.collisions + m.random_losses) as f64;
    out.set(
        "radio.delivery_ratio",
        ratio(m.deliveries_ok as f64, copies),
    );
    out.set(
        "radio.receivers_per_frame",
        ratio(copies, m.frames_sent as f64),
    );
    out.set("core.wakeups", r.total_wakeups() as f64);
    out.set("core.mode_changes", run.counts.mode_changes as f64);
    out.set(
        "core.replies_per_probe",
        ratio(
            r.node_stats.replies_sent as f64,
            r.node_stats.probes_sent as f64,
        ),
    );
    let (fwd, budget, gradient, dup) = run.grab;
    out.set(
        "grab.forward_ratio",
        ratio(fwd as f64, (fwd + budget + gradient + dup) as f64),
    );
    out.set("des.pending_high_water", run.high_water as f64);
    out.set("des.queue_bytes", run.queue_bytes as f64);
}

/// Opens a span around `f` and returns its result and duration in seconds.
fn timed<T>(t: &mut Tracer, parent: SpanId, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let id = t.open(name, Some(parent));
    let out = f();
    t.close(id);
    (out, t.seconds(id))
}

/// Mean nanoseconds per call of `f`, calling it until [`MIN_TIMED`] has
/// passed.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let elapsed = start.elapsed();
        if elapsed >= MIN_TIMED {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

/// Rebuilds the world's static tables from its deployment: the sensor
/// positions, the medium's decode tables, the neighbor tables alone and
/// the coverage CSR. Then times the radio and coverage calls the run loop
/// makes. Returns the seconds the replayed table builds took.
fn replay_topology(
    t: &mut Tracer,
    parent: SpanId,
    cfg: &ScenarioConfig,
    boot_working: &[Point],
    out: &mut Outcome,
) -> f64 {
    let n = cfg.node_count;
    let (mut positions, deploy_s) = timed(t, parent, "geom.deploy", || {
        cfg.deployment
            .generate(cfg.field, n, &mut SimRng::stream(cfg.seed, 1))
    });
    // The GRAB source and sink sit at opposite corners, as in `World::new`.
    let mut classes = vec![cfg.peas.control_tx_range()];
    if let Some(g) = &cfg.grab {
        positions.push(Point::new(0.5, 0.5));
        positions.push(Point::new(
            cfg.field.width() - 0.5,
            cfg.field.height() - 0.5,
        ));
        if !classes.contains(&g.data_range) {
            classes.push(g.data_range);
        }
    }
    let (mut medium, build_s) = timed(t, parent, "radio.build", || {
        Medium::with_range_classes(
            cfg.field,
            &positions,
            cfg.propagation.build(),
            cfg.bitrate_bps,
            cfg.loss_rate,
            &classes,
        )
    });
    out.set("geom.deploy_s", deploy_s);
    out.set("radio.build_s", build_s);
    out.set("radio.table_bytes", medium.table_memory_bytes() as f64);

    let model = cfg.propagation.build();
    let reaches: Vec<f64> = classes.iter().map(|&r| model.max_reach(r)).collect();
    let (edges, neighbor_s) = timed(t, parent, "geom.neighbors", || {
        let mut grid = SpatialGrid::new(cfg.field, medium.grid_cell());
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(i, p);
        }
        let tables = NeighborTables::build(&grid, &positions, &reaches);
        tables.edge_count(0)
    });
    black_box(edges);
    out.set("geom.neighbor_build_s", neighbor_s);

    let grid = CoverageGrid::new(cfg.field, cfg.metrics.coverage_resolution);
    let (csr, csr_s) = timed(t, parent, "geom.coverage_csr", || {
        CoverageCsr::build(&grid, &positions[..n], cfg.sensing_range)
    });
    out.set("geom.coverage_csr_build_s", csr_s);
    out.set("geom.coverage_csr_bytes", csr.memory_bytes() as f64);

    let mut rng = SimRng::stream(cfg.seed, 7);
    let nodes: Vec<usize> = (0..1 << 16).map(|_| rng.index(n)).collect();
    let mut counts = vec![0u32; grid.sample_count()];
    let flip_ns = t.span("geom.coverage_flip", parent, |_, _| {
        per_call_ns(|| {
            for &node in &nodes {
                csr.add_into(node, &mut counts);
                csr.remove_into(node, &mut counts);
            }
        }) / nodes.len() as f64
    });
    out.set("geom.coverage_flip_ns", flip_ns);
    grid.coverage_counts_into(boot_working, cfg.sensing_range, &mut counts);
    let k_us = t.span("geom.k_coverage", parent, |_, _| {
        per_call_ns(|| {
            black_box(grid.k_coverages_from_counts(&counts, cfg.metrics.max_k));
        }) / 1e3
    });
    out.set("geom.k_coverage_us", k_us);

    // Broadcasts from random senders, each starting 1 ms after the
    // previous one ends, so no two overlap.
    let range = cfg.peas.control_tx_range();
    let mut deliveries = Vec::new();
    let mut now = SimTime::ZERO;
    let gap = SimDuration::from_millis(1);
    let broadcast_ns = t.span("radio.broadcast", parent, |_, _| {
        per_call_ns(|| {
            for &s in &nodes[..1024] {
                let tx = medium.start_broadcast(
                    now,
                    NodeId::from_index(s),
                    range,
                    CONTROL_FRAME_BYTES,
                    &mut rng,
                );
                medium.complete_into(tx.id, &mut deliveries);
                now = tx.end + gap;
            }
        }) / 1024.0
    });
    out.set("radio.broadcast_ns", broadcast_ns);

    // Carrier sense with a handful of frames on the air, as a sender
    // backing off in a busy neighborhood sees it.
    let carrier_ns = t.span("radio.carrier_sense", parent, |_, _| {
        let (mut busy_ns, mut checks, mut busy) = (0u128, 0u64, 0u64);
        let mut k = 0;
        let start = Instant::now();
        while start.elapsed() < MIN_TIMED {
            // Distinct senders: a radio sends one frame at a time.
            let mut senders: Vec<usize> = (0..8).map(|j| nodes[(k + j) % nodes.len()]).collect();
            senders.sort_unstable();
            senders.dedup();
            let txs: Vec<_> = senders
                .into_iter()
                .map(|s| {
                    let s = NodeId::from_index(s);
                    medium.start_broadcast(now, s, range, CONTROL_FRAME_BYTES, &mut rng)
                })
                .collect();
            let probe = Instant::now();
            for j in 0..256 {
                let node = NodeId::from_index(nodes[(k + 8 + j) % nodes.len()]);
                busy += u64::from(medium.carrier_busy(node, now));
            }
            busy_ns += probe.elapsed().as_nanos();
            checks += 256;
            for tx in &txs {
                medium.complete_into(tx.id, &mut deliveries);
                now = now.max(tx.end);
            }
            now += gap;
            k += 264;
        }
        black_box(busy);
        busy_ns as f64 / checks as f64
    });
    out.set("radio.carrier_sense_ns", carrier_ns);
    deploy_s + build_s + csr_s
}

/// The hold model of the legacy `queue` bench on the default event queue
/// at `pending` live events: fill, pop-and-reschedule [`HOLD_OPS`] times,
/// drain. Delays are uniform over twice a 10 s mean, the PEAS wake-timer
/// scale.
fn replay_des(t: &mut Tracer, parent: SpanId, pending: usize, out: &mut Outcome) {
    let pending = pending.max(1);
    let mean = SimDuration::from_secs(10);
    let mut rng = SimRng::stream(0xBEE5, pending as u64);
    let mut q: EventQueue<u64> = EventQueue::new();
    let (_, fill_s) = timed(t, parent, "des.enqueue", || {
        for i in 0..pending as u64 {
            q.schedule(
                SimTime::ZERO + rng.range_duration(SimDuration::ZERO, mean * 2),
                i,
            );
        }
    });
    let (sum, hold_s) = timed(t, parent, "des.hold", || {
        let mut sum = 0u64;
        for i in 0..HOLD_OPS as u64 {
            let Some(f) = q.pop() else { break };
            sum = sum.wrapping_add(f.time.as_nanos());
            let ahead = SimDuration::from_nanos(1 + rng.below(2 * mean.as_nanos()));
            q.schedule(f.time + ahead, i);
        }
        sum
    });
    let (drained, drain_s) = timed(t, parent, "des.drain", || {
        let mut drained = 0usize;
        while q.pop().is_some() {
            drained += 1;
        }
        drained
    });
    black_box((sum, drained));
    out.set("des.enqueue_ns", fill_s * 1e9 / pending as f64);
    out.set("des.hold_ns", hold_s * 1e9 / HOLD_OPS as f64);
    out.set("des.drain_ns", drain_s * 1e9 / drained.max(1) as f64);
}

/// `PeasNode::on_input` through a full probe round (wake, the PROBE
/// burst, one REPLY, window close back to sleep) and through a working
/// node's PROBE → REPLY exchange.
fn replay_core(t: &mut Tracer, parent: SpanId, cfg: &PeasConfig, seed: u64, out: &mut Outcome) {
    let mut rng = SimRng::stream(seed, 11);
    let info = RxInfo {
        distance: 1.0,
        effective_distance: 1.0,
    };
    let reply = Message::Reply(Reply {
        measured_rate: None,
        desired_rate: cfg.desired_rate,
        working_time: SimDuration::from_secs(100),
    });
    let mut now = SimTime::ZERO;
    let second = SimDuration::from_secs(1);

    let mut sleeper = PeasNode::new(NodeId(0), cfg.clone());
    sleeper.start(&mut rng);
    let round_ns = t.span("core.probe_round", parent, |_, _| {
        per_call_ns(|| {
            now += second;
            black_box(sleeper.on_input(now, Input::WakeUp, &mut rng));
            for _ in 0..cfg.probe_count {
                black_box(sleeper.on_input(now, Input::ProbeSendTimer, &mut rng));
            }
            let frame = Input::Frame {
                from: NodeId(1),
                msg: reply,
                info,
            };
            black_box(sleeper.on_input(now, frame, &mut rng));
            black_box(sleeper.on_input(now, Input::ReplyWindowClosed, &mut rng));
        })
    });
    let mut worker = PeasNode::new(NodeId(0), cfg.clone());
    worker.start(&mut rng);
    worker.on_input(now, Input::WakeUp, &mut rng);
    now += cfg.reply_window;
    worker.on_input(now, Input::ReplyWindowClosed, &mut rng);
    let reply_ns = t.span("core.probe_reply", parent, |_, _| {
        per_call_ns(|| {
            now += second;
            let frame = Input::Frame {
                from: NodeId(1),
                msg: Message::Probe,
                info,
            };
            black_box(worker.on_input(now, frame, &mut rng));
            black_box(worker.on_input(now, Input::ReplyBackoff, &mut rng));
        })
    });
    debug_assert_eq!(
        (sleeper.mode(), worker.mode()),
        (Mode::Sleeping, Mode::Working)
    );
    out.set("core.probe_round_ns", round_ns);
    out.set("core.probe_reply_ns", reply_ns);
}

/// `GrabRelay::on_report` on fresh reports a cost-1 relay forwards.
fn replay_grab(t: &mut Tracer, parent: SpanId, cfg: GrabConfig, out: &mut Outcome) {
    const BATCH: u64 = 1024;
    let mut relay = GrabRelay::new(cfg);
    let mut rng = SimRng::stream(0x6AB, 1);
    let forward_ns = t.span("grab.forward", parent, |_, _| {
        let (mut busy, mut calls, mut forwarded) = (Duration::ZERO, 0u64, 0u64);
        while busy < MIN_TIMED {
            relay.reset();
            relay.on_adv(1, 0, &mut rng);
            let start = Instant::now();
            for seq in 0..BATCH {
                let report = Report {
                    source: NodeId(0),
                    seq,
                    sender_cost: 2,
                    hops: 1,
                    budget: 8,
                };
                forwarded += u64::from(relay.on_report(report, &mut rng).is_some());
            }
            busy += start.elapsed();
            calls += BATCH;
        }
        debug_assert_eq!(forwarded, calls, "every replayed report is forwardable");
        busy.as_nanos() as f64 / calls as f64
    });
    out.set("grab.forward_ns", forward_ns);
}

/// The schema-1 codec and the result cache on `reports` (one per shard of
/// `plan`): encode, decode, append into a fresh cache at `dir`, scan and
/// merge.
fn replay_cache(
    t: &mut Tracer,
    parent: SpanId,
    plan: &SweepPlan,
    reports: &[RunReport],
    dir: &Path,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let count = reports.len().max(1) as f64;
    let mut encoded = Vec::new();
    let encode_ns = t.span("cache.encode", parent, |_, _| {
        per_call_ns(|| encoded = reports.iter().map(encode_report).collect())
    });
    let decode_ns = t.span("cache.decode", parent, |_, _| {
        per_call_ns(|| {
            for line in &encoded {
                black_box(decode_report(line).is_ok());
            }
        })
    });
    out.set("cache.encode_us", encode_ns / count / 1e3);
    out.set("cache.decode_us", decode_ns / count / 1e3);
    let record_bytes: usize = plan
        .shards()
        .iter()
        .zip(reports)
        .map(|(s, r)| encode_cache_line(s.key, &s.label, r).len())
        .sum();
    out.set("cache.record_bytes", record_bytes as f64 / count);

    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let cache = ResultCache::open(dir)?;
    let (appended, append_s) = timed(t, parent, "cache.append", || {
        let mut writer = cache.writer(0)?;
        for (shard, report) in plan.shards().iter().zip(reports) {
            writer.append(shard.key, &shard.label, report)?;
        }
        Ok::<_, std::io::Error>(())
    });
    appended?;
    let (scan, scan_s) = timed(t, parent, "cache.scan", || cache.scan());
    let scan = scan?;
    let (merged, merge_s) = timed(t, parent, "cache.merge", || plan.merged(&scan));
    if merged.map(|m| m.as_slice() != reports).unwrap_or(true) {
        out.judge(vec!["the cache replay merged different reports".to_string()]);
    }
    out.set("cache.append_us", append_s * 1e6 / count);
    out.set("cache.scan_ms", scan_s * 1e3);
    out.set("cache.merge_ms", merge_s * 1e3);
    Ok(())
}
