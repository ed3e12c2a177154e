//! The micro-world host: a handful of [`PeasNode`]s, their armed
//! timers, and the frames in flight between them.
//!
//! The host replaces `peas-sim`'s event queue with *nondeterminism*:
//! instead of firing timers at drawn instants, it exposes every armed
//! timer, every in-flight frame and every remaining death as an enabled
//! [`ModelEvent`], and the explorer branches on all of them. Timer
//! durations returned by the node are discarded — firing timers in
//! every order subsumes every duration assignment — but each applied
//! event still advances logical time by a 1 s quantum, because the
//! turn-off rule compares working times.
//!
//! Frames: a broadcast puts one copy in flight per in-range receiver
//! whose radio is on at transmission time (a node that wakes later
//! physically cannot have heard it). A new broadcast on the same
//! directed edge supersedes an undelivered older copy, which bounds the
//! in-flight population and keeps the state space finite; delivery to a
//! node that slept or died in the meantime decodes to nothing.

use std::sync::Arc;

use peas::{Action, Input, Message, Mode, PeasNode, Reply, Timer};
use peas_des::rng::SimRng;
use peas_des::time::{SimDuration, SimTime};
use peas_radio::{NodeId, RxInfo};

use crate::cfg::ModelCfg;
use crate::event::{ModelEvent, TimerKind};
use crate::invariant::Violation;

/// Timer durations are discarded, so the RNG a node draws from never
/// influences the model; a fresh fixed-seed stream per input keeps the
/// nodes' draw sites happy and the world `Clone`-cheap.
const MODEL_RNG_SEED: u64 = 0x5EA5_0DE1;

/// Which of one node's timers are armed. The host mirrors the node's
/// `Schedule`/`Cancel` actions here; `ProbeSend` is a count because the
/// node arms one per PROBE of the burst.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Timers {
    pub(crate) wake: bool,
    pub(crate) probe_sends: u8,
    pub(crate) reply_window: bool,
    pub(crate) reply_backoff: bool,
}

impl Timers {
    fn armed(&self, kind: TimerKind) -> bool {
        match kind {
            TimerKind::Wake => self.wake,
            TimerKind::ProbeSend => self.probe_sends > 0,
            TimerKind::ReplyWindow => self.reply_window,
            TimerKind::ReplyBackoff => self.reply_backoff,
        }
    }

    fn any(&self) -> bool {
        self.wake || self.probe_sends > 0 || self.reply_window || self.reply_backoff
    }
}

/// One concrete state of the micro-world.
#[derive(Clone, Debug)]
pub struct ModelWorld {
    pub(crate) cfg: ModelCfg,
    /// Logical steps applied so far; `now` is `step` seconds.
    pub(crate) step: u64,
    pub(crate) nodes: Vec<PeasNode>,
    pub(crate) timers: Vec<Timers>,
    /// In-flight frames, one slot per directed edge (`from * n + to`).
    pub(crate) flights: Vec<Option<Message>>,
    pub(crate) deaths_left: u32,
    /// Reused action buffer for [`PeasNode::on_input_into`]; empty
    /// between events.
    actions: Vec<Action>,
}

impl ModelWorld {
    /// Boots a fresh micro-world: every node `Sleeping` with its wake
    /// timer armed, no frames in flight.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ModelCfg::validate`]).
    pub fn new(cfg: ModelCfg) -> ModelWorld {
        if let Err(e) = cfg.validate() {
            panic!("invalid model configuration: {e}");
        }
        let n = cfg.nodes as usize;
        // `validate` above checked `cfg.peas`, once for every node.
        let peas = Arc::new(cfg.peas.clone());
        let mut world = ModelWorld {
            cfg,
            step: 0,
            nodes: Vec::with_capacity(n),
            timers: vec![Timers::default(); n],
            flights: vec![None; n * n],
            deaths_left: 0,
            actions: Vec::new(),
        };
        world.deaths_left = world.cfg.deaths;
        for i in 0..world.cfg.nodes {
            let mut node = PeasNode::with_shared_config(NodeId(i), Arc::clone(&peas));
            let mut rng = SimRng::new(MODEL_RNG_SEED ^ u64::from(i));
            let boot = node.start(&mut rng);
            world.nodes.push(node);
            world.process(i, &[boot]);
        }
        world
    }

    /// The world's configuration.
    pub fn cfg(&self) -> &ModelCfg {
        &self.cfg
    }

    /// The current logical instant (one second per applied event).
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.step)
    }

    /// The nodes, indexed by id.
    pub fn nodes(&self) -> &[PeasNode] {
        &self.nodes
    }

    /// Whether `node` is still alive.
    pub fn alive(&self, node: u32) -> bool {
        self.nodes[node as usize].mode() != Mode::Dead
    }

    /// Whether some node is alive and no alive node is Working — the
    /// "coverage hole" predicate the liveness check hunts cycles in.
    pub fn coverage_hole(&self) -> bool {
        let any_alive = self.nodes.iter().any(|n| n.mode() != Mode::Dead);
        let any_working = self.nodes.iter().any(|n| n.mode() == Mode::Working);
        any_alive && !any_working
    }

    fn edge(&self, from: u32, to: u32) -> usize {
        (from * self.cfg.nodes + to) as usize
    }

    /// Whether `ev` is applicable in this state.
    pub fn is_enabled(&self, ev: ModelEvent) -> bool {
        let n = self.cfg.nodes;
        match ev {
            // `ReplyWindow` cannot outrun the probe burst: the config
            // invariant `probe_spread ≤ reply_window` means every PROBE
            // of the burst transmits before the window closes, so the
            // model only enables the close once the burst has drained.
            // (This is also what keeps probe-send counts bounded: a
            // node can never carry unfired PROBE timers into its next
            // sleep cycle.)
            ModelEvent::Fire {
                node,
                timer: TimerKind::ReplyWindow,
            } => {
                node < n
                    && self.timers[node as usize].reply_window
                    && self.timers[node as usize].probe_sends == 0
            }
            ModelEvent::Fire { node, timer } => node < n && self.timers[node as usize].armed(timer),
            ModelEvent::Deliver { from, to } => {
                from < n && to < n && from != to && self.flights[self.edge(from, to)].is_some()
            }
            ModelEvent::Lose { from, to } => {
                self.cfg.loss
                    && from < n
                    && to < n
                    && from != to
                    && self.flights[self.edge(from, to)].is_some()
            }
            ModelEvent::Kill { node } => node < n && self.deaths_left > 0 && self.alive(node),
        }
    }

    /// Every applicable event, in a fixed deterministic order (timers by
    /// node then kind, deliveries and losses by directed edge, kills by
    /// node). The explorer's reproducibility rests on this order.
    pub fn enabled_events(&self) -> Vec<ModelEvent> {
        let n = self.cfg.nodes;
        let mut events = Vec::new();
        for node in 0..n {
            for timer in TimerKind::ALL {
                let ev = ModelEvent::Fire { node, timer };
                if self.is_enabled(ev) {
                    events.push(ev);
                }
            }
        }
        for from in 0..n {
            for to in 0..n {
                if from == to || self.flights[self.edge(from, to)].is_none() {
                    continue;
                }
                events.push(ModelEvent::Deliver { from, to });
                if self.cfg.loss {
                    events.push(ModelEvent::Lose { from, to });
                }
            }
        }
        if self.deaths_left > 0 {
            for node in 0..n {
                if self.alive(node) {
                    events.push(ModelEvent::Kill { node });
                }
            }
        }
        events
    }

    /// Applies one enabled event and checks the invariant catalog on the
    /// resulting state; returns the first violation, if any.
    ///
    /// Callers must only pass enabled events (the explorer enumerates
    /// them; the replayer checks [`ModelWorld::is_enabled`] first). A
    /// disabled event is a caller bug and trips a debug assertion.
    pub fn apply(&mut self, ev: ModelEvent) -> Option<Violation> {
        debug_assert!(self.is_enabled(ev), "applying disabled event `{ev}`");
        self.step += 1;
        let mut transition_violation = None;
        match ev {
            ModelEvent::Fire { node, timer } => {
                let i = node as usize;
                let input = match timer {
                    TimerKind::Wake => {
                        self.timers[i].wake = false;
                        Input::WakeUp
                    }
                    TimerKind::ProbeSend => {
                        self.timers[i].probe_sends = self.timers[i].probe_sends.saturating_sub(1);
                        Input::ProbeSendTimer
                    }
                    TimerKind::ReplyWindow => {
                        self.timers[i].reply_window = false;
                        Input::ReplyWindowClosed
                    }
                    TimerKind::ReplyBackoff => {
                        self.timers[i].reply_backoff = false;
                        Input::ReplyBackoff
                    }
                };
                self.feed(node, input);
            }
            ModelEvent::Deliver { from, to } => {
                let slot = self.edge(from, to);
                if let Some(msg) = self.flights[slot].take() {
                    // A receiver that slept or died after the
                    // transmission decodes nothing.
                    if self.nodes[to as usize].mode().is_awake() {
                        transition_violation = self.deliver(from, to, msg);
                    }
                }
            }
            ModelEvent::Lose { from, to } => {
                let slot = self.edge(from, to);
                self.flights[slot] = None;
            }
            ModelEvent::Kill { node } => {
                self.deaths_left = self.deaths_left.saturating_sub(1);
                let i = node as usize;
                // The node's Cancel actions are subsumed by clearing the
                // whole timer set.
                let _cancels = self.nodes[i].kill();
                self.timers[i] = Timers::default();
                for other in 0..self.cfg.nodes {
                    if other != node {
                        let slot = self.edge(other, node);
                        self.flights[slot] = None;
                    }
                }
            }
        }
        transition_violation.or_else(|| self.check_state())
    }

    /// Delivers `msg` to an awake receiver, checking the turn-off
    /// transition invariant around the hand-off.
    fn deliver(&mut self, from: u32, to: u32, msg: Message) -> Option<Violation> {
        let receiver_working = self.nodes[to as usize].mode() == Mode::Working;
        let overheard = match (receiver_working, msg) {
            (true, Message::Reply(reply)) => Some(reply),
            _ => None,
        };
        let expected_yield = overheard.map(|reply| self.expected_yield(to, from, &reply));
        let input = Input::Frame {
            from: NodeId(from),
            msg,
            info: RxInfo {
                distance: 1.0,
                effective_distance: 1.0,
            },
        };
        self.feed(to, input);
        if let Some(expected) = expected_yield {
            let yielded = self.nodes[to as usize].mode() == Mode::Sleeping;
            if yielded != expected {
                return Some(Violation::TurnoffSpec {
                    node: to,
                    from,
                    expected_yield: expected,
                });
            }
        }
        None
    }

    /// An independent encoding of the Section 4 turn-off decision, for
    /// checking the implementation against the spec: the node with the
    /// shorter working time yields; `Tw` values within the tie epsilon
    /// are ties, broken by node id (the higher id yields).
    fn expected_yield(&self, me: u32, from: u32, reply: &Reply) -> bool {
        if !self.cfg.peas.turnoff_enabled {
            return false;
        }
        let now = self.now();
        let my_tw = self.nodes[me as usize]
            .working_time(now)
            .unwrap_or(SimDuration::ZERO);
        let eps = self.cfg.peas.turnoff_tie_epsilon;
        let diff = if my_tw >= reply.working_time {
            my_tw - reply.working_time
        } else {
            reply.working_time - my_tw
        };
        if diff <= eps {
            me > from
        } else {
            my_tw < reply.working_time
        }
    }

    /// Runs one input through a node and mirrors its actions into the
    /// host bookkeeping.
    fn feed(&mut self, node: u32, input: Input) {
        let now = self.now();
        let mut rng = SimRng::new(MODEL_RNG_SEED ^ u64::from(node));
        let mut actions = std::mem::take(&mut self.actions);
        self.nodes[node as usize].on_input_into(now, input, &mut rng, &mut actions);
        self.process(node, &actions);
        actions.clear();
        self.actions = actions;
    }

    fn process(&mut self, node: u32, actions: &[Action]) {
        let i = node as usize;
        for &action in actions {
            match action {
                Action::Schedule { timer, .. } => match timer {
                    Timer::Wake => self.timers[i].wake = true,
                    Timer::ProbeSend => {
                        self.timers[i].probe_sends = self.timers[i].probe_sends.saturating_add(1)
                    }
                    Timer::ReplyWindow => self.timers[i].reply_window = true,
                    Timer::ReplyBackoff => self.timers[i].reply_backoff = true,
                },
                Action::Cancel(timer) => match timer {
                    Timer::Wake => self.timers[i].wake = false,
                    Timer::ProbeSend => self.timers[i].probe_sends = 0,
                    Timer::ReplyWindow => self.timers[i].reply_window = false,
                    Timer::ReplyBackoff => self.timers[i].reply_backoff = false,
                },
                Action::Broadcast { msg, .. } => {
                    for to in 0..self.cfg.nodes {
                        if self.cfg.topology.in_range(node, to)
                            && self.nodes[to as usize].mode().is_awake()
                        {
                            let slot = self.edge(node, to);
                            self.flights[slot] = Some(msg);
                        }
                    }
                }
            }
        }
    }

    /// Checks every state invariant; returns the first violation in a
    /// deterministic order (by node, then by pair).
    pub fn check_state(&self) -> Option<Violation> {
        let (lo, hi) = self.cfg.peas.rate_bounds;
        for (i, node) in self.nodes.iter().enumerate() {
            // peas-lint: allow(r3-unchecked-cast) -- ModelCfg::validate caps micro-worlds at 6 nodes
            let id = i as u32;
            let timers = &self.timers[i];
            match node.mode() {
                Mode::Dead => {
                    if timers.any() || node.reply_pending() {
                        return Some(Violation::DeadNodeActive { node: id });
                    }
                    continue;
                }
                Mode::Probing => {
                    if !timers.reply_window {
                        return Some(Violation::StuckProbing { node: id });
                    }
                }
                Mode::Sleeping => {
                    if !timers.wake {
                        return Some(Violation::SleeperWithoutAlarm { node: id });
                    }
                }
                Mode::Working => {}
            }
            let rate = node.rate();
            if !rate.is_finite() || rate <= 0.0 || rate < lo || rate > hi {
                return Some(Violation::RateBounds { node: id, rate });
            }
            let pending = node.reply_pending();
            if pending != timers.reply_backoff || (pending && node.mode() != Mode::Working) {
                return Some(Violation::BackoffConsistency { node: id });
            }
        }
        if self.cfg.strict_duplicate_working {
            for a in 0..self.cfg.nodes {
                for b in (a + 1)..self.cfg.nodes {
                    if self.cfg.topology.in_range(a, b)
                        && self.nodes[a as usize].mode() == Mode::Working
                        && self.nodes[b as usize].mode() == Mode::Working
                    {
                        return Some(Violation::DuplicateWorking { a, b });
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Topology;

    #[test]
    fn fresh_world_has_one_wake_per_node_and_audits_clean() {
        let world = ModelWorld::new(ModelCfg::micro(3));
        assert_eq!(world.nodes().len(), 3);
        for i in 0..3u32 {
            assert!(world.is_enabled(ModelEvent::Fire {
                node: i,
                timer: TimerKind::Wake
            }));
        }
        assert_eq!(world.enabled_events().len(), 3);
        assert_eq!(world.check_state(), None);
        assert!(world.coverage_hole(), "nobody works yet");
    }

    #[test]
    fn wake_probe_silent_window_takes_over() {
        let mut world = ModelWorld::new(ModelCfg::micro(2));
        assert_eq!(
            world.apply(ModelEvent::Fire {
                node: 0,
                timer: TimerKind::Wake
            }),
            None
        );
        assert_eq!(world.nodes()[0].mode(), Mode::Probing);
        // The probe burst (1 in micro worlds) and the window are armed.
        assert!(world.is_enabled(ModelEvent::Fire {
            node: 0,
            timer: TimerKind::ProbeSend
        }));
        assert_eq!(
            world.apply(ModelEvent::Fire {
                node: 0,
                timer: TimerKind::ProbeSend
            }),
            None
        );
        // Node 1 is asleep (radio off), so no frame is in flight.
        assert!(!world.is_enabled(ModelEvent::Deliver { from: 0, to: 1 }));
        assert_eq!(
            world.apply(ModelEvent::Fire {
                node: 0,
                timer: TimerKind::ReplyWindow
            }),
            None
        );
        assert_eq!(world.nodes()[0].mode(), Mode::Working);
        assert!(!world.coverage_hole());
    }

    #[test]
    fn probe_reply_exchange_puts_prober_back_to_sleep() {
        let mut world = ModelWorld::new(ModelCfg::micro(2));
        // Node 0 takes over (its PROBE reaches nobody: node 1 sleeps).
        for ev in [
            ModelEvent::Fire {
                node: 0,
                timer: TimerKind::Wake,
            },
            ModelEvent::Fire {
                node: 0,
                timer: TimerKind::ProbeSend,
            },
            ModelEvent::Fire {
                node: 0,
                timer: TimerKind::ReplyWindow,
            },
            // Node 1 wakes and probes; node 0 (awake, Working) hears it.
            ModelEvent::Fire {
                node: 1,
                timer: TimerKind::Wake,
            },
            ModelEvent::Fire {
                node: 1,
                timer: TimerKind::ProbeSend,
            },
            ModelEvent::Deliver { from: 1, to: 0 },
            ModelEvent::Fire {
                node: 0,
                timer: TimerKind::ReplyBackoff,
            },
            ModelEvent::Deliver { from: 0, to: 1 },
            ModelEvent::Fire {
                node: 1,
                timer: TimerKind::ReplyWindow,
            },
        ] {
            assert!(world.is_enabled(ev), "{ev} should be enabled");
            assert_eq!(world.apply(ev), None, "{ev}");
        }
        assert_eq!(world.nodes()[0].mode(), Mode::Working);
        assert_eq!(world.nodes()[1].mode(), Mode::Sleeping);
        assert!(world.is_enabled(ModelEvent::Fire {
            node: 1,
            timer: TimerKind::Wake
        }));
    }

    #[test]
    fn kill_clears_timers_and_incoming_flights() {
        let mut cfg = ModelCfg::micro(2);
        cfg.deaths = 1;
        let mut world = ModelWorld::new(cfg);
        assert!(world.is_enabled(ModelEvent::Kill { node: 0 }));
        assert_eq!(world.apply(ModelEvent::Kill { node: 0 }), None);
        assert!(!world.alive(0));
        assert!(
            !world.is_enabled(ModelEvent::Kill { node: 1 }),
            "budget spent"
        );
        assert_eq!(world.check_state(), None);
    }

    #[test]
    fn chain_topology_limits_broadcast_reach() {
        let mut cfg = ModelCfg::micro(3);
        cfg.topology = Topology::Chain;
        let mut world = ModelWorld::new(cfg);
        // Wake all three so every radio is on, then have node 0 probe.
        for node in 0..3 {
            world.apply(ModelEvent::Fire {
                node,
                timer: TimerKind::Wake,
            });
        }
        world.apply(ModelEvent::Fire {
            node: 0,
            timer: TimerKind::ProbeSend,
        });
        assert!(world.is_enabled(ModelEvent::Deliver { from: 0, to: 1 }));
        assert!(
            !world.is_enabled(ModelEvent::Deliver { from: 0, to: 2 }),
            "chain: node 2 is out of range of node 0"
        );
    }

    #[test]
    fn strict_duplicate_working_fires_on_the_probe_race() {
        let mut cfg = ModelCfg::micro(2);
        cfg.strict_duplicate_working = true;
        let mut world = ModelWorld::new(cfg);
        // Both wake, probe past each other (probing nodes ignore
        // PROBEs), and both windows close silent: the probe race.
        for ev in [
            ModelEvent::Fire {
                node: 0,
                timer: TimerKind::Wake,
            },
            ModelEvent::Fire {
                node: 1,
                timer: TimerKind::Wake,
            },
            ModelEvent::Fire {
                node: 0,
                timer: TimerKind::ProbeSend,
            },
            ModelEvent::Fire {
                node: 1,
                timer: TimerKind::ProbeSend,
            },
            ModelEvent::Fire {
                node: 0,
                timer: TimerKind::ReplyWindow,
            },
        ] {
            assert_eq!(world.apply(ev), None);
        }
        let violation = world.apply(ModelEvent::Fire {
            node: 1,
            timer: TimerKind::ReplyWindow,
        });
        assert_eq!(violation, Some(Violation::DuplicateWorking { a: 0, b: 1 }));
    }
}
