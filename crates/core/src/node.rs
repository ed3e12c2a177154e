//! The PEAS node state machine (Figure 1).
//!
//! A node is `Sleeping`, `Probing` or `Working` (plus `Dead`). The state
//! machine is *I/O-free*: it consumes [`Input`]s (timer firings and received
//! frames) and emits [`Action`]s (timers to arm, frames to broadcast). The
//! host — `peas-sim`'s world, or a unit test — owns the event loop, the
//! radio and the battery. This keeps the protocol testable in isolation and
//! mirrors how it would sit above a real MAC.
//!
//! State transitions (Section 2.1):
//!
//! * `Sleeping` —wake timer→ `Probing`: broadcast PROBE(s) within `Rp`,
//!   listen for the reply window;
//! * `Probing` —heard REPLY→ `Sleeping`: adjust λ per Adaptive Sleeping and
//!   draw a new exponential sleep;
//! * `Probing` —window silent→ `Working`: work until death;
//! * `Working` —overheard REPLY with larger `Tw` (Section 4)→ `Sleeping`.

use std::sync::Arc;

use peas_des::rng::SimRng;
use peas_des::time::{SimDuration, SimTime};
use peas_radio::{NodeId, RxInfo};

use crate::adaptive::ReplyFold;
use crate::config::PeasConfig;
use crate::msg::{Message, Reply};
use crate::rate::RateEstimator;
use crate::stats::{Counters, NodeStats};

/// The node's operation mode (Figure 1, plus `Dead`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Radio off, waiting for the wake timer.
    Sleeping,
    /// Awake, probing the neighborhood and collecting REPLYs.
    Probing,
    /// Sensing/communicating until failure or energy depletion.
    Working,
    /// Failed or out of energy; never returns.
    Dead,
}

impl Mode {
    /// Whether the radio is powered (can hear frames).
    pub fn is_awake(self) -> bool {
        matches!(self, Mode::Probing | Mode::Working)
    }
}

/// Timers the node asks its host to arm. At most one timer of each kind is
/// outstanding per node, except `ProbeSend` (one per remaining PROBE).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Timer {
    /// End of the current sleep period.
    Wake,
    /// Transmit one PROBE.
    ProbeSend,
    /// Close the REPLY-collection window.
    ReplyWindow,
    /// Send the pending REPLY (random backoff elapsed).
    ReplyBackoff,
}

/// An event delivered to the node by its host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Input {
    /// The [`Timer::Wake`] timer fired.
    WakeUp,
    /// A [`Timer::ProbeSend`] timer fired.
    ProbeSendTimer,
    /// The [`Timer::ReplyWindow`] timer fired.
    ReplyWindowClosed,
    /// The [`Timer::ReplyBackoff`] timer fired.
    ReplyBackoff,
    /// A frame arrived intact while the node was awake.
    Frame {
        /// The transmitting node.
        from: NodeId,
        /// The decoded message.
        msg: Message,
        /// Link-quality information for threshold filtering.
        info: RxInfo,
    },
}

/// A side effect the host must perform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Action {
    /// Arm `timer` to fire `after` from now.
    Schedule {
        /// Which timer to arm.
        timer: Timer,
        /// Delay from the current instant.
        after: SimDuration,
    },
    /// Disarm an outstanding timer (a no-op if it is not pending).
    Cancel(Timer),
    /// Broadcast `msg` with transmission power covering `range` meters.
    Broadcast {
        /// The control message to send.
        msg: Message,
        /// Intended transmission range in meters.
        range: f64,
    },
}

/// [`PeasNode::work_started`]'s sentinel: the node is not working.
const NOT_WORKING: SimTime = SimTime::MAX;

/// One sensor running PEAS.
///
/// A million-node world keeps one per sensor, so the node holds only its
/// own state, in 112 bytes: the network's constants stay in the shared
/// [`PeasConfig`], counters are `u32`, and "none" is a sentinel value
/// rather than an `Option` tag. It writes its actions into a buffer that
/// its host owns ([`PeasNode::on_input_into`]), so handling an input
/// does not allocate.
///
/// # Examples
///
/// Drive a node through a silent probe round — it must start working:
///
/// ```
/// use peas::{Action, Input, Mode, PeasConfig, PeasNode, Timer};
/// use peas_des::rng::SimRng;
/// use peas_des::time::SimTime;
/// use peas_radio::NodeId;
///
/// let mut node = PeasNode::new(NodeId(0), PeasConfig::paper());
/// let mut rng = SimRng::new(1);
/// let boot = node.start(&mut rng);
/// assert!(matches!(boot, Action::Schedule { timer: Timer::Wake, .. }));
///
/// // The host keeps one action buffer and clears it after each input.
/// let mut actions = Vec::new();
/// let t0 = SimTime::from_secs(5);
/// node.on_input_into(t0, Input::WakeUp, &mut rng, &mut actions);
/// assert_eq!(node.mode(), Mode::Probing);
/// assert_eq!(actions.len(), 4); // three PROBE timers and the window
/// actions.clear();
///
/// // No REPLY arrives; the window closes and the node starts working.
/// let t1 = t0 + PeasConfig::paper().reply_window;
/// node.on_input_into(t1, Input::ReplyWindowClosed, &mut rng, &mut actions);
/// assert_eq!(node.mode(), Mode::Working);
/// assert!(actions.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct PeasNode {
    id: NodeId,
    /// Shared by every node of a network: hosts build it once.
    config: Arc<PeasConfig>,
    mode: Mode,
    /// Current per-node probing rate λ.
    rate: f64,
    estimator: RateEstimator,
    /// The instant the node last entered `Working`, or [`NOT_WORKING`].
    /// Only a turn-off clears it: a node killed while working keeps it.
    work_started: SimTime,
    /// The REPLYs of the open probing window, folded as they arrive.
    window: ReplyFold,
    /// Whether a REPLY arrived in the open probing window.
    heard: bool,
    /// Whether a REPLY backoff timer is outstanding.
    reply_pending: bool,
    counters: Counters,
}

impl PeasNode {
    /// Creates node `id` in the `Sleeping` mode with λ = λ₀.
    ///
    /// The identity only matters for the Section 4 turn-off rule's
    /// tie-break (see [`PeasConfig::turnoff_tie_epsilon`]).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`PeasConfig::validate`]).
    pub fn new(id: NodeId, config: PeasConfig) -> PeasNode {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        PeasNode::with_shared_config(id, Arc::new(config))
    }

    /// Like [`PeasNode::new`], but shares `config` with the other nodes
    /// built from the same `Arc` instead of carrying a copy of its own.
    ///
    /// `config` must already have passed [`PeasConfig::validate`]: a host
    /// validates it once for the whole network, not once per node (a
    /// million-node world builds a million nodes from one `Arc`).
    pub fn with_shared_config(id: NodeId, config: Arc<PeasConfig>) -> PeasNode {
        let rate = config.initial_rate;
        PeasNode {
            id,
            config,
            mode: Mode::Sleeping,
            rate,
            estimator: RateEstimator::new(),
            work_started: NOT_WORKING,
            window: ReplyFold::default(),
            heard: false,
            reply_pending: false,
            counters: Counters::default(),
        }
    }

    /// Boots the node: draws the first exponential sleep and returns the
    /// one action booting takes, arming the wake timer.
    pub fn start(&mut self, rng: &mut SimRng) -> Action {
        debug_assert_eq!(self.mode, Mode::Sleeping, "start() on a started node");
        Action::Schedule {
            timer: Timer::Wake,
            after: rng.exp_duration(self.rate),
        }
    }

    /// Feeds one input; returns the side effects to perform, in a fresh
    /// vector. [`PeasNode::on_input_into`] is the same step for a host
    /// that keeps one buffer.
    pub fn on_input(&mut self, now: SimTime, input: Input, rng: &mut SimRng) -> Vec<Action> {
        let mut actions = Vec::new();
        self.on_input_into(now, input, rng, &mut actions);
        actions
    }

    /// Feeds one input and appends the side effects to perform to
    /// `actions`, a buffer the host owns and reuses, so a warm buffer
    /// makes the step allocation-free. One input appends at most
    /// `probe_count + 1` actions (a wakeup's PROBE timers and its
    /// window), which [`crate::MAX_PROBE_COUNT`] bounds.
    ///
    /// Stale timer firings (e.g. a `ReplyBackoff` arriving after the node
    /// was turned off) are ignored, so hosts need not cancel precisely.
    pub fn on_input_into(
        &mut self,
        now: SimTime,
        input: Input,
        rng: &mut SimRng,
        actions: &mut Vec<Action>,
    ) {
        if self.mode == Mode::Dead {
            return;
        }
        match input {
            Input::WakeUp => self.on_wake(rng, actions),
            Input::ProbeSendTimer => self.on_probe_send(actions),
            Input::ReplyWindowClosed => self.on_window_closed(now, rng, actions),
            Input::ReplyBackoff => self.on_reply_backoff(now, actions),
            Input::Frame { from, msg, info } => self.on_frame(now, from, msg, info, rng, actions),
        }
    }

    /// Marks the node dead (failure injection or battery depletion).
    /// Returns cancellations for all four timer classes, any of which may
    /// be outstanding.
    pub fn kill(&mut self) -> [Action; 4] {
        self.mode = Mode::Dead;
        self.reply_pending = false;
        self.heard = false;
        self.window = ReplyFold::default();
        [
            Action::Cancel(Timer::Wake),
            Action::Cancel(Timer::ProbeSend),
            Action::Cancel(Timer::ReplyWindow),
            Action::Cancel(Timer::ReplyBackoff),
        ]
    }

    fn on_wake(&mut self, rng: &mut SimRng, actions: &mut Vec<Action>) {
        if self.mode != Mode::Sleeping {
            return; // stale wake timer
        }
        self.mode = Mode::Probing;
        Counters::bump(&mut self.counters.wakeups);
        self.window = ReplyFold::default();
        self.heard = false;
        for _ in 0..self.config.probe_count {
            actions.push(Action::Schedule {
                timer: Timer::ProbeSend,
                after: rng.range_duration(SimDuration::ZERO, self.config.probe_spread),
            });
        }
        actions.push(Action::Schedule {
            timer: Timer::ReplyWindow,
            after: self.config.reply_window,
        });
    }

    fn on_probe_send(&mut self, actions: &mut Vec<Action>) {
        if self.mode != Mode::Probing {
            return; // stale probe timer
        }
        Counters::bump(&mut self.counters.probes_sent);
        actions.push(Action::Broadcast {
            msg: Message::Probe,
            range: self.config.control_tx_range(),
        });
    }

    fn on_window_closed(&mut self, now: SimTime, rng: &mut SimRng, actions: &mut Vec<Action>) {
        if self.mode != Mode::Probing {
            return;
        }
        if !self.heard {
            // No working node within Rp: take over (Figure 1, "no REPLY
            // for the PROBE").
            Counters::bump(&mut self.counters.window_silent);
            self.mode = Mode::Working;
            self.work_started = now;
            self.estimator = RateEstimator::new();
            self.reply_pending = false;
        } else {
            // Working neighbor(s) exist: adapt λ and sleep again.
            Counters::bump(&mut self.counters.window_with_reply);
            self.rate = self.window.rate(
                self.rate,
                self.config.rate_bounds,
                self.config.adjust_factor_bounds,
            );
            self.window = ReplyFold::default();
            self.heard = false;
            self.mode = Mode::Sleeping;
            actions.push(Action::Schedule {
                timer: Timer::Wake,
                after: rng.exp_duration(self.rate),
            });
        }
    }

    fn on_reply_backoff(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        if self.mode != Mode::Working || !self.reply_pending {
            return; // turned off (or killed) since scheduling
        }
        self.reply_pending = false;
        Counters::bump(&mut self.counters.replies_sent);
        // Report a freshness-capped estimate (see RateEstimator docs); the
        // minimum window age is one expected inter-probe interval at λd.
        let min_elapsed = SimDuration::from_secs_f64(1.0 / self.config.desired_rate);
        actions.push(Action::Broadcast {
            msg: Message::Reply(Reply {
                measured_rate: self.estimator.current_estimate(now, min_elapsed),
                desired_rate: self.config.desired_rate,
                working_time: self.working_time(now).unwrap_or(SimDuration::ZERO),
            }),
            range: self.config.control_tx_range(),
        });
    }

    fn on_frame(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: Message,
        info: RxInfo,
        rng: &mut SimRng,
        actions: &mut Vec<Action>,
    ) {
        // Fixed-power threshold rule (Section 4): only frames that appear to
        // originate within the probing range count.
        if self.config.fixed_power.is_some() && !info.stronger_than_range(self.config.probing_range)
        {
            return;
        }
        match (self.mode, msg) {
            (Mode::Working, Message::Probe) => {
                Counters::bump(&mut self.counters.probes_heard);
                // A pending REPLY means the same probing burst (Section 4
                // sends up to three PROBE frames per wakeup): that REPLY
                // serves it, and the estimator must not double-count the
                // event — λ̂ measures wakeups, not frames, or Equation 2
                // would regulate the aggregate to λd divided by the probe
                // count.
                if !self.reply_pending {
                    let measured = self.estimator.on_probe(
                        now,
                        self.config.measure_threshold,
                        self.config.measure_window_max,
                    );
                    if measured.is_some() {
                        Counters::bump(&mut self.counters.measurements);
                    }
                    self.reply_pending = true;
                    // Delay past the prober's multi-PROBE burst so the
                    // half-duplex prober is listening when the REPLY lands.
                    let after = self.config.reply_backoff_base
                        + rng.range_duration(SimDuration::ZERO, self.config.reply_backoff_max);
                    actions.push(Action::Schedule {
                        timer: Timer::ReplyBackoff,
                        after,
                    });
                }
            }
            (Mode::Working, Message::Reply(reply)) => {
                self.on_overheard_reply(now, from, reply, rng, actions);
            }
            (Mode::Probing, Message::Reply(reply)) => {
                Counters::bump(&mut self.counters.replies_heard);
                self.heard = true;
                self.window.push(&reply);
            }
            // A probing node ignores other nodes' PROBEs; sleeping nodes
            // never reach here (hosts don't deliver to a powered-off radio),
            // but stay safe if they do.
            _ => {}
        }
    }

    /// Section 4 turn-off rule: two working nodes that hear each other's
    /// REPLYs are within `Rp`; the one that has worked for a *shorter* time
    /// yields, keeping the topology stable. `Tw` values within the
    /// configured tolerance are ties, broken by node id (the higher id
    /// yields) — without this, near-simultaneous starters would each see
    /// their own `Tw` as larger (REPLY latency) and neither would ever
    /// yield.
    fn on_overheard_reply(
        &mut self,
        now: SimTime,
        from: NodeId,
        reply: Reply,
        rng: &mut SimRng,
        actions: &mut Vec<Action>,
    ) {
        Counters::bump(&mut self.counters.replies_overheard);
        if !self.config.turnoff_enabled {
            return;
        }
        let my_tw = self.working_time(now).unwrap_or(SimDuration::ZERO);
        let eps = self.config.turnoff_tie_epsilon;
        let diff = if my_tw >= reply.working_time {
            my_tw - reply.working_time
        } else {
            reply.working_time - my_tw
        };
        let i_yield = if diff <= eps {
            // The `model-bug-inverted-tiebreak` feature flips the tie to
            // "lower id yields" as a planted regression for the
            // `peas-model` checker; see that crate's bug harness.
            #[cfg(not(feature = "model-bug-inverted-tiebreak"))]
            {
                self.id.0 > from.0
            }
            #[cfg(feature = "model-bug-inverted-tiebreak")]
            {
                self.id.0 < from.0
            }
        } else {
            my_tw < reply.working_time
        };
        if !i_yield {
            return; // the sender is newer; it should yield, not us
        }
        Counters::bump(&mut self.counters.turnoffs);
        self.mode = Mode::Sleeping;
        self.work_started = NOT_WORKING;
        if self.reply_pending {
            self.reply_pending = false;
            actions.push(Action::Cancel(Timer::ReplyBackoff));
        }
        actions.push(Action::Schedule {
            timer: Timer::Wake,
            after: rng.exp_duration(self.rate),
        });
    }

    /// The current operation mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The node's current probing rate λ (wakeups/second).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The protocol configuration.
    pub fn config(&self) -> &PeasConfig {
        &self.config
    }

    /// How long the node has been working (`Tw`), if it is working.
    pub fn working_time(&self, now: SimTime) -> Option<SimDuration> {
        self.work_started().map(|t| now.saturating_since(t))
    }

    /// The node's counters, widened to `u64`.
    pub fn stats(&self) -> NodeStats {
        self.counters.widen()
    }

    /// The working node's aggregate-rate estimator (for inspection).
    pub fn estimator(&self) -> &RateEstimator {
        &self.estimator
    }

    /// Whether a REPLY backoff is outstanding (a PROBE was heard and the
    /// answer has not been transmitted yet). Only ever true while
    /// `Working`. Exposed for host-side invariant checking (`peas-model`).
    pub fn reply_pending(&self) -> bool {
        self.reply_pending
    }

    /// Whether a REPLY arrived in the currently open probing window. False
    /// outside `Probing`. Exposed for host-side invariant checking.
    pub fn heard_window_reply(&self) -> bool {
        self.heard
    }

    /// The instant the node last entered `Working`, if it is working.
    /// Exposed for host-side invariant checking (`peas-model` needs the
    /// absolute start, not the `Tw` delta, to canonicalize states).
    pub fn work_started(&self) -> Option<SimTime> {
        (self.work_started != NOT_WORKING).then_some(self.work_started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::RateMeasurement;

    const RP: f64 = 3.0;

    fn close_info() -> RxInfo {
        RxInfo {
            distance: 2.0,
            effective_distance: 2.0,
        }
    }

    fn reply_msg(measured: Option<f64>, tw_secs: u64) -> Message {
        Message::Reply(Reply {
            measured_rate: measured.map(RateMeasurement::new),
            desired_rate: 0.02,
            working_time: SimDuration::from_secs(tw_secs),
        })
    }

    fn frame(msg: Message) -> Input {
        Input::Frame {
            from: NodeId(99),
            msg,
            info: close_info(),
        }
    }

    fn booted_node(rng: &mut SimRng) -> PeasNode {
        let mut n = PeasNode::new(NodeId(0), PeasConfig::paper());
        n.start(rng);
        n
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn boot_schedules_exponential_wake() {
        let mut rng = SimRng::new(1);
        let mut n = PeasNode::new(NodeId(0), PeasConfig::paper());
        match n.start(&mut rng) {
            Action::Schedule {
                timer: Timer::Wake,
                after,
            } => assert!(after > SimDuration::ZERO),
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(n.mode(), Mode::Sleeping);
        assert_eq!(n.rate(), 0.1);
    }

    #[test]
    fn wake_enters_probing_and_schedules_probes_and_window() {
        let mut rng = SimRng::new(2);
        let mut n = booted_node(&mut rng);
        let actions = n.on_input(t(10.0), Input::WakeUp, &mut rng);
        assert_eq!(n.mode(), Mode::Probing);
        assert_eq!(n.stats().wakeups, 1);
        let probe_timers = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Schedule {
                        timer: Timer::ProbeSend,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(probe_timers, 3, "paper sends three PROBEs");
        let window = actions
            .iter()
            .find(|a| {
                matches!(
                    a,
                    Action::Schedule {
                        timer: Timer::ReplyWindow,
                        ..
                    }
                )
            })
            .expect("reply window scheduled");
        match window {
            Action::Schedule { after, .. } => {
                assert_eq!(*after, SimDuration::from_millis(150));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn probe_timer_broadcasts_probe_at_probing_range() {
        let mut rng = SimRng::new(3);
        let mut n = booted_node(&mut rng);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        let actions = n.on_input(t(10.01), Input::ProbeSendTimer, &mut rng);
        assert_eq!(
            actions,
            vec![Action::Broadcast {
                msg: Message::Probe,
                range: RP,
            }]
        );
        assert_eq!(n.stats().probes_sent, 1);
    }

    #[test]
    fn silent_window_starts_working() {
        let mut rng = SimRng::new(4);
        let mut n = booted_node(&mut rng);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        let actions = n.on_input(t(10.1), Input::ReplyWindowClosed, &mut rng);
        assert!(actions.is_empty());
        assert_eq!(n.mode(), Mode::Working);
        assert_eq!(n.stats().window_silent, 1);
        assert_eq!(
            n.working_time(t(15.1)),
            Some(SimDuration::from_secs_f64(5.0))
        );
    }

    #[test]
    fn reply_sends_node_back_to_sleep_with_adjusted_rate() {
        let mut rng = SimRng::new(5);
        let mut n = booted_node(&mut rng);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        // REPLY with λ̂ = 0.05: Equation 2 gives 0.1·0.02/0.05 = 0.04, but
        // the down-factor bound (halve at most per step) clamps to 0.05.
        n.on_input(t(10.05), frame(reply_msg(Some(0.05), 100)), &mut rng);
        let actions = n.on_input(t(10.1), Input::ReplyWindowClosed, &mut rng);
        assert_eq!(n.mode(), Mode::Sleeping);
        assert!((n.rate() - 0.05).abs() < 1e-12);
        assert_eq!(n.stats().window_with_reply, 1);
        assert!(matches!(
            actions[0],
            Action::Schedule {
                timer: Timer::Wake,
                ..
            }
        ));
    }

    #[test]
    fn multiple_replies_pick_largest_measurement() {
        let mut rng = SimRng::new(6);
        let mut n = booted_node(&mut rng);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        n.on_input(t(10.02), frame(reply_msg(Some(0.04), 50)), &mut rng);
        n.on_input(t(10.05), frame(reply_msg(Some(0.10), 60)), &mut rng);
        n.on_input(t(10.1), Input::ReplyWindowClosed, &mut rng);
        // Largest λ̂ = 0.10 wins (lowest resulting rate); Equation 2 gives
        // 0.1·0.02/0.10 = 0.02 but the halve-at-most bound clamps to 0.05.
        assert!((n.rate() - 0.05).abs() < 1e-12);
        assert_eq!(n.stats().replies_heard, 2);
    }

    #[test]
    fn reply_without_measurement_keeps_rate() {
        let mut rng = SimRng::new(7);
        let mut n = booted_node(&mut rng);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        n.on_input(t(10.05), frame(reply_msg(None, 50)), &mut rng);
        n.on_input(t(10.1), Input::ReplyWindowClosed, &mut rng);
        assert_eq!(n.mode(), Mode::Sleeping);
        assert_eq!(n.rate(), 0.1);
    }

    #[test]
    fn working_node_replies_to_probe_after_backoff() {
        let mut rng = SimRng::new(8);
        let mut n = booted_node(&mut rng);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        n.on_input(t(10.1), Input::ReplyWindowClosed, &mut rng); // now working
        let actions = n.on_input(t(20.0), frame(Message::Probe), &mut rng);
        assert!(matches!(
            actions[0],
            Action::Schedule {
                timer: Timer::ReplyBackoff,
                ..
            }
        ));
        let actions = n.on_input(t(20.02), Input::ReplyBackoff, &mut rng);
        match &actions[0] {
            Action::Broadcast {
                msg: Message::Reply(reply),
                range,
            } => {
                assert_eq!(*range, RP);
                assert_eq!(reply.desired_rate, 0.02);
                assert_eq!(reply.measured_rate, None, "no measurement after 1 probe");
                assert!(
                    (reply.working_time.as_secs_f64() - 9.92).abs() < 1e-9,
                    "Tw should be now - work start"
                );
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(n.stats().replies_sent, 1);
    }

    #[test]
    fn second_probe_during_backoff_does_not_double_schedule() {
        let mut rng = SimRng::new(9);
        let mut n = booted_node(&mut rng);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        n.on_input(t(10.1), Input::ReplyWindowClosed, &mut rng);
        let first = n.on_input(t(20.0), frame(Message::Probe), &mut rng);
        assert_eq!(first.len(), 1);
        let second = n.on_input(t(20.001), frame(Message::Probe), &mut rng);
        assert!(second.is_empty(), "pending REPLY covers the second probe");
        assert_eq!(n.stats().probes_heard, 2);
    }

    #[test]
    fn estimator_measures_after_k_probes() {
        let mut rng = SimRng::new(10);
        let config = PeasConfig::builder().measure_threshold(3).build();
        let mut n = PeasNode::new(NodeId(0), config);
        n.start(&mut rng);
        n.on_input(t(0.0), Input::WakeUp, &mut rng);
        n.on_input(t(0.1), Input::ReplyWindowClosed, &mut rng);
        // Arm + 3 probes at 10 s spacing: measurement 3/30 = 0.1.
        for (i, probe_t) in [10.0, 20.0, 30.0, 40.0].iter().enumerate() {
            n.on_input(t(*probe_t), frame(Message::Probe), &mut rng);
            // Drain the reply backoff so reply_pending doesn't block stats.
            n.on_input(t(*probe_t + 0.05), Input::ReplyBackoff, &mut rng);
            if i < 3 {
                assert_eq!(n.stats().measurements, 0);
            }
        }
        assert_eq!(n.stats().measurements, 1);
        let m = n.estimator().latest().unwrap();
        assert!((m.per_second() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn turnoff_rule_newer_worker_yields() {
        let mut rng = SimRng::new(11);
        let mut n = booted_node(&mut rng);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        n.on_input(t(10.1), Input::ReplyWindowClosed, &mut rng); // working since 10.1
                                                                 // Overhear a REPLY from a node that has worked 100 s; we worked ~5 s.
        let actions = n.on_input(t(15.0), frame(reply_msg(None, 100)), &mut rng);
        assert_eq!(n.mode(), Mode::Sleeping);
        assert_eq!(n.stats().turnoffs, 1);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Schedule {
                timer: Timer::Wake,
                ..
            }
        )));
    }

    #[test]
    fn turnoff_rule_older_worker_stays() {
        let mut rng = SimRng::new(12);
        let mut n = booted_node(&mut rng);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        n.on_input(t(10.1), Input::ReplyWindowClosed, &mut rng);
        // We have worked 500 s; the overheard node only 2 s.
        let actions = n.on_input(t(510.1), frame(reply_msg(None, 2)), &mut rng);
        assert!(actions.is_empty());
        assert_eq!(n.mode(), Mode::Working);
        assert_eq!(n.stats().turnoffs, 0);
    }

    #[test]
    fn turnoff_cancels_pending_reply() {
        let mut rng = SimRng::new(13);
        let mut n = booted_node(&mut rng);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        n.on_input(t(10.1), Input::ReplyWindowClosed, &mut rng);
        n.on_input(t(20.0), frame(Message::Probe), &mut rng); // backoff pending
        let actions = n.on_input(t(20.01), frame(reply_msg(None, 9_999)), &mut rng);
        assert!(actions.contains(&Action::Cancel(Timer::ReplyBackoff)));
        // A stale backoff firing later must not transmit.
        let stale = n.on_input(t(20.05), Input::ReplyBackoff, &mut rng);
        assert!(stale.is_empty());
        assert_eq!(n.stats().replies_sent, 0);
    }

    #[test]
    fn turnoff_tie_breaks_by_node_id() {
        // Two nodes started working at (nearly) the same instant: Tw values
        // within the tie epsilon. The higher id yields; the lower id stays.
        let run = |my_id: u32, from_id: u32| {
            let mut rng = SimRng::new(42);
            let mut n = PeasNode::new(NodeId(my_id), PeasConfig::paper());
            n.start(&mut rng);
            n.on_input(t(10.0), Input::WakeUp, &mut rng);
            n.on_input(t(10.15), Input::ReplyWindowClosed, &mut rng); // working
                                                                      // Overhear a REPLY whose Tw matches ours to within ~200 ms.
            let my_tw_at_reception = 5.0;
            let input = Input::Frame {
                from: NodeId(from_id),
                msg: Message::Reply(Reply {
                    measured_rate: None,
                    desired_rate: 0.02,
                    working_time: SimDuration::from_secs_f64(my_tw_at_reception - 0.2),
                }),
                info: close_info(),
            };
            n.on_input(t(10.15 + my_tw_at_reception), input, &mut rng);
            n.mode()
        };
        assert_eq!(run(9, 2), Mode::Sleeping, "higher id must yield");
        assert_eq!(run(2, 9), Mode::Working, "lower id must stay");
    }

    #[test]
    fn turnoff_disabled_ignores_replies() {
        let mut rng = SimRng::new(14);
        let config = PeasConfig::builder().turnoff(false).build();
        let mut n = PeasNode::new(NodeId(0), config);
        n.start(&mut rng);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        n.on_input(t(10.1), Input::ReplyWindowClosed, &mut rng);
        n.on_input(t(15.0), frame(reply_msg(None, 100)), &mut rng);
        assert_eq!(n.mode(), Mode::Working);
    }

    #[test]
    fn fixed_power_filters_weak_frames() {
        let mut rng = SimRng::new(15);
        let config = PeasConfig::builder().fixed_power(10.0).build();
        let mut n = PeasNode::new(NodeId(0), config);
        n.start(&mut rng);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        n.on_input(t(10.1), Input::ReplyWindowClosed, &mut rng); // working
                                                                 // A PROBE from 8 m away: audible (within Rt) but filtered (> Rp).
        let weak = Input::Frame {
            from: NodeId(1),
            msg: Message::Probe,
            info: RxInfo {
                distance: 8.0,
                effective_distance: 8.0,
            },
        };
        let actions = n.on_input(t(20.0), weak, &mut rng);
        assert!(actions.is_empty());
        assert_eq!(n.stats().probes_heard, 0);
        // A close one passes and probes are answered at full power (Rt).
        let actions = n.on_input(t(21.0), frame(Message::Probe), &mut rng);
        assert_eq!(actions.len(), 1);
        n.on_input(t(21.01), Input::ReplyBackoff, &mut rng);
        assert_eq!(n.stats().probes_heard, 1);
    }

    #[test]
    fn fixed_power_prober_ignores_weak_replies() {
        // A REPLY arriving from beyond Rp (possible at full power) must not
        // put the prober back to sleep: the responder is too far to count
        // as a working neighbor.
        let mut rng = SimRng::new(35);
        let config = PeasConfig::builder().fixed_power(10.0).build();
        let mut n = PeasNode::new(NodeId(0), config);
        n.start(&mut rng);
        n.on_input(t(5.0), Input::WakeUp, &mut rng);
        let weak_reply = Input::Frame {
            from: NodeId(3),
            msg: reply_msg(Some(0.02), 100),
            info: RxInfo {
                distance: 7.0,
                effective_distance: 7.0,
            },
        };
        n.on_input(t(5.05), weak_reply, &mut rng);
        assert_eq!(n.stats().replies_heard, 0);
        n.on_input(t(5.15), Input::ReplyWindowClosed, &mut rng);
        assert_eq!(n.mode(), Mode::Working, "weak reply must not stop takeover");
    }

    #[test]
    fn fixed_power_probes_at_full_range() {
        let mut rng = SimRng::new(16);
        let config = PeasConfig::builder().fixed_power(10.0).build();
        let mut n = PeasNode::new(NodeId(0), config);
        n.start(&mut rng);
        n.on_input(t(1.0), Input::WakeUp, &mut rng);
        let actions = n.on_input(t(1.01), Input::ProbeSendTimer, &mut rng);
        assert_eq!(
            actions,
            vec![Action::Broadcast {
                msg: Message::Probe,
                range: 10.0,
            }]
        );
    }

    #[test]
    fn dead_node_ignores_everything() {
        let mut rng = SimRng::new(17);
        let mut n = booted_node(&mut rng);
        let cancels = n.kill();
        assert_eq!(cancels.len(), 4);
        assert_eq!(n.mode(), Mode::Dead);
        assert!(n.on_input(t(5.0), Input::WakeUp, &mut rng).is_empty());
        assert!(n
            .on_input(t(6.0), frame(Message::Probe), &mut rng)
            .is_empty());
        assert_eq!(n.mode(), Mode::Dead);
    }

    #[test]
    fn stale_timers_are_ignored() {
        let mut rng = SimRng::new(18);
        let mut n = booted_node(&mut rng);
        // ProbeSend while sleeping: stale.
        assert!(n
            .on_input(t(1.0), Input::ProbeSendTimer, &mut rng)
            .is_empty());
        // ReplyWindow while sleeping: stale.
        assert!(n
            .on_input(t(1.0), Input::ReplyWindowClosed, &mut rng)
            .is_empty());
        // ReplyBackoff while sleeping: stale.
        assert!(n.on_input(t(1.0), Input::ReplyBackoff, &mut rng).is_empty());
        assert_eq!(n.mode(), Mode::Sleeping);
        // WakeUp while working: stale.
        n.on_input(t(2.0), Input::WakeUp, &mut rng);
        n.on_input(t(2.1), Input::ReplyWindowClosed, &mut rng);
        assert_eq!(n.mode(), Mode::Working);
        assert!(n.on_input(t(3.0), Input::WakeUp, &mut rng).is_empty());
        assert_eq!(n.mode(), Mode::Working);
        assert_eq!(n.stats().wakeups, 1);
    }

    #[test]
    fn probing_node_ignores_probes() {
        let mut rng = SimRng::new(19);
        let mut n = booted_node(&mut rng);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        let actions = n.on_input(t(10.05), frame(Message::Probe), &mut rng);
        assert!(actions.is_empty());
        assert_eq!(n.stats().probes_heard, 0);
    }

    #[test]
    fn modes_report_radio_state() {
        assert!(!Mode::Sleeping.is_awake());
        assert!(Mode::Probing.is_awake());
        assert!(Mode::Working.is_awake());
        assert!(!Mode::Dead.is_awake());
    }

    #[test]
    fn repeated_wake_sleep_cycles_accumulate_stats() {
        let mut rng = SimRng::new(20);
        let mut n = booted_node(&mut rng);
        let mut now = 0.0;
        for _ in 0..10 {
            now += 50.0;
            n.on_input(t(now), Input::WakeUp, &mut rng);
            n.on_input(t(now + 0.02), Input::ProbeSendTimer, &mut rng);
            n.on_input(t(now + 0.05), frame(reply_msg(Some(0.02), 100)), &mut rng);
            n.on_input(t(now + 0.1), Input::ReplyWindowClosed, &mut rng);
            assert_eq!(n.mode(), Mode::Sleeping);
        }
        assert_eq!(n.stats().wakeups, 10);
        assert_eq!(n.stats().probes_sent, 10);
        assert_eq!(n.stats().replies_heard, 10);
        assert_eq!(n.stats().window_with_reply, 10);
        // λ̂ exactly λd keeps λ fixed.
        assert!((n.rate() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn on_input_into_appends_to_the_hosts_buffer() {
        let mut rng = SimRng::new(21);
        let mut n = booted_node(&mut rng);
        let mut twin = n.clone();
        let mut twin_rng = rng.clone();
        let held = Action::Cancel(Timer::Wake);
        let mut actions = vec![held];
        n.on_input_into(t(10.0), Input::WakeUp, &mut rng, &mut actions);
        assert_eq!(actions[0], held, "the buffer is appended to, not cleared");
        let fresh = twin.on_input(t(10.0), Input::WakeUp, &mut twin_rng);
        assert_eq!(&actions[1..], &fresh[..]);
        // A stale input appends nothing.
        n.on_input_into(t(10.0), Input::WakeUp, &mut rng, &mut actions);
        assert_eq!(actions.len(), 1 + fresh.len());
    }

    #[test]
    fn a_killed_worker_keeps_its_start_time() {
        let mut rng = SimRng::new(22);
        let mut n = booted_node(&mut rng);
        assert_eq!(n.work_started(), None);
        n.on_input(t(10.0), Input::WakeUp, &mut rng);
        n.on_input(t(10.1), Input::ReplyWindowClosed, &mut rng);
        n.kill();
        assert_eq!(n.mode(), Mode::Dead);
        assert_eq!(n.work_started(), Some(t(10.1)));
        assert_eq!(n.working_time(t(12.1)), Some(SimDuration::from_secs(2)));
        // A turn-off clears it.
        let mut m = booted_node(&mut rng);
        m.on_input(t(10.0), Input::WakeUp, &mut rng);
        m.on_input(t(10.1), Input::ReplyWindowClosed, &mut rng);
        m.on_input(t(15.0), frame(reply_msg(None, 100)), &mut rng);
        assert_eq!(m.mode(), Mode::Sleeping);
        assert_eq!(m.work_started(), None);
        assert_eq!(m.working_time(t(16.0)), None);
    }

    #[test]
    fn node_footprint_stays_small() {
        // A million-node world carries one PeasNode per sensor. The config
        // is shared behind an Arc, the REPLY window is a fixed-size fold,
        // the estimator reads k and its window cap from the config, and
        // counters are u32: none of a config copy, a REPLY buffer, an
        // Option tag or a u64 counter may move back into every node.
        assert!(
            std::mem::size_of::<PeasNode>() <= 112,
            "PeasNode grew to {} bytes",
            std::mem::size_of::<PeasNode>()
        );
    }

    #[test]
    #[should_panic(expected = "invalid PEAS configuration")]
    fn new_rejects_invalid_config() {
        let mut bad = PeasConfig::paper();
        bad.probing_range = -1.0;
        let _ = PeasNode::new(NodeId(0), bad);
    }
}
