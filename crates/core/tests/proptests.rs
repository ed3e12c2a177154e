//! Property-based tests for the PEAS protocol state machine.

use proptest::prelude::*;

use peas::{Action, Input, Message, Mode, PeasConfig, PeasNode, RateMeasurement, Reply, Timer};
use peas_des::rng::SimRng;
use peas_des::time::{SimDuration, SimTime};
use peas_radio::{NodeId, RxInfo};

fn close_frame(msg: Message) -> Input {
    Input::Frame {
        from: NodeId(7),
        msg,
        info: RxInfo {
            distance: 1.5,
            effective_distance: 1.5,
        },
    }
}

fn reply(measured: Option<f64>, tw_secs: u64) -> Message {
    Message::Reply(Reply {
        measured_rate: measured.map(RateMeasurement::new),
        desired_rate: 0.02,
        working_time: SimDuration::from_secs(tw_secs),
    })
}

/// All the inputs a fuzzer can throw at a node.
fn arb_input() -> impl Strategy<Value = Input> {
    prop_oneof![
        Just(Input::WakeUp),
        Just(Input::ProbeSendTimer),
        Just(Input::ReplyWindowClosed),
        Just(Input::ReplyBackoff),
        Just(close_frame(Message::Probe)),
        (prop::option::of(1e-4f64..1.0), 0u64..10_000)
            .prop_map(|(m, tw)| close_frame(reply(m, tw))),
    ]
}

proptest! {
    /// The node never panics, never goes back from Dead, and its rate stays
    /// within the configured bounds no matter what input sequence arrives.
    #[test]
    fn node_is_total_and_rate_bounded(
        seed in any::<u64>(),
        inputs in prop::collection::vec(arb_input(), 1..200),
        kill_at in prop::option::of(0usize..200),
    ) {
        let config = PeasConfig::paper();
        let (lo, hi) = config.rate_bounds;
        let mut node = PeasNode::new(NodeId(0), config);
        let mut rng = SimRng::new(seed);
        node.start(&mut rng);
        let mut now = SimTime::ZERO;
        for (i, input) in inputs.into_iter().enumerate() {
            if Some(i) == kill_at {
                node.kill();
            }
            now += SimDuration::from_millis(37);
            let _ = node.on_input(now, input, &mut rng);
            prop_assert!(node.rate() >= lo && node.rate() <= hi,
                "rate {} out of bounds", node.rate());
            if kill_at.is_some_and(|k| i >= k) {
                prop_assert_eq!(node.mode(), Mode::Dead);
            }
        }
    }

    /// Scheduled timer delays are always finite and wake delays follow the
    /// current rate (statistically positive).
    #[test]
    fn scheduled_delays_are_well_formed(seed in any::<u64>()) {
        let mut node = PeasNode::new(NodeId(0), PeasConfig::paper());
        let mut rng = SimRng::new(seed);
        if let Action::Schedule { after, .. } = node.start(&mut rng) {
            prop_assert!(after > SimDuration::ZERO);
            prop_assert!(after < SimDuration::from_secs(10_000_000));
        }
    }

    /// A probing window with at least one REPLY always puts the node back
    /// to sleep; a silent one always promotes it to working.
    #[test]
    fn window_outcome_matches_replies(
        seed in any::<u64>(),
        n_replies in 0usize..5,
        measured in prop::option::of(1e-3f64..0.5),
    ) {
        let mut node = PeasNode::new(NodeId(0), PeasConfig::paper());
        let mut rng = SimRng::new(seed);
        node.start(&mut rng);
        let t0 = SimTime::from_secs(10);
        node.on_input(t0, Input::WakeUp, &mut rng);
        for i in 0..n_replies {
            node.on_input(
                t0 + SimDuration::from_millis(10 + i as u64),
                close_frame(reply(measured, 42)),
                &mut rng,
            );
        }
        node.on_input(t0 + SimDuration::from_millis(100), Input::ReplyWindowClosed, &mut rng);
        if n_replies == 0 {
            prop_assert_eq!(node.mode(), Mode::Working);
        } else {
            prop_assert_eq!(node.mode(), Mode::Sleeping);
        }
    }

    /// Rate adjustment is exact: after hearing one measured REPLY, the new
    /// rate is clamp(λ·λd/λ̂).
    #[test]
    fn adjustment_matches_equation_2(seed in any::<u64>(), measured in 1e-3f64..1.0) {
        let config = PeasConfig::paper();
        let mut node = PeasNode::new(NodeId(0), config.clone());
        let mut rng = SimRng::new(seed);
        node.start(&mut rng);
        let t0 = SimTime::from_secs(5);
        node.on_input(t0, Input::WakeUp, &mut rng);
        node.on_input(t0 + SimDuration::from_millis(20), close_frame(reply(Some(measured), 3)), &mut rng);
        node.on_input(t0 + SimDuration::from_millis(100), Input::ReplyWindowClosed, &mut rng);
        let factor = (config.desired_rate / measured)
            .clamp(config.adjust_factor_bounds.0, config.adjust_factor_bounds.1);
        let expected = (config.initial_rate * factor)
            .clamp(config.rate_bounds.0, config.rate_bounds.1);
        prop_assert!((node.rate() - expected).abs() < 1e-12);
    }

    /// The turn-off rule is one-directional: whichever of two working nodes
    /// has the smaller Tw yields, never the other.
    #[test]
    fn turnoff_is_one_directional(my_tw in 0u64..1_000, other_tw in 0u64..1_000) {
        prop_assume!(my_tw != other_tw);
        let mut node = PeasNode::new(NodeId(0), PeasConfig::paper());
        let mut rng = SimRng::new(1);
        node.start(&mut rng);
        let t0 = SimTime::from_secs(1);
        node.on_input(t0, Input::WakeUp, &mut rng);
        node.on_input(t0 + SimDuration::from_millis(100), Input::ReplyWindowClosed, &mut rng);
        // We are now working; advance the clock by my_tw and overhear a
        // REPLY from a node with other_tw of service.
        let now = t0 + SimDuration::from_millis(100) + SimDuration::from_secs(my_tw);
        node.on_input(now, close_frame(reply(None, other_tw)), &mut rng);
        if my_tw < other_tw {
            prop_assert_eq!(node.mode(), Mode::Sleeping);
        } else {
            prop_assert_eq!(node.mode(), Mode::Working);
        }
    }

    /// Broadcast actions always use the configured control range.
    #[test]
    fn broadcasts_use_control_range(fixed in prop::option::of(5.0f64..20.0)) {
        let mut builder = PeasConfig::builder();
        if let Some(rt) = fixed {
            builder = builder.fixed_power(rt);
        }
        let config = builder.build();
        let expected = config.control_tx_range();
        let mut node = PeasNode::new(NodeId(0), config);
        let mut rng = SimRng::new(9);
        node.start(&mut rng);
        let t0 = SimTime::from_secs(2);
        node.on_input(t0, Input::WakeUp, &mut rng);
        let actions = node.on_input(t0 + SimDuration::from_millis(5), Input::ProbeSendTimer, &mut rng);
        for a in actions {
            if let Action::Broadcast { range, .. } = a {
                prop_assert_eq!(range, expected);
            }
        }
    }

    /// Wakeup counting: every Sleeping->Probing transition increments the
    /// wakeups counter exactly once (Figures 11/14 depend on this).
    #[test]
    fn wakeups_count_transitions(cycles in 1usize..30) {
        let mut node = PeasNode::new(NodeId(0), PeasConfig::paper());
        let mut rng = SimRng::new(5);
        node.start(&mut rng);
        let mut now = SimTime::ZERO;
        for _ in 0..cycles {
            now += SimDuration::from_secs(50);
            node.on_input(now, Input::WakeUp, &mut rng);
            prop_assert_eq!(node.mode(), Mode::Probing);
            node.on_input(now + SimDuration::from_millis(10), close_frame(reply(None, 1)), &mut rng);
            node.on_input(now + SimDuration::from_millis(100), Input::ReplyWindowClosed, &mut rng);
            prop_assert_eq!(node.mode(), Mode::Sleeping);
        }
        prop_assert_eq!(node.stats().wakeups, cycles as u64);
        prop_assert_eq!(node.stats().window_with_reply, cycles as u64);
    }

    /// Timer identity: every Schedule action names a timer consistent with
    /// the mode the node is in when emitting it.
    #[test]
    fn schedules_match_mode(seed in any::<u64>()) {
        let mut node = PeasNode::new(NodeId(0), PeasConfig::paper());
        let mut rng = SimRng::new(seed);
        let boot = node.start(&mut rng);
        prop_assert!(matches!(boot, Action::Schedule { timer: Timer::Wake, .. }));
        let t0 = SimTime::from_secs(1);
        let wake_actions = node.on_input(t0, Input::WakeUp, &mut rng);
        let all_probing_timers = wake_actions.iter().all(|a| {
            matches!(
                a,
                Action::Schedule {
                    timer: Timer::ProbeSend | Timer::ReplyWindow,
                    ..
                }
            )
        });
        prop_assert!(all_probing_timers);
    }
}
