//! Canonical state fingerprints: the quotient that makes breadth-first
//! exploration a fixpoint computation.
//!
//! A concrete [`ModelWorld`] contains unbounded quantities — absolute
//! logical time, working-time instants, λ̂ as a raw `f64`, REPLY
//! payloads measured over ever-longer windows. The canonical key keeps
//! exactly the state that *gates transitions or the turn-off decision*,
//! and quantizes or drops the rest:
//!
//! * absolute time is dropped entirely;
//! * modes, armed timers, the pending-REPLY flag, whether the probing
//!   window is empty (that emptiness decides Working vs back-to-sleep),
//!   the in-flight frame per directed edge, and the remaining death
//!   budget are kept exactly — these are what `enabled_events` and the
//!   node state machine branch on;
//! * working times appear only as the *class* of pairwise differences
//!   between working nodes — shorter / tie (within the tie epsilon) /
//!   longer — exactly what the turn-off rule reads. The class is also
//!   all the *future* can distinguish: while both nodes work the
//!   difference is frozen, and against a frozen REPLY payload it grows
//!   monotonically one quantum at a time, so the class sequence
//!   (shorter → tie → longer) is the same from any state in a class;
//! * an in-flight REPLY's `Tw` payload appears as its difference class
//!   against the receiver's current working time when the receiver is
//!   working, since that class is all the turn-off rule reads;
//! * λ is kept as its whole-octave offset from λd, clamped to ±1
//!   (below / near / above the desired rate);
//! * measurement payloads and the estimator's window internals are
//!   dropped: they feed *only* the λ update, which gates no transition
//!   in the time-abstract model (sleep durations are already
//!   abstracted into the nondeterministic `Wake` firing). Keeping them
//!   multiplied the quotient ~50× with zero added behavioral coverage
//!   — and λ̂/λ invariants lose nothing, because every applied
//!   transition is invariant-checked on its *concrete* target before
//!   canonical dedup.
//!
//! Two states with equal keys can still differ in suppressed detail;
//! invariants are checked on the concrete representative that first
//! reaches each class (standard explicit-state practice — see
//! `DESIGN.md` §10 for the soundness discussion).

use peas::{Message, Mode};
use peas_des::time::SimDuration;

use crate::cfg::saturating_secs;
use crate::world::ModelWorld;

/// Sentinel for "absent" slots (no measurement, not working, …).
const NONE: i64 = i64::MIN + 1;

/// Stale `ProbeSend` timers accumulate across sleep cycles when paths
/// never fire them; counts above this cap behave identically (firing is
/// a no-op), so the canon merges them to keep the quotient finite.
const PROBE_SEND_CAP: u8 = 3;

/// The canonical key of a world state. Equal keys ⇒ the explorer treats
/// the states as the same; the encoding is a plain `Vec<i64>` so it
/// orders deterministically inside a `DetMap`.
pub fn canon_key(world: &ModelWorld) -> Vec<i64> {
    let n = world.cfg.nodes;
    let eps = saturating_secs(world.cfg.peas.turnoff_tie_epsilon);
    let lambda_d = world.cfg.peas.desired_rate;
    let now = world.now();
    let mut key = Vec::with_capacity(world.nodes.len() * 8 + world.flights.len() * 2 + 2);
    key.push(i64::from(n));
    for (i, node) in world.nodes.iter().enumerate() {
        let timers = &world.timers[i];
        key.push(mode_tag(node.mode()));
        key.push(i64::from(timers.wake));
        key.push(i64::from(timers.probe_sends.min(PROBE_SEND_CAP)));
        key.push(i64::from(timers.reply_window));
        key.push(i64::from(timers.reply_backoff));
        key.push(i64::from(node.reply_pending()));
        key.push(rate_bucket(node.rate(), lambda_d));
        // The probing window: whether a REPLY was heard is the only
        // branch the window close takes (Working vs rate-update+sleep).
        key.push(i64::from(node.heard_window_reply()));
    }
    // Pairwise working-time difference classes.
    for a in 0..n {
        for b in (a + 1)..n {
            let tw_a = world.nodes[a as usize].working_time(now);
            let tw_b = world.nodes[b as usize].working_time(now);
            key.push(match (tw_a, tw_b) {
                (Some(x), Some(y)) => diff_class(x, y, eps),
                _ => NONE,
            });
        }
    }
    // In-flight frames per directed edge.
    for from in 0..n {
        for to in 0..n {
            if from == to {
                continue;
            }
            let slot = (from * n + to) as usize;
            match &world.flights[slot] {
                None => key.push(NONE),
                Some(Message::Probe) => key.push(1),
                Some(Message::Reply(reply)) => {
                    key.push(2);
                    // What the turn-off rule will read if the receiver
                    // is (still) working when this lands.
                    key.push(match world.nodes[to as usize].working_time(now) {
                        Some(my_tw) => diff_class(my_tw, reply.working_time, eps),
                        None => NONE,
                    });
                }
            }
        }
    }
    key.push(i64::from(world.deaths_left));
    key
}

fn mode_tag(mode: Mode) -> i64 {
    match mode {
        Mode::Sleeping => 0,
        Mode::Probing => 1,
        Mode::Working => 2,
        Mode::Dead => 3,
    }
}

/// λ as its whole-octave log₂ offset from λd, clamped to ±1: below /
/// near / above the desired rate. λ is clamped to `rate_bounds` anyway
/// and gates no transition, so this is a coverage hint, not a
/// behavioral dimension.
fn rate_bucket(rate: f64, lambda_d: f64) -> i64 {
    if !(rate.is_finite() && rate > 0.0) {
        return NONE; // out-of-domain rates are invariant violations anyway
    }
    saturate(libm_log2(rate / lambda_d)).clamp(-1, 1)
}

/// The turn-off-relevant class of a working-time difference: `-1` if
/// `a` is shorter by more than the tie epsilon, `0` for a tie, `1` if
/// longer.
fn diff_class(a: SimDuration, b: SimDuration, eps: i64) -> i64 {
    let diff = saturating_secs(a).saturating_sub(saturating_secs(b));
    if diff.abs() <= eps {
        0
    } else if diff < 0 {
        -1
    } else {
        1
    }
}

fn saturate(x: f64) -> i64 {
    // f64 → i64 `as` casts saturate in Rust, deterministically.
    x.round() as i64
}

/// `f64::log2` — aliased so the one transcendental the canon relies on
/// is easy to audit (IEEE-754, bit-deterministic on every target the
/// repo supports).
fn libm_log2(x: f64) -> f64 {
    x.log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::ModelCfg;
    use crate::event::{ModelEvent, TimerKind};

    #[test]
    fn fresh_worlds_share_a_key_and_mode_changes_split_it() {
        let cfg = ModelCfg::micro(3);
        let a = ModelWorld::new(cfg.clone());
        let mut b = ModelWorld::new(cfg);
        let key_a = canon_key(&a);
        assert_eq!(key_a, canon_key(&b), "identical worlds, identical keys");
        b.apply(ModelEvent::Fire {
            node: 0,
            timer: TimerKind::Wake,
        });
        assert_ne!(key_a, canon_key(&b), "a mode change must split the key");
    }

    #[test]
    fn rate_buckets_are_octaves_from_lambda_d() {
        assert_eq!(rate_bucket(0.02, 0.02), 0);
        assert_eq!(rate_bucket(0.04, 0.02), 1);
        assert_eq!(rate_bucket(10.0, 0.02), 1, "clamped above");
        assert_eq!(rate_bucket(1e-9, 0.02), -1, "clamped below");
        assert_eq!(rate_bucket(f64::NAN, 0.02), NONE);
    }

    #[test]
    fn diff_classes_split_at_the_tie_epsilon() {
        let s = SimDuration::from_secs;
        assert_eq!(diff_class(s(10), s(8), 3), 0);
        assert_eq!(diff_class(s(100), s(1), 3), 1);
        assert_eq!(diff_class(s(1), s(100), 3), -1);
    }
}
