//! Per-node protocol counters.
//!
//! These feed Figures 11 and 14 (wakeup counts) and Table 1 (energy
//! overhead, combined with the radio ledger).

/// Counters a [`crate::node::PeasNode`] maintains about its own behaviour,
/// widened to `u64` when read (see [`crate::node::PeasNode::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Times the node woke up to probe (one per sleep period that ended).
    pub wakeups: u64,
    /// PROBE frames transmitted (up to `probe_count` per wakeup).
    pub probes_sent: u64,
    /// REPLY frames transmitted while working.
    pub replies_sent: u64,
    /// PROBE frames heard (and accepted by the threshold filter).
    pub probes_heard: u64,
    /// REPLY frames heard during probing windows.
    pub replies_heard: u64,
    /// Completed aggregate-rate measurements.
    pub measurements: u64,
    /// Probing windows that ended with at least one REPLY (went back to
    /// sleep).
    pub window_with_reply: u64,
    /// Probing windows that ended silent (started working).
    pub window_silent: u64,
    /// Times the node gave up working because of the Section 4 turn-off
    /// rule.
    pub turnoffs: u64,
    /// REPLYs overheard while working (turn-off rule evaluations).
    pub replies_overheard: u64,
}

impl NodeStats {
    /// Accumulates another node's counters (for fleet totals).
    pub fn merge(&mut self, other: &NodeStats) {
        self.wakeups += other.wakeups;
        self.probes_sent += other.probes_sent;
        self.replies_sent += other.replies_sent;
        self.probes_heard += other.probes_heard;
        self.replies_heard += other.replies_heard;
        self.measurements += other.measurements;
        self.window_with_reply += other.window_with_reply;
        self.window_silent += other.window_silent;
        self.turnoffs += other.turnoffs;
        self.replies_overheard += other.replies_overheard;
    }
}

/// [`NodeStats`] as a node stores them: one `u32` per counter, so a
/// million-node world spends 40 B per sensor on counters rather than 80.
/// Every add saturates; one node would need 2³² wakeups, PROBEs or
/// REPLYs for a counter to stop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    pub wakeups: u32,
    pub probes_sent: u32,
    pub replies_sent: u32,
    pub probes_heard: u32,
    pub replies_heard: u32,
    pub measurements: u32,
    pub window_with_reply: u32,
    pub window_silent: u32,
    pub turnoffs: u32,
    pub replies_overheard: u32,
}

impl Counters {
    /// Adds one to `counter`, saturating.
    pub fn bump(counter: &mut u32) {
        *counter = counter.saturating_add(1);
    }

    /// The counters as `u64` [`NodeStats`].
    pub fn widen(&self) -> NodeStats {
        NodeStats {
            wakeups: self.wakeups.into(),
            probes_sent: self.probes_sent.into(),
            replies_sent: self.replies_sent.into(),
            probes_heard: self.probes_heard.into(),
            replies_heard: self.replies_heard.into(),
            measurements: self.measurements.into(),
            window_with_reply: self.window_with_reply.into(),
            window_silent: self.window_silent.into(),
            turnoffs: self.turnoffs.into(),
            replies_overheard: self.replies_overheard.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let s = NodeStats::default();
        assert_eq!(s.wakeups, 0);
        assert_eq!(s.probes_sent, 0);
        assert_eq!(s.turnoffs, 0);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = NodeStats {
            wakeups: 2,
            probes_sent: 6,
            ..NodeStats::default()
        };
        let b = NodeStats {
            wakeups: 3,
            replies_sent: 1,
            ..NodeStats::default()
        };
        a.merge(&b);
        assert_eq!(a.wakeups, 5);
        assert_eq!(a.probes_sent, 6);
        assert_eq!(a.replies_sent, 1);
    }

    #[test]
    fn counters_saturate_and_widen_field_by_field() {
        let mut c = Counters {
            turnoffs: u32::MAX - 1,
            ..Counters::default()
        };
        Counters::bump(&mut c.wakeups);
        Counters::bump(&mut c.turnoffs);
        Counters::bump(&mut c.turnoffs);
        let s = c.widen();
        assert_eq!(s.wakeups, 1);
        assert_eq!(s.turnoffs, u64::from(u32::MAX));
        assert_eq!(
            NodeStats {
                wakeups: 0,
                turnoffs: 0,
                ..s
            },
            NodeStats::default()
        );
    }
}
