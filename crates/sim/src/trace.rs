//! Protocol tracing: observe what every node does, as it happens.
//!
//! Debugging a sleep-scheduling protocol means asking questions like "why
//! did this pair of neighbors both work for 600 s?" — which requires the
//! sequence of mode changes, frames and deaths, not just periodic
//! aggregates. A [`TraceSink`] receives every such event; attach one with
//! [`crate::World::set_trace`]. `scenario run <file> --trace FILE` (in
//! `peas-bench`) writes it as CSV.

use peas::Mode;
use peas_des::time::SimTime;

/// Why a node died.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeathKind {
    /// Injected failure (Section 5.2's failure model).
    Failure,
    /// Battery depletion.
    Energy,
}

/// What kind of frame a node put on the air.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A PEAS PROBE.
    Probe,
    /// A PEAS REPLY.
    Reply,
    /// A GRAB cost-field advertisement.
    Adv,
    /// A GRAB data report.
    Report,
}

/// One observable occurrence in the simulated network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A sensor changed operation mode.
    ModeChange {
        /// The sensor.
        node: u32,
        /// Previous mode.
        from: Mode,
        /// New mode.
        to: Mode,
    },
    /// A sensor died.
    Death {
        /// The sensor.
        node: u32,
        /// Failure injection or battery depletion.
        cause: DeathKind,
    },
    /// A node (sensor or infrastructure) started a broadcast.
    FrameSent {
        /// The transmitting node (sensor index, or source/sink index).
        node: u32,
        /// What was sent.
        kind: FrameKind,
        /// Intended transmission range, meters.
        range: f64,
    },
}

impl TraceEvent {
    /// A stable one-line CSV rendering: `t_secs,event,node,detail`.
    pub fn to_csv_row(&self, t: SimTime) -> String {
        let t = t.as_secs_f64();
        match *self {
            TraceEvent::ModeChange { node, from, to } => {
                format!("{t:.6},mode,{node},{from:?}->{to:?}")
            }
            TraceEvent::Death { node, cause } => {
                format!("{t:.6},death,{node},{cause:?}")
            }
            TraceEvent::FrameSent { node, kind, range } => {
                format!("{t:.6},frame,{node},{kind:?}@{range}")
            }
        }
    }
}

/// Receives trace events in simulation order.
pub trait TraceSink {
    /// Called once per event, in nondecreasing `t` order.
    fn record(&mut self, t: SimTime, event: &TraceEvent);
}

/// Every closure of the right shape is a sink.
impl<F: FnMut(SimTime, &TraceEvent)> TraceSink for F {
    fn record(&mut self, t: SimTime, event: &TraceEvent) {
        self(t, event)
    }
}

/// A sink that counts events by kind — cheap enough to leave attached.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceCounts {
    /// Mode changes observed.
    pub mode_changes: u64,
    /// Deaths observed.
    pub deaths: u64,
    /// Frames observed, by kind: probe, reply, adv, report.
    pub frames: [u64; 4],
}

impl TraceSink for TraceCounts {
    fn record(&mut self, _t: SimTime, event: &TraceEvent) {
        match event {
            TraceEvent::ModeChange { .. } => self.mode_changes += 1,
            TraceEvent::Death { .. } => self.deaths += 1,
            TraceEvent::FrameSent { kind, .. } => {
                let idx = match kind {
                    FrameKind::Probe => 0,
                    FrameKind::Reply => 1,
                    FrameKind::Adv => 2,
                    FrameKind::Report => 3,
                };
                self.frames[idx] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rows_are_stable() {
        let t = SimTime::from_secs(2);
        let row = TraceEvent::ModeChange {
            node: 7,
            from: Mode::Sleeping,
            to: Mode::Probing,
        }
        .to_csv_row(t);
        assert_eq!(row, "2.000000,mode,7,Sleeping->Probing");
        let row = TraceEvent::Death {
            node: 3,
            cause: DeathKind::Energy,
        }
        .to_csv_row(t);
        assert_eq!(row, "2.000000,death,3,Energy");
        let row = TraceEvent::FrameSent {
            node: 1,
            kind: FrameKind::Probe,
            range: 3.0,
        }
        .to_csv_row(t);
        assert_eq!(row, "2.000000,frame,1,Probe@3");
    }

    #[test]
    fn counting_sink_tallies() {
        let mut counts = TraceCounts::default();
        let t = SimTime::ZERO;
        counts.record(
            t,
            &TraceEvent::FrameSent {
                node: 0,
                kind: FrameKind::Reply,
                range: 3.0,
            },
        );
        counts.record(
            t,
            &TraceEvent::Death {
                node: 0,
                cause: DeathKind::Failure,
            },
        );
        counts.record(
            t,
            &TraceEvent::ModeChange {
                node: 0,
                from: Mode::Probing,
                to: Mode::Working,
            },
        );
        assert_eq!(counts.frames, [0, 1, 0, 0]);
        assert_eq!(counts.deaths, 1);
        assert_eq!(counts.mode_changes, 1);
    }

    #[test]
    fn closures_are_sinks() {
        let mut seen = 0u32;
        {
            let mut sink = |_t: SimTime, _e: &TraceEvent| seen += 1;
            sink.record(
                SimTime::ZERO,
                &TraceEvent::Death {
                    node: 0,
                    cause: DeathKind::Energy,
                },
            );
        }
        assert_eq!(seen, 1);
    }
}
