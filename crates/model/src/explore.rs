//! Breadth-first exploration of the canonical-state quotient, plus the
//! deterministic trace replayer the counterexample pipeline rests on.

use std::collections::VecDeque;

use peas::Mode;
use peas_des::detmap::DetMap;
use peas_des::{fnv1a_extend, FNV1A_OFFSET};

use crate::canon::canon_key;
use crate::cfg::ModelCfg;
use crate::event::ModelEvent;
use crate::invariant::Violation;
use crate::world::ModelWorld;

/// What an exploration run found.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Distinct canonical states reached (including the initial state).
    pub states: usize,
    /// Transitions taken (including ones landing on known states).
    pub transitions: usize,
    /// Whether the frontier drained, with neither the `max_states`
    /// budget hit nor a safety violation cutting it short: only then is
    /// the exploration exhaustive over the quotient.
    pub fixpoint: bool,
    /// Longest shortest-path depth over reached states.
    pub max_depth: usize,
    /// Reached states in which some in-range pair is simultaneously
    /// Working — the probe-race redundancy PEAS tolerates by design.
    /// Reported (and pinned by goldens), not an invariant.
    pub duplicate_working_states: usize,
    /// Reached states satisfying the coverage-hole predicate (alive
    /// nodes but no Working node).
    pub coverage_hole_states: usize,
    /// FNV-1a over every canonical key in discovery order: a pinned
    /// fingerprint of the whole reached quotient.
    pub canon_hash: u64,
    /// The first invariant violation, with its breadth-first trace.
    pub violation: Option<FoundViolation>,
}

/// A violated invariant plus the event trace that reaches it from the
/// initial state.
#[derive(Clone, Debug)]
pub struct FoundViolation {
    /// What was violated.
    pub violation: Violation,
    /// Events from the initial state to the violating transition, in
    /// order. Breadth-first search makes this a minimum-depth trace.
    pub trace: Vec<ModelEvent>,
}

/// The result of replaying an explicit event trace.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Events applied before stopping.
    pub applied: usize,
    /// Index of the first event that was not enabled, if the replay got
    /// stuck (the remaining events are skipped).
    pub stuck_at: Option<usize>,
    /// The violation the replay hit, if any (the replay stops there).
    pub violation: Option<Violation>,
    /// Canonical-key FNV-1a of the final state, for golden pinning.
    pub final_state_hash: u64,
}

/// Folds a canonical key into the running FNV-1a hash, each value as
/// its little-endian bytes.
fn fnv_fold(hash: u64, key: &[i64]) -> u64 {
    key.iter()
        .fold(hash, |hash, value| fnv1a_extend(hash, &value.to_le_bytes()))
}

/// Explores the full quotient breadth-first from the initial state.
///
/// Deterministic by construction: events are enumerated in a fixed
/// order, states are numbered in discovery order, and the dedup map is
/// a [`DetMap`]. Stops at the first invariant violation (safety), with
/// `states` counting what it had explored and `fixpoint` false, or
/// after draining the frontier runs liveness cycle detection over the
/// coverage-hole subgraph.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`ModelCfg::validate`]).
pub fn explore(cfg: &ModelCfg) -> ExploreOutcome {
    let root = ModelWorld::new(cfg.clone());
    let mut outcome = ExploreOutcome {
        states: 1,
        transitions: 0,
        fixpoint: true,
        max_depth: 0,
        duplicate_working_states: 0,
        coverage_hole_states: 0,
        canon_hash: FNV1A_OFFSET,
        violation: None,
    };
    let root_key = canon_key(&root);
    outcome.canon_hash = fnv_fold(outcome.canon_hash, &root_key);
    if let Some(violation) = root.check_state() {
        outcome.fixpoint = false;
        outcome.violation = Some(FoundViolation {
            violation,
            trace: Vec::new(),
        });
        return outcome;
    }

    let mut seen: DetMap<Vec<i64>, u32> = DetMap::new();
    seen.insert(root_key, 0);
    // Per state id: (parent id, event from parent) for trace rebuilds.
    let mut parents: Vec<(u32, Option<ModelEvent>)> = vec![(0, None)];
    let mut depth: Vec<u32> = vec![0];
    let mut hole: Vec<bool> = vec![root.coverage_hole()];
    // Transition list for the liveness pass (from → to over state ids).
    let mut edges: Vec<(u32, u32)> = Vec::new();
    if hole[0] {
        outcome.coverage_hole_states += 1;
    }
    let mut frontier: VecDeque<(u32, ModelWorld)> = VecDeque::new();
    frontier.push_back((0, root));

    while let Some((id, world)) = frontier.pop_front() {
        for ev in world.enabled_events() {
            let mut next = world.clone();
            outcome.transitions += 1;
            if let Some(violation) = next.apply(ev) {
                let mut trace = rebuild_trace(&parents, id);
                trace.push(ev);
                outcome.violation = Some(FoundViolation { violation, trace });
                outcome.states = seen.len();
                outcome.fixpoint = false;
                return outcome;
            }
            let key = canon_key(&next);
            if let Some(&known) = seen.get(&key) {
                edges.push((id, known));
                continue;
            }
            if seen.len() >= cfg.max_states {
                outcome.fixpoint = false;
                continue;
            }
            let next_id = u32::try_from(seen.len()).unwrap_or(u32::MAX);
            outcome.canon_hash = fnv_fold(outcome.canon_hash, &key);
            seen.insert(key, next_id);
            parents.push((id, Some(ev)));
            let d = depth[id as usize] + 1;
            depth.push(d);
            outcome.max_depth = outcome.max_depth.max(d as usize);
            let is_hole = next.coverage_hole();
            hole.push(is_hole);
            if is_hole {
                outcome.coverage_hole_states += 1;
            }
            if has_duplicate_working(&next) {
                outcome.duplicate_working_states += 1;
            }
            edges.push((id, next_id));
            frontier.push_back((next_id, next));
        }
    }
    outcome.states = seen.len();

    // Liveness: a reachable cycle within the coverage-hole subgraph
    // means a scheduler could keep the network uncovered forever.
    if let Some(entry) = find_hole_cycle(&hole, &edges) {
        outcome.violation = Some(FoundViolation {
            violation: Violation::LivenessCycle {
                states: entry.cycle_states,
            },
            trace: rebuild_trace(&parents, entry.state),
        });
    }
    outcome
}

fn has_duplicate_working(world: &ModelWorld) -> bool {
    let n = world.cfg().nodes;
    for a in 0..n {
        for b in (a + 1)..n {
            if world.cfg().topology.in_range(a, b)
                && world.nodes()[a as usize].mode() == Mode::Working
                && world.nodes()[b as usize].mode() == Mode::Working
            {
                return true;
            }
        }
    }
    false
}

fn rebuild_trace(parents: &[(u32, Option<ModelEvent>)], mut id: u32) -> Vec<ModelEvent> {
    let mut trace = Vec::new();
    while let (parent, Some(ev)) = parents[id as usize] {
        trace.push(ev);
        id = parent;
    }
    trace.reverse();
    trace
}

struct HoleCycle {
    /// A state on the cycle (trace target).
    state: u32,
    /// Number of states in the strongly connected component.
    cycle_states: usize,
}

/// Finds a cycle (including self-loops) in the subgraph induced by
/// coverage-hole states, via iterative depth-first search with an
/// on-stack mark (any back edge inside the subgraph closes a cycle).
fn find_hole_cycle(hole: &[bool], edges: &[(u32, u32)]) -> Option<HoleCycle> {
    let n = hole.len();
    // Adjacency restricted to hole→hole transitions.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(from, to) in edges {
        if hole[from as usize] && hole[to as usize] {
            adj[from as usize].push(to);
        }
    }
    // 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut mark = vec![0u8; n];
    for start in 0..n {
        if !hole[start] || mark[start] != 0 {
            continue;
        }
        // Each stack frame: (state, next child index).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        mark[start] = 1;
        while let Some(&mut (state, ref mut child)) = stack.last_mut() {
            if *child < adj[state].len() {
                let next = adj[state][*child] as usize;
                *child += 1;
                match mark[next] {
                    0 => {
                        mark[next] = 1;
                        stack.push((next, 0));
                    }
                    1 => {
                        // Back edge: the path suffix from `next` is a cycle.
                        let cycle_states =
                            stack.iter().skip_while(|&&(s, _)| s != next).count().max(1);
                        return Some(HoleCycle {
                            state: u32::try_from(next).unwrap_or(u32::MAX),
                            cycle_states,
                        });
                    }
                    _ => {}
                }
            } else {
                mark[state] = 2;
                stack.pop();
            }
        }
    }
    None
}

/// Replays an explicit event trace from the initial state, stopping at
/// the first disabled event or violated invariant.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`ModelCfg::validate`]).
pub fn replay(cfg: &ModelCfg, trace: &[ModelEvent]) -> ReplayOutcome {
    let mut world = ModelWorld::new(cfg.clone());
    let mut outcome = ReplayOutcome {
        applied: 0,
        stuck_at: None,
        violation: world.check_state(),
        final_state_hash: 0,
    };
    if outcome.violation.is_none() {
        for (index, &ev) in trace.iter().enumerate() {
            if !world.is_enabled(ev) {
                outcome.stuck_at = Some(index);
                break;
            }
            let violation = world.apply(ev);
            outcome.applied += 1;
            if violation.is_some() {
                outcome.violation = violation;
                break;
            }
        }
    }
    outcome.final_state_hash = fnv_fold(FNV1A_OFFSET, &canon_key(&world));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TimerKind;

    fn tiny() -> ModelCfg {
        ModelCfg::micro(2)
    }

    #[test]
    fn two_node_world_reaches_a_clean_fixpoint() {
        let outcome = explore(&tiny());
        assert!(outcome.fixpoint, "2-node world must drain its frontier");
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.states > 50, "got {} states", outcome.states);
        assert!(
            outcome.duplicate_working_states > 0,
            "the probe race must be reachable"
        );
        assert!(outcome.coverage_hole_states > 0);
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = explore(&tiny());
        let b = explore(&tiny());
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.canon_hash, b.canon_hash);
    }

    #[test]
    fn budget_truncation_clears_the_fixpoint_claim() {
        let mut cfg = tiny();
        cfg.max_states = 10;
        let outcome = explore(&cfg);
        assert!(!outcome.fixpoint);
        assert_eq!(outcome.states, 10);
        assert!(outcome.violation.is_none());
    }

    #[test]
    fn strict_invariant_yields_a_replayable_trace() {
        let mut cfg = tiny();
        cfg.strict_duplicate_working = true;
        let outcome = explore(&cfg);
        // A cut-short exploration reports the states it explored.
        assert!(outcome.states > 1, "states = {}", outcome.states);
        assert!(!outcome.fixpoint);
        let found = outcome.violation.expect("probe race must be found");
        assert_eq!(found.violation.rule(), "duplicate-working");
        let replayed = replay(&cfg, &found.trace);
        assert_eq!(replayed.stuck_at, None);
        assert_eq!(
            replayed.violation.as_ref().map(Violation::rule),
            Some("duplicate-working"),
            "the trace must reproduce the violation"
        );
    }

    #[test]
    fn replay_reports_disabled_events() {
        let outcome = replay(
            &tiny(),
            &[ModelEvent::Fire {
                node: 0,
                timer: TimerKind::ReplyBackoff,
            }],
        );
        assert_eq!(outcome.stuck_at, Some(0));
        assert_eq!(outcome.applied, 0);
    }

    #[test]
    fn replay_hash_is_stable_for_equal_traces() {
        let trace = [
            ModelEvent::Fire {
                node: 0,
                timer: TimerKind::Wake,
            },
            ModelEvent::Fire {
                node: 0,
                timer: TimerKind::ProbeSend,
            },
        ];
        let a = replay(&tiny(), &trace);
        let b = replay(&tiny(), &trace);
        assert_eq!(a.final_state_hash, b.final_state_hash);
        assert_eq!(a.applied, 2);
    }
}
