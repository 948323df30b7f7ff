//! Server-side time synchronization (paper Sec. 3.2, "Time Synchronization").
//!
//! Monitoring agents stamp events with their local clocks, which drift. The
//! paper corrects drift with NTP at the client plus a server-side check. We
//! model the server side: each agent periodically reports a sample pair
//! (agent clock, server clock); the synchronizer estimates a per-agent offset
//! as the mean of `server - agent` over the samples and shifts that agent's
//! event timestamps accordingly on ingestion.

use aiql_model::{AgentId, Dataset, Duration};
use std::collections::HashMap;

/// One clock sample: what the agent's clock and the server's clock read at
/// the same instant.
#[derive(Debug, Clone, Copy)]
pub struct ClockSample {
    pub agent_time: i64,
    pub server_time: i64,
}

/// Running mean of one agent's `server - agent` clock differences.
///
/// Samples are folded into a `(sum, count)` pair as they arrive, so
/// [`Synchronizer::offset`] is O(1) and memory stays O(agents) no matter
/// how long an ingestion pipeline keeps reporting samples.
#[derive(Debug, Default, Clone, Copy)]
struct OffsetEstimate {
    sum_diff: i64,
    count: i64,
}

/// Per-agent clock-offset estimator and corrector.
#[derive(Debug, Default, Clone)]
pub struct Synchronizer {
    estimates: HashMap<AgentId, OffsetEstimate>,
}

impl Synchronizer {
    /// Creates a synchronizer with no samples (all offsets zero).
    pub fn new() -> Synchronizer {
        Synchronizer::default()
    }

    /// Records a clock sample for `agent`.
    pub fn record(&mut self, agent: AgentId, sample: ClockSample) {
        let e = self.estimates.entry(agent).or_default();
        e.sum_diff += sample.server_time - sample.agent_time;
        e.count += 1;
    }

    /// Installs a previously exported estimate (recovery path: the durable
    /// store checkpoints `(sum, count)` pairs into the write-ahead log so
    /// truncation does not forget pre-checkpoint clock samples).
    ///
    /// The seed **replaces** whatever was folded for the agent so far: a
    /// SyncState record is only ever written after every earlier clock
    /// record in the log is already folded into it, so replaying a seed on
    /// top of those records must reset, not add — adding would double the
    /// weight of history, under-weighting every future sample, and a
    /// crash that leaves two seeds in the log would skew the mean itself.
    pub fn restore(&mut self, agent: AgentId, sum_diff: i64, count: i64) {
        self.estimates
            .insert(agent, OffsetEstimate { sum_diff, count });
    }

    /// Exports the per-agent estimates as `(agent, sum of diffs, sample
    /// count)` triples, sorted by agent for deterministic persistence.
    pub fn state(&self) -> Vec<(AgentId, i64, i64)> {
        let mut v: Vec<(AgentId, i64, i64)> = self
            .estimates
            .iter()
            .map(|(a, e)| (*a, e.sum_diff, e.count))
            .collect();
        v.sort_by_key(|(a, ..)| *a);
        v
    }

    /// The estimated offset to *add* to an agent's timestamps (mean of
    /// `server_time - agent_time`); zero for agents with no samples.
    pub fn offset(&self, agent: AgentId) -> Duration {
        match self.estimates.get(&agent) {
            None => Duration::ZERO,
            Some(e) if e.count == 0 => Duration::ZERO,
            Some(e) => Duration(e.sum_diff / e.count),
        }
    }

    /// Corrects every event's start/end time in place and re-sorts the
    /// dataset into server-time order.
    pub fn apply(&self, data: &mut Dataset) {
        for e in &mut data.events {
            let off = self.offset(e.agent);
            e.start = e.start.saturating_add(off);
            e.end = e.end.saturating_add(off);
        }
        data.sort_events();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::{Entity, EntityKind, Event, OpType, Timestamp};

    fn event(agent: u32, id: u64, t: i64) -> Event {
        Event::new(
            id.into(),
            AgentId(agent),
            1.into(),
            OpType::Read,
            2.into(),
            EntityKind::File,
            Timestamp(t),
        )
    }

    #[test]
    fn offset_is_mean_of_samples() {
        let mut s = Synchronizer::new();
        let a = AgentId(1);
        s.record(
            a,
            ClockSample {
                agent_time: 100,
                server_time: 150,
            },
        );
        s.record(
            a,
            ClockSample {
                agent_time: 200,
                server_time: 230,
            },
        );
        assert_eq!(s.offset(a), Duration(40));
        assert_eq!(s.offset(AgentId(9)), Duration::ZERO);
    }

    #[test]
    fn replaying_samples_and_their_folded_state_restores_exactly() {
        // The checkpoint crash-window guarantee rests on this: a SyncState
        // seed is written only after every earlier clock record in the log
        // is folded into it, so recovery that replays the original samples
        // *and then* the seed must end up with exactly the seed's state —
        // same mean, same sample count (no doubled weight of history).
        let a = AgentId(1);
        let mut s = Synchronizer::new();
        for (at, st) in [(100, 150), (200, 230), (0, 10)] {
            s.record(
                a,
                ClockSample {
                    agent_time: at,
                    server_time: st,
                },
            );
        }
        let offset = s.offset(a);
        let state = s.state();
        assert_eq!(state.len(), 1);
        let (agent, sum, count) = state[0];
        s.restore(agent, sum, count);
        assert_eq!(s.offset(a), offset, "seed replaces, mean unchanged");
        assert_eq!(s.state(), state, "no doubled sample weight");
        // Two seeds in the log (a crash between the new seed's fsync and
        // the old segment's pruning): the newer one simply wins.
        s.restore(agent, sum, count);
        assert_eq!(s.state(), state);
        // And a fresh synchronizer seeded from the state alone agrees too.
        let mut fresh = Synchronizer::new();
        fresh.restore(agent, sum, count);
        assert_eq!(fresh.offset(a), offset);
    }

    #[test]
    fn apply_restores_cross_host_order() {
        // Agent 1's clock runs 1000 ns behind the server; agent 2 is exact.
        // Physically: event A (agent 1) at server time 1500, event B
        // (agent 2) at server time 1400 — but agent 1 stamps A as 500,
        // making A appear (wrongly) first.
        let mut data = Dataset::new();
        data.add_entity(Entity::process(1.into(), AgentId(1), "p", 1));
        data.add_entity(Entity::file(2.into(), AgentId(1), "f"));
        data.add_event(event(1, 1, 500));
        data.add_event(event(2, 2, 1400));
        data.sort_events();
        assert_eq!(data.events[0].id.0, 1, "uncorrected order is wrong");

        let mut s = Synchronizer::new();
        s.record(
            AgentId(1),
            ClockSample {
                agent_time: 0,
                server_time: 1000,
            },
        );
        s.apply(&mut data);
        assert_eq!(data.events[0].id.0, 2, "corrected order is right");
        assert_eq!(data.events[1].start, Timestamp(1500));
    }

    #[test]
    fn apply_without_samples_is_identity_modulo_sort() {
        let mut data = Dataset::new();
        data.add_event(event(1, 1, 300));
        data.add_event(event(1, 2, 100));
        Synchronizer::new().apply(&mut data);
        assert_eq!(data.events[0].start, Timestamp(100));
        assert_eq!(data.events[1].start, Timestamp(300));
    }
}
