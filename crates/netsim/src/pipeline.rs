//! Pipelined wire-exchange accounting — the batching seam of the adaptive
//! executor.
//!
//! The fabric's base model charges one network round trip per remote
//! statement. Real drivers do better: libpq pipeline mode (and Citus's
//! internal task streams) coalesce consecutive statements to the *same*
//! worker into one wire exchange — requests stream out back-to-back and the
//! replies stream back, so a run of k same-worker statements costs one
//! round trip of latency, not k.
//!
//! Three layers use this module:
//!
//! * **Within a protocol step**: [`WireRound`] is every message the sender
//!   puts on the wire before it waits for a reply — a statement's tasks with
//!   the `BEGIN` that opens their remote block, all `PREPARE TRANSACTION`s
//!   of a commit, all `COMMIT PREPARED`s. The first message of a round pays
//!   the round trip; the rest ride it.
//! * **Within a statement**: [`plan_batches`] groups a statement's task
//!   targets so each worker is charged one exchange per step regardless of
//!   how many shard tasks land on it (the per-node request batch goes out as
//!   one write, results are demultiplexed in task order).
//! * **Across statements**: [`SessionPipeline`] tracks the open exchange of
//!   a session's transaction. Consecutive single-worker statements to the
//!   same node *ride* the open exchange (no new round trip); any sync point
//!   — a different target, a multi-node fan-out, a statement error, or
//!   transaction end — closes it.
//!
//! The state machine is pure accounting: it never touches sockets or
//! clocks, so the executor stays in charge of when real wire time
//! (`real_rtt_us`) is slept and the virtual clock stays deterministic. On a
//! mid-batch fault the caller calls [`SessionPipeline::sync`] and replays
//! per-statement — the fallback contract the differential suites pin.

/// Wire-exchange plan for one statement's task fan-out: targets grouped by
/// node in first-appearance order, one exchange per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    /// `(node, tasks_in_batch)` per distinct target node.
    pub per_node: Vec<(u32, usize)>,
}

impl BatchPlan {
    /// Wire exchanges this step costs (one per distinct node).
    pub fn exchanges(&self) -> usize {
        self.per_node.len()
    }

    /// Statements/tasks that piggy-backed on an already-open exchange.
    pub fn coalesced(&self) -> usize {
        self.per_node.iter().map(|(_, n)| n.saturating_sub(1)).sum()
    }
}

/// Group a statement's task targets into per-node batches, preserving
/// first-appearance order (the executor demultiplexes results in task
/// order, so the plan must be arrival-order-free).
pub fn plan_batches(targets: &[u32]) -> BatchPlan {
    let mut per_node: Vec<(u32, usize)> = Vec::new();
    for &t in targets {
        match per_node.iter_mut().find(|(n, _)| *n == t) {
            Some((_, c)) => *c += 1,
            None => per_node.push((t, 1)),
        }
    }
    BatchPlan { per_node }
}

/// One wire round: the messages a protocol step sends before it waits for
/// any reply. Real Citus writes a phase's commands to every participant's
/// socket and only then collects results, and libpq pipeline mode does the
/// same for the `BEGIN` that precedes a statement, so the step costs one
/// round trip of latency however many messages it carries. The round only
/// remembers whether that round trip was paid; the fabric asks it per
/// message *after* the message's send-side fault window, so a request that
/// never reached the wire pays nothing and opens nothing.
#[derive(Debug, Default)]
pub struct WireRound {
    open: bool,
}

impl WireRound {
    /// A round nothing has been sent in yet: its first message pays.
    pub fn new() -> WireRound {
        WireRound::default()
    }

    /// A round an earlier statement already paid for: the statement rides
    /// its transaction's open exchange ([`SessionPipeline::rides`]).
    pub fn riding() -> WireRound {
        WireRound { open: true }
    }

    /// Put one message on the wire. True when it is the round's first and
    /// so pays the round trip.
    pub fn send(&mut self) -> bool {
        !std::mem::replace(&mut self.open, true)
    }
}

/// Cross-statement pipeline state for one client session.
///
/// Tracks the node (if any) with an exchange held open by the previous
/// statement of the current transaction. The executor consults
/// [`SessionPipeline::rides`] before charging a statement's round trip and
/// reports the statement's outcome with [`SessionPipeline::note_statement`]
/// / [`SessionPipeline::sync`].
#[derive(Debug, Default)]
pub struct SessionPipeline {
    /// Node id of the parked open exchange, if any.
    open: Option<u32>,
}

impl SessionPipeline {
    /// Would a single-target statement to `node` ride the open exchange?
    pub fn rides(&self, node: u32) -> bool {
        self.open == Some(node)
    }

    /// Account one successfully executed single-target statement to `node`:
    /// the exchange to `node` is left open for the next statement.
    pub fn note_statement(&mut self, node: u32) {
        self.open = Some(node);
    }

    /// Sync point: close any open exchange. Called on transaction end, a
    /// multi-node fan-out, or a statement error (mid-batch fault fallback:
    /// the remaining statements replay per-statement, each paying its own
    /// round trip).
    pub fn sync(&mut self) {
        self.open = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_group_by_node_in_first_appearance_order() {
        let b = plan_batches(&[2, 1, 2, 2, 3, 1]);
        assert_eq!(b.per_node, vec![(2, 3), (1, 2), (3, 1)]);
        assert_eq!(b.exchanges(), 3);
        assert_eq!(b.coalesced(), 3);
    }

    #[test]
    fn empty_batch_plan_costs_nothing() {
        let b = plan_batches(&[]);
        assert_eq!(b.exchanges(), 0);
        assert_eq!(b.coalesced(), 0);
    }

    #[test]
    fn only_the_first_message_of_a_round_pays() {
        let mut r = WireRound::new();
        assert!(r.send());
        assert!(!r.send());
        assert!(!r.send());
        let mut riding = WireRound::riding();
        assert!(!riding.send(), "the open exchange already paid");
    }

    #[test]
    fn consecutive_same_node_statements_ride_one_exchange() {
        let mut p = SessionPipeline::default();
        assert!(!p.rides(1), "nothing open yet");
        p.note_statement(1);
        assert!(p.rides(1), "the first statement opens the exchange");
        p.note_statement(1);
        assert!(p.rides(1));
    }

    #[test]
    fn changing_target_opens_a_new_exchange() {
        let mut p = SessionPipeline::default();
        p.note_statement(1);
        p.note_statement(2);
        assert!(!p.rides(1), "different node: new exchange");
        assert!(p.rides(2));
        p.note_statement(1);
        assert!(!p.rides(2), "switching back is another exchange");
    }

    #[test]
    fn sync_closes_the_open_exchange() {
        let mut p = SessionPipeline::default();
        p.note_statement(1);
        p.sync();
        assert!(!p.rides(1), "after a sync the next statement pays again");
    }
}
