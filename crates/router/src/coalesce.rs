//! Update-batch coalescing.
//!
//! The update plane ingests a raw BGP-like stream but applies it to the
//! compressed table in batches. Within one batch, only the *last*
//! operation per prefix can influence the final table state — a
//! re-announcement overwrites the previous one, a withdrawal erases
//! whatever was announced before it. Coalescing exploits this:
//!
//! * **last-op-wins** — for every prefix touched by the batch, keep only
//!   its final operation (in first-touched order, for determinism);
//! * **cancellation** — if the surviving operation is a withdrawal of a
//!   prefix that was *absent* before the batch (the classic
//!   announce-then-withdraw flap), the pair annihilates: applying
//!   nothing leaves the table exactly as applying both would;
//! * **no-op elision** — if the surviving operation announces exactly
//!   the next hop the prefix already has, it is dropped too.
//!
//! The equivalence `apply(coalesce(batch)) == apply(batch)` on the final
//! table state is the correctness contract of this module; it is proven
//! by construction below and property-tested against arbitrary
//! announce/withdraw interleavings in `tests/coalesce_prop.rs`.

use std::collections::HashMap;

use clue_fib::{NextHop, Prefix, RouteTable, Update};

/// The result of coalescing one raw batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalescedBatch {
    /// Surviving operations, in first-touched prefix order.
    pub ops: Vec<Update>,
    /// Raw operations that went in.
    pub raw: usize,
    /// Operations absorbed by a later operation on the same prefix.
    pub superseded: usize,
    /// Announce-then-withdraw pairs that annihilated entirely.
    pub cancelled: usize,
    /// Surviving announcements elided because they changed nothing.
    pub elided: usize,
}

impl CoalescedBatch {
    /// Fraction of raw operations that never reach the pipeline
    /// (`0.0` when the batch was empty).
    #[must_use]
    pub fn coalesce_ratio(&self) -> f64 {
        if self.raw == 0 {
            0.0
        } else {
            1.0 - self.ops.len() as f64 / self.raw as f64
        }
    }

    /// Raw operations that never reached the pipeline.
    #[must_use]
    pub fn absorbed(&self) -> usize {
        self.raw - self.ops.len()
    }
}

/// Coalesces `batch` against the table state `pre` that held before the
/// batch: [`coalesce_with`] reading `pre`.
#[must_use]
pub fn coalesce(batch: &[Update], pre: &RouteTable) -> CoalescedBatch {
    coalesce_with(batch, |p| pre.get(p))
}

/// Coalesces `batch` against the table state that held before the
/// batch, read through `pre`: the next hop the *original* routing table
/// stored for exactly that prefix (the update plane reads its
/// pipeline's original trie).
///
/// Correctness argument, per prefix `p` (operations on distinct
/// prefixes commute on the final table state, so prefixes can be
/// considered independently):
///
/// * sequential application leaves `p` in the state dictated solely by
///   its **last** operation — present with that next hop after an
///   announce, absent after a withdraw;
/// * keeping only that last operation therefore reaches the same state;
/// * dropping it entirely is additionally sound exactly when the state
///   it dictates equals `pre`'s state for `p`: a withdraw of a
///   `pre`-absent prefix (absent → absent) or an announce of the
///   next hop `p` already maps to (unchanged → unchanged).
#[must_use]
pub fn coalesce_with(batch: &[Update], pre: impl Fn(Prefix) -> Option<NextHop>) -> CoalescedBatch {
    // Last operation per prefix, remembering first-touch order.
    let mut order: Vec<Prefix> = Vec::new();
    let mut last: HashMap<Prefix, Update> = HashMap::with_capacity(batch.len());
    for &u in batch {
        if last.insert(u.prefix(), u).is_none() {
            order.push(u.prefix());
        }
    }
    let superseded = batch.len() - order.len();

    let mut ops = Vec::with_capacity(order.len());
    let mut cancelled = 0;
    let mut elided = 0;
    for p in order {
        let u = last[&p];
        match u {
            Update::Withdraw { prefix } => {
                if pre(prefix).is_some() {
                    ops.push(u);
                } else {
                    cancelled += 1;
                }
            }
            Update::Announce { prefix, next_hop } => {
                if pre(prefix) == Some(next_hop) {
                    elided += 1;
                } else {
                    ops.push(u);
                }
            }
        }
    }
    CoalescedBatch {
        ops,
        raw: batch.len(),
        superseded,
        cancelled,
        elided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn announce(s: &str, nh: u16) -> Update {
        Update::Announce {
            prefix: p(s),
            next_hop: NextHop(nh),
        }
    }

    fn withdraw(s: &str) -> Update {
        Update::Withdraw { prefix: p(s) }
    }

    #[test]
    fn last_op_per_prefix_wins() {
        let pre = RouteTable::new();
        let batch = [
            announce("10.0.0.0/8", 1),
            announce("10.0.0.0/8", 2),
            announce("10.0.0.0/8", 3),
        ];
        let c = coalesce(&batch, &pre);
        assert_eq!(c.ops, vec![announce("10.0.0.0/8", 3)]);
        assert_eq!(c.superseded, 2);
        assert_eq!(c.absorbed(), 2);
    }

    #[test]
    fn announce_then_withdraw_cancels() {
        let pre = RouteTable::new();
        let batch = [announce("10.0.0.0/8", 1), withdraw("10.0.0.0/8")];
        let c = coalesce(&batch, &pre);
        assert!(c.ops.is_empty());
        assert_eq!(c.cancelled, 1);
        assert_eq!((c.coalesce_ratio() * 100.0) as u32, 100);
    }

    #[test]
    fn withdraw_of_present_prefix_survives() {
        let mut pre = RouteTable::new();
        pre.insert(p("10.0.0.0/8"), NextHop(7));
        let batch = [announce("10.0.0.0/8", 1), withdraw("10.0.0.0/8")];
        let c = coalesce(&batch, &pre);
        assert_eq!(c.ops, vec![withdraw("10.0.0.0/8")]);
    }

    #[test]
    fn noop_announce_is_elided() {
        let mut pre = RouteTable::new();
        pre.insert(p("10.0.0.0/8"), NextHop(7));
        let batch = [announce("10.0.0.0/8", 1), announce("10.0.0.0/8", 7)];
        let c = coalesce(&batch, &pre);
        assert!(c.ops.is_empty());
        assert_eq!(c.elided, 1);
        assert_eq!(c.superseded, 1);
    }

    #[test]
    fn distinct_prefixes_keep_first_touched_order() {
        let pre = RouteTable::new();
        let batch = [
            announce("30.0.0.0/8", 1),
            announce("10.0.0.0/8", 2),
            announce("30.0.0.0/8", 3),
            announce("20.0.0.0/8", 4),
        ];
        let c = coalesce(&batch, &pre);
        assert_eq!(
            c.ops,
            vec![
                announce("30.0.0.0/8", 3),
                announce("10.0.0.0/8", 2),
                announce("20.0.0.0/8", 4),
            ]
        );
    }

    #[test]
    fn empty_batch_is_trivial() {
        let c = coalesce(&[], &RouteTable::new());
        assert!(c.ops.is_empty());
        assert_eq!(c.raw, 0);
        assert_eq!(c.coalesce_ratio(), 0.0);
    }

    #[test]
    fn coalesced_equals_sequential_on_a_hand_case() {
        let mut pre = RouteTable::new();
        pre.insert(p("10.0.0.0/8"), NextHop(1));
        pre.insert(p("20.0.0.0/8"), NextHop(2));
        let batch = [
            withdraw("10.0.0.0/8"),
            announce("10.0.0.0/8", 9),
            announce("30.0.0.0/8", 3),
            withdraw("30.0.0.0/8"),
            announce("20.0.0.0/8", 2), // no-op
            withdraw("40.0.0.0/8"),    // absent
        ];
        let mut seq = pre.clone();
        for &u in &batch {
            seq.apply(u);
        }
        let mut coal = pre.clone();
        for &u in &coalesce(&batch, &pre).ops {
            coal.apply(u);
        }
        let a: Vec<_> = seq.iter().collect();
        let b: Vec<_> = coal.iter().collect();
        assert_eq!(a, b);
    }
}
