//! The update-plane durability seam: a write-ahead hook the update
//! thread drives *before* each coalesced batch is applied, plus the
//! state bundle a persistence layer hands back to boot a recovered
//! service.
//!
//! `clue-router` defines only the trait; the disk format lives in
//! `clue-store`, which implements [`UpdateJournal`] over a segmented
//! CRC-framed log and epoch-boundary snapshots. Keeping the trait here
//! (and the crate dependency pointing store → router) means the router
//! stays free of any I/O policy, and tests can substitute in-memory or
//! fault-injecting journals.
//!
//! ## Ordering contract
//!
//! For every batch the update thread: coalesces, calls
//! [`UpdateJournal::append`], and only then applies the ops and
//! publishes the epoch. A successful append advances the service's
//! *journaled sequence high-water*, which
//! [`RouterService::wait_journaled`](crate::RouterService::wait_journaled)
//! exposes so a network frontend can hold a batch's acknowledgement
//! until the batch is durable (ack ⇒ journaled). An append error keeps
//! the high-water where it was — the router still applies the batch
//! (serving stale-but-live beats halting the data plane) but the
//! frontend will refuse to ack it.

use std::io;

use clue_compress::CompressedFib;
use clue_fib::{NextHop, Route, RouteTable, Trie, Update};

/// One coalesced batch as handed to the journal, *before* it is applied.
pub struct JournalBatch<'a> {
    /// The epoch current when the batch was accepted (the batch itself
    /// publishes the next epoch if it changes the table).
    pub epoch: u64,
    /// Highest ingress sequence tag drained into this batch (0 when the
    /// submitter did not tag).
    pub seq_hw: u64,
    /// Raw (pre-coalescing) updates the batch absorbs.
    pub raw: u32,
    /// The coalesced ops, in application order.
    pub ops: &'a [Update],
}

/// A consistent view of the update plane at a checkpoint boundary —
/// everything a snapshot writer needs, borrowed from the update thread
/// between batches. Building one copies nothing: a writer iterates the
/// tries themselves, each in [`RouteTable`] order.
pub struct CheckpointView<'a> {
    /// Last published epoch number.
    pub epoch: u64,
    /// Journaled sequence high-water at this boundary.
    pub seq_hw: u64,
    /// The original trie and its ONRTC-compressed twin, as the update
    /// thread holds them.
    pub fib: &'a CompressedFib,
    /// The partition cut points in force.
    pub cuts: &'a [u32],
}

/// A table's original trie and its ONRTC cover
/// ([`onrtc_routes`](clue_compress::onrtc_routes) of that trie, sorted
/// by address): what a [`RouterService`](crate::RouterService) boots
/// from.
pub type BootBase = (Trie<NextHop>, Vec<Route>);

/// What a persistence layer recovered from disk, ready to boot a
/// [`RouterService`](crate::RouterService) via
/// [`start_recovered`](crate::RouterService::start_recovered).
#[derive(Debug, Clone)]
pub struct RecoveredState {
    /// The recovered original route table.
    pub table: RouteTable,
    /// Epoch numbering resumes after this value.
    pub epoch: u64,
    /// The journaled sequence high-water; a network frontend advertises
    /// it so clients resume from the right place.
    pub seq_hw: u64,
    /// `table`'s boot base, when the persistence layer already built it
    /// (validating a snapshot builds both); `None` makes
    /// `start_recovered` build it from `table`.
    pub base: Option<BootBase>,
}

/// A write-ahead journal driven by the update thread.
///
/// Implementations must be cheap on [`append`](Self::append) — it sits
/// on the update hot path, ahead of every batch apply.
pub trait UpdateJournal: Send {
    /// Journals one coalesced batch before it is applied.
    ///
    /// # Errors
    ///
    /// An error is counted (`journal.errors` in the stats snapshot) and
    /// leaves the journaled high-water unchanged; the batch is still
    /// applied.
    fn append(&mut self, batch: &JournalBatch<'_>) -> io::Result<()>;

    /// Whether the journal wants a checkpoint at the next batch
    /// boundary (e.g. enough appends have accumulated).
    fn wants_checkpoint(&self) -> bool {
        false
    }

    /// Writes a snapshot of `view` and typically prunes the journal
    /// tail it supersedes.
    ///
    /// # Errors
    ///
    /// Counted like an append error; the service keeps running.
    fn checkpoint(&mut self, view: &CheckpointView<'_>) -> io::Result<()> {
        let _ = view;
        Ok(())
    }

    /// Called once when the service drains. The default takes a final
    /// checkpoint so a clean shutdown restarts with an empty replay
    /// tail; crash-fault harnesses override this with a no-op to leave
    /// the tail in place.
    ///
    /// # Errors
    ///
    /// Counted like an append error.
    fn on_drain(&mut self, view: &CheckpointView<'_>) -> io::Result<()> {
        self.checkpoint(view)
    }
}
