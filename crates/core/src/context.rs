//! Per-block execution context: the state overlay and pending writes that
//! become the block's write batch at commit.

use crate::counters::OpCounters;
use std::collections::{BTreeSet, HashMap};

/// One undo-journal record: the written key plus the overlay entry it
/// displaced (`None` when the key was absent from the overlay).
type JournalEntry = (Vec<u8>, Option<Option<Vec<u8>>>);

/// The read and write key sets one transaction touched while journaled —
/// the raw material for conflict grouping in the parallel block executor
/// (§6.2). Keys are full storage keys (contract-prefixed); `BTreeSet`
/// keeps iteration deterministic across replicas.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RwSet {
    /// Every key the transaction read (from overlay, cache, or database).
    pub reads: BTreeSet<Vec<u8>>,
    /// Every key the transaction wrote (including deletions).
    pub writes: BTreeSet<Vec<u8>>,
}

impl RwSet {
    /// All keys the transaction touched: reads ∪ writes.
    pub fn touched(&self) -> BTreeSet<Vec<u8>> {
        self.reads.union(&self.writes).cloned().collect()
    }

    /// Soundness oracle for the static access analysis (§6.2 fast path):
    /// true when every journaled read key is admitted by a read **or**
    /// write matcher (a summary lists a read-modify-write key once, under
    /// writes) and every journaled write key by a write matcher. The
    /// parallel executor debug-asserts this for each executed transaction
    /// against its [`TxPlan`](crate::engine::TxPlan), turning an
    /// under-approximating summary into a loud deterministic failure
    /// instead of a silent wrong-state root.
    pub fn covered_by(
        &self,
        read_matchers: &[confide_vm::KeyMatcher],
        write_matchers: &[confide_vm::KeyMatcher],
    ) -> bool {
        self.writes
            .iter()
            .all(|k| write_matchers.iter().any(|m| m.matches(k)))
            && self.reads.iter().all(|k| {
                read_matchers.iter().any(|m| m.matches(k))
                    || write_matchers.iter().any(|m| m.matches(k))
            })
    }

    /// True when `self` wrote a key the `other` transaction touched, or
    /// vice versa — the two must serialize.
    pub fn conflicts_with(&self, other: &RwSet) -> bool {
        self.writes
            .iter()
            .any(|k| other.reads.contains(k) || other.writes.contains(k))
            || other.writes.iter().any(|k| self.reads.contains(k))
    }
}

/// Mutable execution state threaded through all transactions of one block.
#[derive(Default)]
pub struct ExecContext {
    /// Plaintext overlay of uncommitted writes: full storage key →
    /// Some(value) or None (deletion). Reads hit this before the database.
    pub overlay: HashMap<Vec<u8>, Option<Vec<u8>>>,
    /// SDM read cache: plaintext of values already fetched + decrypted
    /// from the database this block ("a memory cache for I/O efficiency",
    /// §3.2.1).
    pub read_cache: HashMap<Vec<u8>, Option<Vec<u8>>>,
    /// Counters for the current transaction (reset per tx).
    pub counters: OpCounters,
    /// Log lines emitted by the current transaction (reset per tx).
    pub logs: Vec<Vec<u8>>,
    /// Current call depth (re-entrancy / recursion bound).
    pub depth: usize,
    /// Undo journal for the transaction currently executing under
    /// [`ExecContext::begin_tx`]: `(key, prior overlay entry)` where the
    /// prior entry is `None` when the key was absent from the overlay.
    journal: Vec<JournalEntry>,
    /// Whether writes are currently journaled.
    journaling: bool,
    /// Read/write key sets of the journaled transaction (reset per tx).
    rw: RwSet,
}

impl ExecContext {
    /// Fresh context for a new block.
    pub fn new() -> ExecContext {
        ExecContext::default()
    }

    /// Take the counters for the finished transaction and reset them.
    pub fn take_counters(&mut self) -> OpCounters {
        std::mem::take(&mut self.counters)
    }

    /// Take the accumulated logs for the finished transaction.
    pub fn take_logs(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.logs)
    }

    /// Look up a key in overlay-then-cache. `None` = not seen this block.
    pub fn lookup(&self, key: &[u8]) -> Option<Option<&Vec<u8>>> {
        if let Some(v) = self.overlay.get(key) {
            return Some(v.as_ref());
        }
        self.read_cache.get(key).map(|v| v.as_ref())
    }

    /// Record a write (visible to subsequent reads in this block).
    pub fn write(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) {
        if self.journaling {
            self.journal
                .push((key.clone(), self.overlay.get(&key).cloned()));
            self.rw.writes.insert(key.clone());
        }
        self.overlay.insert(key, value);
    }

    /// Record that the journaled transaction read `key` (whether it hit
    /// the overlay, the cache, or the database — a miss is still a read
    /// dependency). No-op outside a journaled transaction.
    pub fn note_read(&mut self, key: &[u8]) {
        if self.journaling && !self.rw.reads.contains(key) {
            self.rw.reads.insert(key.to_vec());
        }
    }

    /// Start journaling overlay writes for one transaction so a mid-block
    /// failure can be undone without poisoning the whole batch (the
    /// parallel block executor's per-transaction journal).
    pub fn begin_tx(&mut self) {
        self.journal.clear();
        self.rw = RwSet::default();
        self.journaling = true;
    }

    /// Accept the current transaction's writes and stop journaling.
    /// Returns the transaction's read/write key sets for conflict
    /// grouping.
    pub fn commit_tx(&mut self) -> RwSet {
        self.journal.clear();
        self.journaling = false;
        std::mem::take(&mut self.rw)
    }

    /// Undo every overlay write made since [`ExecContext::begin_tx`] and
    /// discard the transaction's counters and logs. The read cache is
    /// deliberately kept: database reads are idempotent and stay valid.
    ///
    /// Still returns the read/write sets: a *failed* transaction's reads
    /// are real dependencies (it observed state before aborting), so the
    /// parallel executor must schedule it like any other.
    pub fn rollback_tx(&mut self) -> RwSet {
        while let Some((key, prior)) = self.journal.pop() {
            match prior {
                Some(entry) => {
                    self.overlay.insert(key, entry);
                }
                None => {
                    self.overlay.remove(&key);
                }
            }
        }
        self.journaling = false;
        self.counters = OpCounters::default();
        self.logs.clear();
        std::mem::take(&mut self.rw)
    }

    /// Record a database read in the cache.
    pub fn cache_read(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) {
        self.read_cache.insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_wins_over_cache() {
        let mut ctx = ExecContext::new();
        ctx.cache_read(b"k".to_vec(), Some(b"old".to_vec()));
        assert_eq!(ctx.lookup(b"k"), Some(Some(&b"old".to_vec())));
        ctx.write(b"k".to_vec(), Some(b"new".to_vec()));
        assert_eq!(ctx.lookup(b"k"), Some(Some(&b"new".to_vec())));
        ctx.write(b"k".to_vec(), None);
        assert_eq!(ctx.lookup(b"k"), Some(None));
    }

    #[test]
    fn unknown_key_is_none() {
        let ctx = ExecContext::new();
        assert_eq!(ctx.lookup(b"missing"), None);
    }

    #[test]
    fn rollback_restores_prior_overlay() {
        let mut ctx = ExecContext::new();
        ctx.write(b"a".to_vec(), Some(b"committed".to_vec()));
        ctx.begin_tx();
        ctx.write(b"a".to_vec(), Some(b"dirty".to_vec()));
        ctx.write(b"a".to_vec(), None); // second write to the same key
        ctx.write(b"b".to_vec(), Some(b"new".to_vec()));
        ctx.counters.set_storage = 3;
        ctx.logs.push(b"leak".to_vec());
        ctx.rollback_tx();
        assert_eq!(ctx.lookup(b"a"), Some(Some(&b"committed".to_vec())));
        assert_eq!(ctx.lookup(b"b"), None);
        assert_eq!(ctx.counters.set_storage, 0);
        assert!(ctx.logs.is_empty());
        // Journaling is off again: writes now stick even after rollback.
        ctx.write(b"c".to_vec(), Some(b"kept".to_vec()));
        ctx.rollback_tx();
        assert_eq!(ctx.lookup(b"c"), Some(Some(&b"kept".to_vec())));
    }

    #[test]
    fn commit_tx_keeps_writes() {
        let mut ctx = ExecContext::new();
        ctx.begin_tx();
        ctx.write(b"k".to_vec(), Some(b"v".to_vec()));
        ctx.commit_tx();
        ctx.rollback_tx(); // nothing journaled — no-op on the overlay
        assert_eq!(ctx.lookup(b"k"), Some(Some(&b"v".to_vec())));
    }

    #[test]
    fn rw_sets_track_only_while_journaled() {
        let mut ctx = ExecContext::new();
        // Outside a tx: nothing tracked.
        ctx.write(b"pre".to_vec(), Some(b"v".to_vec()));
        ctx.note_read(b"pre");

        ctx.begin_tx();
        ctx.note_read(b"r1");
        ctx.note_read(b"r1"); // duplicate reads collapse
        ctx.write(b"w1".to_vec(), Some(b"v".to_vec()));
        ctx.write(b"w1".to_vec(), None); // duplicate writes collapse
        let rw = ctx.commit_tx();
        assert_eq!(rw.reads, [b"r1".to_vec()].into_iter().collect());
        assert_eq!(rw.writes, [b"w1".to_vec()].into_iter().collect());

        // The next tx starts from empty sets; rollback returns them too.
        ctx.begin_tx();
        ctx.note_read(b"r2");
        ctx.write(b"w2".to_vec(), Some(b"v".to_vec()));
        let rw = ctx.rollback_tx();
        assert_eq!(rw.reads, [b"r2".to_vec()].into_iter().collect());
        assert_eq!(rw.writes, [b"w2".to_vec()].into_iter().collect());
        assert_eq!(ctx.lookup(b"w2"), None, "rollback undid the write");
    }

    #[test]
    fn rwset_conflict_rules() {
        let mk = |reads: &[&[u8]], writes: &[&[u8]]| RwSet {
            reads: reads.iter().map(|k| k.to_vec()).collect(),
            writes: writes.iter().map(|k| k.to_vec()).collect(),
        };
        let w = mk(&[], &[b"k"]);
        let r = mk(&[b"k"], &[]);
        let other = mk(&[b"x"], &[b"y"]);
        assert!(w.conflicts_with(&r), "write vs read conflicts");
        assert!(r.conflicts_with(&w), "symmetric");
        assert!(w.conflicts_with(&w), "write vs write conflicts");
        assert!(!r.conflicts_with(&r), "read vs read is fine");
        assert!(!w.conflicts_with(&other), "disjoint keys are fine");
        assert_eq!(r.touched(), [b"k".to_vec()].into_iter().collect());
    }

    #[test]
    fn take_counters_resets() {
        let mut ctx = ExecContext::new();
        ctx.counters.get_storage = 3;
        let c = ctx.take_counters();
        assert_eq!(c.get_storage, 3);
        assert_eq!(ctx.counters.get_storage, 0);
    }
}
