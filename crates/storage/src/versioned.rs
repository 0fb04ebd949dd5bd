//! Versioned state with rollback detection.
//!
//! §3.3: a malicious host can "roll back the data in local database to
//! replace the new data with the stale ones". The enclave defends by
//! tracking the expected state version/root; this module is the storage
//! side of that defence — per-block batches bump a monotonic version, the
//! root of a crit-bit Merkle trie (the crate's `trie` module) commits the
//! full state, and [`StateDb::verify_version`] detects both stale roots and
//! height mismatches.
//!
//! The trie is kept beside the KV and updated with every write, so a block
//! rehashes only the paths it wrote. [`StateDb::verify_version`] does not
//! trust that cache: it rebuilds the trie from the raw KV.

use crate::kv::{KvStore, MemKv, WriteBatch};
use crate::merkle::{empty_root, leaf_hash, MerkleProof};
use crate::trie::StateTrie;

/// State-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// Applied batch for a height other than `current + 1`.
    BadHeight {
        /// What the caller tried to apply.
        got: u64,
        /// What the database expected.
        expected: u64,
    },
    /// Version check failed: database state does not match the claimed
    /// (height, root) — the §3.3 rollback attack, detected.
    RollbackDetected {
        /// Height claimed by the verifier.
        height: u64,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::BadHeight { got, expected } => {
                write!(f, "batch for height {got}, expected {expected}")
            }
            StateError::RollbackDetected { height } => {
                write!(f, "state does not match committed root at height {height}")
            }
        }
    }
}

impl std::error::Error for StateError {}

/// Versioned contract-state database.
pub struct StateDb {
    kv: MemKv,
    /// The commitment over `kv`, updated write by write.
    trie: StateTrie,
    height: u64,
    /// State root after block `height` (the empty root at genesis).
    root: [u8; 32],
}

impl Default for StateDb {
    fn default() -> Self {
        Self::new()
    }
}

impl StateDb {
    /// Empty state at height 0.
    pub fn new() -> StateDb {
        StateDb {
            kv: MemKv::new(),
            trie: StateTrie::default(),
            height: 0,
            root: empty_root(),
        }
    }

    /// Current block height.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Read access to the underlying KV.
    pub fn kv(&self) -> &MemKv {
        &self.kv
    }

    /// Point read.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.kv.get(key)
    }

    /// Prefix scan.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.kv.scan_prefix(prefix)
    }

    /// Current state root.
    pub fn root(&self) -> [u8; 32] {
        self.root
    }

    /// Apply block `height`'s write batch; returns the new root. Each op
    /// goes to the KV and to the trie, so only the written paths rehash.
    /// A batch larger than the state (a genesis preload) instead rebuilds
    /// the trie from the sorted KV, hashing each node once; the trie's
    /// shape depends only on the key set, so the root is the same.
    pub fn apply_block(&mut self, height: u64, batch: &WriteBatch) -> Result<[u8; 32], StateError> {
        if height != self.height + 1 {
            return Err(StateError::BadHeight {
                got: height,
                expected: self.height + 1,
            });
        }
        if batch.len() > self.kv.len() {
            self.kv.apply(batch);
            self.trie = StateTrie::from_sorted(self.kv.iter().map(|(k, v)| (&k[..], &v[..])));
        } else {
            for (key, value) in &batch.ops {
                self.write(key, value.as_deref());
            }
        }
        self.height = height;
        self.root = self.trie.root();
        Ok(self.root)
    }

    /// One write to the KV and the trie.
    fn write(&mut self, key: &[u8], value: Option<&[u8]>) {
        match value {
            Some(value) => {
                let leaf = leaf_hash(key, value);
                if self.kv.contains(key) {
                    self.trie.update(key, leaf);
                } else {
                    let (pred, succ) = self.kv.neighbours(key);
                    self.trie.insert(key, pred, succ, leaf);
                }
                self.kv.put(key, value);
            }
            None if self.kv.contains(key) => {
                self.trie.remove(key);
                self.kv.delete(key);
            }
            None => {}
        }
    }

    /// Recompute the root from the raw KV on a fresh trie and compare it
    /// with the root committed for `height` — detects a host that rolled
    /// the database back (or edited it) underneath the enclave. The cached
    /// trie is never trusted here.
    pub fn verify_version(&self, height: u64) -> Result<(), StateError> {
        if height != self.height {
            return Err(StateError::RollbackDetected { height });
        }
        let pairs = self.kv.iter().map(|(k, v)| (&k[..], &v[..]));
        if StateTrie::from_sorted(pairs).root() != self.root {
            return Err(StateError::RollbackDetected { height });
        }
        Ok(())
    }

    /// Produce a Merkle inclusion proof for `key` against the current
    /// root — the backing for §3.3's "consensus read (e.g. SPV)": a client
    /// fetches the value + proof from one node and checks the root against
    /// a quorum of other nodes' headers. Walks the cached trie, so it costs
    /// O(depth).
    pub fn prove(&self, key: &[u8]) -> Option<(Vec<u8>, MerkleProof)> {
        let value = self.kv.get(key)?;
        Some((value, self.trie.prove(key)?))
    }

    /// TEST/ATTACK HELPER: mutate the raw KV *without* version accounting,
    /// as a malicious host with direct database access would.
    pub fn tamper_raw(&mut self, key: &[u8], value: Option<&[u8]>) {
        match value {
            Some(v) => self.kv.put(key, v),
            None => self.kv.delete(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(kvs: &[(&str, &str)]) -> WriteBatch {
        let mut b = WriteBatch::new();
        for (k, v) in kvs {
            b.put(k.as_bytes().to_vec(), v.as_bytes().to_vec());
        }
        b
    }

    #[test]
    fn apply_blocks_in_sequence() {
        let mut db = StateDb::new();
        let r1 = db.apply_block(1, &batch(&[("a", "1")])).unwrap();
        let r2 = db.apply_block(2, &batch(&[("b", "2")])).unwrap();
        assert_ne!(r1, r2);
        assert_eq!(db.height(), 2);
        assert_eq!(db.root(), r2);
        db.verify_version(2).unwrap();
    }

    #[test]
    fn out_of_order_block_rejected() {
        let mut db = StateDb::new();
        assert_eq!(
            db.apply_block(2, &batch(&[("a", "1")])).unwrap_err(),
            StateError::BadHeight {
                got: 2,
                expected: 1
            }
        );
    }

    #[test]
    fn same_batches_same_roots_on_two_replicas() {
        let mut a = StateDb::new();
        let mut b = StateDb::new();
        for h in 1..=5u64 {
            let wb = batch(&[(&format!("k{h}"), &format!("v{h}"))]);
            let ra = a.apply_block(h, &wb).unwrap();
            let rb = b.apply_block(h, &wb).unwrap();
            assert_eq!(ra, rb, "replicas must agree at height {h}");
        }
    }

    #[test]
    fn rollback_attack_detected() {
        let mut db = StateDb::new();
        db.apply_block(1, &batch(&[("balance", "100")])).unwrap();
        db.apply_block(2, &batch(&[("balance", "50")])).unwrap();
        db.verify_version(2).unwrap();
        // Malicious host restores the stale value directly in the KV.
        db.tamper_raw(b"balance", Some(b"100"));
        assert_eq!(
            db.verify_version(2).unwrap_err(),
            StateError::RollbackDetected { height: 2 }
        );
    }

    #[test]
    fn deletion_attack_detected() {
        let mut db = StateDb::new();
        db.apply_block(1, &batch(&[("audit", "entry")])).unwrap();
        db.tamper_raw(b"audit", None);
        assert!(db.verify_version(1).is_err());
    }

    #[test]
    fn stale_height_claim_detected() {
        let mut db = StateDb::new();
        db.apply_block(1, &batch(&[("a", "1")])).unwrap();
        db.apply_block(2, &batch(&[("a", "2")])).unwrap();
        // Claiming the chain is still at height 1 (a frozen replica).
        assert!(db.verify_version(1).is_err());
        assert!(db.verify_version(99).is_err());
    }
}
