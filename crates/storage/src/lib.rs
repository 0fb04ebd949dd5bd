//! # confide-storage
//!
//! The blockchain storage substrate: CONFIDE is "loosely coupled" with its
//! platform precisely so that "users can even choose their own KV storage"
//! (§2.4); this crate is the KV store + block store the rest of the
//! workspace plugs into.
//!
//! * [`kv`] — the ordered KV abstraction (the "choose your own KV store"
//!   modularity seam of §2.4), an in-memory implementation, and write
//!   batches.
//! * [`merkle`] — domain-separated leaf and node hashing, inclusion proofs,
//!   and the binary Merkle tree over a block's transaction hashes.
//! * `trie` (private) — the incrementally hashed crit-bit Merkle trie over
//!   the raw state keys; its root is the state commitment consensus agrees
//!   on, and its proofs back the "consensus read (e.g. SPV)" escape hatch
//!   of §3.3.
//! * [`versioned`] — versioned state: apply per-block batches, keep the
//!   state root current at O(writes · depth) per block, and *detect
//!   rollbacks* — the stale-state attack a malicious host can mount on a
//!   TEE (§3.3).
//! * [`blockstore`] — hash-linked block storage with header validation.
//! * [`wal`] — the block-framed write-ahead log: one CRC'd record group
//!   per committed block, terminated by a commit marker, so a torn tail
//!   rolls back to the last *complete block* (the node's durable-commit
//!   seam).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockstore;
pub mod kv;
pub mod merkle;
mod trie;
pub mod versioned;
pub mod wal;
pub mod walfile;

pub use blockstore::{Block, BlockHeader, BlockStore, BlockStoreError};
pub use kv::{KvStore, MemKv, WriteBatch};
pub use merkle::{MerkleProof, MerkleTree};
pub use versioned::{StateDb, StateError};
pub use wal::{BlockWal, CertLog, CertRecovery, WalBlock, WalRecovery};
pub use walfile::{GroupCommitStats, WalFile, GROUP_BUCKETS};
