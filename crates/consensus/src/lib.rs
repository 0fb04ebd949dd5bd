//! Wire-level PBFT replication for the CONFIDE consortium (§2.2, Fig. 11).
//!
//! The one ordering core of the system. It is deliberately
//! transport-agnostic: [`Replica`] is a pure state machine that consumes
//! [`PeerMsg`]s and emits [`Action`]s. The networking layer (`crates/net`)
//! owns sockets, attestation, and execution on the wire; the
//! discrete-event simulator in `crates/chain` drives the same replicas on
//! a simulated clock for the figures. That split keeps every consensus
//! rule unit-testable with an in-memory bus, and keeps the enclave
//! boundary where the paper puts it:
//! consensus orders ciphertext envelopes *outside* the TEE, attested
//! enclaves execute and seal.
//!
//! ## Fault model
//!
//! Peers exchange consensus traffic only after mutually attesting via the
//! K-Protocol join path, so every participant is known to run the sanctioned
//! enclave build. Attestation narrows but does not eliminate Byzantine
//! behaviour — a member with a compromised host can still replay, reorder,
//! suppress, or (via a rollback attack on sealed state) equivocate — so the
//! protocol authenticates every message: each [`PeerMsg`] travels inside a
//! [`SignedPeerMsg`] envelope signed with a key derived from the member's
//! enclave identity, `Commit` decisions assemble transferable 2f+1
//! [`QuorumCert`]s, and conflicting signed statements for one slot become
//! durable [`Evidence`] that blacklists the offender and, if it leads,
//! forces a view change. The quorum arithmetic keeps PBFT's 2f+1-of-3f+1
//! shape, which tolerates f actively malicious members alongside the crash,
//! restart, partition, and loss/reordering faults handled before. See
//! DESIGN.md §17 for the full fault matrix.
//!
//! Under that model the replica executes and persists a block once it is
//! *prepared* (2f+1 matching `Prepare`s), then broadcasts `Commit`; the
//! `Commit` quorum is what releases client acknowledgements. A view change
//! carries each replica's full uncommitted suffix — including merely
//! pre-prepared entries — so any block a crashed leader got executed
//! anywhere is always re-proposed verbatim in the new view (see
//! DESIGN.md §14 for the intersection argument).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod evidence;
pub mod msg;
pub mod replica;

pub use cert::{sign_vote, vote_bytes, CertError, Keyring, QuorumCert};
pub use evidence::{Evidence, EvidenceError};
pub use msg::{block_digest, AuthError, MsgError, PeerMsg, SignedPeerMsg, SuffixEntry};
pub use replica::{Action, HandleError, ProposeError, Replica, ReplicaConfig};

/// PBFT quorum size for `n` replicas: `2f + 1` with `f = (n - 1) / 3`.
pub fn quorum(n: usize) -> usize {
    let f = n.saturating_sub(1) / 3;
    2 * f + 1
}

/// Primary (leader) of a view under round-robin rotation.
pub fn primary_of(view: u64, n: usize) -> u32 {
    debug_assert!(n > 0);
    (view % n as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_matches_pbft_arithmetic() {
        assert_eq!(quorum(1), 1);
        assert_eq!(quorum(4), 3); // f = 1
        assert_eq!(quorum(7), 5); // f = 2
        assert_eq!(quorum(10), 7); // f = 3
        assert_eq!(quorum(16), 11); // f = 5
    }

    #[test]
    fn primary_rotates_round_robin() {
        assert_eq!(primary_of(0, 4), 0);
        assert_eq!(primary_of(1, 4), 1);
        assert_eq!(primary_of(5, 4), 1);
        assert_eq!(primary_of(u64::from(u32::MAX) + 1, 4), 0);
    }
}
