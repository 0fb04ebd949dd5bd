//! Seeded inputs, all sealed and framed before any clock starts.
//!
//! The seed derives the sender identities, the preloaded accounts and
//! their balances, every recipient pick and every amount. Senders are
//! split between the two client connections so each sender's nonces
//! arrive in order on one connection.

use crate::spec::{Rng, Spec};
use confide_core::seal_signed_tx;
use confide_core::tx::{RawTx, SignedTx, WireTx};
use confide_crypto::{HmacDrbg, SigningKey};
use confide_net::demo::{DEMO_CONTRACT, DEMO_PUBLIC_CONTRACT};
use confide_net::Message;

/// One request ready for the wire, plus what its receipt is checked against.
pub struct Prepared {
    pub frame: Vec<u8>,
    pub tx_hash: [u8; 32],
    /// The one-time receipt key (confidential transactions only).
    pub k_tx: Option<[u8; 32]>,
}

/// Every input of one run.
pub struct Inputs {
    /// Preloaded public accounts as `(name, balance)` (`pub_100k` only).
    pub accounts: Vec<(String, u64)>,
    /// Saturation-phase requests per connection.
    pub sat: [Vec<Prepared>; 2],
    /// Rate-phase requests per connection; request `j` of connection `c`
    /// is due at `(2j + c) / rate_tps` seconds after the phase starts.
    pub rate: [Vec<Prepared>; 2],
}

struct Sender {
    key: SigningKey,
    address: [u8; 32],
    root_key: [u8; 32],
    nonce: u64,
}

fn sender(rng: &mut Rng) -> Sender {
    let key = SigningKey::from_seed(&rng.bytes32());
    let address = key.verifying_key().0;
    Sender {
        key,
        address,
        root_key: rng.bytes32(),
        nonce: 0,
    }
}

fn prepare(
    s: &mut Sender,
    spec: &Spec,
    to: &str,
    amount: u64,
    pk_tx: &[u8; 32],
    drbg: &mut HmacDrbg,
) -> Prepared {
    s.nonce += 1;
    let raw = RawTx {
        sender: s.address,
        contract: if spec.confidential {
            DEMO_CONTRACT
        } else {
            DEMO_PUBLIC_CONTRACT
        },
        method: "main".into(),
        args: format!(r#"{{"to":"{to}","amount":{amount}}}"#).into_bytes(),
        nonce: s.nonce,
    };
    let signed = SignedTx::sign(raw, &s.key);
    let (wire, tx_hash, k_tx) = if spec.confidential {
        let (wire, tx_hash, k_tx) =
            seal_signed_tx(&signed, &s.root_key, pk_tx, drbg).expect("sealing to pk_tx");
        (wire, tx_hash, Some(k_tx))
    } else {
        let tx_hash = signed.raw.hash();
        (WireTx::Public(signed), tx_hash, None)
    };
    Prepared {
        frame: Message::SubmitTxWait(wire).to_frame(),
        tx_hash,
        k_tx,
    }
}

/// Build every input for `spec` under `seed`: `sat_n` and `rate_n`
/// requests per connection. Sealing runs on two threads, one per
/// connection.
pub fn build(spec: &Spec, seed: u64, pk_tx: &[u8; 32], sat_n: usize, rate_n: usize) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let accounts: Vec<(String, u64)> = (0..spec.preload)
        .map(|i| {
            (
                format!("a{:04x}{i:06}", seed & 0xffff),
                1_000 + rng.below(9_000),
            )
        })
        .collect();
    let recipients: Vec<String> = if spec.confidential {
        (0..spec.recipients)
            .map(|_| format!("u{:012x}", rng.next_u64() >> 16))
            .collect()
    } else {
        accounts.iter().map(|(name, _)| name.clone()).collect()
    };
    let per_conn = |c: usize| {
        let mut rng = Rng::new(seed, 10 + c as u64);
        let mut drbg = HmacDrbg::from_u64(seed ^ (0x5ea1 + c as u64));
        let mut senders: Vec<Sender> = (0..spec.senders / 2).map(|_| sender(&mut rng)).collect();
        let n = senders.len();
        let mut make = |i: usize, rng: &mut Rng| {
            let s = &mut senders[i % n];
            let to = &recipients[rng.below(recipients.len() as u64) as usize];
            prepare(s, spec, to, 1 + rng.below(97), pk_tx, &mut drbg)
        };
        let sat: Vec<Prepared> = (0..sat_n).map(|i| make(i, &mut rng)).collect();
        let rate: Vec<Prepared> = (0..rate_n).map(|i| make(i, &mut rng)).collect();
        (sat, rate)
    };
    let ((sat0, rate0), (sat1, rate1)) = std::thread::scope(|s| {
        let h = s.spawn(|| per_conn(1));
        let first = per_conn(0);
        (first, h.join().expect("sealing thread"))
    });
    Inputs {
        accounts,
        sat: [sat0, sat1],
        rate: [rate0, rate1],
    }
}
