//! Sim-ordered blocks on real nodes: the discrete-event simulator in
//! `crates/chain` orders with the production `confide_consensus::Replica`,
//! so its committed log is a genuine consensus log. Every simulated member
//! must commit the identical log, and executing that log on real nodes —
//! four cluster members, each quoting from its own platform, plus one
//! standalone node — must seal byte-identical state roots.

use confide_net::demo::{demo_args, demo_cluster_node, demo_node, DEMO_CONTRACT};
use confide_sim::event::US;
use confide_sim::network::NetworkModel;

use confide_chain::pbft::{ChainConfig, ChainSim};
use confide_chain::types::SimTx;
use confide_core::client::ConfideClient;
use confide_core::seal_signed_tx;
use confide_core::tx::WireTx;
use confide_crypto::HmacDrbg;

const N: usize = 4;
const TXS: usize = 30;
const BLOCK_MAX_TXS: usize = 8;
const SEED: u64 = 77;

#[test]
fn sim_committed_log_seals_identical_roots_on_every_member() {
    // The stream: one client's nonce-chained confidential calls, sealed
    // against the consortium pk_tx every node shares.
    let standalone = demo_node(SEED);
    let pk_tx = standalone.pk_tx();
    let mut client = ConfideClient::new([81u8; 32], [82u8; 32], 8_300);
    let mut rng = HmacDrbg::from_u64(8_400);
    let wire_txs: Vec<WireTx> = (0..TXS)
        .map(|i| {
            let signed = client.build_raw(DEMO_CONTRACT, "main", &demo_args(9, i));
            let (wire, _, _) =
                seal_signed_tx(&signed, &[82u8; 32], &pk_tx, &mut rng).expect("seal");
            wire
        })
        .collect();

    // Public class keeps the verified pool strictly FIFO (no verify-slot
    // races), arrivals are spaced well past the LAN model's ±12.5 µs
    // jitter so delivery order equals submission order, and a huge byte
    // limit makes the batch cut purely count-driven.
    let mut cfg = ChainConfig::local(N);
    cfg.block_max_txs = BLOCK_MAX_TXS;
    cfg.block_max_bytes = usize::MAX;
    let mut sim = ChainSim::new(cfg, NetworkModel::lan(SEED));
    let arrivals = (0..TXS)
        .map(|i| (i as u64 * 100 * US, SimTx::public(200, i as u64, 100_000)))
        .collect();
    let report = sim.run(arrivals);
    assert_eq!(report.committed_txs, TXS, "sim lost transactions");
    let blocks = sim.committed_blocks(0);
    for node in 1..N {
        assert_eq!(
            sim.committed_blocks(node),
            blocks,
            "sim members disagree on the committed log"
        );
    }

    // Every block must execute in full: the calls are nonce-chained, so a
    // misordered log would reject transactions.
    let mut roots = Vec::new();
    let members = (0..N as u32).map(|member| demo_cluster_node(SEED, member));
    for mut node in members.chain(std::iter::once(standalone)) {
        for (seq, idx) in &blocks {
            let decoded: Vec<WireTx> = idx.iter().map(|&i| wire_txs[i].clone()).collect();
            let res = node
                .execute_block_parallel(&decoded, 2)
                .expect("block executes");
            assert_eq!(res.accepted(), decoded.len(), "tx rejected at seq {seq}");
        }
        roots.push(node.state_root());
    }
    assert!(
        roots.windows(2).all(|w| w[0] == w[1]),
        "state roots diverged: {roots:?}"
    );
}
