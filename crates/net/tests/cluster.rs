//! Wire-cluster end-to-end tests: four `NodeServer` processes-worth of
//! state (in-process, real TCP between them) ordering client
//! transactions through the PBFT peer mesh. The suite proves the
//! consortium contract from the outside: followers redirect clients to
//! the primary, killing the leader mid-stream loses nothing acked, a
//! member booted late catches up over state sync, and a member cut off
//! by a network partition converges once the link heals — in every case
//! the survivors end at byte-identical state roots.

use confide_core::receipt::Receipt;
use confide_net::demo::{demo_args, demo_cluster_node, DEMO_CONTRACT};
use confide_net::fault::{FaultPlan, FaultProxy};
use confide_net::frame::NodeStatus;
use confide_net::loadgen::{run as loadgen_run, LoadgenConfig};
use confide_net::{
    Client, ClientConfig, ClusterConfig, Conn, ErrorKind, NetError, NodeServer, ServerConfig,
};
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Reserve `n` distinct loopback ports (bind-then-drop; the listeners
/// stay alive until all are picked so the OS cannot hand one out twice).
fn reserve_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("reserved addr").port())
        .collect()
}

/// Spawn cluster member `id` bound at `bind`, configured with the full
/// `peers` table (which may route some members through a fault proxy).
fn spawn_member(seed: u64, peers: &[String], id: u32, bind: &str) -> NodeServer {
    let cluster = ClusterConfig::demo(id, peers.to_vec(), seed);
    let config = ServerConfig::builder()
        .batch_linger(Duration::from_millis(2))
        .read_timeout(Duration::from_millis(200))
        .join_roots(cluster.peer_roots.clone())
        .cluster(cluster)
        .build()
        .expect("member config validates");
    NodeServer::spawn(demo_cluster_node(seed, id), bind, config).expect("member spawns")
}

fn status_of(addr: &str) -> Option<NodeStatus> {
    let mut c = Conn::connect_timeout(addr, Duration::from_millis(800)).ok()?;
    c.status().ok()
}

/// Poll until every listed member reports the same height (at least
/// `min_height`) and the same state root; panics past `deadline`.
fn wait_converged<A: AsRef<str>>(
    addrs: &[A],
    min_height: u64,
    deadline: Duration,
) -> Vec<NodeStatus> {
    let end = Instant::now() + deadline;
    loop {
        let polled: Vec<Option<NodeStatus>> = addrs.iter().map(|a| status_of(a.as_ref())).collect();
        if polled.iter().all(|s| s.is_some()) {
            let sts: Vec<NodeStatus> = polled.into_iter().flatten().collect();
            let h = sts[0].height;
            if h >= min_height
                && sts.iter().all(|s| s.height == h)
                && sts.iter().all(|s| s.state_root == sts[0].state_root)
            {
                return sts;
            }
        }
        assert!(
            Instant::now() < end,
            "cluster never converged; heights: {:?}",
            addrs
                .iter()
                .map(|a| status_of(a.as_ref()).map(|s| s.height))
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Seal one call and land it on whichever member currently leads,
/// chasing `NotPrimary` redirects and riding out a view change.
fn commit_anywhere(client: &Client, peers: &[String], args: &[u8], deadline: Duration) -> Receipt {
    let (tx, tx_hash, k_tx) = client.seal(DEMO_CONTRACT, "main", args).expect("seal");
    let end = Instant::now() + deadline;
    let mut target = 0usize;
    loop {
        assert!(Instant::now() < end, "no leader accepted the transaction");
        let addr = &peers[target % peers.len()];
        let attempt = Conn::connect_timeout(addr, Duration::from_secs(25))
            .and_then(|mut c| c.submit_wait(&tx));
        match attempt {
            Ok((sealed, bytes)) => {
                assert!(sealed, "confidential receipt came back unsealed");
                return Receipt::open(&bytes, &k_tx, &tx_hash).expect("receipt opens");
            }
            Err(NetError::NotPrimary(leader)) => {
                // Follow the redirect when it points somewhere new;
                // otherwise (stale pointer at a dead node) rotate.
                match peers.iter().position(|p| *p == leader) {
                    Some(i) if i != target % peers.len() => target = i,
                    _ => {
                        target += 1;
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            }
            Err(_) => {
                target += 1;
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Happy path: a 4-member cluster orders a client stream through the
/// primary, followers answer with a typed redirect, and all four
/// members converge to the same height and state root.
#[test]
fn four_node_cluster_commits_and_followers_redirect() {
    let ports = reserve_ports(4);
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let mut servers: Vec<NodeServer> = (0..4u32)
        .map(|id| spawn_member(31, &peers, id, &peers[id as usize]))
        .collect();

    let client = ClientConfig::new()
        .endpoint(&peers[0])
        .identity([41u8; 32], [42u8; 32], 43)
        .connect()
        .expect("client");
    for i in 0..8 {
        let receipt = client
            .call_confidential(DEMO_CONTRACT, "main", &demo_args(1, i))
            .expect("commit through the primary");
        assert!(!receipt.return_data.is_empty());
    }

    // A follower refuses new work with a typed redirect to the primary.
    let (tx, _, _) = client
        .seal(DEMO_CONTRACT, "main", &demo_args(1, 99))
        .expect("seal");
    let mut follower = Conn::connect(&peers[2]).expect("connect follower");
    match follower.submit_wait(&tx) {
        Err(NetError::NotPrimary(leader)) => assert_eq!(leader, peers[0]),
        other => panic!("follower did not redirect: {other:?}"),
    }

    let statuses = wait_converged(&peers, 8, Duration::from_secs(20));
    assert_eq!(statuses[0].leader, 0, "view 0 leader should be node 0");
    for s in &statuses {
        assert_eq!(s.view, statuses[0].view, "members disagree on the view");
    }
    for s in &mut servers {
        s.shutdown();
    }
}

/// Kill the leader mid-stream: every receipt acked before the kill is
/// servable from any survivor, the survivors elect a new primary via
/// view change, and new work commits and converges.
#[test]
fn leader_kill_triggers_view_change_and_survivors_serve() {
    let ports = reserve_ports(4);
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let mut servers: Vec<NodeServer> = (0..4u32)
        .map(|id| spawn_member(32, &peers, id, &peers[id as usize]))
        .collect();

    let client = ClientConfig::new()
        .endpoint(&peers[0])
        .identity([51u8; 32], [52u8; 32], 53)
        .connect()
        .expect("client");
    let mut last = None;
    for i in 0..4 {
        let (tx, tx_hash, k_tx) = client
            .seal(DEMO_CONTRACT, "main", &demo_args(2, i))
            .expect("seal");
        let (sealed, bytes) = client.submit_wait(&tx).expect("commit via leader");
        assert!(sealed);
        Receipt::open(&bytes, &k_tx, &tx_hash).expect("receipt opens");
        last = Some((tx_hash, k_tx));
    }
    let (tx_hash, k_tx) = last.expect("committed at least one");

    servers[0].shutdown(); // the leader dies with the client's stream done

    // The acked receipt was replicated by execution on every member.
    let mut survivor = Conn::connect(&peers[1]).expect("connect survivor");
    let bytes = survivor
        .get_receipt(&tx_hash)
        .expect("receipt query")
        .expect("acked receipt must survive the leader");
    Receipt::open(&bytes, &k_tx, &tx_hash).expect("replicated receipt opens");

    // New work lands once the survivors elect a new primary.
    let survivors = peers[1..].to_vec();
    for i in 0..3 {
        commit_anywhere(
            &client,
            &survivors,
            &demo_args(3, i),
            Duration::from_secs(40),
        );
    }
    let sts = wait_converged(&survivors, 7, Duration::from_secs(30));
    assert!(
        sts.iter().all(|s| s.view_changes >= 1),
        "survivors recorded no view change: {sts:?}"
    );
    assert!(
        sts[0].view >= 1,
        "view did not advance past the dead leader"
    );
    assert_eq!(
        sts[0].leader as u64,
        sts[0].view % 4,
        "leader is not the view's rightful primary"
    );
    for s in &mut servers {
        s.shutdown();
    }
}

/// A member booted late (or wiped) starts 10 blocks behind the quorum
/// and must catch up over attested state sync, ending byte-identical.
#[test]
fn late_joining_member_catches_up_via_state_sync() {
    let ports = reserve_ports(4);
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    // Quorum is 3-of-4: the cluster runs with the fourth member dark.
    let mut servers: Vec<NodeServer> = (0..3u32)
        .map(|id| spawn_member(33, &peers, id, &peers[id as usize]))
        .collect();

    let client = ClientConfig::new()
        .endpoint(&peers[0])
        .identity([61u8; 32], [62u8; 32], 63)
        .connect()
        .expect("client");
    for i in 0..10 {
        client
            .call_confidential(DEMO_CONTRACT, "main", &demo_args(4, i))
            .expect("commit with one member dark");
    }

    // Quiet period: each peer's sender loop drains its stale outbound
    // queue on the next failed dial (refused + <= 800 ms backoff), so
    // after this sleep no consensus backlog for blocks 1-10 survives —
    // the joiner cannot catch up by pipeline replay.
    std::thread::sleep(Duration::from_secs(4));

    // Boot the fourth member fresh, 10 blocks behind the watermark
    // window — PrePrepare replay cannot help; only state sync can.
    servers.push(spawn_member(33, &peers, 3, &peers[3]));
    let sts = wait_converged(&peers, 10, Duration::from_secs(40));
    let late = sts
        .iter()
        .find(|s| s.node_id == 3)
        .expect("late member reporting");
    assert!(
        late.sync_blocks > 0,
        "late member did not use state sync: {late:?}"
    );
    for s in &mut servers {
        s.shutdown();
    }
}

/// Satellite: the load generator drives a whole cluster. Workers spread
/// their initial connections across all four members, so three of them
/// land on followers and must follow the typed `NotPrimary` redirect to
/// the primary — every transaction still commits and verifies.
#[test]
fn loadgen_follows_redirects_across_the_cluster() {
    let ports = reserve_ports(4);
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let mut servers: Vec<NodeServer> = (0..4u32)
        .map(|id| spawn_member(36, &peers, id, &peers[id as usize]))
        .collect();

    let cfg = LoadgenConfig {
        endpoints: peers.iter().map(|p| p.parse().expect("addr")).collect(),
        threads: 4,
        txs_per_thread: 8,
        closed: true,
        confidential: true,
        ..LoadgenConfig::default()
    };
    let report = loadgen_run(&cfg).expect("cluster loadgen run");
    assert_eq!(report.receipts_verified, 32, "lost commits: {report:?}");
    assert!(
        report.redirects >= 3,
        "follower-landed workers must be redirected: {report:?}"
    );
    for s in &mut servers {
        s.shutdown();
    }
}

/// A multi-node pool must verify each member's *own* enclave report.
/// Cluster members share the consortium `pk_tx` but quote from
/// distinct per-node platforms, so validating member 1's report under
/// member 0's attestation root is exactly the cross-validation bug —
/// the client's per-endpoint cache keys every verified key by the
/// endpoint it was proven for.
#[test]
fn client_caches_attested_pk_tx_per_endpoint() {
    let ports = reserve_ports(4);
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    // Attestation needs no quorum: two members of the four-seat table.
    let mut servers: Vec<NodeServer> = (0..2u32)
        .map(|id| spawn_member(35, &peers, id, &peers[id as usize]))
        .collect();
    let reference = {
        let node = servers[0].node().read().expect("node lock");
        node.attestation_report().expect("TEE node has a report")
    };
    let roots = ClusterConfig::demo(0, peers.clone(), 35).peer_roots;

    let cl0 = ClientConfig::new()
        .endpoint(&peers[0])
        .pool_size(2)
        .connect()
        .expect("client 0");
    let pk = cl0
        .pk_tx_attested(&roots[0], &reference.mrenclave, reference.isv_svn)
        .expect("member 0 verifies under its own root");

    // Member 1's report must not verify under member 0's root …
    let cl1 = ClientConfig::new()
        .endpoint(&peers[1])
        .pool_size(2)
        .connect()
        .expect("client 1");
    match cl1.pk_tx_attested(&roots[0], &reference.mrenclave, reference.isv_svn) {
        Err(e) => assert_eq!(e.kind(), ErrorKind::Attestation, "wrong kind: {e}"),
        other => panic!("cross-endpoint enclave report accepted: {other:?}"),
    }
    // … and the refused attempt must not have poisoned the cache.
    let pk1 = cl1
        .pk_tx_attested(&roots[1], &reference.mrenclave, reference.isv_svn)
        .expect("member 1 verifies under its own root");
    assert_eq!(pk, pk1, "the consortium pk_tx is shared");

    // Once proven for an endpoint the verdict is sticky: it is served
    // from the cache even after the member goes away.
    servers[1].shutdown();
    let cached = cl1
        .pk_tx_attested(&roots[1], &reference.mrenclave, reference.isv_svn)
        .expect("cached verdict survives the member");
    assert_eq!(cached, pk1);
    for s in &mut servers {
        s.shutdown();
    }
}

/// Cut one member off behind a symmetric partition from the first
/// chunk, let the other three commit a stream, then heal the link by
/// driving the proxy's shared chunk clock past the window. The dark
/// member must sync up and converge to the quorum's state root.
#[test]
fn partitioned_member_rejoins_after_heal_and_converges() {
    const WINDOW: u64 = 400;
    let ports = reserve_ports(4);
    let real: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let upstream = real[3].parse().expect("addr parses");
    let mut proxy =
        FaultProxy::spawn(upstream, FaultPlan::partition(903, 0, WINDOW)).expect("proxy");
    // Every member reaches node 3 through the proxy; node 3 dials out
    // directly (its votes go nowhere useful — it never sees proposals).
    let mut peers = real.clone();
    peers[3] = proxy.addr().to_string();
    let mut servers: Vec<NodeServer> = (0..4u32)
        .map(|id| spawn_member(34, &peers, id, &real[id as usize]))
        .collect();

    // Commit through whichever member currently leads — a slow CI box
    // can view-change spuriously, which must not fail the drill.
    let client = ClientConfig::new()
        .endpoint(&real[0])
        .identity([71u8; 32], [72u8; 32], 73)
        .connect()
        .expect("client");
    let majority: Vec<String> = real[..3].to_vec();
    for i in 0..6 {
        commit_anywhere(
            &client,
            &majority,
            &demo_args(5, i),
            Duration::from_secs(60),
        );
    }
    // The dark member still answers on its local socket (retry the
    // probe: an 800 ms connect can lose the race under full-suite load).
    let probe_end = Instant::now() + Duration::from_secs(10);
    let dark = loop {
        match status_of(&real[3]) {
            Some(s) => break s,
            None => {
                assert!(
                    Instant::now() < probe_end,
                    "dark member stopped answering locally"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };
    assert_eq!(dark.height, 0, "partitioned member saw consensus traffic");

    // Quiet period: a blackholed dial fails within the 2 s handshake
    // read timeout, after which the sender drains its stale queue — so
    // post-heal the only surviving traffic is heartbeats, and node 3
    // must recover through state sync, not consensus-backlog replay.
    std::thread::sleep(Duration::from_secs(4));

    // Heal deterministically: pump junk chunks through the proxy until
    // the shared clock leaves the window (every chunk from tick 0 was
    // blackholed, so `partitioned == min(clock, WINDOW)`).
    let end = Instant::now() + Duration::from_secs(60);
    'pump: while proxy.stats().partitioned.load(Ordering::Relaxed) < WINDOW {
        assert!(Instant::now() < end, "partition never healed");
        let Ok(mut s) = std::net::TcpStream::connect(proxy.addr()) else {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        while proxy.stats().partitioned.load(Ordering::Relaxed) < WINDOW {
            assert!(Instant::now() < end, "partition never healed");
            if std::io::Write::write_all(&mut s, &[0u8]).is_err() {
                continue 'pump;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let sts = wait_converged(&real, 6, Duration::from_secs(90));
    let healed = sts
        .iter()
        .find(|s| s.node_id == 3)
        .expect("healed member reporting");
    assert!(
        healed.sync_blocks > 0,
        "healed member did not sync: {healed:?}"
    );
    for s in &mut servers {
        s.shutdown();
    }
    proxy.shutdown();
}
