//! Byzantine-fault end-to-end drills: a real 4-member wire cluster with
//! one member running a [`ByzantinePreset`] — actively signing
//! conflicting statements, corrupting proposals, or going silent. The
//! honest majority must keep serving clients, never lose an acked
//! receipt, converge to byte-identical state roots, and walk away with
//! durable, independently-verifiable [`Evidence`] against the offender.
//! A fourth drill blackholes a joiner's state-sync source mid-stream and
//! requires the per-chunk read timeout + peer rotation to finish the
//! catch-up from a different member.

use confide_consensus::{sign_vote, CertError, QuorumCert};
use confide_core::receipt::Receipt;
use confide_net::demo::{cluster_platform, demo_args, demo_cluster_node, DEMO_CONTRACT};
use confide_net::fault::{FaultPlan, FaultProxy};
use confide_net::frame::NodeStatus;
use confide_net::{
    ByzantinePreset, Client, ClientConfig, ClusterConfig, Conn, NetError, NodeServer, ServerConfig,
};
use std::net::TcpListener;
use std::time::{Duration, Instant};

fn reserve_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("reserved addr").port())
        .collect()
}

/// Spawn cluster member `id`, optionally armed with a Byzantine preset.
/// `peers` is the member's *own* view of the roster — tests may doctor
/// it (e.g. route one entry through a fault proxy).
fn spawn_member(
    seed: u64,
    peers: &[String],
    id: u32,
    bind: &str,
    byz: Option<ByzantinePreset>,
) -> NodeServer {
    let mut cluster = ClusterConfig::demo(id, peers.to_vec(), seed);
    cluster.byzantine = byz;
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
            "cluster never converged; statuses: {:#?}",
            addrs
                .iter()
                .map(|a| status_of(a.as_ref()))
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Seal one call and land it on whichever member currently leads,
/// chasing `NotPrimary` redirects and riding out view changes — the
/// client's survival loop while a Byzantine leader is being evicted.
fn commit_anywhere(
    client: &Client,
    peers: &[String],
    args: &[u8],
    deadline: Duration,
) -> ([u8; 32], [u8; 32]) {
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
                Receipt::open(&bytes, &k_tx, &tx_hash).expect("receipt opens");
                return (tx_hash, k_tx);
            }
            Err(NetError::NotPrimary(leader)) => match peers.iter().position(|p| *p == leader) {
                Some(i) if i != target % peers.len() => target = i,
                _ => {
                    target += 1;
                    std::thread::sleep(Duration::from_millis(100));
                }
            },
            Err(_) => {
                target += 1;
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// The tentpole drill: member 0 leads view 0 and equivocates — two
/// validly-signed conflicting proposals per slot, plus the double-deal
/// that hands one peer both statements. The honest 3-of-4 must record
/// evidence, elect around the offender, keep committing client work,
/// and end byte-identical; every receipt acked during the attack stays
/// servable from the survivors.
#[test]
fn equivocating_leader_is_evidenced_and_honest_majority_serves() {
    let ports = reserve_ports(4);
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let mut servers: Vec<NodeServer> = (0..4u32)
        .map(|id| {
            let byz = (id == 0).then_some(ByzantinePreset::Equivocate);
            spawn_member(44, &peers, id, &peers[id as usize], byz)
        })
        .collect();

    let client = ClientConfig::new()
        .endpoint(&peers[1])
        .identity([91u8; 32], [92u8; 32], 93)
        .connect()
        .expect("client");
    // Submit against the full roster: in view 0 only the Byzantine
    // member accepts work (everyone else redirects to it), so the first
    // call lands on node 0, stalls behind the equivocated proposal, and
    // is only answered once the stall clock votes the offender out and
    // the new leader re-proposes the block.
    let honest: Vec<String> = peers[1..].to_vec();
    let mut acked = Vec::new();
    for i in 0..4 {
        acked.push(commit_anywhere(
            &client,
            &peers,
            &demo_args(6, i),
            Duration::from_secs(60),
        ));
    }

    // Honest members converge to one root, evicted the offender from
    // the primary seat, and hold durable evidence against it.
    let sts = wait_converged(&honest, 4, Duration::from_secs(40));

    // Convergence means every honest member executed every committed
    // block — so every acked receipt is servable from any of them.
    let mut survivor = Conn::connect(&honest[1]).expect("connect survivor");
    for (tx_hash, k_tx) in &acked {
        let bytes = survivor
            .get_receipt(tx_hash)
            .expect("receipt query")
            .expect("acked receipt lost under Byzantine leader");
        Receipt::open(&bytes, k_tx, tx_hash).expect("replicated receipt opens");
    }
    assert!(
        sts[0].view >= 1,
        "equivocating leader was never voted out: {sts:?}"
    );
    assert_eq!(
        sts[0].leader as u64,
        sts[0].view % 4,
        "leader is not the view's rightful primary"
    );
    assert!(
        sts.iter().any(|s| s.evidence > 0),
        "no honest member recorded equivocation evidence: {sts:?}"
    );
    for s in &mut servers {
        s.shutdown();
    }
}

/// A Byzantine *follower* splitting its Prepare digests must not slow
/// the honest quorum down — the leader commits from the other three
/// votes — but the double-dealt peer still records evidence against it.
#[test]
fn conflicting_follower_votes_yield_evidence_without_stalling() {
    let ports = reserve_ports(4);
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let mut servers: Vec<NodeServer> = (0..4u32)
        .map(|id| {
            let byz = (id == 3).then_some(ByzantinePreset::ConflictingVote);
            spawn_member(45, &peers, id, &peers[id as usize], byz)
        })
        .collect();

    let client = ClientConfig::new()
        .endpoint(&peers[0])
        .identity([94u8; 32], [95u8; 32], 96)
        .connect()
        .expect("client");
    for i in 0..5 {
        client
            .call_confidential(DEMO_CONTRACT, "main", &demo_args(7, i))
            .expect("honest quorum commits past the conflicting voter");
    }

    // All four converge: the offender's *internal* replica is honest
    // (only its outbound wire votes fork), so it executes the committed
    // chain like everyone else.
    let sts = wait_converged(&peers, 5, Duration::from_secs(30));
    assert!(
        sts.iter().any(|s| s.evidence > 0),
        "conflicting votes left no evidence: {sts:?}"
    );
    for s in &mut servers {
        s.shutdown();
    }
}

/// A silent leader (no proposals, no heartbeats) is indistinguishable
/// from a dead one: the followers' staggered jittered timeouts must
/// elect the next primary and serve clients as if nothing happened.
#[test]
fn silent_leader_is_elected_around() {
    let ports = reserve_ports(4);
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let mut servers: Vec<NodeServer> = (0..4u32)
        .map(|id| {
            let byz = (id == 0).then_some(ByzantinePreset::SilentLeader);
            spawn_member(46, &peers, id, &peers[id as usize], byz)
        })
        .collect();

    let client = ClientConfig::new()
        .endpoint(&peers[1])
        .identity([97u8; 32], [98u8; 32], 99)
        .connect()
        .expect("client");
    let honest: Vec<String> = peers[1..].to_vec();
    for i in 0..3 {
        commit_anywhere(&client, &honest, &demo_args(8, i), Duration::from_secs(60));
    }
    let sts = wait_converged(&honest, 3, Duration::from_secs(40));
    assert!(
        sts[0].view >= 1 && sts.iter().all(|s| s.view_changes >= 1),
        "silence never triggered an election: {sts:?}"
    );
    assert_eq!(sts[0].leader as u64, sts[0].view % 4);
    // Silence is not equivocation: nothing signed, nothing to prove.
    assert!(
        sts.iter().all(|s| s.evidence == 0),
        "silent leader cannot yield evidence: {sts:?}"
    );
    for s in &mut servers {
        s.shutdown();
    }
}

/// Satellite drill: a late joiner whose first state-sync source is
/// blackholed mid-stream (connects fine, then serves nothing) must hit
/// the per-chunk read timeout, rotate to a different peer with capped
/// backoff, and still complete the catch-up.
#[test]
fn blackholed_sync_source_forces_peer_rotation() {
    let ports = reserve_ports(4);
    let real: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    // Quorum runs 3-of-4 while the fourth member is dark.
    let mut servers: Vec<NodeServer> = (0..3u32)
        .map(|id| spawn_member(47, &real, id, &real[id as usize], None))
        .collect();

    let client = ClientConfig::new()
        .endpoint(&real[0])
        .identity([101u8; 32], [102u8; 32], 103)
        .connect()
        .expect("client");
    for i in 0..8 {
        client
            .call_confidential(DEMO_CONTRACT, "main", &demo_args(9, i))
            .expect("commit with one member dark");
    }
    // Quiet period: stale consensus backlog for the committed blocks
    // drains, so the joiner can only catch up over state sync.
    std::thread::sleep(Duration::from_secs(4));

    // The joiner's roster routes member 0 — the leader, and therefore
    // its *first* sync target — through a never-healing blackhole:
    // connections open, bytes vanish.
    let upstream = real[0].parse().expect("addr parses");
    let mut proxy =
        FaultProxy::spawn(upstream, FaultPlan::partition(905, 0, u64::MAX / 2)).expect("proxy");
    let mut doctored = real.clone();
    doctored[0] = proxy.addr().to_string();
    servers.push(spawn_member(47, &doctored, 3, &real[3], None));

    let sts = wait_converged(&real, 8, Duration::from_secs(90));
    let late = sts
        .iter()
        .find(|s| s.node_id == 3)
        .expect("late member reporting");
    assert!(
        late.sync_blocks > 0,
        "joiner did not catch up over state sync: {late:?}"
    );
    // The blackholed path was actually tried: rotation, not luck.
    assert!(
        proxy.stats().injected() > 0,
        "joiner never attempted the blackholed source"
    );
    for s in &mut servers {
        s.shutdown();
    }
    proxy.shutdown();
}

/// Negative acceptance check against the real consortium roster (the
/// same keys every wire member derives from the demo platforms): a
/// vote-deficient certificate and a forged certificate must both be
/// rejected by the exact `verify` call the state-sync client and the
/// crash-recovery path gate on.
#[test]
fn forged_or_deficient_certs_rejected_under_consortium_roster() {
    let seed = 48u64;
    let peers: Vec<String> = (0..4).map(|i| format!("host{i}:1")).collect();
    let roster = ClusterConfig::demo(0, peers, seed).consensus_keys;
    let signer_of = |id: u32| cluster_platform(seed, id).consensus_signing_key();

    let height = 9u64;
    let root = [0x5a; 32];
    let vote = |id: u32| (id, sign_vote(&signer_of(id), height, &root));

    // The genuine 2f+1 certificate verifies — the baseline.
    let good = QuorumCert {
        height,
        root,
        votes: vec![vote(0), vote(2), vote(3)],
    };
    good.verify(4, &roster)
        .expect("genuine certificate verifies");

    // Vote-deficient: 2 of 4 is below quorum, however genuine.
    let thin = QuorumCert {
        height,
        root,
        votes: vec![vote(0), vote(2)],
    };
    assert_eq!(
        thin.verify(4, &roster),
        Err(CertError::VoteDeficient { got: 2, need: 3 })
    );

    // Forged: one vote signed by a key outside the consortium roster.
    let outsider = cluster_platform(seed ^ 0xdead, 1).consensus_signing_key();
    let forged = QuorumCert {
        height,
        root,
        votes: vec![vote(0), (2, sign_vote(&outsider, height, &root)), vote(3)],
    };
    assert_eq!(forged.verify(4, &roster), Err(CertError::BadVote(2)));

    // Replayed: genuine votes for one root presented for another block's
    // root — the certificate must not transfer.
    let mut replay = good.clone();
    replay.root = [0x5b; 32];
    assert!(matches!(
        replay.verify(4, &roster),
        Err(CertError::BadVote(_))
    ));

    // And the wire decode of a truncated certificate is a typed error.
    let bytes = good.encode();
    assert_eq!(
        QuorumCert::decode(&bytes[..bytes.len() - 3]),
        Err(CertError::Malformed)
    );
}

/// The self-healing drill against the *real* binary: member 3 runs
/// `confide-node` with a durable WAL, commits alongside three in-process
/// members, gets killed, has a byte flipped in the **middle** of its WAL
/// (not the tail — a torn-write cut cannot explain it), and restarts.
/// The binary must truncate to the longest replayable certified prefix,
/// announce the repair on stdout, backfill the dropped suffix through
/// cert-verified state sync, and rejoin consensus for new blocks.
#[test]
fn mid_prefix_corrupted_wal_member_self_heals_on_restart() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let seed = 51u64;
    let ports = reserve_ports(4);
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let roster = peers.join(",");
    let mut servers: Vec<NodeServer> = (0..3u32)
        .map(|id| spawn_member(seed, &peers, id, &peers[id as usize], None))
        .collect();

    let dir = std::env::temp_dir().join(format!("confide-heal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal = dir.join("member3.wal");

    // Spawn the binary member and pump its stdout until LISTENING,
    // returning the child plus every machine-readable line seen before
    // the server came up (REPAIRED / RECOVERED on a restart).
    let spawn_node = |wal: &std::path::Path| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_confide-node"))
            .args([
                "--node-id",
                "3",
                "--peers",
                &roster,
                "--cluster-keys",
                &seed.to_string(),
                "--wal",
                wal.to_str().expect("utf-8 path"),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn confide-node");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut boot_lines = Vec::new();
        for line in std::io::BufReader::new(stdout).lines() {
            let line = line.expect("binary stdout line");
            let listening = line.starts_with("LISTENING ");
            boot_lines.push(line);
            if listening {
                return (child, boot_lines);
            }
        }
        // stdout closed without LISTENING: the binary died at boot.
        let _ = child.kill();
        let _ = child.wait();
        panic!("confide-node exited before LISTENING; boot lines: {boot_lines:?}");
    };
    let (mut child, boot) = spawn_node(&wal);
    assert!(
        !boot.iter().any(|l| l.starts_with("REPAIRED")),
        "fresh boot must not repair: {boot:?}"
    );

    let client = ClientConfig::new()
        .endpoint(&peers[0])
        .identity([111u8; 32], [112u8; 32], 113)
        .connect()
        .expect("client");
    for i in 0..6 {
        client
            .call_confidential(DEMO_CONTRACT, "main", &demo_args(11, i))
            .expect("commit with binary member live");
    }
    wait_converged(&peers, 6, Duration::from_secs(60));

    // Kill -9 equivalent: no graceful shutdown, the WAL is what's left.
    child.kill().expect("kill binary member");
    child.wait().expect("reap binary member");

    // Flip one byte in the middle of the log. Every block record is
    // CRC-framed, so recovery cuts at the damaged record even though
    // megabytes of valid bytes may follow it.
    let mut bytes = std::fs::read(&wal).expect("read wal");
    assert!(
        bytes.len() > 128,
        "wal too small to corrupt mid-prefix: {} bytes",
        bytes.len()
    );
    let pos = bytes.len() / 2;
    bytes[pos] ^= 0xff;
    std::fs::write(&wal, &bytes).expect("write corrupted wal");

    let (mut child, boot) = spawn_node(&wal);
    let repaired = boot
        .iter()
        .find(|l| l.starts_with("REPAIRED "))
        .unwrap_or_else(|| panic!("restart did not announce a repair: {boot:?}"));
    let field = |line: &str, key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {key}= in {line:?}"))
    };
    assert!(
        field(repaired, "dropped") > 0,
        "repair dropped no bytes: {repaired:?}"
    );
    assert!(
        field(repaired, "height") < 6,
        "corruption mid-prefix must cost committed height: {repaired:?}"
    );
    // On-disk file really shrank to the replayable prefix.
    let healed_len = std::fs::metadata(&wal).expect("healed wal").len();
    assert!(
        healed_len < bytes.len() as u64,
        "wal was not truncated ({healed_len} vs {})",
        bytes.len()
    );

    // The healed member must backfill the dropped blocks through
    // cert-verified state sync and land byte-identical with the quorum.
    let sts = wait_converged(&peers, 6, Duration::from_secs(60));
    let healed = sts
        .iter()
        .find(|s| s.node_id == 3)
        .expect("healed member reporting");
    assert!(
        healed.sync_blocks > 0,
        "healed member did not use state sync: {healed:?}"
    );

    // And it keeps following consensus for brand-new client work.
    for i in 6..8 {
        client
            .call_confidential(DEMO_CONTRACT, "main", &demo_args(11, i))
            .expect("commit after heal");
    }
    wait_converged(&peers, 8, Duration::from_secs(60));

    child.kill().expect("stop binary member");
    child.wait().expect("reap binary member");
    for s in &mut servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
