//! `confide-node` — put the demo node behind a real TCP socket.
//!
//! ```text
//! confide-node [--port N] [--seed N] [--max-batch N] [--queue-depth N]
//!              [--exec-threads N] [--wal PATH] [--crash-after N]
//!              [--svn N] [--min-svn N]
//! ```
//!
//! Binds `127.0.0.1:<port>` (`--port 0`, the default, picks an ephemeral
//! port), prints exactly one `LISTENING <addr>` line to stdout (the
//! smoke test in `scripts/check.sh` captures it) and serves until
//! killed.
//!
//! ## Crash-safe lifecycle (`--wal PATH`)
//!
//! With `--wal` the node fsyncs every block's WAL record group to
//! `PATH` before acknowledging it, and the node's consortium keys are
//! kept TEE-sealed at `PATH.keys` (SVN-versioned — `--min-svn` refuses
//! rollback to stale blobs). On restart the process unseals its keys,
//! re-runs the deterministic demo bootstrap, replays `PATH` (discarding
//! any torn tail), verifies the recovered state root against the last
//! durable header, and prints one machine-readable line:
//!
//! ```text
//! RECOVERED blocks=<n> height=<h> torn=<bytes> ms=<elapsed>
//! ```
//!
//! A WAL whose committed *prefix* is corrupt (bit rot, partial sector
//! write) no longer kills the process: the node truncates back to the
//! longest replayable prefix — preferring the last height covered by a
//! verified quorum certificate from the `PATH.certs` sidecar — prints a
//! `REPAIRED height=<h> dropped=<bytes>` line, and rejoins the cluster,
//! which backfills the lost suffix through certificate-verified state
//! sync. Equivocation evidence persists at `PATH.evidence`.
//!
//! `--crash-after N` kills the process (exit 101) right after block `N`
//! is durable but **before** any client hears about it — the worst-case
//! crash window the chaos tests exercise.
//!
//! `--byzantine PRESET` (cluster mode only) runs this member as a
//! scripted attacker: `equivocate`, `conflicting-vote`,
//! `corrupt-proposal` or `silent-leader`. The chaos e2e tests drive an
//! honest majority against one such node.

use confide_core::keys::{seal_node_keys, unseal_node_keys};
use confide_net::cluster::{cert_sidecar_path, ByzantinePreset};
use confide_net::demo::{cluster_platform, demo_keys, demo_node_with, demo_platform};
use confide_net::{ClusterConfig, NodeServer, ServerConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: confide-node [--port N] [--seed N] [--max-batch N] [--queue-depth N] \
         [--exec-threads N] [--wal PATH] [--crash-after N] [--svn N] [--min-svn N] \
         [--node-id N --peers HOST:PORT,.. [--cluster-keys SEED] [--byzantine PRESET]]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    match v.and_then(|s| s.parse().ok()) {
        Some(x) => x,
        None => {
            eprintln!("confide-node: bad or missing value for {flag}");
            usage();
        }
    }
}

fn main() {
    let mut port: u16 = 0;
    let mut seed: u64 = 7;
    let mut node_id: Option<u32> = None;
    let mut peers: Vec<String> = Vec::new();
    let mut cluster_keys: Option<u64> = None;
    let mut byzantine: Option<ByzantinePreset> = None;
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => port = parse("--port", args.next()),
            "--seed" => seed = parse("--seed", args.next()),
            "--max-batch" => config.max_batch = parse("--max-batch", args.next()),
            "--queue-depth" => config.queue_depth = parse("--queue-depth", args.next()),
            "--exec-threads" => config.exec_threads = parse("--exec-threads", args.next()),
            "--wal" => config.wal_path = Some(parse::<PathBuf>("--wal", args.next())),
            "--crash-after" => config.crash_after = Some(parse("--crash-after", args.next())),
            "--svn" => config.join_svn = parse("--svn", args.next()),
            "--min-svn" => config.join_min_svn = parse("--min-svn", args.next()),
            "--node-id" => node_id = Some(parse("--node-id", args.next())),
            "--peers" => {
                let list: String = parse("--peers", args.next());
                peers = list.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--cluster-keys" => cluster_keys = Some(parse("--cluster-keys", args.next())),
            "--byzantine" => byzantine = Some(parse("--byzantine", args.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("confide-node: unknown flag {other}");
                usage();
            }
        }
    }

    // Cluster mode: `--peers` lists every member's advertised address
    // indexed by node id (this node's own entry included). All members
    // share the consortium seed (`--cluster-keys`, defaulting to
    // `--seed`) — same keys, same deterministic execution — while each
    // quotes from its own per-node platform.
    let cluster = match (node_id, peers.is_empty()) {
        (Some(id), false) => {
            if (id as usize) >= peers.len() {
                eprintln!(
                    "confide-node: --node-id {id} out of range for {} peers",
                    peers.len()
                );
                usage();
            }
            let mut c = ClusterConfig::demo(id, peers.clone(), cluster_keys.unwrap_or(seed));
            if let Some(preset) = byzantine {
                eprintln!("confide-node: running node {id} with byzantine preset {preset:?}");
                c.byzantine = Some(preset);
            }
            Some(c)
        }
        (None, false) | (Some(_), true) => {
            eprintln!("confide-node: --node-id and --peers must be given together");
            usage();
        }
        (None, true) => {
            if byzantine.is_some() {
                eprintln!("confide-node: --byzantine requires cluster mode (--node-id/--peers)");
                usage();
            }
            None
        }
    };

    // Rebuild "the same machine": the TEE platform is deterministic in
    // the seed; the consortium keys come from the sealed blob when one
    // survives, else are provisioned fresh and sealed for next time.
    let boot_seed = match &cluster {
        Some(_) => cluster_keys.unwrap_or(seed),
        None => seed,
    };
    let platform = match &cluster {
        Some(c) => cluster_platform(boot_seed, c.node_id),
        None => demo_platform(seed),
    };
    let (svn, min_svn) = (config.join_svn, config.join_min_svn);
    let keys = match config.wal_path.as_ref().map(|p| sealed_keys_path(p)) {
        Some(kp) if kp.exists() => {
            let blob = std::fs::read(&kp).unwrap_or_else(|e| {
                eprintln!(
                    "confide-node: cannot read sealed keys {}: {e}",
                    kp.display()
                );
                std::process::exit(1);
            });
            match unseal_node_keys(&platform, svn, min_svn, &blob) {
                Ok(keys) => {
                    eprintln!("confide-node: unsealed node keys from {}", kp.display());
                    keys
                }
                Err(e) => {
                    eprintln!("confide-node: sealed keys refused ({e}); a live member must re-provision via the wire join");
                    std::process::exit(1);
                }
            }
        }
        maybe_path => {
            let keys = demo_keys(boot_seed);
            if let Some(kp) = maybe_path {
                match seal_node_keys(&platform, svn, &keys, boot_seed ^ 0x7365616c) {
                    Ok(blob) => {
                        if let Err(e) = std::fs::write(&kp, &blob) {
                            eprintln!("confide-node: cannot seal keys to {}: {e}", kp.display());
                            std::process::exit(1);
                        }
                        eprintln!("confide-node: sealed node keys to {}", kp.display());
                    }
                    Err(e) => {
                        eprintln!("confide-node: sealing failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
            keys
        }
    };

    let mut node = demo_node_with(platform.clone(), keys.clone(), boot_seed);
    // Wire-join trust: in cluster mode every peer's platform root (the
    // mesh dials in through the same K-Protocol join clients would use);
    // single-node, just this node's own deterministic root.
    config.join_roots = match &cluster {
        Some(c) => c.peer_roots.clone(),
        None => vec![platform.attestation_public_key()],
    };
    config.cluster = cluster;

    if let Some(wal) = config.wal_path.as_ref() {
        if wal.exists() {
            let log = std::fs::read(wal).unwrap_or_else(|e| {
                eprintln!("confide-node: cannot read WAL {}: {e}", wal.display());
                std::process::exit(1);
            });
            let cert_bytes = std::fs::read(cert_sidecar_path(wal)).unwrap_or_default();
            if !log.is_empty() {
                let t0 = Instant::now();
                // Structural scan first: `BlockWal::recover` stops at the
                // first bad CRC, so `consumed` is the longest intact
                // prefix whether the damage is a torn tail or bit rot in
                // the middle of the file.
                let recovery = confide_storage::BlockWal::recover(&log);
                let mut cut = recovery.consumed;
                let rep = loop {
                    match node.recover_from_wal(&log[..cut]) {
                        Ok(rep) => break rep,
                        Err(e) => {
                            // Structurally valid but semantically wrong
                            // (root mismatch, undeployable tx): a failed
                            // replay may have applied part of the prefix,
                            // so retry on a fresh bootstrap with a
                            // shorter cut — preferring the last height a
                            // verified quorum certificate vouches for.
                            eprintln!(
                                "confide-node: replay of {cut}-byte prefix failed ({e}); \
                                 cutting back"
                            );
                            node = demo_node_with(platform.clone(), keys.clone(), boot_seed);
                            cut = certified_cut(&recovery, &cert_bytes, cut, &config)
                                .unwrap_or_else(|| {
                                    recovery
                                        .ends
                                        .iter()
                                        .rev()
                                        .find(|&&end| end < cut)
                                        .copied()
                                        .unwrap_or(0)
                                });
                            if cut == 0 {
                                break confide_core::node::RecoveryReport {
                                    blocks_replayed: 0,
                                    height: 0,
                                    state_root: node.state_root(),
                                    torn_bytes: log.len(),
                                    deploys_replayed: 0,
                                };
                            }
                        }
                    }
                };
                if cut < log.len() {
                    // Self-healing: truncate the durable file to the
                    // replayable prefix so appends and state-sync byte
                    // cursors stay valid, and let the cluster backfill
                    // the lost suffix through cert-verified state sync.
                    if let Err(e) = truncate_file(wal, &log[..cut]) {
                        eprintln!("confide-node: cannot truncate WAL {}: {e}", wal.display());
                        std::process::exit(1);
                    }
                    println!(
                        "REPAIRED height={} dropped={} ms={}",
                        rep.height,
                        log.len() - cut,
                        t0.elapsed().as_millis()
                    );
                }
                // Machine-readable, like LISTENING: the chaos harness
                // parses this line.
                println!(
                    "RECOVERED blocks={} height={} torn={} ms={}",
                    rep.blocks_replayed,
                    rep.height,
                    rep.torn_bytes,
                    t0.elapsed().as_millis()
                );
            }
            if !cert_bytes.is_empty() {
                node.load_cert_sidecar(&cert_bytes);
            }
        }
    }

    // Cluster mode must serve on its own advertised `--peers` entry —
    // that address is what the mesh dials and what clients are
    // redirected to. `--port` (non-zero) overrides for setups that
    // advertise through a proxy.
    let bind: (String, u16) = match &config.cluster {
        Some(c) if port == 0 => {
            let advertised = &c.peers[c.node_id as usize];
            match advertised
                .rsplit_once(':')
                .and_then(|(host, p)| Some((host.to_string(), p.parse::<u16>().ok()?)))
            {
                Some(hp) => hp,
                None => {
                    eprintln!("confide-node: cannot parse own peer address {advertised}");
                    std::process::exit(1);
                }
            }
        }
        _ => (String::from("127.0.0.1"), port),
    };
    let server = match NodeServer::spawn(node, (bind.0.as_str(), bind.1), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("confide-node: bind failed: {e}");
            std::process::exit(1);
        }
    };
    // The LISTENING line is the machine-readable part of the contract:
    // scripts and tests parse it to learn the ephemeral port.
    println!("LISTENING {}", server.addr());
    eprintln!(
        "confide-node: demo contract {} deployed confidentially; ctrl-c to stop",
        hex_prefix(&confide_net::demo::DEMO_CONTRACT)
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// `<wal>.keys` — the sealed-blob sidecar next to the WAL file.
fn sealed_keys_path(wal: &std::path::Path) -> PathBuf {
    let mut os = wal.as_os_str().to_os_string();
    os.push(".keys");
    PathBuf::from(os)
}

/// The longest prefix end `< cut` whose final block carries a *verified*
/// quorum certificate from the sidecar: 2f+1 consortium members signed
/// that exact (height, state root), so replaying up to there can never
/// accept state the cluster didn't agree on. `None` when no certificate
/// applies (single-node mode, empty sidecar, or all certs at or past the
/// failed cut).
fn certified_cut(
    recovery: &confide_storage::WalRecovery,
    cert_bytes: &[u8],
    cut: usize,
    config: &ServerConfig,
) -> Option<usize> {
    let cluster = config.cluster.as_ref()?;
    let n = cluster.peers.len();
    let keys = &cluster.consensus_keys;
    let mut best: Option<usize> = None;
    for (height, raw) in confide_storage::CertLog::recover(cert_bytes).certs {
        let Ok(cert) = confide_consensus::QuorumCert::decode(&raw) else {
            continue;
        };
        if cert.height != height || cert.verify(n, keys).is_err() {
            continue;
        }
        for (block, &end) in recovery.blocks.iter().zip(&recovery.ends) {
            if end < cut
                && block.header.height == cert.height
                && block.header.state_root == cert.root
                && best.is_none_or(|b| end > b)
            {
                best = Some(end);
            }
        }
    }
    best
}

/// Rewrite `path` to exactly `prefix` (write-to-temp + rename would be
/// stronger, but the server rewrites this file from the in-memory log on
/// spawn anyway; what matters here is that the garbage suffix is gone).
fn truncate_file(path: &std::path::Path, prefix: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, prefix)
}

fn hex_prefix(b: &[u8; 32]) -> String {
    b[..4].iter().map(|x| format!("{x:02x}")).collect()
}
