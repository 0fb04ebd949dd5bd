//! PBFT ordering over the discrete-event simulator.
//!
//! Every simulated node runs the production [`Replica`], the state machine
//! the wire cluster in `crates/net` drives, fed through `propose` /
//! `on_msg` / `on_executed` on the `confide-sim` event queue. The figures
//! therefore run the wire cluster's quorum, watermark and
//! execute-at-prepared rules, with PBFT's genuine O(n²) message complexity:
//! the quantity that, multiplied by inter-zone latency, produces Figure
//! 11's two-zone degradation.
//!
//! This module owns only what is genuinely simulation: the client
//! broadcast, the pre-verification worker slots of §5.2/Fig. 7 (the P1–P5
//! pipeline), the primary's pool and flush timer, zone network delays,
//! makespan execution with the configured parallelism, and the disk model.

use crate::sched::makespan;
use crate::types::{SimTx, TxClass};
use confide_consensus::{Action, Keyring, PeerMsg, ProposeError, Replica, ReplicaConfig};
use confide_sim::event::{EventQueue, SimTime, MS};
use confide_sim::network::{DiskModel, NetworkModel, Zone};
use confide_tee::meter::CostModel;
use std::collections::BTreeMap;

/// Chain/experiment configuration.
pub struct ChainConfig {
    /// Number of nodes (3f+1 recommended).
    pub nodes: usize,
    /// Zone of each node (len == nodes).
    pub zone_of: Vec<Zone>,
    /// Block size limit in bytes (paper §6.1: 4 KB).
    pub block_max_bytes: usize,
    /// Max transactions per block.
    pub block_max_txs: usize,
    /// Parallel execution ways (§6.2: 1/4/6).
    pub threads: usize,
    /// Enable the §5.2 pre-verification pipeline (OPT3).
    pub preverify: bool,
    /// Verification worker slots per node.
    pub verify_workers: usize,
    /// Client→node submission latency.
    pub client_latency: SimTime,
    /// Primary's batch flush interval.
    pub flush_interval: SimTime,
    /// Per-block fixed overhead cycles (assembly, root computation).
    pub block_overhead_cycles: u64,
    /// PBFT watermark: maximum proposals in flight beyond the primary's
    /// last executed sequence ([`ReplicaConfig::max_inflight`]).
    pub max_inflight: u64,
    /// Cost model for cycles→time conversion.
    pub model: CostModel,
}

impl ChainConfig {
    /// The paper's default setting: n nodes, one zone, 4 KB blocks.
    pub fn local(nodes: usize) -> ChainConfig {
        ChainConfig {
            nodes,
            zone_of: vec![Zone(0); nodes],
            block_max_bytes: 4096,
            block_max_txs: 64,
            threads: 1,
            preverify: true,
            verify_workers: 8,
            client_latency: 2 * MS,
            flush_interval: 5 * MS,
            block_overhead_cycles: 400_000,
            max_inflight: 4,
            model: CostModel::default(),
        }
    }

    /// Two-zone split at ratio 1:2 (§6.2 Shanghai:Beijing).
    pub fn two_zone(nodes: usize) -> ChainConfig {
        let mut cfg = Self::local(nodes);
        cfg.zone_of = (0..nodes)
            .map(|i| if i < nodes / 3 { Zone(0) } else { Zone(1) })
            .collect();
        cfg
    }
}

/// Aggregate results of one simulated run.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// Transactions committed (executed on node 0).
    pub committed_txs: usize,
    /// Blocks executed.
    pub blocks: usize,
    /// Simulated duration, first submission → last execution (ns).
    pub duration_ns: SimTime,
    /// Throughput in transactions/second.
    pub tps: f64,
    /// Mean block execution time (ns).
    pub avg_block_exec_ns: f64,
    /// Mean block persistence (disk write) time (ns).
    pub avg_block_write_ns: f64,
    /// Mean consensus latency at node 0 (ns): propose → prepare quorum,
    /// plus own execution done → commit quorum. Time a block spends
    /// queued behind earlier blocks' execution is excluded.
    pub avg_consensus_latency_ns: f64,
    /// Total protocol messages delivered.
    pub messages: u64,
}

/// Seed of the simulated consortium's deterministic signing keys.
const KEY_SEED: u64 = 0x51A1;

#[derive(Debug)]
enum Ev {
    ClientSend {
        tx: usize,
    },
    TxArrive {
        node: usize,
        tx: usize,
    },
    TxVerified {
        node: usize,
        tx: usize,
    },
    Deliver {
        from: usize,
        to: usize,
        msg: PeerMsg,
    },
    Flush,
    ExecDone {
        node: usize,
        seq: u64,
        root: [u8; 32],
    },
}

struct SimNode {
    replica: Replica,
    verify_slots: Vec<SimTime>,
    /// Blocks handed to execution and not yet committed, by sequence.
    uncommitted: BTreeMap<u64, Vec<usize>>,
    committed: BTreeMap<u64, Vec<usize>>,
}

/// Consensus timestamps of one in-flight block at node 0.
struct Stamps {
    proposed: SimTime,
    prepared: Option<SimTime>,
    executed: Option<SimTime>,
}

/// The simulator.
///
/// One deliberate simplification against the wire cluster: a node calls
/// [`Replica::on_executed`] (and so votes `Commit`) as soon as execution
/// ends, while its block write runs asynchronously behind it. The wire
/// cluster makes the block durable before voting, which matters only
/// across crashes, and the simulation has none.
pub struct ChainSim {
    config: ChainConfig,
    network: NetworkModel,
    disk: DiskModel,
    txs: Vec<SimTx>,
    queue: EventQueue<Ev>,
    nodes: Vec<SimNode>,
    /// The primary's (node 0's) verified pool.
    pool: Vec<usize>,
    pool_bytes: usize,
    flush_pending: bool,
    stamps: BTreeMap<u64, Stamps>,
    consensus_latencies: Vec<SimTime>,
    messages: u64,
    exec_times: Vec<SimTime>,
    disk_times: Vec<SimTime>,
    first_send: Option<SimTime>,
    last_exec: SimTime,
    committed_txs: usize,
}

impl ChainSim {
    /// Build a simulator.
    pub fn new(config: ChainConfig, network: NetworkModel) -> ChainSim {
        assert_eq!(config.zone_of.len(), config.nodes);
        // One shared key table; a member's signer depends only on the seed
        // and its id, so a one-member keyring yields it without deriving
        // the whole table again per member.
        let keys = Keyring::deterministic(KEY_SEED, 0, config.nodes).keys;
        let nodes = (0..config.nodes)
            .map(|id| {
                let mut cfg = ReplicaConfig::localhost(id as u32, config.nodes);
                cfg.max_inflight = config.max_inflight;
                let signer = Keyring::deterministic(KEY_SEED, id as u32, 1).signer;
                let keyring = Keyring::new(signer, keys.clone());
                SimNode {
                    replica: Replica::new(cfg, keyring, 0),
                    verify_slots: vec![0; config.verify_workers.max(1)],
                    uncommitted: BTreeMap::new(),
                    committed: BTreeMap::new(),
                }
            })
            .collect();
        ChainSim {
            config,
            network,
            disk: DiskModel::cloud_ssd(),
            txs: Vec::new(),
            queue: EventQueue::new(),
            nodes,
            pool: Vec::new(),
            pool_bytes: 0,
            flush_pending: false,
            stamps: BTreeMap::new(),
            consensus_latencies: Vec::new(),
            messages: 0,
            exec_times: Vec::new(),
            disk_times: Vec::new(),
            first_send: None,
            last_exec: 0,
            committed_txs: 0,
        }
    }

    /// The committed block log of `node`: `(seq, tx indices)` in sequence
    /// order.
    pub fn committed_blocks(&self, node: usize) -> Vec<(u64, Vec<usize>)> {
        self.nodes[node]
            .committed
            .iter()
            .map(|(seq, txs)| (*seq, txs.clone()))
            .collect()
    }

    /// Submit transactions at given times and run to quiescence.
    pub fn run(&mut self, arrivals: Vec<(SimTime, SimTx)>) -> ChainReport {
        for (t, tx) in arrivals {
            let id = self.txs.len();
            self.txs.push(tx);
            self.queue.schedule_at(t, Ev::ClientSend { tx: id });
        }
        while let Some((now, ev)) = self.queue.pop() {
            self.handle(now, ev);
        }
        let duration = self
            .last_exec
            .saturating_sub(self.first_send.unwrap_or(0))
            .max(1);
        ChainReport {
            committed_txs: self.committed_txs,
            blocks: self.exec_times.len(),
            duration_ns: duration,
            tps: self.committed_txs as f64 / (duration as f64 / 1e9),
            avg_block_exec_ns: mean(&self.exec_times),
            avg_block_write_ns: mean(&self.disk_times),
            avg_consensus_latency_ns: mean(&self.consensus_latencies),
            messages: self.messages,
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::ClientSend { tx } => {
                self.first_send.get_or_insert(now);
                let size = self.txs[tx].size_bytes;
                for node in 0..self.config.nodes {
                    // Public-network submission to each node independently;
                    // the client sits with zone 0, so nodes in other zones
                    // receive the body over the shared inter-zone pipe.
                    let at = self
                        .network
                        .send_at(now, Zone(0), self.config.zone_of[node], size)
                        + self.config.client_latency;
                    self.queue.schedule_at(at, Ev::TxArrive { node, tx });
                }
            }
            Ev::TxArrive { node, tx } => {
                let cfg_preverify = self.config.preverify;
                let is_confidential = self.txs[tx].class == TxClass::Confidential;
                if cfg_preverify && is_confidential {
                    // P1–P5: batch into the enclave, decrypt + verify on a
                    // parallel worker, then the verified pool.
                    let cycles = self.txs[tx].envelope_cycles + self.txs[tx].verify_cycles;
                    let dur = self.config.model.cycles_to_ns(cycles);
                    let slot = self.nodes[node]
                        .verify_slots
                        .iter_mut()
                        .min()
                        .expect("at least one verify worker");
                    let start = (*slot).max(now);
                    let done = start + dur;
                    *slot = done;
                    self.queue.schedule_at(done, Ev::TxVerified { node, tx });
                } else {
                    // Public txs verify cheaply; without OPT3 the cost
                    // moves into the execution phase.
                    self.queue.schedule_at(now, Ev::TxVerified { node, tx });
                }
            }
            Ev::TxVerified { node, tx } => {
                if node != 0 {
                    return; // replicas just hold the body; primary batches
                }
                self.pool.push(tx);
                self.pool_bytes += self.txs[tx].size_bytes;
                if self.pool_bytes >= self.config.block_max_bytes
                    || self.pool.len() >= self.config.block_max_txs
                {
                    self.propose(now);
                } else if !self.flush_pending {
                    self.flush_pending = true;
                    self.queue
                        .schedule_in(self.config.flush_interval, Ev::Flush);
                }
            }
            Ev::Flush => {
                self.flush_pending = false;
                if !self.pool.is_empty() {
                    self.propose(now);
                }
            }
            Ev::Deliver { from, to, msg } => {
                self.messages += 1;
                let actions = self.nodes[to].replica.on_msg(from as u32, msg, now / MS);
                self.apply(now, to, actions);
                if to == 0 {
                    self.stamp_prepared(now);
                }
            }
            Ev::ExecDone { node, seq, root } => {
                if node == 0 {
                    let block = &self.nodes[0].uncommitted[&seq];
                    let bytes: usize =
                        block.iter().map(|&t| self.txs[t].size_bytes).sum::<usize>() + 96;
                    self.committed_txs += block.len();
                    self.last_exec = now;
                    self.disk_times.push(self.disk.write(bytes));
                    self.stamps
                        .get_mut(&seq)
                        .expect("node 0 proposed it")
                        .executed = Some(now);
                }
                let actions = self.nodes[node].replica.on_executed(seq, root, now / MS);
                self.apply(now, node, actions);
                if node == 0 {
                    // The watermark counts from the primary's last executed
                    // block, so this is where a backpressured proposal
                    // retries: a full block at once, a partial batch on the
                    // flush timer (batching, as production submission does
                    // per §6.4).
                    if self.pool.len() >= self.config.block_max_txs {
                        self.propose(now);
                    } else if !self.pool.is_empty() && !self.flush_pending {
                        self.flush_pending = true;
                        self.queue
                            .schedule_in(self.config.flush_interval, Ev::Flush);
                    }
                }
            }
        }
    }

    fn propose(&mut self, now: SimTime) {
        // Respect the block size limit even when the pool backed up.
        let take_n = self.pool.len().min(self.config.block_max_txs);
        if take_n == 0 {
            return;
        }
        // Bodies travelled with the client broadcast; the proposal carries
        // each tx as an index into the simulation's tx table.
        let bodies = self.pool[..take_n]
            .iter()
            .map(|&t| (t as u64).to_le_bytes().to_vec())
            .collect();
        let actions = match self.nodes[0].replica.propose(bodies, now / MS) {
            Ok(actions) => actions,
            // Retried after the primary's next execution.
            Err(ProposeError::Backpressure) => return,
            Err(ProposeError::NotLeader) => panic!("node 0 leads every simulated run"),
        };
        self.pool.drain(..take_n);
        self.pool_bytes = self.pool.iter().map(|&t| self.txs[t].size_bytes).sum();
        self.apply(now, 0, actions);
        self.stamp_prepared(now);
    }

    /// Carry out a replica's actions. The simulation is fault-free, so any
    /// action beyond the normal-case three is a protocol bug.
    fn apply(&mut self, now: SimTime, node: usize, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Broadcast(msg) => self.broadcast(now, node, msg),
                Action::Execute { seq, txs, digest } => self.execute(node, seq, &txs, digest),
                Action::CommittedLocal { seq, .. } => {
                    let block = self.nodes[node]
                        .uncommitted
                        .remove(&seq)
                        .expect("a block commits only after it executed");
                    self.nodes[node].committed.insert(seq, block);
                    if node == 0 {
                        let s = self.stamps.remove(&seq).expect("node 0 proposed it");
                        let prepared = s.prepared.expect("prepared before executed");
                        let executed = s.executed.expect("executed before committed");
                        self.consensus_latencies
                            .push((prepared - s.proposed) + (now - executed));
                    }
                }
                other => panic!("node {node}: unexpected {other:?} in a fault-free run"),
            }
        }
    }

    fn broadcast(&mut self, now: SimTime, from: usize, msg: PeerMsg) {
        // A PrePrepare carries ordering metadata (digests) only; every
        // vote is a fixed-size signed record.
        let size = match &msg {
            PeerMsg::PrePrepare { seq, txs, .. } => {
                if from == 0 {
                    self.stamps.insert(
                        *seq,
                        Stamps {
                            proposed: now,
                            prepared: None,
                            executed: None,
                        },
                    );
                }
                96 + 32 * txs.len()
            }
            _ => 96,
        };
        for to in 0..self.config.nodes {
            if to == from {
                continue;
            }
            let at = self.network.send_at(
                now,
                self.config.zone_of[from],
                self.config.zone_of[to],
                size,
            );
            self.queue.schedule_at(
                at,
                Ev::Deliver {
                    from,
                    to,
                    msg: msg.clone(),
                },
            );
        }
    }

    /// Record when node 0's in-flight proposals reach a prepare quorum.
    fn stamp_prepared(&mut self, now: SimTime) {
        let replica = &self.nodes[0].replica;
        for (seq, s) in self.stamps.iter_mut() {
            if s.prepared.is_none() && replica.is_prepared(*seq) {
                s.prepared = Some(now);
            }
        }
    }

    fn execute(&mut self, node: usize, seq: u64, txs: &[Vec<u8>], root: [u8; 32]) {
        let block: Vec<usize> = txs
            .iter()
            .map(|b| u64::from_le_bytes(b[..].try_into().expect("8-byte tx index")) as usize)
            .collect();
        let preverify = self.config.preverify;
        let jobs: Vec<(u64, u64)> = block
            .iter()
            .map(|&t| {
                let tx = &self.txs[t];
                (tx.execution_phase_cycles(preverify), tx.conflict_key)
            })
            .collect();
        // A zero-thread config cannot execute anything; treat it as one
        // worker rather than wedging the simulation.
        let exec_cycles =
            makespan(&jobs, self.config.threads.max(1)).expect("threads clamped to >= 1");
        let cycles = self.config.block_overhead_cycles + exec_cycles;
        let exec_ns = self.config.model.cycles_to_ns(cycles);
        if node == 0 {
            self.exec_times.push(exec_ns);
        }
        self.nodes[node].uncommitted.insert(seq, block);
        // The block digest stands in for the state root: every node
        // executes the same block, so all of them vote the same root.
        self.queue
            .schedule_in(exec_ns, Ev::ExecDone { node, seq, root });
    }
}

fn mean(xs: &[SimTime]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use confide_sim::event::US;

    fn workload(n: usize, conflict_groups: u64) -> Vec<(SimTime, SimTx)> {
        (0..n)
            .map(|i| {
                (
                    (i as u64) * 200_000, // 0.2 ms apart
                    SimTx::confidential(
                        512,
                        i as u64 % conflict_groups,
                        2_000_000, // ~0.54 ms execution
                        370_000,
                        814_000,
                        9_000,
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn four_node_chain_commits_everything() {
        let cfg = ChainConfig::local(4);
        let mut sim = ChainSim::new(cfg, NetworkModel::lan(1));
        let report = sim.run(workload(100, 16));
        assert_eq!(report.committed_txs, 100);
        assert!(report.blocks > 0);
        assert!(report.tps > 0.0);
        assert!(report.messages > 0);
    }

    #[test]
    fn two_zone_members_agree_on_every_committed_block() {
        // Sixteen members split 1:2 across zones: the far zone trails the
        // primary by a cross-zone round trip, so followers routinely see
        // proposals at the edge of the watermark window while still
        // executing the block before. Every member must commit the same
        // log, and nothing may be lost.
        let mut sim = ChainSim::new(ChainConfig::two_zone(16), NetworkModel::two_zone(1));
        let report = sim.run(workload(200, 32));
        assert_eq!(report.committed_txs, 200);
        let reference = sim.committed_blocks(0);
        assert_eq!(reference.iter().map(|(_, b)| b.len()).sum::<usize>(), 200);
        for node in 1..16 {
            assert_eq!(sim.committed_blocks(node), reference, "member {node}");
        }
    }

    #[test]
    fn throughput_stable_with_more_nodes_single_zone() {
        // Figure 11's flat single-zone curves: TPS within a modest band
        // from 4 to 16 nodes on a LAN.
        let tps: Vec<f64> = [4usize, 8, 16]
            .iter()
            .map(|&n| {
                let mut sim = ChainSim::new(ChainConfig::local(n), NetworkModel::lan(1));
                sim.run(workload(200, 32)).tps
            })
            .collect();
        let min = tps.iter().cloned().fold(f64::MAX, f64::min);
        let max = tps.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.6, "{tps:?}");
    }

    #[test]
    fn two_zone_latency_hurts_at_scale() {
        let lan = {
            let mut sim = ChainSim::new(ChainConfig::local(12), NetworkModel::lan(1));
            sim.run(workload(200, 32))
        };
        let wan = {
            let mut sim = ChainSim::new(ChainConfig::two_zone(12), NetworkModel::two_zone(1));
            sim.run(workload(200, 32))
        };
        assert!(
            wan.avg_consensus_latency_ns > 2.0 * lan.avg_consensus_latency_ns,
            "wan {} vs lan {}",
            wan.avg_consensus_latency_ns,
            lan.avg_consensus_latency_ns
        );
        assert!(wan.tps < lan.tps);
    }

    #[test]
    fn parallel_execution_helps_then_saturates() {
        let tps_for = |threads: usize| {
            let mut cfg = ChainConfig::local(4);
            cfg.threads = threads;
            // Execution-bound workload: heavy txs, 4 conflict groups.
            let txs: Vec<(SimTime, SimTx)> = (0..200)
                .map(|i| {
                    (
                        i as u64 * 50_000,
                        SimTx::confidential(512, i as u64 % 4, 8_000_000, 370_000, 814_000, 9_000),
                    )
                })
                .collect();
            ChainSim::new(cfg, NetworkModel::lan(1)).run(txs).tps
        };
        let t1 = tps_for(1);
        let t4 = tps_for(4);
        let t6 = tps_for(6);
        assert!(t4 > 1.5 * t1, "t1={t1} t4={t4}");
        assert!((t6 - t4).abs() / t4 < 0.15, "t4={t4} t6={t6}");
    }

    #[test]
    fn preverification_improves_throughput() {
        let tps_for = |preverify: bool| {
            let mut cfg = ChainConfig::local(4);
            cfg.preverify = preverify;
            ChainSim::new(cfg, NetworkModel::lan(1))
                .run(workload(200, 32))
                .tps
        };
        let with = tps_for(true);
        let without = tps_for(false);
        assert!(with > without, "with={with} without={without}");
    }

    #[test]
    fn consensus_latency_in_sane_range_on_lan() {
        let mut sim = ChainSim::new(ChainConfig::local(4), NetworkModel::lan(1));
        let report = sim.run(workload(50, 8));
        // Three one-way LAN hops plus slack: sub-10ms.
        assert!(report.avg_consensus_latency_ns < 10.0 * MS as f64);
        assert!(report.avg_consensus_latency_ns > 500.0 * US as f64);
    }

    #[test]
    fn block_write_time_matches_disk_model() {
        let mut sim = ChainSim::new(ChainConfig::local(4), NetworkModel::lan(1));
        let report = sim.run(workload(50, 8));
        assert!(
            (5.0 * MS as f64..9.0 * MS as f64).contains(&report.avg_block_write_ns),
            "{}",
            report.avg_block_write_ns
        );
    }

    #[test]
    fn empty_run_is_quiet() {
        let mut sim = ChainSim::new(ChainConfig::local(4), NetworkModel::lan(1));
        let report = sim.run(vec![]);
        assert_eq!(report.committed_txs, 0);
        assert_eq!(report.blocks, 0);
    }

    #[test]
    fn verification_workers_remove_the_preverify_bottleneck() {
        // §5.2: "The two operations can be done in parallel among
        // transactions". With one verify worker, the asymmetric
        // pre-verification (≈0.32 ms/tx) serializes ahead of consensus;
        // with eight, it pipelines away.
        let tps_for = |workers: usize| {
            let mut cfg = ChainConfig::local(4);
            cfg.verify_workers = workers;
            cfg.threads = 4;
            // Cheap execution so verification is the potential bottleneck.
            let txs: Vec<(SimTime, SimTx)> = (0..400)
                .map(|i| {
                    (
                        i * 50_000,
                        SimTx::confidential(512, i % 32, 200_000, 370_000, 814_000, 9_000),
                    )
                })
                .collect();
            ChainSim::new(cfg, NetworkModel::lan(3)).run(txs).tps
        };
        let one = tps_for(1);
        let eight = tps_for(8);
        assert!(
            eight > 1.5 * one,
            "parallel verification should lift throughput: 1 worker {one:.0}, 8 workers {eight:.0}"
        );
    }
}
