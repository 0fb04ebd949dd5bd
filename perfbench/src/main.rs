//! Wall-clock benchmark of CONFIDE on real sockets.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload conf_fresh --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run, in this order:
//!
//! 1. Seal every input from `--seed` (no clock runs).
//! 2. Boot the workload's node `setup_reps` times, keep the last one.
//! 3. Saturation phase: a closed loop over two connections through a
//!    fixed pool of requests sized to last half of `--seconds` at the
//!    seed's speed; `tps` is verified commits ÷ wall time. A fixed amount
//!    of work leaves the same state behind on every version, so the rate
//!    phase starts from the same state size.
//! 4. Rate phase (the other half): an open loop at the workload's fixed
//!    rate; `commit_p50_ms`/`commit_p99_ms` run from each request's due
//!    time to its verified `Committed` reply.
//! 5. Replay the committed blocks on a fresh node (untimed) and check
//!    roots and counts against the wire.
//! 6. Without `--trace`, boot `setup_reps` more times, with nothing else
//!    running; `setup_s` is the median over the boots of both ends.
//!    With `--trace 1`, replay once more with every layer call timed, and
//!    print the per-layer metrics instead of the end-to-end ones.
//!
//! The last stdout line is one JSON object. Any correctness failure exits
//! non-zero without it.

mod boot;
mod drive;
mod gen;
mod replay;
mod spec;
mod trace;

use boot::System;
use drive::Tally;
use replay::Replay;
use spec::Spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use trace::Tracer;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut spec = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(Spec::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Scratch directory for WALs, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Counters the program already exposes.
#[derive(Default, Clone, Copy)]
struct Counters {
    blocks: u64,
    committed: u64,
    busy: u64,
    preverify_ns: u64,
    execute_ns: u64,
    commit_ns: u64,
    fsyncs: u64,
    fsync_blocks: u64,
    hits: u64,
    misses: u64,
    height: u64,
}

fn snapshot(sys: &System) -> Counters {
    let st = sys.server.stats();
    let p = sys.server.pipeline_stats();
    let node = sys.server.node().read().expect("node lock");
    let cache = node.confidential_engine.cache_stats();
    Counters {
        blocks: st.blocks.load(Ordering::SeqCst),
        committed: st.committed.load(Ordering::SeqCst),
        busy: st.busy.load(Ordering::SeqCst),
        preverify_ns: p.preverify_ns.load(Ordering::SeqCst),
        execute_ns: p.execute_ns.load(Ordering::SeqCst),
        commit_ns: p.commit_ns.load(Ordering::SeqCst),
        fsyncs: p.fsyncs.load(Ordering::SeqCst),
        fsync_blocks: p.fsync_blocks.load(Ordering::SeqCst),
        hits: cache.preverify_hits,
        misses: cache.preverify_misses,
        height: node.blocks.height(),
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Boot the node `n` times, each after the previous boot has shut down
/// (joining every thread), and return the last with every boot's time.
fn boots(
    n: usize,
    seed: u64,
    inputs: &gen::Inputs,
    dir: &Path,
    tag: &str,
) -> Result<(System, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    let mut sys = None;
    for rep in 0..n {
        drop(sys.take());
        let wal = dir.join(format!("{tag}{rep}.wal"));
        let t = Instant::now();
        sys = Some(boot::boot(seed, inputs, &wal)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((sys.expect("at least one boot"), times))
}

/// The two client threads of one phase, one per connection.
fn phase(
    conns: &mut [drive::Wire; 2],
    f: impl Fn(usize, &mut drive::Wire) -> Result<Tally, String> + Sync,
) -> Result<Tally, String> {
    let [w0, w1] = conns;
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| f(1, w1));
        let first = f(0, w0);
        (first, other.join().expect("client thread"))
    });
    let mut t = a?;
    t.merge(b?);
    Ok(t)
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(
        name.to_string(),
        (if value.is_finite() { value } else { 0.0 }, unit),
    );
}

/// `<name>.count`, `.p50` and `.p99` of one timed layer.
fn put_dist(m: &mut Metrics, name: &str, ns: &[u64], per_unit_ns: f64, unit: &'static str) {
    let mut v = ns.to_vec();
    v.sort_unstable();
    put(m, &format!("{name}.count"), v.len() as f64, "count");
    put(
        m,
        &format!("{name}.p50"),
        quantile(&v, 0.50) as f64 / per_unit_ns,
        unit,
    );
    put(
        m,
        &format!("{name}.p99"),
        quantile(&v, 0.99) as f64 / per_unit_ns,
        unit,
    );
}

/// Timed layers: span name, metric name, ns per unit, unit.
const LAYERS: [(&str, &str, f64, &str); 12] = [
    ("frame.decode", "frame.decode_us", 1e3, "us"),
    ("ed25519.verify", "ed25519.verify_us", 1e3, "us"),
    ("envelope.open", "envelope.open_us", 1e3, "us"),
    ("gcm.seal", "gcm.seal_us", 1e3, "us"),
    ("engine.preverify", "engine.preverify_us", 1e3, "us"),
    ("engine.plan", "engine.plan_us", 1e3, "us"),
    ("engine.execute", "engine.execute_us", 1e3, "us"),
    ("state.root", "state.root_ms", 1e6, "ms"),
    ("wal.fsync", "wal.fsync_ms", 1e6, "ms"),
    ("consensus.msg_sign", "consensus.msg_sign_us", 1e3, "us"),
    ("consensus.msg_verify", "consensus.msg_verify_us", 1e3, "us"),
    (
        "consensus.cert_verify",
        "consensus.cert_verify_us",
        1e3,
        "us",
    ),
];

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let clock = Instant::now();
    let log = |what: &str| {
        eprintln!(
            "perfbench: {:7.2}s {:6.1} MiB peak  {what}",
            clock.elapsed().as_secs_f64(),
            peak_rss_mib()
        )
    };
    let spec = args.spec;
    let seed = args.seed;
    let work = WorkDir(Path::new(".perfbench").join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;

    // 1. Inputs, sealed before any clock.
    let sat_secs = args.seconds / 2.0;
    let rate_secs = args.seconds - sat_secs;
    let sat_n = (spec.sat_tps * sat_secs / 2.0).ceil() as usize;
    let rate_n = (spec.rate_tps * rate_secs / 2.0).ceil() as usize;
    let pk_tx = confide_net::demo::demo_keys(seed).envelope.public();
    let inputs = gen::build(&spec, seed, &pk_tx, sat_n, rate_n);
    log("inputs sealed");

    // 2. Bootstrap, several times.
    let (mut sys, mut setup) = boots(spec.setup_reps, seed, &inputs, &work.0, "early")?;
    log("booted");
    let c0 = snapshot(&sys);

    // 3. Saturation: closed loop.
    let window = spec.window / 2;
    let t_sat = Instant::now();
    // The pool is the phase's work; the stop time only bounds a stall.
    let stop_at = t_sat + Duration::from_secs_f64(sat_secs * 6.0);
    let sat = phase(&mut sys.conns, |c, wire| {
        drive::closed(wire, &inputs.sat[c], window, stop_at)
    })?;
    let sat_wall = sat
        .last_reply
        .unwrap_or(t_sat)
        .duration_since(t_sat)
        .as_secs_f64();
    let sat_ok = sat.ok;
    let sat_tps = sat.steady_tps();
    let c1 = snapshot(&sys);
    log(&format!(
        "saturation: {sat_ok} verified in {sat_wall:.3}s ({sat_tps:.1} tx/s steady), {} blocks, execute {:.2}s preverify {:.2}s",
        c1.blocks - c0.blocks,
        (c1.execute_ns - c0.execute_ns) as f64 / 1e9,
        (c1.preverify_ns - c0.preverify_ns) as f64 / 1e9,
    ));

    // 4. Rate: open loop at the fixed offered rate.
    let t0 = Instant::now() + Duration::from_millis(20);
    let rate = spec.rate_tps;
    let rated = phase(&mut sys.conns, |c, wire| {
        drive::open(
            wire,
            &inputs.rate[c],
            |j| Duration::from_secs_f64((2 * j + c) as f64 / rate),
            t0,
        )
    })?;
    let rate_wall = rated
        .last_reply
        .unwrap_or(t0)
        .saturating_duration_since(t0)
        .as_secs_f64();
    let c2 = snapshot(&sys);
    log(&format!(
        "rate: {} blocks, execute {:.2}s preverify {:.2}s",
        c2.blocks - c1.blocks,
        (c2.execute_ns - c1.execute_ns) as f64 / 1e9,
        (c2.preverify_ns - c1.preverify_ns) as f64 / 1e9,
    ));
    let peak_rss = peak_rss_mib();

    // 5. The untimed replay as the correctness gate.
    let (wal, wire_root) = {
        let node = sys.server.node().read().expect("node lock");
        (node.wal_bytes().to_vec(), node.state_root())
    };
    let genesis_height = sys.genesis_height;
    sys.server.shutdown();
    let blocks = c2.blocks - c0.blocks;
    let committed = c2.committed - c0.committed;
    let range = (c0.height, c2.height);
    let gate = |r: &Replay| -> Result<(), String> {
        if r.final_height != c2.height || r.final_root != wire_root {
            return Err(format!(
                "replay ended at height {} with a root that differs from the wire node's (height {})",
                r.final_height, c2.height
            ));
        }
        if r.range_blocks != blocks || r.range_txs != committed {
            return Err(format!(
                "replayed {} blocks / {} txs, the server counted {blocks} / {committed}",
                r.range_blocks, r.range_txs
            ));
        }
        Ok(())
    };
    let mut off = Tracer::new(false);
    let plain = replay::replay(
        &spec,
        seed,
        &inputs,
        &wal,
        genesis_height,
        range,
        &work.0,
        args.trace,
        &mut off,
    )?;
    gate(&plain)?;
    log("replayed");

    let mut all = sat;
    all.merge(rated);
    let Tally {
        attempted,
        latency_us,
        lag_us,
        ..
    } = &all;
    let failed = all.failed();
    let mut latency = latency_us.clone();
    latency.sort_unstable();
    let mut lag = lag_us.clone();
    lag.sort_unstable();

    let mut m = Metrics::new();
    if !args.trace {
        // A boot takes milliseconds on `conf_fresh` and this host's speed
        // drifts, so boots at both ends of the run give `setup_s`.
        let (last, late) = boots(spec.setup_reps, seed, &inputs, &work.0, "late")?;
        drop(last);
        setup.extend(late);
        log("booted again");
        put(&mut m, "setup_s", median_f64(setup), "s");
        put(&mut m, "tps", sat_tps, "tx/s");
        put(
            &mut m,
            "commit_p50_ms",
            quantile(&latency, 0.50) as f64 / 1e3,
            "ms",
        );
        put(
            &mut m,
            "commit_p99_ms",
            quantile(&latency, 0.99) as f64 / 1e3,
            "ms",
        );
        put(&mut m, "peak_rss_mb", peak_rss, "MiB");
    } else {
        // 6. The timed replay.
        let mut tr = Tracer::new(true);
        let timed = replay::replay(
            &spec,
            seed,
            &inputs,
            &wal,
            genesis_height,
            range,
            &work.0,
            true,
            &mut tr,
        )?;
        gate(&timed)?;
        log("replayed with spans");
        for (span, name, per, unit) in LAYERS {
            put_dist(&mut m, name, &tr.durations(span), per, unit);
        }
        // Node self time: the block minus its state root.
        let mut exec: BTreeMap<u64, u64> = BTreeMap::new();
        let mut root: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &tr.spans {
            match s.name {
                "node.execute_block" => *exec.entry(s.block).or_default() += s.end_ns - s.start_ns,
                "state.root" => *root.entry(s.block).or_default() += s.end_ns - s.start_ns,
                _ => {}
            }
        }
        let block_self: Vec<u64> = exec
            .iter()
            .map(|(b, e)| e.saturating_sub(root.get(b).copied().unwrap_or(0)))
            .collect();
        put_dist(&mut m, "node.block_self_ms", &block_self, 1e6, "ms");
        // The root's share of block execution, per phase.
        let share = |from: u64, to: u64| {
            let sum = |m: &BTreeMap<u64, u64>| m.range(from + 1..=to).map(|(_, v)| *v).sum::<u64>();
            ratio(sum(&root) as f64, sum(&exec) as f64)
        };
        put(
            &mut m,
            "state.root_share_sat",
            share(c0.height, c1.height),
            "fraction",
        );
        put(
            &mut m,
            "state.root_share_rate",
            share(c1.height, c2.height),
            "fraction",
        );
        let txs = timed.txs as f64;
        put(
            &mut m,
            "node.static_sched_rate",
            ratio(timed.static_blocks as f64, timed.blocks as f64),
            "fraction",
        );
        put(
            &mut m,
            "state.keys_per_tx",
            ratio(timed.keys_added as f64, txs),
            "keys/tx",
        );
        put(
            &mut m,
            "wal.bytes_per_tx",
            ratio(timed.wal_bytes as f64, txs),
            "B/tx",
        );
        put(
            &mut m,
            "consensus.msgs_per_block",
            ratio(timed.msgs as f64, timed.blocks as f64),
            "msgs/block",
        );
        put(
            &mut m,
            "consensus.bytes_per_block",
            ratio(timed.msg_bytes as f64, timed.blocks as f64),
            "B/block",
        );
        let own = tr.self_ns();
        let named: u64 = tr
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name != "replay.block")
            .map(|(_, o)| *o)
            .sum();
        put(
            &mut m,
            "trace.coverage",
            ratio(named as f64, timed.wall_ns as f64),
            "fraction",
        );
        put(
            &mut m,
            "trace.overhead",
            ratio(timed.wall_ns as f64, plain.wall_ns as f64) - 1.0,
            "fraction",
        );

        let wall_ns = (sat_wall + rate_wall) * 1e9;
        let d = |f: fn(&Counters) -> u64| (f(&c2) - f(&c0)) as f64;
        put(
            &mut m,
            "pipeline.preverify_busy",
            ratio(d(|c| c.preverify_ns), wall_ns),
            "s/s",
        );
        put(
            &mut m,
            "pipeline.execute_busy",
            ratio(d(|c| c.execute_ns), wall_ns),
            "s/s",
        );
        put(
            &mut m,
            "pipeline.commit_busy",
            ratio(d(|c| c.commit_ns), wall_ns),
            "s/s",
        );
        put(
            &mut m,
            "pipeline.blocks_per_fsync",
            ratio(d(|c| c.fsync_blocks), d(|c| c.fsyncs)),
            "blocks",
        );
        put(
            &mut m,
            "pipeline.txs_per_block",
            ratio(d(|c| c.committed), d(|c| c.blocks)),
            "tx/block",
        );
        put(
            &mut m,
            "engine.preverify_hit_rate",
            ratio(d(|c| c.hits), d(|c| c.hits) + d(|c| c.misses)),
            "fraction",
        );
        put(&mut m, "server.busy_rejects", d(|c| c.busy), "count");
        put(
            &mut m,
            "client.gen_lag_p99_ms",
            quantile(&lag, 0.99) as f64 / 1e3,
            "ms",
        );
        put(
            &mut m,
            "client.commit_samples",
            latency.len() as f64,
            "count",
        );
        put(
            &mut m,
            "client.error_rate",
            ratio(failed as f64, *attempted as f64),
            "fraction",
        );
        if let Err(e) =
            tr.write_tsv(&Path::new(".perfbench").join(format!("spans-{}-{seed}.tsv", spec.name)))
        {
            eprintln!("perfbench: spans not written: {e}");
        }
    }
    let metrics: Vec<String> = m
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
