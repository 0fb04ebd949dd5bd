#!/usr/bin/env bash
# Repo gate: formatting, lints, tests, and the confidentiality lint over
# the shipped example contracts. Run from the repo root:
#
#   ./scripts/check.sh
#
# Everything is hermetic — no network access required.
set -euo pipefail
cd "$(dirname "$0")/.."

# The pipeline smoke parks thousands of loopback connections (2 fds
# each in-process): raise the fd ceiling as far as the hard limit
# allows before anything runs.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || true

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "== parallel-execution determinism gate =="
# The §6.2 executor must be serial-equivalent: bit-identical state roots
# and receipts at every thread count. Run the two determinism proofs
# explicitly so a filtered/partial test run can never skip them.
cargo test -q -p confide-core parallel_execution_is_serial_equivalent_on_randomized_workloads
cargo test -q -p confide-net --test e2e four_thread_node_matches_one_thread_node_bit_for_bit

echo "== mixed-engine (VM+EVM) determinism gate =="
# A block containing EVM transactions must take the whole-block OCC
# fallback under static scheduling and stay root-identical at every
# thread count — in-process and over the wire.
cargo test -q -p confide-core mixed_vm_evm_block_takes_occ_fallback_with_identical_roots
cargo test -q -p confide-net --test e2e evm_and_cross_engine_calls_commit_over_the_wire

echo "== state commitment gate =="
# The incrementally hashed state trie must root exactly like a
# from-scratch build after every block, and a 4096-deep chain of
# nested-prefix keys must apply and root on a 256 KiB stack. Each test is
# run by exact name and must report one pass, so a filtered or renamed
# test cannot slip through as "0 passed".
for t in incremental_root_matches_shuffled_rebuild_after_every_block \
    deep_nested_prefix_chain_roots_on_a_small_stack; do
    out=$(cargo test -q -p confide-storage --test state_trie -- --exact "$t")
    if ! grep -q "1 passed" <<<"$out"; then
        echo "FAIL: state commitment test $t did not run and pass" >&2
        exit 1
    fi
done
echo "ok: state trie matches from-scratch builds"

echo "== figure gate: harness stdout matches results/ =="
# The figure harnesses are deterministic (seeded DRBGs, virtual clock)
# and assert their own shape criteria. Each must exit 0 and print exactly
# its checked-in capture. ablation_tee prints a wall-clock timing line,
# so it is not gated.
cargo build -q --release -p confide-bench --bins
for fig in fig10 fig11 fig12 prod64 table1 ablation_state; do
    if ! ./target/release/"$fig" | diff -u "results/$fig.txt" -; then
        echo "FAIL: $fig failed or its output differs from results/$fig.txt" >&2
        exit 1
    fi
done
echo "ok: six figure harnesses match results/"

echo "== cclc --lint over examples/ccl =="
CCLC=(cargo run -q -p confide-lang --bin cclc --)
SCHEMA=examples/ccl/bank.ccle

# Clean contracts must lint deployable (exit 0)…
"${CCLC[@]}" examples/ccl/counter.ccl --lint --lint-schema "$SCHEMA"
"${CCLC[@]}" examples/ccl/bank.ccl --lint --lint-schema "$SCHEMA"

# …and the seeded leaky contract must be rejected (exit != 0).
if "${CCLC[@]}" examples/ccl/leaky.ccl --lint --lint-schema "$SCHEMA"; then
    echo "FAIL: leaky.ccl should not lint clean" >&2
    exit 1
else
    echo "ok: leaky.ccl rejected as expected"
fi

echo "== confide-audit over examples/ccl =="
# The full static pipeline (lint + verify + access analysis + the
# summary-vs-journal differential check), machine-readable. Clean
# contracts must pass, and every exported method must survive the
# differential soundness check (no "ok":false anywhere).
AUDIT=(cargo run -q -p confide-core --bin confide-audit --)
AUDIT_OUT=$(mktemp)
"${AUDIT[@]}" --json --schema "$SCHEMA" \
    examples/ccl/counter.ccl examples/ccl/bank.ccl >"$AUDIT_OUT"
grep -q '"pass":true' "$AUDIT_OUT" \
    || { echo "FAIL: confide-audit did not pass clean contracts" >&2; exit 1; }
if grep -q '"ok":false' "$AUDIT_OUT"; then
    echo "FAIL: confide-audit found a differential soundness violation" >&2
    exit 1
fi
# The leaky contract must fail the audit (exit != 0).
if "${AUDIT[@]}" --json --schema "$SCHEMA" examples/ccl/leaky.ccl >"$AUDIT_OUT"; then
    echo "FAIL: leaky.ccl should not pass confide-audit" >&2
    exit 1
else
    echo "ok: leaky.ccl fails confide-audit as expected"
fi
rm -f "$AUDIT_OUT"

echo "== loopback smoke: confide-node + 100-tx loadgen burst =="
cargo build -q --release -p confide-net

NODE_LOG=$(mktemp)
SMOKE_OUT=$(mktemp -d)
./target/release/confide-node --port 0 >"$NODE_LOG" 2>/dev/null &
NODE_PID=$!
trap 'kill "$NODE_PID" 2>/dev/null || true' EXIT

# The node prints exactly one "LISTENING <addr>" line once bound.
NODE_ADDR=""
for _ in $(seq 1 100); do
    NODE_ADDR=$(awk '/^LISTENING /{print $2; exit}' "$NODE_LOG" || true)
    [ -n "$NODE_ADDR" ] && break
    sleep 0.1
done
if [ -z "$NODE_ADDR" ]; then
    echo "FAIL: confide-node never reported LISTENING" >&2
    exit 1
fi
echo "node up on $NODE_ADDR"

# 100 confidential txs; the loadgen exits non-zero unless every accepted
# receipt decrypts under its k_tx. The --pipeline flags add the
# pipelined-reactor bench (its own in-process node): a 2000-conn idle
# fleet parked on the reactor plus a 200-conn active fleet, gated below
# on model_ratio.
./target/release/confide-loadgen --addr "$NODE_ADDR" \
    --threads 2 --txs 50 --mode closed \
    --pipeline --pipeline-idle 2000 --pipeline-active 200 --pipeline-txs 4 \
    --out "$SMOKE_OUT/BENCH_smoke.json"
echo "ok: 100-tx burst committed and all receipts decrypted"

kill "$NODE_PID" 2>/dev/null || true
trap - EXIT

echo "== loadgen EVM smoke: wire workload on the EVM engine =="
# The same wire burst pointed at the demo node's confidential EVM
# contract (fresh self-hosted node: the worker identities are
# deterministic, so reusing the node above would replay nonces). The
# loadgen exits non-zero unless every receipt decrypts AND the emitted
# `evm` section's parity checks pass (OCC fallback, root match,
# cross-engine call).
./target/release/confide-loadgen --self-host \
    --threads 2 --txs 25 --mode closed --vm evm \
    --out "$SMOKE_OUT/BENCH_smoke_evm.json"
echo "ok: 50-tx EVM burst committed and all receipts decrypted"

echo "== chaos smoke: crash-after, WAL replay, sealed-key unseal =="
# Crash a durable node right after block 3 is fsync'd (worst-case window:
# durable but unacknowledged), restart it on the same WAL, and require
# the machine-readable RECOVERED line. DESIGN.md §12.
CHAOS_DIR=$(mktemp -d)
CHAOS_WAL="$CHAOS_DIR/node.wal"
./target/release/confide-node --port 0 --wal "$CHAOS_WAL" --crash-after 3 \
    >"$CHAOS_DIR/node1.log" 2>&1 &
NODE_PID=$!
trap 'kill "$NODE_PID" 2>/dev/null || true' EXIT
NODE_ADDR=""
for _ in $(seq 1 100); do
    NODE_ADDR=$(awk '/^LISTENING /{print $2; exit}' "$CHAOS_DIR/node1.log" || true)
    [ -n "$NODE_ADDR" ] && break
    sleep 0.1
done
[ -n "$NODE_ADDR" ] || { echo "FAIL: chaos node never reported LISTENING" >&2; exit 1; }
# The crash kills the server mid-burst, so the loadgen is expected to
# fail — only the node's exit code matters here.
./target/release/confide-loadgen --addr "$NODE_ADDR" --threads 1 --txs 20 \
    --mode closed --out "$CHAOS_DIR/ignored.json" >/dev/null 2>&1 || true
NODE_STATUS=0
wait "$NODE_PID" || NODE_STATUS=$?
trap - EXIT
if [ "$NODE_STATUS" -ne 101 ]; then
    echo "FAIL: crash-after hook did not fire (exit $NODE_STATUS, want 101)" >&2
    exit 1
fi
echo "ok: node crashed on schedule (exit 101) with WAL durable"

# Restart on the same WAL: keys must unseal from the sidecar, the log
# must replay, and the RECOVERED line reports how much and how fast.
./target/release/confide-node --port 0 --wal "$CHAOS_WAL" \
    >"$CHAOS_DIR/node2.log" 2>&1 &
NODE_PID=$!
trap 'kill "$NODE_PID" 2>/dev/null || true' EXIT
RECOVERED=""
for _ in $(seq 1 100); do
    RECOVERED=$(awk '/^RECOVERED /{print; exit}' "$CHAOS_DIR/node2.log" || true)
    [ -n "$RECOVERED" ] && break
    sleep 0.1
done
[ -n "$RECOVERED" ] || { echo "FAIL: restarted node printed no RECOVERED line" >&2; exit 1; }
echo "$RECOVERED"
REC_BLOCKS=$(echo "$RECOVERED" | sed -n 's/.*blocks=\([0-9]*\).*/\1/p')
REC_MS=$(echo "$RECOVERED" | sed -n 's/.*ms=\([0-9]*\).*/\1/p')
if [ -z "$REC_BLOCKS" ] || [ "$REC_BLOCKS" -lt 3 ]; then
    echo "FAIL: recovery replayed ${REC_BLOCKS:-0} blocks, want >= 3" >&2
    exit 1
fi
NODE_ADDR=""
for _ in $(seq 1 100); do
    NODE_ADDR=$(awk '/^LISTENING /{print $2; exit}' "$CHAOS_DIR/node2.log" || true)
    [ -n "$NODE_ADDR" ] && break
    sleep 0.1
done
[ -n "$NODE_ADDR" ] || { echo "FAIL: recovered node never reported LISTENING" >&2; exit 1; }
# The recovered node must still commit, and the recovery datapoint lands
# in the emitted JSON's "recovery" section.
./target/release/confide-loadgen --addr "$NODE_ADDR" --threads 1 --txs 20 \
    --mode closed --recover-ms "${REC_MS:-0}" --recovered-blocks "$REC_BLOCKS" \
    --out "$CHAOS_DIR/BENCH_chaos.json"
grep -q "\"recovered_blocks\": $REC_BLOCKS" "$CHAOS_DIR/BENCH_chaos.json" \
    || { echo "FAIL: recovery datapoint missing from BENCH_chaos.json" >&2; exit 1; }
echo "ok: recovered node serves traffic; recovery datapoint recorded"
kill "$NODE_PID" 2>/dev/null || true
trap - EXIT

echo "== cluster smoke: 4-node consortium, leader kill, root convergence =="
# DESIGN.md §14: four real confide-node processes form an attested PBFT
# mesh; a 200-tx burst keeps flowing while the leader is SIGKILLed, and
# the survivors must elect a new view and converge to byte-identical
# state roots.
CLUSTER_DIR=$(mktemp -d)
# Reserve four ephemeral ports together so every member can be handed the
# full peer list up front.
read -r P0 P1 P2 P3 < <(python3 - <<'PY'
import socket
socks = [socket.socket() for _ in range(4)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(*(s.getsockname()[1] for s in socks))
PY
)
PEERS="127.0.0.1:$P0,127.0.0.1:$P1,127.0.0.1:$P2,127.0.0.1:$P3"
CLUSTER_PIDS=()
for i in 0 1 2 3; do
    ./target/release/confide-node --node-id "$i" --peers "$PEERS" --cluster-keys 11 \
        >"$CLUSTER_DIR/node$i.log" 2>&1 &
    CLUSTER_PIDS+=($!)
done
trap 'kill "${CLUSTER_PIDS[@]}" 2>/dev/null || true' EXIT
for i in 0 1 2 3; do
    UP=""
    for _ in $(seq 1 100); do
        grep -q '^LISTENING ' "$CLUSTER_DIR/node$i.log" && { UP=1; break; }
        sleep 0.1
    done
    [ -n "$UP" ] || { echo "FAIL: cluster node $i never reported LISTENING" >&2; exit 1; }
done
echo "cluster up on $PEERS"

# 200 confidential txs spread across all four endpoints; kill the view-0
# leader (node 0) mid-stream. Redirect-following plus wire-hash dedup
# make the client-side retries exactly-once.
./target/release/confide-loadgen \
    --endpoint "127.0.0.1:$P0" --endpoint "127.0.0.1:$P1" \
    --endpoint "127.0.0.1:$P2" --endpoint "127.0.0.1:$P3" \
    --threads 4 --txs 50 --mode closed --out "$CLUSTER_DIR/BENCH_cluster.json" &
LOAD_PID=$!
sleep 0.3
kill -9 "${CLUSTER_PIDS[0]}" 2>/dev/null || true
wait "$LOAD_PID" \
    || { echo "FAIL: cluster burst did not survive the leader kill" >&2; exit 1; }
grep -q '"consensus"' "$CLUSTER_DIR/BENCH_cluster.json" \
    || { echo "FAIL: cluster run emitted no consensus section" >&2; exit 1; }

# Survivors: same height (>= 1), same root, and a view past 0.
CONVERGED=""
for _ in $(seq 1 100); do
    STATUS=$(./target/release/confide-loadgen --probe \
        --endpoint "127.0.0.1:$P1" --endpoint "127.0.0.1:$P2" \
        --endpoint "127.0.0.1:$P3" 2>/dev/null || true)
    if [ "$(echo "$STATUS" | grep -c '^STATUS ')" -eq 3 ]; then
        ROOTS=$(echo "$STATUS" | sed -n 's/.* root=\([0-9a-f]*\) .*/\1/p' | sort -u)
        HEIGHTS=$(echo "$STATUS" | sed -n 's/.* height=\([0-9]*\) .*/\1/p' | sort -u)
        MIN_VIEW=$(echo "$STATUS" | sed -n 's/.* view=\([0-9]*\) .*/\1/p' | sort -n | head -1)
        if [ "$(echo "$ROOTS" | wc -l)" -eq 1 ] \
            && [ "$(echo "$HEIGHTS" | wc -l)" -eq 1 ] \
            && [ "$HEIGHTS" -ge 1 ] && [ "${MIN_VIEW:-0}" -ge 1 ]; then
            CONVERGED=1
            break
        fi
    fi
    sleep 0.2
done
if [ -z "$CONVERGED" ]; then
    echo "FAIL: survivors did not converge after the leader kill" >&2
    ./target/release/confide-loadgen --probe \
        --endpoint "127.0.0.1:$P1" --endpoint "127.0.0.1:$P2" \
        --endpoint "127.0.0.1:$P3" >&2 || true
    exit 1
fi
echo "ok: survivors at height $HEIGHTS, view >= $MIN_VIEW, one root ${ROOTS:0:16}..."
kill "${CLUSTER_PIDS[@]}" 2>/dev/null || true
trap - EXIT
rm -rf "$CLUSTER_DIR"

echo "== byzantine chaos smoke: equivocating leader, evidence, WAL self-heal =="
# DESIGN.md §17: four confide-node processes, member 0 armed with the
# `equivocate` preset. The honest 3-of-4 must evict the offender
# (view >= 1), record durable equivocation evidence, keep committing a
# client burst, and converge to one root. Then member 3's WAL gets a
# byte flipped in the *middle* of the file; on restart it must print
# REPAIRED, backfill the dropped suffix over cert-verified state sync,
# and land back on the quorum root.
BYZ_DIR=$(mktemp -d)
read -r B0 B1 B2 B3 < <(python3 - <<'PY'
import socket
socks = [socket.socket() for _ in range(4)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(*(s.getsockname()[1] for s in socks))
PY
)
BPEERS="127.0.0.1:$B0,127.0.0.1:$B1,127.0.0.1:$B2,127.0.0.1:$B3"
BYZ_PIDS=()
for i in 0 1 2 3; do
    EXTRA=()
    [ "$i" -eq 0 ] && EXTRA+=(--byzantine equivocate)
    [ "$i" -eq 3 ] && EXTRA+=(--wal "$BYZ_DIR/node3.wal")
    ./target/release/confide-node --node-id "$i" --peers "$BPEERS" \
        --cluster-keys 17 "${EXTRA[@]}" >"$BYZ_DIR/node$i.log" 2>&1 &
    BYZ_PIDS+=($!)
done
trap 'kill "${BYZ_PIDS[@]}" 2>/dev/null || true' EXIT
for i in 0 1 2 3; do
    UP=""
    for _ in $(seq 1 100); do
        grep -q '^LISTENING ' "$BYZ_DIR/node$i.log" && { UP=1; break; }
        sleep 0.1
    done
    [ -n "$UP" ] || { echo "FAIL: byzantine node $i never reported LISTENING" >&2; exit 1; }
done
VC_T0=$(date +%s%3N)
# Burst across the full roster — the equivocating leader included, so
# its forked proposals actually reach the honest members (the loadgen
# only follows redirects to listed endpoints) and the forced view
# change is exercised mid-stream.
./target/release/confide-loadgen \
    --endpoint "127.0.0.1:$B0" --endpoint "127.0.0.1:$B1" \
    --endpoint "127.0.0.1:$B2" --endpoint "127.0.0.1:$B3" \
    --threads 2 --txs 15 --mode closed --out "$BYZ_DIR/ignored.json" \
    || { echo "FAIL: burst did not survive the equivocating leader" >&2; exit 1; }
BYZ_OK=""
for _ in $(seq 1 150); do
    STATUS=$(./target/release/confide-loadgen --probe \
        --endpoint "127.0.0.1:$B1" --endpoint "127.0.0.1:$B2" \
        --endpoint "127.0.0.1:$B3" 2>/dev/null || true)
    if [ "$(echo "$STATUS" | grep -c '^STATUS ')" -eq 3 ]; then
        ROOTS=$(echo "$STATUS" | sed -n 's/.* root=\([0-9a-f]*\) .*/\1/p' | sort -u)
        HEIGHTS=$(echo "$STATUS" | sed -n 's/.* height=\([0-9]*\) .*/\1/p' | sort -u)
        MIN_VIEW=$(echo "$STATUS" | sed -n 's/.* view=\([0-9]*\) .*/\1/p' | sort -n | head -1)
        EVIDENCE=$(echo "$STATUS" | sed -n 's/.*evidence=\([0-9]*\)$/\1/p' \
            | awk '{s+=$1} END{print s+0}')
        if [ "$(echo "$ROOTS" | wc -l)" -eq 1 ] \
            && [ "$(echo "$HEIGHTS" | wc -l)" -eq 1 ] \
            && [ "$HEIGHTS" -ge 1 ] && [ "${MIN_VIEW:-0}" -ge 1 ] \
            && [ "${EVIDENCE:-0}" -ge 1 ]; then
            BYZ_OK=1
            break
        fi
    fi
    sleep 0.2
done
VC_MS=$(( $(date +%s%3N) - VC_T0 ))
if [ -z "$BYZ_OK" ]; then
    echo "FAIL: honest members did not converge with evidence under attack" >&2
    ./target/release/confide-loadgen --probe \
        --endpoint "127.0.0.1:$B1" --endpoint "127.0.0.1:$B2" \
        --endpoint "127.0.0.1:$B3" >&2 || true
    exit 1
fi
echo "ok: leader evicted in ~${VC_MS}ms; evidence=$EVIDENCE; honest root ${ROOTS:0:16}..."

# Self-heal leg: flip a byte mid-WAL on member 3 and restart it.
kill "${BYZ_PIDS[3]}" 2>/dev/null || true
wait "${BYZ_PIDS[3]}" 2>/dev/null || true
python3 - "$BYZ_DIR/node3.wal" <<'PY'
import sys
path = sys.argv[1]
b = bytearray(open(path, "rb").read())
assert len(b) > 128, f"wal too small to corrupt: {len(b)} bytes"
b[len(b) // 2] ^= 0xFF
open(path, "wb").write(b)
PY
./target/release/confide-node --node-id 3 --peers "$BPEERS" --cluster-keys 17 \
    --wal "$BYZ_DIR/node3.wal" >"$BYZ_DIR/node3b.log" 2>&1 &
BYZ_PIDS[3]=$!
REPAIRED=""
for _ in $(seq 1 100); do
    REPAIRED=$(awk '/^REPAIRED /{print; exit}' "$BYZ_DIR/node3b.log" || true)
    [ -n "$REPAIRED" ] && break
    sleep 0.1
done
[ -n "$REPAIRED" ] || { echo "FAIL: corrupted member printed no REPAIRED line" >&2; exit 1; }
echo "$REPAIRED"
REPAIR_MS=$(echo "$REPAIRED" | sed -n 's/.*ms=\([0-9]*\).*/\1/p')
REPAIR_HEIGHT=$(echo "$REPAIRED" | sed -n 's/.*height=\([0-9]*\).*/\1/p')
HEAL_OK=""
for _ in $(seq 1 150); do
    STATUS=$(./target/release/confide-loadgen --probe \
        --endpoint "127.0.0.1:$B1" --endpoint "127.0.0.1:$B2" \
        --endpoint "127.0.0.1:$B3" 2>/dev/null || true)
    if [ "$(echo "$STATUS" | grep -c '^STATUS ')" -eq 3 ]; then
        HROOTS=$(echo "$STATUS" | sed -n 's/.* root=\([0-9a-f]*\) .*/\1/p' | sort -u)
        HHEIGHTS=$(echo "$STATUS" | sed -n 's/.* height=\([0-9]*\) .*/\1/p' | sort -u)
        if [ "$(echo "$HROOTS" | wc -l)" -eq 1 ] \
            && [ "$(echo "$HHEIGHTS" | wc -l)" -eq 1 ] \
            && [ "$HHEIGHTS" -ge "$HEIGHTS" ]; then
            HEAL_OK=1
            break
        fi
    fi
    sleep 0.2
done
[ -n "$HEAL_OK" ] || { echo "FAIL: healed member did not rejoin the quorum root" >&2; exit 1; }
REPAIR_BLOCKS=$(( HHEIGHTS - ${REPAIR_HEIGHT:-0} ))
echo "ok: member 3 self-healed (replayed to $REPAIR_HEIGHT, backfilled $REPAIR_BLOCKS blocks)"

# The measured drill feeds the schema-v7 byzantine section end to end.
./target/release/confide-loadgen --endpoint "127.0.0.1:$B1" \
    --threads 1 --txs 10 --mode closed \
    --byzantine-preset equivocate --byzantine-evidence "$EVIDENCE" \
    --view-change-ms "$VC_MS" --repair-blocks "$REPAIR_BLOCKS" \
    --repair-ms "${REPAIR_MS:-0}" --out "$BYZ_DIR/BENCH_byz.json" \
    || { echo "FAIL: post-attack burst against the healed cluster failed" >&2; exit 1; }
grep -q '"preset": "equivocate"' "$BYZ_DIR/BENCH_byz.json" \
    || { echo "FAIL: byzantine drill datapoint missing from BENCH_byz.json" >&2; exit 1; }
echo "ok: byzantine drill datapoint recorded in the v7 schema"
kill "${BYZ_PIDS[@]}" 2>/dev/null || true
trap - EXIT
rm -rf "$BYZ_DIR"

echo "== BENCH_net.json schema check =="
# Guard against schema drift in both the freshly emitted smoke report and
# the checked-in results/BENCH_net.json.
for f in "$SMOKE_OUT/BENCH_smoke.json" "$SMOKE_OUT/BENCH_smoke_evm.json" \
         results/BENCH_net.json; do
    for key in '"schema_version": 7' '"bench"' '"machine"' '"cores"' \
               '"workloads"' '"mode"' '"txs_submitted"' '"txs_accepted"' \
               '"busy_rejects"' '"busy_reject_rate"' '"receipts_verified"' \
               '"throughput_tps"' '"latency_ms"' '"p50"' '"p99"' \
               '"parallel_exec"' '"threads"' '"model_tps"' '"speedup_vs_1"' \
               '"exec_threads"' '"recovery"' '"recover_ms"' \
               '"recovered_blocks"' '"retries"' '"retries_exhausted"' \
               '"static_sched"' '"occ_spec_runs"' '"static_spec_runs"' \
               '"plan_cycles"' '"modeled_speedup"' '"roots_match"' \
               '"static_schedule"' '"consensus"' '"n"' '"view_changes"' \
               '"sync_blocks"' '"redirects"' '"evidence"' '"byzantine"' \
               '"preset"' '"view_change_ms"' '"repair_blocks"' \
               '"repair_ms"' '"cert_sign_us"' '"cert_verify_us"' \
               '"pipeline"' '"idle_conns"' \
               '"active_conns"' '"wire_tps"' '"model_ratio"' \
               '"stage_occupancy"' '"group_commit"' '"blocks_per_fsync"' \
               '"durable_height"' '"evm"' '"evm_model_tps"' \
               '"vm_model_tps"' '"vm_vs_evm_speedup"' '"mixed_occ_fallback"' \
               '"mixed_roots_match"' '"cross_call_ok"'; do
        if ! grep -q "$key" "$f"; then
            echo "FAIL: $f missing schema key $key" >&2
            exit 1
        fi
    done
    echo "ok: $f matches the BENCH_net schema"
done

echo "== pipeline gate: wire tps within 2x of exec-only model tps =="
# The pipelined reactor must deliver open-loop wire throughput within 2x
# of the same workload executed in-process with no sockets, no preverify
# pool and no fsync (model_ratio = model_tps / wire_tps <= 2.0). Checked
# on both the fresh smoke run and the checked-in results.
for f in "$SMOKE_OUT/BENCH_smoke.json" results/BENCH_net.json; do
    python3 - "$f" <<'PY'
import json, sys
path = sys.argv[1]
doc = json.load(open(path))
p = doc["pipeline"]
if not p["ran"]:
    sys.exit(f"FAIL: {path}: pipeline bench did not run")
if p["accepted"] < 1:
    sys.exit(f"FAIL: {path}: pipeline bench accepted no transactions")
ratio = p["model_ratio"]
if not (0 < ratio <= 2.0):
    sys.exit(f"FAIL: {path}: pipeline model_ratio {ratio} outside (0, 2.0]")
e = doc["evm"]
if not (e["mixed_occ_fallback"] and e["mixed_roots_match"] and e["cross_call_ok"]):
    sys.exit(f"FAIL: {path}: EVM parity checks failed: {e}")
if not e["vm_vs_evm_speedup"] > 1.0:
    sys.exit(f"FAIL: {path}: EVM did not price slower than CONFIDE-VM: {e}")
print(f"ok: {path}: model_ratio {ratio} <= 2.0 "
      f"({p['idle_conns']} idle + {p['active_conns']} active conns, "
      f"{p['group_commit']['blocks_per_fsync']} blocks/fsync)")
PY
done
rm -rf "$SMOKE_OUT" "$CHAOS_DIR"

echo "All checks passed."
