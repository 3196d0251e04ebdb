#!/usr/bin/env bash
# Full verification sweep:
#   1. documentation checks (markdown links, header doc presence),
#   2. plain build + the entire test suite (the tier-1 gate, including
#      the Golden.* paper-output locks), then a forced-scalar leg
#      (PPC_DISABLE_AVX2=1) over the SIMD-dispatching tests and the
#      goldens so the portable kernels stay exercised,
#   3. perfbench build + its own tests: the benchmark package under
#      perfbench/ links against src/, so an API change that breaks the
#      benchmark fails here,
#   4. retune smoke: bench_drift_recovery end to end, asserting the
#      retuning arm refits and the generation handoff serves gap-free,
#   5. workload-zoo smoke: bench_workload_zoo drives all four named
#      scenarios against live servers, asserting determinism, zero
#      failures, a diurnal shed-ladder excursion and a drift refit,
#   6. cluster smoke test (router + 2 shards as real processes, with a
#      wire-level warm start),
#   7. cluster failover smoke: bench_cluster_failover SIGKILLs a shard
#      out of a 3-shard cluster mid-load and asserts availability,
#      zero wrong answers and an automatic warm rejoin,
#   8. the JSON-emitting benches + validation of every BENCH_*.json,
#      plus the open-loop fidelity gate on bench_server_throughput,
#   9. server smoke test (live TCP round-trips + clean shutdown),
#  10. ASan build + the entire test suite,
#  11. TSan build + the concurrency, metrics, server and router tests,
#  12. chaos stage: the randomized fault-injection tests (ctest label
#      `chaos`) under both sanitizers.
# The deterministic ctest stages exclude the chaos label (-LE chaos) so
# their runtime stays flat; the chaos stage runs it explicitly (-L chaos).
# Usage: scripts/check.sh [--skip-sanitizers]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
SKIP_SAN=0
[ "${1:-}" = "--skip-sanitizers" ] && SKIP_SAN=1

echo "==> documentation checks (markdown links, header doc comments)"
python3 scripts/check_docs.py

echo "==> plain build + full test suite"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -LE chaos -j "$JOBS")

echo "==> forced-scalar leg (PPC_DISABLE_AVX2=1): kernels, predictor, goldens"
# Reruns every test that exercises the SIMD dispatch with the AVX2 tier
# disabled, so the portable scalar kernels stay a first-class code path
# (they are the bit-identity oracle and the fallback on older CPUs). The
# set is the ctest label `simd`, declared where the tests are (see
# tests/CMakeLists.txt); it includes the Golden tests, which rerun the
# paper benches, whose output must not depend on the tier.
(cd build && PPC_DISABLE_AVX2=1 \
  ctest --output-on-failure -L simd -LE chaos -j "$JOBS")

echo "==> perfbench build + tests (the benchmark compiles against src/)"
# perfbench/ is a CMake package of its own that builds src/ and links its
# harness (an in-process PlanServer and PlanRouter) against it.
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  >/dev/null
cmake --build build-perfbench -j "$JOBS" \
  --target perfbench_harness perfbench_tests
./build-perfbench/perfbench_tests
echo "    perfbench harness builds, perfbench_tests pass"

echo "==> retune smoke (drift-triggered refit + warm generation handoff)"
# bench_drift_recovery runs the retuning-on vs. -off arms end to end:
# recall-collapse trigger, background refit, generation handoff under a
# live PREDICT prober. The zero-serving-gap claim and the fact that the
# retuning arm actually refit are asserted, not just recorded.
(cd build && timeout 300 ./bench/bench_drift_recovery >/dev/null && \
  python3 -c "
import json
d = json.load(open('BENCH_drift_recovery.json'))
assert d['zero_serving_gap'] is True, 'probe failures during handoff'
assert d['retune_on']['refits'] >= 1, 'retuning arm never refit'
")
echo "    drift-triggered refit + zero-gap handoff ok"

echo "==> workload-zoo smoke (four named scenarios against live servers)"
# bench_workload_zoo replays every scenario in the zoo (zipf_tenants,
# diurnal_flash, correlated_predicates, adversarial_drift) against a
# live PlanServer. The bench itself asserts stream determinism and zero
# request failures; the JSON checks below re-assert the two behavioural
# claims docs/WORKLOADS.md makes: diurnal_flash climbs the shed ladder,
# adversarial_drift triggers at least one retune refit.
(cd build && timeout 600 ./bench/bench_workload_zoo >/dev/null && \
  python3 -c "
import json
d = json.load(open('BENCH_workload_zoo.json'))
by_name = {s['scenario']: s for s in d['scenarios']}
assert set(by_name) == {'zipf_tenants', 'diurnal_flash',
                        'correlated_predicates', 'adversarial_drift'}
for s in by_name.values():
    assert s['deterministic'] is True, s['scenario'] + ' not deterministic'
    assert s['failures'] == 0, s['scenario'] + ' had request failures'
shed = by_name['diurnal_flash']['shed']
assert shed['enter_no_microbatch'] >= 1, 'flash never entered shed rung 1'
assert shed['enter_abstain'] >= 1, 'flash never entered shed rung 2'
assert by_name['adversarial_drift']['retune']['refits'] >= 1, \
    'drift scenario never refit'
")
echo "    four scenarios deterministic, shed ladder + drift refit ok"

echo "==> cluster smoke test (ppc_router + 2 ppc_server shards, real processes)"
# bench_cluster_throughput fork/execs the ppc_server and ppc_router
# binaries, waits on their LISTENING readiness lines, warm-starts the
# second shard from the first over SNAPSHOT, and asserts the joiner
# answers identically to the leader (shard-direct adoption probe) and
# serves its templates at the steady-phase hit rate — a non-zero exit
# or a hang fails the sweep. Its BENCH_cluster_throughput.json is
# validated below.
(cd build && timeout 180 ./bench/bench_cluster_throughput >/dev/null)
echo "    warm-started join + routed round-trips + clean teardown ok"

echo "==> cluster failover smoke (SIGKILL a shard, failover + warm rejoin)"
# bench_cluster_failover runs 3 shards behind the router with the health
# model on, SIGKILLs the busiest shard mid-load, and respawns it cold.
# The bench itself asserts the robustness claims; the JSON checks below
# re-assert them from the recorded artifact (DESIGN.md §18).
(cd build && timeout 300 ./bench/bench_cluster_failover >/dev/null && \
  python3 -c "
import json
d = json.load(open('BENCH_cluster_failover.json'))
assert d['availability_excluding_detection'] >= 0.99, 'availability < 99%'
assert d['wrong_answers'] == 0, 'a shard contradicted ground truth'
assert d['failed_over_executes'] >= 1, 'no EXECUTE was FAILED_OVER-flagged'
assert d['rejoin']['auto_rejoined'] is True, 'shard never rejoined'
assert d['rejoin']['hit_rate_gap'] <= 0.05, 'rejoined shard came back cold'
assert d['samples'] > 0, 'the load threads recorded no samples'
assert d['probe_rounds'] >= 1, 'the ground-truth prober never probed'
")
echo "    failover availability + zero wrong answers + warm rejoin ok"

echo "==> machine-readable bench output (BENCH_*.json) is valid JSON"
(
  cd build
  ./bench/bench_concurrent_throughput >/dev/null
  ./bench/bench_drift_detection >/dev/null
  # bench_drift_recovery and bench_workload_zoo already ran in their
  # smoke stages above; their BENCH_*.json are picked up by the loop
  # below.
  ./bench/bench_fig13_runtime >/dev/null
  ./bench/bench_server_throughput >/dev/null
  for f in BENCH_*.json; do
    if command -v python3 >/dev/null; then
      python3 -m json.tool "$f" >/dev/null || { echo "invalid JSON: $f"; exit 1; }
    else
      jq . "$f" >/dev/null || { echo "invalid JSON: $f"; exit 1; }
    fi
    echo "    $f ok"
  done
  # The open loop reads responses as they arrive and times from the
  # scheduled arrival, so at 80% of the closed-loop rate its PREDICT p50
  # stays within a small factor of the closed loop's. A driver that
  # leaves responses unread behind its send window lands near 100x.
  python3 -c "
import json
d = json.load(open('BENCH_server_throughput.json'))
closed = d['closed_loop']['per_type']['predict']['p50_us']
opened = d['open_loop']['per_type']['predict']['p50_us']
message = 'open-loop PREDICT p50 %.1f us > 10x closed loop %.1f us'
assert opened <= 10 * closed, message % (opened, closed)
"
  echo "    open-loop PREDICT p50 within 10x of closed loop"
)

echo "==> server smoke test (ephemeral port, PREDICT/EXECUTE/METRICS over TCP)"
# The example starts a real PlanServer, drives it through PpcClient and
# shuts it down gracefully; a non-zero exit or a hang fails the sweep.
timeout 120 ./build/examples/mixed_workload_server >/dev/null
echo "    server round-trips + clean shutdown ok"

if [ "$SKIP_SAN" = 1 ]; then
  echo "==> sanitizer passes skipped"
  exit 0
fi

# Sanitizer builds compile only the library + tests (benches and examples
# would double the build for no extra coverage).
echo "==> AddressSanitizer build + full test suite"
cmake -B build-asan -S . -DPPC_SANITIZE=address \
  -DPPC_BUILD_BENCHMARKS=OFF -DPPC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure -LE chaos -j "$JOBS")
# The AVX2 kernels and the forced-scalar fallback both run under ASan:
# once in the full suite above, once with the dispatch pinned to scalar.
(cd build-asan && PPC_DISABLE_AVX2=1 \
  ctest --output-on-failure -L simd -LE chaos -j "$JOBS")

echo "==> ThreadSanitizer build + concurrency, metrics and server tests"
cmake -B build-tsan -S . -DPPC_SANITIZE=thread \
  -DPPC_BUILD_BENCHMARKS=OFF -DPPC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j "$JOBS"
(cd build-tsan && \
  ctest --output-on-failure -LE chaos \
    -R 'Concurrent|MetricsRegistry|FrameworkMetrics|Server|Router|HashRing|ClientReconnect|CircuitBreaker|ClusterFailover|Simd|Retune|Generation|DriftRecovery|Scenario|WorkloadZoo|Loadgen' \
    -j "$JOBS")

# Chaos stage: randomized mixed traffic against a live server while a
# saboteur thread arms and disarms failpoints, plus the tests that stall
# one flush with an armed failpoint (tests/test_server.cc, *Chaos*). Runs
# serially — each chaos test owns the process-global failpoint registry.
# PPC_CHAOS_SECONDS / PPC_CHAOS_SEED tune the randomized run.
echo "==> chaos stage (fault injection under ASan + TSan, label 'chaos')"
(cd build-asan && ctest --output-on-failure -L chaos)
(cd build-tsan && ctest --output-on-failure -L chaos)

echo "==> all checks passed"
