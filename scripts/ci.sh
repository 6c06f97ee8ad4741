#!/usr/bin/env bash
# Tier-1 gate plus the hermeticity guard.
#
# The workspace's testing policy (see DESIGN.md, "Hermetic testing") is
# that the default feature set resolves with ZERO registry dependencies,
# so `cargo build && cargo test` pass on a machine with no network. This
# script runs the tier-1 gate and then fails the build if any non-path
# dependency has crept back into a manifest.
#
# Usage: scripts/ci.sh  (from anywhere inside the repo)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tier-1: cargo test -q (whole workspace)"
cargo test --workspace -q --offline

echo "==> guard: benches must build under --features criterion-benches (release)"
cargo build --release -p karl-bench --benches --features criterion-benches --offline

echo "==> guard: batch engine bitwise-identical to sequential at KARL_THREADS=4"
KARL_THREADS=4 cargo test -q --offline -p karl --test batch_equivalence

echo "==> guard: frozen index matches the pointer tree node by node (bounds bitwise) at KARL_THREADS=4"
KARL_THREADS=4 cargo test -q --offline -p karl --test frozen_equivalence

echo "==> guard: persisted index round-trip bitwise-identical at KARL_THREADS=4"
KARL_THREADS=4 cargo test -q --offline -p karl --test index_persist_equivalence

echo "==> guard: mmap loader passes the round-trip suite (--features mmap)"
cargo test -q --offline -p karl --features mmap --test index_persist_equivalence
cargo test -q --offline -p karl-tree --features mmap

echo "==> guard: SIMD backends bitwise-interchangeable (dispatched run)"
cargo test -q --offline -p karl --test simd_equivalence

echo "==> guard: tier-1 equivalence suites replayed under KARL_SIMD=scalar"
# The forced-scalar backend must pass every bitwise gate the dispatched
# one does — the determinism contract cuts both ways.
KARL_SIMD=scalar cargo test -q --offline -p karl --test frozen_equivalence
KARL_SIMD=scalar cargo test -q --offline -p karl --test batch_equivalence
KARL_SIMD=scalar cargo test -q --offline -p karl --test index_persist_equivalence
KARL_SIMD=scalar cargo test -q --offline -p karl --test simd_equivalence
KARL_SIMD=scalar cargo test -q --offline -p karl-geom

echo "==> guard: run counters build and pass under --features stats"
cargo test -q --offline -p karl-core --features stats
cargo test -q --offline -p karl-cli --features stats

echo "==> guard: fault containment under --features fault-inject"
cargo test -q --offline -p karl --features fault-inject --test fault_containment
cargo test -q --offline -p karl-core --features fault-inject

echo "==> guard: fault containment replayed at KARL_THREADS=4"
KARL_THREADS=4 cargo test -q --offline -p karl --features fault-inject --test fault_containment

echo "==> guard: serve loop replayed at KARL_THREADS=4"
KARL_THREADS=4 cargo test -q --offline -p karl --test serve_loop

echo "==> guard: serve fault quarantine under --features fault-inject"
cargo test -q --offline -p karl --features fault-inject --test serve_fault

echo "==> guard: TCP transport serves and shuts down (--features net)"
cargo test -q --offline -p karl-cli --features net

echo "==> guard: clippy clean across the workspace (incl. unsafe audit)"
# The unsafe-audit lints keep every unsafe block annotated and small:
# all unsafe lives in karl_geom::simd behind safe entry points, and each
# block must carry a SAFETY comment and one operation.
cargo clippy --workspace --all-targets --offline -- -D warnings \
    -W clippy::undocumented-unsafe-blocks \
    -W clippy::multiple-unsafe-ops-per-block

echo "==> guard: release bench smoke (tiny workload, one pass)"
# A minimal end-to-end run of both bench binaries so a broken bench
# can never merge green; sizes are tiny so this stays in CI budget.
KARL_BENCH_N=2000 KARL_BENCH_QUERIES=64 KARL_BENCH_BOUND_QUERIES=4 \
    KARL_BENCH_COLD_N=8000 KARL_BENCH_DIMS=8 KARL_BENCH_REPS=1 \
    KARL_BENCH_SERVE_REQS=64 KARL_BENCH_SERVE_BURSTS=2 \
    cargo bench -p karl-bench --features criterion-benches \
    --bench throughput_batch --bench frozen_bounds --bench cold_start \
    --bench simd_kernels --bench serve_load \
    --offline >/dev/null

echo "==> guard: CLI index round trip — batch --index byte-identical to batch --data"
# End-to-end through the release binary: persist an index, then the
# loaded evaluator must print byte-identical batch output (comment lines
# carry timings, so they are stripped before the diff). The root
# `cargo build` only builds the facade package, so build the binary
# explicitly.
cargo build --release -p karl-cli --offline
cli_tmp="$(mktemp -d)"
karl=target/release/karl
"$karl" generate --name home --n 500 --out "$cli_tmp/data.csv" >/dev/null
# Family and leaf pinned to the in-memory `batch` defaults (kd, 80).
"$karl" index build "$cli_tmp/data.csv" "$cli_tmp/home.idx" --family kd --leaf 80 >/dev/null
# With both pinned the cost model is not consulted, so a second build of
# the same data must write identical bytes.
"$karl" index build "$cli_tmp/data.csv" "$cli_tmp/again.idx" --family kd --leaf 80 >/dev/null
cmp "$cli_tmp/home.idx" "$cli_tmp/again.idx"
"$karl" index info "$cli_tmp/home.idx" | grep -q '(verified)'
"$karl" batch --data "$cli_tmp/data.csv" --queries "$cli_tmp/data.csv" \
    --tau 0.3 --threads 2 | grep -v '^#' > "$cli_tmp/fresh.out"
"$karl" batch --index "$cli_tmp/home.idx" --queries "$cli_tmp/data.csv" \
    --tau 0.3 --threads 2 | grep -v '^#' > "$cli_tmp/loaded.out"
diff "$cli_tmp/fresh.out" "$cli_tmp/loaded.out"
# The SIMD backend is a pure perf switch: forcing scalar (flag or env)
# must reproduce the dispatched output byte for byte.
"$karl" batch --data "$cli_tmp/data.csv" --queries "$cli_tmp/data.csv" \
    --tau 0.3 --threads 2 --simd scalar | grep -v '^#' > "$cli_tmp/scalar.out"
diff "$cli_tmp/fresh.out" "$cli_tmp/scalar.out"
KARL_SIMD=scalar "$karl" batch --data "$cli_tmp/data.csv" \
    --queries "$cli_tmp/data.csv" --tau 0.3 --threads 2 \
    | grep -v '^#' > "$cli_tmp/scalar_env.out"
diff "$cli_tmp/fresh.out" "$cli_tmp/scalar_env.out"
"$karl" index info "$cli_tmp/home.idx" | grep -q 'simd backend'
rm -rf "$cli_tmp"
echo "ok: pinned index builds, loaded-index and forced-scalar outputs are byte-identical"

echo "==> guard: serve smoke — overload ladder, fault quarantine, byte-stable replays"
# One scripted NDJSON session through the release binary exercising the
# whole degradation ladder: admitted requests, a forced shed (queue 4,
# shed watermark 3), queue-overflow rejections, a NaN-poisoned request
# next to a healthy neighbor, an already-expired deadline, a stats probe
# and a graceful shutdown. The contained fault must surface as exit code
# 2 (0 = clean, 1 = command error, 2 = contained per-query failures),
# and the transcript must replay byte-identically under KARL_THREADS=4
# and KARL_SIMD=scalar — the stats line embeds the resolved thread
# count (configuration, not data), so that one field is normalized
# before the diff.
serve_tmp="$(mktemp -d)"
"$karl" generate --name home --n 400 --out "$serve_tmp/data.csv" >/dev/null
dims=$(head -1 "$serve_tmp/data.csv" | awk -F, '{print NF}')
python3 - "$dims" > "$serve_tmp/requests.ndjson" <<'PY'
import sys
d = int(sys.argv[1])
q = lambda v: "[" + ",".join(str(v) for _ in range(d)) + "]"
out = []
# Six queries against queue 4 / shed 3 with no flush in between: ids
# 1-3 admitted normally, id 4 admitted past the shed watermark, ids
# 5-6 rejected at capacity.
for i in range(1, 7):
    out.append('{"id":%d,"op":"ekaq","eps":0.05,"q":%s}' % (i, q(0.1 * i)))
out.append('{"op":"flush"}')
# A poisoned request (NaN coordinate) beside a healthy neighbor and an
# already-expired deadline; the fault must stay contained to id 7.
out.append('{"id":7,"op":"ekaq","eps":0.05,"q":[NaN%s]}' % ("," + ",".join("0.2" for _ in range(d - 1)) if d > 1 else ""))
out.append('{"id":8,"op":"ekaq","eps":0.05,"q":%s}' % q(0.25))
out.append('{"id":9,"op":"ekaq","eps":0.05,"deadline_ms":0,"q":%s}' % q(0.3))
out.append('{"op":"flush"}')
out.append('{"id":10,"op":"stats"}')
out.append('{"id":11,"op":"shutdown"}')
print("\n".join(out))
PY
serve_run() { # serve_run OUT  (extra env via leading VAR=... in caller)
    rc=0
    "$karl" serve --stdio --data "$serve_tmp/data.csv" \
        --queue 4 --shed 3 < "$serve_tmp/requests.ndjson" \
        > "$1" 2> "$serve_tmp/serve.log" || rc=$?
    # The contained NaN fault must map to exit code 2, never 0 or 1.
    [ "$rc" -eq 2 ] || { echo "serve exit code $rc, expected 2"; exit 1; }
}
serve_run "$serve_tmp/t_default.out"
KARL_THREADS=4 serve_run "$serve_tmp/t_threads4.out"
KARL_SIMD=scalar serve_run "$serve_tmp/t_scalar.out"
for f in t_default t_threads4 t_scalar; do
    sed 's/"threads":[0-9]*/"threads":0/' "$serve_tmp/$f.out" > "$serve_tmp/$f.norm"
done
diff "$serve_tmp/t_default.norm" "$serve_tmp/t_threads4.norm"
diff "$serve_tmp/t_default.norm" "$serve_tmp/t_scalar.norm"
grep -q '"status":"shed"' "$serve_tmp/t_default.out"
grep -q '"status":"rejected"' "$serve_tmp/t_default.out"
grep -q 'admission queue full' "$serve_tmp/t_default.out"
grep -q '"id":7,"status":"error"' "$serve_tmp/t_default.out"
grep -q '"id":8,"status":"ok"' "$serve_tmp/t_default.out"
grep -q '"reason":"deadline"' "$serve_tmp/t_default.out"
grep -q '"status":"shutdown"' "$serve_tmp/t_default.out"
# A clean session (no fault, nothing rejected) must exit 0.
printf '%s\n' '{"id":1,"op":"ekaq","eps":0.05,"q":'"$(python3 -c "import sys;print('['+','.join('0.1' for _ in range(int(sys.argv[1])))+']')" "$dims")"'}' \
    '{"id":2,"op":"shutdown"}' > "$serve_tmp/clean.ndjson"
"$karl" serve --stdio --data "$serve_tmp/data.csv" \
    < "$serve_tmp/clean.ndjson" >/dev/null 2>&1
echo "ok: serve transcript byte-stable across threads and SIMD; exit codes 2/0 as specified"

echo "==> guard: serve liveness — a lone request is answered while stdin stays open"
# An interactive client over a pipe: one request, stdin kept open, and
# the response must arrive within 5 s (the daemon dispatches when its
# input drains, not when a micro-batch fills). Then a clean shutdown.
python3 - "$karl" "$serve_tmp/data.csv" "$dims" <<'PY'
import select, subprocess, sys
karl, data, d = sys.argv[1], sys.argv[2], int(sys.argv[3])
p = subprocess.Popen([karl, "serve", "--stdio", "--data", data],
                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                     stderr=subprocess.DEVNULL)
q = ",".join("0.1" for _ in range(d))
p.stdin.write(('{"id":1,"op":"ekaq","eps":0.05,"q":[%s]}\n' % q).encode())
p.stdin.flush()
ready, _, _ = select.select([p.stdout], [], [], 5.0)
if not ready:
    p.kill()
    sys.exit("serve liveness: no response to a lone request within 5 s")
line = p.stdout.readline().decode()
if '"id":1,"status":"ok"' not in line:
    p.kill()
    sys.exit("serve liveness: unexpected response %r" % line)
p.stdin.write(b'{"id":2,"op":"shutdown"}\n')
p.stdin.close()
rest = p.stdout.read().decode()
rc = p.wait(timeout=30)
if rc != 0 or '"status":"shutdown"' not in rest:
    sys.exit("serve liveness: shutdown exit %d, output %r" % (rc, rest))
PY
echo "ok: a lone request is answered without waiting for a batch to fill"

echo "==> guard: batch --stats-json byte-stable across runs"
"$karl" batch --data "$serve_tmp/data.csv" --queries "$serve_tmp/data.csv" \
    --tau 0.3 --threads 2 --stats-json "$serve_tmp/stats1.json" >/dev/null
"$karl" batch --data "$serve_tmp/data.csv" --queries "$serve_tmp/data.csv" \
    --tau 0.3 --threads 2 --stats-json "$serve_tmp/stats2.json" >/dev/null
diff "$serve_tmp/stats1.json" "$serve_tmp/stats2.json"
grep -q '"schema":"karl-stats-v1"' "$serve_tmp/stats1.json"
rm -rf "$serve_tmp"
echo "ok: batch --stats-json is byte-stable and carries the shared schema"

echo "==> guard: no registry dependencies in the resolved graph"
# cargo metadata reports "source": null for path dependencies and a
# "registry+https://..." (or git+...) URL for anything external. The
# criterion-benches feature gates *bench targets*, not dependencies, so
# this check is unconditional: nothing in any feature set may be external.
cargo metadata --format-version 1 --offline | python3 -c '
import json, sys
meta = json.load(sys.stdin)
bad = []
for pkg in meta["packages"]:
    for dep in pkg["dependencies"]:
        if dep["source"] is not None:
            bad.append("  {} -> {} ({})".format(pkg["name"], dep["name"], dep["source"]))
if bad:
    print("non-path dependencies found (hermeticity policy violated):")
    print("\n".join(bad))
    sys.exit(1)
print("ok: all dependencies are workspace path dependencies")
'

echo "==> all gates passed"
