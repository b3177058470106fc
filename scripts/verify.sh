#!/usr/bin/env bash
# Pre-PR verification gate.
#
# Runs the tier-1 check from ROADMAP.md (release build + full test
# suite), with a release build of the standalone perfbench ledger
# against the workspace's current API (a deleted or renamed item the
# benchmark uses fails here), a build of every `bench` crate bench
# target (`cargo test` compiles none of them), a warning-free rustdoc
# build, a
# rustfmt check (`cargo fmt --all --check`: the workspace must be
# rustfmt-clean; perfbench/ledger is a workspace of its own and is not
# checked), a clippy gate (`cargo clippy --workspace --all-targets --
# -D warnings`: the root clippy.toml bans host clocks, hashed
# collections, ambient hashers and OS threads; the core crates' lib.rs
# turn on the lints against panicking calls, `_` arms over enums and
# float equality; an unfulfilled `#[expect]` fails too), a reduced-scale
# parallel-sweep determinism check (the `repro` report
# must be byte-identical at --jobs 2 and --jobs 1), the telemetry
# trace-export determinism check (every `--trace` file byte-identical
# across runs and --jobs values), the metrics-export and `repro report`
# determinism checks (every `--metrics` file and the rendered
# report.html byte-identical across runs and --jobs values), the
# design-space explorer gates (a small-grid `repro explore` must be
# byte-identical across --jobs values and across cold/warm/disabled
# point-cache states, with the warm run re-executing nothing;
# `repro report` over a copy of the run's explore.json must render the
# report.html `repro explore` drew from memory; the
# points-<code16>.pack files cold --jobs 1 and --jobs 2 runs write must
# be byte-identical, and a warm run must leave its pack unchanged; a
# pack cut mid-way through its last record must cost exactly one re-run
# and still give the same bytes; and the cache directories must be
# gitignored), the
# bounded-RSS gate (a 10^7-request streaming-stats run must stay under
# a fixed memory budget, proving request count never reaches peak
# memory), the stats-mode gate (a 2*10^5-request SA(4) `repro scale`
# must print the same `completed | mean | p90(stream)` line with exact
# and with streaming stats: exact mode's sketch, derived from its kept
# samples, equals the one streaming mode records; and `repro drpm`, whose
# table prints only means and power, must print the same stdout in both
# modes, DRPM points included), and then the
# event-kernel swap gates (report and exports byte-identical to
# the goldens pinned on the retired binary-heap kernel, the named
# kernel-swap golden oracles, the differential property suite, and a
# throughput floor: the timing wheel must not be slower than the
# heap), the self-profiler gates (the deterministic counter export must
# be byte-identical across runs and --jobs values, for a study and for
# a cache-less explore whose --jobs 2 workers race to generate the
# shared workload traces, a --profile smoke
# run must write profile.txt, profile.folded and counters.json, two
# `repro all --jobs 2 --profile` runs must print the same phase tree
# (phase and calls columns) whose run_point calls equal the sum of the
# per-study table's point counts, `run`'s self time in that profile
# (host time outside every timed phase) must stay under 5% of wall,
# and a 10^6-request
# `repro scale --heartbeat 0.1` must emit live snapshots plus a
# Prometheus textfile), and then the test suite again with ignored
# tests included.
# Everything is offline: the workspace has no external dependencies.
#
# Usage: scripts/verify.sh

set -euo pipefail
cd "$(dirname "$0")/.."

sweep_dir=$(mktemp -d)
trap 'rm -rf "$sweep_dir"' EXIT

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> gate: perfbench ledger builds against the workspace API"
cargo build --release --offline --manifest-path perfbench/ledger/Cargo.toml \
  --target-dir "$sweep_dir/ledger-target"

echo "==> gate: every bench target compiles against the workspace API"
cargo bench -p bench --no-run

echo "==> gate: rustdoc builds without warnings"
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps

echo "==> gate: workspace is rustfmt-clean"
cargo fmt --all --check

echo "==> gate: workspace is clippy-clean"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> gate: reduced-scale sweep, --jobs 2 byte-identical to --jobs 1"
target/release/repro all --requests 2000 --jobs 1 > "$sweep_dir/serial.txt" 2>/dev/null
target/release/repro all --requests 2000 --jobs 2 > "$sweep_dir/jobs2.txt" 2>/dev/null
cmp "$sweep_dir/serial.txt" "$sweep_dir/jobs2.txt"

echo "==> gate: report byte-identical to pre-kernel-swap golden"
cmp "$sweep_dir/serial.txt" tests/goldens/repro_all_r2000.txt

echo "==> gate: telemetry --trace export byte-identical across runs and --jobs"
target/release/repro validate --requests 2000 --jobs 1 --trace "$sweep_dir/tr1" >/dev/null 2>&1
target/release/repro validate --requests 2000 --jobs 2 --trace "$sweep_dir/tr2" >/dev/null 2>&1
for f in "$sweep_dir"/tr1/*; do
  cmp "$f" "$sweep_dir/tr2/$(basename "$f")"
done

echo "==> gate: metrics --metrics export byte-identical across runs and --jobs"
target/release/repro sa_eval --requests 2000 --jobs 1 --metrics "$sweep_dir/m1" >/dev/null 2>&1
target/release/repro sa_eval --requests 2000 --jobs 2 --metrics "$sweep_dir/m2" >/dev/null 2>&1
for f in "$sweep_dir"/m1/*; do
  cmp "$f" "$sweep_dir/m2/$(basename "$f")"
done

echo "==> gate: trace/metrics exports hash-identical to pre-kernel-swap goldens"
mkdir "$sweep_dir/gold"
ln -s "$sweep_dir/tr1" "$sweep_dir/gold/trace"
ln -s "$sweep_dir/m1" "$sweep_dir/gold/metrics"
(cd "$sweep_dir/gold" && sha256sum --quiet -c "$OLDPWD/tests/goldens/kernel_swap_exports.sha256")

echo "==> gate: repro report renders byte-identically"
target/release/repro report "$sweep_dir/m1" >/dev/null 2>&1
target/release/repro report "$sweep_dir/m2" >/dev/null 2>&1
cmp "$sweep_dir/m1/report.html" "$sweep_dir/m2/report.html"

echo "==> gate: explore byte-identical across --jobs and cold/warm cache"
# Small-grid exploration through the content-addressed point cache:
# the first run fills a fresh cache (cold), the rest must re-execute
# nothing and still emit identical bytes — stdout, explore.json, and
# the rendered report.html all carry the determinism contract.
target/release/repro explore --grid coarse --requests 500 --jobs 1 \
  --out "$sweep_dir/ex-cold" --cache "$sweep_dir/ex-cache" \
  > "$sweep_dir/ex-cold.txt" 2>/dev/null
target/release/repro explore --grid coarse --requests 500 --jobs 2 \
  --out "$sweep_dir/ex-cold2" --cache "$sweep_dir/ex-cache2" \
  > "$sweep_dir/ex-cold2.txt" 2>/dev/null
# Each point cache is one pack. Stores go in plan order, so the packs
# the two cold runs wrote are the same bytes whatever the --jobs.
packs=("$sweep_dir"/ex-cache/points-*.pack "$sweep_dir"/ex-cache2/points-*.pack)
test "${#packs[@]}" -eq 2 && test -f "${packs[0]}" && test -f "${packs[1]}" \
  || { echo "expected exactly one point-cache pack per cache" >&2; exit 1; }
cmp "${packs[0]}" "${packs[1]}"
target/release/repro explore --grid coarse --requests 500 --jobs 2 \
  --out "$sweep_dir/ex-warm" --cache "$sweep_dir/ex-cache" \
  > "$sweep_dir/ex-warm.txt" 2> "$sweep_dir/ex-warm.err"
# A warm run loads every point and appends nothing.
cmp "${packs[0]}" "${packs[1]}"
target/release/repro explore --grid coarse --requests 500 --jobs 2 \
  --out "$sweep_dir/ex-nocache" --cache none \
  > "$sweep_dir/ex-nocache.txt" 2>/dev/null
cmp "$sweep_dir/ex-cold.txt" "$sweep_dir/ex-cold2.txt"
cmp "$sweep_dir/ex-cold.txt" "$sweep_dir/ex-warm.txt"
cmp "$sweep_dir/ex-cold.txt" "$sweep_dir/ex-nocache.txt"
cmp "$sweep_dir/ex-cold/explore.json" "$sweep_dir/ex-cold2/explore.json"
cmp "$sweep_dir/ex-cold/explore.json" "$sweep_dir/ex-warm/explore.json"
cmp "$sweep_dir/ex-cold/explore.json" "$sweep_dir/ex-nocache/explore.json"
cmp "$sweep_dir/ex-cold/report.html" "$sweep_dir/ex-warm/report.html"
grep -q "(0 executed, " "$sweep_dir/ex-warm.err" \
  || { echo "warm explore re-executed points it should have loaded" >&2; exit 1; }
# `repro explore` draws its report's Pareto panel from the sweep it
# holds; `repro report` reads the panel back out of explore.json. Over
# a copy of that file alone, both must render the same bytes.
mkdir "$sweep_dir/ex-reread"
cp "$sweep_dir/ex-cold/explore.json" "$sweep_dir/ex-reread/"
target/release/repro report "$sweep_dir/ex-reread" >/dev/null 2>&1
cmp "$sweep_dir/ex-cold/report.html" "$sweep_dir/ex-reread/report.html"

echo "==> gate: explore cache survives a torn pack tail"
# The point cache is one append-only pack; a crash mid-append leaves a
# torn last line. Cut the cold pack half-way through its last record:
# the rerun must miss exactly that point, re-run it, and still emit the
# cold explore.json byte for byte.
pack_bytes=$(stat -c %s "${packs[0]}")
last_line_bytes=$(tail -n 1 "${packs[0]}" | wc -c)
truncate -s $((pack_bytes - last_line_bytes / 2)) "${packs[0]}"
target/release/repro explore --grid coarse --requests 500 --jobs 2 \
  --out "$sweep_dir/ex-torn" --cache "$sweep_dir/ex-cache" \
  > "$sweep_dir/ex-torn.txt" 2> "$sweep_dir/ex-torn.err"
cmp "$sweep_dir/ex-cold/explore.json" "$sweep_dir/ex-torn/explore.json"
grep -q "(1 executed, " "$sweep_dir/ex-torn.err" \
  || { echo "torn-tail explore did not re-run exactly the torn point" >&2; exit 1; }

echo "==> gate: explore cache directory is gitignored"
# Probe a path inside each directory: the `.gitignore` patterns end in
# `/` (directory-only), which `check-ignore` on a bare nonexistent path
# will not match.
for d in .explore-cache explore-out; do
  git check-ignore -q "$d/probe" \
    || { echo "$d/ not covered by .gitignore" >&2; exit 1; }
done

echo "==> gate: bounded-RSS 10^7-request streaming run (budget 65536 kB)"
# The streaming data plane's contract: request count must not reach
# peak memory. The repro binary prints its own VmHWM (from
# /proc/self/status — the container has no /usr/bin/time) to stderr;
# exact mode at this scale needs ~450 MB, streaming a few MB, so a
# 64 MB budget catches any re-materialization.
target/release/repro scale --requests 10000000 --stats streaming \
  > "$sweep_dir/scale.out" 2> "$sweep_dir/scale.err"
grep -q "completed 10000000" "$sweep_dir/scale.out"
rss_kb=$(sed -n 's/^\[max-rss-kb: \([0-9]*\)\]$/\1/p' "$sweep_dir/scale.err")
echo "    max RSS ${rss_kb} kB"
test -n "$rss_kb" && test "$rss_kb" -le 65536 \
  || { echo "streaming 10^7 run exceeded the 65536 kB RSS budget" >&2; exit 1; }

echo "==> gate: scale streamed view and drpm table identical under exact and streaming stats"
# Exact mode keeps every sample and derives its streaming sketch from
# them when the run ends; streaming mode records each sample into the
# sketch. The line the sketch prints must not tell them apart.
for mode in exact streaming; do
  target/release/repro scale --requests 200000 --actuators 4 --stats "$mode" \
    > "$sweep_dir/scale-$mode.out" 2>/dev/null
  grep "^  completed 200000 | mean " "$sweep_dir/scale-$mode.out" > "$sweep_dir/scale-$mode.line" \
    || { echo "scale --stats $mode printed no completed line" >&2; exit 1; }
done
cmp "$sweep_dir/scale-exact.line" "$sweep_dir/scale-streaming.line"
# Every design of the DRPM comparison, the DRPM drive included, takes
# the mode from --stats; means are sum / n in both modes.
for mode in exact streaming; do
  target/release/repro drpm --requests 2000 --stats "$mode" \
    > "$sweep_dir/drpm-$mode.out" 2>/dev/null
done
cmp "$sweep_dir/drpm-exact.out" "$sweep_dir/drpm-streaming.out"

echo "==> gate: kernel-swap golden oracles (ignored-by-default, run here by name)"
cargo test -q --test oracles -- --include-ignored golden_kernel_swap

echo "==> gate: event-kernel differential property suite"
cargo test -q --test properties

echo "==> gate: kernel throughput floor (wheel >= heap)"
kernel_json=$(cargo bench -p bench --bench kernel -- --quick 2>/dev/null)
heap_min=$(printf '%s\n' "$kernel_json" | jq -s '.[] | select(.bench == "kernel_sa4_100k_heap") | .min_ns')
wheel_min=$(printf '%s\n' "$kernel_json" | jq -s '.[] | select(.bench == "kernel_sa4_100k_wheel") | .min_ns')
echo "    heap min ${heap_min} ns, wheel min ${wheel_min} ns"
jq -n --argjson h "$heap_min" --argjson w "$wheel_min" \
  'if $w <= $h then empty else error("timing wheel slower than retired heap") end'

echo "==> gate: self-profile counter export byte-identical across runs and --jobs"
# Two serial runs must produce byte-identical counters.json; a --jobs 2
# run must match on the "deterministic" section (the "host" section —
# worker count, steals — legitimately varies and is quarantined there).
target/release/repro limit --requests 2000 --jobs 1 --profile "$sweep_dir/prof1" >/dev/null 2>&1
target/release/repro limit --requests 2000 --jobs 1 --profile "$sweep_dir/prof2" >/dev/null 2>&1
target/release/repro limit --requests 2000 --jobs 2 --profile "$sweep_dir/prof3" >/dev/null 2>&1
cmp "$sweep_dir/prof1/counters.json" "$sweep_dir/prof2/counters.json"
diff <(jq -S .deterministic "$sweep_dir/prof1/counters.json") \
     <(jq -S .deterministic "$sweep_dir/prof3/counters.json")
# The same for explore without a point cache: under --jobs 2 its
# workers race to generate the sweep's shared workload traces, and
# which worker generated one must not show in any counter.
target/release/repro explore --grid coarse --requests 500 --jobs 1 --cache none \
  --out "$sweep_dir/ex-prof1-out" --profile "$sweep_dir/ex-prof1" >/dev/null 2>&1
target/release/repro explore --grid coarse --requests 500 --jobs 2 --cache none \
  --out "$sweep_dir/ex-prof2-out" --profile "$sweep_dir/ex-prof2" >/dev/null 2>&1
diff <(jq -S .deterministic "$sweep_dir/ex-prof1/counters.json") \
     <(jq -S .deterministic "$sweep_dir/ex-prof2/counters.json")

echo "==> gate: --profile smoke export writes every artifact"
for f in profile.txt profile.folded counters.json; do
  test -s "$sweep_dir/prof1/$f" \
    || { echo "missing or empty profile artifact $f" >&2; exit 1; }
done

echo "==> gate: --profile tree is stable and its study table accounts for every point"
# Each study run reports one timing per plan point, so the per-study
# table's point counts must sum to the tree's run_point calls; phases
# and call counts depend on the plan, not on timing, so two runs agree.
for run in 1 2; do
  target/release/repro all --requests 2000 --jobs 2 --profile "$sweep_dir/prof-all$run" \
    >/dev/null 2>&1
done
tree() { awk 'NR > 1 && NF == 0 { exit } NR > 1 { print $1, $2 }' "$1/profile.txt"; }
diff <(tree "$sweep_dir/prof-all1") <(tree "$sweep_dir/prof-all2")
point_calls=$(tree "$sweep_dir/prof-all1" | awk '$1 == "run_point" { n += $2 } END { print n + 0 }')
study_points=$(awk '/^ *# study .*reduce\(ms\)$/ { on = 1; next } on && NF == 0 { exit }
  on { n += $3 } END { print n + 0 }' "$sweep_dir/prof-all1/profile.txt")
echo "    run_point calls ${point_calls}, study-table points ${study_points}"
test "$point_calls" -gt 0 && test "$point_calls" -eq "$study_points" \
  || { echo "per-study point counts do not add up to the run_point calls" >&2; exit 1; }

echo "==> gate: --profile run self time < 5% of wall"
# `run`'s self time is the host time the dispatch spends outside every
# timed phase (plan, points, idle, reduce, exports), which the profile
# cannot attribute; it is about 1% of wall on a 2-vCPU host. A stray
# blocking call in the dispatch shows up as a jump in it.
run_self=$(awk '$1 == "run" { print $3; exit }' "$sweep_dir/prof-all1/profile.txt")
wall=$(awk '$1 == "wall" { print $2; exit }' "$sweep_dir/prof-all1/profile.txt")
test -n "$run_self" && test -n "$wall" \
  || { echo "profile.txt has no run or wall line" >&2; exit 1; }
echo "    run self ${run_self} ms of ${wall} ms wall"
jq -n --argjson s "$run_self" --argjson w "$wall" \
  'if $s < 0.05 * $w then empty else error("run self time >= 5% of wall: unprofiled work in the dispatch") end'

echo "==> gate: scale --heartbeat emits live snapshots and a Prometheus textfile"
# A sub-second interval: a fast host finishes the 10^6 requests in
# about a second, before a 1-second first beat would fire.
target/release/repro scale --requests 1000000 --stats streaming --heartbeat 0.1 \
  --heartbeat-file "$sweep_dir/hb.prom" > "$sweep_dir/hb.out" 2> "$sweep_dir/hb.err"
grep -q "completed 1000000" "$sweep_dir/hb.out"
grep -q "^\[hb " "$sweep_dir/hb.err" \
  || { echo "no heartbeat lines on stderr" >&2; exit 1; }
grep -q "^repro_heartbeats_total " "$sweep_dir/hb.prom" \
  || { echo "heartbeat textfile missing repro_heartbeats_total" >&2; exit 1; }

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> extended: cargo test -q -- --include-ignored"
cargo test -q -- --include-ignored

echo "==> verify OK"
