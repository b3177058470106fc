#!/usr/bin/env python3
"""The repository benchmark: host cost of the simulator's canonical runs.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

    scale_sa4   repro scale: SA(4) Barracuda ES, synthetic open loop at
                6.0 ms mean inter-arrival, 10^6 requests, streaming stats
    repro_all   repro all --jobs 1 --metrics DIR: every paper study and
                extension, exact stats, 10,000 requests per run
    explore     repro explore --grid full --jobs 2: 1,152 points of 500
                requests into a fresh point cache (cold), then a rerun
                over the filled cache (warm)

The benchmark builds the `repro` binary and the perfbench/ledger
package. `--trace 0` times `repro` as a user runs it, one process per
iteration (launched by perfbench-spawn, which also reads its peak
resident set), for `--seconds` seconds, and prints the end-to-end
metrics. `--trace 1` runs the per-layer ledger (perfbench-ledger) and
prints the per-layer metrics. Both check the program's outputs. The
last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the metric names and units are
the ones BENCHMARK.json declares.

Everything the benchmark writes stays inside the current directory:
build output under $CARGO_TARGET_DIR (default `.bench_build`) and
scratch files under `.bench_work/`, removed on exit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

# The seed whose outputs are pinned in digests.json.
PINNED_SEED = 42

SCALE_REQUESTS = 1_000_000
ALL_REQUESTS = 10_000
EXPLORE_REQUESTS = 500

# Set-up is timed this many times before each timed iteration; the
# median over the run is reported.
SETUP_REPS = 25

WORKLOADS = ("scale_sa4", "repro_all", "explore")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def metric_units(kind):
    """{name: unit} of the `end_to_end` or `per_layer` metrics that
    BENCHMARK.json (next to this directory) declares."""
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


# ---------------------------------------------------------------------
# Arithmetic (unit-tested in perfbench/test_run.py).


def per_second(count, wall_s, setup_s):
    """`count` units of work per host second spent after set-up."""
    busy = wall_s - setup_s
    if busy <= 0:
        raise ValueError(f"wall {wall_s} s does not exceed set-up {setup_s} s")
    return count / busy


def failed_frac(attempted, failed):
    """Share of attempted checks that failed."""
    if attempted < 1:
        raise ValueError("no checks attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


# ---------------------------------------------------------------------
# Checks and digests.


class Checks:
    """Counts output checks; every failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")
        return ok


def fmt(values):
    return " ".join(f"{v:.4g}" for v in values)


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def sha256_of(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def dir_digest_parts(path):
    """Name and contents of every file under `path`, in sorted order."""
    parts = []
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            parts += [name.encode(), b"\0", f.read(), b"\0"]
    return parts


def explore_json_digest(out_dir):
    """Digest of explore.json without its build-fingerprint line, so a
    source edit that keeps every simulated number keeps the digest."""
    with open(os.path.join(out_dir, "explore.json"), "rb") as f:
        lines = f.read().split(b"\n")
    kept = [l for l in lines if not l.lstrip().startswith(b'"code_version"')]
    return sha256_of(b"\n".join(kept))


def pinned_digests():
    with open(os.path.join(BENCH_DIR, "digests.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------------
# Processes.


class Runner:
    """Builds and runs the workspace's binaries inside the checkout."""

    def __init__(self, root):
        self.root = root
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.env = dict(os.environ, CARGO_TARGET_DIR=target)
        self.target = os.path.join(root, target)
        self.work = os.path.join(root, ".bench_work", f"run-{os.getpid()}")
        self.seq = 0

    def build(self, *args):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        log("building: " + " ".join(cmd))
        subprocess.run(cmd, cwd=self.root, env=self.env, check=True)

    def binary(self, name):
        return os.path.join(self.target, "release", name)

    def fresh_dir(self, tag):
        """A new empty directory under the run's scratch area."""
        self.seq += 1
        path = os.path.join(self.work, f"{tag}-{self.seq}")
        os.makedirs(path)
        return path

    def remove(self, path):
        shutil.rmtree(path, ignore_errors=True)

    def timed(self, argv):
        """Runs `argv` once through perfbench-spawn; returns (exit code,
        wall s, peak RSS MB, stdout bytes). Wall time spans spawn to
        reap of the command itself."""
        out_path = os.path.join(self.work, "stdout.txt")
        code, wall, peak_kb, _ = self.spawn(out_path, argv)
        with open(out_path, "rb") as f:
            stdout = f.read()
        return int(code), float(wall), int(peak_kb) / 1024.0, stdout

    def time_to_stderr(self, argv):
        """Starts `argv`, stops it at its first write to stderr, and
        returns the seconds from spawn to that write (None if the
        command ended without writing to stderr)."""
        _, _, _, first = self.spawn(os.devnull, argv, "--until-stderr")
        return float(first) if float(first) > 0 else None

    def spawn(self, out_path, argv, *flags):
        report = subprocess.run([self.binary("perfbench-spawn"), *flags, out_path, *argv],
                                cwd=self.root, stdout=subprocess.PIPE, check=True)
        return report.stdout.split()

    def close(self):
        self.remove(self.work)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run's scratch area is still there


# ---------------------------------------------------------------------
# Workloads: each knows its command, its set-up command, and how to
# digest what it produced.


class Workload:
    """A workload: its command, the scratch directories one run needs,
    and how to digest what a run produced.

    `jobs` is the executor width of the timed runs; the reference run
    uses `ref_jobs`, so every timed run also checks that the executor
    width changes no output byte.

    Set-up is timed on `setup_argv`, from spawn until the command first
    writes to stderr (where it is stopped). `repro all` and `repro
    explore` write their first stderr line just before they simulate."""

    # Reruns over the state a timed run left behind; only explore keeps
    # any (its point cache).
    warm_reruns = 0

    def __init__(self, runner, seed):
        self.repro = runner.binary("repro")
        self.ledger = runner.binary("perfbench-ledger")
        self.seed = seed

    def dirs(self, runner):
        return {}


class ScaleSa4(Workload):
    name = "scale_sa4"
    requests = SCALE_REQUESTS
    jobs = ref_jobs = 1  # `repro scale` runs one drive on one thread

    def argv(self, requests, _dirs, jobs):
        return [self.repro, "scale", "--requests", str(requests),
                "--actuators", "4", "--inter-arrival", "6.0",
                "--stats", "streaming", "--seed", str(self.seed)]

    def digest(self, stdout, _dirs):
        return sha256_of(stdout)

    def sane(self, stdout):
        return f"completed {SCALE_REQUESTS} ".encode() in stdout

    def setup_argv(self, dirs):
        # `repro scale` writes to stderr only after its run, so set-up
        # is a run of one request.
        return self.argv(1, dirs, self.jobs)


class ReproAll(Workload):
    name = "repro_all"
    requests = ALL_REQUESTS
    jobs, ref_jobs = 1, 2

    def argv(self, requests, dirs, jobs):
        return [self.repro, "all", "--jobs", str(jobs), "--requests",
                str(requests), "--seed", str(self.seed), "--metrics",
                dirs["metrics"]]

    def dirs(self, runner):
        return {"metrics": runner.fresh_dir("metrics")}

    def digest(self, stdout, dirs):
        return sha256_of(stdout, *dir_digest_parts(dirs["metrics"]))

    def sane(self, stdout):
        return stdout.startswith(b"# Intra-Disk Parallelism reproduction")

    def setup_argv(self, dirs):
        # Stopped at `[executor: N jobs]`, printed before Table 1.
        return self.argv(self.requests, dirs, self.jobs)


class Explore(Workload):
    name = "explore"
    requests = EXPLORE_REQUESTS
    jobs, ref_jobs = 2, 1
    warm_reruns = 3  # a warm run is short; time several per cold run

    def argv(self, requests, dirs, jobs):
        return [self.repro, "explore", "--grid", "full", "--jobs",
                str(jobs), "--requests", str(requests), "--seed",
                str(self.seed), "--cache", dirs["cache"], "--out",
                dirs["out"]]

    def dirs(self, runner):
        return {"cache": runner.fresh_dir("cache"),
                "out": runner.fresh_dir("out")}

    def digest(self, _stdout, dirs):
        return explore_json_digest(dirs["out"])

    def sane(self, stdout):
        return stdout.startswith(b"# explore: 1152 points")

    def setup_argv(self, dirs):
        # Stopped at `[explore: full coverage, ...]`, printed once the
        # grid is planned and hashed, before the cache is probed.
        return self.argv(self.requests, dirs, self.jobs)


def make_workload(name, runner, seed):
    return {"scale_sa4": ScaleSa4, "repro_all": ReproAll,
            "explore": Explore}[name](runner, seed)


def run_end_to_end(runner, wl, seconds, checks):
    # Reference run, untimed and profiled: counts the simulated requests
    # and gives the output every timed run must reproduce.
    dirs = wl.dirs(runner)
    prof = runner.fresh_dir("profile")
    code, _, _, stdout = runner.timed(
        wl.argv(wl.requests, dirs, wl.ref_jobs) + ["--profile", prof])
    if not checks.check(code == 0 and wl.sane(stdout), f"{wl.name} reference run exited {code}"):
        return None
    ref_digest = wl.digest(stdout, dirs)
    with open(os.path.join(prof, "counters.json")) as f:
        requests = json.load(f)["deterministic"]["workload.requests_pulled"]
    for d in (prof, *dirs.values()):
        runner.remove(d)
    if wl.seed == PINNED_SEED:
        checks.check(ref_digest == pinned_digests()[wl.name],
                     f"{wl.name} seed {wl.seed} output digest {ref_digest} is not the pinned one")

    setups, walls, rss, warms = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        for _ in range(SETUP_REPS):
            dirs = wl.dirs(runner)
            setup = runner.time_to_stderr(wl.setup_argv(dirs))
            if checks.check(setup is not None, f"{wl.name} set-up run wrote nothing to stderr"):
                setups.append(setup)
            for d in dirs.values():
                runner.remove(d)

        dirs = wl.dirs(runner)
        code, wall, peak, stdout = runner.timed(wl.argv(wl.requests, dirs, wl.jobs))
        checks.check(code == 0 and wl.digest(stdout, dirs) == ref_digest,
                     f"{wl.name} timed run output differs from the reference run")
        walls.append(wall)
        rss.append(peak)
        for _ in range(wl.warm_reruns):
            # A rerun over what the timed run left behind (explore's
            # freshly filled point cache).
            warm_dirs = {"cache": dirs["cache"], "out": runner.fresh_dir("out")}
            code, wall, _, stdout = runner.timed(wl.argv(wl.requests, warm_dirs, wl.jobs))
            checks.check(code == 0 and wl.digest(stdout, warm_dirs) == ref_digest,
                         f"{wl.name} warm output differs from the cold output")
            warms.append(wall)
            runner.remove(warm_dirs["out"])
        for d in dirs.values():
            runner.remove(d)

    if not setups:
        return None
    setup_s = median(setups)
    log(f"{wl.name}: {requests} requests per run; wall s {fmt(walls)}; "
        f"set-up s {setup_s:.4g} (median of {len(setups)})"
        + (f"; warm s {fmt(warms)}" if warms else ""))
    wall_s = median(walls)
    return {
        "req_per_s": median([per_second(requests, w, setup_s) for w in walls]),
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": median(rss),
        # Without state to reuse, a rerun is the whole run again.
        "warm_s": median(warms) if warms else wall_s,
    }


def run_traced(runner, wl, seconds, checks):
    work = runner.fresh_dir("ledger")
    argv = [wl.ledger, "--workload", wl.name, "--seed", str(wl.seed),
            "--seconds", str(seconds), "--work", work]
    proc = subprocess.run(argv, cwd=runner.root, stdout=subprocess.PIPE)
    if not checks.check(proc.returncode == 0, f"ledger exited {proc.returncode}"):
        return None
    report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    for name, ok in report["checks"].items():
        checks.check(ok, f"ledger check {name}")
    metrics, names = report["metrics"], metric_units("per_layer")
    unknown = sorted(set(metrics) - set(names))
    checks.check(not unknown, f"ledger reported undeclared metrics {unknown}")
    # A layer the workload does not exercise reads 0.
    return {name: metrics.get(name, 0.0) for name in names}


def print_table(metrics, units, checks):
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':40s} {failed_frac(checks.attempted, checks.failed):>16.6g} ratio")


def main(argv=None):
    ap = argparse.ArgumentParser(description="Repository benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"run from the repository root: {needed} not found")
            return 2

    runner = Runner(root)
    try:
        runner.build("-p", "explorer", "--bin", "repro")
        runner.build("--manifest-path", os.path.join(BENCH_DIR, "ledger", "Cargo.toml"))
        os.makedirs(runner.work)
        wl = make_workload(args.workload, runner, args.seed)
        checks = Checks()
        if args.trace:
            metrics = run_traced(runner, wl, args.seconds, checks)
        else:
            metrics = run_end_to_end(runner, wl, args.seconds, checks)
        if metrics is None:
            log("the workload did not run; no result")
            return 1
        units = metric_units("per_layer" if args.trace else "end_to_end")
        print_table(metrics, units, checks)
        print(json.dumps({
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    except subprocess.CalledProcessError as e:
        log(f"failed: {e}")
        return 1
    finally:
        runner.close()


if __name__ == "__main__":
    sys.exit(main())
