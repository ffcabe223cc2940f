"""ratsemi benchmark: four CLI workloads, each invocation in its own process.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 repeats whole rounds of the workload until S seconds have passed and
reports the end-to-end metrics setup_s, job_s and peak_rss_mb (medians over
rounds).  --trace 1 runs one untraced round, one traced round with the same
seed and one untraced round with --threads 2; it reports the per-layer
metrics of the traced round, the tracing overhead, and counts a failed
operation for every output that is not byte-identical to the first round's.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  See README.md for the workloads, checks and metrics.
"""
import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "demos" / "configs"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 165.0   # a run must end within 180 s; no round starts that would pass this
SETUP_SAMPLES = 5    # set-up-only rounds top the timed rounds up to this many setup_s samples
LYAP_DEPTH = 8       # 5^8 nodes: only the last level is capped, at 200k


@dataclass(frozen=True)
class Command:
    sub: str
    config: str
    extra: tuple = ()
    outputs: tuple = ()


@dataclass(frozen=True)
class Workload:
    commands: tuple
    check: object  # (invocations, config path) -> [(ok, message)] per operation


WORKLOADS = {
    "bowen-supercritical": Workload(
        (Command("bowen", "supercritical.json", ("--out", "bowen.csv"), ("bowen.csv",)),),
        checks.check_bowen,
    ),
    "sweep-similarity": Workload(
        (Command("sweep", "similarity_sweep.json", ("--out", "sweep.csv"), ("sweep.csv",)),),
        checks.check_sweep,
    ),
    "lyap-mixed-degree": Workload(
        (Command("lyap", "power_pair.json", ("--depth", str(LYAP_DEPTH), "--out", "lyap.csv"),
                 ("lyap.csv",)),),
        functools.partial(checks.check_lyap, depth=LYAP_DEPTH),
    ),
    "annulus-geometry": Workload(
        (
            Command("julia", "annulus.json", ("--out", "julia.ppm"), ("julia.ppm",)),
            Command("boxdim", "annulus.json", ("--out", "boxdim.csv"), ("boxdim.csv",)),
            Command("osc", "annulus.json"),
        ),
        checks.check_annulus,
    ),
}


@dataclass
class Invocation:
    label: str
    exit_code: int
    stdout: bytes
    files: dict
    rss_mb: float
    setup_s: float = math.nan
    job_s: float = math.nan
    record: dict = field(default_factory=dict)

    @property
    def stdout_text(self) -> str:
        return self.stdout.decode("utf-8", "replace")

    def digests(self) -> dict:
        out = {"stdout": hashlib.sha256(self.stdout).hexdigest()}
        for name, data in self.files.items():
            out[name] = hashlib.sha256(data).hexdigest()
        return out


def invoke(cmd, seed, cwd, deadline, run_id, trace=False, threads=None, setup_only=False):
    """Run one CLI command in its own process; peak RSS comes from wait4."""
    timing = cwd / f"{cmd.sub}.timing.json"
    for name in (timing.name, *cmd.outputs):
        (cwd / name).unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "launch.py"), "--src", str(SRC), "--timing", str(timing)]
    if trace:
        argv += ["--trace", run_id]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--", cmd.sub, "--config", str(CONFIGS / cmd.config), "--seed", str(seed), *cmd.extra]
    if threads is not None:
        argv += ["--threads", str(threads)]
    with open(cwd / f"{cmd.sub}.stdout", "w+b") as out, open(cwd / f"{cmd.sub}.stderr", "w+b") as err:
        spawn = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - spawn), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        stdout = out.read()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace").strip()
    if proc.returncode != 0 and not setup_only and stderr:
        print(f"{run_id}: {stderr.splitlines()[-1]}", file=sys.stderr)
    inv = Invocation(
        label=run_id,
        exit_code=proc.returncode,
        stdout=stdout,
        files={n: (cwd / n).read_bytes() for n in cmd.outputs if (cwd / n).exists()},
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )
    if timing.exists():
        inv.record = json.loads(timing.read_text())
        marks = inv.record["marks"]
        if "dispatch" in marks:
            inv.setup_s = marks["dispatch"] - spawn
            inv.job_s = marks["return"] - marks["dispatch"]
    return inv


@dataclass
class Round:
    invocations: list
    ops: list  # (ok, message) per operation

    @property
    def setup_s(self) -> float:
        return sum(inv.setup_s for inv in self.invocations)

    @property
    def job_s(self) -> float:
        return sum(inv.job_s for inv in self.invocations)

    @property
    def rss_mb(self) -> float:
        return max(inv.rss_mb for inv in self.invocations)

    @property
    def outputs_checked(self) -> bool:
        """Every process exited 0, so a failed operation means a wrong output."""
        return all(inv.exit_code == 0 for inv in self.invocations)


def run_round(wl, seed, cwd, deadline, tag, setup_only=False, **kw):
    invs = [
        invoke(cmd, seed, cwd, deadline, f"{tag}/{cmd.sub}", setup_only=setup_only, **kw)
        for cmd in wl.commands
    ]
    ops = [] if setup_only else wl.check(invs, CONFIGS / wl.commands[0].config)
    return Round(invs, ops)


def _median(values):
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def _metric(value, unit):
    return {"value": None if math.isnan(value) else value, "unit": unit}


def timed_run(wl, seed, seconds, cwd, start):
    deadline = start + DEADLINE_S
    rounds = []
    while True:
        rounds.append(run_round(wl, seed, cwd, deadline, f"round{len(rounds)}"))
        elapsed = time.perf_counter() - start
        # whole rounds until the requested length is reached
        if elapsed >= seconds or elapsed * (len(rounds) + 1) / len(rounds) > DEADLINE_S - 10:
            break
    probes = [
        run_round(wl, seed, cwd, deadline, f"setup{k}", setup_only=True)
        for k in range(SETUP_SAMPLES - len(rounds))
    ]
    metrics = {
        "setup_s": _metric(_median([r.setup_s for r in rounds + probes]), "s"),
        "job_s": _metric(_median([r.job_s for r in rounds]), "s"),
        "peak_rss_mb": _metric(_median([r.rss_mb for r in rounds]), "MiB"),
    }
    jobs = ", ".join(f"{r.job_s:.3f}" for r in rounds)
    print(f"{len(rounds)} timed rounds, job_s per round: {jobs}")
    return rounds, [], metrics


def _span_tables(invocations):
    """Total and self time, and call counts, per span name over processes."""
    total, self_time, calls, counts = Counter(), Counter(), Counter(), Counter()
    point_s = []
    for inv in invocations:
        spans = inv.record.get("spans", [])
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child):
            total[name] += end - start
            self_time[name] += end - start - inner
            calls[name] += 1
        counts.update(inv.record.get("counts", {}))
        # a grid point runs from its instantiate call to the next one's
        starts = sorted(s for name, s, _, _ in spans if name == "families.instantiate")
        for name, s0, e0, _ in spans:
            if name == "families.sweep":
                marks = [s for s in starts if s0 <= s <= e0] + [e0]
                point_s += [b - a for a, b in zip(marks, marks[1:])]
    return total, self_time, calls, counts, point_s


def _nearest_rank(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    return values[max(0, math.ceil(q * len(values)) - 1)]


def layer_metrics(traced, untraced_job_s):
    total, self_time, calls, counts, point_s = _span_tables(traced.invocations)
    generated = counts["dynamics.nodes_generated"]
    values = {
        "sphere.roots_s": (total["sphere.roots"], "s"),
        "sphere.roots_rows": (counts["sphere.roots_rows"], "count"),
        "sphere.scalar_preimage_calls": (counts["sphere.scalar_preimage_calls"], "count"),
        "sphere.deriv_norm_s": (total["sphere.deriv_norm"], "s"),
        "sphere.deriv_norm_points": (counts["sphere.deriv_norm_points"], "count"),
        "sphere.eval_s": (total["sphere.eval"], "s"),
        "sphere.eval_points": (counts["sphere.eval_points"], "count"),
        "dynamics.expand_s": (self_time["dynamics.expand"], "s"),
        "dynamics.subsample_s": (total["dynamics.subsample"], "s"),
        "dynamics.nodes_generated": (generated, "count"),
        "dynamics.keep_ratio": (counts["dynamics.nodes_kept"] / generated if generated else 1.0,
                                "ratio"),
        "dynamics.gate_s": (total["dynamics.gate"], "s"),
        "thermo.level_sum_s": (self_time["thermo.level_sum"], "s"),
        "thermo.level_sum_calls": (calls["thermo.level_sum"], "count"),
        "thermo.pressure_evals": (calls["thermo.estimate"], "count"),
        "thermo.tree_builds": (counts["thermo.tree_builds"], "count"),
        "thermo.root_search_s": (self_time["thermo.root_search"], "s"),
        "families.point_s_p50": (statistics.median(point_s) if point_s else 0.0, "s"),
        "families.point_s_p97": (_nearest_rank(point_s, 0.97), "s"),
        "families.instantiate_s": (total["families.instantiate"], "s"),
        "geometry.boxcount_s": (total["geometry.boxcount"], "s"),
        "geometry.osc_s": (total["geometry.osc"], "s"),
        "cli.self_s": (self_time["cli.command"], "s"),
        "cli.import_s": (
            sum(i.record["marks"]["imported"] - i.record["marks"]["import_start"]
                for i in traced.invocations if i.record),
            "s",
        ),
        "config.parse_s": (total["config.parse"], "s"),
        "trace.overhead_ratio": (traced.job_s / untraced_job_s, "ratio"),
    }
    job = traced.job_s
    print("traced self time by span (share of traced job_s):")
    for name, t in self_time.most_common():
        print(f"  {name:26s} {t:9.4f} s  {t / job:6.1%}  {calls[name]:8d} calls")
    return {name: _metric(float(v), unit) for name, (v, unit) in values.items()}


def traced_run(wl, seed, cwd, start):
    deadline = start + DEADLINE_S
    ref = run_round(wl, seed, cwd, deadline, "untraced")
    traced = run_round(wl, seed, cwd, deadline, "traced", trace=True)
    threads = run_round(wl, seed, cwd, deadline, "threads2", threads=2)
    # determinism: one operation per command and rerun, byte-identical outputs
    determinism = []
    for rerun in (traced, threads):
        for a, b in zip(ref.invocations, rerun.invocations):
            da, db = a.digests(), b.digests()
            differ = sorted(k for k in da.keys() | db.keys() if da.get(k) != db.get(k))
            determinism.append((not differ, f"{b.label}: {differ} differ from {a.label}"))
    untraced_job = _median([ref.job_s, threads.job_s])
    metrics = layer_metrics(traced, untraced_job)
    print(f"job_s untraced {ref.job_s:.3f} / {threads.job_s:.3f}, traced {traced.job_s:.3f}")
    return [ref, traced, threads], determinism, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()
    # on SIGTERM unwind, so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in (SRC / "ratsemi" / "cli.py", CONFIGS) if not p.exists()]
    if missing:
        print(f"not a ratsemi checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    cwd = WORK / f"{args.workload}-{os.getpid()}"
    cwd.mkdir(parents=True)
    try:
        if args.trace:
            rounds, extra_ops, metrics = traced_run(wl, args.seed, cwd, start)
        else:
            rounds, extra_ops, metrics = timed_run(wl, args.seed, args.seconds, cwd, start)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    ops = [op for r in rounds for op in r.ops] + extra_ops
    failures = Counter(msg for ok, msg in ops if not ok)
    for msg, n in sorted(failures.items()):
        print(f"FAILED {n}x {msg}", file=sys.stderr)
    # a failed check on a process that exited 0 is a wrong output; a crash
    # or a kill at the deadline is a failed operation only
    correct = all(ok for r in rounds if r.outputs_checked for ok, _ in r.ops) and (
        all(ok for ok, _ in extra_ops) or not all(r.outputs_checked for r in rounds)
    )
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": sum(failures.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
