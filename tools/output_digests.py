"""Run every CLI subcommand on the demo configs and every demo script, and print
digests of what they wrote.

Usage: python tools/output_digests.py

Runs the subcommand list of CI's warning-free step, each as
``python -W error -m ratsemi.cli CMD --config demos/configs/CONFIG.json
[EXTRA...] --out DIR/CONFIG-CMD[-EXTRA...].out`` with the package from this
checkout's ``src``, in a temporary directory that is removed afterwards.
EXTRA are the entry's own CLI arguments, such as the benchmark's
``lyap --depth 8``.  Then runs each ``demos/*.py`` as ``python -W error
demos/NAME.py``; the demos write no files.  Prints one ``sha256 label`` line
per stdout (the temporary directory's path replaced by ``$OUT``) and per
output file, passes every command's stderr through, and exits 1 if any
command exits non-zero.  On stderr it also prints two lines per command:
``MiB  peak_rss_mb label``, the child's peak resident set size, read from
``os.wait4``, and ``seconds  wall_s label``, its wall time from start to
exit, so the peak and the time of every subcommand can be compared between
checkouts; stdout holds only the digests.

To check that a change keeps every output byte-identical, run the tool in the
parent's checkout and in the change's, and ``diff`` the two outputs.
"""
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (subcommand, config, extra CLI arguments)
COMMANDS = (
    [(cmd, c, ()) for c in ("annulus", "gasket") for cmd in ("julia", "boxdim", "osc")]
    + [("bowen", c, ()) for c in ("supercritical", "gasket", "annulus", "power_pair")]
    + [(cmd, "power_pair", ()) for cmd in ("pressure", "poincare", "lyap")]
    # degrees 2 and 3: the default depth-12 cloud is capped from level 8, a capped
    # mixed-degree points-only cloud
    + [(cmd, "power_pair", ()) for cmd in ("julia", "boxdim")]
    # every level of the default depth-12 cloud holds points at infinity, so julia and
    # boxdim read masked slices
    + [(cmd, "newton_square", ()) for cmd in ("julia", "boxdim")]
    + [("lyap", "power_pair", ("--depth", "8"))]  # the lyap-mixed-degree benchmark run
    + [("sweep", "similarity_sweep", ())]
    # the benchmark passes --seed on every run: the one run seed reaches the tree and the cloud
    + [("bowen", "supercritical", ("--seed", "3")), ("julia", "power_pair", ("--seed", "3"))]
    # z^2 and z^3 conjugated by (z - 1)/(z + 1): parents at infinity, degree drops at the
    # target 0, and a map with a nonzero leading denominator coefficient Q_d
    + [(cmd, "rotated_powers", ("--seed", "3")) for cmd in ("bowen", "julia")]
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    failed = 0
    with tempfile.TemporaryDirectory() as out:
        runs = [(" ".join([cmd, config, *extra]),
                 ["-m", "ratsemi.cli", cmd, "--config", f"demos/configs/{config}.json", *extra,
                  "--out", os.path.join(out, "-".join([config, cmd, *extra]) + ".out")])
                for cmd, config, extra in COMMANDS]
        runs += [(f"demo {demo.name}", [f"demos/{demo.name}"])
                 for demo in sorted((ROOT / "demos").glob("*.py"))]
        for label, args in runs:
            print(f"== {label}", file=sys.stderr, flush=True)
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-W", "error", *args], cwd=ROOT, env=env,
                                    stdout=subprocess.PIPE)
            with proc.stdout:
                stdout = proc.stdout.read().replace(out.encode(), b"$OUT")
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            # Linux reports ru_maxrss in KiB
            print(f"{usage.ru_maxrss / 1024:.2f}  peak_rss_mb {label}", file=sys.stderr, flush=True)
            print(f"{wall:.3f}  wall_s {label}", file=sys.stderr, flush=True)
            if proc.returncode != 0:
                print(f"{label}: exit code {proc.returncode}", file=sys.stderr)
                failed += 1
            print(f"{_sha(stdout)}  stdout {label}", flush=True)
        for path in sorted(Path(out).iterdir()):
            print(f"{_sha(path.read_bytes())}  {path.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
