"""The benchmark's span hooks must still find every name they patch."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import spans
from ratsemi import cli

tracer = spans.Tracer("hooks")
spans.install(tracer)
code = cli.main(["lyap", "--config", {config!r}, "--depth", "3"])
assert code == 0, code
assert tracer.spans and tracer.counts["thermo.tree_builds"] == 1, tracer.counts
"""


def test_span_hooks_install_and_trace_a_run(tmp_path):
    script = _SCRIPT.format(
        src=str(ROOT / "src"),
        bench=str(ROOT / "perfbench"),
        config=str(ROOT / "demos" / "configs" / "power_pair.json"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
