"""Spans around the calls between ratsemi's modules, installed from outside.

A span records (name, start, end, parent); the spans of one process share the
tracer's run id.  They stay in memory and are dumped once the process ends.

Each hook replaces a name in the module that calls it: thermo, families and
cli bind the library functions they use at import time, so patching only the
defining module would record nothing.  Methods are patched on their class.
"""
import functools
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()

    def wrap(self, fn, name, count=None):
        """fn timed as a span named name; count(counts, args, result) runs after."""
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def counted(self, fn, key):
        """fn with its calls counted under key, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counts": dict(self.counts)}


def _points(key):
    def count(counts, args, result):
        counts[key] += np.size(args[1])

    return count


def _subsample(counts, args, result):
    counts["dynamics.nodes_generated"] += args[0].size
    counts["dynamics.nodes_kept"] += result.size


def install(tracer: Tracer) -> None:
    from ratsemi import cli, config, dynamics, families, sphere, thermo

    def patch(owners, attr, name, count=None):
        for owner in owners:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))

    # sphere: batched numerics, patched on the class
    rm = sphere.RationalMap
    patch([rm], "preimages_many", "sphere.roots", _points("sphere.roots_rows"))
    patch([rm], "spherical_derivative_norm_many", "sphere.deriv_norm",
          _points("sphere.deriv_norm_points"))
    patch([rm], "eval_many", "sphere.eval", _points("sphere.eval_points"))
    rm.preimages = tracer.counted(rm.preimages, "sphere.scalar_preimage_calls")

    # dynamics: tree levels, the cap and the hyperbolicity gate
    patch([dynamics, thermo], "_expand_backward", "dynamics.expand")
    patch([dynamics, thermo], "_subsample_level", "dynamics.subsample", _subsample)
    patch([cli, thermo], "check_hyperbolic", "dynamics.gate")
    patch([cli, dynamics], "julia_backward_cloud", "dynamics.backward_cloud")
    patch([dynamics.PointCloud], "finite_points", "dynamics.finite_points")

    # thermo: the shared tree, level sums and the root search
    tree = thermo.PreimageTree
    tree.__init__ = tracer.counted(tree.__init__, "thermo.tree_builds")
    patch([tree], "extend", "thermo.extend")
    patch([tree], "log_level_sum", "thermo.level_sum")
    patch([thermo], "_estimate_on_tree", "thermo.estimate")
    patch([cli, families], "bowen_parameter", "thermo.root_search")
    patch([cli], "lyapunov_and_entropy", "thermo.lyapunov")

    # families: one instantiate per grid point, then the diagnostics
    patch([families], "instantiate", "families.instantiate")
    patch([cli], "sweep_delta", "families.sweep")
    patch([cli], "submean_diagnostic", "families.diagnostics")
    patch([cli], "smoothness_diagnostic", "families.diagnostics")

    # geometry
    patch([cli], "box_dimension", "geometry.boxcount")
    patch([cli], "osc_check", "geometry.osc")

    # config: parsing, and building library objects from the parsed config
    patch([cli], "parse_file", "config.parse")
    for method in ("multimap", "thermo_config", "basepoint", "family_spec",
                   "grid_spec", "region"):
        patch([config.RunConfig], method, "config.build")
