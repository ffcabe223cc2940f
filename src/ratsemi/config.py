"""Run configuration: strict JSON parsing, normalization with explicit
defaults, lossless emission, and builders for library objects.

The file is a single JSON object.  Complex numbers are [re, im] pairs;
a polynomial in the family parameter is a list of such pairs (ascending
degree).  Unknown keys and wrong types are rejected rather than ignored,
so configs round trip exactly: parse(emit(parse(text))) == parse(text).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from numpy.polynomial import Polynomial as LambdaPoly

from .dynamics import DEFAULT_CAP, DEFAULT_DEPTH, MultiMap
from .errors import ConfigError
from .families import AnnulusDomain, FamilySpec, GridSpec, RectDomain
from .geometry import MAX_BOX_SCALES, Annulus, ComplementDisc, Disc, Triangle
from .sphere import RationalMap
from .thermo import ThermoConfig


def _fail(where: str, msg: str):
    raise ConfigError(f"{where}: {msg}")


def _check_keys(d: dict, allowed, where: str):
    if not isinstance(d, dict):
        _fail(where, f"expected an object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        _fail(where, f"unknown keys {unknown}; allowed keys are {sorted(allowed)}")


# -- value kinds ------------------------------------------------------------
# Each kind is called as kind(value, where, arg) and returns the normalized
# value; arg is the key table's bounds, choices or nested table.  Bounds are
# a lower bound or an inclusive (lower, upper) pair, None meaning unbounded.


def _in_range(x, where, bounds):
    lo, hi = bounds if isinstance(bounds, tuple) else (bounds, None)
    if lo is not None and x < lo:
        _fail(where, f"must be >= {lo}, got {x}")
    if hi is not None and x > hi:
        _fail(where, f"must be <= {hi}, got {x}")
    return x


def _int(v, where, bounds=None):
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(where, f"expected an integer, got {v!r}")
    return _in_range(v, where, bounds)


def _float(v, where, bounds=None):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(where, f"expected a number, got {v!r}")
    try:
        f = float(v)
    except OverflowError:
        _fail(where, f"out of float range, got {v!r}")
    if not math.isfinite(f):
        _fail(where, f"must be finite, got {v!r}")
    return _in_range(f, where, bounds)


def _positive(v, where, _=None):
    if not _float(v, where) > 0.0:
        _fail(where, f"must be > 0, got {v!r}")
    return float(v)


def _bool(v, where, _=None):
    if not isinstance(v, bool):
        _fail(where, f"expected true/false, got {v!r}")
    return v


def _str(v, where, choices=None):
    if not isinstance(v, str):
        _fail(where, f"expected a string, got {v!r}")
    if choices is not None and v not in choices:
        _fail(where, f"must be one of {sorted(choices)}, got {v!r}")
    return v


def _pair(v, where, _=None):
    if not isinstance(v, list) or len(v) != 2:
        _fail(where, f"expected a [re, im] pair, got {v!r}")
    return [_float(v[0], where + "[0]"), _float(v[1], where + "[1]")]


def _list_of(item, what, min_len=1):
    """The kind of a list of at least min_len values of kind item."""
    def kind(v, where, _=None):
        if not isinstance(v, list) or len(v) < min_len:
            _fail(where, f"expected a {what}")
        return [item(x, f"{where}[{i}]") for i, x in enumerate(v)]
    return kind


_pairs = _list_of(_pair, "list of [re, im] pairs", min_len=0)
_floats = _list_of(_float, "non-empty list of numbers")
_poly = _list_of(_pair, "non-empty list of [re, im] pairs")
_lam_poly = _list_of(_poly, "non-empty list of parameter polynomials")


def _viewport(v, where, _=None):
    if not isinstance(v, list) or len(v) != 4:
        _fail(where, f"expected [xmin, xmax, ymin, ymax], got {v!r}")
    out = [_float(x, f"{where}[{i}]") for i, x in enumerate(v)]
    if out[0] >= out[1] or out[2] >= out[3]:
        _fail(where, "viewport bounds must be ordered")
    return out


def _smooth_line(v, where, _=None):
    if not isinstance(v, list) or len(v) != 2 or v[0] not in ("row", "col"):
        _fail(where, f"expected [\"row\"|\"col\", index], got {v!r}")
    return [v[0], _int(v[1], where + "[1]", 0)]


def _vertices(v, where, _=None):
    if not isinstance(v, list) or len(v) != 3:
        _fail(where.rpartition(".")[0], "triangle needs exactly three vertices")
    return _pairs(v, where)


def _generators(v, where, table):
    if not isinstance(v, list) or not v:
        _fail(where.rpartition(".")[0], "generators must be a non-empty list")
    return [_object(g, f"{where}[{i}]", table) for i, g in enumerate(v)]


_REQUIRED = object()  # default of a key that must be present
_OMITTED = object()   # default of a key left out of the output when absent


def _object(v, where, table):
    """Check a JSON object against its key table and fill every default.

    A key whose default is None also accepts null and keeps it."""
    _check_keys(v, table, where)
    out = {}
    for key, (kind, default, arg) in table.items():
        if key not in v and default is _REQUIRED:
            _fail(where, f"missing {key}")
        if key not in v and default is _OMITTED:
            continue
        x = v.get(key, default)
        out[key] = None if x is None and default is None else kind(x, f"{where}.{key}", arg)
    return out


def _variant(v, where, spec):
    """An object whose "kind" picks its key table: spec is (message, tables)."""
    needs_kind, tables = spec
    if not isinstance(v, dict) or "kind" not in v:
        _fail(where, needs_kind)
    kind = _str(v["kind"], where + ".kind", tables)
    return _object(v, where, {"kind": (_str, _REQUIRED, None), **tables[kind]})


# -- key tables: key -> (kind, default, bounds / choices / table) ------------

_NUMBER = (_float, _REQUIRED, None)
_COUNT = (_int, _REQUIRED, 1)
_CENTER = (_pair, _REQUIRED, None)
_ANNULUS = {"center": _CENTER, "r1": _NUMBER, "r2": _NUMBER}
_DISC = {"center": _CENTER, "r": _NUMBER}
_RECT = {"re_min": _NUMBER, "re_max": _NUMBER, "im_min": _NUMBER, "im_max": _NUMBER}
_REGIONS = ("region needs a kind", {
    "disc": _DISC,
    "annulus": _ANNULUS,
    "complement-disc": _DISC,
    "triangle": {"vertices": (_vertices, [], None)},  # absent: rejected as empty
})
_DOMAINS = ("domain needs a kind of rect or annulus", {
    "rect": _RECT,
    "annulus": _ANNULUS,
})

_TC = ThermoConfig()  # the thermo defaults live in its dataclass fields

_CONFIG = {
    "rng_seed": (_int, 0, 0),
    "thermo": (_object, {}, {
        "depth": (_int, _TC.depth, 2),
        "cap": (_int, _TC.cap, 1),
        "rng_seed": (_int, _TC.rng_seed, 0),  # absent: the top-level rng_seed
        "rtol_pressure": (_float, _TC.rtol_pressure, None),
        "tol_t": (_positive, _TC.tol_t, None),  # the root search stops on both
        "tol_p": (_positive, _TC.tol_p, None),
        "t_max": (_positive, _TC.t_max, None),
        "force": (_bool, _TC.force, None),
        "hyper_depth": (_int, _TC.hyper_depth, 1),
        "hyper_margin": (_positive, _TC.hyper_margin, None),
        "hyper_cap": (_int, _TC.hyper_cap, 1),
        "basepoint": (_pair, None, None),
    }),
    "julia": (_object, {}, {
        "depth": (_int, DEFAULT_DEPTH, 1),
        "cap": (_int, DEFAULT_CAP, 1),
        "rng_seed": (_int, 0, 0),  # absent: the top-level rng_seed
    }),
    "render": (_object, {}, {
        "width": (_int, 800, (1, 8192)),
        "height": (_int, 800, (1, 8192)),
        "viewport": (_viewport, None, None),
        "depth_coloring": (_bool, False, None),
        "out": (_str, "julia.ppm", None),
    }),
    "osc": (_object, {}, {
        "grid_n": (_int, 256, (64, 4096)),
        "variant": (_str, "plain", {"plain", "separating"}),
        "epsilon": (_float, 1e-3, 0),  # 0 is the closed-region test
        "enlarge": (_float, 1.5, (1.0, 16.0)),  # a huge window passes any region
    }),
    "boxdim": (_object, {}, {
        "scale_count": (_int, 6, (2, MAX_BOX_SCALES)),
        "viewport": (_viewport, None, None),
    }),
    "sweep": (_object, {}, {
        "out": (_str, "sweep.csv", None),
        "submean_radius": (_int, 1, 1),
        "smooth_line": (_smooth_line, None, None),
        "fit_degree": (_int, 4, 1),
    }),
    "t_values": (_floats, [0.0, 0.5, 1.0, 1.5, 2.0], None),
    "region": (_variant, None, _REGIONS),
    "grid": (_object, None, {**_RECT, "re_n": _COUNT, "im_n": _COUNT}),
    "poincare_N": (_int, 8, 1),
    "multimap": (_object, _OMITTED, {
        "generators": (_generators, [], {  # absent: rejected as empty
            "num": (_poly, _REQUIRED, None),
            "den": (_poly, [[1.0, 0.0]], None),
        }),
    }),
    "family": (_object, _OMITTED, {
        "generators": (_generators, [], {  # absent: rejected as empty
            "num": (_lam_poly, _REQUIRED, None),
            "den": (_lam_poly, [[[1.0, 0.0]]], None),
        }),
        "domain": (_variant, _REQUIRED, _DOMAINS),
        "excluded": (_pairs, [], None),
        "puncture_tol": (_float, 1e-9, None),
        "lam": (_pair, None, None),
    }),
}


def normalize(raw: dict) -> dict:
    """Validate a parsed JSON object and fill every default explicitly."""
    _check_keys(raw, _CONFIG, "config")  # before the next check, so a misspelt key is named
    if ("multimap" in raw) == ("family" in raw):
        _fail("config", "exactly one of multimap or family is required")
    data = _object(raw, "config", _CONFIG)
    for section in ("thermo", "julia"):
        if "rng_seed" not in raw.get(section, {}):
            data[section]["rng_seed"] = data["rng_seed"]
    return data


@dataclass
class RunConfig:
    data: dict

    # -- builders -----------------------------------------------------------

    def thermo_config(self) -> ThermoConfig:
        th = self.data["thermo"]
        return ThermoConfig(**{f.name: th[f.name] for f in fields(ThermoConfig)})

    def basepoint(self):
        bp = self.data["thermo"]["basepoint"]
        return None if bp is None else complex(*bp)

    def family_spec(self) -> FamilySpec:
        if "family" not in self.data:
            raise ConfigError("this command needs a family config")
        fam = self.data["family"]
        gens = []
        for g in fam["generators"]:
            num = tuple(LambdaPoly([complex(*c) for c in p]) for p in g["num"])
            den = tuple(LambdaPoly([complex(*c) for c in p]) for p in g["den"])
            gens.append((num, den))
        dom = fam["domain"]
        try:
            if dom["kind"] == "rect":
                domain = RectDomain(dom["re_min"], dom["re_max"], dom["im_min"], dom["im_max"])
            else:
                domain = AnnulusDomain(complex(*dom["center"]), dom["r1"], dom["r2"])
            return FamilySpec(
                generators=tuple(gens),
                domain=domain,
                excluded=tuple(complex(*p) for p in fam["excluded"]),
                puncture_tol=fam["puncture_tol"],
            )
        except ValueError as e:
            raise ConfigError(f"config.family: {e}") from e

    def multimap(self) -> MultiMap:
        from .families import instantiate

        if "multimap" in self.data:
            maps = []
            for i, g in enumerate(self.data["multimap"]["generators"]):
                num = [complex(*c) for c in g["num"]]
                den = [complex(*c) for c in g["den"]]
                try:
                    maps.append(RationalMap(num, den))
                except ValueError as e:
                    raise ConfigError(f"config.multimap.generators[{i}]: {e}") from e
            return MultiMap(maps)
        fam = self.data["family"]
        if fam["lam"] is None:
            raise ConfigError(
                "config.family.lam: this command instantiates the family at a "
                "single parameter; set lam to a [re, im] pair"
            )
        return instantiate(self.family_spec(), complex(*fam["lam"]))

    def region(self):
        r = self.data["region"]
        if r is None:
            raise ConfigError("config.region: this command needs a region")
        try:
            if r["kind"] == "disc":
                return Disc(complex(*r["center"]), r["r"])
            if r["kind"] == "annulus":
                return Annulus(complex(*r["center"]), r["r1"], r["r2"])
            if r["kind"] == "complement-disc":
                return ComplementDisc(complex(*r["center"]), r["r"])
            return Triangle(*(complex(*v) for v in r["vertices"]))
        except ValueError as e:
            raise ConfigError(f"config.region: {e}") from e

    def grid_spec(self) -> GridSpec:
        g = self.data["grid"]
        if g is None:
            raise ConfigError("config.grid: this command needs a parameter grid")
        try:
            return GridSpec(g["re_min"], g["re_max"], g["re_n"],
                            g["im_min"], g["im_max"], g["im_n"])
        except ValueError as e:
            raise ConfigError(f"config.grid: {e}") from e


def parse(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as e:  # also over-long integers, deep nesting
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return RunConfig(normalize(raw))


def parse_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse(text)


def emit(config: RunConfig) -> str:
    """Canonical JSON text; parse(emit(c)) == c."""
    return json.dumps(config.data, indent=2, sort_keys=True) + "\n"
