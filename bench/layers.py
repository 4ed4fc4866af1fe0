"""Traced run: spans around the calls into each layer, taken from outside.

As a script this is the traced child of one command::

    python bench/layers.py SPANS.json -- <minuncert argv>

It imports ``minuncert.cli``, wraps every probed function by object
identity in each ``minuncert.*`` namespace that binds it (``upper_gamma``
is bound in both ``specfun`` and ``multipartite``), runs
``minuncert.cli.main(argv)``, writes the spans it kept in memory and
exits with the command's own status.  The library is not modified.

As a module it turns span files into the per-layer metrics.  A probe
whose target no longer exists is reported absent, never an error: later
refactors may remove or reroute these entry points.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import namedtuple

Probe = namedtuple("Probe", "name module attr kind")

# kind selects which work count the wrapper records:
#   points  element count of the array argument
#   evals   integrand evaluations reported by the quadrature result
#   fvec    evals and cells (theta nodes x radii) of a vector pass
#   radii   number of radii handed to the angular pass
#   xi      the xi argument, for distinct-call counting
#   ident   identity of the returned object, for cache-hit counting
#   order   order of the quadratic form
#   bytes   size of the table file written
PROBES = (
    Probe("specfun.upper_gamma", "minuncert.specfun", "upper_gamma", "points"),
    Probe("specfun.log_bessel_i0", "minuncert.specfun", "log_bessel_i0", "points"),
    Probe("quadrature.integrate_semi_infinite", "minuncert.quadrature",
          "integrate_semi_infinite", "evals"),
    Probe("quadrature.integrate_finite_vector", "minuncert.quadrature",
          "integrate_finite_vector", "fvec"),
    Probe("quadrature.integrate_2d", "minuncert.quadrature", "integrate_2d", "evals"),
    Probe("bipartite.angular_pass", "minuncert.bipartite", "_angular_kernel_integral", "radii"),
    Probe("bipartite.uncertainty_product", "minuncert.bipartite", "uncertainty_product", ""),
    Probe("multipartite.normalization", "minuncert.multipartite",
          "OdeFamilyProfile.normalization", ""),
    Probe("multipartite.rk_norm", "minuncert.multipartite", "OdeFamilyProfile.rk_norm", ""),
    Probe("multipartite.functional_z", "minuncert.multipartite", "functional_z", ""),
    Probe("multipartite.z4_product", "minuncert.multipartite", "z4_product", "xi"),
    Probe("multipartite.z6_product", "minuncert.multipartite", "z6_product", "xi"),
    Probe("multipartite.g_family", "minuncert.multipartite", "g_family", "ident"),
    Probe("multipartite.h_family", "minuncert.multipartite", "h_family", "ident"),
    Probe("spectral.min_eigenpair", "minuncert.spectral", "min_eigenpair", "order"),
    Probe("simple_state.minimize_q0", "minuncert.simple_state", "minimize_q0", ""),
    Probe("cli.write_table", "minuncert.cli", "write_table", "bytes"),
    Probe("cli.command", "minuncert.cli", "main", ""),
)

# metric name -> unit; every traced run reports all of them, absent or not
METRICS = {
    "specfun.upper_gamma.calls": "count",
    "specfun.upper_gamma.points": "count",
    "specfun.upper_gamma.self_s": "s",
    "specfun.upper_gamma.us_per_point": "us",
    "specfun.log_bessel_i0.points": "count",
    "specfun.log_bessel_i0.self_s": "s",
    "quadrature.integrate_semi_infinite.calls": "count",
    "quadrature.integrate_semi_infinite.evals": "count",
    "quadrature.integrate_semi_infinite.self_s": "s",
    "quadrature.integrate_semi_infinite.errors": "count",
    "quadrature.integrate_finite_vector.calls": "count",
    "quadrature.integrate_finite_vector.evals": "count",
    "quadrature.integrate_finite_vector.cells": "count",
    "quadrature.integrate_finite_vector.self_s": "s",
    "quadrature.integrate_2d.calls": "count",
    "quadrature.integrate_2d.evals": "count",
    "quadrature.integrate_2d.self_s": "s",
    "bipartite.angular_pass.radii": "count",
    "bipartite.uncertainty_product.calls": "count",
    "bipartite.uncertainty_product.self_s": "s",
    "multipartite.functional_z.calls": "count",
    "multipartite.functional_z.incl_s": "s",
    "multipartite.norm_passes": "count",
    "multipartite.norm_incl_s": "s",
    "multipartite.product.calls": "count",
    "multipartite.product.distinct": "count",
    "multipartite.product.reuse_ratio": "ratio",
    "multipartite.family.calls": "count",
    "multipartite.family.hit_ratio": "ratio",
    "spectral.min_eigenpair.calls": "count",
    "spectral.min_eigenpair.order": "count",
    "spectral.min_eigenpair.self_s": "s",
    "simple_state.minimize_q0.self_s": "s",
    "cli.command.incl_s": "s",
    "cli.write_table.self_s": "s",
    "cli.write_table.bytes": "bytes",
    "trace.overhead_s": "s",
}

# counts that must repeat exactly between two traced runs of one input
DETERMINISTIC = tuple(
    m for m in METRICS
    if m.endswith((".calls", ".points", ".evals", ".cells", ".radii", ".distinct",
                   ".errors", ".order", ".bytes", "norm_passes"))
)


def _size(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        return 1
    n = 1
    for d in shape:
        n *= d
    return n


def _work(kind, args, kwargs, result):
    """(w1, w2) for a finished call; ``result`` is the exception on error."""
    if kind == "points":
        x = args[-1] if args else kwargs.get("x", kwargs.get("z"))
        return _size(x), 0
    if kind == "radii":
        r = args[1] if len(args) > 1 else kwargs["r"]
        return _size(r), 0
    if kind in ("evals", "fvec"):
        res = getattr(result, "result", result)  # QuadratureError carries one
        if kind == "fvec" and isinstance(res, tuple):
            values, res = res
            return res.evaluations, res.evaluations * _size(values)
        return getattr(res, "evaluations", 0), 0
    if kind == "xi":
        xi = args[0] if args else kwargs["xi"]
        return float(getattr(xi, "value", xi)), 0
    if kind == "ident":
        return float(id(result)), 0
    if kind == "order":
        return getattr(args[0], "order", 0), 0
    if kind == "bytes":
        path = getattr(args[0], "output_path", None)
        return (os.path.getsize(path) if path and os.path.exists(path) else 0), 0
    return 0, 0


class Tracer:
    """Spans kept in memory as rows [probe, start, end, parent, w1, w2, error]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, index, kind, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            row = [index, 0.0, 0.0, stack[-1] if stack else -1, 0, 0, 0]
            stack.append(len(spans))
            spans.append(row)
            result = None
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                result = exc
                row[6] = 1
                raise
            finally:
                row[2] = clock()
                stack.pop()
                if kind:
                    row[4], row[5] = _work(kind, args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, probes=PROBES):
        """Wrap every probe target that exists; return the names of absent ones."""
        absent = []
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "minuncert" or name.startswith("minuncert."))]
        for index, probe in enumerate(probes):
            try:
                owner = importlib.import_module(probe.module)
            except ImportError:
                absent.append(probe.name)
                continue
            *path, leaf = probe.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            # on a class, look in its __dict__ so a property is seen as one
            target = (owner.__dict__.get(leaf) if isinstance(owner, type)
                      else getattr(owner, leaf, None))
            if isinstance(target, property) and target.fget is not None:
                setattr(owner, leaf, property(self.wrap(index, probe.kind, target.fget),
                                              target.fset, target.fdel, target.__doc__))
            elif isinstance(owner, type) and callable(target):
                setattr(owner, leaf, self.wrap(index, probe.kind, target))
            elif callable(target):
                wrapped = self.wrap(index, probe.kind, target)
                for mod in namespaces:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, attr, wrapped)
            else:
                absent.append(probe.name)
        return absent


def child_main(argv):
    spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: layers.py SPANS.json -- <minuncert argv>")
    import minuncert.cli

    tracer = Tracer()
    absent = tracer.install()
    status = minuncert.cli.main(cli_argv)
    doc = {"probes": [p.name for p in PROBES], "absent": absent, "spans": tracer.spans}
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return status


# ---------------------------------------------------------------------------
# aggregation


def aggregate(docs, overhead_s):
    """Per-layer metrics of one traced pass (one span document per command)."""
    names = [p.name for p in PROBES]
    n = len(names)
    calls, incl, self_s, w1, w2, errors = ([0.0] * n for _ in range(6))
    c = dict.fromkeys(("norm_passes", "norm_incl", "product_calls", "product_distinct",
                       "family_calls", "family_hits"), 0)
    norm_ids = {names.index("multipartite.normalization"), names.index("multipartite.rk_norm")}
    functional = names.index("multipartite.functional_z")
    radial = names.index("quadrature.integrate_semi_infinite")
    products = {names.index("multipartite.z4_product"), names.index("multipartite.z6_product")}
    families = {names.index("multipartite.g_family"), names.index("multipartite.h_family")}
    absent = set()
    for doc in docs:
        if doc["probes"] != names:
            raise ValueError("span file written with another probe list")
        absent.update(doc["absent"])
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        xi_seen, ident_seen = set(), set()  # one process per document
        for k, s in enumerate(spans):
            p = s[0]
            dur = s[2] - s[1]
            calls[p] += 1
            incl[p] += dur
            self_s[p] += dur - child_time[k]
            w1[p] += s[4]
            w2[p] += s[5]
            errors[p] += s[6]
            if p in products:
                c["product_calls"] += 1
                c["product_distinct"] += (p, s[4]) not in xi_seen
                xi_seen.add((p, s[4]))
            elif p in families:
                c["family_calls"] += 1
                c["family_hits"] += s[4] in ident_seen
                ident_seen.add(s[4])
            elif p == radial:
                # a norm pass: the nearest probed owner is a norm accessor,
                # not the functional itself
                q = s[3]
                while q >= 0 and spans[q][0] not in norm_ids and spans[q][0] != functional:
                    q = spans[q][3]
                if q >= 0 and spans[q][0] in norm_ids:
                    c["norm_passes"] += 1
                    c["norm_incl"] += dur
    tot = {"calls": calls, "incl": incl, "self": self_s, "w1": w1, "w2": w2, "errors": errors}

    def get(probe, key):
        return tot[key][names.index(probe)]

    ug_points = get("specfun.upper_gamma", "w1")
    ug_self = get("specfun.upper_gamma", "self")
    m = {
        "specfun.upper_gamma.calls": get("specfun.upper_gamma", "calls"),
        "specfun.upper_gamma.points": ug_points,
        "specfun.upper_gamma.self_s": ug_self,
        "specfun.upper_gamma.us_per_point": 1e6 * ug_self / ug_points if ug_points else 0.0,
        "specfun.log_bessel_i0.points": get("specfun.log_bessel_i0", "w1"),
        "specfun.log_bessel_i0.self_s": get("specfun.log_bessel_i0", "self"),
        "bipartite.angular_pass.radii": get("bipartite.angular_pass", "w1"),
        "multipartite.functional_z.calls": get("multipartite.functional_z", "calls"),
        "multipartite.functional_z.incl_s": get("multipartite.functional_z", "incl"),
        "multipartite.norm_passes": c["norm_passes"],
        "multipartite.norm_incl_s": c["norm_incl"],
        "multipartite.product.calls": c["product_calls"],
        "multipartite.product.distinct": c["product_distinct"],
        # no product call means no reuse either
        "multipartite.product.reuse_ratio": (c["product_distinct"] / c["product_calls"]
                                             if c["product_calls"] else 1.0),
        "multipartite.family.calls": c["family_calls"],
        "multipartite.family.hit_ratio": (c["family_hits"] / c["family_calls"]
                                          if c["family_calls"] else 0.0),
        "spectral.min_eigenpair.order": get("spectral.min_eigenpair", "w1"),
        "cli.command.incl_s": get("cli.command", "incl"),
        "cli.write_table.bytes": get("cli.write_table", "w1"),
        "quadrature.integrate_semi_infinite.errors": get("quadrature.integrate_semi_infinite",
                                                          "errors"),
        "quadrature.integrate_finite_vector.cells": get("quadrature.integrate_finite_vector",
                                                        "w2"),
        "trace.overhead_s": overhead_s,
    }
    for metric in METRICS:
        if metric in m:
            continue
        probe, field = metric.rsplit(".", 1)
        key = {"calls": "calls", "self_s": "self", "incl_s": "incl", "evals": "w1"}[field]
        m[metric] = get(probe, key)
    metrics = {k: {"value": (int(m[k]) if METRICS[k] in ("count", "bytes") else m[k]),
                   "unit": METRICS[k]} for k in METRICS}
    return metrics, sorted(absent)


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
