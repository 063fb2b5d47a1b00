"""Spans around calls into permacheck's layers, and per-layer metrics.

``Tracer`` runs inside a traced command (see ``traced_cli.py``).  It
wraps each public function named in ``TARGETS`` and rebinds the wrapper
in every permacheck module that imported the function, so calls between
modules are traced too.  A span records its name, start, end, parent
span and counters; spans stay in memory until the command exits.

``layer_metrics`` runs in the benchmark process and turns the spans of a
pass into per-layer metrics: calls, self time (a span's duration minus
the time its child spans cover) and work counters.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time

# Functions called tens of thousands of times per command, such as
# sampler.abs_product_moment, are left unwrapped.
TARGETS = {
    "cli": ("parse_and_dispatch",),
    "matcore": ("resolvent", "invert", "load_matrix"),
    "betaperm": ("cycle_polynomial", "beta_positivity_scan", "id_necessary_battery"),
    "idcheck": ("id_verdict", "bapat_test"),
    "green": ("is_green", "plus_constant_check"),
    "sampler": ("sample_permanental", "save_batch"),
    "assoc": ("association_mc_test", "default_family", "resolvent_monotonicity_scan",
              "fkg_lattice_test", "shifted_strong_order_test"),
    "densities": ("marginal_quantile_grid",),
}

METHODS = ("bapat-exact", "inverse-M-sufficient", "battery-necessary")
IMPORTS = {"numpy": "numpy", "scipy.stats": "scipy_stats",
           "scipy.special": "scipy_special"}


def _scalings(args, kwargs):
    d_set = kwargs.get("D_set", args[2] if len(args) > 2 else None)
    return 1 if d_set is None else len(d_set)


COUNTERS = {
    "betaperm.beta_positivity_scan": lambda a, kw, r: {"triples": r.scanned},
    "idcheck.id_verdict": lambda a, kw, r: {"method": r.method},
    "sampler.sample_permanental": lambda a, kw, r: {"draws": r.n_draws},
    "sampler.save_batch": lambda a, kw, r: {
        "bytes": os.path.getsize(kw.get("path", a[1] if len(a) > 1 else None))},
    "assoc.association_mc_test": lambda a, kw, r: {"pairs": len(r.pairs)},
    "assoc.resolvent_monotonicity_scan": lambda a, kw, r: {"scalings": _scalings(a, kw)},
}


class Tracer:
    """Collects spans from wrapped permacheck functions in one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, counters]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        # a worker thread's spans belong to the span that started the pool
        main = self._main_stack
        return main[-1] if main else None

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._parent(), None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack = self._stack()
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever permacheck imported it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "permacheck" or key.startswith("permacheck."))]
        for short, names in TARGETS.items():
            home = sys.modules[f"permacheck.{short}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{short}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def parse_importtime(stderr: str) -> tuple:
    """Split ``-X importtime`` lines from stderr.

    Returns (cumulative seconds for the modules in IMPORTS, other stderr).
    """
    found, rest = {}, []
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        module = fields[2].strip()
        if module in IMPORTS and module not in found:
            found[module] = int(fields[1]) * 1e-6
    return found, "".join(rest)


def _self_times(spans) -> list:
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


def _under(spans, i, name) -> bool:
    p = spans[i][3]
    while p is not None:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(records: list) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    ``records`` holds one dict per command with ``interp_s``, ``import_s``,
    ``imports`` (module -> cumulative s) and ``spans``.  Start-up figures
    are medians over the commands; every other figure is a pass total.
    """
    m = {}
    for short, names in TARGETS.items():
        for fn_name in names:
            m[f"{short}.{fn_name}.calls"] = (0, "count")
            m[f"{short}.{fn_name}.busy_s"] = (0.0, "s")
    extra = {"betaperm.beta_positivity_scan.triples": 0,
             "sampler.sample_permanental.draws": 0, "sampler.save_batch.bytes": 0,
             "assoc.association_mc_test.pairs": 0,
             "assoc.resolvent_monotonicity_scan.scalings": 0}
    extra.update({f"idcheck.method.{meth}.count": 0 for meth in METHODS})
    polys_in_scans = 0
    for rec in records:
        spans = rec["spans"]
        for i, busy in enumerate(_self_times(spans)):
            name, counters = spans[i][0], spans[i][4]
            calls, total = m[f"{name}.calls"][0], m[f"{name}.busy_s"][0]
            m[f"{name}.calls"] = (calls + 1, "count")
            m[f"{name}.busy_s"] = (total + busy, "s")
            for key, value in (counters or {}).items():
                if key == "method":
                    extra[f"idcheck.method.{value}.count"] += 1
                else:
                    extra[f"{name}.{key}"] += value
            if name == "betaperm.cycle_polynomial" and \
                    _under(spans, i, "betaperm.beta_positivity_scan"):
                polys_in_scans += 1
    for key, value in extra.items():
        m[key] = (value, "B" if key.endswith(".bytes") else "count")
    triples = extra["betaperm.beta_positivity_scan.triples"]
    m["betaperm.triples_per_poly"] = (triples / max(polys_in_scans, 1), "ratio")

    def median(key):
        return statistics.median(r[key] for r in records)

    m["cli.interp_s"] = (median("interp_s"), "s")
    m["cli.import_s"] = (median("import_s"), "s")
    for module, short in IMPORTS.items():
        m[f"cli.import.{short}_s"] = (
            statistics.median(r["imports"].get(module, 0.0) for r in records), "s")
    return m
