"""Spans around the calls into gapcert's layers, and the per-layer metrics.

`Tracer.install` replaces public functions in the module namespaces where
their callers look them up (nothing under ``src/`` changes):

* ``gapcert.harness`` binds the sampling, certificate, projector and gap
  functions through ``from ... import``;
* ``gapcert.spectral`` looks up ``smallest_eig_above``, ``dense_hamiltonian``
  and ``dense_spectrum`` in its own globals;
* the ``hamiltonian_matvec`` closures look up ``chain_matvec`` and
  ``tree_matvec`` in ``gapcert.model``;
* ``gapcert.harness`` calls ``capgeom`` through the module.

A span is (id, name, start, end, parent id, trial id, attributes).  Spans are
kept in memory and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

PATCH_POINTS = {
    "gapcert.harness": ("sample_family", "sample_family_batch", "construct_near_good",
                        "projector_from_family", "certify", "gap_report"),
    "gapcert.spectral": ("smallest_eig_above", "dense_hamiltonian", "dense_spectrum"),
    "gapcert.model": ("chain_matvec", "tree_matvec"),
}
MATVECS = ("model.chain_matvec", "model.tree_matvec")


def _trial_of(name, args, kwargs):
    """Trial index a sampling call starts, read from its seed arguments."""
    if name == "sample_family_batch":
        return args[3] if len(args) > 3 else kwargs.get("start")
    seed = next((a for a in args if hasattr(a, "stream_index")), kwargs.get("seed"))
    return getattr(seed, "stream_index", None)


def _matvec_attrs(name, args):
    """Columns and flop count of one matvec call: 2 d^2 dim per term and column."""
    P, x = args[0], args[-1]
    d = P.d
    if name == "chain_matvec":
        sites = args[1]
    else:
        k, levels = args[1], args[2]
        sites = (k**levels - 1) // (k - 1)
    cols = 1 if x.ndim == 1 else x.shape[1]
    dim = d**sites
    return {"cols": cols, "flops": 2 * d * d * dim * (sites - 1) * cols}


def _attrs(name, args):
    if name in ("chain_matvec", "tree_matvec"):
        return _matvec_attrs(name, args)
    if name == "dense_hamiltonian":
        return {"bytes": args[0].dim ** 2 * 8}
    return None


class Tracer:
    """Records one span per wrapped call, from any thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.block = None  # block index, set by the run loop
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []  # (module, name, original function)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _trial(self):
        return f"{self.block}:{getattr(self._local, 'trial', None)}"

    def wrap(self, name: str, fn):
        short = fn.__name__
        track_trial = short in ("sample_family", "sample_family_batch", "construct_near_good")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if track_trial:
                self._local.trial = _trial_of(short, args, kwargs)
            attrs = _attrs(short, args)
            with self.span(name, attrs):
                return fn(*args, **kwargs)

        return wrapper

    def span(self, name: str, attrs: dict | None = None):
        return _Span(self, name, attrs)

    def install(self) -> None:
        import importlib

        for module_name, names in PATCH_POINTS.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name)
                self._patch(module, name, f"{fn.__module__.split('.')[-1]}.{name}")
        capgeom = importlib.import_module("gapcert.capgeom")
        for name, fn in inspect.getmembers(capgeom, inspect.isfunction):
            if fn.__module__ == capgeom.__name__ and not name.startswith("_"):
                self._patch(capgeom, name, f"capgeom.{name}")

    def _patch(self, module, name: str, span_name: str) -> None:
        fn = getattr(module, name)
        self._patched.append((module, name, fn))
        setattr(module, name, self.wrap(span_name, fn))

    def uninstall(self) -> None:
        """Put back the functions `install` replaced."""
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "attrs", "id", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str, attrs: dict | None):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        stack = self.tracer._stack()
        self.id = next(self.tracer._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.id, self.name, self.t0, t1, self.parent, self.tracer._trial(), self.attrs))
        return False


def load(path) -> list[tuple]:
    with open(path, encoding="utf-8") as f:
        return [tuple(json.loads(line)) for line in f if line.strip()]


def layer_metrics(spans: list[tuple], rows: dict) -> dict:
    """Per-layer metrics of one traced run.

    ``rows`` carries what the run's rows and blocks say: ``trial_wall`` (per
    trial wall times), ``threads``, and the check's violation counts.
    """
    by_id = {s[0]: s for s in spans}

    def ancestors(s):
        while s[4] is not None and s[4] in by_id:
            s = by_id[s[4]]
            yield s

    def top(name):
        """Spans of `name` not nested in another span of the same name."""
        return [s for s in spans if s[1] == name and all(a[1] != name for a in ancestors(s))]

    def busy(name):
        return sum(s[3] - s[2] for s in top(name))

    def attr_sum(name, key):
        return sum(s[6][key] for s in spans if s[1] == name)

    out = {}
    # spectral: iterative solves are the gap_report spans with matvecs inside
    solve_matvec: dict[int, list] = {}
    for s in spans:
        if s[1] in MATVECS:
            report = next((a for a in ancestors(s) if a[1] == "spectral.gap_report"), None)
            if report is not None:
                acc = solve_matvec.setdefault(report[0], [0.0, 0])
                acc[0] += s[3] - s[2]
                acc[1] += s[6]["cols"]
    iter_busy = sum(by_id[i][3] - by_id[i][2] for i in solve_matvec)
    mv_busy = sum(v[0] for v in solve_matvec.values())
    out["spectral.gap_report.busy_s"] = busy("spectral.gap_report")
    out["spectral.smallest_eig_above.busy_s"] = busy("spectral.smallest_eig_above")
    out["spectral.krylov_self_s"] = iter_busy - mv_busy
    out["spectral.matvec_share"] = mv_busy / iter_busy if iter_busy else 0.0
    out["spectral.columns_per_solve"] = (
        sum(v[1] for v in solve_matvec.values()) / len(solve_matvec) if solve_matvec else 0.0)
    out["spectral.dense_spectrum.calls"] = len(top("spectral.dense_spectrum"))
    out["spectral.dense_spectrum.busy_s"] = busy("spectral.dense_spectrum")
    for mv in MATVECS:
        b = busy(mv)
        out[f"{mv}.calls"] = len(top(mv))
        out[f"{mv}.columns"] = attr_sum(mv, "cols")
        out[f"{mv}.busy_s"] = b
        out[f"{mv}.gflops"] = attr_sum(mv, "flops") / b / 1e9 if b else 0.0
    out["model.dense_hamiltonian.calls"] = len(top("model.dense_hamiltonian"))
    out["model.dense_hamiltonian.busy_s"] = busy("model.dense_hamiltonian")
    out["model.dense_hamiltonian.bytes"] = attr_sum("model.dense_hamiltonian", "bytes")
    out["model.projector_from_family.busy_s"] = busy("model.projector_from_family")
    for name in ("haar.sample_family_batch", "haar.sample_family", "certificate.certify"):
        out[f"{name}.calls"] = len(top(name))
        out[f"{name}.busy_s"] = busy(name)
    out["certificate.construct_near_good.busy_s"] = busy("certificate.construct_near_good")
    out["certificate.chain_bound_violations"] = rows["chain_bound_violations"]
    out["certificate.tree_bound_violations"] = rows["tree_bound_violations"]
    out["capgeom.busy_s"] = sum(
        s[3] - s[2] for s in spans
        if s[1].startswith("capgeom.") and not (s[4] in by_id and by_id[s[4]][1].startswith("capgeom."))
    )
    run_wall = busy("harness.run_experiment")
    worker_busy = sum(rows["trial_wall"]) if rows["trial_wall"] else run_wall
    out["harness.run_experiment.wall_s"] = run_wall
    out["harness.worker_busy_s"] = worker_busy
    out["harness.pool_util"] = worker_busy / (rows["threads"] * run_wall) if run_wall else 0.0
    out["harness.load_config.busy_s"] = busy("harness.load_config")
    out["harness.render.busy_s"] = busy("harness.render")
    return out
