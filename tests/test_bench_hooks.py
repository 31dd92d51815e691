"""The names the benchmark (`bench/`) takes from gapcert still resolve.

`bench/` imports gapcert names and patches others by name (`PATCH_POINTS` in
`bench/spans.py`); a deleted or renamed one would only show when the
benchmark runs.  The files are read with `ast`, not imported.  The matvec
closures, that of `hamiltonian_matvec` and the one the iterative `gap_report`
solves with, must also keep calling the patched names through `gapcert.model`.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from gapcert import ChainSpec, LocalProjector, RandomSeed, TreeSpec, gap_report

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _trees():
    paths = sorted(BENCH.glob("*.py"))
    assert paths, f"no benchmark sources under {BENCH}"
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule, as in `from gapcert import harness`
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_bench_imports_resolve():
    hooks = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                    and node.module.split(".")[0] == "gapcert":
                hooks.update((node.module, alias.name) for alias in node.names)
    assert hooks
    assert sorted(hook for hook in hooks if not _resolves(*hook)) == []


def test_bench_patch_points_resolve():
    tree = _trees()["spans.py"]
    points = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "PATCH_POINTS" for t in node.targets))
    hooks = {(module, name) for module, names in points.items() for name in names}
    assert hooks
    assert sorted(hook for hook in hooks if not _resolves(*hook)) == []


@pytest.mark.parametrize("name, spec", [("chain_matvec", ChainSpec(2, 1, 5)),
                                        ("tree_matvec", TreeSpec(2, 1, 2, 3))])
def test_matvec_closures_call_through_the_module(name, spec, monkeypatch):
    # the benchmark's span wrapper replaces these names in gapcert.model and
    # reads the lattice sizes from the positional arguments after P, the state
    # from the last one
    model = importlib.import_module("gapcert.model")
    calls, real = [], getattr(model, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    P = LocalProjector(2, 1, np.diag([0.0, 1.0, 0.0, 0.0]))
    matvec = model.hamiltonian_matvec(spec, P)
    monkeypatch.setattr(model, name, counting)  # looked up at each call, not bound
    x = np.arange(spec.dim, dtype=float)
    block = np.ones((spec.dim, 2))
    matvec(x)
    matvec(block)
    sizes = (spec.L,) if name == "chain_matvec" else (spec.k, spec.L)
    assert [args[1:-1] for args in calls] == [sizes, sizes]
    assert calls[0][-1] is x and calls[1][-1] is block
    # every state the solver applies H to goes through the patched name
    calls.clear()
    rep = gap_report(spec, P, method="iterative", seed=RandomSeed(5))
    assert calls and {args[1:-1] for args in calls} == {sizes}
    assert sum(args[-1].size for args in calls) == rep.solver.matvec_columns * spec.dim
