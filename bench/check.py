"""Output check: every row a run prints is compared with the recorded reference.

Exact fields: status, gap_status, frustration_free, verdict, dense kernel_dim,
and the event-frequency success count.  Floats are compared to tolerances, not
bytes, so a correct solver or BLAS change does not read as a failure:

* certificate fields (coupling_norm, gamma_loc, gamma_loc_lb, chain_bound) to
  CERT_TOL;
* gaps to 2 * RES_RTOL * max(1, n_terms): the iterative solver stops at a
  residual of RES_RTOL times the spectral scale (at most n_terms), and the
  residual bounds the eigenvalue error of the run and of the reference alike.

Every certified chain row at L >= 4 must also satisfy the paper's chain
criterion gap >= chain_bound - CRITERION_TOL; a violation fails the row and is
counted.  Tree rows whose gap falls below their printed tree bound are counted
but do not fail: the tree bound is a known defect of the certificate, and the
tree bound and the tree verdict derived from it are not compared with the
reference, so that fixing the certificate does not read as a failure.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

CERT_TOL = 1e-10
CRITERION_TOL = 1e-8
RES_RTOL = 1e-9

#: fields of one reference row of a gap-sweep or tree-gap block
ROW_FIELDS = ["trial", "L", "kernel_dim", "gap", "frustration_free", "coupling_norm",
              "gamma_loc", "verdict"]


def parse_output(text: str) -> tuple[list[dict], dict]:
    """Rows (as string dicts) and '# key=value' summary of a gapcert CSV output."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows, summary = [], {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            summary[key] = value
        else:
            rows.append(dict(zip(header, next(csv.reader([line])))))
    return rows, summary


def _num(s: str):
    return float(s) if s else None


def _int(s: str):
    return int(s) if s else None


def _bool(s: str):
    return {"true": True, "false": False}.get(s)


def reference_rows(mode: str, rows: list[dict]) -> list[list]:
    """The reference record of one block's parsed output rows."""
    if mode == "event-frequency":
        return [[int(row["trials"]), int(row["successes"])] for row in rows]
    return [[int(row["trial"]), int(row["L"]), _int(row["kernel_dim"]), _num(row["gap"]),
             _bool(row["frustration_free"]), float(row["coupling_norm"]),
             float(row["gamma_loc"]), row["verdict"]] for row in rows]


def chain_bound(gamma: float) -> float:
    return 1.0 if gamma >= 1.0 else 2.0 * (gamma - 0.5)


def n_terms(mode: str, L: int, k: int | None) -> int:
    if mode == "tree-gap":
        return (k**L - 1) // (k - 1) - 1
    return L - 1


@dataclass
class BlockCheck:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    chain_bound_violations: int = 0
    tree_bound_violations: int = 0


def _close(x, ref, tol) -> bool:
    return x is not None and ref is not None and abs(x - ref) <= tol


def _row_problems(mode: str, row: dict, ref: list, out: BlockCheck) -> list[str]:
    _, L, ref_kd, ref_gap, ref_ff, ref_c, ref_g, ref_verdict = ref
    if row["status"] != "ok":
        return [f"status={row['status']} {row['error']}"]
    problems = []
    if row["gap_status"] != "ok":
        problems.append(f"gap_status={row['gap_status']}")
    if _bool(row["frustration_free"]) != ref_ff:
        problems.append("frustration_free")
    if ref_kd is not None and _int(row["kernel_dim"]) != ref_kd:
        problems.append(f"kernel_dim {row['kernel_dim']} != {ref_kd}")
    cb = chain_bound(max(ref_g, 1.0 - ref_c))
    for name, want in (("coupling_norm", ref_c), ("gamma_loc", ref_g),
                       ("gamma_loc_lb", 1.0 - ref_c), ("chain_bound", cb)):
        if not _close(_num(row[name]), want, CERT_TOL):
            problems.append(f"{name} {row[name]} != {want!r}")
    gap = _num(row["gap"])
    k = _int(row.get("k", ""))
    if not _close(gap, ref_gap, 2 * RES_RTOL * max(1, n_terms(mode, L, k))):
        problems.append(f"gap {row['gap']} != {ref_gap!r}")
    if mode == "tree-gap":
        tb = _num(row["tree_bound"])
        if row["verdict"] != ("certified-gapped" if tb is not None and tb > 0 else "inconclusive"):
            problems.append(f"verdict {row['verdict']} inconsistent with tree_bound")
        if gap is not None and tb is not None and gap < tb - CRITERION_TOL:
            out.tree_bound_violations += 1
    else:
        if row["verdict"] != ref_verdict:
            problems.append(f"verdict {row['verdict']} != {ref_verdict}")
        cb_row = _num(row["chain_bound"])
        if (L >= 4 and row["verdict"] == "certified-gapped" and gap is not None
                and cb_row is not None and gap < cb_row - CRITERION_TOL):
            out.chain_bound_violations += 1
            problems.append(f"chain criterion: gap {gap} < chain_bound {cb_row}")
    return problems


def check_block(mode: str, text: str, reference: list[list], trials: int) -> BlockCheck:
    """Check one block's output text against its reference rows."""
    out = BlockCheck(attempted=len(reference))
    try:
        rows, _ = parse_output(text)
    except (IndexError, ValueError, csv.Error) as exc:
        out.failures = [f"unparsable output: {exc}"] * max(1, len(reference))
        return out
    if mode == "event-frequency":
        for row, (ref_trials, ref_successes) in zip(rows, reference):
            succ, n = _int(row["successes"]), _int(row["trials"])
            if (n, succ) != (trials, ref_successes) or _num(row["frequency"]) != succ / n:
                out.failures.append(f"successes {succ}/{n} != {ref_successes}/{ref_trials}")
        out.failures += ["missing row"] * (len(reference) - len(rows))
        return out
    expected = {(r[0], r[1]): r for r in reference}
    seen = set()
    for row in rows:
        key = (_int(row["trial"]), _int(row["L"]))
        ref = expected.get(key)
        if ref is None or key in seen:
            out.attempted += 1
            out.failures.append(f"unexpected row {key}: status={row['status']} {row['error']}")
            continue
        seen.add(key)
        problems = _row_problems(mode, row, ref, out)
        if problems:
            out.failures.append(f"row {key}: " + "; ".join(problems))
    out.failures += [f"missing row {key}" for key in expected if key not in seen]
    return out
