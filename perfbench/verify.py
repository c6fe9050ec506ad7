"""Output oracles for the benchmark workloads.

Each verifier takes the text a CLI invocation wrote and the inputs the
benchmark generated, and returns a list of problems (empty when the output
is correct).  None of them calls into qetsim: they re-derive what they can
from closed forms, from a small independent eigensolve and from the
output's own internal consistency, so a later change to the program's code
paths cannot also change its oracle.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TABLE1_HEADER = (
    "tiling,h,k,observable,site,method,mean,stderr,shots,seed,"
    "ref_mean,ref_stderr,tolerance,status"
)
TABLE1_CONFIGS = 12
TABLE1_OBSERVABLES = ("E0", "HX1", "HZ1", "E1", "HX2", "HZ2", "E2")
SAMPLED_SIGMAS = 5.0
CLOSED_FORM_TOL = 1e-12  # minimal-model E_B against Hotta's formula
EXACT_TOL = 1e-10  # exact values the program must reproduce among themselves
STAR_SOLVE_TOL = 1e-8  # star exact values against the symmetric-subspace solve
MAX_PROBLEMS = 5


def hotta_eb(h: float, k: float) -> float:
    """Closed-form minimal-model E_B (Hotta's formula)."""
    a = h * h + 2.0 * k * k
    return (math.sqrt((h * k) ** 2 + a * a) - a) / math.sqrt(h * h + k * k)


def star_exact(h: float, k: float, q: int) -> dict[str, float]:
    """Exact E0, xi, eta and E_j of the {3,q} star, solved without qetsim.

    H = h sum_i Z_i + 2k sum_j X_0 X_j is stoquastic once X_0 changes sign,
    so its ground state is unique and symmetric under permuting the q-1
    leaves.  It lies in the 2q-dimensional span of |s_0> (x) |D_m>, the
    sender bit times the leaves' Dicke state with m ones, where the matrix
    is small enough to diagonalise directly.  For any receiver j:
    E0 = -h <Z_0>, xi = -2h <Z_j> - 4k <X_0 X_j>,
    eta = 2h <X_0 X_j> - 4k <Z_j>, E_j = (xi - sqrt(xi^2 + eta^2)) / 2.
    """
    leaves = q - 1
    z0 = np.repeat([1.0, -1.0], q)  # <Z_0> of basis state (s_0, m) at s_0 * q + m
    z_leaves = np.tile([leaves - 2.0 * m for m in range(q)], 2)
    coupling = np.zeros((2 * q, 2 * q))  # X_0 sum_j X_j
    for s in (0, 1):
        for m in range(leaves):
            a, b = s * q + m, (1 - s) * q + m + 1
            coupling[a, b] = coupling[b, a] = math.sqrt((m + 1) * (leaves - m))
    _, vecs = np.linalg.eigh(h * np.diag(z0 + z_leaves) + 2.0 * k * coupling)
    g = vecs[:, 0]
    p = g * g
    z_j = float(p @ z_leaves) / leaves
    xx_j = float(g @ coupling @ g) / leaves
    xi = -2.0 * h * z_j - 4.0 * k * xx_j
    eta = 2.0 * h * xx_j - 4.0 * k * z_j
    return {"E0": -h * float(p @ z0), "xi": xi, "eta": eta,
            "E_j": (xi - math.hypot(xi, eta)) / 2.0}


def _limit(problems: list[str]) -> list[str]:
    if len(problems) > MAX_PROBLEMS:
        return problems[:MAX_PROBLEMS] + [f"... and {len(problems) - MAX_PROBLEMS} more"]
    return problems


def table1(text: str, shots: int, seed: int) -> list[str]:
    """`table1 --check` CSV: 12 configs x 7 observables x {exact, sampled}.

    Exact cells must lie within max(4 ref_stderr, 0.03) of the reference,
    sampled cells within 5 of their own standard errors of the exact cell,
    and every status must read pass.  Tolerances are recomputed here rather
    than read from the output.
    """
    lines = text.splitlines()
    if not lines or lines[0] != TABLE1_HEADER:
        return ["table1: unexpected header"]
    rows = list(csv.DictReader(io.StringIO(text)))
    want = TABLE1_CONFIGS * len(TABLE1_OBSERVABLES) * 2
    if len(rows) != want:
        return [f"table1: {len(rows)} rows, expected {want}"]
    problems = []
    exact = {}
    for r in rows:
        key = (r["tiling"], r["h"], r["k"], r["observable"])
        if r["method"] == "exact":
            exact[key] = float(r["mean"])
    if len(exact) != TABLE1_CONFIGS * len(TABLE1_OBSERVABLES):
        return ["table1: exact cells missing or duplicated"]
    for r in rows:
        key = (r["tiling"], r["h"], r["k"], r["observable"])
        where = f"table1 {r['tiling']} h={r['h']} k={r['k']} {r['observable']} {r['method']}"
        if r["observable"] not in TABLE1_OBSERVABLES:
            problems.append(f"{where}: unknown observable")
            continue
        mean = float(r["mean"])
        if r["status"] != "pass":
            problems.append(f"{where}: status {r['status']}")
        if r["method"] == "exact":
            tol = max(4.0 * float(r["ref_stderr"]), 0.03)
            if not abs(mean - float(r["ref_mean"])) <= tol:
                problems.append(f"{where}: |{mean} - ref {r['ref_mean']}| > {tol}")
        elif r["method"] == "sampled":
            stderr = float(r["stderr"])
            if int(r["shots"]) != shots or int(r["seed"]) != seed:
                problems.append(f"{where}: shots/seed {r['shots']}/{r['seed']}")
            if not stderr > 0.0:
                problems.append(f"{where}: stderr {stderr}")
            elif not abs(mean - exact[key]) <= SAMPLED_SIGMAS * stderr:
                problems.append(f"{where}: {mean} not within 5 stderr of exact {exact[key]}")
        else:
            problems.append(f"{where}: unknown method")
    return _limit(problems)


def sweep(text: str, h_range: tuple[float, float, int],
          k_range: tuple[float, float, int]) -> list[str]:
    """`sweep` CSV: the requested grid in h-major order, each E_B within
    CLOSED_FORM_TOL of the closed form at the grid point."""
    h_values = np.linspace(*h_range).tolist()
    k_values = np.linspace(*k_range).tolist()
    lines = text.splitlines()
    if not lines or lines[0] != "h,k,E_B":
        return ["sweep: unexpected header"]
    want = len(h_values) * len(k_values)
    if len(lines) - 1 != want:
        return [f"sweep: {len(lines) - 1} rows, expected {want}"]
    problems = []
    row = 1
    for h in h_values:
        for k in k_values:
            fields = lines[row].split(",")
            row += 1
            if len(fields) != 3:
                problems.append(f"sweep row {row}: {len(fields)} fields")
                continue
            if fields[0] != format(h, ".12g") or fields[1] != format(k, ".12g"):
                problems.append(f"sweep row {row}: grid point {fields[0]},{fields[1]}")
                continue
            delta = abs(float(fields[2]) - hotta_eb(h, k))
            if not delta <= CLOSED_FORM_TOL:
                problems.append(f"sweep h={h} k={k}: |E_B - closed form| = {delta:.3e}")
    return _limit(problems)


def star(text: str, h: float, k: float, q: int) -> list[str]:
    """`qed --format json` with both methods and receivers 1..q-1.

    Exact receiver energies agree across receivers and obey E_j = HX + HZ
    and E_B = -E_j; E0 and every receiver's xi, eta and E_j match
    star_exact; every sampled value lies within 5 standard errors of the
    exact one.
    """
    try:
        doc = json.loads(text)
        ex, sa = doc["exact"], doc["sampled"]
    except (ValueError, KeyError, TypeError):
        return ["star: output is not a JSON record with exact and sampled parts"]
    receivers = {str(j) for j in range(1, q)}
    problems = []
    for part in (ex, sa):
        if part.get("params") != {"h": h, "k": k, "q": q}:
            problems.append(f"star {part.get('method')}: params {part.get('params')}")
        if set(part.get("receivers", {})) != receivers:
            return problems + [f"star {part.get('method')}: receivers {sorted(part.get('receivers', {}))}"]
    e_j = [ex["receivers"][j]["E_j"] for j in sorted(receivers)]
    if not max(e_j) - min(e_j) <= EXACT_TOL:
        problems.append(f"star: exact E_j spread {max(e_j) - min(e_j):.3e} across receivers")
    solved = star_exact(h, k, q)
    if not abs(ex["E0"] - solved["E0"]) <= STAR_SOLVE_TOL:
        problems.append(f"star E0: exact {ex['E0']} vs independent solve {solved['E0']}")
    for j in sorted(receivers, key=int):
        r, t = ex["receivers"][j], ex["theta"][j]
        for name, value in (("xi", t["xi"]), ("eta", t["eta"]), ("E_j", r["E_j"])):
            if not abs(value - solved[name]) <= STAR_SOLVE_TOL:
                problems.append(f"star {name}{j}: exact {value} vs independent solve {solved[name]}")
        if not abs(r["HX"] + r["HZ"] - r["E_j"]) <= EXACT_TOL or r["E_B"] != -r["E_j"]:
            problems.append(f"star E{j}: HX + HZ, E_j and E_B disagree")
    pairs = [("E0", ex["E0"], sa["E0"])]
    for j in sorted(receivers, key=int):
        for name, field in (("HX", "HX"), ("HZ", "HZ"), ("E", "E_j")):
            pairs.append((f"{name}{j}", ex["receivers"][j][field], sa["receivers"][j][field]))
    stderr = sa.get("stderr", {})
    for name, exact_value, sampled_value in pairs:
        err = stderr.get(name, 0.0)
        if not err > 0.0:
            problems.append(f"star {name}: sampled stderr {err}")
        elif not abs(sampled_value - exact_value) <= SAMPLED_SIGMAS * err:
            problems.append(f"star {name}: sampled {sampled_value} not within 5 stderr of {exact_value}")
    return _limit(problems)


def relay(record_text: str, transcript_text: str, h: float, k: float, hops: int) -> list[str]:
    """`longrange --sample-transcript`: relay equals local, E_B matches the
    closed form, and the transcript has 1 + 2 hops well-formed messages."""
    try:
        doc = json.loads(record_text)
        delta = doc["relay_vs_local_max_delta"]
        e_b = doc["receivers"]["1"]["E_B"]
    except (ValueError, KeyError, TypeError):
        return ["relay: output is not a longrange JSON record"]
    problems = []
    if doc.get("hops") != hops or doc.get("params") != {"h": h, "k": k}:
        problems.append(f"relay: hops/params {doc.get('hops')}/{doc.get('params')}")
    if not delta <= EXACT_TOL:
        problems.append(f"relay: relay_vs_local_max_delta {delta:.3e} > {EXACT_TOL}")
    if not abs(e_b - hotta_eb(h, k)) <= CLOSED_FORM_TOL:
        problems.append(f"relay: E_B {e_b} vs closed form {hotta_eb(h, k)}")
    lines = transcript_text.splitlines()
    if len(lines) != 1 + 2 * hops or not transcript_text.endswith("\n"):
        return problems + [f"relay: {len(lines)} transcript lines, expected {1 + 2 * hops}"]
    names = ["charlie"] + [f"relay{i}" for i in range(1, hops)] + ["bob"]
    for seq, line in enumerate(lines):
        if seq == 0:
            want = ("0", "alice", "all", "mu-broadcast")
        else:
            hop = (seq - 1) // 2
            want = (str(seq), names[hop], names[hop + 1], "teleport-corrections")
        fields = line.split(" ")
        if len(fields) != 5 or tuple(fields[:4]) != want or fields[4] not in ("0", "1"):
            problems.append(f"relay transcript line {seq}: {line!r}")
    return _limit(problems)
