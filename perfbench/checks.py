"""Output checks: compare each task's artifacts with `reference.py`.

`expect(task)` computes what a task must produce, before any timing;
`check(task, out_dir, expected)` reads the artifacts the CLI wrote and
returns (ok, details).  Details carry the largest relative eigenvalue error
so a run can report `eig_relerr_max`.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference

EIG_RTOL = 1e-9  # reported eigenvalues of star problems
WEYL_RTOL = 1e-7  # M(x + i eps) entries, relative to the largest entry of the sample;
# near a pole |u(0)| is small and the package's 1e-12 ODE error grows by 1/|u(0)|
ORACLE_RTOL = 1e-3  # acceptance tolerance of the discretization oracle
VERIFY_TRIALS = {"rank-lemma": 1000, "herglotz-psd": 1000, "kac": 100, "aronszajn-donoghue": 100}


def _number(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValueError(f"not a JSON number: {v!r}")
    return Fraction(v)


def expect(task):
    """Reference data for one task (None when the check needs none)."""
    spec = task.spec
    if task.kind in ("eigs", "oracle") and "edges" in spec:
        return reference.star_spectrum(spec["edges"], spec["window"])
    if task.kind == "eigs":
        S, poles = reference.summed_function(spec["measures"])
        window = spec["window"]
        return {
            "S": S,
            "poles": poles,
            "carriers": reference.carriers(spec["measures"], window),
            "gaps": reference.kirchhoff_gaps(S, poles, window),
        }
    if task.kind == "classify":
        return reference.carriers(spec["measures"], spec["window"])
    return None


def check(task, out_dir, expected):
    out = Path(out_dir)
    if task.kind == "eigs" and "edges" in task.spec:
        return _check_star_eigs(out, expected)
    if task.kind == "eigs":
        return _check_exact_eigs(out, task.spec, expected)
    if task.kind == "weyl":
        return _check_weyl(out, task.spec)
    if task.kind == "oracle":
        return _check_oracle(out, expected)
    if task.kind == "classify":
        return _check_classify(out, task.spec, expected)
    if task.kind == "verify":
        return _check_verify(out)
    raise ValueError(f"no check for task kind {task.kind!r}")


def _fail(reason, **details):
    return False, dict(details, reason=reason)


def _check_star_eigs(out: Path, expected):
    got = [(float(_number(e["x"])), e["multiplicity"], e["provenance"])
           for e in json.loads((out / "report.json").read_text())["eigenvalues"]]
    if len(got) != len(expected):
        return _fail(f"{len(got)} eigenvalues reported, reference has {len(expected)}",
                     got=got, expected=expected)
    worst = 0.0
    for (x, k, prov), (rx, rk, rprov) in zip(sorted(got), expected):
        if (k, prov) != (rk, rprov):
            return _fail(f"at {rx}: got layer count {k} ({prov}), reference {rk} ({rprov})")
        worst = max(worst, abs(x - rx) / max(abs(rx), 1e-300))
    if worst > EIG_RTOL:
        return _fail(f"eigenvalue relative error {worst:.3e} above {EIG_RTOL:g}",
                     eig_relerr_max=worst)
    return True, {"eig_relerr_max": worst, "eigenvalues": len(got)}


def _check_weyl(out: Path, spec):
    edges = spec["edges"]
    n = len(edges)
    with open(out / "weyl.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [[float(v) for v in r] for r in rows[1:]]
    if len(body) != spec["grid"] or len(header) != 2 + 2 * n * n:
        return _fail(f"weyl.csv has {len(body)} rows and {len(header)} columns")
    lo, hi = float(spec["window"][0]), float(spec["window"][1])
    xs = np.array([r[0] for r in body])
    if not np.allclose(xs, np.linspace(lo, hi, spec["grid"]), rtol=1e-15, atol=0):
        return _fail("weyl.csv grid is not the window's linspace")
    zs = xs + 1j * np.array([r[1] for r in body])
    ms = reference.weyl_values(edges, zs)
    worst = 0.0
    for i, row in enumerate(body):
        ref = reference.matrix_weyl(ms[:, i])
        got = np.array(row[2::2]) + 1j * np.array(row[3::2])
        err = np.abs(got - ref.ravel()).max() / np.abs(ref).max()
        worst = max(worst, float(err))
    if worst > WEYL_RTOL:
        return _fail(f"M(x + i eps) relative error {worst:.3e} above {WEYL_RTOL:g}")
    return True, {"weyl_relerr_max": worst}


def _check_oracle(out: Path, expected):
    got = json.loads((out / "oracle.json").read_text())
    items = [(float(x), int(k)) for x, k in got["items"]]
    want = [(x, k) for x, k, _prov in expected]
    if [k for _, k in items] != [k for _, k in want]:
        return _fail("oracle layer counts differ from the reference",
                     got=items, expected=want, coarse=got["coarse"])
    worst = max((abs(x - rx) / abs(rx) for (x, _), (rx, _) in zip(items, want)), default=0.0)
    if worst > ORACLE_RTOL:
        return _fail(f"oracle relative error {worst:.3e} above {ORACLE_RTOL:g}")
    return True, {"oracle_relerr_max": worst, "coarse": got["coarse"]}


def _check_exact_eigs(out: Path, spec, expected):
    got = json.loads((out / "report.json").read_text())["eigenvalues"]
    S, poles = expected["S"], expected["poles"]
    lo, hi = spec["window"]
    overlaps = {x: k - 1 for x, k in expected["carriers"].items() if k >= 2}
    seen_overlaps, seen_gaps = {}, []
    for e in got:
        x, k, prov = _number(e["x"]), e["multiplicity"], e["provenance"]
        if not lo <= x <= hi:
            return _fail(f"eigenvalue {x} outside the window")
        if prov == "overlap":
            seen_overlaps[x] = k
        elif prov == "kirchhoff-zero" and k == 1:
            gap = reference.certify_zero(S, poles, x)
            if gap is None:
                return _fail(f"no exact sign change of the summed function at {x}")
            seen_gaps.append(gap)
        else:
            return _fail(f"unexpected entry {e}")
    if seen_overlaps != overlaps:
        return _fail("overlap eigenvalues differ from the recount of the atoms")
    if sorted(seen_gaps) != sorted(expected["gaps"]):
        return _fail(f"{len(seen_gaps)} certified zeros, the gaps call for "
                     f"{len(expected['gaps'])}")
    return True, {"overlaps": len(overlaps), "zeros": len(seen_gaps)}


def _check_classify(out: Path, spec, carriers):
    rep = json.loads((out / "report.json").read_text())
    lo, hi, _coeffs = spec["density"]
    want_ac = [((lo, hi), 4)]
    got_ac = [((_number(r["interval"][0]), _number(r["interval"][1])), r["r"])
              for r in rep["ac_regions"]]
    want_sac = sorted((x, k - 1) for x, k in carriers.items() if k >= 2)
    got_sac = sorted((_number(s["x"]), s["multiplicity"]) for s in rep["sac_items"])
    got_eig = sorted((_number(e["x"]), e["multiplicity"]) for e in rep["eigenvalues"]
                     if e["provenance"] == "overlap")
    want_vanished = sorted(x for x, k in carriers.items() if k == 1)
    got_vanished = sorted(_number(v) for v in rep["vanished"])
    if got_ac != want_ac:
        return _fail(f"ac regions {got_ac}, expected {want_ac}")
    if got_sac != want_sac or got_eig != want_sac:
        return _fail("shared atoms differ from the recount of the atoms")
    if got_vanished != want_vanished:
        return _fail("vanished atoms differ from the single-carrier atoms")
    if rep["ss_items"]:
        return _fail("off-support simple spectrum reported although densities are present")
    return True, {"shared_atoms": len(want_sac), "vanished": len(want_vanished)}


def _check_verify(out: Path):
    rep = json.loads((out / "verify.json").read_text())
    for name, trials in VERIFY_TRIALS.items():
        suite = rep[name]
        if suite["trials"] != trials or not suite["passed"]:
            return _fail(f"suite {name} did not pass {trials} trials", suite=suite)
        if suite.get("failures", 0) != 0:
            return _fail(f"suite {name} reports failures", suite=suite)
    psd = rep["herglotz-psd"]
    if not (psd["min_imag_eigenvalue"] >= -1e-12 and psd["max_identity_residual"] <= 1e-12
            and psd["max_symmetry_residual"] <= 1e-12):
        return _fail("Herglotz suite residuals above 1e-12", suite=psd)
    if rep["kac"]["points_checked"] < 1:
        return _fail("the Kac suite checked no points")
    return True, {"kac_points": rep["kac"]["points_checked"]}
