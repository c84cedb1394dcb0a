"""Cold start: scipy is imported only inside the `oracle`'s `eigsh` call.

Each check runs in a fresh interpreter, so modules loaded by other tests do
not hide an import.  Two tests pin what the benchmark tracer
(`perfbench/spans.py`) patches: the module-level names `brentq` and `eigsh`
it counts calls through, and every name it lists; the static checks read
the sources and pin the scipy surface and the package's export list.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import starweyl
import starweyl.cli as cli
from starweyl import schrodinger, spectra

SRC = Path(__file__).resolve().parents[1] / "src"
SPANS = SRC.parent / "perfbench" / "spans.py"

SCIPY_LOADED = 'print(any(m.split(".")[0] == "scipy" for m in sys.modules))'

# Two edges with a potential (one of them a jump) and a free edge.
POTENTIAL_STAR = {
    "task": "weyl",
    "system": {"edges": [
        {"length": 2, "outer_angle": 0.7, "potential": {"pieces": [
            {"interval": [0, 1], "coeffs": [1, "1/4"]},
            {"interval": [1, 2], "coeffs": [2]}]}},
        {"length": "3/2", "outer_angle": 0.0, "potential": {"pieces": [
            {"interval": [0, "3/2"], "coeffs": ["1/2", "1/8", "1/8"]}]}},
        {"length": 1, "outer_angle": 0.0, "potential": "free"}],
        "interface": {"type": "standard"}},
    "window": [1, 5],
}


def fresh(body: str, cwd: Path) -> str:
    """Run `body` after `import starweyl, starweyl.cli` in a new interpreter;
    its stdout is returned."""
    code = f"import sys\nimport starweyl, starweyl.cli as cli\n{body}\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "body",
    [
        "",
        'assert cli.main(["classify", "k74", "--out", "out"]) == 0',
        'assert cli.main(["eigs", "kac2", "--exact", "--out", "out"]) == 0',
        'assert cli.main(["weyl", "equilateral3", "--grid", "3", "--out", "out"]) == 0',
        'assert cli.run_verify_suites(seed=0, scale=0.01)["passed"]',
        "from starweyl.schrodinger import Edge, weyl_m\n"
        "assert weyl_m(Edge.of(1, [((0, 1), (2, -1))]), 3 + 1j).imag > 0",
        "import json\n"
        f"open('pot.json', 'w').write(json.dumps({POTENTIAL_STAR!r}))\n"
        'assert cli.main(["weyl", "pot.json", "--grid", "3", "--out", "out"]) == 0',
    ],
    ids=["import", "classify-k74", "eigs-kac2-exact", "weyl-equilateral3", "verify",
         "potential-edge", "weyl-potential-star"],
)
def test_exact_and_closed_form_tasks_never_load_scipy(body, tmp_path):
    assert fresh(f"{body}\n{SCIPY_LOADED}", tmp_path) == "False\n"


@pytest.mark.parametrize(
    "body",
    [
        'assert cli.main(["eigs", "equilateral3", "--out", "out"]) == 0',
        # brackets a pole of a potential edge and two zeros of the summed function
        "import json\n"
        f"open('pot.json', 'w').write(json.dumps({dict(POTENTIAL_STAR, task='eigs')!r}))\n"
        'assert cli.main(["eigs", "pot.json", "--out", "out"]) == 0\n'
        "assert len(json.load(open('out/report.json'))['eigenvalues']) == 2",
    ],
    ids=["eigs-equilateral3", "eigs-potential-star"],
)
def test_numeric_eigs_never_loads_scipy(body, tmp_path):
    assert fresh(f"{body}\n{SCIPY_LOADED}", tmp_path) == "False\n"


@pytest.mark.parametrize(
    "body",
    ['assert cli.main(["oracle", "equilateral3", "--grid", "200", "--out", "out"]) == 0'],
    ids=["oracle-equilateral3"],
)
def test_numeric_tasks_load_scipy_from_cold(body, tmp_path):
    assert fresh(f"{body}\n{SCIPY_LOADED}", tmp_path) == "True\n"


def test_scipy_entry_points_are_called_through_module_globals(tmp_path, monkeypatch):
    calls = Counter()
    for module, name in ((spectra, "brentq"), (spectra, "eigsh"), (schrodinger, "brentq")):
        original = getattr(module, name)
        assert callable(original)

        def counting(*args, _key=f"{module.__name__}.{name}", _fn=original, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert cli.main(["eigs", "equilateral3", "--out", str(tmp_path / "eigs")]) == 0
    # free Dirichlet poles are closed-form; a general outer angle is scanned
    general = cli.builtin_problem("equilateral3")
    general["system"]["edges"][0]["outer_angle"] = 1.0
    path = tmp_path / "general.json"
    path.write_text(json.dumps(general))
    assert cli.main(["eigs", str(path), "--out", str(tmp_path / "general")]) == 0
    assert cli.main(["oracle", "equilateral3", "--grid", "200",
                     "--out", str(tmp_path / "oracle")]) == 0
    assert set(calls) == {"starweyl.spectra.brentq", "starweyl.spectra.eigsh",
                          "starweyl.schrodinger.brentq"}


def test_every_name_the_tracer_patches_resolves():
    # The traced benchmark pass patches these by name; tier-1 never runs it.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, attr in spans.FUNCTIONS + spans.FOREIGN:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for _, module, cls_name, attr in spans.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        assert callable(cls.__dict__.get(attr)), (cls_name, attr)
    module, attr = spans.OMEGA_AT
    params = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
    # the tracer routes on `sys`; a fourth argument, read as `exact`, cannot exist
    assert list(params) == ["sys", "x"]


# Everything src/starweyl/ may take from scipy.
SCIPY_SURFACE = {"scipy.sparse", "scipy.sparse.linalg.eigsh"}


def test_src_references_only_the_pinned_scipy_names():
    used = set()
    for path in (SRC / "starweyl").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                used |= {a.name for a in node.names if a.name.split(".")[0] == "scipy"}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                used |= {f"{node.module}.{a.name}" for a in node.names}
    assert used <= SCIPY_SURFACE, sorted(used - SCIPY_SURFACE)


def test_all_is_sorted_resolves_and_matches_the_imports():
    tree = ast.parse((SRC / "starweyl" / "__init__.py").read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names = [a.asname or a.name for a in node.names]
            assert names == sorted(names), node.module
            imported += [n for n in names if not n.startswith("_")]
    exported = starweyl.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert all(hasattr(starweyl, name) for name in exported)
    assert set(exported) == set(imported)
