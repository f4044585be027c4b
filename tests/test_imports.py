"""numpy stays off the import path of the exact subcommands,
``fractions`` out of every module but ``lyapunov``, and the walk layer
reaches a surface's canonical form only through ``kz_context``.

Only the Monte Carlo walk (``mc``) and the batched word search
(``simplicity``) use numpy, and they import it inside the functions that
run them.  Each check runs in a fresh interpreter, because the test
process itself has numpy loaded already.

The exact layers run on ints; the only rationals in the library are the
exponent sums of ``lyapunov``, so no other module reads ``fractions``.

``simplicity`` and ``lyapunov`` canonicalize a surface once per call, by
its ``kz_context``, and read the canonical form and rigidity off the
context's orbit graph; neither imports ``canonical_form`` or
``automorphism_count``, which would canonicalize it again.

Isomorphisms of origamis come from one engine, the tied starts of the
canonical labelling: no module propagates square maps of its own, and
``spin`` reads its rotations off ``origami``'s isomorphisms.
"""

import ast
import glob
import json
import os
import subprocess
import sys

from conftest import fixture_path

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# Runs the given CLI argument lists through ``cli.main`` in order, after
# importing the package, and prints as JSON each command's exit code and
# whether numpy was loaded after it.
SCRIPT = """
import contextlib, io, json, sys
import origami_lab
import origami_lab.cli as cli
report = {"after_import": "numpy" in sys.modules, "runs": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report["runs"].append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(report))
"""


def _python(args):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _report(argvs):
    """The report of SCRIPT on these argument lists, each given --json."""
    argvs = [argv + ["--json"] for argv in argvs]
    return json.loads(_python(["-c", SCRIPT, json.dumps(argvs)]))


def test_exact_subcommands_do_not_load_numpy(tmp_path):
    dema, l3 = fixture_path("dema"), fixture_path("l3")
    # the certificate comes from a separate process, whose search loads numpy
    cert = tmp_path / "cert.json"
    cert.write_text(_python(["-m", "origami_lab.cli", "simplicity", dema, "--depth", "8", "--json"]))
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps([[0, 0, 0, -1], [1, 0, 0, 2], [0, 1, 0, 30], [0, 0, 1, 2]]))
    exact = [
        ["info", l3],
        ["orbit", dema],
        ["veech", dema],
        ["ekz", dema],
        ["spin", dema],
        ["component", dema],
        ["kz", dema, "T8SSTTSS"],
        ["kz", dema, "T8SSTTSS", "--zero"],
        ["galois", str(matrix)],
        ["cover", "ew"],
        ["buser", "3"],
        ["verify", str(cert)],
    ]
    report = _report(exact)
    assert report["after_import"] is False
    assert report["runs"] == [[argv[0], 0, False] for argv in exact]


def test_mc_and_simplicity_load_numpy():
    # the check above can fail: each walk, in a fresh process, loads numpy
    dema, l3 = fixture_path("dema"), fixture_path("l3")
    for argv in (
        ["mc", l3, "--seed", "1", "--steps", "40", "--trials", "2"],
        ["simplicity", dema, "--depth", "8"],
    ):
        report = _report([argv])
        assert report["after_import"] is False
        assert report["runs"] == [[argv[0], 0, True]]


def _imports(path):
    """The (module, name) pairs a source file imports: (module, None) for
    ``import module``, (module, name) for ``from module import name``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.update((node.module or "", alias.name) for alias in node.names)
    return found


def test_only_lyapunov_imports_fractions():
    paths = glob.glob(os.path.join(SRC, "origami_lab", "*.py"))
    found = sorted(
        os.path.basename(p)
        for p in paths
        if any(module.split(".")[0] == "fractions" for module, _name in _imports(p))
    )
    assert found == ["lyapunov.py"]


def test_walk_layer_canonicalizes_only_through_kz_context():
    path = os.path.join(SRC, "origami_lab", "%s.py")
    banned = {"canonical_form", "automorphism_count"}
    for module in ("simplicity", "lyapunov"):
        assert not {name for _module, name in _imports(path % module)} & banned, module
    # the check can fail: the CLI imports automorphism_count for ``info``
    assert ("origami", "automorphism_count") in _imports(path % "cli")


def test_isomorphisms_come_only_from_the_canonical_labelling():
    paths = glob.glob(os.path.join(SRC, "origami_lab", "*.py"))
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=p)
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "propagate_square_map" not in defined, os.path.basename(p)
    assert ("origami", "_isomorphisms") in _imports(os.path.join(SRC, "origami_lab", "spin.py"))
