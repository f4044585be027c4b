import json
import signal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from origami_lab import cli
from origami_lab.origami import load_origami
from origami_lab.simplicity import NotFound, certify_simplicity

from conftest import fixture_origami, fixture_path, large_origami


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 0, err
    return json.loads(out)


def test_info_text(capsys):
    code, out, err = run(capsys, ["info", fixture_path("l3")])
    assert code == 0
    assert "genus = 2" in out
    assert "stratum = H(2)" in out


def test_info_json(capsys):
    payload = run_json(capsys, ["info", fixture_path("dema")])
    assert payload["degree"] == 8
    assert payload["genus"] == 3
    assert payload["stratum"] == "H(2,2)"
    assert payload["reduced"] is True


def test_orbit(capsys):
    payload = run_json(capsys, ["orbit", fixture_path("dema")])
    assert len(payload["nodes"]) == 3


def test_veech(capsys):
    payload = run_json(capsys, ["veech", fixture_path("l3")])
    assert payload["index"] == 3
    assert payload["generators"]


def test_veech_enumerates_the_orbit_once(capsys, monkeypatch):
    import sys

    from origami_lab import orbit

    calls = []
    original = orbit.sl2z_orbit

    def counted(o):
        calls.append(o)
        return original(o)

    for name, module in list(sys.modules.items()):
        if name.startswith("origami_lab") and getattr(module, "sl2z_orbit", None) is original:
            monkeypatch.setattr(module, "sl2z_orbit", counted)
    payload = run_json(capsys, ["veech", fixture_path("dema")])
    assert payload["index"] == 3
    assert len(calls) == 1


def test_veech_rejects_non_reduced(capsys, tmp_path):
    path = tmp_path / "double.txt"
    path.write_text("h = (1,2)\nv = (1)(2)\n")
    code, out, err = run(capsys, ["veech", str(path)])
    assert code == 1
    assert "error:" in err and "reduced" in err


@pytest.fixture
def origami_builds(monkeypatch):
    """The (h, v) images of every ``Origami`` built from here on, checked
    or trusted, with an empty KZ context cache so that orbits are
    enumerated afresh."""
    from origami_lab import homology
    from origami_lab.origami import Origami

    built = []
    original = Origami.__init__
    original_trusted = Origami._trusted

    def counted(self, h, v, label=None):
        built.append((h.images, v.images))
        original(self, h, v, label)

    def counted_trusted(h, v, label=None):
        built.append((h.images, v.images))
        return original_trusted(h, v, label)

    monkeypatch.setattr(Origami, "__init__", counted)
    monkeypatch.setattr(Origami, "_trusted", staticmethod(counted_trusted))
    monkeypatch.setattr(homology, "_context_cache", {})
    return built


@pytest.mark.parametrize("command", ["veech", "ekz"])
def test_orbit_jobs_build_no_origami_per_node(capsys, origami_builds, command):
    payload = run_json(capsys, [command, fixture_path("mstar")])
    assert payload["index" if command == "veech" else "orbit"] == 120
    # the loaded surface and, for ekz, its canonical form: none of the
    # 120 orbit nodes
    assert len(origami_builds) <= 2


def test_kz_builds_one_origami_per_visited_node(capsys, origami_builds):
    from origami_lab.orbit import Sl2zWord, sl2z_orbit

    graph = sl2z_orbit(fixture_origami("dema"))
    node = graph.basepoint
    visited = {node}
    for letter in reversed(Sl2zWord.parse("T8SSTTSS").letters):
        node = graph.target(node, letter)
        visited.add(node)
    del origami_builds[:]
    code, out, err = run(capsys, ["kz", fixture_path("dema"), "T8SSTTSS"])
    assert code == 0, err
    # the loaded surface and its canonical form, then each visited node
    # once, with its homology
    assert len(origami_builds) <= len(visited) + 2


def test_spin(capsys):
    payload = run_json(capsys, ["spin", fixture_path("mstar")])
    assert payload["spin_parity"] == 1


def test_spin_odd_stratum_is_domain_error(capsys):
    code, out, err = run(capsys, ["spin", fixture_path("ew")])
    assert code == 1
    assert "error:" in err


def test_spin_rejects_a_dual_loop_that_visits_a_square_twice(capsys, monkeypatch):
    from origami_lab.homology import Homology
    from origami_lab.paths import CenterPath

    real = Homology.dual_loops

    def with_detour(self):
        loops = real(self)
        first = loops[0]
        return [CenterPath(first.start, "RL" + first.steps)] + loops[1:]

    monkeypatch.setattr(Homology, "dual_loops", with_detour)
    code, out, err = run(capsys, ["spin", fixture_path("mstar")])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "visits a square twice" in err


def test_component(capsys):
    payload = run_json(capsys, ["component", fixture_path("dema")])
    assert payload["stratum"] == "H(2,2)"
    assert payload["component"]


def test_kz_zero_charpoly(capsys):
    payload = run_json(capsys, ["kz", fixture_path("dema"), "T8SSTTSS", "--zero"])
    assert payload["charpoly"] == [1, -2, -30, -2, 1]
    assert payload["subspace"] == "H1_zero"


def test_consecutive_calls_share_one_parser(capsys):
    # the parser is built once per process; the flags and subcommand of
    # one call must not carry over into the next
    assert cli.build_parser() is cli.build_parser()
    zero = run_json(capsys, ["kz", fixture_path("dema"), "T8SSTTSS", "--zero"])
    full = run_json(capsys, ["kz", fixture_path("dema"), "T8SSTTSS"])
    assert zero["subspace"] == "H1_zero" and zero["charpoly"] == [1, -2, -30, -2, 1]
    assert full["subspace"] == "full" and full["charpoly"] == [1, -108, 183, 3176, 183, -108, 1]
    code, out, err = run(capsys, ["info", fixture_path("l3")])
    assert code == 0 and "genus = 2" in out and not out.startswith("{")
    assert run_json(capsys, ["spin", fixture_path("mstar")])["spin_parity"] == 1


def test_kz_reports_a_single_nontrivial_deck_transformation(capsys, tmp_path):
    # Aut = {id, (1,3)(2,4)}: one nontrivial deck transformation is
    # already an ambiguity, and the note counts the identity too
    f = tmp_path / "two.txt"
    f.write_text("n = 4\nh = (1,2)(3,4)\nv = (2,3)\n")
    assert run_json(capsys, ["info", str(f)])["automorphisms"] == 2
    for zero in ([], ["--zero"]):
        payload = run_json(capsys, ["kz", str(f), "TT"] + zero)
        assert payload["ambiguous"] is True
        code, out, err = run(capsys, ["kz", str(f), "TT"] + zero)
        assert code == 0
        assert "note: 2 deck transformations" in out
    assert run_json(capsys, ["info", fixture_path("ltilde")])["automorphisms"] == 8
    code, out, err = run(capsys, ["kz", fixture_path("ltilde"), "sTTS", "--zero"])
    assert code == 0 and "note: 8 deck transformations" in out
    code, out, err = run(capsys, ["kz", fixture_path("dema"), "T8SSTTSS"])
    assert code == 0 and "note:" not in out


def test_kz_deck_transformation_acting_as_identity_is_not_ambiguous(capsys, tmp_path):
    # Aut = {id, (1,2)} acts as the identity on H_1 of this torus, and
    # H1_zero is empty, so the matrix is well defined on both subspaces
    f = tmp_path / "torus.txt"
    f.write_text("h = (1,2)\nv = (1)(2)\n")
    assert run_json(capsys, ["info", str(f)])["automorphisms"] == 2
    for zero in ([], ["--zero"]):
        assert run_json(capsys, ["kz", str(f), "TT"] + zero)["ambiguous"] is False
        code, out, err = run(capsys, ["kz", str(f), "TT"] + zero)
        assert code == 0 and "note:" not in out


def test_kz_rejects_non_loop(capsys):
    code, out, err = run(capsys, ["kz", fixture_path("dema"), "T"])
    assert code == 1


def test_galois_sp4(capsys, tmp_path):
    f = tmp_path / "m.json"
    f.write_text(json.dumps([[0, 0, 0, -1], [1, 0, 0, 2], [0, 1, 0, 30], [0, 0, 1, 2]]))
    payload = run_json(capsys, ["galois", str(f)])
    assert payload["pinching"] is True


def test_galois_sl2(capsys, tmp_path):
    f = tmp_path / "m.json"
    f.write_text(json.dumps([[2, 1], [1, 1]]))
    payload = run_json(capsys, ["galois", str(f)])
    assert payload["pinching"] is True


def test_galois_bad_json(capsys, tmp_path):
    f = tmp_path / "m.json"
    f.write_text("{not json")
    code, out, err = run(capsys, ["galois", str(f)])
    assert code == 1


def test_simplicity_and_verify(capsys, tmp_path):
    payload = run_json(capsys, ["simplicity", fixture_path("dema"), "--depth", "8"])
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["verify", str(cert_file)])
    assert code == 0
    assert "valid = True" in out

    bad = dict(payload)
    bad["pinching_word"] = "TT"
    cert_file.write_text(json.dumps(bad))
    code, out, err = run(capsys, ["verify", str(cert_file)])
    assert code == 1


def test_simplicity_not_found_reports_the_search(capsys):
    payload = run_json(capsys, ["simplicity", fixture_path("dema"), "--depth", "2"])
    assert payload["found"] is False and payload["explored_depth"] == 2
    assert payload["exhausted"] is False
    assert payload["states"] > 0 and payload["words"] >= payload["states"]
    code, out, err = run(capsys, ["simplicity", fixture_path("dema"), "--depth", "2"])
    assert code == 0 and "inconclusive" in out


def test_simplicity_exhausted_search_is_reported(capsys, monkeypatch):
    result = NotFound(explored_depth=9, exhausted=True, words=1156, states=384)
    monkeypatch.setattr(cli, "certify_simplicity", lambda o, search_depth: result)
    code, out, err = run(capsys, ["simplicity", fixture_path("dema"), "--depth", "9"])
    assert code == 0
    assert "no loop word of any length is pinching" in out
    assert "does not disprove simplicity" in out and "inconclusive" not in out
    payload = run_json(capsys, ["simplicity", fixture_path("dema"), "--depth", "9"])
    assert payload == {
        "found": False, "explored_depth": 9, "exhausted": True, "words": 1156, "states": 384
    }


def test_ekz(capsys):
    payload = run_json(capsys, ["ekz", fixture_path("l3")])
    assert payload["total"] == {"num": 4, "den": 3}


def test_ekz_w_multiplicity(capsys):
    payload = run_json(
        capsys, ["ekz", fixture_path("ltilde"), "--w-multiplicity", "4"]
    )
    assert payload["total"] == {"num": 3, "den": 1}
    assert payload["w_exponent"] == {"num": 1, "den": 6}


def test_ekz_w_multiplicity_is_positive_or_off(capsys):
    code, out, err = run(capsys, ["ekz", fixture_path("l3"), "--w-multiplicity", "-3"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "positive integer" in err and err.count("\n") == 1
    # 0, the default, means no lambda line
    plain = run(capsys, ["ekz", fixture_path("l3")])
    assert plain[0] == 0 and "lambda" not in plain[1]
    assert run(capsys, ["ekz", fixture_path("l3"), "--w-multiplicity", "0"]) == plain


@pytest.fixture(scope="module")
def surface_past_orbit_bound(tmp_path_factory):
    """A file holding a surface on 65,537 squares, one more than an orbit
    graph holds."""
    from origami_lab.origami import save_origami

    path = tmp_path_factory.mktemp("large") / "large.txt"
    save_origami(large_origami(65537), str(path))
    return str(path)


@pytest.mark.parametrize(
    "command",
    (["orbit"], ["veech"], ["ekz"], ["kz", "T"], ["mc", "--seed", "1", "--steps", "10"], ["simplicity"]),
    ids=lambda c: c[0],
)
def test_orbit_commands_reject_more_than_65536_squares(capsys, surface_past_orbit_bound, command):
    code, out, err = run(capsys, [command[0], surface_past_orbit_bound] + command[1:])
    assert code == 1 and out == ""
    assert err == "error: orbit graphs hold at most 65536 squares, not 65537\n"


def test_mc(capsys):
    payload = run_json(
        capsys,
        [
            "mc",
            fixture_path("l3"),
            "--steps",
            "200",
            "--trials",
            "2",
            "--seed",
            "7",
        ],
    )
    assert len(payload["estimates"]) == 4


def test_mc_zero_dimensional_subspace(capsys, tmp_path):
    f = tmp_path / "torus.txt"
    f.write_text("h = (1)\nv = (1)\n")
    payload = run_json(capsys, ["mc", str(f), "--subspace", "H1_zero", "--seed", "1"])
    assert payload["estimates"] == [] and payload["std_errors"] == []
    code, out, err = run(capsys, ["mc", str(f), "--subspace", "H1_zero", "--seed", "1"])
    assert code == 0 and out.startswith("subspace = H1_zero")


def test_mc_requires_seed():
    with pytest.raises(SystemExit) as exc:
        cli.main(["mc", fixture_path("l3")])
    assert exc.value.code == 2


def test_mc_rejects_a_negative_seed(capsys):
    # seeds 1 and -1 gave the same walk for trial 0
    code, out, err = run(capsys, ["mc", fixture_path("l3"), "--steps", "200", "--trials", "1", "--seed", "-1"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "seed" in err and "Traceback" not in err


def test_mc_rejects_more_than_max_trials(capsys, monkeypatch):
    from origami_lab import lyapunov

    def unreachable(*args):
        raise AssertionError("allocated before the trials bound was checked")

    monkeypatch.setattr(lyapunov, "kz_context", unreachable)
    too_many = str(lyapunov.MAX_TRIALS + 1)
    code, out, err = run(capsys, ["mc", fixture_path("l3"), "--steps", "20", "--trials", too_many, "--seed", "1"])
    assert code == 1 and out == ""
    assert err == "error: trials must be at most %d, not %s\n" % (lyapunov.MAX_TRIALS, too_many)


def test_mc_help_shows_the_trials_bound(capsys):
    from origami_lab.lyapunov import MAX_TRIALS

    with pytest.raises(SystemExit) as exc:
        cli.main(["mc", "--help"])
    assert exc.value.code == 0
    assert "at most %d" % MAX_TRIALS in capsys.readouterr().out


def test_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_file_is_domain_error(capsys):
    code, out, err = run(capsys, ["info", "/nonexistent/origami.txt"])
    assert code == 1
    assert "error:" in err


def test_internal_check_failure_is_reported(capsys, monkeypatch):
    from origami_lab import intlinalg

    # spin builds a fresh Homology; halving the inverse of its dual
    # coordinates makes the intersection form fail its integrality check
    int_inverse = intlinalg.int_inverse

    def halved(a):
        num, den = int_inverse(a)
        return num, 2 * den

    monkeypatch.setattr(intlinalg, "int_inverse", halved)
    code, out, err = run(capsys, ["spin", fixture_path("mstar")])
    assert code == 1
    assert err == "error: internal check failed: intersection form came out non-integral\n"


def test_cover_stdout_and_out(capsys, tmp_path):
    code, out, err = run(capsys, ["cover", "ew"])
    assert code == 0
    assert "h =" in out and "v =" in out
    target = tmp_path / "ltilde.txt"
    code, out, err = run(capsys, ["cover", "ltilde", "--out", str(target)])
    assert code == 0
    o = load_origami(str(target))
    assert o.degree == 24


def test_cover_custom(capsys, tmp_path):
    spec = tmp_path / "cocycle.json"
    spec.write_text(json.dumps({"group": "quaternion", "wh": [2], "wv": [4]}))
    torus = tmp_path / "torus.txt"
    torus.write_text("h = (1)\nv = (1)\n")
    code, out, err = run(capsys, ["cover", "custom", "--base", str(torus), "--cocycle", str(spec)])
    assert code == 0
    assert "h =" in out


def test_cover_custom_missing_args(capsys):
    code, out, err = run(capsys, ["cover", "custom"])
    assert code == 1


def test_buser(capsys):
    payload = run_json(capsys, ["buser", "3"])
    assert payload["bound"] < payload["reference"]
    code, out, err = run(capsys, ["buser", "--trace", "34"])
    assert code == 0
    assert "length" in out


def test_buser_bad_trace(capsys):
    code, out, err = run(capsys, ["buser", "--trace", "2"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["buser", "1" + "0" * 400],
        ["buser", "--trace", "1" + "0" * 400],
        ["buser", "--trace", "-" + "9" * 401],
    ],
)
def test_buser_beyond_floats_is_an_error(capsys, argv):
    # k and |t| / 2 are taken as floats, which end near 1.8e308
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _write(tmp_path, name, payload):
    f = tmp_path / name
    f.write_text(json.dumps(payload))
    return str(f)


def _cover(tmp_path, cocycle):
    torus = tmp_path / "torus.txt"
    torus.write_text("h = (1)\nv = (1)\n")
    cocycle_file = _write(tmp_path, "cocycle.json", cocycle)
    return ["cover", "custom", "--base", str(torus), "--cocycle", cocycle_file]


def _verify_edited(tmp_path, section, key, value):
    """``verify`` on the ``dema`` certificate with one value replaced; the
    section None stands for the top level."""
    cert = certify_simplicity(fixture_origami("dema"), search_depth=8).to_json()
    (cert if section is None else cert[section])[key] = value
    return ["verify", _write(tmp_path, "cert.json", cert)]


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["galois", _write(tmp, "m.json", [[1, "a"], [0, 1]])],
        lambda tmp: _cover(tmp, {"group": "quaternion", "wh": [2]}),
        lambda tmp: _cover(tmp, {"group": "quaternion", "wh": ["x"], "wv": [4]}),
        lambda tmp: _cover(tmp, {"group": ["trivial"], "wh": [0], "wv": [0]}),
        lambda tmp: _cover(tmp, {"group": "trivial", "wh": 5, "wv": [0]}),
        lambda tmp: _cover(tmp, {"group": "trivial", "wh": [0], "wv": None}),
        lambda tmp: ["verify", _write(tmp, "cert.json", {"origami": {}})],
        lambda tmp: _verify_edited(tmp, "quartic", "a", "x"),
        lambda tmp: _verify_edited(tmp, "witness", "dim_e", True),
        lambda tmp: _verify_edited(tmp, None, "pinching_word", 5),
        lambda tmp: _verify_edited(tmp, "witness", "direction", 5),
        lambda tmp: _verify_edited(tmp, "origami", "h_images", 5),
        lambda tmp: _verify_edited(tmp, "witness", "kind", ["cylinder"]),
        lambda tmp: ["mc", fixture_path("l3"), "--trials", "0", "--seed", "1"],
        lambda tmp: ["mc", fixture_path("l3"), "--steps", "0", "--seed", "1"],
    ],
    ids=[
        "galois-non-integer",
        "cover-without-wv",
        "cover-string-cocycle-value",
        "cover-list-group",
        "cover-number-wh",
        "cover-null-wv",
        "verify-empty-origami",
        "verify-string-quartic",
        "verify-bool-dim-e",
        "verify-number-pinching-word",
        "verify-number-direction",
        "verify-number-h-images",
        "verify-list-witness-kind",
        "mc-zero-trials",
        "mc-zero-steps",
    ],
)
def test_bad_input_is_a_domain_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, argv(tmp_path))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("direction", [None, 0, False, []], ids=["null", "zero", "false", "list"])
def test_verify_rejects_a_falsy_direction(capsys, tmp_path, direction):
    # dema's cylinder witness is in the horizontal direction, the empty
    # string; a falsy value that is not a string is not that direction
    argv = _verify_edited(tmp_path, "witness", "direction", direction)
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        # read with a zero count as one letter, each of these is a loop
        # word of dema (T^2, S^2 and the pinching word STTSTST)
        lambda tmp: ["kz", fixture_path("dema"), "T0T"],
        lambda tmp: ["kz", fixture_path("dema"), "S00S", "--zero"],
        lambda tmp: _verify_edited(tmp, None, "pinching_word", "S0TTSTST"),
    ],
    ids=["kz", "kz-zero", "verify"],
)
def test_zero_repeat_count_is_a_domain_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, argv(tmp_path))
    assert code == 1
    assert err.startswith("error:") and "repeat count" in err


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["kz", fixture_path("dema"), "T100000000000"],
        lambda tmp: _verify_edited(tmp, None, "pinching_word", "T100000000000"),
    ],
    ids=["kz", "verify"],
)
def test_oversized_repeat_count_is_a_domain_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, argv(tmp_path))
    assert code == 1
    assert err.startswith("error:") and "more than 1000000 letters" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def _origami_file(tmp_path, text):
    path = tmp_path / "origami.txt"
    path.write_text(text)
    return str(path)


def _disconnected(tmp_path):
    return _origami_file(tmp_path, "h = (1,2)(3,4)\nv = (1,2)(3,4)\n")


DISCONNECTED = "the pair (h, v) is not transitive: surface disconnected"


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda tmp: ["info", _disconnected(tmp)], DISCONNECTED),
        (lambda tmp: ["orbit", _disconnected(tmp)], DISCONNECTED),
        (lambda tmp: ["kz", _disconnected(tmp), "T"], DISCONNECTED),
        (
            lambda tmp: _verify_edited(tmp, "origami", "h_images", [1] * 8),
            "images (1, 1, 1, 1, 1, 1, 1, 1) are not a bijection of 1..8",
        ),
        # more squares than symbols: rejected before a table of 10^12
        # images is built
        (
            lambda tmp: ["info", _origami_file(tmp, "n = 1000000000000\nh = (1,2)\nv = (1,2)\n")],
            DISCONNECTED,
        ),
        (
            lambda tmp: ["info", _origami_file(tmp, "h = (1,1000000000000)\nv = (1,2)\n")],
            DISCONNECTED,
        ),
    ],
    ids=[
        "info-disconnected",
        "orbit-disconnected",
        "kz-disconnected",
        "verify-non-bijective",
        "info-huge-degree",
        "info-huge-symbol",
    ],
)
def test_invalid_surface_is_rejected_with_one_line(capsys, tmp_path, argv, message):
    assert run(capsys, argv(tmp_path)) == (1, "", "error: %s\n" % message)


class OverBudget(Exception):
    """Raised by the timer; the CLI turns no such error into an exit code."""


def test_repeated_symbol_in_a_long_cycle_is_reported_in_time(capsys, tmp_path):
    # an h-cycle of 30,000 symbols that repeats 1: the repeated symbol is
    # found in one pass over the symbols, not by one count per symbol
    cycle = ",".join(map(str, [*range(1, 30_000), 1]))
    path = _origami_file(tmp_path, "h = (%s)\nv = (1,2)\n" % cycle)

    def late(signum, frame):
        raise OverBudget("info ran past its 2 s budget")

    previous = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        result = run(capsys, ["info", path])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert result == (1, "", "error: symbol 1 repeated across cycles\n")


def test_negative_depth_is_a_domain_error(capsys):
    code, out, err = run(capsys, ["simplicity", fixture_path("dema"), "--depth", "-1"])
    assert code == 1
    assert err.startswith("error:") and "non-negative" in err


# --- the JSON emitter -------------------------------------------------------
#
# ``--json`` output is written by ``cli._json_text``, which must give the
# bytes of ``json.dumps(payload, indent=2, sort_keys=True)``.

SMALL_FIXTURES = ("l3", "mstar", "mstarstar", "mbar_star", "dema", "ew", "ltilde")
# fixtures whose orbit is too large (mbar_star_*) or unbounded (z6) for a
# test: only the commands that do not walk the orbit
LARGE_FIXTURES = ("mbar_star_3", "mbar_star_5", "mbar_star_7", "z6_origami")
ORBIT_FREE_COMMANDS = (["info"], ["spin"], ["component"])
ORBIT_COMMANDS = (
    ["orbit"],
    ["veech"],
    ["ekz"],
    ["ekz", "--w-multiplicity", "2"],
    ["kz", "TtSs"],
    ["kz", "TtSs", "--zero"],
    ["mc", "--steps", "100", "--trials", "2", "--seed", "3"],
    ["mc", "--subspace", "H1_zero", "--steps", "100", "--trials", "2", "--seed", "3"],
    ["simplicity", "--depth", "2"],
)


def assert_canonical_json(capsys, argv):
    """``argv --json`` prints, on success, exactly ``json.dumps`` of its
    own payload; on a domain error, nothing on stdout."""
    code, out, err = run(capsys, argv + ["--json"])
    if code != 0:
        assert code == 1 and out == "" and err.startswith("error:")
        return None
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return payload


@pytest.mark.parametrize(
    "name, command",
    [(name, c) for name in SMALL_FIXTURES for c in ORBIT_FREE_COMMANDS + ORBIT_COMMANDS]
    + [(name, c) for name in LARGE_FIXTURES for c in ORBIT_FREE_COMMANDS],
    ids=lambda x: x if isinstance(x, str) else " ".join(x),
)
def test_json_output_is_json_dumps_on_fixtures(capsys, name, command):
    assert_canonical_json(capsys, [command[0], fixture_path(name)] + command[1:])


def test_json_output_is_json_dumps_without_a_fixture(capsys, tmp_path):
    payloads = [
        assert_canonical_json(capsys, ["galois", _write(tmp_path, "sl2.json", [[2, 1], [1, 1]])]),
        assert_canonical_json(
            capsys,
            ["galois", _write(tmp_path, "sp4.json", [[0, 0, 0, -1], [1, 0, 0, 2], [0, 1, 0, 30], [0, 0, 1, 2]])],
        ),
        assert_canonical_json(capsys, ["buser", "3"]),
        assert_canonical_json(capsys, ["buser", "--trace", "34"]),
        assert_canonical_json(capsys, ["simplicity", fixture_path("dema"), "--depth", "2"]),
    ]
    assert all(p is not None for p in payloads)
    assert payloads[-1]["found"] is False
    cert = assert_canonical_json(capsys, ["simplicity", fixture_path("dema"), "--depth", "8"])
    assert cert["pinching_word"]
    assert assert_canonical_json(capsys, ["verify", _write(tmp_path, "cert.json", cert)]) == {"valid": True}


_ESCAPES = st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀 \ud800'))
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**100), 2**100),
    st.floats(),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]),
    st.text(),
    _ESCAPES,
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(st.one_of(st.text(max_size=4), _ESCAPES), inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_PAYLOADS)
@example({"b": [1, True, 2], "a": [[], {}, ()], "": (-0.0, [0, -1, 10**40])})
def test_json_text_is_json_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "payload",
    [{1, 2}, Fraction(1, 2), {1: "one"}, {"a": [{"b": {2: 3}}]}, [frozenset()], {"x": b"bytes"}],
)
def test_json_text_rejects_what_json_cannot_encode(payload):
    with pytest.raises(TypeError):
        cli._json_text(payload)
