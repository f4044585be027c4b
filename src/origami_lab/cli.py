"""
Command-line interface.

Subcommands: info, orbit, veech, spin, component, kz, galois, simplicity,
ekz, mc, cover, buser, verify.  Words on the command line are strings
over T, S, t, s (lowercase = inverse); digit suffixes repeat a letter, so
T8SSTTSS means T^8 S^2 T^2 S^2.  Exit codes: 0 success, 1 domain error
(bad input data), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys

from . import intlinalg as la
from .covers import (
    EdgeCocycle,
    ew_origami,
    ltilde_origami,
    mbar_star_origami,
    quaternion_group,
    trivial_group,
)
from .galois import is_galois_pinching_sl2, is_galois_pinching_sp4
from .homology import kz_matrix
from .lyapunov import MAX_TRIALS, ekz_sum, mc_exponents, w_exponent_from_sum
from .orbit import sl2z_orbit, stabilizer_words
from .origami import (
    automorphism_count,
    genus,
    is_reduced,
    load_origami,
    render_origami_text,
    save_origami,
    stratum,
)
from .simplicity import (
    NotFound,
    certificate_from_json,
    certify_simplicity,
    verify_certificate,
)
from .spectral import buser_bound, trace_to_length
from .spin import component, spin_parity


def _emit(args, payload, text_lines):
    if getattr(args, "json", False):
        # not json.dumps: it runs its pure-Python encoder whenever
        # ``indent`` is set, and _json_text writes the same bytes faster
        print(_json_text(payload))
    else:
        for line in text_lines:
            print(line)


_encode_str = json.encoder.encode_basestring_ascii
_int_text = int.__repr__


def _json_text(obj):
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for
    dicts with ``str`` keys, lists, tuples, strings, ints, floats, bools
    and None; anything else raises TypeError."""
    out = []
    _write_json(obj, "\n", out.append)
    return "".join(out)


def _write_json(obj, newline, write):
    """Append the JSON text of ``obj`` to ``write``; ``newline`` is a
    newline followed by the indent of the level ``obj`` sits at."""
    if isinstance(obj, str):
        write(_encode_str(obj))
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(_int_text(obj))
    elif isinstance(obj, float):
        write(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + "  "
        if all(type(x) is int for x in obj):
            write("[" + inner + ("," + inner).join(map(_int_text, obj)) + newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            write(sep)
            sep = "," + inner
            _write_json(item, inner, write)
        write(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        # _encode_str raises TypeError on a key that is not a str
        for key in sorted(obj):
            write(sep + _encode_str(key) + ": ")
            sep = "," + inner
            _write_json(obj[key], inner, write)
        write(newline + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _float_text(x):
    """A float as json writes it (allow_nan=True)."""
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == -float("inf"):
        return "-Infinity"
    return float.__repr__(x)


def _cmd_info(args):
    o = load_origami(args.origami)
    st = stratum(o)
    payload = {
        "label": o.label,
        "degree": o.degree,
        "genus": st.genus,
        "stratum": str(st),
        "reduced": is_reduced(o),
        "automorphisms": automorphism_count(o),
    }
    _emit(args, payload, ["%s = %s" % (k, v) for k, v in payload.items()])
    return 0


def _cmd_orbit(args):
    o = load_origami(args.origami)
    graph = sl2z_orbit(o)
    payload = graph.to_json()
    # a generator, so that --json builds no node Origami
    lines = itertools.chain(
        ["orbit size = %d" % len(graph)],
        ("node %d: h = %s, v = %s" % (i, node.h, node.v) for i, node in enumerate(graph.nodes)),
    )
    _emit(args, payload, lines)
    return 0


def _cmd_veech(args):
    o = load_origami(args.origami)
    if not is_reduced(o):
        raise ValueError("veech requires a reduced origami")
    graph = sl2z_orbit(o)
    index = len(graph)
    gens = stabilizer_words(graph)
    payload = {"index": index, "generators": [str(w) for w in gens]}
    _emit(
        args,
        payload,
        ["index = %d" % index, "generators = %s" % " ".join(str(w) for w in gens)],
    )
    return 0


def _cmd_spin(args):
    o = load_origami(args.origami)
    parity = spin_parity(o)
    _emit(args, {"spin_parity": parity}, ["spin parity = %d" % parity])
    return 0


def _cmd_component(args):
    o = load_origami(args.origami)
    comp = component(o)
    st = str(stratum(o))
    _emit(
        args,
        {"stratum": st, "component": comp},
        ["stratum = %s" % st, "component = %s" % comp],
    )
    return 0


def _cmd_kz(args):
    o = load_origami(args.origami)
    subspace = "H1_zero" if args.zero else "full"
    cm = kz_matrix(o, args.word, subspace)
    mat = [list(r) for r in cm.matrix]
    cp = la.charpoly(mat)
    # a deck transformation acting as the identity on the subspace leaves
    # the matrix well defined
    identity = la.identity_matrix(len(mat))
    ambiguous = any(not la.mat_eq(m, identity) for m in cm.ambiguity)
    payload = {
        "word": str(cm.word),
        "subspace": subspace,
        "matrix": mat,
        "charpoly": cp,
        "ambiguous": ambiguous,
    }
    lines = ["word = %s" % cm.word]
    lines += ["  ".join("%6d" % x for x in row) for row in mat]
    lines.append("charpoly = %s" % cp)
    if ambiguous:
        # the ambiguity matrices leave out the identity
        lines.append(
            "note: %d deck transformations; matrix defined up to their action"
            % (len(cm.ambiguity) + 1)
        )
    _emit(args, payload, lines)
    return 0


def _cmd_galois(args):
    with open(args.matrix, "r", encoding="utf-8") as fh:
        m = json.load(fh)
    if not isinstance(m, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in m
    ):
        raise ValueError("matrix file must hold a JSON list of rows of integers")
    if len(m) == 2:
        pinching = is_galois_pinching_sl2(m)
        payload = {"size": 2, "pinching": pinching}
        _emit(args, payload, ["pinching = %s" % pinching])
    else:
        report = is_galois_pinching_sp4(m)
        payload = report.to_json()
        lines = ["pinching = %s" % report.pinching, "reason = %s" % report.reason]
        if report.quartic:
            q = report.quartic
            lines.append(
                "quartic a = %d, b = %d; deltas = %d, %d, %d"
                % (q.a, q.b, q.delta1, q.delta2, q.delta3)
            )
        _emit(args, payload, lines)
    return 0


def _cmd_simplicity(args):
    o = load_origami(args.origami)
    result = certify_simplicity(o, search_depth=args.depth)
    if isinstance(result, NotFound):
        payload = {"found": False, **dataclasses.asdict(result)}
        if result.exhausted:
            line = (
                "word search exhausted after %d states: no loop word of any length is "
                "pinching, so this method cannot certify the surface; this does not "
                "disprove simplicity" % result.states
            )
        else:
            line = (
                "no certificate found up to depth %d (inconclusive, not a disproof)"
                % result.explored_depth
            )
        _emit(args, payload, [line])
        return 0
    payload = result.to_json()
    _emit(args, payload, [result.dumps()])
    return 0


def _cmd_ekz(args):
    o = load_origami(args.origami)
    report = ekz_sum(o)
    payload = report.to_json()
    lines = [
        "stratum = %s" % report.stratum,
        "orbit size = %d" % report.orbit_size,
        "combinatorial = %s (= %.6f)"
        % (report.combinatorial, float(report.combinatorial)),
        "cylinder = %s (= %.6f)" % (report.cylinder, float(report.cylinder)),
        "total = %s (= %.6f)" % (report.total, float(report.total)),
    ]
    if args.w_multiplicity:
        lam = w_exponent_from_sum(report, args.w_multiplicity)
        payload["w_exponent"] = {"num": lam.numerator, "den": lam.denominator}
        lines.append(
            "lambda from total = 7/3 + %d*lambda: %s" % (args.w_multiplicity, lam)
        )
    _emit(args, payload, lines)
    return 0


def _cmd_mc(args):
    o = load_origami(args.origami)
    est = mc_exponents(
        o,
        subspace=args.subspace,
        steps=args.steps,
        trials=args.trials,
        seed=args.seed,
    )
    payload = est.to_json()
    lines = ["subspace = %s, steps = %d, trials = %d" % (est.subspace, est.steps, est.trials)]
    for value, err in zip(est.estimates, est.std_errors):
        lines.append("% .6f +- %.6f" % (value, err))
    if est.ambiguity_note:
        lines.append("note: %s" % est.ambiguity_note)
    _emit(args, payload, lines)
    return 0


def _cmd_cover(args):
    if args.which == "ew":
        o = ew_origami()
    elif args.which == "ltilde":
        o = ltilde_origami()
    elif args.which == "mbar":
        o = mbar_star_origami(args.d)
    else:  # custom
        if not args.base or not args.cocycle:
            raise ValueError("custom cover needs --base and --cocycle")
        base = load_origami(args.base)
        with open(args.cocycle, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict) or any(k not in spec for k in ("group", "wh", "wv")):
            raise ValueError('cocycle file must hold a JSON object with "group", "wh" and "wv"')
        groups = {"quaternion": quaternion_group, "trivial": trivial_group}
        if not isinstance(spec["group"], str) or spec["group"] not in groups:
            raise ValueError("cocycle group must be one of: %s" % ", ".join(groups))
        for key in ("wh", "wv"):
            if not isinstance(spec[key], list):
                raise ValueError("cocycle %s must be a list, not %r" % (key, spec[key]))
        grp = groups[spec["group"]]()
        from .covers import group_cover

        o = group_cover(
            base, EdgeCocycle(group=grp, wh=spec["wh"], wv=spec["wv"]), label="COVER"
        )
    if args.out:
        save_origami(o, args.out)
        print("wrote %s (%d squares, genus %d)" % (args.out, o.degree, genus(o)))
    else:
        sys.stdout.write(render_origami_text(o))
    return 0


def _cmd_buser(args):
    if args.trace is not None:
        length = trace_to_length(args.trace)
        _emit(
            args,
            {"trace": args.trace, "length": length},
            ["length = %.6f" % length],
        )
        return 0
    bound = buser_bound(args.k)
    reference = 1.0 / (2 * args.k)
    payload = {"k": args.k, "bound": bound, "reference": reference}
    _emit(
        args,
        payload,
        [
            "buser_bound(%d) = %.8f" % (args.k, bound),
            "1/(2k) = %.8f" % reference,
            "bound < 1/(2k): %s" % (bound < reference),
        ],
    )
    return 0


def _cmd_verify(args):
    with open(args.certificate, "r", encoding="utf-8") as fh:
        cert = certificate_from_json(json.load(fh))
    ok = verify_certificate(cert)
    _emit(args, {"valid": ok}, ["certificate valid = %s" % ok])
    return 0 if ok else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process: no argument has a
    mutable default, so parses do not leak into each other."""
    parser = argparse.ArgumentParser(
        prog="origami-lab",
        description="Exact computation on square-tiled surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="JSON output")
        return p

    p = add("info", _cmd_info, "degree, genus, stratum, reducedness")
    p.add_argument("origami", help="origami text file")

    p = add("orbit", _cmd_orbit, "SL(2,Z) orbit of an origami")
    p.add_argument("origami")

    p = add("veech", _cmd_veech, "Veech group index and generators")
    p.add_argument("origami")

    p = add("spin", _cmd_spin, "spin parity (Arf invariant)")
    p.add_argument("origami")

    p = add("component", _cmd_component, "connected component of the stratum")
    p.add_argument("origami")

    p = add("kz", _cmd_kz, "cocycle matrix of a word over T, S, t, s")
    p.add_argument("origami")
    p.add_argument("word")
    p.add_argument("--zero", action="store_true", help="restrict to H1_zero")

    p = add("galois", _cmd_galois, "pinching report for a matrix in a JSON file")
    p.add_argument("matrix", help="JSON file with a 2x2 or 4x4 integer matrix")

    p = add("simplicity", _cmd_simplicity, "search for a simplicity certificate")
    p.add_argument("origami")
    p.add_argument("--depth", type=int, default=12)

    p = add("ekz", _cmd_ekz, "exact sum of non-negative Lyapunov exponents")
    p.add_argument("origami")
    p.add_argument(
        "--w-multiplicity",
        type=int,
        default=0,
        help="also solve total = 7/3 + m*lambda for lambda",
    )

    p = add("mc", _cmd_mc, "Monte Carlo exponent estimates (needs --seed)")
    p.add_argument("origami")
    p.add_argument("--subspace", choices=("full", "H1_zero", "W"), default="full")
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument(
        "--trials",
        type=int,
        default=10,
        help="independent walks, at most %d (default 10)" % MAX_TRIALS,
    )
    p.add_argument("--seed", type=int, required=True)

    p = add("cover", _cmd_cover, "build a finite-group cover")
    p.add_argument("which", choices=("ew", "ltilde", "mbar", "custom"))
    p.add_argument("--d", type=int, default=3, help="layers for the mbar cover")
    p.add_argument("--base", help="base origami file (custom)")
    p.add_argument("--cocycle", help='JSON {"group": ..., "wh": [...], "wv": [...]}')
    p.add_argument("--out", help="write the cover to this file")

    p = add("buser", _cmd_buser, "eigenvalue upper bound / trace to length")
    p.add_argument("k", type=int, nargs="?", default=3)
    p.add_argument("--trace", type=int, help="print 2*arccosh(|t|/2) instead")

    p = add("verify", _cmd_verify, "re-derive every claim of a certificate")
    p.add_argument("certificate", help="certificate JSON file")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except AssertionError as exc:
        print("error: internal check failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
