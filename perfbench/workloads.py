"""Seeded inputs, job lists and output checks for the three workloads.

``build(name, seed, root, workdir)`` is the whole set-up of a workload:
it resolves the fixtures, generates the random surfaces from the seed,
writes the files the CLI jobs read, and runs the warm-up the workload
declares.  It returns a ``Workload`` whose jobs run in a fixed order.

Every job has a check that can fail and a corruption that the self-test
feeds to that check to prove it fails.  Jobs call the library through
module attributes (``homology.kz_matrix``), never through names copied
into this module, so the timing wrappers of ``tracing`` see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from origami_lab import cli, homology, lyapunov, orbit, origami, simplicity, spin
from origami_lab import intlinalg as la
from origami_lab.perm import Permutation

# homology-cold: (degree, genus) of the random surfaces, one surface
# each; each genus is the most frequent one at its degree, and fixing it
# keeps the cost of a slot within about 15% across seeds.  With the three
# fixed jobs a pass has 40 jobs and takes about 10 s, so a run holds
# several passes.
COLD_SLOTS = ((10, 5), (11, 5), (12, 6), (13, 6)) * 9 + ((14, 7),)
# A Veech-generator loop at the ltilde basepoint that visits three orbit
# nodes: a cold kz builds three genus 11 homologies (14-17 s).  Too long
# for a timed pass; the self-test runs it once.
LTILDE_LOOP = "sTTS"
DEMA_WORD = "T8SSTTSS"
DEMA_ZERO_CHARPOLY = [1, -2, -30, -2, 1]

# walks: random genus 3 surfaces of degree 5 with trivial automorphisms,
# one per entry of WALK_ORBITS, each the size of its SL(2,Z)-orbit.  At
# degree 5 these lie in H(4), in three orbits of 10, 12 and 15 nodes.
# Fixed sizes make the set-up warm-up the same 52 orbit nodes on every
# seed; the seed picks the basepoints and labellings.
WALK_ORBITS = (10, 12, 15, 15)
WALK_DEPTH = 6
DEMA_DEPTH = 7
DEMA_WORD_LENGTH = 7
EW_SEARCH_DEPTH = 6
KZ_PRODUCTS = 26  # brings a pass to at least 43 jobs, enough for a p75 tail
KZ_FACTORS = 6  # Veech generators per product
MC_RUNS = 3  # seeds for each Monte Carlo target
# (fixture, subspace): ew has a central involution, so its W block (the
# -1 eigenspace, inside H1_zero) is also measured
MC_TARGETS = (("ew", "H1_zero"), ("ew", "W"), ("l3", "full"))
MC_STEPS = 3000
MC_TRIALS = 4

# survey: (degree, smallest orbit, largest orbit, all zero orders even,
# surfaces).  Orbit cost grows with orbit size and even strata add the
# spin and component jobs, so drawing fixed classes keeps the job count
# and the cost of a pass nearly the same for every seed.
SURVEY_CLASSES = (
    (5, 1, 24, True, 6),
    (5, 1, 24, False, 4),
    (6, 15, 36, True, 4),
    (6, 15, 36, False, 4),
    (6, 96, 120, False, 3),
    (7, 300, 400, True, 2),
)

FIXTURE_NAMES = ("dema", "ew", "l3", "ltilde", "mstar", "mbar_star_3", "z6_origami")


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing fixtures or package)."""


class CheckFailed(Exception):
    """A job's output is wrong."""


class KnownDefect(CheckFailed):
    """A wrong output that matches a documented library defect: reported
    under ``known_defects`` on every run where it occurs, not counted as a
    failed job (see README.md, "Known library defect")."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


SKIPPED = object()  # returned by a job that does not apply in this pass


@dataclass
class Job:
    name: str
    kind: str  # selects the corruption the self-test applies
    run: object  # () -> output
    check: object  # (output) -> None, raises CheckFailed
    cold: bool = False  # clear the orbit-context cache before running


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list
    inputs: list  # plain description of every generated input
    fixtures: str
    state: dict = field(default_factory=dict)  # outputs shared within a pass

    @property
    def digest(self):
        blob = json.dumps(self.inputs, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def begin_pass(self):
        self.state.clear()


# ---------------------------------------------------------------------------
# Inputs


def fixture_dir(root):
    """``<repo>/fixtures`` or the package's ``fixtures``, whichever exists."""
    for candidate in (root / "fixtures", root / "src" / "origami_lab" / "fixtures"):
        if all((candidate / (n + ".txt")).is_file() for n in FIXTURE_NAMES):
            return candidate
    raise SetupError(
        "no fixtures: expected %s.txt in %s/fixtures or %s/src/origami_lab/fixtures"
        % ("/".join(FIXTURE_NAMES), root, root)
    )


def clear_context_cache():
    """Forget every cached orbit context, so the next call is cold.  If the
    cache moves, the coldness guard fails the homology-cold jobs."""
    cache = getattr(homology, "_context_cache", None)
    if cache is not None:
        cache.clear()


def random_surface(rng, degree):
    """A uniformly drawn transitive, reduced permutation pair."""
    while True:
        h = list(range(1, degree + 1))
        v = list(range(1, degree + 1))
        rng.shuffle(h)
        rng.shuffle(v)
        try:
            o = origami.Origami(Permutation(h), Permutation(v))
        except ValueError:
            continue
        if origami.is_reduced(o):
            return o


def orbit_size_at_most(o, cap):
    """Size of the SL(2,Z)-orbit of ``o``, or None once it exceeds ``cap``
    (input selection only: large orbits are abandoned early)."""
    start = origami.canonical_form(o).origami
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for letter in "TSts":
                _raw, canon, _relabel = orbit.apply_letter(node, letter)
                if canon not in seen:
                    if len(seen) == cap:
                        return None
                    seen.add(canon)
                    nxt.append(canon)
        frontier = nxt
    return len(seen)


def random_relabel(rng, o):
    images = list(range(1, o.degree + 1))
    rng.shuffle(images)
    return o.relabel(Permutation(images))


def describe(o):
    return [list(o.h.images), list(o.v.images)]


def run_cli(argv):
    """``origami_lab.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_payload(result):
    expect(result["rc"] == 0, "exit code %r: %s" % (result["rc"], result["stderr"].strip()))
    try:
        return json.loads(result["stdout"])
    except json.JSONDecodeError as exc:
        raise CheckFailed("output is not JSON: %s" % exc)


def frac(obj):
    return Fraction(obj["num"], obj["den"])


def is_symplectic_charpoly(cp, dim):
    return len(cp) == dim + 1 and cp[0] == 1 and cp[-1] == 1 and cp == cp[::-1]


# ---------------------------------------------------------------------------
# homology-cold


def _homology_job(name, o, g):
    def run():
        hom = homology.Homology(o)
        _st, zero = homology.tautological_split(hom)
        return {"rank": hom.rank, "zero_dim": len(zero)}

    def check(out):
        expect(out["rank"] == 2 * g, "%s: rank %d, want 2g = %d" % (name, out["rank"], 2 * g))
        expect(
            out["zero_dim"] == 2 * g - 2,
            "%s: H1_zero dimension %d, want %d" % (name, out["zero_dim"], 2 * g - 2),
        )

    return Job(name, "homology", run, check, cold=True)


def _build_homology_cold(rng, fx, workdir, inputs, state):
    jobs = []
    for i, (degree, g) in enumerate(COLD_SLOTS):
        o = random_surface(rng, degree)
        while origami.genus(o) != g:
            o = random_surface(rng, degree)
        inputs.append(["cold", i, describe(o)])
        jobs.append(_homology_job("hom:%d:n%d:g%d" % (i, degree, g), o, g))
    mbar = origami.load_origami(str(fx / "mbar_star_3.txt"))
    jobs.append(_homology_job("hom:mbar_star_3", mbar, origami.genus(mbar)))

    dema_path = str(fx / "dema.txt")

    def check_dema(result):
        payload = cli_payload(result)
        expect(payload["subspace"] == "H1_zero", "kz dema: subspace %r" % payload["subspace"])
        expect(
            payload["charpoly"] == DEMA_ZERO_CHARPOLY,
            "kz dema %s: charpoly %r, want %r" % (DEMA_WORD, payload["charpoly"], DEMA_ZERO_CHARPOLY),
        )

    jobs.append(
        Job(
            "cli:kz:dema",
            "kz",
            lambda: run_cli(["kz", dema_path, DEMA_WORD, "--zero", "--json"]),
            check_dema,
            cold=True,
        )
    )

    def check_dema_full(result):
        payload = cli_payload(result)
        expect(payload["subspace"] == "full", "kz dema: subspace %r" % payload["subspace"])
        expect(
            is_symplectic_charpoly(payload["charpoly"], 6),
            "kz dema %s: charpoly %r is not monic reciprocal of degree 6" % (DEMA_WORD, payload["charpoly"]),
        )

    jobs.append(
        Job(
            "cli:kz:dema:full",
            "kz",
            lambda: run_cli(["kz", dema_path, DEMA_WORD, "--json"]),
            check_dema_full,
            cold=True,
        )
    )
    inputs.append(["kz", DEMA_WORD])
    return jobs


def ltilde_kz_job(fx):
    """Cold CLI ``kz ltilde`` at a Veech-generator loop (self-test only)."""
    ltilde_path = str(fx / "ltilde.txt")

    def check(result):
        payload = cli_payload(result)
        mat = payload["matrix"]
        expect(len(mat) == 22 and all(len(r) == 22 for r in mat), "kz ltilde: matrix is not 22x22")
        expect(
            is_symplectic_charpoly(payload["charpoly"], 22),
            "kz ltilde: charpoly %r is not monic reciprocal" % payload["charpoly"],
        )
        expect(payload["ambiguous"] is True, "kz ltilde: deck ambiguity not reported")

    return Job("cli:kz:ltilde", "kz", lambda: run_cli(["kz", ltilde_path, LTILDE_LOOP, "--json"]), check, cold=True)


# ---------------------------------------------------------------------------
# walks


def warm_context(o):
    """Build the orbit, every node's homology and every step matrix."""
    ctx = homology.kz_context(o)
    for node in range(len(ctx.graph.nodes)):
        for letter in "TSts":
            ctx.step(node, letter)
    ctx.aut_matrices(ctx.graph.basepoint)
    return ctx


def _certificate_jobs(state, label, o, depth, word_length=None):
    key = "cert:" + label
    canon = origami.canonical_form(o).origami

    def certify():
        return simplicity.certify_simplicity(o, search_depth=depth)

    def check_certify(out):
        if isinstance(out, simplicity.NotFound):
            expect(word_length is None, "%s: no certificate, want one of length %s" % (label, word_length))
            expect(out.explored_depth == depth, "%s: explored depth %d, want %d" % (label, out.explored_depth, depth))
            cert = None
        else:
            n = len(out.pinching_word)
            expect(out.origami == canon, "%s: certificate is not for the canonical form" % label)
            expect(1 <= n <= depth, "%s: pinching word length %d beyond depth %d" % (label, n, depth))
            if word_length is not None:
                expect(n == word_length, "%s: pinching word length %d, want %d" % (label, n, word_length))
            cert = out.to_json()
        state[key] = cert

    def verify(tampered):
        def run():
            blob = state[key]
            if blob is None:
                return SKIPPED
            blob = json.loads(json.dumps(blob))
            if tampered:
                blob["quartic"] = {"a": blob["quartic"]["a"] + 1, "b": blob["quartic"]["b"]}
            return simplicity.verify_certificate(simplicity.certificate_from_json(blob))

        return run

    def check_verify(want):
        def check(out):
            expect(out is want, "%s: verify_certificate gave %r on a %s certificate"
                   % (label, out, "genuine" if want else "tampered"))

        return check

    return [
        Job("certify:" + label, "certify", certify, check_certify),
        Job("verify:" + label, "verify", verify(False), check_verify(True)),
        Job("verify-tampered:" + label, "verify", verify(True), check_verify(False)),
    ]


def _build_walks(rng, fx, workdir, inputs, state):
    load = lambda name: origami.load_origami(str(fx / (name + ".txt")))  # noqa: E731
    dema, ew, l3 = load("dema"), load("ew"), load("l3")
    surfaces, basepoints = [], set()
    for want in WALK_ORBITS:
        while True:
            o = random_surface(rng, 5)
            if origami.genus(o) != 3 or len(origami.automorphisms(o)) != 1:
                continue
            canon = origami.canonical_form(o).origami
            if canon not in basepoints and orbit_size_at_most(o, want) == want:
                break
        basepoints.add(canon)  # distinct basepoints: no context is shared
        surfaces.append(o)
        inputs.append(["genus3", describe(o)])
    for o in [dema, ew, l3] + surfaces:
        warm_context(o)

    jobs = _certificate_jobs(state, "dema", dema, DEMA_DEPTH, DEMA_WORD_LENGTH)
    for i, o in enumerate(surfaces):
        jobs += _certificate_jobs(state, "g3-%d" % i, o, WALK_DEPTH)

    def search_ew():
        return simplicity.find_pinching_word(ew, EW_SEARCH_DEPTH)

    def check_search(out):
        expect(out is None, "ew: found pinching word %s; the cocycle of ew acts through a finite group"
               % (out[0] if out else out,))

    jobs.append(Job("search:ew:d%d" % EW_SEARCH_DEPTH, "search", search_ew, check_search))

    gens = orbit.veech_generators(dema)
    ref = [[list(r) for r in homology.kz_matrix(dema, g).matrix] for g in gens]
    for k in range(KZ_PRODUCTS):
        picks = [rng.randrange(len(gens)) for _ in range(KZ_FACTORS)]
        inputs.append(["kz", picks])
        word = gens[picks[0]]
        want = ref[picks[0]]
        for p in picks[1:]:
            word = word * gens[p]
            want = la.mat_mul(want, ref[p])
        jobs.append(_kz_product_job("kz:dema:%d" % k, dema, word, want))

    fixtures = {"ew": ew, "l3": l3}
    for i in range(MC_RUNS):
        for name, subspace in MC_TARGETS:
            seed = rng.randrange(1 << 30)
            inputs.append(["mc", name, subspace, seed])
            jobs.append(_mc_job("mc:%s:%s:%d" % (name, subspace, i), fixtures[name], subspace, seed))
    return jobs


def _kz_product_job(name, o, word, want):
    def run():
        return [list(r) for r in homology.kz_matrix(o, word).matrix]

    def check(out):
        expect(la.mat_eq(out, want), "%s: matrix breaks the composition law" % name)
        expect(is_symplectic_charpoly(la.charpoly(out), len(out)), "%s: charpoly not reciprocal" % name)

    return Job(name, "kz_product", run, check)


def _mc_job(name, o, subspace, seed):
    def run():
        return lyapunov.mc_exponents(o, subspace=subspace, steps=MC_STEPS, trials=MC_TRIALS, seed=seed)

    def check(est):
        values, errs = est.estimates, est.std_errors
        for lo, hi, s in zip(values, reversed(values), errs):
            expect(abs(lo + hi) <= 3 * max(s, 1e-9) + 1e-3, "%s: spectrum not symmetric: %r" % (name, values))
        if subspace != "full":
            expect(all(abs(x) < 0.01 for x in values), "%s: %s block not zero: %r" % (name, subspace, values))
        else:
            expect(values[0] > 3 * errs[0], "%s: top exponent %r not positive" % (name, values[0]))

    return Job(name, "mc", run, check)


# ---------------------------------------------------------------------------
# survey


def _survey_surface_jobs(state, i, o, path, size, rng):
    canon = origami.canonical_form(o).origami
    st = origami.stratum(o)
    g = origami.genus(o)
    even = all(k % 2 == 0 for k in st.orders)
    p = str(path)
    tag = "s%d" % i

    def check_info(result):
        payload = cli_payload(result)
        expect(payload["degree"] == o.degree, "%s: degree %r" % (tag, payload["degree"]))
        expect(payload["genus"] == g, "%s: genus %r, want %d" % (tag, payload["genus"], g))
        expect(payload["stratum"] == str(st), "%s: stratum %r, want %s" % (tag, payload["stratum"], st))
        expect(payload["reduced"] is True, "%s: reported not reduced" % tag)

    def check_orbit(result):
        payload = cli_payload(result)
        nodes = payload["nodes"]
        expect(len(nodes) == size, "%s: orbit size %d, want %d" % (tag, len(nodes), size))
        first = (tuple(nodes[0]["h_images"]), tuple(nodes[0]["v_images"]))
        expect(
            first == (canon.h.images, canon.v.images),
            "%s: canonical form changed under relabelling" % tag,
        )
        state[tag + ":orbit"] = nodes

    def check_veech(result):
        payload = cli_payload(result)
        expect(payload["index"] == size, "%s: veech index %r, orbit size %d" % (tag, payload["index"], size))

    def check_ekz(result):
        payload = cli_payload(result)
        total = frac(payload["total"])
        expect(payload["orbit"] == size, "%s: ekz orbit %r, want %d" % (tag, payload["orbit"], size))
        expect(total == frac(payload["combinatorial"]) + frac(payload["cylinder"]), "%s: ekz total is not the sum" % tag)
        expect(total >= 1, "%s: ekz total %s below 1" % (tag, total))

    jobs = [
        Job("info:" + tag, "info", lambda: run_cli(["info", p, "--json"]), check_info, cold=True),
        Job("orbit:" + tag, "orbit", lambda: run_cli(["orbit", p, "--json"]), check_orbit, cold=True),
        Job("veech:" + tag, "veech", lambda: run_cli(["veech", p, "--json"]), check_veech, cold=True),
        Job("ekz:" + tag, "ekz", lambda: run_cli(["ekz", p, "--json"]), check_ekz, cold=True),
    ]
    if not even:
        return jobs
    pick = rng.randrange(size)

    def check_spin(result):
        payload = cli_payload(result)
        parity = payload["spin_parity"]
        expect(parity in (0, 1), "%s: spin parity %r" % (tag, parity))
        nodes = state.get(tag + ":orbit")
        expect(nodes is not None, "%s: no orbit output to compare spin with" % tag)
        other = origami.Origami.from_json(nodes[pick])
        expect(spin.spin_parity(other) == parity, "%s: spin parity not constant on the orbit" % tag)
        state[tag + ":spin"] = parity

    def check_component(result):
        payload = cli_payload(result)
        comp = payload["component"]
        parity = state.get(tag + ":spin")
        if g <= 2:
            expect(comp == "connected", "%s: genus %d component %r" % (tag, g, comp))
            return
        expect(comp in ("hyperelliptic", "odd-spin", "even-spin"), "%s: component %r" % (tag, comp))
        # hyperelliptic components have parity floor((g+1)/2) mod 2 (Kontsevich-Zorich)
        want = {"odd-spin": 1, "even-spin": 0, "hyperelliptic": (g + 1) // 2 % 2}[comp]
        if parity != want and comp == "hyperelliptic" and involution_fixes_two_zeros(o):
            raise KnownDefect(
                "%s: component() says hyperelliptic for a %s surface whose spin parity %d is not "
                "that of the hyperelliptic component; its involution fixes the zeros instead of "
                "swapping them" % (tag, st, parity)
            )
        expect(parity == want, "%s: component %r with spin parity %r" % (tag, comp, parity))

    jobs.append(Job("spin:" + tag, "spin", lambda: run_cli(["spin", p, "--json"]), check_spin, cold=True))
    jobs.append(
        Job("component:" + tag, "component", lambda: run_cli(["component", p, "--json"]), check_component, cold=True)
    )
    return jobs


def involution_fixes_two_zeros(o):
    """True iff ``o`` has exactly two zeros, of equal order, and the
    involution ``spin.hyperelliptic_involution`` finds fixes each of them
    (in the hyperelliptic component of H(g-1,g-1) it swaps them).  This is
    the signature of the defect that ``KnownDefect`` reports."""
    orders = origami.stratum(o).orders
    found = spin.hyperelliptic_involution(o)
    if len(orders) != 2 or orders[0] != orders[1] or found is None:
        return False
    rho = found[0]
    cycles = origami.corner_permutation(o).cycles(include_fixed=True)
    vertex = {s: k for k, cyc in enumerate(cycles) for s in cyc}
    zeros = [k for k, cyc in enumerate(cycles) if len(cyc) > 1]
    # rho's vertex map, as in spin._rotation_fixed_points
    return all(vertex[o.v(o.h(rho(cycles[k][0])))] == k for k in zeros)


def _golden_cli_job(name, kind, argv, field_name, want):
    def check(result):
        payload = cli_payload(result)
        got = payload[field_name]
        if field_name == "nodes":
            got = len(got)
        elif field_name == "total":
            got = frac(got)
        expect(got == want, "%s: %s = %r, want %r" % (name, field_name, got, want))

    return Job(name, kind, lambda: run_cli(argv), check, cold=True)


def _cover_job(which, fixture):
    want = origami.canonical_form(fixture).origami

    def check(result):
        expect(result["rc"] == 0, "cover %s: exit code %r" % (which, result["rc"]))
        try:
            got = origami.parse_origami_text(result["stdout"])
        except ValueError as exc:
            raise CheckFailed("cover %s: output does not parse: %s" % (which, exc))
        expect(origami.canonical_form(got).origami == want, "cover %s: not the %s fixture" % (which, which))

    return Job("cover:" + which, "cover", lambda: run_cli(["cover", which]), check, cold=True)


def _build_survey(rng, fx, workdir, inputs, state):
    jobs = []
    i = 0
    for degree, lo, hi, even, count in SURVEY_CLASSES:
        accepted = 0
        while accepted < count:
            o = random_surface(rng, degree)
            if all(k % 2 == 0 for k in origami.stratum(o).orders) != even:
                continue
            size = orbit_size_at_most(o, hi)
            if size is None or size < lo:
                continue
            accepted += 1
            shown = random_relabel(rng, o)
            path = workdir / ("survey-%d.txt" % i)
            origami.save_origami(shown, str(path))
            inputs.append(["survey", i, describe(o), describe(shown), size])
            jobs += _survey_surface_jobs(state, i, o, path, size, rng)
            i += 1
    f = lambda name: str(fx / (name + ".txt"))  # noqa: E731
    jobs += [
        _golden_cli_job("info:z6", "info", ["info", f("z6_origami"), "--json"], "genus", 147),
        _golden_cli_job("info:l3:stratum", "info", ["info", f("l3"), "--json"], "stratum", "H(2)"),
        _golden_cli_job("info:l3:genus", "info", ["info", f("l3"), "--json"], "genus", 2),
        _golden_cli_job("info:ltilde", "info", ["info", f("ltilde"), "--json"], "stratum", "H(5,5,5,5)"),
        _golden_cli_job("info:ltilde:genus", "info", ["info", f("ltilde"), "--json"], "genus", 11),
        _golden_cli_job("orbit:dema", "orbit", ["orbit", f("dema"), "--json"], "nodes", 3),
        _golden_cli_job("orbit:ltilde", "orbit", ["orbit", f("ltilde"), "--json"], "nodes", 12),
        _golden_cli_job("orbit:mstar", "orbit", ["orbit", f("mstar"), "--json"], "nodes", 120),
        _golden_cli_job("ekz:l3", "ekz", ["ekz", f("l3"), "--json"], "total", Fraction(4, 3)),
        _golden_cli_job("ekz:ltilde", "ekz", ["ekz", f("ltilde"), "--json"], "total", Fraction(3)),
        _cover_job("ltilde", origami.load_origami(f("ltilde"))),
        _cover_job("ew", origami.load_origami(f("ew"))),
    ]
    return jobs


# ---------------------------------------------------------------------------

_BUILDERS = {
    "homology-cold": _build_homology_cold,
    "walks": _build_walks,
    "survey": _build_survey,
}


def build(name, seed, root, workdir):
    fx = fixture_dir(root)
    rng = random.Random("%s:%d" % (name, seed))
    inputs = [name, seed]
    state = {}
    clear_context_cache()
    jobs = _BUILDERS[name](rng, fx, workdir, inputs, state)
    return Workload(name, seed, jobs, inputs, str(fx.relative_to(root)), state)
