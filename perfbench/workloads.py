"""The benchmark's workloads: seeded inputs, task lists and their checks.

A workload builds its presentations once (set-up) and then hands out one
task list per pass.  Pass ``p`` of seed ``s`` is generated from ``(s, p)``
alone, so two runs with the same seed see the same inputs, and each pass
sees fresh inputs (a later Hom cache cannot turn a repeated pass into a
lookup).  A task returns a result; its check, run outside the timed loop,
says whether that result is right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from koszulkit import cli, complexes, filtered, functors, infext, tstructure
from koszulkit.orlov import AddMorphism, OrlovPresentation, obj, validate_presentation
from koszulkit.randgen import conjugate_complex, rand_automorphism, rand_complex, rand_filtered, rng_for
from oracle_hom import brute_force_hom_dim

PRIME = 10007
WORK_DIR = ".perfbench_work"   # scratch files, relative to the checkout root


class BenchInputError(Exception):
    """A generated or shipped input is not what the benchmark expects."""


@dataclass
class Task:
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def path_category(n, killed=False, characteristic=0, offset=0, rng=None) -> dict:
    """Presentation data of the path category A_n.

    Object ``v{i}`` has degree ``i + offset``; Hom(v_j, v_i) for j > i is
    spanned by ``h{j}_{i}`` and every composite h_{j,i} o h_{k,j} is
    h_{k,i}.  With ``killed``, the composites landing in the longest arrow
    h_{n-1,0} are zero: for n = 3 this is FIX_ZC, and for larger n it is the
    only way to kill a composite and keep composition associative.  ``rng``
    shuffles the order of the entries, not their content.
    """
    hom = [{"src": f"v{j}", "tgt": f"v{i}", "basis": [f"h{j}_{i}"]}
           for j in range(n) for i in range(j)]
    compose = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                dead = killed and (i, k) == (0, n - 1)
                compose.append({"left": f"h{j}_{i}", "right": f"h{k}_{j}",
                                "result": [] if dead else [{"label": f"h{k}_{i}", "coeff": "1"}]})
    if rng is not None:
        rng.shuffle(hom)
        rng.shuffle(compose)
    return {"characteristic": characteristic,
            "indecomposables": [{"id": f"v{i}", "degree": i + offset} for i in range(n)],
            "hom": hom, "compose": compose}


def checked_presentation(data: dict, name: str) -> OrlovPresentation:
    """Build a presentation, refusing any that fails ``validate_presentation``."""
    report = validate_presentation(data)
    if not report.ok:
        raise BenchInputError(f"generated presentation {name} is invalid: {report.to_data()}")
    return OrlovPresentation.from_data(data, name=name)


def digest(value) -> str:
    """Short stable digest of a result record (reprs of ints, strings, tuples)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def shape(x) -> tuple:
    """Per-degree summand multiset of a complex: an invariant of its minimal model."""
    return tuple((i, tuple(sorted(t))) for i, t in sorted(x.terms.items()))


class Workload:
    name = ""

    def __init__(self, seed: int, root, reference: dict):
        self.seed = seed
        self.root = root
        self.reference = reference
        self._ready = None

    def setup(self) -> None:
        """Build the presentations and the first pass's inputs."""
        self._build()
        self._ready = self._generate(0)

    def tasks(self, p: int) -> list:
        if p == 0 and self._ready is not None:
            ready, self._ready = self._ready, None
            return ready
        return self._generate(p)

    def report_bytes(self, results) -> int:
        return 0

    def _build(self) -> None:
        raise NotImplementedError

    def _generate(self, p: int) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------- hom_q


class HomQ(Workload):
    """All Hom(x, y[k]) between complexes on A_10 over Q, k in -1..1.

    The six complexes of a pass are random re-presentations (termwise
    automorphism conjugates, drawn from the seed) of six fixed rand_complex
    outputs.  Each pass therefore eliminates different matrices for the
    same Hom dimensions, and its cost does not swing with the seed: with
    freshly drawn complexes it varied by about 20% from pass to pass even
    inside the summand band.  The base complexes have AMPLITUDE nonzero
    terms and a total summand count in SUMMAND_BAND, since elimination cost
    grows steeply with size.
    """

    name = "hom_q"
    N = 10
    COMPLEXES = 6
    AMPLITUDE, MAX_SUMMANDS = 4, 4
    SUMMAND_BAND = (12, 13)

    def _build(self):
        self.pres = checked_presentation(path_category(self.N), "A10")
        rng = rng_for("hom_q-base")
        self.base = []
        while len(self.base) < self.COMPLEXES:
            x = rand_complex(self.pres, rng, amplitude=self.AMPLITUDE, max_summands=self.MAX_SUMMANDS)
            size = sum(len(t) for t in x.terms.values())
            if len(x.terms) == self.AMPLITUDE and self.SUMMAND_BAND[0] <= size <= self.SUMMAND_BAND[1]:
                self.base.append(x)

    def complexes(self, p: int) -> list:
        rng = rng_for(self.seed, self.name, p)
        return [conjugate_complex(x, rng)[0] for x in self.base]

    def _generate(self, p):
        cx = self.complexes(p)
        return [Task(_hom_runner(x, y, k), _hom_checker(x, y, k))
                for x in cx for y in cx for k in (-1, 0, 1)]


def _hom_runner(x, y, k):
    def run():
        sp = complexes.hom_space(x, y, k)
        total = complexes.ChainMap.zero(x, sp.ys)
        for b in sp.basis:
            total = total.add(b)
        return sp.dimension, sp.express(total)
    return run


def _hom_checker(x, y, k):
    def check(result):
        dim, coords = result
        return dim == brute_force_hom_dim(x, y, k) and coords == [1] * dim
    return check


# ----------------------------------------------------------- koszul_cli


class KoszulCli(Workload):
    """In-process CLI calls on generated A_n files and on the shipped fixtures.

    Every call re-reads its presentation from a file.  Generated files are
    A_3..A_9, each with all composites nonzero and with the composites into
    the longest arrow killed (``surrogate`` then exits 1 and ``dual`` 2).  The
    seed picks each file's degree offset and entry order and the task order;
    the cost of a pass does not depend on it.
    """

    name = "koszul_cli"
    COMMANDS = ("koszul-check", "surrogate", "mixed-check", "roundtrip", "dual", "double-dual")
    SIZES = range(3, 10)
    OFFSETS = (0, 1, 2)
    FIXTURES = ("FIX_PT", "FIX_A2", "FIX_A3", "FIX_ZC")

    def _build(self):
        goldens = self.root / "tests" / "goldens"
        manifest = json.loads((goldens / "manifest.json").read_text(encoding="utf-8"))
        # golden paths are relative to the checkout root, which is the cwd
        self.goldens = [(entry["argv"] + ["--golden", f"tests/goldens/{entry['file']}"],
                         entry.get("expect_code", 0)) for entry in manifest]
        self.expected = self.reference["koszul_cli"]

    @staticmethod
    def key(command, n, killed, offset) -> str:
        return f"{command} A{n} {'killed' if killed else 'full'} deg+{offset}"

    def write_presentation(self, n, killed, offset, rng=None):
        """Write A_n to its fixed relative path; the path names the presentation,
        and ``koszul-check`` seeds its samples from that name."""
        data = path_category(n, killed, offset=offset, rng=rng)
        path = f"{WORK_DIR}/A{n}-{'killed' if killed else 'full'}.json"
        checked_presentation(data, path)
        text = json.dumps(data)
        (self.root / path).write_text(text, encoding="utf-8")
        return path, hashlib.sha256(text.encode()).hexdigest()

    def _generate(self, p):
        rng = rng_for(self.seed, self.name, p)
        tasks = []
        for n in self.SIZES:
            for killed in (False, True):
                offset = rng.choice(self.OFFSETS)
                path, sha = self.write_presentation(n, killed, offset, rng)
                for command in self.COMMANDS:
                    want = self.expected[self.key(command, n, killed, offset)]
                    tasks.append(Task(partial(run_cli, [command, path]), _generated_checker(want, sha)))
        for fixture in self.FIXTURES:
            for command in self.COMMANDS:
                want = self.expected[f"{command} {fixture}"]
                tasks.append(Task(partial(run_cli, [command, fixture]), _generated_checker(want, None)))
        for argv, code in self.goldens:
            tasks.append(Task(partial(run_cli, argv), _golden_checker(code)))
        rng.shuffle(tasks)
        return tasks

    def report_bytes(self, results):
        return sum(len(r[1].encode()) for r in results if isinstance(r, tuple))


def run_cli(argv):
    """``cli.main`` in-process; returns (exit code, report text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def report_digest(text: str, file_sha=None) -> str:
    """sha256 of the canonical report bytes.

    For a generated file the file hash embedded in the report varies with
    the seeded entry order, so it is checked against ``file_sha`` and
    blanked before hashing.
    """
    report = json.loads(text)
    if file_sha is not None:
        if report.get("fixture_sha256") != file_sha:
            return "fixture hash mismatch"
        report["fixture_sha256"] = ""
    return hashlib.sha256(cli.canonical_bytes(report)).hexdigest()


def _generated_checker(want, file_sha):
    def check(result):
        code, text = result
        return code == want["code"] and report_digest(text, file_sha) == want["sha256"]
    return check


def _golden_checker(expect_code):
    def check(result):
        code, text = result
        return code == expect_code and json.loads(text)["golden"]["match"] is True
    return check


# --------------------------------------------------------- triangles_fp


class TrianglesFp(Workload):
    """Structure checks on complexes over A_8 at F_10007.

    Inputs come from a fixed pool per check kind; the seed picks which pool
    items a pass uses, in which order, and a random re-presentation of each
    (termwise automorphism conjugates), so a pass never repeats an input
    even when a long run cycles through the pool.  The dimensions each
    check produces are isomorphism invariants, recorded per pool item by
    record_reference.py (reference.json), so every run compares against a
    reference.  The mix keeps the uniqueness probe to about a third of the
    time.
    """

    name = "triangles_fp"
    N = 8
    POOL = 600
    PROBE_ORDERS = 4
    # kind: (generator arguments, items per pass)
    KINDS = {
        "truncate": ({"amplitude": 5, "max_summands": 6}, 25),
        "minimal_model": ({"amplitude": 5, "max_summands": 6}, 25),
        "adjunction": ({"amplitude": 4, "max_summands": 4}, 20),
        "split_decompose": ({"depth": 3, "max_extra": 2}, 20),
        "extend": ({"amplitude": 5, "max_summands": 6}, 25),
        "probe": ({"amplitude": 3, "max_summands": 3}, 15),
    }

    def _build(self):
        self.pres = checked_presentation(path_category(self.N, characteristic=PRIME), "A8/F10007")
        ident = functors.HomogeneousFunctor.identity(self.pres)
        self.theta = functors.NatTrans(ident, ident, {
            iid: AddMorphism.identity(self.pres, obj(iid)).scale(2) for iid in self.pres.ids})
        self.expected = self.reference["triangles_fp"]
        self.order = {}
        for kind in self.KINDS:
            order = list(range(self.POOL))
            rng_for(self.seed, self.name, kind).shuffle(order)
            self.order[kind] = order

    def make_input(self, kind, idx, rng=None):
        """Pool item ``idx`` of ``kind``, re-presented through ``rng`` if given."""
        params, _ = self.KINDS[kind]
        pool_rng = rng_for("triangles_fp-pool", kind, idx)
        if kind == "split_decompose":
            x = rand_filtered(self.pres, pool_rng, **params)
            return x if rng is None else conjugate_filtered(x, rng)
        x = rand_complex(self.pres, pool_rng, **params)
        return x if rng is None else conjugate_complex(x, rng)[0]

    def run_kind(self, kind, x, idx):
        """One structure check; returns (all certificates passed, dimensions)."""
        if kind == "truncate":
            tr = tstructure.truncate(x)
            return tr.triangle.verify() == [], (shape(tr.lower), shape(tr.upper))
        if kind == "minimal_model":
            m, iso = complexes.minimal_model(x)
            return iso.verify(), shape(m)
        if kind == "adjunction":
            rep = infext.adjunction_data(x)
            return rep["ok"], shape(rep["eta"].rep.target)
        if kind == "split_decompose":
            sp = filtered.split_decompose(x)
            ok = sp.phi.compose(sp.psi) == filtered.FilteredMorphism.identity(x)
            sizes = tuple((part.lo, part.hi, tuple(tuple(sorted(part.term(i)))
                                                   for i in range(part.lo, part.hi + 1)))
                          for part in (sp.above, sp.below))
            return ok, sizes
        if kind == "extend":
            ext = functors.extend_nat_trans(self.theta, x)
            return ext.rep.verify(), shape(ext.rep.source)
        if kind == "probe":
            rep = functors.nat_trans_uniqueness_probe(self.theta, x, orders=self.PROBE_ORDERS, seed=idx)
            return rep["ok"] and rep["orders"] == self.PROBE_ORDERS, (rep["orders"], rep["disagreements"])
        raise ValueError(kind)

    def _generate(self, p):
        tasks = []
        for kind, (_, per_pass) in self.KINDS.items():
            order = self.order[kind]
            rng = rng_for(self.seed, self.name, kind, p)
            for j in range(p * per_pass, (p + 1) * per_pass):
                idx = order[j % self.POOL]
                x = self.make_input(kind, idx, rng)
                tasks.append(Task(partial(self.run_kind, kind, x, idx),
                                  _kind_checker(self.expected[kind][idx])))
        rng_for(self.seed, self.name, "order", p).shuffle(tasks)
        return tasks


def conjugate_filtered(x, rng):
    """An isomorphic copy of a filtered object through random automorphisms
    of its terms."""
    autos = {i: rand_automorphism(x.pres, x.term(i), rng) for i in range(x.lo, x.hi + 1)}
    incl = {i: autos[i - 1][0].compose(e).compose(autos[i][1]) for i, e in x.incl.items()}
    retr = {i: autos[i][0].compose(r).compose(autos[i - 1][1]) for i, r in x.retr.items()}
    return filtered.FilteredObject(x.pres, x.lo, x.hi, x.terms, incl, retr)


def _kind_checker(want):
    def check(result):
        ok, dims = result
        return ok and digest(dims) == want
    return check


WORKLOADS = {cls.name: cls for cls in (HomQ, KoszulCli, TrianglesFp)}
