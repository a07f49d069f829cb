"""Presentations for tests, by name.

``FIX_*`` is a shipped fixture, ``A<n>[-killed]/F<p>`` the path category A_n
over F_p (F0 is Q) and ``quiver<seed>/F<p>`` a seeded layered quiver.
"""

import random
from fractions import Fraction

from koszulkit.fixtures import FIXTURE_NAMES, load_fixture
from koszulkit.linalg import Field
from koszulkit.orlov import OrlovPresentation

PATH_NAMES = [f"A{n}{kill}/F{p}" for n in range(3, 10) for kill in ("", "-killed")
              for p in (0, 10007)]
QUIVER_NAMES = [f"quiver{seed}/F{(0, 10007)[seed % 2]}" for seed in range(8)]
# quivers with Hom spaces of dimension 2 to 4, where a block's start in a
# flat coordinate vector is not its index
WIDE_BLOCK_NAMES = ["quiver0/F0", "quiver3/F10007"]


def path_category(n, characteristic, killed=False):
    """A_n: v_i of degree i, Hom(v_j, v_i) = <h{j}_{i}> for j > i, and
    every composite h_{j,i} o h_{k,j} = h_{k,i}; with ``killed``, the
    composites landing in the longest arrow h_{n-1,0} are 0 instead."""
    def result(i, k):
        return [] if killed and (i, k) == (0, n - 1) else [{"label": f"h{k}_{i}", "coeff": "1"}]

    return OrlovPresentation.from_data({
        "characteristic": characteristic,
        "indecomposables": [{"id": f"v{i}", "degree": i} for i in range(n)],
        "hom": [{"src": f"v{j}", "tgt": f"v{i}", "basis": [f"h{j}_{i}"]}
                for j in range(n) for i in range(j)],
        "compose": [{"left": f"h{j}_{i}", "right": f"h{k}_{j}", "result": result(i, k)}
                    for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)],
    }, name=f"A{n}{'-killed' if killed else ''}/F{characteristic}")


def layered_quiver(seed, characteristic=0, top=3):
    """kQ/(R) for a seeded layered quiver Q and monomial quadratic R.

    One or two vertices sit in each degree 0..top, with 0-2 parallel arrows
    from each vertex of degree d+1 to each of degree d.  Each length-2 path
    is killed with probability 1/3, so the basis of Hom(v, w) is the paths
    v -> w that avoid the killed ones.  Path p is presented as lam_p * p for
    a seeded nonzero scalar lam_p, so e_q o e_p = lam_q lam_p / lam_qp * e_qp:
    the constants are not all 1, and associativity holds because this is a
    change of basis of the path algebra.
    """
    rng = random.Random(seed)
    fld = Field(characteristic)
    layers = [[f"v{d}{'ab'[k]}" for k in range(rng.randint(1, 2))] for d in range(top + 1)]
    degree = {v: d for d, layer in enumerate(layers) for v in layer}
    arrows = []                                   # (name, source, target)
    for d in range(top):
        for v in layers[d + 1]:
            for w in layers[d]:
                for _ in range(rng.choice((0, 1, 2))):
                    arrows.append((f"x{len(arrows)}", v, w))
    killed = {(a, b) for a, _, mid in arrows for b, src, _ in arrows
              if src == mid and rng.random() < 1 / 3}

    paths = [(a,) for a, _, _ in arrows]          # arrow names in traversal order
    ends = {(a,): (v, w) for a, v, w in arrows}
    for path in paths:                            # grows while it is read
        for a, v, w in arrows:
            if v == ends[path][1] and (path[-1], a) not in killed:
                paths.append(path + (a,))
                ends[path + (a,)] = (ends[path][0], w)
    lam = {p: fld.of(Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2, 3))))
           for p in paths}

    def label(p):
        return ".".join(p)

    compose = []
    for p in paths:
        for q in paths:
            if ends[p][1] == ends[q][0] and (p + q) in lam:
                c = fld.div(fld.mul(lam[q], lam[p]), lam[p + q])
                compose.append({"left": label(q), "right": label(p),
                                "result": [{"label": label(p + q), "coeff": fld.format(c)}]})
    homs = {}
    for p in paths:
        homs.setdefault(ends[p], []).append(label(p))
    return OrlovPresentation.from_data({
        "characteristic": characteristic,
        "indecomposables": [{"id": v, "degree": d} for v, d in degree.items()],
        "hom": [{"src": v, "tgt": w, "basis": basis} for (v, w), basis in homs.items()],
        "compose": compose,
    }, name=f"quiver{seed}/F{characteristic}")


def presentation(name):
    if name in FIXTURE_NAMES:
        return load_fixture(name)
    kind, _, p = name.partition("/F")
    if kind.startswith("quiver"):
        return layered_quiver(int(kind.removeprefix("quiver")), int(p))
    n = kind.removeprefix("A")
    return path_category(int(n.removesuffix("-killed")), int(p), n.endswith("-killed"))
