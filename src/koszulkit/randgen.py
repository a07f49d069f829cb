"""Seeded random generators for complexes, chain maps and automorphisms.

Differentials are sampled degreewise from the exact kernel of composition
against the previously chosen differential, so d^2 = 0 holds by
construction rather than by rejection.
"""

from __future__ import annotations

import hashlib
import random

from .complexes import Complex, HomSpace, conjugate
from .linalg import Matrix
from .orlov import AddMorphism, AddObject, Coords, invert


def rand_scalar(field, rng):
    if field.char == 0:
        return field.of(rng.randint(-3, 3))
    return field.of(rng.randrange(field.char))


def rand_object(pres, rng, max_summands=3, degrees=None):
    pool = [i for i in pres.ids if degrees is None or pres.degree[i] in degrees]
    n = rng.randint(0, max_summands)
    if not pool:
        return AddObject(())
    return AddObject(tuple(rng.choice(pool) for _ in range(n)))


def rand_add_morphism(pres, x, y, rng):
    coords = Coords(pres, {0: (x, y)})
    vec = [rand_scalar(pres.field, rng) for _ in range(coords.total)]
    return coords.from_vector(vec).get(0) or AddMorphism.zero(pres, x, y)


def rand_kernel_element(mat: Matrix, rng):
    """Random small combination of a kernel basis of ``mat``."""
    echelon = mat.rref()
    return echelon.lift([rand_scalar(mat.field, rng) for _ in echelon.free_columns()])


def rand_complex(pres, rng, amplitude=4, max_summands=3, base_degree=None, degrees_of=None):
    """Random bounded complex; differentials sampled from exact kernels."""
    fld = pres.field
    if base_degree is None:
        base_degree = rng.randint(-2, 1)
    width = rng.randint(1, amplitude)
    terms = {}
    for i in range(base_degree, base_degree + width):
        allowed = degrees_of(i) if degrees_of is not None else None
        t = rand_object(pres, rng, max_summands=max_summands, degrees=allowed)
        if not t.is_zero:
            terms[i] = t
    diffs = {}
    for i in sorted(terms):
        if i + 1 not in terms:
            continue
        y = terms[i + 1]
        coords = Coords(pres, {0: (terms[i], y)})
        if not coords.total:
            continue
        prev = diffs.get(i - 1)   # d^{i-1}, already chosen, if nonzero
        if prev is None:
            vec = [rand_scalar(fld, rng) for _ in range(coords.total)]
        else:
            # rows: coordinates of (candidate o prev) in Hom(term(i-1), y)
            mat = coords.matrix(Coords(pres, {0: (prev.source, y)}), [(0, 1, "right", lambda i: prev)])
            vec = rand_kernel_element(mat, rng)
        m = coords.from_vector(vec)[0]
        if not m.is_zero():
            diffs[i] = m
    return Complex(pres, terms, diffs)


def rand_heart_complex(pres, rng, max_summands=3, width=None, missing_weights=(),
                       min_weight=None, max_weight=None):
    """Random complex supported on the antidiagonal (term at -w has weight w)."""
    degs = sorted({pres.degree[s] for s in pres.ids})
    if min_weight is not None:
        degs = [d for d in degs if d >= min_weight]
    if max_weight is not None:
        degs = [d for d in degs if d <= max_weight]
    if not degs:
        return Complex.zero(pres)
    if width is None:
        lo, hi = min(degs), max(degs)
    else:
        lo, hi = width

    def allowed(i):
        w = -i
        if w in missing_weights or w not in degs:
            return set()
        return {w}

    return rand_complex(pres, rng, amplitude=hi - lo + 1, max_summands=max_summands,
                        base_degree=-hi, degrees_of=allowed)


def rand_chain_map(x: Complex, y: Complex, rng, shift=0):
    """Random element of the chain-map space (not reduced mod homotopy)."""
    sp = HomSpace(x, y, shift)
    return sp.cycle([rand_scalar(x.pres.field, rng) for _ in range(sp.nullity)])


def rand_automorphism(pres, x: AddObject, rng):
    """Random invertible endomorphism of x with its inverse, drawn until
    :func:`invert` finds one."""
    while True:
        m = rand_add_morphism(pres, x, x, rng)
        # force the diagonal towards invertibility
        bump = AddMorphism.identity(pres, x).scale(rng.choice([1, 1, 2, -1]))
        m = m.add(bump)
        inv = invert(m)
        if inv is not None:
            return m, inv


def conjugate_complex(x: Complex, rng):
    """An isomorphic copy of x through random termwise automorphisms
    (``complexes.conjugate``), drawn in the order of x's terms.

    Returns (x2, fwd: x -> x2, bwd: x2 -> x), both exact chain isos.
    """
    x2, iso = conjugate(x, {i: rand_automorphism(x.pres, t, rng) for i, t in x.terms.items()})
    return x2, iso.fwd, iso.bwd


def rand_filtered(pres, rng, depth=3, max_extra=2):
    """Random filtered object: iterated split inclusions with conjugation."""
    from .filtered import FilteredObject

    lo = -rng.randint(0, 2)
    hi = lo + depth - 1
    terms, incl, retr = {}, {}, {}
    cur = AddObject(tuple(rng.choice(pres.ids)
                          for _ in range(rng.randint(0, max_extra))))
    terms[hi] = cur
    for i in range(hi, lo, -1):
        extra = AddObject(tuple(rng.choice(pres.ids)
                                for _ in range(rng.randint(0, max_extra))))
        bigger = cur.concat(extra)
        u, uinv = rand_automorphism(pres, bigger, rng)
        incl[i] = u.compose(AddMorphism.inclusion(pres, cur, bigger, range(len(cur))))
        retr[i] = AddMorphism.projection(pres, bigger, cur, range(len(cur))).compose(uinv)
        terms[i - 1] = bigger
        cur = bigger
    return FilteredObject(pres, lo, hi, terms, incl, retr)


def rand_filtered_complex(pres, rng, width=2, depth=2):
    """Random short complex of filtered objects (d^2 = 0 by shortness)."""
    from .filtered import FilteredComplex, FilteredMorphism, filt_hom_space

    terms = {k: rand_filtered(pres, rng, depth=depth) for k in range(width)}
    diffs = {}
    for k in range(width - 1):
        sp = filt_hom_space(terms[k], terms[k + 1])
        if sp.dimension == 0:
            continue
        m = FilteredMorphism.zero(terms[k], terms[k + 1])
        for b in sp.basis:
            c = rng.randint(-2, 2)
            if c:
                m = m.add(b.scale(c))
        if not m.is_zero():
            diffs[k] = m
    return FilteredComplex(pres, terms, diffs)


def rng_for(seed, *tags) -> random.Random:
    """Deterministic child RNG; independent of hash randomization."""
    digest = hashlib.sha256(repr((seed, tags)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
