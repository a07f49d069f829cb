"""The two inverses of additive-closure morphisms that the engine had before
``orlov.invert``, the references for it.

:func:`invert_endomorphism` splits an endomorphism m = D + N into its
isotypic diagonal D, whose blocks are scalars, and its radical part N.  It
inverts D classwise as dense matrices and sums the terminating geometric
series D^-1 sum (-N D^-1)^k.  :func:`invert_iso` first permutes the source
into the order of the target and then calls it.  ``orlov.invert`` solves
m o g = 1 in the coordinates of the Hom space back instead.  An inverse is
unique, so both answer alike.  The functions are kept verbatim, but
``invert_iso`` and ``match_permutation`` lost the leading underscore of
their names, and the classwise inverse is :func:`dense_helpers.inverse`,
since ``Matrix`` no longer has ``inverse``.  :func:`scalar_grid`, which
builds D^-1 from those inverses, is the engine's helper of the same name,
moved here when ``orlov.split_idempotent`` stopped using it.
"""

from __future__ import annotations

from koszulkit.complexes import ComplexError
from koszulkit.orlov import (
    AddMorphism,
    AddObject,
    CompositionError,
    identity_label,
    isotypic_classes,
    scalar_matrix,
    unit_index,
)

from dense_helpers import inverse


def scalar_grid(pres, x: AddObject, mats) -> AddMorphism:
    """Endomorphism of x with ``mats[s]`` times the unit between the
    summands of each class s (see :func:`isotypic_classes`), zero elsewhere."""
    classes = isotypic_classes(x)
    grid = [[None] * len(x) for _ in x]
    for s, mat in mats.items():
        unit_index(pres, s)     # refuses an End(s) that is not the scalars
        unit = identity_label(s)
        for i, row in zip(classes[s], mat.data):
            for j, c in zip(classes[s], row):
                if c:
                    grid[i][j] = pres.coords(unit, c)
    return AddMorphism(pres, x, x, tuple(map(tuple, grid)))


def isotypic_part(m: AddMorphism) -> AddMorphism:
    """Keep only blocks between equal indecomposables (scalar blocks)."""
    blocks = tuple(
        tuple(b if m.source[j] == m.target[i] else None for j, b in enumerate(row))
        for i, row in enumerate(m.blocks)
    )
    return AddMorphism(m.pres, m.source, m.target, blocks)


def radical_part(m: AddMorphism) -> AddMorphism:
    return m.sub(isotypic_part(m))


def invert_endomorphism(m: AddMorphism):
    """Inverse of an endomorphism of an additive-closure object, or None.

    Splits m = D + N with D the isotypic diagonal and N in the radical;
    m is invertible iff every isotypic block of D is, and then the inverse
    is the terminating geometric series D^-1 sum (-N D^-1)^k.
    """
    if m.source != m.target:
        raise CompositionError("invert: not an endomorphism")
    pres, x = m.pres, m.source
    # invert the isotypic diagonal classwise (blocks are scalars on the unit)
    inverses = {}
    for s, pos in isotypic_classes(x).items():
        inverses[s] = inverse(scalar_matrix(m, s, pos))
        if inverses[s] is None:
            return None
    dinv = scalar_grid(pres, x, inverses)
    n = radical_part(m)
    # (D + N)^-1 = D^-1 (1 + N D^-1)^-1; N D^-1 is nilpotent
    z = n.compose(dinv).scale(-1)
    acc = AddMorphism.identity(pres, x)
    power = AddMorphism.identity(pres, x)
    for _ in range(len(x) + 1):
        power = power.compose(z)
        if power.is_zero():
            break
        acc = acc.add(power)
    else:
        if not power.is_zero():
            raise CompositionError("radical series failed to terminate")
    return dinv.compose(acc)


def invert_iso(m: AddMorphism) -> AddMorphism:
    """Inverse of an iso between same-length homogeneous objects by rows."""
    pres = m.pres
    if sorted(m.source.summands) != sorted(m.target.summands):
        raise ComplexError("cannot invert: summand multisets differ")
    # m = e o p where p permutes source into target order; pinv undoes p
    pinv = AddMorphism.projection(pres, m.target, m.source, match_permutation(m.source, m.target))
    endo = m.compose(pinv)
    endo_inv = invert_endomorphism(endo)
    if endo_inv is None:
        raise ComplexError("morphism is not invertible")
    out = pinv.compose(endo_inv)
    if m.compose(out) != AddMorphism.identity(pres, m.target) or \
            out.compose(m) != AddMorphism.identity(pres, m.source):
        raise ComplexError("inverse verification failed")
    return out


def match_permutation(src: AddObject, tgt: AddObject):
    """perm[j]: the position in tgt of source summand j."""
    used = [False] * len(tgt)
    perm = []
    for s in src:
        for i, t in enumerate(tgt):
            if not used[i] and s == t:
                used[i] = True
                perm.append(i)
                break
    return perm
