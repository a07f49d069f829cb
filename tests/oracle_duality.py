"""Koszul duality built in K^b, the reference for ``koszul``'s read-offs.

``orl_of_kos`` builds the pure weight-0 objects S_s[-deg s] of the heart's
derived category and reads a presentation off their Hom spaces in K^b;
``roundtrip_mismatches`` compares it with the original, the comparison that
``koszul.roundtrip_check`` answers from the presentation alone.
``double_dual_iso`` checks that dualizing twice gives the presentation
back, structure constants included.
"""

from koszulkit.koszul import _presentation_from_heart_objects
from koszulkit.linalg import Matrix
from koszulkit.tstructure import simple_object


def orl_of_kos(pres):
    """Each simple re-shifted by minus its weight, with its Hom spaces and
    composition computed in K^b."""
    objects = {}
    for iid in pres.ids:
        shifted = simple_object(pres, iid).normal_form.shift(-pres.degree[iid])
        objects[iid] = (shifted, pres.degree[iid], iid)
    return _presentation_from_heart_objects(pres, objects, name=f"Orl(Kos({pres.name}))")


def roundtrip_mismatches(pres, dual):
    """Where ``dual`` (an ``orl_of_kos`` result) differs from ``pres``.

    Dimension tables must agree on the nose; structure constants must agree
    through the change of basis sending each reconstructed basis class to
    its chain-map representative's degree-0 block.
    """
    d = dual.presentation
    mismatches = []
    for iid in pres.ids:
        if d.degree[iid] != pres.degree[iid]:
            mismatches.append({"kind": "degree", "object": iid})
    for s in pres.ids:
        for t in pres.ids:
            if pres.hom_dim(s, t) != d.hom_dim(s, t):
                mismatches.append({"kind": "dimension", "pair": [s, t],
                                   "original": pres.hom_dim(s, t),
                                   "reconstructed": d.hom_dim(s, t)})
    if mismatches:
        return mismatches

    # change of basis: the degree-0 block coordinates of each representative
    cob = {}
    for s in pres.ids:
        for t in pres.ids:
            cols = []
            for rep in dual.reps[(s, t)]:
                comp = rep.component(0)
                block = comp.blocks[0][0] if comp.blocks else None
                cols.append(tuple(block) if block is not None
                            else (pres.field.zero,) * pres.hom_dim(s, t))
            cob[(s, t)] = cols

    fld = pres.field
    for (g, f), result in sorted(d.comp.items()):
        if g.startswith("1@") or f.startswith("1@"):
            continue
        fs, ft = d.label_pair[f]
        gs, gt = d.label_pair[g]
        fvec = cob[(fs, ft)][d.label_index[f]]
        gvec = cob[(gs, gt)][d.label_index[g]]
        via_p = pres.compose_coords(fs, ft, gt, gvec, fvec)
        if via_p is None:
            via_p = (fld.zero,) * pres.hom_dim(fs, gt)
        out_labels = d.hom_labels(fs, gt)
        got = [fld.zero] * pres.hom_dim(fs, gt)
        for lab, c in result.items():
            base = cob[(fs, gt)][out_labels.index(lab)]
            got = [fld.add(a, fld.mul(c, b)) for a, b in zip(got, base)]
        if tuple(got) != tuple(via_p):
            mismatches.append({"kind": "structure_constant", "left": g, "right": f})
    return mismatches


def arrow_functionals(dual, jb, jm):
    """Hom_Y(J_b, J_m) -> Hom_X(m, b)^*, for Y = ``dual`` of X and
    deg J_b = deg J_m + 1: one row per basis class f, in the coordinates of
    the labels of Hom_X(m, b).

    J_b holds one copy m_k of m in degree -deg m for each class r_k of its
    universal extension, with d(m_k) = r_k in Hom_X(m, b), and J_m is m
    alone there.  f sends m_k to c_k times the identity of m; the
    functional is r_k -> c_k.  No homotopy changes c_k, since Hom_X(b, m)
    and every map into degree -deg m - 1 of J_m vanish by degree.
    """
    cx = dual.objects[jb]
    x = cx.pres
    b, m = dual.provenance[jb], dual.provenance[jm]
    k = -x.degree[m]
    copies = [i for i, s in enumerate(cx.term(k).summands) if s == m]
    n = x.hom_dim(m, b)
    if len(copies) != n or cx.d(k).target.summands != (b,):
        raise AssertionError(f"{jb} is not an injective hull over {b} at degree {k}")
    zero = (x.field.zero,) * n
    classes = Matrix(x.field, n, n, [list(cx.d(k).blocks[0][i] or zero) for i in copies])
    rows = []
    for f in dual.reps[(jb, jm)]:
        block = f.component(k).blocks[0]
        row = classes.solve([(block[i] or (x.field.zero,))[0] for i in copies])
        if row is None:
            raise AssertionError(f"the extension classes of {jb} span no basis of Hom({m}, {b})")
        rows.append(row)
    return rows


def _combine(fld, n, coeffs, images):
    out = [fld.zero] * n
    for c, image in zip(coeffs, images):
        if c:
            out = [fld.add(a, fld.mul(c, v)) for a, v in zip(out, image)]
    return tuple(out)


def double_dual_iso(pres, dual, ddual):
    """An isomorphism psi from ``ddual`` = dual(``dual``) to ``pres``, with
    ``dual`` = dual(``pres``); raises AssertionError if there is none.

    On an arrow space (degrees one apart) psi is the canonical V^** = V:
    a class g of the double dual is the functional ``arrow_functionals``
    gives on the dual's arrows, which are in turn functionals on ``pres``'s
    arrows.  Longer Hom spaces are spanned by composites with an arrow
    (degree-one generation), and psi takes each composite to the composite
    of the images.  psi must be well defined and invertible on every Hom
    space, fix the degrees up to one shift, and carry every structure
    constant of ``ddual`` to the one of ``pres``.  Returns
    ``{(a, c): [psi(label) for each label of Hom(a, c)]}`` over the double
    dual's ids, as coordinate tuples in ``pres``.
    """
    q, fld = ddual.presentation, pres.field
    outer = dict(ddual.provenance)                          # J_{J_s} -> J_s
    prov = {a: dual.provenance[j] for a, j in outer.items()}  # J_{J_s} -> s
    if sorted(prov.values()) != sorted(pres.ids):
        raise AssertionError("the double dual's provenance is not a bijection")
    shifts = {q.degree[a] - pres.degree[prov[a]] for a in q.ids}
    if len(shifts) != 1:
        raise AssertionError(f"degrees differ by more than one shift: {shifts}")

    def zero(n):
        return (fld.zero,) * n

    psi = {}
    for a, c in sorted(((a, c) for a in q.ids for c in q.ids),
                       key=lambda ac: q.degree[ac[0]] - q.degree[ac[1]]):
        n, gap = q.hom_dim(a, c), q.degree[a] - q.degree[c]
        if n != pres.hom_dim(prov[a], prov[c]):
            raise AssertionError(f"dim Hom({a}, {c}) differs")
        if not n:
            psi[(a, c)] = []
        elif a == c:
            psi[(a, c)] = [pres.unit[prov[a]]]
        elif gap == 1:
            inner = Matrix(fld, n, n, [list(r) for r in arrow_functionals(dual, outer[c], outer[a])])
            if inner.rank() != n:
                raise AssertionError(f"the dual's arrows pair degenerately with Hom({a}, {c})")
            psi[(a, c)] = [tuple(inner.solve(list(g))) for g in arrow_functionals(ddual, a, c)]
        else:
            ins, outs = [], []
            for b in q.ids:
                if q.degree[b] != q.degree[a] - 1:
                    continue
                for gi, gl in enumerate(q.hom_labels(b, c)):
                    for fi, fl in enumerate(q.hom_labels(a, b)):
                        ins.append(list(q.compose_coords(a, b, c, q.unit_coords[gl],
                                                         q.unit_coords[fl]) or zero(n)))
                        outs.append(pres.compose_coords(prov[a], prov[b], prov[c],
                                                        psi[(b, c)][gi], psi[(a, b)][fi]) or zero(n))
            spanned = Matrix(fld, len(ins), n, ins)
            if spanned.rank() != n:
                raise AssertionError(f"Hom({a}, {c}) is not generated in degree one")
            rows = [spanned.solve([o[r] for o in outs]) for r in range(n)]
            if any(row is None for row in rows):
                raise AssertionError(f"composites into Hom({a}, {c}) have no linear image")
            psi[(a, c)] = [tuple(row[j] for row in rows) for j in range(n)]
        if n and Matrix(fld, n, n, [list(v) for v in psi[(a, c)]]).rank() != n:
            raise AssertionError(f"psi is singular on Hom({a}, {c})")

    for a in q.ids:
        for b in q.ids:
            for c in q.ids:
                n = q.hom_dim(a, c)
                for gi, gl in enumerate(q.hom_labels(b, c)):
                    for fi, fl in enumerate(q.hom_labels(a, b)):
                        got = q.compose_coords(a, b, c, q.unit_coords[gl], q.unit_coords[fl])
                        image = _combine(fld, n, got or zero(n), psi[(a, c)])
                        want = pres.compose_coords(prov[a], prov[b], prov[c],
                                                   psi[(b, c)][gi], psi[(a, b)][fi])
                        if image != tuple(want or zero(n)):
                            raise AssertionError(f"psi({gl} o {fl}) != psi({gl}) o psi({fl})")
    return psi
