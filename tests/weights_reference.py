"""The weight subobjects that ``tstructure`` listed before the steps of
``tstructure.filtration`` by weight took their place, the reference for
those steps: W_{<= k}, the normal form on the weights <= k, with its
inclusion.  The function is kept verbatim."""

from __future__ import annotations

from koszulkit.complexes import ChainMap, Complex
from koszulkit.orlov import AddMorphism
from koszulkit.tstructure import HeartObject


def weight_subobjects(m: HeartObject) -> dict:
    """The filtration itself: k -> (subcomplex with weights <= k, inclusion)."""
    nf = m.normal_form
    out = {}
    for k in m.weights():
        terms = {i: t for i, t in nf.terms.items() if -i <= k}
        diffs = {i: d for i, d in nf.diffs.items() if i in terms and i + 1 in terms}
        sub = Complex(nf.pres, terms, diffs, check=False)
        inc = ChainMap(sub, nf, {i: AddMorphism.identity(nf.pres, t)
                                 for i, t in sub.terms.items()}, check=False)
        out[k] = (sub, inc)
    return out
