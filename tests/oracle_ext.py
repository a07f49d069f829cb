"""The Ext algebra of the heart simples built in K^b.

The reference for ``koszul.ExtTable``, which reads the same table off the
presentation: here every cell is a ``hom_space`` between the simples'
normal forms, and a Yoneda product composes chain-map representatives and
expresses the composite in the target space.
"""

from koszulkit.complexes import hom_space
from koszulkit.tstructure import heart_simples


def kb_ext_spaces(pres, window):
    """(s, t, i) -> Hom_{K^b}(S_s, S_t[i]) for every lo <= i <= hi."""
    simples = {s: h.normal_form for s, h in zip(pres.ids, heart_simples(pres))}
    return {(s, t, i): hom_space(simples[s], simples[t], i)
            for s in pres.ids for t in pres.ids for i in range(window[0], window[1] + 1)}


def kb_yoneda(spaces, s, t, u, i, j):
    """Coordinate tensor of Ext^j(t,u) x Ext^i(s,t) -> Ext^{i+j}(s,u) over the
    bases of ``spaces``, which must hold all three cells."""
    target = spaces[(s, u, i + j)]
    out = [[target.express(y.shift(i).compose(x)) for x in spaces[(s, t, i)].basis]
           for y in spaces[(t, u, j)].basis]
    if any(coords is None for row in out for coords in row):
        raise AssertionError(f"a Yoneda product of ({s}, {t}, {u}, {i}, {j}) left its Hom space")
    return out
