"""The per-n route to t-cohomology, the reference for
``tstructure.t_cohomology``.

Each H^n is read off its own truncations: tau_{<= n} and tau_{>= n} are
the basic truncation conjugated with the shift, and every one of them,
the window and the final heart normal form run their own minimal model,
4 (hi - lo + 1) + 1 of them to read every H^n of x.
``tstructure.t_cohomology`` reads all of them off one minimal model.  The
functions are kept verbatim, but for the name of ``t_cohomology``.
"""

from __future__ import annotations

from koszulkit.complexes import Complex, minimal_model
from koszulkit.tstructure import HeartObject, heart_object, truncate


def truncate_le(x: Complex, n: int) -> Complex:
    """tau_{<= n}: conjugate the basic truncation with the shift."""
    return truncate(x.shift(n)).lower.shift(-n)


def truncate_ge(x: Complex, n: int) -> Complex:
    """tau_{>= n}."""
    return truncate(x.shift(n - 1)).upper.shift(-(n - 1))


def truncation_window(x: Complex):
    """Exact bounds (lo, hi): t-cohomology can only live in degrees [lo, hi].

    Equivalently tau_{<= n} x = x for n >= hi and tau_{>= n} x = x for
    n <= lo; both read off the minimal support as extremes of i + j.
    """
    m_min, _ = minimal_model(x)
    supp = m_min.support()
    if not supp:
        return (0, 0)
    return (min(i + j for i, j in supp), max(i + j for i, j in supp))


def t_cohomology_at(x: Complex, n: int) -> HeartObject:
    """H^n = (tau_{>= n} tau_{<= n} x)[n], in heart normal form."""
    lo, hi = truncation_window(x)
    if x.is_zero or n < lo or n > hi:
        return HeartObject(Complex.zero(x.pres))
    y = truncate_le(x, n)
    z = truncate_ge(y, n)
    return heart_object(z.shift(n))
