"""Shipped fixture catalog.

FIX_PT, FIX_A2 and FIX_A3 are valid presentations (one point; the two- and
three-object chains with one-dimensional connecting homs, the composite of
the two A3 arrows being the long arrow).  FIX_BAD plants a degree-axiom
violation on the pair (a, b); FIX_ZC keeps the A3 hom table but kills the
composite of the two short arrows, so its Yoneda algebra is not generated
in degree one.
"""

import os

from .orlov import OrlovPresentation

FIXTURE_NAMES = ("FIX_PT", "FIX_A2", "FIX_A3", "FIX_BAD", "FIX_ZC")
VALID_FIXTURES = ("FIX_PT", "FIX_A2", "FIX_A3")


def fixture_path(name: str):
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}")
    return os.path.join(os.path.dirname(__file__), "fixtures", f"{name}.json")


def fixture_text(name: str) -> str:
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()


def load_fixture(name: str) -> OrlovPresentation:
    import json

    return OrlovPresentation.from_data(json.loads(fixture_text(name)), name=name)
