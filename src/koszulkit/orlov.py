"""Finite presentations of graded additive categories and their additive closure.

A presentation lists finitely many indecomposables with integer degrees,
explicit bases of every Hom space, and composition structure constants.
Objects of the additive closure are ordered lists of indecomposables;
morphisms are block grids of coordinate vectors.  The degree axioms checked
by :func:`validate_presentation` force every nonzero morphism between
non-isomorphic indecomposables to lower the degree strictly, so the
radical is nilpotent.  One solve over the coordinates of the Hom space
back finds a one-sided unit (:func:`unit_solve`).  It inverts an isomorphism
(:func:`invert`) and splits an idempotent by a left inverse of its image's
inclusion (:func:`split_idempotent`); both refuse a summand whose End is
not the scalars.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, count
from math import gcd, lcm
from reprlib import repr as brief

from .linalg import Field, KoszulkitError, LinalgError, Matrix, RowMatrix


class PresentationError(KoszulkitError):
    pass


class InputError(PresentationError):
    """A JSON input, or a file or option that names one, is refused."""


MalformedPresentation = InputError


class CompositionError(PresentationError):
    pass


def identity_label(indec_id: str) -> str:
    return f"1@{indec_id}"


# ----------------------------------------------------------- JSON reader

_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _read(value, kind, what):
    """``value`` checked against ``kind`` (see :func:`fields`) and decoded."""
    if type(kind) is Field:
        try:
            if type(value) is int or type(value) is str:
                return kind.parse(str(value))
        except (ValueError, LinalgError) as exc:
            raise InputError(f"{what} is not a scalar: {brief(value)} ({exc})") from exc
        raise InputError(f"{what} is not a scalar (a string or an integer): {brief(value)}")
    shape = type(kind) if type(kind) in (list, dict) else kind
    if type(value) is not shape:
        raise InputError(f"{what} is not {_KINDS[shape]}: {brief(value)}")
    if shape is kind:
        return value
    if shape is list:
        item = kind[0]
        return [v if type(v) is item else _read(v, item, f"{what} item") for v in value]
    (key_kind, value_kind), = kind.items()
    out = {}
    for key, v in value.items():
        if key_kind is int:
            try:
                key = int(key)
            except ValueError:
                raise InputError(f"{what} key {key!r} is not an integer") from None
            if key in out:
                raise InputError(f"{what} has two keys for {key}")
        out[key] = _read(v, value_kind, f"{what} at {key!r}")
    return out


def fields(entry, what, /, **spec):
    """The values of the keys of the JSON object ``entry``, in ``spec`` order.

    Each keyword names a key and its kind: ``int`` (not a boolean), ``str``,
    ``list`` or ``dict``; ``[kind]``, a list of that kind; ``{int: kind}`` or
    ``{str: kind}``, an object with integer or any keys; or a ``Field``, a
    scalar string or integer that it parses.  ``(kind, default)`` makes the
    key optional.  Anything else raises :class:`InputError` naming ``what``.
    """
    if type(entry) is not dict:
        raise InputError(f"{what} is not an object: {brief(entry)}")
    out = []
    for key, kind in spec.items():
        if type(kind) is tuple:
            kind, default = kind
            if key not in entry:
                out.append(default)
                continue
        elif key not in entry:
            raise InputError(f"{what} is missing {key!r}: {brief(entry)}")
        value = entry[key]
        out.append(value if type(value) is kind else _read(value, kind, f"{what} {key!r}"))
    return out


def decode_object(pres, ids) -> "AddObject":
    """The additive-closure object with summands ``ids``, which ``pres`` must know."""
    for iid in ids:
        if iid not in pres.degree:
            raise InputError(f"unknown indecomposable {iid!r}")
    return AddObject(tuple(ids))


class OrlovPresentation:
    """Resolved presentation; immutable after construction.

    ``hom`` maps (src, tgt) pairs to ordered basis label tuples, ``comp``
    maps (later label, earlier label) to {result label: coefficient}.
    Unit compositions are filled in automatically; missing entries mean 0.
    Composition reads ``comp`` through one kernel per (src, mid, tgt),
    compiled on first use and kept in ``_tables``: the dimension of
    Hom(src, tgt), the table of nonzero structure constants (:meth:`table`),
    and the one constant when all three spaces are one-dimensional, which
    :meth:`compose_coords` multiplies directly.  Validation reads ``comp``
    itself.
    """

    def __init__(self, characteristic, indecomposables, hom, compose, name="anonymous"):
        self.name = name
        self.field = Field(characteristic)
        self.characteristic = characteristic

        self.ids = []
        self.degree = {}
        for entry in indecomposables:
            iid, deg = fields(entry, "indecomposable", id=str, degree=int)
            if iid in self.degree:
                raise InputError(f"duplicate indecomposable id {iid!r}")
            self.ids.append(iid)
            self.degree[iid] = deg
        self.ids = tuple(self.ids)

        self.pairs = {}
        self.label_pair = {}
        for entry in hom:
            src, tgt, basis = fields(entry, "hom entry", src=str, tgt=str, basis=[str])
            if src not in self.degree or tgt not in self.degree:
                raise InputError(f"hom space references unknown object ({src},{tgt})")
            if (src, tgt) in self.pairs:
                raise InputError(f"duplicate hom entry for ({src},{tgt})")
            self.pairs[(src, tgt)] = tuple(basis)
            for lab in basis:
                if lab in self.label_pair:
                    raise InputError(f"duplicate basis label {lab!r}")
                self.label_pair[lab] = (src, tgt)
        # every End space carries the implicit identity basis label
        for iid in self.ids:
            unit = identity_label(iid)
            if (iid, iid) not in self.pairs:
                if unit in self.label_pair:
                    raise InputError(f"identity label {unit!r} is used outside End({iid})")
                self.pairs[(iid, iid)] = (unit,)
                self.label_pair[unit] = (iid, iid)
            elif unit not in self.pairs[(iid, iid)]:
                raise InputError(f"End({iid}) is missing its identity label {unit!r}")
        self.label_index = {
            lab: i for basis in self.pairs.values() for i, lab in enumerate(basis)
        }
        # the coordinate tuple of each label in the basis of its Hom space
        self.unit_coords = {
            lab: tuple(self.field.one if b == lab else self.field.zero for b in basis)
            for basis in self.pairs.values() for lab in basis
        }
        # the coordinates of the identity of each indecomposable
        self.unit = {iid: self.unit_coords[identity_label(iid)] for iid in self.ids}

        self.comp = {}
        for entry in compose:
            g, f, terms = fields(entry, "compose entry", left=str, right=str, result=list)
            if g not in self.label_pair or f not in self.label_pair:
                raise InputError(f"compose entry uses unknown label ({g},{f})")
            (fs, ft), (gs, gt) = self.label_pair[f], self.label_pair[g]
            if ft != gs:
                raise InputError(f"compose entry ({g},{f}) is not composable")
            result = {}
            for term in terms:
                lab, coeff = fields(term, "compose result", label=str, coeff=self.field)
                if lab not in self.label_pair:
                    raise InputError(f"compose result uses unknown label {lab!r}")
                if self.label_pair[lab] != (fs, gt):
                    raise InputError(f"compose result {lab!r} lands in the wrong hom space")
                result[lab] = coeff
            key = (g, f)
            if key in self.comp:
                raise InputError(f"duplicate compose entry {key}")
            self.comp[key] = result
        for lab, (src, tgt) in self.label_pair.items():
            for key in ((identity_label(tgt), lab), (lab, identity_label(src))):
                if key in self.comp and self.comp[key] != {lab: self.field.one}:
                    raise InputError(f"compose entry {key} contradicts the unit law")
                self.comp[key] = {lab: self.field.one}
        self.comp_den = lcm(*(c.denominator for res in self.comp.values() for c in res.values()))
        self._tables = {}
        self._int_tables = {}

    # -------------------------------------------------------------- lookups

    def hom_labels(self, src: str, tgt: str):
        return self.pairs.get((src, tgt), ())

    def hom_dim(self, src: str, tgt: str) -> int:
        return len(self.hom_labels(src, tgt))

    def coords(self, label: str, c=None) -> tuple:
        """Coordinates of c times ``label`` in its Hom basis; c = None means 1."""
        unit = self.unit_coords[label]
        if c is None:
            return unit
        return tuple(c if u else self.field.zero for u in unit)

    def compose_labels(self, g: str, f: str) -> dict:
        return self.comp.get((g, f), {})

    def _kernel(self, src, mid, tgt) -> tuple:
        """Compile the kernel of Hom(mid, tgt) x Hom(src, mid) -> Hom(src, tgt)
        from ``comp``, cache it in ``_tables`` and return it: ``(dim
        Hom(src, tgt), table, scalar)``.

        ``table`` lists the nonzero structure constants as ``(g index,
        f index, ((result index, c), ...))`` over basis positions.
        ``scalar`` is the constant c of the one entry when all three spaces
        are one-dimensional and the table is not empty, and None otherwise.
        """
        glabels, flabels = self.hom_labels(mid, tgt), self.hom_labels(src, mid)
        tab = tuple(
            (gi, fi, res)
            for gi, gl in enumerate(glabels)
            for fi, fl in enumerate(flabels)
            for res in [tuple((self.label_index[rl], c)
                              for rl, c in self.compose_labels(gl, fl).items() if c)]
            if res)
        dim = self.hom_dim(src, tgt)
        one = dim == len(glabels) == len(flabels) == len(tab) == 1
        kern = self._tables[(src, mid, tgt)] = (dim, tab, tab[0][2][0][1] if one else None)
        return kern

    def table(self, src, mid, tgt) -> tuple:
        """The nonzero structure constants of Hom(mid, tgt) x Hom(src, mid) ->
        Hom(src, tgt), as ``(g index, f index, ((result index, c), ...))``
        over basis positions; compiled from ``comp`` on first use."""
        return (self._tables.get((src, mid, tgt)) or self._kernel(src, mid, tgt))[1]

    def int_table(self, src, mid, tgt) -> tuple:
        """:meth:`table` with each constant c as the int c * ``comp_den``, the lcm
        of their denominators (1 over F_p); cleared once per triple if not 1."""
        tab = (self._tables.get((src, mid, tgt)) or self._kernel(src, mid, tgt))[1]
        if self.comp_den == 1:
            return tab
        cleared = self._int_tables.get((src, mid, tgt))
        if cleared is None:
            cleared = self._int_tables[(src, mid, tgt)] = tuple((gi, fi, tuple(
                (ri, self.comp_den // c.denominator * c.numerator) for ri, c in res)) for gi, fi, res in tab)
        return cleared

    def compose_coords(self, src, mid, tgt, gcoords, fcoords):
        """Coordinates of (g o f) given coordinates in the two hom bases, or
        None when g o f is 0.

        Runs the compiled kernel of the triple (:meth:`_kernel`).  When the
        three spaces are one-dimensional with structure constant c, g o f is
        g0 f0 c times the one basis vector: the general loop would add that
        single product to a zero and reduce it, so reducing it directly gives
        the same residue over F_p and the same int or ``Fraction`` over Q.
        Otherwise the loop sums every nonzero g_i f_j c over the table.
        """
        dim, tab, c = self._tables.get((src, mid, tgt)) or self._kernel(src, mid, tgt)
        p = self.characteristic
        if c is not None:
            v = gcoords[0] * fcoords[0] * c
            if p:
                v %= p
            return (v,) if v else None
        out = None
        for gi, fi, res in tab:
            gc = gcoords[gi]
            if gc:
                fc = fcoords[fi]
                if fc:
                    if out is None:
                        out = [self.field.zero] * dim
                    gf = gc * fc
                    for ri, rc in res:
                        out[ri] += gf * rc
        if out is None:
            return None
        vec = tuple(v % p for v in out) if p else tuple(out)
        return vec if any(vec) else None

    def to_data(self) -> dict:
        hom = [
            {"src": s, "tgt": t, "basis": list(basis)}
            for (s, t), basis in sorted(self.pairs.items())
        ]
        compose = []
        for (g, f), result in sorted(self.comp.items()):
            if g.startswith("1@") or f.startswith("1@"):
                continue
            compose.append({
                "left": g,
                "right": f,
                "result": [
                    {"label": lab, "coeff": self.field.format(c)}
                    for lab, c in sorted(result.items()) if c
                ],
            })
        return {
            "characteristic": self.characteristic,
            "indecomposables": [{"id": i, "degree": self.degree[i]} for i in self.ids],
            "hom": hom,
            "compose": compose,
        }

    @classmethod
    def from_data(cls, data: dict, name="anonymous") -> "OrlovPresentation":
        return cls(*fields(data, "presentation", characteristic=int, indecomposables=list,
                           hom=list, compose=(list, [])), name=name)


# ------------------------------------------------------------------ objects


class AddObject:
    """Formal direct sum: an ordered tuple of indecomposable ids.  Immutable,
    hashable, and equal to another ``AddObject`` with the same summands."""

    __slots__ = ("summands",)

    def __init__(self, summands: tuple):
        object.__setattr__(self, "summands", summands)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.summands == other.summands

    def __hash__(self):
        return hash((self.summands,))

    def __repr__(self):
        return f"AddObject(summands={self.summands!r})"

    def __reduce__(self):
        return AddObject, (self.summands,)

    def __len__(self):
        return len(self.summands)

    def __iter__(self):
        return iter(self.summands)

    def __getitem__(self, i):
        return self.summands[i]

    @property
    def is_zero(self):
        return not self.summands

    def degrees(self, pres: OrlovPresentation):
        return tuple(pres.degree[s] for s in self.summands)

    def concat(self, other: "AddObject") -> "AddObject":
        return AddObject(self.summands + other.summands)

    def select(self, positions) -> "AddObject":
        return AddObject(tuple(self.summands[p] for p in positions))


ZERO_OBJECT = AddObject(())


def obj(*ids) -> AddObject:
    return AddObject(tuple(ids))


def spans(*parts):
    """Position ranges of the parts of the concatenation of ``parts``."""
    out, pos = [], 0
    for part in parts:
        n = len(part.summands)
        out.append(range(pos, pos + n))
        pos += n
    return out


class AddMorphism:
    """Block morphism between additive-closure objects.

    ``blocks[i][j]`` holds the coordinates of the (target summand i,
    source summand j) component in the presentation basis of
    Hom(source[j], target[i]); None encodes the zero block.
    """

    __slots__ = ("pres", "source", "target", "blocks")

    def __init__(self, pres, source: AddObject, target: AddObject, blocks):
        self.pres = pres
        self.source = source
        self.target = target
        self.blocks = blocks

    # -------------------------------------------------------- constructors

    @staticmethod
    def zero(pres, source: AddObject, target: AddObject) -> "AddMorphism":
        row = (None,) * len(source.summands)
        return AddMorphism(pres, source, target, (row,) * len(target.summands))

    @staticmethod
    def identity(pres, x: AddObject) -> "AddMorphism":
        return _Identity(pres, x, x, range(len(x.summands)))

    @staticmethod
    def single(pres, source: AddObject, target: AddObject, i, j, coords) -> "AddMorphism":
        """Morphism with a single nonzero block at (target i, source j)."""
        coords = tuple(coords)
        blocks = tuple(
            tuple(coords if (r == i and c == j and any(coords)) else None
                  for c in range(len(source)))
            for r in range(len(target))
        )
        return AddMorphism(pres, source, target, blocks)

    @staticmethod
    def from_blocks(pres, source, target, blocks) -> "AddMorphism":
        norm = []
        for i in range(len(target)):
            row = []
            for j in range(len(source)):
                b = blocks[i][j]
                if b is not None:
                    b = tuple(b)
                    dim = pres.hom_dim(source[j], target[i])
                    if len(b) != dim:
                        raise InputError(
                            f"block ({i},{j}) has {len(b)} coords, expected {dim}")
                    if not any(b):
                        b = None
                row.append(b)
            norm.append(tuple(row))
        return AddMorphism(pres, source, target, tuple(norm))

    # ---------------------------------------------------------- block grids

    @staticmethod
    def assemble(pres, source: AddObject, target: AddObject, pieces) -> "AddMorphism":
        """Block grid source -> target from ``(rows, cols, m)`` pieces.

        Block (a, b) of each ``m`` lands at (rows[a], cols[b]); every block
        that no piece covers is zero.  :meth:`restrict_blocks` inverts it.
        """
        n = len(source.summands)
        grid = [[None] * n for _ in target.summands]
        for rows, cols, m in pieces:
            for r, mrow in zip(rows, m.blocks):
                line = grid[r]
                for c, b in zip(cols, mrow):
                    if b is not None:
                        line[c] = b
        return AddMorphism(pres, source, target, tuple(map(tuple, grid)))

    @staticmethod
    def inclusion(pres, sub: AddObject, whole: AddObject, positions) -> "AddMorphism":
        """Unit map sending summand j of ``sub`` to summand positions[j] of ``whole``."""
        return _unit_map(pres, sub, whole, positions)

    @staticmethod
    def projection(pres, whole: AddObject, quot: AddObject, positions) -> "AddMorphism":
        """Unit map reading summand i of ``quot`` off summand positions[i] of ``whole``."""
        dest = [None] * len(whole.summands)
        for i, c in enumerate(positions):
            dest[c] = i
        return _unit_map(pres, whole, quot, dest)

    def restrict_blocks(self, rows, cols) -> "AddMorphism":
        """The sub-grid on the listed target rows and source columns."""
        return AddMorphism(self.pres, self.source.select(cols), self.target.select(rows),
                           tuple(tuple(self.blocks[r][c] for c in cols) for r in rows))

    # ----------------------------------------------------------- JSON codec

    @staticmethod
    def from_entries(pres, source: AddObject, target: AddObject, entries) -> "AddMorphism":
        """Decode block entries ``{"row", "col", "label", "coeff"}``.

        ``row`` and ``col`` default to 0; entries for the same coordinate add up.
        """
        fld = pres.field
        acc = {}
        for entry in entries:
            r, c, lab, coeff = fields(entry, "block entry", row=(int, 0), col=(int, 0),
                                      label=str, coeff=fld)
            if not (0 <= r < len(target) and 0 <= c < len(source)):
                raise InputError(f"block position ({r},{c}) out of range")
            labels = pres.hom_labels(source[c], target[r])
            if lab not in labels:
                raise InputError(f"label {lab!r} not in Hom({source[c]},{target[r]})")
            vec = acc.setdefault((r, c), [fld.zero] * len(labels))
            idx = labels.index(lab)
            vec[idx] = fld.add(vec[idx], coeff)
        blocks = [[None] * len(source) for _ in target]
        for (r, c), vec in acc.items():
            blocks[r][c] = vec
        return AddMorphism.from_blocks(pres, source, target, blocks)

    def to_entries(self) -> list:
        """Encode the nonzero coordinates as block entries, in grid order."""
        pres = self.pres
        out = []
        for r, row in enumerate(self.blocks):
            for c, blk in enumerate(row):
                if blk is not None:
                    labels = pres.hom_labels(self.source[c], self.target[r])
                    out.extend({"row": r, "col": c, "label": lab, "coeff": pres.field.format(x)}
                               for x, lab in zip(blk, labels) if x)
        return out

    # ------------------------------------------------------------- algebra

    def is_zero(self) -> bool:
        n = len(self.source.summands)
        for row in self.blocks:
            if row.count(None) != n:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, AddMorphism):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.blocks == other.blocks)

    def is_identity(self) -> bool:
        """Whether this is the identity of its source: the unit of each
        summand on the diagonal and zero blocks elsewhere."""
        if isinstance(self, _Identity):
            return True
        if self.source != self.target:
            return False
        unit = self.pres.unit
        for i, (s, row) in enumerate(zip(self.source.summands, self.blocks)):
            if row[i] != unit[s] or row.count(None) != len(row) - 1:
                return False
        return True

    def __repr__(self):
        return f"AddMorphism({'+'.join(self.source) or '0'} -> {'+'.join(self.target) or '0'})"

    def add(self, other: "AddMorphism") -> "AddMorphism":
        if self.source != other.source or self.target != other.target:
            raise CompositionError("add: object mismatch")
        p = self.pres.characteristic
        blocks = []
        for ra, rb in zip(self.blocks, other.blocks):
            row = []
            for a, b in zip(ra, rb):
                if a is None:
                    row.append(b)
                elif b is None:
                    row.append(a)
                else:
                    s = tuple([(x + y) % p for x, y in zip(a, b)] if p else
                              [x + y for x, y in zip(a, b)])
                    row.append(s if any(s) else None)
            blocks.append(tuple(row))
        return AddMorphism(self.pres, self.source, self.target, tuple(blocks))

    def scale(self, c) -> "AddMorphism":
        fld = self.pres.field
        c = fld.of(c)
        if not c:
            return AddMorphism.zero(self.pres, self.source, self.target)
        if c == fld.one:
            return self
        p = fld.char
        blocks = tuple([
            tuple([None if b is None else tuple([c * x % p for x in b] if p else [c * x for x in b])
                   for b in row])
            for row in self.blocks])
        return AddMorphism(self.pres, self.source, self.target, blocks)

    def sub(self, other: "AddMorphism") -> "AddMorphism":
        return self.add(other.scale(-1))

    def compose(self, other: "AddMorphism") -> "AddMorphism":
        """self o other (apply ``other`` first).

        A unit map factor (:meth:`identity`, :meth:`inclusion`,
        :meth:`projection`) is composed by the unit law, reading no
        structure constant: an identity gives back the other factor, an
        inclusion or a projection selects or places blocks of the other
        factor, and two unit maps compose to a unit map.
        Between general maps, calls :meth:`OrlovPresentation.compose_coords`
        once per pair of nonzero blocks, and reduces a block only where two
        terms were summed.
        """
        if other.target != self.source:
            raise CompositionError("compose: object mismatch")
        if isinstance(other, _Unit):
            if type(other) is _Identity:
                return self
            dest = other.dest
            if isinstance(self, _Unit):
                return _unit_map(self.pres, other.source, self.target,
                                 [None if k is None else self.dest[k] for k in dest])
            # column j of self o other is column dest[j] of self
            blocks = tuple([tuple([None if k is None else grow[k] for k in dest])
                            for grow in self.blocks])
            return AddMorphism(self.pres, other.source, self.target, blocks)
        if isinstance(self, _Unit):
            if type(self) is _Identity:
                return other
            # row i of self o other is row orig[i] of other
            zero_row = (None,) * len(other.source.summands)
            blocks = tuple([zero_row if k is None else other.blocks[k] for k in self.orig])
            return AddMorphism(self.pres, other.source, self.target, blocks)
        pres = self.pres
        p = pres.characteristic
        kernel = pres.compose_coords    # looked up on the class, once per call
        src, mid = other.source.summands, self.source.summands
        # the nonzero blocks of each row of ``other``, with their columns
        frows = [[(j, src[j], f) for j, f in enumerate(row) if f is not None]
                 for row in other.blocks]
        zero_row = (None,) * len(src)
        blocks = []
        for ti, grow in zip(self.target.summands, self.blocks):
            row, summed = None, False
            for k, g in enumerate(grow):
                if g is None or not frows[k]:
                    continue
                mk = mid[k]
                for j, sj, f in frows[k]:
                    term = kernel(sj, mk, ti, g, f)
                    if term is not None:
                        if row is None:
                            row = [None] * len(src)
                        acc = row[j]
                        if acc is None:
                            row[j] = term
                        else:
                            row[j] = [x + y for x, y in zip(acc, term)]
                            summed = True
            if row is None:
                blocks.append(zero_row)
                continue
            if summed:
                for j, acc in enumerate(row):
                    if type(acc) is list:       # a sum of several terms: reduce it
                        acc = tuple(x % p for x in acc) if p else tuple(acc)
                        row[j] = acc if any(acc) else None
            blocks.append(tuple(row))
        return AddMorphism(pres, other.source, self.target, tuple(blocks))


class _Unit(AddMorphism):
    """A unit map: block (dest[j], j) is the identity of source summand j
    wherever dest[j] is not None, and every other block is zero; orig[i] is
    the column of the one nonzero block of row i, or None.
    :meth:`AddMorphism.compose` re-indexes the other factor along them."""

    __slots__ = ("dest", "orig")

    def __init__(self, pres, source: AddObject, target: AddObject, dest):
        n = len(source.summands)
        unit = pres.unit
        self.dest = tuple(dest)
        orig = [None] * len(target.summands)
        grid = [(None,) * n] * len(orig)
        for j, (r, s) in enumerate(zip(self.dest, source.summands)):
            if r is not None:
                orig[r] = j
                line = [None] * n
                line[j] = unit[s]
                grid[r] = tuple(line)
        self.orig = tuple(orig)
        AddMorphism.__init__(self, pres, source, target, tuple(grid))


class _Identity(_Unit):
    """The identity of an object: the unit map with dest[j] = j."""

    __slots__ = ()


def _unit_map(pres, source: AddObject, target: AddObject, dest) -> _Unit:
    """The unit map along ``dest``, an :class:`_Identity` when dest[j] = j
    for every summand of source and target alike."""
    dest = tuple(dest)
    n = len(dest)
    ident = n == len(target.summands) and dest == tuple(range(n))
    return (_Identity if ident else _Unit)(pres, source, target, dest)


def block_starts(pres, x: AddObject, y: AddObject, start=0) -> list:
    """The layout of Hom_add(x, y) in :func:`hom_basis` order, counted from
    ``start``: block (target i, source j) begins at ``starts[i * len(x) + j]``
    and ends where the next begins; the last entry is ``start`` plus the
    dimension."""
    starts, pairs = [start], pres.pairs
    for ti in y:
        for sj in x:
            start += len(pairs.get((sj, ti), ()))
            starts.append(start)
    return starts


def _put_blocks(vec, starts, blocks):
    """Write the nonzero blocks of a grid into ``vec`` at their ``starts``."""
    for s, b in zip(starts, (b for row in blocks for b in row)):
        if b is not None:
            vec[s:s + len(b)] = b


def hom_basis(pres, x: AddObject, y: AddObject):
    """Elementary single-block basis of Hom_add(x, y), with its dimension:
    element k has its one nonzero coordinate at position k of the layout
    :func:`block_starts`."""
    coords, fld = Coords(pres, {0: (x, y)}), pres.field
    units = ([fld.one if r == k else fld.zero for r in range(coords.total)] for k in range(coords.total))
    return [coords.from_vector(u)[0] for u in units], coords.total


def compose(g: AddMorphism, f: AddMorphism) -> AddMorphism:
    return g.compose(f)


class Coords:
    """Flat coordinates of a degree-indexed family of morphisms.

    ``objs`` maps each degree i to the (source, target) of the morphism at
    i.  The vector lists the degrees in ascending order, each in
    :func:`hom_basis` order; a degree whose Hom space is zero gets no slice.
    The layout of each degree (:func:`block_starts`, counted from the start
    of its slice) is computed once, here, and every method reads it.
    """

    __slots__ = ("pres", "objs", "slices", "starts", "total")

    def __init__(self, pres, objs):
        self.pres = pres
        self.objs = {}
        self.slices = {}
        self.starts = {}
        pos = 0
        for i in sorted(objs):
            x, y = objs[i]
            starts = block_starts(pres, x, y, pos)
            if starts[-1] > pos:
                self.objs[i] = (x, y)
                self.slices[i] = slice(pos, starts[-1])
                self.starts[i] = starts
                pos = starts[-1]
        self.total = pos

    def to_vector(self, component):
        """Coordinates of the family; ``component(i)`` is its morphism at
        degree i, or None for zero.  Degrees without a slice are not read."""
        vec = [self.pres.field.zero] * self.total
        for i, starts in self.starts.items():
            m = component(i)
            if m is not None:
                _put_blocks(vec, starts, m.blocks)
        return vec

    def from_vector(self, vec) -> dict:
        """The family with coordinates ``vec``, one morphism per slice.  Only the blocks
        holding a nonzero coordinate are cut; a slice with none is :meth:`AddMorphism.zero`."""
        nonzero, out, k, end = list(compress(count(), vec)), {}, 0, 0
        for i, (x, y) in self.objs.items():
            starts, first, cut = self.starts[i], k, [None] * (len(x) * len(y))
            k = bisect_left(nonzero, starts[-1], k)
            for p in nonzero[first:k]:
                if p >= end:            # p opens a block: bisect for it, cut it, skip to its end
                    b = bisect_right(starts, p)
                    cut[b - 1] = tuple(vec[starts[b - 1]:(end := starts[b])])
            out[i] = AddMorphism.zero(self.pres, x, y) if k == first else AddMorphism(
                self.pres, x, y, tuple(zip(*[iter(cut)] * len(x))))    # rows of len(x) blocks
        return out

    def matrix(self, rows: "Coords", terms) -> RowMatrix:
        """Matrix of a linear map from these coordinates to ``rows``.

        Each ``(step, sign, side, fixed)`` of ``terms`` sends the morphism b
        at degree i to ``sign * fixed(i) o b`` (side ``"left"``) or to
        ``sign * b o fixed(i)`` (side ``"right"``) at row degree i + step, and
        calls ``fixed`` only when that row degree has a slice.  The steps of
        ``terms`` are distinct.  Entries are summed block by block from the
        structure-constant tables.  Every row is built: a caller that needs
        some rows reads them off the whole matrix, which costs the same walk
        over the blocks.

        The rows come out in the form :meth:`Matrix.rref` works on, and no
        ``Fraction`` is summed: a block of ``fixed(i)`` in use is cleared by
        the lcm L of their denominators (when not all ints with L * sign = 1),
        the tables by ``comp_den``, so a row is ints over L * comp_den, made
        primitive at the end (residues over F_p).  Empty blocks are skipped.
        """
        pres = self.pres
        p = pres.characteristic
        int_table = pres.int_table
        data = [{} for _ in range(rows.total)]
        work = [(i, step, sign, side, fixed(i).blocks)
                for i in self.objs for step, sign, side, fixed in terms if i + step in rows.starts]
        fracs = () if p else [v.denominator for *_, blocks in work for grid in blocks
                              for g in grid if g is not None for v in g if type(v) is not int]
        den = lcm(*fracs)
        for i, step, sign, side, d in work:
            x, y = self.objs[i]
            cols, n, offs, s = self.starts[i], len(x), rows.starts[i + step], sign * den
            xr, yr = rows.objs[i + step]
            nr, clear = len(xr), s != 1 or fracs
            if side == "left":      # block (a, j) of d o b is d[a][t] o b[t][j]
                for a, ta in enumerate(yr):
                    for t, ti in enumerate(y):
                        g = d[a][t]
                        if g is not None:
                            g = [s // v.denominator * v.numerator for v in g] if clear else g
                            for j, sj in enumerate(x):
                                c0, r0 = cols[t * n + j], offs[a * nr + j]
                                if c0 == cols[t * n + j + 1] or r0 == offs[a * nr + j + 1]:
                                    continue    # Hom(sj, ti) or Hom(sj, ta) is 0
                                for gi, fi, res in int_table(sj, ti, ta):
                                    v = g[gi]
                                    if v:
                                        for ri, c in res:
                                            row = data[r0 + ri]
                                            row[c0 + fi] = row.get(c0 + fi, 0) + v * c
            else:                   # block (t, k) of b o d is b[t][j] o d[j][k]
                for j, sj in enumerate(x):
                    for k, sk in enumerate(xr):
                        f = d[j][k]
                        if f is not None:
                            f = [s // v.denominator * v.numerator for v in f] if clear else f
                            for t, ti in enumerate(y):
                                c0, r0 = cols[t * n + j], offs[t * nr + k]
                                if c0 == cols[t * n + j + 1] or r0 == offs[t * nr + k + 1]:
                                    continue    # Hom(sj, ti) or Hom(sk, ti) is 0
                                for gi, fi, res in int_table(sk, sj, ti):
                                    v = f[fi]
                                    if v:
                                        for ri, c in res:
                                            row = data[r0 + ri]
                                            row[c0 + gi] = row.get(c0 + gi, 0) + v * c
        den *= pres.comp_den
        out = []
        for row in data:
            row = {j: v % p for j, v in row.items()} if p else row
            if not all(row.values()):
                row = {j: v for j, v in row.items() if v}
            g = gcd(den, *row.values()) if den != 1 else 1
            out.append(({j: v // g for j, v in row.items()} if g != 1 else row, den // g))
        return RowMatrix(pres.field, len(out), self.total, out)


# ----------------------------------------------------------------- validate


class Finding:
    """One finding: its kind, the ids or labels witnessing it, and a message."""

    def __init__(self, kind: str, witness: tuple, detail: str):
        self.kind, self.witness, self.detail = kind, witness, detail

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.witness, self.detail) == (other.kind, other.witness, other.detail)

    def to_data(self):
        return {"kind": self.kind, "witness": list(self.witness), "detail": self.detail}


class ValidationReport:
    """The findings of :func:`validate_presentation`; it passes when there are none."""

    def __init__(self, findings: list):
        self.findings = findings

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.findings == other.findings

    @property
    def ok(self):
        return not self.findings

    def to_data(self):
        return {"ok": self.ok, "findings": [f.to_data() for f in self.findings]}


def validate_presentation(source) -> ValidationReport:
    """Check the degree axioms and composition coherence of a presentation.

    Accepts either raw JSON-style data or a resolved presentation.  Shape
    problems are reported as ``malformed`` findings, distinct from axiom
    violations, which carry an explicit witness.
    """
    findings = []
    if isinstance(source, OrlovPresentation):
        pres = source
    else:
        try:
            pres = OrlovPresentation.from_data(source)
        except InputError as exc:
            return ValidationReport([Finding("malformed", (), str(exc))])

    fld = pres.field
    for iid in pres.ids:
        basis = pres.hom_labels(iid, iid)
        if len(basis) != 1:
            findings.append(Finding(
                "end_not_scalar", (iid,),
                f"End({iid}) has dimension {len(basis)}, expected 1"))
    for (src, tgt), basis in sorted(pres.pairs.items()):
        if src != tgt and basis and pres.degree[src] <= pres.degree[tgt]:
            findings.append(Finding(
                "hom_degree_violation", (src, tgt),
                f"Hom({src},{tgt}) nonzero but deg {src} = {pres.degree[src]} <= "
                f"deg {tgt} = {pres.degree[tgt]}"))

    labels = sorted(pres.label_pair)

    def combine(terms):
        """Sum of c (g o f) over ``(c, g, f)`` in terms, as {label: nonzero coefficient}."""
        out = {}
        for c, g, f in terms:
            for rl, rc in pres.compose_labels(g, f).items():
                out[rl] = fld.add(out.get(rl, fld.zero), fld.mul(c, rc))
        return {lab: v for lab, v in out.items() if v}

    unit_findings = []
    for lab in labels:
        src, tgt = pres.label_pair[lab]
        if combine([(fld.one, identity_label(tgt), lab)]) != {lab: fld.one}:
            unit_findings.append(Finding("unit_law", (lab,), "left unit law fails"))
        if combine([(fld.one, lab, identity_label(src))]) != {lab: fld.one}:
            unit_findings.append(Finding("unit_law", (lab,), "right unit law fails"))

    # where the unit laws hold, every triple through an identity is associative
    units = set() if unit_findings else {identity_label(iid) for iid in pres.ids}
    triple_labels = [lab for lab in labels if lab not in units]
    by_source = {}
    for lab in triple_labels:
        by_source.setdefault(pres.label_pair[lab][0], []).append(lab)
    # h o g for every label h composable after g
    after = {g: [(h, combine([(fld.one, h, g)]))
                 for h in by_source.get(pres.label_pair[g][1], ())] for g in triple_labels}
    for f in triple_labels:
        for g in by_source.get(pres.label_pair[f][1], ()):
            gf = combine([(fld.one, g, f)])
            for h, hg in after[g]:
                left = combine((c, h, lab) for lab, c in gf.items())      # h o (g o f)
                right = combine((c, lab, f) for lab, c in hg.items())     # (h o g) o f
                if left != right:
                    findings.append(Finding(
                        "associativity", (h, g, f),
                        "h o (g o f) != (h o g) o f on basis triple"))

    return ValidationReport(findings + unit_findings)


# --------------------------------------------------------------- idempotents


def isotypic_classes(x: AddObject) -> dict:
    """Positions of each indecomposable among the summands of x."""
    out = {}
    for i, s in enumerate(x):
        out.setdefault(s, []).append(i)
    return out


def unit_index(pres, s) -> int:
    """Position of the identity label in the basis of End(s).

    Every caller treats a block between copies of s as a scalar times the
    unit, which is exact only when End(s) is one-dimensional; any other
    End(s) is refused here, naming s.
    """
    labels = pres.hom_labels(s, s)
    if len(labels) != 1:
        raise InputError(
            f"End({s}) has dimension {len(labels)}; blocks between copies of {s} "
            "must be scalars")
    return labels.index(identity_label(s))


def scalar_matrix(m: AddMorphism, s, pos) -> Matrix:
    """Unit coordinates of the blocks of m between the positions ``pos``,
    which all hold the indecomposable s."""
    fld, u = m.pres.field, unit_index(m.pres, s)
    return Matrix(fld, len(pos), len(pos), [
        [fld.zero if m.blocks[i][j] is None else m.blocks[i][j][u] for j in pos] for i in pos])


def unit_solve(m: AddMorphism, side):
    """g: y -> x with m o g = 1_y (``side`` "left") or g o m = 1_x ("right")
    for m: x -> y, or None: one solve in the coordinates of Hom(y, x)."""
    pres, x, y = m.pres, m.source, m.target
    unit = y if side == "left" else x
    back, ends = Coords(pres, {0: (y, x)}), Coords(pres, {0: (unit, unit)})
    sol = back.matrix(ends, [(0, 1, side, lambda i: m)]).solve(
        ends.to_vector({0: AddMorphism.identity(pres, unit)}.get))
    if sol is None:
        return None
    return back.from_vector(sol).get(0) or AddMorphism.zero(pres, y, x)


def invert(m: AddMorphism):
    """Two-sided inverse of m: x -> y, or None: the g with m o g = 1_y of
    :func:`unit_solve`, kept only when g o m = 1_x as well.  It refuses a
    summand whose End is not the scalars (:func:`unit_index`)."""
    for s in dict.fromkeys((*m.source, *m.target)):
        unit_index(m.pres, s)
    g = unit_solve(m, "left")
    return g if g is not None and g.compose(m).is_identity() else None


def split_idempotent(e: AddMorphism):
    """Split e = i o p with p o i = 1_z, for an exact idempotent e of x.

    Returns (z, p, i): the image object, which keeps the first r_s
    positions of each isotypic class s of x for r_s the rank of e's scalar
    block there (:func:`scalar_matrix`), and the projection/inclusion pair.
    i is e on the pivot columns of those blocks, and p = g o e for the g
    with g o i = 1_z that :func:`unit_solve` finds.  Why this splits e:

    - i's scalar blocks have independent columns, so i is a split mono
      modulo the radical, hence a split mono, and g exists;
    - i is e composed with the inclusion of those columns, so e o i = i
      and p o i = g o e o i = g o i = 1_z;
    - e' = i o p is then idempotent with e o e' = e' = e' o e, so e - e'
      is an idempotent orthogonal to e';
    - image(e') = z, and image(e) has r_s copies of each s too, so by
      Krull-Schmidt the image of e - e' is 0, and e' = e.

    Like :func:`invert`, this refuses a summand whose End is not the scalars.
    """
    if e.source != e.target:
        raise CompositionError("split_idempotent: not an endomorphism")
    if e.compose(e) != e:
        raise CompositionError("split_idempotent: morphism is not idempotent")
    pres, x = e.pres, e.source
    # kept position -> the column of e that i carries there: the t-th kept
    # position of a class gets its t-th pivot column, which holds the same summand
    carried = {}
    for s, pos in isotypic_classes(x).items():
        carried.update(zip(pos, (pos[c] for c in scalar_matrix(e, s, pos).rref().pivots)))
    keep = sorted(carried)
    z = x.select(keep)
    i_m = e.restrict_blocks(range(len(x)), [carried[k] for k in keep])
    g = unit_solve(i_m, "right")
    if g is None:
        raise CompositionError("split_idempotent: the image has no retraction")
    p = g.compose(e)
    if i_m.compose(p) != e or p.compose(i_m) != AddMorphism.identity(pres, z):
        raise CompositionError("idempotent splitting failed verification")
    return z, p, i_m
