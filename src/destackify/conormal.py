"""Conormal data at the cones of a stacky fan, and its invariants.

Every cone of a stacky fan carries a finite abelian chart group
together with one group element per ray of the cone; rays lying on a
labeled divisor are marked with that label, the remaining components
are residual.  This module computes the invariants of that data that
drive the destackification algorithms (independency index, toroidal
index, divisorial index, divisorial type, and the divisorial index
along a divisor).  The algorithms only ever compare natural numbers
and divisorial types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, total_ordering

from .exact import (
    FinAbGroup,
    IntMatrix,
    NotFinite,
    relation_lattice,
    subgroup_generated,
)
from .fans import StackyFan


class ConormalError(Exception):
    """Base class for conormal-layer errors."""


class NotDivisorial(ConormalError):
    """The divisorial index is nonzero where zero is required."""


class LabelAbsent(ConormalError):
    """No component of the data is marked with the requested label."""


@dataclass(frozen=True)
class Component:
    """One component of the conormal representation: a weight in the
    chart group, marked with a divisor label or residual (mark None)."""

    weight: tuple[int, ...]
    mark: str | None = None


@dataclass(frozen=True)
class ConormalData:
    group: FinAbGroup
    components: tuple[Component, ...]
    ambient: tuple[str, ...]

    def __post_init__(self) -> None:
        comps = []
        for c in self.components:
            if not isinstance(c, Component):
                c = Component(tuple(c[0]), c[1])
            comps.append(Component(self.group.reduce(c.weight), c.mark))
        object.__setattr__(self, "components", tuple(comps))
        object.__setattr__(self, "ambient", tuple(self.ambient))
        marks = [c.mark for c in self.components if c.mark is not None]
        if len(marks) != len(set(marks)):
            raise ValueError("marked components must carry distinct labels")
        for m in marks:
            if m not in self.ambient:
                raise ValueError(f"mark {m!r} is not an ambient divisor label")

    @property
    def marks(self) -> tuple[str, ...]:
        """Labels of the marked components, in component order."""
        return tuple(c.mark for c in self.components if c.mark is not None)

    def weight_of(self, label: str) -> tuple[int, ...]:
        for c in self.components:
            if c.mark == label:
                return c.weight
        raise LabelAbsent(f"no component is marked {label!r}")

    def marked_weights(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c.weight for c in self.components if c.mark is not None)

    def residual_weights(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c.weight for c in self.components if c.mark is None)

    @cached_property
    def independent(self) -> tuple[bool, ...]:
        """Per component: whether its cyclic subgroup meets the subgroup
        generated by all other components trivially.

        That holds exactly when c_i * w_i = 0 for every relation c among
        the weights.  The i-th coefficients of the relations are the
        multiples of g_i, the gcd of row i of the relation lattice's
        basis, so the test is g_i * w_i = 0.  An independent weight of
        infinite order has g_i = 0, and weight zero has g_i = 1."""
        ws = [c.weight for c in self.components]
        rel = relation_lattice(self.group, ws)
        zero = self.group.zero()
        return tuple(self.group.smul(math.gcd(*rel.row(i)), w) == zero
                     for i, w in enumerate(ws))


def conormal_at(fan: StackyFan, cone) -> ConormalData:
    """Conormal data of the chart at a cone of the fan."""
    group, weights, marks = fan.chart_group(cone)
    comps = tuple(Component(w, m) for w, m in zip(weights, marks))
    return ConormalData(group, comps, fan.divisors)


# ----------------------------------------------------------------------
# numeric invariants

def independency_index(cd: ConormalData) -> int:
    return cd.independent.count(False)


def toroidal_index(cd: ConormalData) -> int:
    zero = cd.group.zero()
    return sum(1 for c in cd.components
               if c.mark is None and c.weight != zero)


def divisorial_index(cd: ConormalData) -> int:
    a_div = subgroup_generated(cd.group, cd.marked_weights())
    zero = cd.group.zero()
    return sum(1 for c in cd.components
               if c.mark is None and c.weight != zero
               and not a_div.contains(c.weight))


def is_divisorial(cd: ConormalData) -> bool:
    return divisorial_index(cd) == 0


def divisorial_index_along(cd: ConormalData, label: str) -> int:
    """Sum over the residual components of the minimal multiple of the
    labeled weight needed to express them modulo the other marked
    weights.  Requires divisorial data."""
    if not is_divisorial(cd):
        raise NotDivisorial("divisorial index along a divisor needs "
                            "divisorial data")
    span = relative_generic_order(cd, label)
    a_i = cd.weight_of(label)
    others = subgroup_generated(
        cd.group,
        [c.weight for c in cd.components
         if c.mark is not None and c.mark != label])
    total = 0
    for w in cd.residual_weights():
        for c in range(span):
            if others.contains(cd.group.sub(w, cd.group.smul(c, a_i))):
                total += c
                break
        else:
            raise NotDivisorial(f"residual weight {w} is not a multiple "
                                f"of the weight of {label!r}")
    return total


def relative_generic_order(cd: ConormalData, label: str) -> int:
    cd.weight_of(label)
    marked = subgroup_generated(cd.group, cd.marked_weights())
    others = subgroup_generated(
        cd.group,
        [c.weight for c in cd.components
         if c.mark is not None and c.mark != label])
    return marked.order() // others.order()


# ----------------------------------------------------------------------
# divisorial type

def _paper_order_key(mat: IntMatrix):
    # high rows first, each row read left to right
    return tuple(mat.row(r) for r in reversed(range(mat.rows)))


@total_ordering
@dataclass(frozen=True)
class DivisorialType:
    """Canonical presentation matrix of the divisorial type.

    The matrix is square upper triangular with positive diagonal, one
    row per ambient divisor label up to the youngest label whose column
    is not a standard basis vector.  Appending an independent divisor
    appends an identity block at the young end, so construction strips
    any trailing identity block: equal types hold equal matrices.
    Types of different sizes compare by padding the smaller matrix with
    an identity block at the young end.
    """

    canonical: IntMatrix

    def __post_init__(self) -> None:
        mat = self.canonical
        m = mat.rows
        while m > 0 and all(mat[i, m - 1] == (1 if i == m - 1 else 0)
                            for i in range(m)):
            m -= 1
        if m < mat.rows:
            object.__setattr__(self, "canonical", IntMatrix.from_rows(
                [mat.row(i)[:m] for i in range(m)], cols=m))

    @property
    def size(self) -> int:
        return self.canonical.rows

    def padded(self, m: int) -> IntMatrix:
        n = self.size
        if m < n:
            raise ValueError("cannot pad to a smaller size")
        rows = [tuple(self.canonical.row(i)) + (0,) * (m - n)
                for i in range(n)]
        for i in range(n, m):
            rows.append(tuple(1 if j == i else 0 for j in range(m)))
        return IntMatrix.from_rows(rows, cols=m)

    def __lt__(self, other: "DivisorialType") -> bool:
        m = max(self.size, other.size)
        return _paper_order_key(self.padded(m)) < \
            _paper_order_key(other.padded(m))


def divisorial_type(cd: ConormalData) -> DivisorialType:
    """Divisorial type of the data over its ambient divisor list.

    The defining tuple has one entry per ambient label: the weight of
    the component marked with that label when that component is not
    independent, and zero otherwise.  The type is the canonical
    presentation of the subgroup these entries generate: the column
    Hermite form of the lattice of relations among them, which must
    have full rank, stripped of its trailing identity block.
    """
    by_mark = {c.mark: i for i, c in enumerate(cd.components)
               if c.mark is not None}
    b = []
    for lab in cd.ambient:
        i = by_mark.get(lab)
        if i is not None and not cd.independent[i]:
            b.append(cd.components[i].weight)
        else:
            b.append(cd.group.zero())
    rel = relation_lattice(cd.group, b)
    if rel.cols < len(b):
        raise NotFinite("the divisorial entries generate an infinite group")
    return DivisorialType(rel)
