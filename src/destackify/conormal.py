"""Conormal data at the cones of a stacky fan, and its invariants.

Every cone of a stacky fan carries a finite abelian chart group
together with one group element per ray of the cone; rays lying on a
labeled divisor are marked with that label, the remaining components
are residual.  This module computes the invariants of that data that
drive the destackification algorithms (independency index, toroidal
index, divisorial index, divisorial type, and the divisorial index
along a divisor), the transformation rule for the data under a stacky
blow-up, and a matrix presentation of the restricted cotangent
complex.

The partial order ``dominates`` and the quotient construction
``quotient_by_kernel`` are brute force with explicit size bounds.
They exist so the semicontinuity and smoothness properties of the
invariants can be tested directly; the algorithms themselves only ever
compare natural numbers and divisorial types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, total_ordering
from itertools import product

from .exact import (
    FinAbGroup,
    IntMatrix,
    NotFinite,
    intersect_subgroups,
    quotient_by,
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


class TooLarge(ConormalError):
    """A brute-force search exceeds its size bound."""


class BadIndex(ConormalError):
    """A component index set is empty or out of range."""


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
        generated by all other components trivially; weight zero is
        always independent."""
        zero = self.group.zero()
        ws = [c.weight for c in self.components]
        return tuple(
            w == zero or intersect_subgroups(
                subgroup_generated(self.group, [w]),
                subgroup_generated(self.group, ws[:i] + ws[i + 1:]),
            ).is_trivial
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
@dataclass(frozen=True, eq=False)
class DivisorialType:
    """Canonical presentation matrix of the divisorial type.

    The matrix is square upper triangular with positive diagonal and
    one row per ambient divisor label.  Instances over divisor lists of
    different lengths compare by padding the smaller matrix with an
    identity block at the young end, which is exactly how the type
    transforms when an independent divisor is appended; equality and
    hashing strip such trailing blocks for the same reason.
    """

    canonical: IntMatrix

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

    def stripped(self) -> IntMatrix:
        m = self.size
        while m > 0 and all(
                self.canonical[i, m - 1] == (1 if i == m - 1 else 0)
                for i in range(m)):
            m -= 1
        return IntMatrix.from_rows(
            [self.canonical.row(i)[:m] for i in range(m)], cols=m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DivisorialType):
            return NotImplemented
        return self.stripped() == other.stripped()

    def __hash__(self) -> int:
        return hash(self.stripped())

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
    have full rank.
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


# ----------------------------------------------------------------------
# partial order and quotients

def _image(group: FinAbGroup, images, vector) -> tuple[int, ...]:
    out = group.zero()
    for k, img in zip(vector, images):
        out = group.add(out, group.smul(k, img))
    return out


def dominates(hi: ConormalData, lo: ConormalData,
              bound: int = 10 ** 4) -> bool:
    """Whether hi lies above lo in the universal partial order.

    Decided by enumerating surjections phi from hi's group onto lo's
    group and checking that some phi carries the weight multiset of hi
    to that of lo, has kernel generated by the hi weight values it
    kills, respects the weights of shared marks, and kills the weights
    of marks present only in hi.
    """
    if hi.ambient != lo.ambient:
        raise ValueError("conormal data over different divisor lists")
    if not set(lo.marks) <= set(hi.marks):
        return False
    if len(lo.components) != len(hi.components):
        return False
    a, b = hi.group, lo.group
    if a.order() > bound or b.order() > bound:
        raise TooLarge(f"group order exceeds the bound {bound}")
    if a.order() % b.order():
        return False

    candidates = []
    for d in a.torsion:
        candidates.append([x for x in b.elements()
                           if b.smul(d, x) == b.zero()])
    count = 1
    for c in candidates:
        count *= len(c)
        if count > 2 * 10 ** 6:
            raise TooLarge("too many homomorphisms to enumerate")

    lo_weights = sorted(c.weight for c in lo.components)
    hi_values = sorted({c.weight for c in hi.components})
    kernel_order = a.order() // b.order()
    shared = [(hi.weight_of(m), lo.weight_of(m)) for m in lo.marks]
    dropped = [hi.weight_of(m) for m in set(hi.marks) - set(lo.marks)]

    for images in product(*candidates):
        phi = lambda w: _image(b, images, w)
        if any(phi(w) != v for w, v in shared):
            continue
        if any(phi(w) != b.zero() for w in dropped):
            continue
        if sorted(phi(c.weight) for c in hi.components) != lo_weights:
            continue
        if subgroup_generated(b, images).order() != b.order():
            continue
        dying = [w for w in hi_values if phi(w) == b.zero()]
        if subgroup_generated(a, dying).order() != kernel_order:
            continue
        return True
    return False


def quotient_by_kernel(cd: ConormalData, kernel_gens,
                       keep_labels=None) -> ConormalData:
    """Data obtained by passing to the quotient group and keeping only
    the given marks; weights of dropped marks must die in the quotient
    for the result to sit below cd in the partial order, but this is
    not enforced here."""
    keep = set(cd.marks) if keep_labels is None else set(keep_labels)
    quot, coord_images = quotient_by(cd.group, kernel_gens)
    comps = tuple(
        Component(_image(quot, coord_images, c.weight),
                  c.mark if c.mark in keep else None)
        for c in cd.components)
    return ConormalData(quot, comps, cd.ambient)


# ----------------------------------------------------------------------
# blow-up transformation

def blowup_weight_transform(cd: ConormalData, centre, exceptional: int,
                            new_label: str | None = None) -> ConormalData:
    """Weight transformation under a stacky blow-up.

    centre is the set of component positions spanning the blow-up
    centre and exceptional the position, within the centre, whose ray
    is replaced by the exceptional ray in this chart.  Weights of the
    other centre components drop by the exceptional weight; the
    exceptional component keeps its weight and is re-marked with a
    fresh label, appended as the youngest ambient divisor.
    """
    n = len(cd.components)
    centre = {int(j) for j in centre}
    if not centre:
        raise BadIndex("blow-up centre is empty")
    if any(not 0 <= j < n for j in centre):
        raise BadIndex("centre index out of range")
    if exceptional not in centre:
        raise BadIndex("exceptional index must lie in the centre")
    if new_label is None:
        k = 1
        while f"e{k}" in cd.ambient:
            k += 1
        new_label = f"e{k}"
    elif new_label in cd.ambient:
        raise ValueError(f"label {new_label!r} is already an ambient divisor")

    a_p = cd.components[exceptional].weight
    comps = list(cd.components)
    for j in centre:
        if j != exceptional:
            comps[j] = Component(cd.group.sub(comps[j].weight, a_p),
                                 comps[j].mark)
    comps[exceptional] = Component(a_p, new_label)
    return ConormalData(cd.group, tuple(comps), cd.ambient + (new_label,))


# ----------------------------------------------------------------------
# cotangent presentation

@dataclass(frozen=True)
class CotangentPresentation:
    """Matrix presentation of the restricted cotangent complex.

    One row per invariant factor q_j of the chart group.  The first n
    columns hold the monomial entries a_ji * x_i, where a_ji is the
    j-th coordinate of the weight of component i; the last s columns
    are the diagonal matrix of the q_j.
    """

    orders: tuple[int, ...]
    coefficients: IntMatrix

    @property
    def rows(self) -> int:
        return len(self.orders)

    @property
    def cols(self) -> int:
        return self.coefficients.cols + len(self.orders)

    def matrix(self) -> IntMatrix:
        s = len(self.orders)
        diag = IntMatrix.from_rows(
            [tuple(self.orders[j] if j == k else 0 for k in range(s))
             for j in range(s)], cols=s)
        return self.coefficients.hstack(diag)

    def column_weights(self) -> tuple[tuple[int, ...], ...]:
        """Weights read off the monomial columns."""
        return self.coefficients.columns()

    def render(self) -> list[list[str]]:
        out = []
        n = self.coefficients.cols
        for j in range(self.rows):
            row = []
            for i in range(n):
                a = self.coefficients[j, i]
                if a == 0:
                    row.append("0")
                elif a == 1:
                    row.append(f"x{i + 1}")
                else:
                    row.append(f"{a}*x{i + 1}")
            for k in range(self.rows):
                row.append(str(self.orders[j]) if j == k else "0")
            out.append(row)
        return out


def cotangent_presentation(cd: ConormalData) -> CotangentPresentation:
    if cd.group.free_rank:
        raise ValueError("cotangent presentation needs a finite group")
    s = len(cd.group.torsion)
    rows = [tuple(c.weight[j] for c in cd.components) for j in range(s)]
    coeff = IntMatrix.from_rows(rows, cols=len(cd.components))
    return CotangentPresentation(cd.group.torsion, coeff)
