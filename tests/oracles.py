"""Brute-force oracles: the second routes that the tests check the
package against, and the constructions those tests need.

Each entry names the package route it checks:

- `closure`: a subgroup by breadth-first addition; checks
  `subgroup_generated`, `cokernel_of_rows` and the `intersect_subgroups`
  below.
- `elements`: every element of a finite group; with `closure` it checks
  `Subgroup.contains`, `subgroup_generated` and `intersect_subgroups`
  element by element.
- `intersect_subgroups` and `is_trivial`: the meet of two subgroups from
  the kernel of their stacked Hermite bases, and the test that a
  subgroup is zero; together they are the reference route for
  `ConormalData.independent`, which reads the relation lattice instead.
- `apply`: a matrix times a column vector; checks `kernel_columns`.
- `cofactor_det` and `minors_gcd_invariant_factors`: determinants by
  cofactor expansion and invariant factors by gcds of minors; check
  `smith_normal_form`.
- `box_scan_points`: Box points by scanning the bounding box with
  integer cofactors; checks `StackyFan.multiplicity` and the
  parallelotope routes.
- `fraction_coordinates` and `cone_contains`: coordinates over a cone's
  generators and cone membership by `Fraction` elimination; check
  `StackyFan.refines` and the containment test it shares with
  `StackyFan.validate`.
- `support_contains_point`: membership in a fan's support, one cone at a
  time through `cone_contains`; checks that a star subdivision keeps
  the support.
- `a_candidates`: Algorithm A's candidate sums from the `Fraction`
  coordinates of the parallelotope points; checks the integer
  candidates of `algorithm_a`.
- `quotient_by`: a quotient group through `cokernel_of_rows`; it builds
  the data of `quotient_by_kernel`.
- `subgroup_as_group`: a subgroup presented on its generators; it checks
  that the invariants of `conormal` do not change when the chart group
  shrinks to the subgroup its weights generate.
- `canonical_presentation`: the canonical relation matrix of a group on
  a generating list; composed with `subgroup_as_group` it is the
  reference route for `divisorial_type`, which reads the relation
  lattice of the defining entries in the chart group itself.
- `dominates` and `quotient_by_kernel`: the universal partial order on
  conormal data, by enumerating surjections, and the quotients that sit
  below a datum in it; no package route uses them, and their tests
  check them against each other.
- `blowup_weight_transform`: the weight rule of a stacky blow-up in one
  chart; checks the chart data after `StackyFan.stacky_star_subdivision`.
- `cotangent_presentation`: the matrix presentation of the restricted
  cotangent complex; no package route uses it, and its tests check it
  against the weight multiset.

Oracles import only public names of `destackify`, so that they stay
independent of the code they check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from destackify.conormal import Component, ConormalData, ConormalError
from destackify.exact import (
    ExactError,
    FinAbGroup,
    IntMatrix,
    NotFinite,
    Subgroup,
    cokernel_of_rows,
    hnf_columns,
    kernel_columns,
    relation_lattice,
    subgroup_generated,
)


# ----------------------------------------------------------------------
# integer linear algebra

def cofactor_det(rows) -> int:
    rows = [list(r) for r in rows]
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def minors_gcd_invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors via gcds of k x k minors; independent oracle."""
    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                sub = [[m.entries[i][j] for j in cols] for i in rows]
                g = math.gcd(g, cofactor_det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def apply(m: IntMatrix, vector) -> tuple[int, ...]:
    """Matrix times column vector."""
    vec = tuple(int(x) for x in vector)
    if len(vec) != m.cols:
        raise ValueError("vector length mismatch")
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in m.entries)


# ----------------------------------------------------------------------
# finite abelian groups

class NotGenerating(ExactError):
    """The supplied elements do not generate the expected group."""


class ParentMismatch(ExactError):
    """Subgroups of different parent groups were combined."""


def closure(group: FinAbGroup, gens) -> set:
    """All elements reachable from 0 by adding gens (the subgroup <gens>)."""
    seen = {group.zero()}
    frontier = [group.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def elements(group: FinAbGroup) -> list[tuple[int, ...]]:
    """All elements in lexicographic coordinate order; finite only."""
    if group.free_rank:
        raise NotFinite("cannot enumerate a group of positive free rank")
    return list(itertools.product(*(range(d) for d in group.torsion)))


def intersect_subgroups(h1: Subgroup, h2: Subgroup) -> Subgroup:
    """The meet of two subgroups: the images under h1's basis of the
    first coordinates of the kernel of [h1 | -h2]."""
    if h1.parent != h2.parent:
        raise ParentMismatch("subgroups of different parent groups")
    k = h1.parent.ncoords
    b1, b2 = h1.basis, h2.basis
    if b1.cols == 0 or b2.cols == 0:
        return Subgroup(h1.parent, IntMatrix.from_columns([], rows=k))
    ker = kernel_columns(b1.hstack(b2.neg()))
    cols = [apply(b1, ker.col(j)[:b1.cols]) for j in range(ker.cols)]
    return Subgroup(h1.parent, hnf_columns(IntMatrix.from_columns(cols, rows=k)))


def is_trivial(h: Subgroup) -> bool:
    """Whether h is the zero subgroup.

    The preimage lattice contains the relations d_i * e_i of the parent
    and equals their span exactly when it has the same rank and the d_i
    on its Hermite diagonal."""
    t = h.parent.torsion
    return h.basis.cols == len(t) and \
        all(h.basis.entries[i][i] == d for i, d in enumerate(t))


def quotient_by(group: FinAbGroup, gens) -> tuple[FinAbGroup, tuple[tuple[int, ...], ...]]:
    """group / <gens> with the images of group's canonical coordinates."""
    k = group.ncoords
    rows = [tuple(d if j == i else 0 for j in range(k))
            for i, d in enumerate(group.torsion)]
    rows.extend(group.reduce(g) for g in gens)
    if not rows:
        return cokernel_of_rows(IntMatrix.zeros(0, k))
    return cokernel_of_rows(IntMatrix.from_rows(rows, cols=k))


def subgroup_as_group(group: FinAbGroup, gens) -> tuple[FinAbGroup, tuple[tuple[int, ...], ...]]:
    """<gens> presented abstractly, with the images of the gens.

    The subgroup is presented on the generating list itself: the result
    is Z^len(gens) modulo the relation lattice of gens in group.
    """
    m = len(gens)
    if m == 0:
        return FinAbGroup(), ()
    rel = relation_lattice(group, gens)
    rows = [rel.col(j) for j in range(rel.cols)]
    if rows:
        mat = IntMatrix.from_rows(rows, cols=m)
    else:
        mat = IntMatrix.zeros(0, m)
    return cokernel_of_rows(mat)


def canonical_presentation(group: FinAbGroup, elems) -> IntMatrix:
    """The canonical relation matrix of a finite group on a generating list.

    Returns the unique m x m upper-triangular matrix C with positive
    diagonal and each entry right of the diagonal in row i reduced into
    [0, c_ii), whose columns span the lattice ker(Z^m -> group,
    e_i -> elems_i).
    """
    if group.free_rank:
        raise NotFinite("canonical presentation needs a finite group")
    m = len(elems)
    if m == 0:
        if group.order() != 1:
            raise NotGenerating("no elements cannot generate a nontrivial group")
        return IntMatrix.zeros(0, 0)
    h = relation_lattice(group, elems)
    if h.cols != m:
        raise NotGenerating("relation lattice is not full rank")
    index = math.prod(h.entries[i][i] for i in range(m))
    if index != group.order():
        raise NotGenerating("elements generate a proper subgroup")
    return h


# ----------------------------------------------------------------------
# fans

def box_scan_points(columns, rank):
    """Lattice points of the half-open parallelotope on integer columns.

    Independent of the library's normal forms: solves
    det(Gram) * lambda = adj(Gram) * V^T * z with integer cofactor
    expansions, then scans the integer bounding box with numpy.
    Returns None when the columns are linearly dependent.
    """
    import numpy as np

    cols = [tuple(int(x) for x in c) for c in columns]
    k = len(cols)
    if k == 0:
        return [(0,) * rank]
    gram = [[sum(a * b for a, b in zip(cols[i], cols[j])) for j in range(k)]
            for i in range(k)]
    det = cofactor_det(gram)
    if det == 0:
        return None
    adj = [[(-1) ** (i + j) * cofactor_det(
        [row[:i] + row[i + 1:] for r, row in enumerate(gram) if r != j])
        for j in range(k)] for i in range(k)]
    # w = adj(gram) @ V^T, so w @ z = det * lambda for z in the span
    w = [[sum(adj[i][l] * cols[l][r] for l in range(k)) for r in range(rank)]
         for i in range(k)]
    lo = [sum(min(0, cols[i][r]) for i in range(k)) for r in range(rank)]
    hi = [sum(max(0, cols[i][r]) for i in range(k)) for r in range(rank)]
    axes = [np.arange(lo[r], hi[r] + 1, dtype=np.int64) for r in range(rank)]
    grid = np.meshgrid(*axes, indexing="ij")
    z = np.stack([g.ravel() for g in grid])            # rank x M
    lam = np.array(w, dtype=np.int64) @ z              # k x M, = det * lambda
    if det > 0:
        mask = ((lam >= 0) & (lam < det)).all(axis=0)
    else:
        mask = ((lam <= 0) & (lam > det)).all(axis=0)
    v = np.array(cols, dtype=np.int64).T               # rank x k
    back = v @ lam[:, mask]
    exact = (back == det * z[:, mask]).all(axis=0)
    pts = z[:, mask][:, exact]
    return sorted(tuple(int(x) for x in pts[:, m]) for m in range(pts.shape[1]))


def fraction_coordinates(columns, point):
    """Coordinates of a point over linearly independent columns by
    Gauss-Jordan elimination over `Fraction`; None off their span."""
    rows = len(point)
    a = [[Fraction(col[r]) for col in columns] + [Fraction(point[r])]
         for r in range(rows)]
    for c in range(len(columns)):
        pivot = next(r for r in range(c, rows) if a[r][c])
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(rows):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    if any(a[r][-1] for r in range(len(columns), rows)):
        return None
    return tuple(a[c][-1] for c in range(len(columns)))


def cone_contains(fan, cone, point) -> bool:
    coords = fraction_coordinates(
        [fan.rays[i].primitive for i in sorted(cone)], point)
    return coords is not None and all(x >= 0 for x in coords)


def support_contains_point(fan, point) -> bool:
    return any(cone_contains(fan, c, point) for c in fan.maximal_cones)


def a_candidates(fan, cone) -> set:
    """Coefficient tuples of Algorithm A's candidates at a cone: for each
    nonzero parallelotope point with coordinates lam, the primitive
    integer vector on the ray of lam_i / stacky_multiple_i, kept when its
    support meets a distinguished ray."""
    idx = sorted(cone)
    dist = {i for i in idx if fan.labels[i] in fan.distinguished}
    multiples = [fan.rays[i].stacky_multiple for i in idx]
    out = set()
    for _, lam in fan.parallelotope_lambdas(cone):
        if not any(lam):
            continue
        fracs = [Fraction(x) / m for x, m in zip(lam, multiples)]
        t = math.lcm(*[f.denominator for f in fracs])
        coeffs = [int(f * t) for f in fracs]
        g = math.gcd(*coeffs)
        pairs = tuple((i, c // g) for i, c in zip(idx, coeffs) if c)
        if any(i in dist for i, _ in pairs):
            out.add(pairs)
    return out


# ----------------------------------------------------------------------
# conormal data: partial order, quotients, blow-up rule

class TooLarge(ConormalError):
    """A brute-force search exceeds its size bound."""


class BadIndex(ConormalError):
    """A component index set is empty or out of range."""


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
        candidates.append([x for x in elements(b)
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

    for images in itertools.product(*candidates):
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
