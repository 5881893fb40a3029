"""Stacky fans with ordered rays, divisor labels and distinguished structure.

A fan is a lattice rank, an ordered list of rays (list position = birth
order), a set of simplicial cones given as ray-index sets, an ordered
list of divisor labels (oldest first), a partial labeling of rays by
divisors, and a set of distinguished labels.  The two stacky
modifications (star subdivision and root construction) return new fans;
no fan is mutated, only memo tables (see `StackyFan`).

Cones are ray-index frozensets.  The tie-break order on cones compares
the index sets sorted descending, lexicographically, so younger rays
weigh more; this order is preserved by subfan restriction and by
relabelings that keep ray order, which is what the functoriality
arguments need.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .exact import (
    IntMatrix,
    cokernel_of_rows,
    hnf_columns,
    kernel_columns,
    smith_normal_form,
)


class FanError(Exception):
    """Base class for fan-layer errors."""


class UnknownCone(FanError):
    pass


class UnknownRay(FanError):
    pass


class ZeroCone(FanError):
    pass


class NonpositiveWeight(FanError):
    pass


class NotAFan(FanError):
    pass


class FanFormatError(FanError):
    """Malformed fan document."""


@dataclass(frozen=True)
class Ray:
    """A ray with its stacky lattice point beta = stacky_multiple * primitive."""

    beta: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", tuple(int(x) for x in self.beta))

    @property
    def stacky_multiple(self) -> int:
        g = math.gcd(*self.beta) if self.beta else 0
        return g if g else 1

    @property
    def primitive(self) -> tuple[int, ...]:
        g = math.gcd(*self.beta) if self.beta else 0
        if g == 0:
            return self.beta
        return tuple(x // g for x in self.beta)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def cone_key(cone) -> tuple[int, ...]:
    """Canonical comparison key: indices sorted descending, lexicographic."""
    return tuple(sorted(cone, reverse=True))


@dataclass(frozen=True)
class StackyFan:
    """A stacky fan.

    `_lineage` is its one memo, shared with every fan derived by star
    subdivision, root construction, `with_ray_label` and
    `forget_distinguished`; any other construction starts a new one.
    Roots scale beta and stars append rays, so within a lineage a ray
    index keeps its primitive generator: a star whose exceptional ray
    would give an index a second generator (a second, different star of
    the same fan) starts a new lineage.  No entry is ever invalidated:
    - `("mult", c)`: the multiplicity of the cone on the ray-index set c;
    - `("chart", betas)`: the chart group and weights of a cone whose
      beta vectors, in ascending ray-index order, are `betas`;
    - `("ray", i)`: the primitive generator of the star-born ray i,
      which keeps the lineage to one generator per index.
    """

    rank: int
    rays: tuple[Ray, ...]
    maximal_cones: tuple[frozenset[int], ...]
    labels: tuple[str | None, ...] = None  # type: ignore[assignment]
    divisors: tuple[str, ...] = None  # type: ignore[assignment]
    distinguished: frozenset[str] = frozenset()
    _lineage: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False, hash=False)

    def __post_init__(self) -> None:
        rays = tuple(r if isinstance(r, Ray) else Ray(tuple(r)) for r in self.rays)
        object.__setattr__(self, "rays", rays)
        raw = self.maximal_cones
        if all(type(c) is frozenset for c in raw):
            cones = set(raw)
        else:
            cones = {frozenset(int(i) for i in c) for c in raw}
        # A proper subset is strictly shorter, so testing against kept
        # longer cones suffices; pure-dimensional input needs no tests.
        by_len: dict[int, list] = {}
        for c in cones:
            by_len.setdefault(len(c), []).append(c)
        keep: list[frozenset] = []
        for ln in sorted(by_len, reverse=True):
            fresh = [c for c in by_len[ln]
                     if not any(c < d for d in keep)]
            keep.extend(fresh)
        maximal = tuple(sorted(keep, key=cone_key))
        object.__setattr__(self, "maximal_cones", maximal)
        labels = self.labels
        if labels is None:
            labels = (None,) * len(rays)
        labels = tuple(labels)
        if len(labels) != len(rays):
            raise ValueError("labels must align with rays")
        object.__setattr__(self, "labels", labels)
        divisors = self.divisors
        if divisors is None:
            seen = []
            for lab in labels:
                if lab is not None and lab not in seen:
                    seen.append(lab)
            divisors = tuple(seen)
        object.__setattr__(self, "divisors", tuple(divisors))
        object.__setattr__(self, "distinguished", frozenset(self.distinguished))

    # ------------------------------------------------------------------
    # structure

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def rays_of_label(self, label: str) -> tuple[int, ...]:
        return tuple(i for i, lab in enumerate(self.labels) if lab == label)

    def cones(self) -> tuple[frozenset[int], ...]:
        """Every face of every maximal cone, including the zero cone."""
        out = {frozenset()}
        for c in self.maximal_cones:
            idx = sorted(c)
            for size in range(1, len(idx) + 1):
                out.update(map(frozenset, itertools.combinations(idx, size)))
        return tuple(sorted(out, key=lambda c: (len(c), cone_key(c))))

    def has_cone(self, cone) -> bool:
        c = frozenset(cone)
        return any(c <= m for m in self.maximal_cones)

    def _coerce_cone(self, cone) -> frozenset[int]:
        c = frozenset(int(i) for i in cone)
        for i in c:
            if not 0 <= i < self.n_rays:
                raise UnknownCone(f"ray index {i} out of range")
        if not self.has_cone(c):
            raise UnknownCone(f"{sorted(c)} is not a cone of the fan")
        return c

    def generator_matrix(self, cone) -> IntMatrix:
        """Columns are the primitive generators of the cone's rays, in
        ascending ray-index order."""
        return IntMatrix.from_columns(
            [self.rays[i].primitive for i in sorted(cone)], rows=self.rank)

    # ------------------------------------------------------------------
    # multiplicities and parallelotopes

    def multiplicity(self, cone) -> int:
        return self._multiplicity(self._coerce_cone(cone))

    # The routes below skip validation: callers pass cones of the fan.

    def _multiplicity(self, c) -> int:
        key = ("mult", c)
        v = self._lineage.get(key)
        if v is None:
            v = math.prod(smith_normal_form(
                self.generator_matrix(c)).diagonal) if c else 1
            self._lineage[key] = v
        return v

    def _has_relint(self, c: frozenset[int]) -> bool:
        """Whether a Box point lies in the cone's relative interior.  A
        cone's Box is the disjoint union of its faces' relative-interior
        Box points, so Moebius inversion of multiplicities counts them."""
        idx = sorted(c)
        return sum((-1) ** (len(idx) - r) * self._multiplicity(frozenset(f))
                   for r in range(len(idx) + 1)
                   for f in itertools.combinations(idx, r)) > 0

    def _box(self, c: frozenset[int]) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The Box of cone c in integers: (D, numerators).

        Each lattice point of the half-open parallelotope on the
        primitive generators v_i is sum_i (n_i / D) v_i for exactly one
        numerator vector n with 0 <= n_i < D; the count equals the
        multiplicity.  From the Smith form u M v = d of the generator
        matrix M, M lam is integral exactly when lam = v y with every
        d_j y_j integral; so, with D the largest invariant factor, the n
        are V diag(D/d_j) mu mod D over mu in prod_j range(d_j).  They
        are combinations of the columns w_j of V diag(D/d_j), so the
        integrality check M n = 0 mod D holds on every n once it holds
        on every w_j.  Enumerated on every call: only the public routes
        and Algorithm A's uncached candidates ask."""
        k = len(c)
        if not k:
            return 1, ((),)
        m = self.generator_matrix(c)
        snf = smith_normal_form(m)
        diag = snf.diagonal
        big = diag[-1]
        if not big:
            raise FanError(f"cone {sorted(c)}: generators are linearly dependent")
        ns = [(0,) * k]
        for j, d in enumerate(diag):
            if d == 1:
                continue
            w = tuple(row[j] * (big // d) % big for row in snf.v.entries)
            if any(sum(a * x for a, x in zip(row, w)) % big
                   for row in m.entries):
                raise FanError(f"non-integral parallelotope point {w}/{big} "
                               f"at cone {sorted(c)}")
            ns = [tuple((a + t * x) % big for a, x in zip(n, w))
                  for n in ns for t in range(d)]
        return big, tuple(ns)

    def parallelotope_points(self, cone, relative_interior: bool = False):
        return tuple(p for p, _ in
                     self.parallelotope_lambdas(cone, relative_interior))

    def parallelotope_lambdas(self, cone, relative_interior: bool = False):
        """(point, coordinates over the primitive generators) pairs,
        sorted by point; the `Fraction` coordinates are built here from
        the integer Box of `_box`."""
        c = self._coerce_cone(cone)
        big, ns = self._box(c)
        cols = [self.rays[i].primitive for i in sorted(c)]
        pts = []
        for n in ns:
            if relative_interior and not all(n):
                continue
            point = tuple(sum(x * col[r] for x, col in zip(n, cols)) // big
                          for r in range(self.rank))
            pts.append((point, tuple(Fraction(x, big) for x in n)))
        pts.sort(key=lambda pl: pl[0])
        return tuple(pts)

    def independent_at(self, cone, ray: int) -> bool:
        c = self._coerce_cone(cone)
        if not 0 <= ray < self.n_rays:
            raise UnknownRay(f"ray index {ray} out of range")
        return self._independent_at(c, ray)

    def _independent_at(self, c: frozenset[int], i: int) -> bool:
        """Whether dropping ray i keeps the multiplicity of cone c."""
        return i not in c or \
            self._multiplicity(c - {i}) == self._multiplicity(c)

    def chart_group(self, cone):
        """(A, weights, marks) of the chart at a cone.

        A is Z^cone(1) modulo the rows of the transposed beta matrix;
        weights are the classes of the standard basis vectors, in
        ascending ray-index order, marks the divisor labels of the rays
        in the same order.
        """
        idx = sorted(self._coerce_cone(cone))
        betas = tuple(self.rays[i].beta for i in idx)
        key = ("chart", betas)
        if key not in self._lineage:
            rows = [tuple(b[j] for b in betas) for j in range(self.rank)]
            mat = IntMatrix.from_rows(rows, cols=len(idx)) if rows else \
                IntMatrix.zeros(0, len(idx))
            self._lineage[key] = cokernel_of_rows(mat)
        group, images = self._lineage[key]
        return group, images, tuple(self.labels[i] for i in idx)

    # ------------------------------------------------------------------
    # modifications

    def stacky_star_subdivision(self, cone) -> tuple["StackyFan", int]:
        """Star subdivision at a cone.

        The exceptional ray gets beta = sum of the beta values of the
        cone's rays and is appended as the youngest ray; every cone
        containing the centre is subdivided.  A 1-dimensional centre is
        the trivial blow-up: the fan is returned unchanged and the
        centre's own ray plays the exceptional role.
        """
        c = self._coerce_cone(cone)
        if not c:
            raise ZeroCone("cannot subdivide the zero cone")
        if len(c) == 1:
            return self, next(iter(c))
        eps_beta = tuple(sum(self.rays[i].beta[j] for i in c)
                         for j in range(self.rank))
        eps = self.n_rays
        new_cones = []
        for m in self.maximal_cones:
            if c <= m:
                for rho in sorted(c):
                    new_cones.append((m - {rho}) | {eps})
            else:
                new_cones.append(m)
        fan = self._derive(rays=self.rays + (Ray(eps_beta),),
                           maximal_cones=tuple(new_cones),
                           labels=self.labels + (None,))
        prim = fan.rays[eps].primitive
        if self._lineage.setdefault(("ray", eps), prim) != prim:
            object.__setattr__(fan, "_lineage", {})
        return fan, eps

    def root_construction(self, weights: dict[int, int]) -> "StackyFan":
        """Scale beta on the given rays; move their labels to the young
        end of the divisor order, preserving relative order."""
        weights = {int(i): int(d) for i, d in weights.items()}
        for i, d in weights.items():
            if not 0 <= i < self.n_rays:
                raise UnknownRay(f"ray index {i} out of range")
            if d < 1:
                raise NonpositiveWeight(f"root weight {d} on ray {i}")
        rays = list(self.rays)
        for i, d in weights.items():
            rays[i] = Ray(tuple(d * x for x in rays[i].beta))
        rooted_labels = {self.labels[i] for i in weights if self.labels[i] is not None}
        divisors = tuple(lab for lab in self.divisors if lab not in rooted_labels) + \
            tuple(lab for lab in self.divisors if lab in rooted_labels)
        return self._derive(rays=tuple(rays), divisors=divisors)

    def with_ray_label(self, ray: int, label: str,
                       distinguished: bool = False) -> "StackyFan":
        """Attach a divisor label to a ray, appending the label as the
        youngest divisor if it is new.  A labeled ray moves to the new
        label (the trivial blow-up at a ray); its old label stays a
        divisor."""
        if not 0 <= ray < self.n_rays:
            raise UnknownRay(f"ray index {ray} out of range")
        labels = list(self.labels)
        labels[ray] = label
        divisors = self.divisors if label in self.divisors \
            else self.divisors + (label,)
        dist = self.distinguished | {label} if distinguished else self.distinguished
        return self._derive(labels=tuple(labels), divisors=divisors,
                            distinguished=dist)

    def forget_distinguished(self) -> "StackyFan":
        return self._derive(distinguished=frozenset())

    def _derive(self, **changes) -> "StackyFan":
        """`dataclasses.replace` that keeps this fan's lineage cache."""
        fan = replace(self, **changes)
        object.__setattr__(fan, "_lineage", self._lineage)
        return fan

    def subfan(self, cones) -> "StackyFan":
        """Restrict to a subset of cones, retaining the global ray list
        (and hence global ray indices), labels and divisor order."""
        sub = [frozenset(int(i) for i in c) for c in cones]
        for c in sub:
            for i in c:
                if not 0 <= i < self.n_rays:
                    raise NotAFan(f"ray index {i} out of range")
            if not self.has_cone(c):
                raise NotAFan(f"{sorted(c)} is not a cone of the fan")
        return replace(self, maximal_cones=tuple(sub))

    # ------------------------------------------------------------------
    # geometry helpers

    def _containment(self, cone):
        """(P, Q) with integer rows such that a point p lies in the cone
        exactly when Q p = 0 and P p >= 0.

        From the Smith form u A v = d of the primitive generator matrix
        A (rank x k), p lies in A's span exactly when the rows u[k:]
        vanish on it, and there its coordinates are v diag(1/d_j) u[:k] p;
        P = v diag(D/d_j) u[:k], with D the largest invariant factor, is
        D times that left inverse."""
        k = len(cone)
        snf = smith_normal_form(self.generator_matrix(cone))
        diag = snf.diagonal
        big = diag[-1] if k else 1
        if not big:
            raise ValueError("columns are dependent")
        u, v = snf.u.entries, snf.v.entries
        scaled = [[x * (big // diag[j]) for x in u[j]] for j in range(k)]
        p_rows = tuple(
            tuple(sum(v[i][j] * scaled[j][r] for j in range(k))
                  for r in range(self.rank))
            for i in range(k))
        return p_rows, u[k:]

    def refines(self, other: "StackyFan") -> bool:
        """True if every maximal cone of self lies inside a cone of other.

        A cone lies in a cone exactly when its rays do, so each cone of
        other gets one integer containment test (`_containment`), applied
        once to each ray of self that a maximal cone uses.  Together
        with equality of supports this is fan refinement; the support
        comparison is left to sampling-based tests.
        """
        used = {i for c in self.maximal_cones for i in c}
        inside = []
        for m in other.maximal_cones:
            test = other._containment(m)
            inside.append({i for i in used
                           if _in_cone(test, self.rays[i].primitive)})
        return all(any(c <= s for s in inside) for c in self.maximal_cones)

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> ValidationReport:
        out: list[str] = []
        if self.rank < 1:
            out.append("rank must be at least 1")
        for i, ray in enumerate(self.rays):
            if len(ray.beta) != self.rank:
                out.append(f"ray {i}: beta has wrong dimension")
            elif not any(ray.beta):
                out.append(f"ray {i}: zero beta vector")
        if out:
            return ValidationReport(tuple(out))

        for c in self.maximal_cones:
            for i in c:
                if not 0 <= i < self.n_rays:
                    out.append(f"cone {sorted(c)}: ray index {i} out of range")
        if out:
            return ValidationReport(tuple(out))

        used = sorted({i for c in self.maximal_cones for i in c})
        directions: dict[tuple[int, ...], int] = {}
        for i in used:
            p = self.rays[i].primitive
            if p in directions:
                out.append(f"rays {directions[p]} and {i} span the same ray")
            else:
                directions[p] = i

        for c in self.maximal_cones:
            m = self.generator_matrix(c)
            if hnf_columns(m).cols != len(c):
                out.append(f"cone {sorted(c)}: generators are linearly dependent")

        if out:
            return ValidationReport(tuple(out))

        for c1, c2 in itertools.combinations(self.maximal_cones, 2):
            if not self._proper_intersection(c1, c2):
                out.append(f"cones {sorted(c1)} and {sorted(c2)} "
                           "do not intersect in a common face")

        if hnf_columns(self.generator_matrix(used)).cols != self.rank:
            out.append("the cones do not span the ambient space")

        if len(set(self.divisors)) != len(self.divisors):
            out.append("duplicate divisor labels")
        for i, lab in enumerate(self.labels):
            if lab is not None and lab not in self.divisors:
                out.append(f"ray {i}: label {lab!r} missing from the divisor list")
        for lab in self.distinguished:
            if lab not in self.divisors:
                out.append(f"distinguished label {lab!r} missing from the divisor list")
        seen_distinguished = False
        for lab in self.divisors:
            if lab in self.distinguished:
                seen_distinguished = True
            elif seen_distinguished:
                out.append("distinguished labels must be the youngest divisors")
                break
        for c in self.maximal_cones:
            labs = [self.labels[i] for i in c if self.labels[i] is not None]
            if len(labs) != len(set(labs)):
                out.append(f"cone {sorted(c)}: two rays share a divisor label")

        return ValidationReport(tuple(out))

    def _proper_intersection(self, c1: frozenset[int], c2: frozenset[int]) -> bool:
        """Exact test that cone(c1) meets cone(c2) exactly in the cone on
        their common rays.

        Every extreme ray of {(lam, mu) >= 0 : A lam = B mu} is supported
        on a column set with one-dimensional kernel, so enumerating
        sign-definite kernel vectors over small supports and checking
        their images against the common face is a complete test.
        """
        common = sorted(c1 & c2)
        a_idx = sorted(c1)
        b_idx = sorted(c2)
        acols = [self.rays[i].primitive for i in a_idx]
        bcols = [self.rays[i].primitive for i in b_idx]
        cols = acols + [tuple(-x for x in b) for b in bcols]
        m = len(cols)
        face = None  # the containment test of the common face, once needed
        max_size = min(m, self.rank + 1)
        for size in range(1, max_size + 1):
            for sub in itertools.combinations(range(m), size):
                mat = IntMatrix.from_columns([cols[j] for j in sub], rows=self.rank)
                ker = kernel_columns(mat)
                if ker.cols != 1:
                    continue
                vec = ker.col(0)
                if all(x > 0 for x in vec):
                    z = vec
                elif all(x < 0 for x in vec):
                    z = tuple(-x for x in vec)
                else:
                    continue
                point = [0] * self.rank
                for pos, j in enumerate(sub):
                    if j < len(acols):
                        for r in range(self.rank):
                            point[r] += z[pos] * acols[j][r]
                if face is None:
                    face = self._containment(common)
                if not _in_cone(face, point):
                    return False
        return True

    # ------------------------------------------------------------------
    # serialisation

    def to_doc(self) -> dict:
        dist = [lab for lab in self.divisors if lab in self.distinguished]
        return {
            "rank": self.rank,
            "rays": [{"beta": list(r.beta), "label": self.labels[i]}
                     for i, r in enumerate(self.rays)],
            "maximal_cones": [sorted(c) for c in self.maximal_cones],
            "divisors": list(self.divisors),
            "distinguished": dist,
        }

    @classmethod
    def from_doc(cls, doc) -> "StackyFan":
        if not isinstance(doc, dict):
            raise FanFormatError("fan document must be an object")
        try:
            rank = doc["rank"]
            rays_doc = doc["rays"]
            cones_doc = doc["maximal_cones"]
        except KeyError as exc:
            raise FanFormatError(f"missing field: {exc}") from exc
        if not _is_int(rank):
            raise FanFormatError("rank must be an integer")
        if not isinstance(rays_doc, list) or not isinstance(cones_doc, list):
            raise FanFormatError("rays and maximal_cones must be lists")
        rays = []
        labels = []
        for entry in rays_doc:
            if not isinstance(entry, dict) or "beta" not in entry:
                raise FanFormatError("each ray needs a beta field")
            beta = entry["beta"]
            if not isinstance(beta, list) or not all(map(_is_int, beta)):
                raise FanFormatError("beta must be a list of integers")
            rays.append(Ray(tuple(beta)))
            lab = entry.get("label")
            if lab is not None and not isinstance(lab, str):
                raise FanFormatError("ray label must be a string or null")
            labels.append(lab)
        cones = []
        for c in cones_doc:
            if not isinstance(c, list) or not all(map(_is_int, c)):
                raise FanFormatError("each maximal cone must be a list of ray indices")
            for i in c:
                if not 0 <= i < len(rays):
                    raise FanFormatError(f"cone index {i} out of range")
            cones.append(frozenset(c))
        divisors = doc.get("divisors")
        if divisors is not None:
            if not isinstance(divisors, list) or \
                    not all(isinstance(x, str) for x in divisors):
                raise FanFormatError("divisors must be a list of strings")
            divisors = tuple(divisors)
        distinguished = doc.get("distinguished", [])
        if not isinstance(distinguished, list) or \
                not all(isinstance(x, str) for x in distinguished):
            raise FanFormatError("distinguished must be a list of strings")
        return cls(rank=rank, rays=tuple(rays), maximal_cones=tuple(cones),
                   labels=tuple(labels), divisors=divisors,
                   distinguished=frozenset(distinguished))


def _is_int(x) -> bool:
    """A JSON integer: bool is an int subclass but not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _in_cone(test, point) -> bool:
    """Whether a point passes a `StackyFan._containment` test."""
    p_rows, q_rows = test
    return all(not sum(a * x for a, x in zip(row, point)) for row in q_rows) \
        and all(sum(a * x for a, x in zip(row, point)) >= 0 for row in p_rows)
