"""Exact integer linear algebra and finite abelian group arithmetic.

Dense matrices over Python's arbitrary-precision integers, Smith and
Hermite normal forms with transformation tracking, and the small algebra
of finitely generated abelian groups (cokernels, relation lattices,
generated subgroups and membership) that the fan and invariant layers
are built on.

Everything in this module is immutable and pure; no operation mutates
its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ExactError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class NotFinite(ExactError):
    """An operation requiring a finite group met positive free rank."""


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix; rows and cols are explicit so that empty
    shapes (0 x n, n x 0) stay well defined."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            if not rows:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "IntMatrix":
        columns = [tuple(int(x) for x in col) for col in columns]
        if rows is None:
            if not columns:
                raise ValueError("rows is required for a matrix with no columns")
            rows = len(columns[0])
        for col in columns:
            if len(col) != rows:
                raise ValueError("ragged matrix columns")
        entries = tuple(tuple(col[i] for col in columns) for i in range(rows))
        return cls(rows, len(columns), entries)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.col(j) for j in range(self.cols))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix dimension mismatch")
        out = []
        for i in range(self.rows):
            row = self.entries[i]
            out.append(tuple(sum(row[k] * other.entries[k][j] for k in range(self.cols))
                             for j in range(other.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(a + b for a, b in zip(self.entries, other.entries)))

    def neg(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(-x for x in row) for row in self.entries))

    def det(self) -> int:
        """Determinant by the Bareiss fraction-free elimination.

        Intermediate values are minors of the input, so they stay exact
        and reasonably sized even for large entries.
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith decomposition u @ m @ v = d with u, v unimodular and d the
    diagonal of invariant factors (non-negative, each dividing the next
    nonzero one)."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        k = min(self.d.rows, self.d.cols)
        return tuple(self.d.entries[i][i] for i in range(k))


def smith_normal_form(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form with transformation matrices.

    The pivot at each stage is the remaining entry of smallest nonzero
    absolute value (first in row-major order on ties), moved to the
    diagonal by a row and a column swap.  The pivot's row and column
    are cleared with extended-gcd rotations, and divisibility of the
    trailing block is restored by folding an offending column into the
    pivot column.  Deterministic: identical inputs give identical u, v.
    """
    r, c = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def add_row(dst: int, src: int, k: int) -> None:
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(dst: int, src: int, k: int) -> None:
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def rotate_rows(t: int, i: int) -> None:
        # leaves a[t][t] = gcd > 0, a[i][t] = 0; determinant of the 2x2 block is 1
        p, q = a[t][t], a[i][t]
        g, x, y = _xgcd(p, q)
        pp, qq = p // g, q // g
        a[t], a[i] = ([x * s + y * w for s, w in zip(a[t], a[i])],
                      [-qq * s + pp * w for s, w in zip(a[t], a[i])])
        u[t], u[i] = ([x * s + y * w for s, w in zip(u[t], u[i])],
                      [-qq * s + pp * w for s, w in zip(u[t], u[i])])

    def rotate_cols(t: int, j: int) -> None:
        p, q = a[t][t], a[t][j]
        g, x, y = _xgcd(p, q)
        pp, qq = p // g, q // g
        for row in a:
            row[t], row[j] = x * row[t] + y * row[j], -qq * row[t] + pp * row[j]
        for row in v:
            row[t], row[j] = x * row[t] + y * row[j], -qq * row[t] + pp * row[j]

    def clear(t: int) -> None:
        while (any(a[i][t] for i in range(t + 1, r))
               or any(a[t][j] for j in range(t + 1, c))):
            for i in range(t + 1, r):
                if a[i][t]:
                    if a[i][t] % a[t][t] == 0:
                        add_row(i, t, -(a[i][t] // a[t][t]))
                    else:
                        rotate_rows(t, i)
            for j in range(t + 1, c):
                if a[t][j]:
                    if a[t][j] % a[t][t] == 0:
                        add_col(j, t, -(a[t][j] // a[t][t]))
                    else:
                        rotate_cols(t, j)

    for t in range(min(r, c)):
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        pi, pj = best
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        while True:
            clear(t)
            bad = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % a[t][t]:
                        bad = j
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_col(t, bad, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    return SnfDecomposition(
        d=IntMatrix.from_rows(a, cols=c) if r else IntMatrix.zeros(0, c),
        u=IntMatrix.from_rows(u, cols=r) if r else IntMatrix.zeros(0, 0),
        v=IntMatrix.from_rows(v, cols=c) if c else IntMatrix.zeros(0, 0),
    )


def kernel_columns(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel {x : m @ x = 0}, as columns.

    The basis spans the kernel as a saturated sublattice (it is a block
    of columns of a unimodular matrix).
    """
    snf = smith_normal_form(m)
    diag = snf.diagonal
    cols = []
    for j in range(m.cols):
        if j >= len(diag) or diag[j] == 0:
            cols.append(snf.v.col(j))
    return IntMatrix.from_columns(cols, rows=m.cols)


def hnf_columns(m: IntMatrix) -> IntMatrix:
    """Canonical column Hermite form of the lattice spanned by m's columns.

    Columns are echelonised against rows from the bottom up.  In the
    result, column j has its lowest nonzero entry (the pivot) at row
    p_j with p_0 < p_1 < ...; pivots are positive; and within each
    pivot row the entries of the later columns are reduced into
    [0, pivot).  For a full-rank lattice in Z^m this is the unique
    upper-triangular basis with positive diagonal and the entries right
    of the diagonal in row i reduced into [0, c_ii).  The result is a
    lattice invariant: it does not depend on the generating columns.
    """
    k = m.rows
    work = [list(col) for col in m.columns() if any(col)]
    placed: list[tuple[int, list[int]]] = []
    for row in range(k - 1, -1, -1):
        active = [colv for colv in work if colv[row]]
        rest = [colv for colv in work if not colv[row]]
        if not active:
            work = rest
            continue
        piv = active[0]
        for colv in active[1:]:
            p, q = piv[row], colv[row]
            g, x, y = _xgcd(p, q)
            pp, qq = p // g, q // g
            new_piv = [x * s + y * w for s, w in zip(piv, colv)]
            new_col = [-qq * s + pp * w for s, w in zip(piv, colv)]
            piv = new_piv
            if any(new_col):
                rest.append(new_col)
        if piv[row] < 0:
            piv = [-s for s in piv]
        placed.append((row, piv))
        work = rest
    placed.reverse()
    for jdx in range(len(placed)):
        _, jcol = placed[jdx]
        for idx in range(jdx - 1, -1, -1):
            prow, pcol = placed[idx]
            q = jcol[prow] // pcol[prow]
            if q:
                for s in range(k):
                    jcol[s] -= q * pcol[s]
    return IntMatrix.from_columns([col for _, col in placed], rows=k)


def hnf_pivots(basis: IntMatrix) -> tuple[tuple[int, int], ...]:
    """(row, value) of each column's pivot in a column Hermite basis."""
    out = []
    for j in range(basis.cols):
        col = basis.col(j)
        row = max(i for i in range(basis.rows) if col[i])
        out.append((row, col[row]))
    return tuple(out)


def hnf_solve(basis: IntMatrix, target) -> tuple[int, ...] | None:
    """Integer coordinates of target in a column Hermite basis, or None.

    Back-substitution from the highest pivot row down; exactness of
    every division is what decides membership.
    """
    t = [int(x) for x in target]
    if len(t) != basis.rows:
        raise ValueError("vector length mismatch")
    pivots = hnf_pivots(basis)
    coeffs = [0] * basis.cols
    for j in range(basis.cols - 1, -1, -1):
        prow, pval = pivots[j]
        if t[prow] % pval:
            return None
        q = t[prow] // pval
        coeffs[j] = q
        if q:
            col = basis.col(j)
            t = [x - q * y for x, y in zip(t, col)]
    if any(t):
        return None
    return tuple(coeffs)


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group in invariant-factor form.

    Elements are integer tuples of length len(torsion) + free_rank,
    torsion coordinates first; coordinate i of the torsion block is
    taken modulo torsion[i].  Factors equal to 1 are never stored.
    """

    torsion: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self) -> None:
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if i and d % self.torsion[i - 1]:
                raise ValueError("invariant factors must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("negative free rank")

    @property
    def ncoords(self) -> int:
        return len(self.torsion) + self.free_rank

    @property
    def moduli(self) -> tuple[int, ...]:
        # 0 marks a free coordinate
        return self.torsion + (0,) * self.free_rank

    def order(self) -> int:
        if self.free_rank:
            raise NotFinite("group has positive free rank")
        return math.prod(self.torsion)

    def reduce(self, vector) -> tuple[int, ...]:
        vec = tuple(int(x) for x in vector)
        if len(vec) != self.ncoords:
            raise ValueError("element length mismatch")
        return tuple(x % d if d else x for x, d in zip(vec, self.moduli))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ncoords

    def add(self, a, b) -> tuple[int, ...]:
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def neg(self, a) -> tuple[int, ...]:
        return self.reduce(tuple(-x for x in a))

    def sub(self, a, b) -> tuple[int, ...]:
        return self.reduce(tuple(x - y for x, y in zip(a, b)))

    def smul(self, k: int, a) -> tuple[int, ...]:
        return self.reduce(tuple(k * x for x in a))

    def element_order(self, a) -> int:
        a = self.reduce(a)
        out = 1
        for x, d in zip(a, self.moduli):
            if d == 0:
                if x:
                    raise NotFinite("element has infinite order")
                continue
            out = math.lcm(out, d // math.gcd(d, x))
        return out


def cokernel_of_rows(m: IntMatrix) -> tuple[FinAbGroup, tuple[tuple[int, ...], ...]]:
    """Z^cols modulo the span of m's rows, with the classes of e_1..e_cols.

    The isomorphism to invariant-factor form sends e_j to row j of the
    Smith column transform; coordinates with invariant factor 1 are
    dropped, zero factors become free coordinates.
    """
    snf = smith_normal_form(m)
    diag = snf.diagonal
    c = m.cols
    factors = [diag[j] if j < len(diag) else 0 for j in range(c)]
    torsion = tuple(d for d in factors if d >= 2)
    free = sum(1 for d in factors if d == 0)
    group = FinAbGroup(torsion=torsion, free_rank=free)
    keep = [j for j, d in enumerate(factors) if d != 1]
    images = []
    for i in range(c):
        row = snf.v.entries[i] if c else ()
        images.append(tuple(row[j] % factors[j] if factors[j] else row[j] for j in keep))
    return group, tuple(images)


def _relation_columns(group: FinAbGroup) -> IntMatrix:
    """Columns d_i * e_i for the torsion coordinates (empty for free ones)."""
    k = group.ncoords
    cols = [tuple(d if i == j else 0 for i in range(k))
            for j, d in enumerate(group.torsion)]
    return IntMatrix.from_columns(cols, rows=k)


def relation_lattice(group: FinAbGroup, elems) -> IntMatrix:
    """Column basis of {c in Z^m : sum c_i * elems_i = 0 in group}."""
    m = len(elems)
    k = group.ncoords
    if m == 0:
        return IntMatrix.zeros(0, 0)
    gens = IntMatrix.from_columns([group.reduce(e) for e in elems], rows=k)
    rel = _relation_columns(group)
    combined = gens.hstack(rel.neg()) if rel.cols else gens
    ker = kernel_columns(combined)
    proj = IntMatrix.from_rows(ker.entries[:m], cols=ker.cols)
    return hnf_columns(proj)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a FinAbGroup, stored as the canonical column Hermite
    basis of its preimage lattice in the coordinate space Z^ncoords.

    The preimage always contains the relation lattice of the parent, so
    equality of (parent, basis) is equality of subgroups.
    """

    parent: FinAbGroup
    basis: IntMatrix

    def contains(self, element) -> bool:
        vec = tuple(int(x) for x in element)
        if len(vec) != self.parent.ncoords:
            raise ValueError("element length mismatch")
        if self.basis.cols == 0:
            return not any(vec)
        return hnf_solve(self.basis, vec) is not None

    def order(self) -> int:
        t = len(self.parent.torsion)
        pivots = hnf_pivots(self.basis)
        if self.basis.cols != t or any(row >= t for row, _ in pivots):
            raise NotFinite("subgroup has positive free rank")
        den = math.prod(val for _, val in pivots)
        return self.parent.order() // den


def subgroup_generated(group: FinAbGroup, gens) -> Subgroup:
    """Smallest subgroup containing gens, in canonical form."""
    k = group.ncoords
    cols = [group.reduce(g) for g in gens]
    rel = _relation_columns(group)
    mat = IntMatrix.from_columns(list(cols) + list(rel.columns()), rows=k)
    return Subgroup(group, hnf_columns(mat))
