import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from destackify.exact import (
    FinAbGroup,
    IntMatrix,
    NotFinite,
    cokernel_of_rows,
    hnf_columns,
    hnf_pivots,
    hnf_solve,
    kernel_columns,
    smith_normal_form,
    subgroup_generated,
)
from helpers import random_group, random_matrix, random_unimodular
from oracles import (
    NotGenerating,
    ParentMismatch,
    apply,
    canonical_presentation,
    closure,
    elements,
    intersect_subgroups,
    is_trivial,
    minors_gcd_invariant_factors,
    quotient_by,
    subgroup_as_group,
)

small_matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0 if r else 1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-12, 12), min_size=c, max_size=c),
            min_size=r, max_size=r,
        ).map(lambda rows: IntMatrix.from_rows(rows, cols=c))))


def check_snf(m: IntMatrix) -> None:
    snf = smith_normal_form(m)
    assert (snf.u @ m @ snf.v).entries == snf.d.entries
    assert abs(snf.u.det()) == 1
    assert abs(snf.v.det()) == 1
    diag = snf.diagonal
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert snf.d.entries[i][j] == 0
    for i, d in enumerate(diag):
        assert d >= 0
        if i and diag[i]:
            assert diag[i - 1] != 0
            assert diag[i] % diag[i - 1] == 0


class TestSmithNormalForm:
    def test_diag_2_3(self):
        snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert snf.diagonal == (1, 6)
        check_snf(IntMatrix.from_rows([[2, 0], [0, 3]]))

    def test_identity(self):
        snf = smith_normal_form(IntMatrix.identity(2))
        assert snf.diagonal == (1, 1)

    def test_upper_triangular(self):
        snf = smith_normal_form(IntMatrix.from_rows([[1, 1], [0, 2]]))
        assert snf.diagonal == (1, 2)

    def test_zero_and_empty(self):
        assert smith_normal_form(IntMatrix.zeros(2, 3)).diagonal == (0, 0)
        assert smith_normal_form(IntMatrix.zeros(0, 3)).diagonal == ()
        check_snf(IntMatrix.zeros(3, 0))

    def test_against_minors_oracle(self):
        rng = random.Random(17)
        for _ in range(500):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            m = random_matrix(rng, r, c, 20)
            snf = smith_normal_form(m)
            nonzero = tuple(d for d in snf.diagonal if d)
            assert nonzero == minors_gcd_invariant_factors(m)
            check_snf(m)

    def test_invariant_under_unimodular_perturbation(self):
        rng = random.Random(23)
        for _ in range(120):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, 9)
            p = random_unimodular(rng, n)
            q = random_unimodular(rng, n)
            assert smith_normal_form(m).diagonal == \
                smith_normal_form(p @ m @ q).diagonal

    @given(small_matrices)
    def test_properties(self, m):
        check_snf(m)


class TestHermiteColumns:
    @given(small_matrices)
    def test_shape_and_reduction(self, m):
        h = hnf_columns(m)
        pivots = hnf_pivots(h)
        rows = [p for p, _ in pivots]
        assert rows == sorted(rows)
        assert len(set(rows)) == len(rows)
        for j, (prow, pval) in enumerate(pivots):
            assert pval > 0
            for i in range(prow + 1, h.rows):
                assert h.entries[i][j] == 0
            for later in range(j + 1, h.cols):
                assert 0 <= h.entries[prow][later] < pval

    @given(small_matrices)
    def test_idempotent_and_membership(self, m):
        h = hnf_columns(m)
        assert hnf_columns(h).entries == h.entries
        for col in m.columns():
            assert hnf_solve(h, col) is not None

    def test_lattice_invariance(self):
        rng = random.Random(5)
        for _ in range(150):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            m = random_matrix(rng, r, c, 8)
            u = random_unimodular(rng, c)
            assert hnf_columns(m).entries == hnf_columns(m @ u).entries

    def test_kernel(self):
        rng = random.Random(7)
        for _ in range(150):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            m = random_matrix(rng, r, c, 8)
            ker = kernel_columns(m)
            for j in range(ker.cols):
                assert not any(apply(m, ker.col(j)))
            snf = smith_normal_form(m)
            rank = sum(1 for d in snf.diagonal if d)
            assert ker.cols == c - rank


class TestCokernel:
    def test_frozen_examples(self):
        g, images = cokernel_of_rows(IntMatrix.from_rows([(1, 1), (0, 2)]))
        assert g == FinAbGroup(torsion=(2,))
        assert images == ((1,), (1,))

        g, images = cokernel_of_rows(IntMatrix.from_rows([(2, 1), (0, 1)]))
        assert g == FinAbGroup(torsion=(2,))
        assert images == ((1,), (0,))

        g, images = cokernel_of_rows(IntMatrix.identity(2))
        assert g.order() == 1
        assert images == ((), ())

    def test_free_part(self):
        g, images = cokernel_of_rows(IntMatrix.zeros(0, 2))
        assert g == FinAbGroup(free_rank=2)
        assert images == ((1, 0), (0, 1))

    def test_against_quotient_oracle(self):
        rng = random.Random(31)
        checked = 0
        while checked < 120:
            m = random_matrix(rng, 3, 3, 4)
            det = abs(m.det())
            if det == 0 or det > 64:
                continue
            checked += 1
            group, images = cokernel_of_rows(m)
            assert group.order() == det
            # the map e_j -> images[j] kills every relation row
            for row in m.entries:
                acc = group.zero()
                for coeff, img in zip(row, images):
                    acc = group.add(acc, group.smul(coeff, img))
                assert acc == group.zero()
            # and the images generate: surjection + equal order = isomorphism
            assert len(closure(group, images)) == group.order()


class TestCanonicalPresentation:
    def test_frozen_examples(self):
        c = canonical_presentation(FinAbGroup(torsion=(5,)), [(1,), (3,)])
        assert c.entries == ((5, 2), (0, 1))

        c = canonical_presentation(FinAbGroup(), [(), ()])
        assert c.entries == ((1, 0), (0, 1))

        c = canonical_presentation(FinAbGroup(torsion=(2,)), [(1,), (1,)])
        assert c.entries == ((2, 1), (0, 1))

    def test_errors(self):
        with pytest.raises(NotFinite):
            canonical_presentation(FinAbGroup(free_rank=1), [(1,)])
        with pytest.raises(NotGenerating):
            canonical_presentation(FinAbGroup(torsion=(4,)), [(2,)])
        with pytest.raises(NotGenerating):
            canonical_presentation(FinAbGroup(torsion=(2,)), [])

    @staticmethod
    def paper_order_key(c: IntMatrix):
        # rows bottom-to-top are most significant; within a row, left first
        return tuple(c.entries[i] for i in range(c.rows - 1, -1, -1))

    def brute_force_candidates(self, group, elems):
        """All upper-triangular natural presentations of <elems> = group."""
        m = len(elems)
        order = group.order()
        diag_choices = []
        for diag in itertools.product(*[range(1, order + 1)] * m):
            if math.prod(diag) == order:
                diag_choices.append(diag)
        bound = order
        found = []
        for diag in diag_choices:
            above = [(i, j) for j in range(m) for i in range(j)]
            for vals in itertools.product(range(bound + 1), repeat=len(above)):
                c = [[0] * m for _ in range(m)]
                for i in range(m):
                    c[i][i] = diag[i]
                for (i, j), v in zip(above, vals):
                    c[i][j] = v
                ok = True
                for j in range(m):
                    acc = group.zero()
                    for i in range(m):
                        acc = group.add(acc, group.smul(c[i][j], elems[i]))
                    if acc != group.zero():
                        ok = False
                        break
                if ok:
                    found.append(IntMatrix.from_rows(c, cols=m))
        return found

    def test_minimality_oracle(self):
        """The canonical form is the paper-order minimum over all
        natural upper-triangular presentations; exhaustive for small B."""
        rng = random.Random(41)
        cases = []
        for torsion in [(2,), (3,), (4,), (6,), (12,), (2, 2), (2, 4), (2, 2, 2), (3, 3)]:
            group = FinAbGroup(torsion=torsion)
            if group.order() > 12:
                continue
            all_elems = elements(group)
            for m in (1, 2, 3):
                for _ in range(6):
                    elems = [rng.choice(all_elems) for _ in range(m)]
                    if len(closure(group, elems)) == group.order():
                        cases.append((group, tuple(elems)))
        assert len(cases) >= 30
        for group, elems in cases:
            ours = canonical_presentation(group, list(elems))
            candidates = self.brute_force_candidates(group, elems)
            assert ours.entries in [c.entries for c in candidates]
            best = min(candidates, key=self.paper_order_key)
            assert ours.entries == best.entries

    def test_round_trip_through_cokernel(self):
        """Cokernel of the canonical matrix's columns-as-relations
        reproduces the original (group, elems) up to presentation."""
        rng = random.Random(43)
        for _ in range(60):
            group = random_group(rng, max_order=24)
            all_elems = elements(group)
            m = rng.randint(1, 3)
            elems = [rng.choice(all_elems) for _ in range(m)]
            if len(closure(group, elems)) != group.order():
                continue
            c = canonical_presentation(group, elems)
            rows = [c.col(j) for j in range(c.cols)]
            regroup, images = cokernel_of_rows(IntMatrix.from_rows(rows, cols=m)
                                               if rows else IntMatrix.zeros(0, m))
            assert regroup == group
            assert canonical_presentation(regroup, list(images)).entries == c.entries


class TestSubgroups:
    def test_generated_examples(self):
        # Z/4 + Z/2 in invariant-factor coordinates is torsion (2, 4)
        g = FinAbGroup(torsion=(2, 4))
        h = subgroup_generated(g, [(1, 1)])
        assert h.order() == 4
        assert {x for x in elements(g) if h.contains(x)} == \
            {(0, 0), (1, 1), (0, 2), (1, 3)}

        assert subgroup_generated(g, []).order() == 1

        z5 = FinAbGroup(torsion=(5,))
        assert subgroup_generated(z5, [(2,)]).order() == 5

    def test_intersection_examples(self):
        g = FinAbGroup(torsion=(2, 4))
        h1 = subgroup_generated(g, [(0, 2)])
        h2 = subgroup_generated(g, [(1, 1)])
        meet = intersect_subgroups(h1, h2)
        assert meet.order() == 2
        assert meet == subgroup_generated(g, [(0, 2)])

        z5 = FinAbGroup(torsion=(5,))
        assert intersect_subgroups(subgroup_generated(z5, [(1,)]),
                                   subgroup_generated(z5, [(3,)])).order() == 5

        trivial = subgroup_generated(g, [])
        assert intersect_subgroups(h1, trivial).order() == 1

    def test_trivial_with_free_rank(self):
        z = FinAbGroup(free_rank=1)
        assert is_trivial(subgroup_generated(z, []))
        assert is_trivial(subgroup_generated(z, [(0,)]))
        assert not is_trivial(subgroup_generated(z, [(2,)]))
        mixed = FinAbGroup(torsion=(2,), free_rank=1)
        assert is_trivial(subgroup_generated(mixed, [(0, 0)]))
        assert not is_trivial(subgroup_generated(mixed, [(1, 0)]))
        assert is_trivial(intersect_subgroups(subgroup_generated(z, [(1,)]),
                                              subgroup_generated(z, [])))

    def test_parent_mismatch(self):
        h1 = subgroup_generated(FinAbGroup(torsion=(4,)), [(2,)])
        h2 = subgroup_generated(FinAbGroup(torsion=(2,)), [(1,)])
        with pytest.raises(ParentMismatch):
            intersect_subgroups(h1, h2)

    def test_against_enumeration(self):
        rng = random.Random(53)
        for _ in range(120):
            g = random_group(rng)
            all_elems = elements(g)
            gens1 = [rng.choice(all_elems) for _ in range(rng.randint(0, 2))]
            gens2 = [rng.choice(all_elems) for _ in range(rng.randint(0, 2))]
            h1 = subgroup_generated(g, gens1)
            h2 = subgroup_generated(g, gens2)
            set1 = closure(g, gens1)
            set2 = closure(g, gens2)
            assert {x for x in all_elems if h1.contains(x)} == set1
            assert h1.order() == len(set1)
            meet = intersect_subgroups(h1, h2)
            assert {x for x in all_elems if meet.contains(x)} == set1 & set2
            assert meet.order() == len(set1 & set2)
            assert is_trivial(meet) == (len(set1 & set2) == 1)
            # canonical form is generating-set independent
            assert h1 == subgroup_generated(g, list(set1))


class TestQuotients:
    def test_quotient_examples(self):
        g = FinAbGroup(torsion=(2, 4))
        q, images = quotient_by(g, [(1, 1)])
        assert q.order() == 2
        assert images[0] != q.zero() or images[1] != q.zero()

        q, images = quotient_by(g, [])
        assert q == g

    def test_quotient_against_enumeration(self):
        rng = random.Random(61)
        for _ in range(100):
            g = random_group(rng)
            all_elems = elements(g)
            gens = [rng.choice(all_elems) for _ in range(rng.randint(0, 2))]
            q, images = quotient_by(g, gens)
            assert q.order() == g.order() // len(closure(g, gens))
            phi = dict(zip(all_elems, [None] * len(all_elems)))
            for x in all_elems:
                acc = q.zero()
                for coord, img in zip(x, images):
                    acc = q.add(acc, q.smul(coord, img))
                phi[x] = acc
            # surjective homomorphism with kernel <gens>
            assert set(phi.values()) == set(elements(q))
            kernel = {x for x, v in phi.items() if v == q.zero()}
            assert kernel == closure(g, gens)

    def test_subgroup_as_group(self):
        rng = random.Random(67)
        for _ in range(100):
            g = random_group(rng)
            all_elems = elements(g)
            gens = [rng.choice(all_elems) for _ in range(rng.randint(0, 3))]
            h, images = subgroup_as_group(g, gens)
            assert h.order() == len(closure(g, gens))
            assert len(closure(h, images)) == h.order()
            # element orders carry over
            for gen, img in zip(gens, images):
                assert g.element_order(gen) == h.element_order(img)


class TestGroupBasics:
    def test_invariant_factor_validation(self):
        with pytest.raises(ValueError):
            FinAbGroup(torsion=(1,))
        with pytest.raises(ValueError):
            FinAbGroup(torsion=(4, 2))
        with pytest.raises(ValueError):
            FinAbGroup(free_rank=-1)

    def test_element_order(self):
        g = FinAbGroup(torsion=(2, 12))
        assert g.element_order((0, 0)) == 1
        assert g.element_order((1, 6)) == 2
        assert g.element_order((0, 4)) == 3
        assert g.element_order((1, 1)) == 12
        with pytest.raises(NotFinite):
            FinAbGroup(free_rank=1).element_order((1,))

    def test_elements(self):
        g = FinAbGroup(torsion=(2, 4))
        elems = elements(g)
        assert len(elems) == 8
        assert len(set(elems)) == 8
        with pytest.raises(NotFinite):
            elements(FinAbGroup(free_rank=1))

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-5, 5))
    def test_arithmetic(self, x, y, k):
        g = FinAbGroup(torsion=(3, 12))
        a = g.reduce((x, y))
        b = g.reduce((y, x))
        assert g.add(a, g.neg(a)) == g.zero()
        assert g.sub(a, b) == g.add(a, g.neg(b))
        assert g.smul(k, a) == g.reduce((k * a[0], k * a[1]))
