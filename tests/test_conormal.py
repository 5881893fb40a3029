"""Conormal data: the five invariants, and their checks against the
partial order, blow-up transformation and cotangent presentation of
`oracles`."""

import itertools
import random

import pytest

from destackify import conormal
from destackify.conormal import (
    Component,
    ConormalData,
    DivisorialType,
    LabelAbsent,
    NotDivisorial,
    conormal_at,
    divisorial_index,
    divisorial_index_along,
    divisorial_type,
    independency_index,
    relative_generic_order,
    toroidal_index,
)
from destackify.algorithms import divisorialify
from destackify.exact import FinAbGroup, IntMatrix, NotFinite, subgroup_generated
from helpers import klein_fan, mu5_fan, random_conormal, random_fan
from oracles import (
    BadIndex,
    TooLarge,
    blowup_weight_transform,
    canonical_presentation,
    cotangent_presentation,
    dominates,
    intersect_subgroups,
    is_trivial,
    quotient_by_kernel,
    subgroup_as_group,
)

Z2 = FinAbGroup(torsion=(2,))
Z4 = FinAbGroup(torsion=(4,))
Z5 = FinAbGroup(torsion=(5,))
Z6 = FinAbGroup(torsion=(6,))
TRIVIAL = FinAbGroup(torsion=())


def data(group, *comps, ambient=None):
    comps = tuple(Component(tuple(w), m) for w, m in comps)
    if ambient is None:
        ambient = tuple(c.mark for c in comps if c.mark is not None)
    return ConormalData(group, comps, tuple(ambient))


class TestConormalAt:
    def test_mu5(self):
        cd = conormal_at(mu5_fan(), {0, 1})
        assert cd.group.torsion == (5,)
        assert cd.components == (Component((1,), "E1"),
                                 Component((3,), "E2"))
        assert cd.ambient == ("E1", "E2")

    def test_zero_cone(self):
        cd = conormal_at(mu5_fan(), frozenset())
        assert cd.group.order() == 1
        assert cd.components == ()

    def test_klein_partial_cone(self):
        cd = conormal_at(klein_fan(), {0, 2})
        assert cd.group.torsion == (2,)
        assert cd.components == (Component((1,), "E1"),
                                 Component((1,), None))

    def test_distinct_marks_enforced(self):
        with pytest.raises(ValueError):
            data(Z2, ((1,), "E1"), ((0,), "E1"))

    def test_mark_must_be_ambient(self):
        with pytest.raises(ValueError):
            ConormalData(Z2, (Component((1,), "E9"),), ("E1",))


class TestIndependencyIndex:
    def test_mu5(self):
        assert independency_index(data(Z5, ((1,), "E1"), ((3,), "E2"))) == 2

    def test_trivial_group(self):
        assert independency_index(data(TRIVIAL)) == 0
        assert independency_index(data(TRIVIAL, ((), None), ((), None))) == 0

    def test_coprime_orders(self):
        assert independency_index(data(Z6, ((3,), None), ((2,), None))) == 0

    def test_zero_weight_always_independent(self):
        assert independency_index(data(Z2, ((0,), None), ((1,), None))) == 0
        assert independency_index(
            data(Z2, ((0,), None), ((1,), None), ((1,), None))) == 2


class TestToroidalIndex:
    def test_klein_example(self):
        cd = conormal_at(klein_fan(), {0, 2})
        assert toroidal_index(cd) == 1

    def test_all_marked(self):
        assert toroidal_index(data(Z5, ((1,), "E1"), ((3,), "E2"))) == 0

    def test_irrelevant_residual(self):
        assert toroidal_index(data(Z2, ((0,), None))) == 0


class TestDivisorialIndex:
    def test_no_marks(self):
        assert divisorial_index(data(Z2, ((1,), None), ((1,), None))) == 2

    def test_klein_full_cone_divisorial(self):
        cd = conormal_at(klein_fan(), {0, 1, 2})
        assert cd.group.torsion == (2, 2)
        assert divisorial_index(cd) == 0

    def test_all_marked(self):
        assert divisorial_index(data(Z4, ((1,), "E1"), ((2,), "E2"))) == 0

    def test_residual_outside_span(self):
        cd = data(Z4, ((2,), "E1"), ((1,), None))
        assert divisorial_index(cd) == 1


class TestDivisorialType:
    def test_mu5(self):
        dt = divisorial_type(data(Z5, ((1,), "E1"), ((3,), "E2")))
        assert dt.canonical == IntMatrix.from_rows([(5, 2), (0, 1)])

    def test_independent_divisors_identity(self):
        dt = divisorial_type(data(Z2, ((1,), "E1")))
        assert dt == DivisorialType(IntMatrix.identity(1))
        dt = divisorial_type(data(Z6, ((3,), "E1"), ((2,), "E2")))
        assert dt == DivisorialType(IntMatrix.identity(2))
        assert dt.size == 0

    def test_pair_of_halves(self):
        dt = divisorial_type(data(Z2, ((1,), "E1"), ((1,), "E2")))
        assert dt.canonical == IntMatrix.from_rows([(2, 1), (0, 1)])

    def test_residual_components_do_not_enter(self):
        a = divisorial_type(data(Z4, ((1,), "E1"), ((1,), None),
                                 ambient=("E1",)))
        b = divisorial_type(data(Z4, ((1,), "E1"), ((3,), None),
                                 ambient=("E1",)))
        assert a == b

    def test_unmarked_ambient_label_pads_identity(self):
        small = divisorial_type(data(Z2, ((1,), "E1"), ((1,), "E2")))
        grown = divisorial_type(data(Z2, ((1,), "E1"), ((1,), "E2"),
                                     ambient=("E1", "E2", "E3")))
        assert grown.canonical == small.canonical
        assert grown == small
        assert hash(grown) == hash(small)
        assert not grown < small and not small < grown

    def test_total_order(self):
        one = divisorial_type(data(Z2, ((1,), "E1")))
        pair = divisorial_type(data(Z2, ((1,), "E1"), ((1,), "E2")))
        five = divisorial_type(data(Z5, ((1,), "E1"), ((3,), "E2")))
        assert one < pair < five
        assert max([five, one, pair]) is five

    def test_order_is_on_high_rows_first(self):
        a = DivisorialType(IntMatrix.from_rows([(4, 1), (0, 2)]))
        b = DivisorialType(IntMatrix.from_rows([(2, 1), (0, 3)]))
        # bottom rows (0,2) vs (0,3) decide, top rows would reverse it
        assert a < b

    def test_equality_hash_and_order_agree(self):
        # One representative per matrix, and beside it the type built
        # from that matrix padded by two identity rows.
        rng = random.Random(44)
        cases = list(fan_conormal_data(40, 15)) + \
            [random_conormal(rng) for _ in range(150)]
        reps = {}
        for cd in cases:
            try:
                t = divisorial_type(cd)
            except NotFinite:
                continue
            reps.setdefault(t.canonical, t)
        types = list(reps.values())
        assert len(types) > 20 and max(t.size for t in types) > 2
        padded = [DivisorialType(t.padded(t.size + 2)) for t in types]
        assert padded == types
        for a, b in itertools.product(types + padded, repeat=2):
            assert (a == b) == (not a < b and not b < a)
            if a == b:
                assert hash(a) == hash(b)


def intersection_route(cd):
    """Per component, whether its cyclic subgroup meets the subgroup of
    the other components trivially, decided by subgroup intersection."""
    out = []
    for i, c in enumerate(cd.components):
        own = subgroup_generated(cd.group, [c.weight])
        rest = subgroup_generated(
            cd.group,
            [d.weight for j, d in enumerate(cd.components) if j != i])
        out.append(c.weight == cd.group.zero()
                   or is_trivial(intersect_subgroups(own, rest)))
    return tuple(out)


def presentation_route(cd):
    """The divisorial type's matrix through the subgroup presented on
    its defining tuple and the canonical presentation of that group."""
    independent = intersection_route(cd)
    by_mark = {c.mark: i for i, c in enumerate(cd.components)
               if c.mark is not None}
    b = [cd.components[by_mark[lab]].weight
         if lab in by_mark and not independent[by_mark[lab]]
         else cd.group.zero()
         for lab in cd.ambient]
    return canonical_presentation(*subgroup_as_group(cd.group, b))


def fan_conormal_data(seed, count):
    """Conormal data on every cone of seeded random fans and of their
    divisorialify finals."""
    rng = random.Random(seed)
    for _ in range(count):
        f = random_fan(rng)
        for fan in (f, divisorialify(f).final):
            for c in fan.cones():
                yield conormal_at(fan, c)


def free_rank_conormal(rng):
    """`random_conormal` data over its group times Z or Z^2, each weight
    given small free coordinates."""
    cd = random_conormal(rng)
    free = rng.randint(1, 2)
    comps = tuple(
        Component(c.weight + tuple(rng.choice((0, 0, 1, -2, 3))
                                   for _ in range(free)), c.mark)
        for c in cd.components)
    return ConormalData(FinAbGroup(cd.group.torsion, free), comps, cd.ambient)


class TestOneRoute:
    """The divisorial type from one relation lattice and independence
    from `ConormalData.independent` agree with the reference routes."""

    @pytest.mark.parametrize("source", ["random_conormal", "random_fan"])
    def test_against_reference_routes(self, source):
        if source == "random_conormal":
            rng = random.Random(39)
            cases = [random_conormal(rng) for _ in range(150)]
        else:
            cases = list(fan_conormal_data(40, 15))
        nontrivial = 0
        for cd in cases:
            assert cd.independent == intersection_route(cd)
            assert divisorial_type(cd) == \
                DivisorialType(presentation_route(cd))
            nontrivial += divisorial_type(cd).size > 0
        assert nontrivial

    def test_free_rank(self):
        z = FinAbGroup(free_rank=1)
        dependent = data(z, ((1,), "E1"), ((2,), "E2"))
        assert dependent.independent == intersection_route(dependent) == \
            (False, False)
        with pytest.raises(NotFinite):
            divisorial_type(dependent)
        with pytest.raises(NotFinite):
            presentation_route(dependent)
        # Zero entries leave a finite group.
        mixed = data(z, ((0,), "E1"), ((1,), None), ambient=("E1", "E2"))
        assert mixed.independent == intersection_route(mixed) == \
            (True, True)
        assert presentation_route(mixed) == IntMatrix.identity(2)
        assert divisorial_type(mixed) == \
            DivisorialType(presentation_route(mixed))

    def test_nonzero_weight_beside_zero_over_free_rank(self):
        cd = ConormalData(FinAbGroup(free_rank=1),
                          (Component((1,), None), Component((0,), None)), ())
        assert cd.independent == (True, True)
        assert independency_index(cd) == 0

    def test_independence_reads_one_relation_lattice(self, monkeypatch):
        rng = random.Random(43)
        cases = [random_conormal(rng) for _ in range(100)] + \
            [free_rank_conormal(rng) for _ in range(60)]
        expected = [intersection_route(cd) for cd in cases]

        def refuse(*args):
            raise AssertionError("subgroup_generated called")

        real = conormal.relation_lattice
        lattices = []

        def counted(group, elems):
            lattices.append(group)
            return real(group, elems)

        monkeypatch.setattr(conormal, "subgroup_generated", refuse)
        monkeypatch.setattr(conormal, "relation_lattice", counted)
        for cd, want in zip(cases, expected):
            before = len(lattices)
            assert cd.independent == cd.independent == want
            assert len(lattices) == before + 1
        assert any(cd.group.free_rank and False in cd.independent
                   for cd in cases)


class TestDivisorialIndexAlong:
    def test_z4_example(self):
        cd = data(Z4, ((1,), "E1"), ((2,), None), ((3,), None))
        assert divisorial_index_along(cd, "E1") == 5

    def test_zero_residuals(self):
        cd = data(Z4, ((1,), "E1"), ((0,), None))
        assert divisorial_index_along(cd, "E1") == 0

    def test_z2_example(self):
        cd = data(Z2, ((1,), "E1"), ((1,), None))
        assert divisorial_index_along(cd, "E1") == 1

    def test_other_marks_absorb(self):
        cd = data(Z4, ((1,), "E1"), ((2,), "E2"), ((3,), None))
        # modulo <2>, weight 3 needs a single copy of weight 1
        assert divisorial_index_along(cd, "E1") == 1

    def test_requires_divisorial(self):
        cd = data(Z2, ((1,), None))
        with pytest.raises(NotDivisorial):
            divisorial_index_along(cd, "E1")

    def test_label_absent(self):
        cd = data(Z2, ((1,), "E1"))
        with pytest.raises(LabelAbsent):
            divisorial_index_along(cd, "E2")


class TestRelativeGenericOrder:
    def test_single_mark(self):
        assert relative_generic_order(data(Z2, ((1,), "E1")), "E1") == 2

    def test_zero_weight_mark(self):
        cd = data(Z2, ((0,), "E1"))
        assert relative_generic_order(cd, "E1") == 1

    def test_mu5_along_e1(self):
        cd = data(Z5, ((1,), "E1"), ((3,), "E2"))
        assert relative_generic_order(cd, "E1") == 1
        assert relative_generic_order(cd, "E2") == 1

    def test_z4_along_generator(self):
        cd = data(Z4, ((1,), "E1"), ((2,), "E2"))
        assert relative_generic_order(cd, "E1") == 2
        assert relative_generic_order(cd, "E2") == 1

    def test_label_absent(self):
        with pytest.raises(LabelAbsent):
            relative_generic_order(data(Z2, ((1,), "E1")), "E7")


class TestDominates:
    def test_mu5_dominates_trivial(self):
        hi = data(Z5, ((1,), "E1"), ((3,), "E2"))
        lo = data(TRIVIAL, ((), None), ((), None), ambient=("E1", "E2"))
        assert dominates(hi, lo)

    def test_reflexive(self):
        rng = random.Random(31)
        for _ in range(20):
            cd = random_conormal(rng, max_order=16)
            assert dominates(cd, cd)

    def test_weight_multiset_obstruction(self):
        hi = data(Z2, ((1,), None), ((1,), None), ambient=())
        lo = data(Z2, ((1,), None), ((0,), None), ambient=())
        assert not dominates(hi, lo)

    def test_kernel_generation_obstruction(self):
        # the quotient Z/4 -> Z/2 kills no weight value, so its kernel
        # is not generated by dying weights
        hi = data(Z4, ((1,), "E1"))
        lo = data(Z2, ((1,), "E1"), ambient=("E1",))
        assert not dominates(hi, lo)

    def test_quotient_with_dying_weight(self):
        hi = data(Z4, ((1,), "E1"), ((2,), None))
        lo = data(Z2, ((1,), "E1"), ((0,), None), ambient=("E1",))
        assert dominates(hi, lo)

    def test_dropped_mark_must_die(self):
        hi = data(Z2, ((1,), "E1"), ((1,), None))
        lo = data(Z2, ((1,), None), ((1,), None), ambient=("E1",))
        assert not dominates(hi, lo)
        lo_dead = data(TRIVIAL, ((), None), ((), None), ambient=("E1",))
        assert dominates(hi, lo_dead)

    def test_component_count_must_agree(self):
        hi = data(Z2, ((1,), None), ((0,), None), ambient=())
        lo = data(Z2, ((1,), None), ambient=())
        assert not dominates(hi, lo)

    def test_ambient_mismatch(self):
        hi = data(Z2, ((1,), "E1"))
        lo = data(Z2, ((1,), "E2"))
        with pytest.raises(ValueError):
            dominates(hi, lo)

    def test_too_large(self):
        big = FinAbGroup(torsion=(101, 101))
        hi = ConormalData(big, (), ())
        with pytest.raises(TooLarge):
            dominates(hi, hi)

    def test_transitive_on_random_chains(self):
        rng = random.Random(32)
        for _ in range(15):
            top = random_conormal(rng, max_order=12, max_components=3)
            vals = sorted({c.weight for c in top.components})
            if not vals:
                continue
            k1 = [vals[rng.randrange(len(vals))]]
            mid = quotient_by_kernel(top, k1, keep_labels=[
                m for m in top.marks
                if not subgroup_contains(top, k1, top.weight_of(m))])
            assert dominates(top, mid)
            low = quotient_by_kernel(
                mid, [c.weight for c in mid.components], keep_labels=[])
            assert dominates(mid, low)
            assert dominates(top, low)


def subgroup_contains(cd, gens, element) -> bool:
    from destackify.exact import subgroup_generated

    return subgroup_generated(cd.group, gens).contains(element)


class TestQuotientByKernel:
    def test_full_quotient_is_trivial(self):
        cd = data(Z5, ((1,), "E1"), ((3,), "E2"))
        q = quotient_by_kernel(cd, [(1,)], keep_labels=[])
        assert q.group.order() == 1
        assert all(c.mark is None for c in q.components)
        assert q.ambient == cd.ambient
        assert dominates(cd, q)

    def test_partial_quotient(self):
        cd = data(Z4, ((1,), "E1"), ((2,), None))
        q = quotient_by_kernel(cd, [(2,)])
        assert q.group.order() == 2
        assert q.components == (Component((1,), "E1"),
                                Component((0,), None))
        assert dominates(cd, q)

    def test_quotients_are_dominated(self):
        rng = random.Random(33)
        for _ in range(25):
            cd = random_conormal(rng, max_order=16, max_components=3)
            vals = [c.weight for c in cd.components]
            if not vals:
                continue
            gens = [v for v in vals if rng.random() < 0.5]
            keep = [m for m in cd.marks
                    if not subgroup_contains(cd, gens, cd.weight_of(m))]
            q = quotient_by_kernel(cd, gens, keep_labels=keep)
            assert dominates(cd, q)


class TestBlowupWeightTransform:
    def test_mu5_first_chart(self):
        cd = data(Z5, ((1,), "E1"), ((3,), "E2"))
        out = blowup_weight_transform(cd, {0, 1}, 0)
        assert [c.weight for c in out.components] == [(1,), (2,)]
        assert out.components[0].mark == "e1"
        assert out.components[1].mark == "E2"
        assert out.ambient == ("E1", "E2", "e1")

    def test_mu5_second_chart(self):
        cd = data(Z5, ((1,), "E1"), ((3,), "E2"))
        out = blowup_weight_transform(cd, {0, 1}, 1)
        assert [c.weight for c in out.components] == [(3,), (3,)]
        assert out.components[0].mark == "E1"
        assert out.components[1].mark == "e1"

    def test_singleton_centre(self):
        cd = data(Z5, ((1,), "E1"), ((3,), "E2"))
        out = blowup_weight_transform(cd, {1}, 1)
        assert [c.weight for c in out.components] == [(1,), (3,)]
        assert out.components[1].mark == "e1"

    def test_explicit_label(self):
        cd = data(Z5, ((1,), "E1"), ((3,), "E2"))
        out = blowup_weight_transform(cd, {0, 1}, 0, new_label="F")
        assert out.components[0].mark == "F"
        with pytest.raises(ValueError):
            blowup_weight_transform(cd, {0, 1}, 0, new_label="E2")

    def test_residuals_stay_residual(self):
        cd = data(Z4, ((1,), "E1"), ((3,), None))
        out = blowup_weight_transform(cd, {0, 1}, 0)
        assert out.components[1].mark is None
        assert out.components[1].weight == (2,)

    def test_bad_indices(self):
        cd = data(Z5, ((1,), "E1"), ((3,), "E2"))
        with pytest.raises(BadIndex):
            blowup_weight_transform(cd, set(), 0)
        with pytest.raises(BadIndex):
            blowup_weight_transform(cd, {0, 1}, 2)
        with pytest.raises(BadIndex):
            blowup_weight_transform(cd, {0, 7}, 0)


class TestCotangentPresentation:
    def test_mu5(self):
        cp = cotangent_presentation(data(Z5, ((1,), "E1"), ((3,), "E2")))
        assert cp.orders == (5,)
        assert cp.coefficients == IntMatrix.from_rows([(1, 3)])
        assert cp.matrix() == IntMatrix.from_rows([(1, 3, 5)])
        assert cp.render() == [["x1", "3*x2", "5"]]

    def test_klein(self):
        group = FinAbGroup(torsion=(2, 2))
        cd = data(group, ((1, 0), "E1"), ((0, 1), "E2"), ((1, 1), None))
        cp = cotangent_presentation(cd)
        assert cp.matrix() == IntMatrix.from_rows(
            [(1, 0, 1, 2, 0), (0, 1, 1, 0, 2)])
        assert cp.render() == [["x1", "0", "x3", "2", "0"],
                               ["0", "x2", "x3", "0", "2"]]

    def test_trivial_group(self):
        cd = data(TRIVIAL, ((), None), ((), None))
        cp = cotangent_presentation(cd)
        assert cp.rows == 0
        assert cp.cols == 2
        assert cp.render() == []

    def test_weight_multiset_identity(self):
        rng = random.Random(34)
        for _ in range(40):
            cd = random_conormal(rng)
            cp = cotangent_presentation(cd)
            assert sorted(cp.column_weights()) == \
                sorted(c.weight for c in cd.components)


def five_invariants(cd):
    """All invariant values, with the per-label ones keyed by label."""
    vals = {
        "independency": independency_index(cd),
        "toroidal": toroidal_index(cd),
        "divisorial": divisorial_index(cd),
        "type": divisorial_type(cd),
        "relative": {m: relative_generic_order(cd, m) for m in cd.marks},
    }
    if vals["divisorial"] == 0:
        vals["along"] = {m: divisorial_index_along(cd, m) for m in cd.marks}
    return vals


class TestInvariantProperties:
    def test_p1_zero_residuals_change_nothing(self):
        rng = random.Random(35)
        for _ in range(60):
            cd = random_conormal(rng)
            padded = ConormalData(
                cd.group,
                cd.components + tuple(
                    Component(cd.group.zero(), None)
                    for _ in range(rng.randint(1, 3))),
                cd.ambient)
            assert five_invariants(cd) == five_invariants(padded)

    def test_p2_group_restriction_changes_nothing(self):
        rng = random.Random(36)
        for _ in range(60):
            cd = random_conormal(rng)
            sub, images = subgroup_as_group(
                cd.group, [c.weight for c in cd.components])
            small = ConormalData(
                sub,
                tuple(Component(w, c.mark)
                      for w, c in zip(images, cd.components)),
                cd.ambient)
            assert five_invariants(cd) == five_invariants(small)

    def test_semicontinuity_along_faces(self):
        rng = random.Random(37)
        for _ in range(25):
            f = random_fan(rng)
            for sigma in f.cones():
                big = five_invariants(conormal_at(f, sigma))
                for i in sigma:
                    small = five_invariants(conormal_at(f, sigma - {i}))
                    assert small["independency"] <= big["independency"]
                    assert small["toroidal"] <= big["toroidal"]
                    assert small["divisorial"] <= big["divisorial"]
                    assert small["type"] <= big["type"]

    def test_chart_transform_consistency(self):
        rng = random.Random(38)
        checked = 0
        for _ in range(20):
            f = random_fan(rng)
            centres = [c for c in f.cones() if len(c) >= 2]
            if not centres:
                continue
            centre = centres[rng.randrange(len(centres))]
            sub, eps = f.stacky_star_subdivision(centre)
            sub = sub.with_ray_label(eps, "e1")
            for m in f.maximal_cones:
                if not centre <= m:
                    continue
                old = conormal_at(f, m)
                order = sorted(m)
                for rho in sorted(centre):
                    new_cone = m - {rho} | {eps}
                    got = five_invariants(conormal_at(sub, new_cone))
                    want = five_invariants(blowup_weight_transform(
                        old, {order.index(i) for i in centre},
                        order.index(rho), new_label="e1"))
                    assert got == want
                    checked += 1
        assert checked >= 10
