"""Stacky fans: validation, multiplicity, parallelotopes, modifications,
charts, subfans and serialisation."""

import json
import random
from fractions import Fraction

import pytest

from destackify.fans import (
    FanFormatError,
    NonpositiveWeight,
    NotAFan,
    Ray,
    StackyFan,
    UnknownCone,
    UnknownRay,
    ZeroCone,
    _in_cone,
    cone_key,
)
from helpers import (
    klein_fan,
    mu2_fan,
    mu5_fan,
    mu_fan,
    random_cone_columns,
    random_fan,
    random_subfan,
)
from oracles import (
    box_scan_points,
    canonical_presentation,
    cone_contains,
    fraction_coordinates,
    support_contains_point,
)


def fan_of_cone(*betas, rank=None, labels=None):
    rank = rank if rank is not None else len(betas[0])
    return StackyFan(rank=rank, rays=tuple(betas),
                     maximal_cones=(frozenset(range(len(betas))),),
                     labels=labels)


class TestRay:
    def test_primitive_and_multiple(self):
        r = Ray((6, 4))
        assert r.stacky_multiple == 2
        assert r.primitive == (3, 2)

    def test_primitive_ray(self):
        r = Ray((5, 2))
        assert r.stacky_multiple == 1
        assert r.primitive == (5, 2)


class TestValidation:
    def test_mu5_valid(self):
        report = mu5_fan().validate()
        assert report.ok, report.violations

    def test_collinear_rays_in_cone(self):
        f = fan_of_cone((1, 0), (-1, 0))
        report = f.validate()
        assert not report.ok
        assert any("dependent" in v for v in report.violations)

    def test_zero_beta(self):
        f = StackyFan(rank=2, rays=((0, 0), (0, 1)),
                      maximal_cones=(frozenset({0, 1}),))
        report = f.validate()
        assert not report.ok
        assert any("zero beta" in v for v in report.violations)

    def test_improper_intersection(self):
        f = StackyFan(rank=2,
                      rays=((1, 0), (0, 1), (1, 1), (1, -1)),
                      maximal_cones=(frozenset({0, 1}), frozenset({2, 3})))
        report = f.validate()
        assert not report.ok
        assert any("common face" in v for v in report.violations)

    def test_support_must_span(self):
        f = StackyFan(rank=2, rays=((1, 0),),
                      maximal_cones=(frozenset({0}),))
        report = f.validate()
        assert any("span" in v for v in report.violations)

    def test_distinguished_must_be_youngest(self):
        f = mu_fan(5, 2, labels=("E1", "E2"), distinguished=("E1",))
        report = f.validate()
        assert any("youngest" in v for v in report.violations)

    def test_distinguished_suffix_ok(self):
        f = mu_fan(5, 2, labels=("E1", "E2"), distinguished=("E2",))
        assert f.validate().ok

    def test_duplicate_label_within_cone(self):
        f = fan_of_cone((1, 0), (0, 1), labels=("D", "D"))
        report = f.validate()
        assert any("share a divisor label" in v for v in report.violations)

    def test_shared_label_across_cones_allowed(self):
        f = StackyFan(rank=2, rays=((1, 0), (0, 1), (-1, 0)),
                      maximal_cones=(frozenset({0, 1}), frozenset({1, 2})),
                      labels=("D", None, "D"))
        assert f.validate().ok

    @pytest.mark.parametrize("make, violations", [
        (lambda: StackyFan(rank=3, rays=(), maximal_cones=()),
         ("the cones do not span the ambient space",)),
        (lambda: StackyFan(rank=2000, rays=((1,) + (0,) * 1999,),
                           maximal_cones=(frozenset({0}),)),
         ("the cones do not span the ambient space",)),
        (klein_fan, ()),
    ], ids=["empty-rank3", "one-ray-rank2000", "klein"])
    def test_support_rank_bound_needs_no_snf(self, monkeypatch, make,
                                             violations):
        # Both rank tests read the rank off a column Hermite form, so
        # neither builds a rank x rank transform.
        def refuse(m):
            raise AssertionError("smith_normal_form called")

        monkeypatch.setattr("destackify.fans.smith_normal_form", refuse)
        assert make().validate().violations == violations

    def test_duplicate_ray_direction(self):
        f = StackyFan(rank=2, rays=((1, 0), (0, 1), (2, 0)),
                      maximal_cones=(frozenset({0, 1}), frozenset({1, 2})))
        report = f.validate()
        assert any("same ray" in v for v in report.violations)

    def test_random_fans_validate(self):
        rng = random.Random(5)
        for _ in range(40):
            assert random_fan(rng).validate().ok


class TestMultiplicity:
    def test_smooth_cone(self):
        f = fan_of_cone((1, 0), (0, 1))
        assert f.multiplicity({0, 1}) == 1

    def test_mult_two(self):
        f = fan_of_cone((1, 0), (1, 2))
        assert f.multiplicity({0, 1}) == 2

    def test_mult_five(self):
        f = fan_of_cone((1, 0), (1, 5))
        assert f.multiplicity({0, 1}) == 5

    def test_empty_cone(self):
        assert mu5_fan().multiplicity(frozenset()) == 1

    def test_uses_primitive_generators(self):
        # beta multiples must not change the multiplicity
        f = fan_of_cone((2, 0), (0, 3))
        assert f.multiplicity({0, 1}) == 1

    def test_unknown_cone(self):
        with pytest.raises(UnknownCone):
            mu5_fan().multiplicity({0, 5})
        with pytest.raises(UnknownCone):
            fan_of_cone((1, 0), (0, 1)).multiplicity({7})

    def test_root_invariance(self):
        rng = random.Random(11)
        for _ in range(25):
            f = random_fan(rng)
            rooted = f.root_construction(
                {rng.randrange(f.n_rays): rng.randint(1, 4)})
            for c in f.cones():
                assert rooted.multiplicity(c) == f.multiplicity(c)

    def test_face_divisibility(self):
        rng = random.Random(12)
        for _ in range(25):
            f = random_fan(rng)
            for c in f.cones():
                m = f.multiplicity(c)
                for i in c:
                    assert m % f.multiplicity(c - {i}) == 0

    def test_against_box_scan(self):
        rng = random.Random(13)
        for _ in range(120):
            rank = rng.randint(1, 4)
            cols = random_cone_columns(rng, rank)
            f = StackyFan(rank=rank,
                          rays=tuple(cols) + tuple(
                              c for c in ((1, 0, 0, 0)[:rank],
                                          (0, 1, 0, 0)[:rank],
                                          (0, 0, 1, 0)[:rank],
                                          (0, 0, 0, 1)[:rank])
                              if c not in cols),
                          maximal_cones=(frozenset(range(len(cols))),),
                          )
            # spanning rays beyond the cone keep validation happy; the
            # cone under test is the first one
            pts = box_scan_points(cols, rank)
            assert pts is not None
            assert f.multiplicity(frozenset(range(len(cols)))) == len(pts)


class TestParallelotope:
    def test_points_example(self):
        f = fan_of_cone((1, 0), (1, 2))
        assert sorted(f.parallelotope_points({0, 1})) == [(0, 0), (1, 1)]

    def test_relative_interior_example(self):
        f = fan_of_cone((1, 0), (1, 2))
        assert f.parallelotope_points({0, 1}, relative_interior=True) == \
            ((1, 1),)

    def test_smooth_relint_empty(self):
        f = fan_of_cone((1, 0), (0, 1))
        assert f.parallelotope_points({0, 1}, relative_interior=True) == ()

    def test_lambdas_reconstruct_points(self):
        f = fan_of_cone((1, 0), (1, 3))
        cone = frozenset({0, 1})
        prims = [f.rays[i].primitive for i in sorted(cone)]
        pairs = f.parallelotope_lambdas(cone)
        assert [p for p, _ in pairs] == list(f.parallelotope_points(cone))
        for point, lam in pairs:
            assert all(0 <= x < 1 for x in lam)
            rebuilt = tuple(
                sum(l * Fraction(p[j]) for l, p in zip(lam, prims))
                for j in range(2))
            assert rebuilt == point

    def test_against_box_scan(self):
        rng = random.Random(14)
        for _ in range(80):
            rank = rng.randint(1, 3)
            cols = random_cone_columns(rng, rank, bound=5)
            f = StackyFan(rank=rank,
                          rays=tuple(cols),
                          maximal_cones=(frozenset(range(len(cols))),))
            got = sorted(f.parallelotope_points(frozenset(range(len(cols)))))
            assert got == box_scan_points(cols, rank)
            for c in f.cones():
                assert f._has_relint(c) == bool(
                    f.parallelotope_points(c, relative_interior=True))


    def test_integer_box_against_box_scan(self):
        # The numerators of `_box`, read back as points sum_i n_i v_i / D,
        # are the scan's point set, for cones of every dimension k <= rank.
        rng = random.Random(18)
        shapes = set()
        for _ in range(60):
            rank = rng.randint(1, 4)
            cols = random_cone_columns(rng, rank, bound=3 if rank == 4 else 5)
            f = StackyFan(rank=rank, rays=tuple(cols),
                          maximal_cones=(frozenset(range(len(cols))),))
            big, ns = f._box(frozenset(range(len(cols))))
            assert len(set(ns)) == len(ns)
            assert all(0 <= x < big for n in ns for x in n)
            scaled = [tuple(sum(x * col[r] for x, col in zip(n, cols))
                            for r in range(rank)) for n in ns]
            assert all(x % big == 0 for p in scaled for x in p)
            assert sorted(tuple(x // big for x in p) for p in scaled) == \
                box_scan_points(cols, rank)
            shapes.add((rank, len(cols)))
        assert (4, 4) in shapes and any(k < rank for rank, k in shapes)


class TestContainment:
    def test_point_against_fraction_solve(self):
        # Points inside the cone, in its span but outside it, and off
        # its span, with rational and integer coordinates.
        rng = random.Random(19)
        kinds = set()
        for _ in range(60):
            rank = rng.randint(1, 4)
            cols = random_cone_columns(rng, rank, bound=4)
            f = fan_of_cone(*cols, rank=rank)
            cone = frozenset(range(len(cols)))
            for _ in range(10):
                coeffs = [Fraction(rng.randint(-2, 6), rng.randint(1, 3))
                          for _ in cols]
                point = [sum(c * col[r] for c, col in zip(coeffs, cols))
                         for r in range(rank)]
                if rng.random() < 0.3:
                    point[rng.randrange(rank)] += rng.choice((-1, 1))
                coords = fraction_coordinates(cols, point)
                kinds.add("off span" if coords is None else
                          "inside" if all(x >= 0 for x in coords) else
                          "outside")
                assert _in_cone(f._containment(cone), point) == \
                    cone_contains(f, cone, point)
        assert kinds == {"inside", "outside", "off span"}

    def test_refines_against_fraction_solve(self):
        def refines(fine, coarse):
            return all(any(all(cone_contains(coarse, m,
                                             fine.rays[i].primitive)
                               for i in c)
                           for m in coarse.maximal_cones)
                       for c in fine.maximal_cones)

        rng = random.Random(20)
        answers = set()
        for _ in range(20):
            f = random_fan(rng)
            centre = max(f.cones(), key=len)
            sub, _ = f.stacky_star_subdivision(centre)
            part = random_subfan(rng, f)
            for a, b in ((sub, f), (f, sub), (part, f), (f, part),
                         (sub, part)):
                expected = refines(a, b)
                assert a.refines(b) == expected
                answers.add(expected)
        assert answers == {True, False}


class TestStarSubdivision:
    def test_two_dim_example(self):
        f = fan_of_cone((1, 0), (1, 2))
        sub, eps = f.stacky_star_subdivision({0, 1})
        assert eps == 2
        assert sub.rays[eps].beta == (2, 2)
        assert set(sub.maximal_cones) == {frozenset({0, 2}),
                                          frozenset({2, 1})}
        assert sub.validate().ok

    def test_three_dim_count(self):
        f = fan_of_cone((1, 0, 0), (0, 1, 0), (1, 1, 2))
        sub, eps = f.stacky_star_subdivision({0, 1, 2})
        assert len(sub.maximal_cones) == 3
        assert all(eps in c for c in sub.maximal_cones)
        assert sub.rays[eps].beta == (2, 2, 2)
        assert sub.validate().ok

    def test_second_star_keeps_multiplicities(self):
        # Two different stars of one fan both give birth to ray 3; the
        # second must not read the first one's memo entries.
        f = StackyFan(rank=2, rays=((1, 0), (1, 3), (-1, 2)),
                      maximal_cones=(frozenset({0, 1}), frozenset({1, 2})))
        g1, _ = f.stacky_star_subdivision({0, 1})
        g2, _ = f.stacky_star_subdivision({1, 2})
        for g in (g1, g2, g1):
            fresh = StackyFan.from_doc(g.to_doc())
            for c in g.cones():
                assert g.multiplicity(c) == fresh.multiplicity(c)
                assert g._has_relint(c) == fresh._has_relint(c)
        assert g1.multiplicity({1, 3}) == 3 and g2.multiplicity({1, 3}) == 1

    def test_one_dim_is_trivial(self):
        f = mu5_fan()
        sub, eps = f.stacky_star_subdivision({1})
        assert sub is f
        assert eps == 1

    def test_zero_cone_rejected(self):
        with pytest.raises(ZeroCone):
            mu5_fan().stacky_star_subdivision(frozenset())

    def test_labels_preserved_and_eps_unlabeled(self):
        f = mu5_fan()
        sub, eps = f.stacky_star_subdivision({0, 1})
        assert sub.labels == ("E1", "E2", None)
        assert sub.divisors == f.divisors

    def test_beta_conservation(self):
        rng = random.Random(15)
        for _ in range(25):
            f = random_fan(rng)
            cone = random.Random(rng.random()).choice(
                [c for c in f.cones() if c])
            sub, eps = f.stacky_star_subdivision(cone)
            expected = tuple(sum(f.rays[i].beta[j] for i in cone)
                             for j in range(f.rank))
            assert sub.rays[eps].beta == expected or len(cone) == 1

    def test_strictly_refines(self):
        rng = random.Random(16)
        for _ in range(20):
            f = random_fan(rng)
            cones = [c for c in f.cones() if len(c) >= 2]
            if not cones:
                continue
            centre = cones[rng.randrange(len(cones))]
            sub, eps = f.stacky_star_subdivision(centre)
            assert sub.refines(f)
            assert not sub.has_cone(centre)
            untouched = {c for c in f.maximal_cones if not centre <= c}
            assert untouched <= set(sub.maximal_cones)
            assert sub.validate().ok

    def test_support_preserved(self):
        rng = random.Random(17)
        for _ in range(15):
            f = random_fan(rng)
            cone = [c for c in f.cones() if len(c) >= 2]
            if not cone:
                continue
            sub, _ = f.stacky_star_subdivision(
                cone[rng.randrange(len(cone))])
            for _ in range(20):
                point = tuple(Fraction(rng.randint(-9, 9),
                                       rng.randint(1, 3))
                              for _ in range(f.rank))
                assert support_contains_point(f, point) == \
                    support_contains_point(sub, point)


class TestRootConstruction:
    def test_beta_scaling(self):
        f = fan_of_cone((1, 2), (1, 0))
        rooted = f.root_construction({0: 3})
        assert rooted.rays[0].beta == (3, 6)
        assert rooted.rays[1].beta == (1, 0)
        assert rooted.maximal_cones == f.maximal_cones

    def test_weight_one_noop_on_rays(self):
        f = mu5_fan()
        rooted = f.root_construction({1: 1})
        assert rooted.rays == f.rays

    def test_label_moves_to_young_end(self):
        f = StackyFan(rank=2, rays=((1, 0), (0, 1), (-1, 1)),
                      maximal_cones=(frozenset({0, 1}), frozenset({1, 2})),
                      labels=("A", "B", "C"))
        rooted = f.root_construction({0: 2})
        assert rooted.divisors == ("B", "C", "A")
        rooted = f.root_construction({0: 2, 1: 3})
        assert rooted.divisors == ("C", "A", "B")

    def test_unlabeled_ray_keeps_divisor_order(self):
        f = mu2_fan()
        rooted = f.root_construction({0: 4})
        assert rooted.divisors == f.divisors

    def test_errors(self):
        with pytest.raises(UnknownRay):
            mu5_fan().root_construction({9: 2})
        with pytest.raises(NonpositiveWeight):
            mu5_fan().root_construction({0: 0})


class TestIndependence:
    def test_smooth_cone(self):
        f = fan_of_cone((1, 0), (0, 1))
        assert f.independent_at({0, 1}, 0)
        assert f.independent_at({0, 1}, 1)

    def test_singular_example(self):
        f = fan_of_cone((1, 0), (1, 2))
        assert not f.independent_at({0, 1}, 0)
        assert not f.independent_at({0, 1}, 1)

    def test_ray_outside_cone(self):
        f = mu5_fan()
        assert f.independent_at({0}, 1)

    def test_mixed(self):
        # mult of cone((1,0),(0,2)-style beta) comes from one ray only
        f = fan_of_cone((1, 0), (0, 1))
        f = StackyFan(rank=2, rays=((1, 0), (0, 2)),
                      maximal_cones=(frozenset({0, 1}),))
        assert f.multiplicity({0, 1}) == 1
        assert f.independent_at({0, 1}, 0)


class TestChartGroup:
    def test_mu5_chart(self):
        group, weights, marks = mu5_fan().chart_group({0, 1})
        assert group.torsion == (5,)
        assert group.free_rank == 0
        assert weights == ((1,), (3,))
        assert marks == ("E1", "E2")

    def test_smooth_chart_trivial(self):
        f = fan_of_cone((1, 0), (0, 1))
        group, weights, marks = f.chart_group({0, 1})
        assert group.order() == 1
        assert weights == ((), ())

    def test_klein_chart(self):
        f = klein_fan()
        group, weights, _ = f.chart_group({0, 1, 2})
        assert group.torsion == (2, 2)
        stated = ((1, 0), (0, 1), (1, 1))
        assert canonical_presentation(group, weights) == \
            canonical_presentation(group, stated)

    def test_zero_cone(self):
        group, weights, marks = mu5_fan().chart_group(frozenset())
        assert group.order() == 1
        assert weights == ()
        assert marks == ()

    def test_face_chart(self):
        # the chart group order at a face equals the multiplicity there
        group, weights, marks = mu5_fan().chart_group({0})
        assert group.order() == 1
        assert marks == ("E1",)
        f = fan_of_cone((2, 0), (0, 1), labels=("D", None))
        group, weights, marks = f.chart_group({0})
        assert group.torsion == (2,)
        assert weights == ((1,),)
        assert marks == ("D",)


class TestSubfan:
    def test_full_subfan_identical(self):
        f = mu5_fan()
        assert f.subfan(f.maximal_cones) == f

    def test_single_cone_restriction(self):
        f = StackyFan(rank=2, rays=((1, 0), (0, 1), (-1, 0)),
                      maximal_cones=(frozenset({0, 1}), frozenset({1, 2})),
                      labels=("A", None, "C"))
        sub = f.subfan([frozenset({1, 2})])
        assert sub.maximal_cones == (frozenset({1, 2}),)
        assert sub.rays == f.rays
        assert sub.labels == f.labels
        assert sub.divisors == f.divisors

    def test_smooth_subfan_of_singular_fan(self):
        f = StackyFan(rank=2, rays=((1, 0), (1, 2), (-1, -1)),
                      maximal_cones=(frozenset({0, 1}), frozenset({1, 2})))
        assert f.multiplicity({0, 1}) == 2
        sub = f.subfan([frozenset({1, 2})])
        assert sub.validate().ok
        assert all(sub.multiplicity(c) == 1 for c in sub.cones())

    def test_face_subfan(self):
        f = mu5_fan()
        sub = f.subfan([frozenset({0})])
        assert sub.maximal_cones == (frozenset({0}),)

    def test_not_a_fan(self):
        with pytest.raises(NotAFan):
            mu5_fan().subfan([frozenset({0, 7})])
        with pytest.raises(NotAFan):
            StackyFan(rank=2, rays=((1, 0), (0, 1), (-1, 0)),
                      maximal_cones=(frozenset({0, 1}),
                                     frozenset({1, 2}))).subfan(
                [frozenset({0, 2})])

    def test_root_commutes_with_subfan(self):
        rng = random.Random(18)
        for _ in range(20):
            f = random_fan(rng)
            sub = random_subfan(rng, f)
            weights = {rng.randrange(f.n_rays): rng.randint(1, 4)}
            a = f.root_construction(weights).subfan(sub.maximal_cones)
            b = sub.root_construction(weights)
            assert a == b

    def test_star_commutes_with_subfan(self):
        rng = random.Random(19)
        for _ in range(30):
            f = random_fan(rng)
            sub = random_subfan(rng, f)
            centres = [c for c in sub.cones() if len(c) >= 2]
            if not centres:
                continue
            centre = centres[rng.randrange(len(centres))]
            full_new, eps = f.stacky_star_subdivision(centre)
            sub_new, eps2 = sub.stacky_star_subdivision(centre)
            assert eps == eps2
            derived = []
            for m in sub.maximal_cones:
                if centre <= m:
                    derived.extend(m - {rho} | {eps} for rho in centre)
                else:
                    derived.append(m)
            assert full_new.subfan(derived) == sub_new

    def test_star_outside_subfan_leaves_it_alone(self):
        f = StackyFan(rank=2, rays=((1, 0), (1, 2), (-1, 0)),
                      maximal_cones=(frozenset({0, 1}), frozenset({1, 2})))
        sub = f.subfan([frozenset({1, 2})])
        full_new, _ = f.stacky_star_subdivision({0, 1})
        restricted = full_new.subfan(sub.maximal_cones)
        assert restricted.maximal_cones == sub.maximal_cones
        assert restricted.labels[:f.n_rays] == sub.labels


class TestConeOrder:
    def test_cone_key_descending(self):
        assert cone_key({0, 2, 1}) == (2, 1, 0)

    def test_cones_sorted(self):
        f = StackyFan(rank=2, rays=((1, 0), (0, 1), (-1, 0)),
                      maximal_cones=(frozenset({1, 2}), frozenset({0, 1})))
        cones = f.cones()
        assert cones[0] == frozenset()
        assert list(cones) == sorted(cones, key=lambda c: (len(c),
                                                           cone_key(c)))


class TestSerialisation:
    def test_doc_shape(self):
        doc = mu5_fan().to_doc()
        assert doc["rank"] == 2
        assert doc["rays"] == [{"beta": [5, 2], "label": "E1"},
                               {"beta": [0, 1], "label": "E2"}]
        assert doc["maximal_cones"] == [[0, 1]]
        assert doc["divisors"] == ["E1", "E2"]
        assert doc["distinguished"] == []

    def test_round_trip_bit_exact(self):
        rng = random.Random(20)
        for _ in range(25):
            f = random_fan(rng)
            doc = f.to_doc()
            text = json.dumps(doc, sort_keys=True)
            back = StackyFan.from_doc(json.loads(text))
            assert back == f
            assert json.dumps(back.to_doc(), sort_keys=True) == text

    def test_malformed_docs(self):
        good = mu5_fan().to_doc()
        bad = dict(good)
        del bad["rank"]
        with pytest.raises(FanFormatError):
            StackyFan.from_doc(bad)
        bad = dict(good)
        bad["rays"] = [{"beta": [5, "x"]}]
        with pytest.raises(FanFormatError):
            StackyFan.from_doc(bad)
        bad = dict(good)
        bad["maximal_cones"] = [[0, 9]]
        with pytest.raises(FanFormatError):
            StackyFan.from_doc(bad)
        with pytest.raises(FanFormatError):
            StackyFan.from_doc([1, 2, 3])
        # JSON booleans, floats and strings are not coerced to integers.
        for rank in (2.9, 2.0, "2", True):
            bad = dict(good, rank=rank)
            with pytest.raises(FanFormatError):
                StackyFan.from_doc(bad)
        for beta in ([True, False], [5.0, 2], ["5", 2]):
            bad = dict(good, rays=[{"beta": beta}, good["rays"][1]])
            with pytest.raises(FanFormatError):
                StackyFan.from_doc(bad)
        for cone in ([True, 1], [0.0, 1], ["0", 1]):
            bad = dict(good, maximal_cones=[cone])
            with pytest.raises(FanFormatError):
                StackyFan.from_doc(bad)
