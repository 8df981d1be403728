"""Profiles, the validator, cohomology rings, semi-characteristics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3five.constructors import CircleBundleSpec, catalog, circle_bundle, hypersurface
from so3five.fgab import FgAbGroup
from so3five.topology import (
    CoefficientRing,
    ManifoldProfile,
    Mod2Fragment,
    ProfileValidationError,
    cohomology,
    cup_product,
    homology_mod2_dimension,
    kervaire_semicharacteristic,
    pontryagin_square,
    profile_from_dict,
    profile_from_json,
    profile_to_dict,
    profile_to_json,
    require_valid,
    semicharacteristic,
    validate,
)

Z = FgAbGroup(1)
ZERO = FgAbGroup.trivial()


def plain_profile(homology, spin=True, w4=True, p1_torsion=(), name="test"):
    group = FgAbGroup(homology[4].free_rank, homology[3].torsion)
    return ManifoldProfile(
        name=name,
        homology=tuple(homology),
        spin=spin,
        w4_is_zero=w4,
        p1=group.element((0,) * group.free_rank, p1_torsion or (0,) * len(group.torsion)),
    )


def symmetric_profile(h1: FgAbGroup, b2: int, t2: tuple[int, ...], spin: bool) -> ManifoldProfile:
    """Generic shape passing the duality checks."""
    h2 = FgAbGroup.from_cyclic_orders(b2, t2)
    h3 = FgAbGroup(b2, h1.torsion)
    h4 = FgAbGroup(h1.free_rank)
    return plain_profile([Z, h1, h2, h3, h4, Z], spin=spin)


class TestValidator:
    def test_catalog_profiles_valid(self):
        for name in ("s5", "wu", "s3xs2", "s3~xs2"):
            assert validate(catalog(name)) == []

    def test_h0_h5(self):
        with pytest.raises(ProfileValidationError) as exc_info:
            plain_profile([ZERO, ZERO, ZERO, ZERO, ZERO, Z])
        assert any("H0" in v for v in exc_info.value.violations)
        with pytest.raises(ProfileValidationError) as exc_info:
            plain_profile([Z, ZERO, ZERO, ZERO, ZERO, FgAbGroup(2)])
        assert any("H5" in v for v in exc_info.value.violations)

    def test_h4_torsion_free(self):
        with pytest.raises(ProfileValidationError) as exc_info:
            ManifoldProfile(
                name="bad",
                homology=(Z, ZERO, ZERO, ZERO, FgAbGroup(0, (3,)), Z),
                spin=True,
                w4_is_zero=True,
                p1=FgAbGroup.trivial().zero(),
            )
        assert "H4 must be torsion-free" in exc_info.value.violations

    def test_poincare_duality_violations(self):
        # rank H4 != rank H1
        with pytest.raises(ProfileValidationError) as exc_info:
            plain_profile([Z, Z, ZERO, ZERO, ZERO, Z])
        assert exc_info.value.violations
        # torsion H3 != torsion H1
        with pytest.raises(ProfileValidationError) as exc_info:
            plain_profile([Z, FgAbGroup(0, (2,)), ZERO, ZERO, ZERO, Z])
        assert exc_info.value.violations
        # b2 != b3
        with pytest.raises(ProfileValidationError) as exc_info:
            plain_profile([Z, ZERO, Z, ZERO, ZERO, Z])
        assert exc_info.value.violations

    def test_p1_group_must_match_h4_cohomology(self):
        with pytest.raises(ProfileValidationError) as exc_info:
            ManifoldProfile(
                name="bad-p1",
                homology=(Z, ZERO, ZERO, ZERO, ZERO, Z),
                spin=True,
                w4_is_zero=True,
                p1=FgAbGroup(1).element((5,), ()),
            )
        assert any("p1" in v for v in exc_info.value.violations)

    def test_spin_forces_w4_zero(self):
        with pytest.raises(ProfileValidationError) as exc_info:
            plain_profile([Z, ZERO, ZERO, ZERO, ZERO, Z], spin=True, w4=False)
        assert exc_info.value.violations

    def test_vanishing_mod2_h4_forces_w4_zero(self):
        # here H^4(M;Z_2) = 0, so the w4 flag cannot be False
        with pytest.raises(ProfileValidationError) as exc_info:
            plain_profile([Z, ZERO, Z, Z, ZERO, Z], spin=False, w4=False)
        assert exc_info.value.violations

    def test_require_valid_raises_with_violations(self):
        # construction runs require_valid, so the invalid profile never exists
        with pytest.raises(ProfileValidationError) as exc_info:
            plain_profile([Z, Z, ZERO, ZERO, ZERO, Z])
        assert exc_info.value.violations

    def test_homology_length_enforced_early(self):
        with pytest.raises(ValueError):
            ManifoldProfile(
                name="short",
                homology=(Z, ZERO, ZERO),
                spin=True,
                w4_is_zero=True,
                p1=ZERO.zero(),
            )


class TestFragmentValidation:
    def test_dimension_must_match_mod2_h2(self):
        frag = Mod2Fragment(h2_dim=2, cup22=(((),), ((),)), psquare=((), ()), w2_class=(0, 0))
        with pytest.raises(ProfileValidationError) as exc_info:
            ManifoldProfile(
                name="frag",
                homology=(Z, ZERO, Z, Z, ZERO, Z),
                spin=True,
                w4_is_zero=True,
                p1=ZERO.zero(),
                mod2_fragment=frag,
            )
        assert any("fragment" in v or "dim" in v for v in exc_info.value.violations)

    def test_w2_class_zero_iff_spin(self):
        frag = Mod2Fragment(h2_dim=1, cup22=(((),),), psquare=((),), w2_class=(1,))
        with pytest.raises(ProfileValidationError) as exc_info:
            ManifoldProfile(
                name="frag",
                homology=(Z, ZERO, Z, Z, ZERO, Z),
                spin=True,
                w4_is_zero=True,
                p1=ZERO.zero(),
                mod2_fragment=frag,
            )
        assert exc_info.value.violations

    def test_cup_symmetry_enforced(self):
        lens = circle_bundle(CircleBundleSpec(hypersurface(1), (4,)))
        frag = lens.mod2_fragment
        bad = Mod2Fragment(
            h2_dim=2,
            cup22=(((0,), (1,)), ((0,), (0,))),
            psquare=((0,), (0,)),
            w2_class=(1, 0),
        )
        base = circle_bundle(CircleBundleSpec(hypersurface(2), (2, 0)))
        with pytest.raises(ProfileValidationError) as exc_info:
            ManifoldProfile(
                name="asym",
                homology=base.homology,
                spin=base.spin,
                w4_is_zero=base.w4_is_zero,
                p1=base.p1,
                mod2_fragment=bad,
            )
        assert any("symmetric" in v for v in exc_info.value.violations)
        assert frag is not None and validate(lens) == []

    def test_psquare_doubling_law_enforced(self):
        lens = circle_bundle(CircleBundleSpec(hypersurface(1), (4,)))
        good = lens.mod2_fragment
        # psquare entry violating 2*psq + i(cup) = 0 in Z/4
        bad = Mod2Fragment(
            h2_dim=good.h2_dim,
            cup22=good.cup22,
            psquare=((2,),),
            w2_class=good.w2_class,
        )
        with pytest.raises(ProfileValidationError) as exc_info:
            ManifoldProfile(
                name="lawless",
                homology=lens.homology,
                spin=lens.spin,
                w4_is_zero=lens.w4_is_zero,
                p1=lens.p1,
                mod2_fragment=bad,
            )
        assert exc_info.value.violations


class TestCohomology:
    def test_universal_coefficients_integral(self):
        wu = catalog("wu")
        assert cohomology(wu, 0) == Z
        assert cohomology(wu, 2) == ZERO
        assert cohomology(wu, 3) == FgAbGroup(0, (2,))
        assert cohomology(wu, 5) == Z

    def test_mod2_dimensions_of_wu_manifold(self):
        wu = catalog("wu")
        dims = [
            cohomology(wu, k, CoefficientRing.Z2).torsion.__len__() for k in range(6)
        ]
        assert dims == [1, 0, 1, 1, 0, 1]

    def test_lens_type_bundle_rings(self):
        lens = circle_bundle(CircleBundleSpec(hypersurface(1), (4,)))
        assert cohomology(lens, 4) == FgAbGroup(0, (4,))
        assert cohomology(lens, 1, CoefficientRing.Z10) == FgAbGroup(0, (2,))
        assert cohomology(lens, 2, CoefficientRing.Z5) == ZERO
        assert cohomology(lens, 3, CoefficientRing.R) == ZERO
        assert cohomology(lens, 0, CoefficientRing.R) == Z

    def test_real_coefficients_drop_torsion(self):
        wu = catalog("wu")
        for k in range(6):
            assert cohomology(wu, k, CoefficientRing.R).torsion == ()

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            cohomology(catalog("s5"), 6)
        with pytest.raises(ValueError):
            cohomology(catalog("s5"), -1)


class TestSemicharacteristics:
    def test_goldens(self):
        assert semicharacteristic(catalog("s5")) == 1
        assert kervaire_semicharacteristic(catalog("s5")) == 1
        assert semicharacteristic(catalog("wu")) == 0
        assert kervaire_semicharacteristic(catalog("wu")) == 1
        assert semicharacteristic(catalog("s3xs2")) == 0
        assert kervaire_semicharacteristic(catalog("s3xs2")) == 0

    def test_difference_is_middle_torsion_pairing(self):
        # chi-hat - k = t_2(H_2) mod 2, the 2-torsion count of H_2
        rng = random.Random(5)
        for _ in range(60):
            h1 = FgAbGroup.from_cyclic_orders(
                rng.randrange(2), [rng.choice([2, 3, 4]) for _ in range(rng.randrange(2))]
            )
            p = symmetric_profile(
                h1,
                rng.randrange(3),
                tuple(rng.choice([2, 3, 4]) for _ in range(rng.randrange(2))),
                spin=True,
            )
            require_valid(p)
            chi = semicharacteristic(p)
            k = kervaire_semicharacteristic(p)
            t2 = sum(1 for d in p.homology[2].torsion if d % 2 == 0)
            assert (chi - k) % 2 == t2 % 2

    def test_mod2_euler_characteristic_vanishes(self):
        rng = random.Random(13)
        for _ in range(60):
            h1 = FgAbGroup.from_cyclic_orders(
                rng.randrange(2), [rng.choice([2, 4, 6]) for _ in range(rng.randrange(2))]
            )
            p = symmetric_profile(
                h1,
                rng.randrange(3),
                tuple(rng.choice([2, 3]) for _ in range(rng.randrange(2))),
                spin=True,
            )
            require_valid(p)
            total = sum(
                (-1) ** i * homology_mod2_dimension(p, i) for i in range(6)
            )
            assert total == 0


class TestCupAndSquare:
    def test_lens_type_values(self):
        lens = circle_bundle(CircleBundleSpec(hypersurface(1), (4,)))
        assert cup_product(lens, (1,), (1,)) == (1,)
        assert cup_product(lens, (0,), (1,)) == (0,)
        assert pontryagin_square(lens, (1,)) == (1,)
        assert pontryagin_square(lens, (0,)) == (0,)

    def test_missing_fragment_refused(self):
        s5_like = plain_profile([Z, ZERO, ZERO, ZERO, ZERO, Z])
        with pytest.raises(ValueError, match="fragment"):
            cup_product(s5_like, (), ())

    def test_bit_vectors_enforced(self):
        lens = circle_bundle(CircleBundleSpec(hypersurface(1), (4,)))
        with pytest.raises(ValueError):
            cup_product(lens, (2,), (1,))
        with pytest.raises(ValueError):
            pontryagin_square(lens, (1, 0))

    @given(st.data())
    @settings(max_examples=40)
    def test_quadratic_refinement_identity(self, data):
        # psquare(x + y) = psquare(x) + psquare(y) + i(cup(x, y)) in H^4(M;Z_4)
        degree = data.draw(st.sampled_from([1, 2, 3, 4]))
        scale = data.draw(st.sampled_from([2, 4, 6]))
        base = hypersurface(degree)
        c = [0] * base.b2
        c[0] = scale
        profile = circle_bundle(CircleBundleSpec(base, tuple(c)))
        n = profile.mod2_fragment.h2_dim
        x = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        y = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        z = tuple((a + b) % 2 for a, b in zip(x, y))
        from so3five.topology import include_mod2_into_mod4, mod4_class_moduli

        moduli = mod4_class_moduli(profile)
        lhs = pontryagin_square(profile, z)
        cup = include_mod2_into_mod4(profile, cup_product(profile, x, y))
        px = pontryagin_square(profile, x)
        py = pontryagin_square(profile, y)
        rhs = tuple((a + b + c_) % m for a, b, c_, m in zip(px, py, cup, moduli))
        assert lhs == rhs


class TestSerialization:
    def test_round_trip_catalog(self):
        for name in ("s5", "wu", "s3xs2", "s3~xs2"):
            p = catalog(name)
            assert profile_from_dict(profile_to_dict(p)) == p
            assert profile_from_json(profile_to_json(p)) == p

    def test_round_trip_with_fragment_and_torsion(self):
        lens = circle_bundle(CircleBundleSpec(hypersurface(3), (3, -3, -3, 0, 0, 0, 0)))
        assert profile_from_json(profile_to_json(lens)) == lens

    def test_json_is_deterministic(self):
        p = catalog("wu")
        assert profile_to_json(p) == profile_to_json(p)
        assert '"name"' in profile_to_json(p)

    def test_malformed_data_reports_value_error(self):
        with pytest.raises(ValueError, match="malformed profile data"):
            profile_from_dict({"name": "x"})
        with pytest.raises(ValueError):
            profile_from_dict(
                {
                    "name": "x",
                    "homology": [{"free": 1}],
                    "spin": True,
                    "w4_zero": True,
                    "p1": {"free": [], "torsion": []},
                    "mod2_fragment": None,
                }
            )
        with pytest.raises(ValueError, match="malformed profile data"):
            profile_from_json('{"name": "x", "homology": "nope"}')
