"""Characteristic-class records and the rank-3 to rank-5 passage."""

import pytest

from so3five.charclass import (
    Bundle3Data,
    Bundle5Data,
    degree5_twist,
    necessary_conditions,
    obstruction_report,
    sym0_classes,
    tangent_bundle_classes,
)
from so3five.constructors import catalog
from so3five.fgab import FgAbGroup, tensor_reduction
from so3five.topology import (
    ManifoldProfile,
    Mod2Fragment,
    ProfileValidationError,
    cohomology,
    semicharacteristic,
)

from test_decide import lens_bundle

Z = FgAbGroup(1)
ZERO = FgAbGroup.trivial()


def spin_rank3(profile: ManifoldProfile, p1=None) -> Bundle3Data:
    frag = profile.mod2_fragment
    return Bundle3Data(
        base=profile,
        w2_zero=True,
        p1=p1 if p1 is not None else cohomology(profile, 4).zero(),
        w2_class=(0,) * frag.h2_dim if frag is not None else None,
    )


def tangent_style_rank3(profile: ManifoldProfile, p1=None) -> Bundle3Data:
    """Rank-3 record wearing the profile's own w2."""
    w2 = profile.mod2_fragment.w2_class
    return Bundle3Data(
        base=profile,
        w2_zero=not any(w2),
        p1=p1 if p1 is not None else profile.p1,
        w2_class=w2,
    )


def undetermined_w4_profile() -> ManifoldProfile:
    """Non-spin profile whose H^4(M;Z_2) is 2-dimensional with w4 nonzero."""
    frag = Mod2Fragment(h2_dim=1, cup22=(((0, 0),),), psquare=((0, 0),), w2_class=(1,))
    h4 = FgAbGroup(1, (2,))
    return ManifoldProfile(
        name="wide-w4",
        homology=(Z, FgAbGroup(1, (2,)), ZERO, FgAbGroup(0, (2,)), Z, Z),
        spin=False,
        w4_is_zero=False,
        p1=h4.zero(),
        mod2_fragment=frag,
    )


class TestRecordValidation:
    def test_p1_group_checked(self):
        wu = catalog("wu")
        with pytest.raises(ValueError, match="H\\^4"):
            Bundle3Data(base=wu, w2_zero=True, p1=FgAbGroup(1).element((1,), ()), w2_class=(0,))

    def test_w2_class_presence_tied_to_fragment(self):
        wu = catalog("wu")
        with pytest.raises(ValueError, match="mod-2 fragment"):
            Bundle3Data(base=wu, w2_zero=True, p1=cohomology(wu, 4).zero(), w2_class=None)

    def test_w2_flag_must_match_vector(self):
        wu = catalog("wu")
        with pytest.raises(ValueError, match="contradicts"):
            Bundle3Data(base=wu, w2_zero=True, p1=cohomology(wu, 4).zero(), w2_class=(1,))

    def test_w2_class_length_checked(self):
        wu = catalog("wu")
        with pytest.raises(ValueError, match="length"):
            Bundle3Data(base=wu, w2_zero=False, p1=cohomology(wu, 4).zero(), w2_class=(1, 0))

    def test_bits_enforced(self):
        wu = catalog("wu")
        for w2_class in ((2,), (1.0,), (0.5,), (True,)):
            with pytest.raises(ValueError, match="0/1"):
                Bundle3Data(
                    base=wu, w2_zero=False, p1=cohomology(wu, 4).zero(), w2_class=w2_class
                )

    def test_rank5_w4_class_consistency(self):
        lens = lens_bundle(4)
        h4 = cohomology(lens, 4)
        with pytest.raises(ValueError):
            Bundle5Data(
                base=lens,
                w2_zero=False,
                w4_zero=True,
                w5_zero=True,
                p1=h4.zero(),
                w2_class=(1,),
                w4_class=(1,),
            )

    def test_w4_class_reduced_in_matched_moduli(self):
        # H^4(M;Z) = Z/3, so H^4(M;Z2) = 0: its one matched coordinate has
        # modulus 1 and only the zero class exists
        lens = lens_bundle(3)
        with pytest.raises(ValueError, match="w4 class must be reduced in H\\^4\\(M;Z2\\)"):
            Bundle5Data(
                base=lens,
                w2_zero=lens.spin,
                w4_zero=False,
                w5_zero=True,
                p1=lens.p1,
                w2_class=lens.mod2_fragment.w2_class,
                w4_class=(1,),
            )

    def test_invalid_base_rejected(self):
        # the bad base cannot be built, so no bundle record can sit on it
        with pytest.raises(ProfileValidationError) as exc_info:
            ManifoldProfile(
                name="bad",
                homology=(Z, Z, ZERO, ZERO, ZERO, Z),
                spin=True,
                w4_is_zero=True,
                p1=ZERO.zero(),
            )
        assert "rank H4 must equal rank H1 (Poincare duality)" in exc_info.value.violations


class TestSym0:
    def test_p1_is_multiplied_by_five(self):
        lens = lens_bundle(3)  # H^4 = Z/3, total space is spin here
        h4 = cohomology(lens, 4)
        b = tangent_style_rank3(lens, p1=h4.element((), (1,)))
        five = sym0_classes(b)
        assert five.p1 == h4.element((), (2,))  # 5*1 = 2 mod 3
        assert five.w4_zero and five.w5_zero
        assert five.w2_zero == b.w2_zero
        assert five.w2_class == b.w2_class

    def test_sym0_p1_always_divisible_by_five(self):
        for c0 in (2, 3, 4, 5):
            b = tangent_style_rank3(lens_bundle(c0))
            assert necessary_conditions(sym0_classes(b)).p1_divisible_by_5

    def test_w4_class_zero_vector_when_fragment_present(self):
        lens = lens_bundle(4)
        b = Bundle3Data(base=lens, w2_zero=False, p1=lens.p1, w2_class=(1,))
        five = sym0_classes(b)
        assert five.w4_class == (0,)

    def test_trivial_p1_stays_zero(self):
        s5 = catalog("s5")
        b = spin_rank3(s5)
        assert sym0_classes(b).p1.is_zero()


class TestDegree5Twist:
    def test_requires_spin(self):
        wu = catalog("wu")
        b = Bundle3Data(base=wu, w2_zero=False, p1=cohomology(wu, 4).zero(), w2_class=(1,))
        with pytest.raises(ValueError, match="spin"):
            degree5_twist(b)

    def test_scales_p1_by_five(self):
        lens = lens_bundle(6, degree=2)  # spin bundle base, H^4 = Z/6
        h4 = cohomology(lens, 4)
        assert lens.spin
        b = spin_rank3(lens, p1=h4.element((), (1,)))
        once = degree5_twist(b)
        assert once.p1 == h4.element((), (5,))
        twice = degree5_twist(once)
        assert twice.p1 == h4.element((), (25 % 6,))


class TestNecessaryConditions:
    def test_tangent_of_wu_passes(self):
        nc = necessary_conditions(tangent_bundle_classes(catalog("wu")))
        assert nc.p1_divisible_by_5 and nc.w4_zero and nc.w5_zero
        assert nc.passes

    def test_w4_obstruction_detected(self):
        lens = lens_bundle(4)  # w4 nonzero
        nc = necessary_conditions(tangent_bundle_classes(lens))
        assert not nc.w4_zero
        assert not nc.passes

    def test_five_divisibility_obstruction_detected(self):
        lens = lens_bundle(5)  # H^4 = Z/5, p1 = 3 mod 5
        assert lens.p1 == cohomology(lens, 4).element((), (3,))
        nc = necessary_conditions(tangent_bundle_classes(lens))
        assert not nc.p1_divisible_by_5
        assert not nc.passes

    def test_to_dict_carries_passes(self):
        nc = necessary_conditions(tangent_bundle_classes(catalog("s5")))
        d = nc.to_dict()
        assert d["passes"] is True
        assert set(d) == {"p1_divisible_by_5", "w4_zero", "w5_zero", "passes"}


class TestObstructionReport:
    def test_secondary_on_spheres(self):
        report = obstruction_report(tangent_bundle_classes(catalog("s5")))
        assert report.k1_mod5_part_zero and report.k1_mod2_part_zero
        assert report.k1_vanishes
        assert report.k2_value == 1

    def test_secondary_zero_on_product(self):
        report = obstruction_report(tangent_bundle_classes(catalog("s3xs2")))
        assert report.k1_vanishes
        assert report.k2_value == 0
        assert report.k2_value == semicharacteristic(catalog("s3xs2"))

    def test_nonspin_bundle_has_no_secondary_value(self):
        report = obstruction_report(tangent_bundle_classes(catalog("wu")))
        assert report.k1_vanishes
        assert report.k2_value is None

    def test_primary_failure_leaves_secondary_unset(self):
        lens = lens_bundle(5)
        report = obstruction_report(tangent_bundle_classes(lens))
        assert not report.k1_mod5_part_zero
        assert not report.k1_vanishes
        assert report.k2_value is None

    def test_mod5_part_agrees_with_divisibility(self):
        # rho_5(p1) = 0 and 5 | p1 cut out the same locus in these groups
        bundles = [
            tangent_bundle_classes(lens_bundle(c0, d))
            for c0, d in [(2, 1), (3, 1), (4, 1), (5, 1), (6, 2), (2, 3), (3, 3)]
        ]
        for b in bundles:
            report = obstruction_report(b)
            nc = necessary_conditions(b)
            assert report.k1_mod5_part_zero == nc.p1_divisible_by_5
            assert report.k1_mod5_part_zero == (not any(tensor_reduction(b.p1, 5)))


class TestTangentClasses:
    def test_sphere(self):
        tb = tangent_bundle_classes(catalog("s5"))
        assert tb.w2_zero and tb.w4_zero and tb.w5_zero
        assert tb.w2_class == (0,) * 0 or tb.w2_class == ()
        assert tb.w4_class == ()
        assert tb.p1.is_zero()

    def test_wu_manifold(self):
        tb = tangent_bundle_classes(catalog("wu"))
        assert not tb.w2_zero
        assert tb.w2_class == (1,)
        assert tb.w4_zero
        assert tb.w5_zero

    def test_unique_nonzero_w4_filled_in(self):
        lens = lens_bundle(4)
        tb = tangent_bundle_classes(lens)
        assert not tb.w4_zero
        assert tb.w4_class == (1,)

    def test_wide_w4_stays_unknown(self):
        profile = undetermined_w4_profile()
        tb = tangent_bundle_classes(profile)
        assert not tb.w4_zero
        assert tb.w4_class is None
        assert tb.w2_class == (1,)
