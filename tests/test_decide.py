"""Decision procedures: verdicts, theorem tags, traces."""

import pytest

from so3five.charclass import Bundle5Data, tangent_bundle_classes
from so3five.constructors import (
    CircleBundleSpec,
    FourManifoldProfile,
    catalog,
    circle_bundle,
    connected_sum,
    hypersurface,
    product_3x2,
)
from so3five.decide import (
    Verdict,
    decide_irreducible_so3,
    decide_standard_so3,
    decide_two_field,
    rank3_bundle_exists,
    rank5_relation_holds,
)
from so3five.fgab import FgAbGroup, IntegerMatrix
from so3five.topology import (
    ManifoldProfile,
    Mod2Fragment,
    ProfileValidationError,
    cohomology,
    semicharacteristic,
)

Z = FgAbGroup(1)
ZERO = FgAbGroup.trivial()
S3 = (Z, ZERO, ZERO, Z)
T3 = (Z, FgAbGroup(3), FgAbGroup(3), Z)


def lens_bundle(c0: int, degree: int = 1) -> ManifoldProfile:
    base = hypersurface(degree)
    c = [0] * base.b2
    c[0] = c0
    return circle_bundle(CircleBundleSpec(base, tuple(c)))


def unknown_branch_profile_with_fragment() -> ManifoldProfile:
    """Non-spin, order-4 torsion in H^4, all necessary conditions hold."""
    base = FourManifoldProfile(
        b2=2,
        Q=IntegerMatrix.diagonal((1, -1)),
        w2_vector=(1, 1),
        euler_char=4,
        p1_eval=0,
        signature=0,
    )
    return circle_bundle(CircleBundleSpec(base, (4, 0)))


def unknown_branch_profile_without_fragment() -> ManifoldProfile:
    h4 = FgAbGroup(0, (4,))
    return ManifoldProfile(
        name="bare",
        homology=(Z, FgAbGroup(0, (4,)), Z, FgAbGroup(1, (4,)), ZERO, Z),
        spin=False,
        w4_is_zero=True,
        p1=h4.zero(),
    )


def wide_w4_profile() -> ManifoldProfile:
    """Non-spin profile with H^4(M;Z) = Z + Z/2, so H^4(M;Z_2) is
    2-dimensional, and w4 = w2 cup w2 = (1, 0) nonzero."""
    frag = Mod2Fragment(h2_dim=1, cup22=(((1, 0),),), psquare=((1, 0),), w2_class=(1,))
    h4 = FgAbGroup(1, (2,))
    return ManifoldProfile(
        name="wide-w4",
        homology=(Z, FgAbGroup(1, (2,)), ZERO, FgAbGroup(0, (2,)), Z, Z),
        spin=False,
        w4_is_zero=False,
        p1=h4.element((3,), (0,)),
        mod2_fragment=frag,
    )


class TestIrreducibleSpinBranch:
    def test_sphere_fails_on_semicharacteristic(self):
        d = decide_irreducible_so3(catalog("s5"))
        assert d.verdict == Verdict.NO
        assert d.theorem == "Cor 1.5(a)/Thm 1.4(a)"
        chi_line = next(l for l in d.trace if "chi-hat" in l.condition)
        assert not chi_line.satisfied

    def test_product_bundle_succeeds(self):
        d = decide_irreducible_so3(catalog("s3xs2"))
        assert d.verdict == Verdict.YES
        assert d.theorem == "Cor 1.5(a)/Thm 1.4(a)"
        assert all(l.satisfied for l in d.trace)

    def test_spin_circle_bundle_over_k3(self):
        m = circle_bundle(CircleBundleSpec(hypersurface(4), (1,) + (0,) * 21))
        d = decide_irreducible_so3(m)
        assert d.verdict == Verdict.YES
        assert d.theorem == "Cor 1.5(a)/Thm 1.4(a)"

    def test_five_divisibility_failure(self):
        m = circle_bundle(CircleBundleSpec(hypersurface(4), (5,) + (0,) * 21))
        assert m.spin and m.w4_is_zero
        assert semicharacteristic(m) == 0
        d = decide_irreducible_so3(m)
        assert d.verdict == Verdict.NO
        assert d.theorem == "Thm 1.4(a)"  # H_1 = Z/5, no shortcut tag
        p1_line = next(l for l in d.trace if "divisible" in l.condition)
        assert not p1_line.satisfied

    def test_spin_lens_type_fails_on_semicharacteristic_and_p1(self):
        m = lens_bundle(5)
        assert m.spin
        d = decide_irreducible_so3(m)
        assert d.verdict == Verdict.NO
        assert d.theorem == "Thm 1.4(a)"

    def test_simply_connected_parity_line_present(self):
        d = decide_irreducible_so3(catalog("s3xs2"))
        parity = [l for l in d.trace if "dim H_2(M;Z_2)" in l.condition]
        assert len(parity) == 1 and parity[0].satisfied

    def test_products_always_succeed(self):
        for n3 in (S3, T3):
            for genus in (0, 1, 3):
                d = decide_irreducible_so3(product_3x2(n3, genus))
                assert d.verdict == Verdict.YES
                assert d.theorem == "Thm 1.4(a)" or genus == 0 and n3 is S3


class TestIrreducibleNonSpinBranch:
    def test_wu_manifold(self):
        d = decide_irreducible_so3(catalog("wu"))
        assert d.verdict == Verdict.YES
        assert d.theorem == "Cor 1.5(b)/Thm 1.4(b)"
        first = d.trace[0]
        assert "non-spin" in first.condition and first.satisfied

    def test_twisted_product(self):
        d = decide_irreducible_so3(catalog("s3~xs2"))
        assert d.verdict == Verdict.YES
        assert d.theorem == "Cor 1.5(b)/Thm 1.4(b)"

    def test_order_three_circle_bundle(self):
        m = circle_bundle(CircleBundleSpec(hypersurface(3), (3, -3, -3, 0, 0, 0, 0)))
        d = decide_irreducible_so3(m)
        assert d.verdict == Verdict.YES
        assert d.theorem == "Thm 1.4(b)"  # pi_1 is not trivial here

    def test_w4_obstruction_with_order_four_torsion(self):
        d = decide_irreducible_so3(lens_bundle(4))
        assert d.verdict == Verdict.NO
        assert d.theorem == "Prop 2.4"
        w4_line = next(l for l in d.trace if "w4" in l.condition)
        assert not w4_line.satisfied

    def test_unknown_with_fragment(self):
        m = unknown_branch_profile_with_fragment()
        assert not m.spin and m.w4_is_zero
        assert cohomology(m, 4) == FgAbGroup(0, (4,))
        d = decide_irreducible_so3(m)
        assert d.verdict == Verdict.UNKNOWN
        assert d.theorem == "Remark 4.4"
        assert not d.trace[-1].satisfied
        assert "undecided" in d.trace[-1].value

    def test_unknown_without_fragment(self):
        d = decide_irreducible_so3(unknown_branch_profile_without_fragment())
        assert d.verdict == Verdict.UNKNOWN
        assert d.theorem == "Remark 4.4"

    def test_order_four_detection_is_about_h4_not_h2(self):
        # order-4 torsion in H_2 only: H^4 stays clean, Cor 1.5(b) applies
        m = ManifoldProfile(
            name="mid-torsion",
            homology=(Z, ZERO, FgAbGroup(0, (4,)), ZERO, ZERO, Z),
            spin=False,
            w4_is_zero=True,
            p1=ZERO.zero(),
        )
        d = decide_irreducible_so3(m)
        assert d.theorem == "Cor 1.5(b)/Thm 1.4(b)"
        assert d.verdict == Verdict.YES


class TestTwoField:
    def test_atiyah_golden_values(self):
        assert decide_two_field(catalog("s5")).verdict == Verdict.NO
        assert decide_two_field(catalog("wu")).verdict == Verdict.NO
        assert decide_two_field(catalog("s3xs2")).verdict == Verdict.YES
        d = decide_two_field(catalog("s5"))
        assert d.theorem == "Thm 1.3"

    def test_thomas_requires_spin(self):
        with pytest.raises(ValueError, match="criterion inapplicable"):
            decide_two_field(catalog("wu"), "thomas")

    def test_thomas_on_spin_profiles(self):
        d = decide_two_field(catalog("s5"), "thomas")
        assert d.verdict == Verdict.NO
        assert d.theorem == "Cor 1.2"
        assert any("Wu formula" in l.value for l in d.trace)
        assert decide_two_field(catalog("s3xs2"), "thomas").verdict == Verdict.YES

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            decide_two_field(catalog("s5"), "unheard-of")

    def test_connected_sum_parity(self):
        a = catalog("s3xs2")
        pair = connected_sum(a, a)
        triple = connected_sum(pair, a)
        assert decide_two_field(pair).verdict == Verdict.NO
        assert decide_two_field(triple).verdict == Verdict.YES


class TestStandardSo3:
    def test_theorem_tag_and_agreement(self):
        d = decide_standard_so3(catalog("s3xs2"))
        assert d.theorem == "Remark 1.9/Thm 1.3"
        assert d.verdict == Verdict.YES
        cross = next(l for l in d.trace if "Cor 1.6" in l.condition)
        assert cross.satisfied

    def test_follows_atiyah_verdict(self):
        for name in ("s5", "wu", "s3xs2", "s3~xs2"):
            p = catalog(name)
            assert decide_standard_so3(p).verdict == decide_two_field(p).verdict

    def test_nonspin_skips_cross_check(self):
        d = decide_standard_so3(catalog("wu"))
        cross = next(l for l in d.trace if "Cor 1.6" in l.condition)
        assert cross.satisfied and "skipped" in cross.value

    def test_spin_parity_violation_is_refused(self):
        # a spin H_2 = Z/2 would make chi-hat and k differ, which
        # Lusztig-Milnor-Peterson forbid, so no such profile is built
        with pytest.raises(ProfileValidationError) as exc_info:
            ManifoldProfile(
                name="chi-k-split",
                homology=(Z, ZERO, FgAbGroup(0, (2,)), ZERO, ZERO, Z),
                spin=True,
                w4_is_zero=True,
                p1=ZERO.zero(),
            )
        assert exc_info.value.violations == [
            "spin forces an even number of even torsion coefficients in H2 "
            "(Lusztig-Milnor-Peterson)"
        ]


class TestRank3BundleExists:
    def test_trivial_data_on_wu(self):
        wu = catalog("wu")
        d = rank3_bundle_exists(wu, (1,), cohomology(wu, 4).zero())
        assert d.verdict == Verdict.YES
        assert d.theorem == "Thm 4.2"
        assert all(l.satisfied for l in d.trace)

    def test_mismatch_is_refused(self):
        lens = lens_bundle(4)
        h4 = cohomology(lens, 4)
        d = rank3_bundle_exists(lens, (1,), h4.element((), (3,)))
        assert d.verdict == Verdict.NO
        relation = d.trace[-1]
        assert "rho_4(P)" in relation.condition
        assert not relation.satisfied

    def test_verdict_ignores_order_four_hypothesis_but_reports_it(self):
        lens = lens_bundle(4)
        h4 = cohomology(lens, 4)
        d = rank3_bundle_exists(lens, (1,), h4.element((), (1,)))
        assert d.verdict == Verdict.YES
        hypothesis = next(l for l in d.trace if "order 4" in l.condition)
        assert not hypothesis.satisfied

    def test_requires_fragment(self):
        p = unknown_branch_profile_without_fragment()
        with pytest.raises(ValueError, match="fragment"):
            rank3_bundle_exists(p, (), cohomology(p, 4).zero())

    def test_requires_matching_p1_group(self):
        wu = catalog("wu")
        with pytest.raises(ValueError):
            rank3_bundle_exists(wu, (1,), FgAbGroup(1).element((1,), ()))

    def test_tangent_data_of_catalog_profiles_admits_rank3(self):
        # the tangent relation pins rho_4(p1) = psquare(w2) when w4 = 0
        for name in ("s5", "wu", "s3xs2", "s3~xs2"):
            p = catalog(name)
            d = rank3_bundle_exists(p, p.mod2_fragment.w2_class, p.p1)
            assert d.verdict == Verdict.YES


class TestRank5Relation:
    def test_holds_for_tangent_data_everywhere(self):
        profiles = [catalog(n) for n in ("s5", "wu", "s3xs2", "s3~xs2")]
        for c0 in (2, 3, 4, 5, 6):
            profiles.append(lens_bundle(c0))
        profiles.append(
            circle_bundle(CircleBundleSpec(hypersurface(3), (3, -3, -3, 0, 0, 0, 0)))
        )
        profiles.append(unknown_branch_profile_with_fragment())
        profiles.append(wide_w4_profile())
        for p in profiles:
            assert rank5_relation_holds(p, tangent_bundle_classes(p))

    def test_lens_type_uses_the_w4_correction(self):
        # rho_4(p1) = 3, psquare(w2) = 1, included w4 contributes 2
        lens = lens_bundle(4)
        tb = tangent_bundle_classes(lens)
        assert tb.w4_class == (1,)
        assert rank5_relation_holds(lens, tb)
        wrong = Bundle5Data(
            base=lens,
            w2_zero=False,
            w4_zero=True,
            w5_zero=True,
            p1=lens.p1,
            w2_class=(1,),
            w4_class=(0,),
        )
        assert not rank5_relation_holds(lens, wrong)

    def test_missing_w4_class_is_refused(self):
        p = wide_w4_profile()
        with pytest.raises(
            ValueError,
            match="w4 class must be present exactly when the base has a mod-2 fragment",
        ):
            Bundle5Data(
                base=p, w2_zero=False, w4_zero=False, w5_zero=True, p1=p.p1, w2_class=(1,)
            )

    def test_explicit_w4_class_resolves_wide_case(self):
        p = wide_w4_profile()

        def bundle(w4_class):
            return Bundle5Data(
                base=p,
                w2_zero=False,
                w4_zero=False,
                w5_zero=True,
                p1=p.p1,
                w2_class=(1,),
                w4_class=w4_class,
            )

        # rho_4(p1) = (3, 0) and psquare(w2) = (1, 0): including w4 into
        # the modulus-4 slot adds 2 and keeps the relation, the modulus-2
        # slot adds nothing and breaks it
        assert rank5_relation_holds(p, bundle((1, 0)))
        assert not rank5_relation_holds(p, bundle((0, 1)))

    def test_profile_mismatch_refused(self):
        lens = lens_bundle(4)
        tb = tangent_bundle_classes(lens)
        with pytest.raises(ValueError, match="different profile"):
            rank5_relation_holds(catalog("wu"), tb)


class TestSerialization:
    def test_decision_to_dict_shape(self):
        d = decide_irreducible_so3(catalog("wu"))
        payload = d.to_dict()
        assert set(payload) == {"verdict", "theorem", "trace"}
        assert payload["verdict"] == "Yes"
        assert isinstance(payload["trace"], list)
        for line in payload["trace"]:
            assert set(line) == {"condition", "value", "ok"}
            assert isinstance(line["ok"], bool)


def _line(condition: str, value: str, ok: bool) -> dict:
    return {"condition": condition, "value": value, "ok": ok}


_SPIN = _line("w2(M) = 0 (spin)", "true", True)
_NON_SPIN = _line("w2(M) != 0 (non-spin)", "true", True)
_W4_ZERO = _line("w4(M) = 0", "true", True)
_P1_ZERO_DIV5 = _line("p1(M) divisible by 5", "p1(M) = 0", True)
_NO_ORDER4_Z3 = _line("H^4(M;Z) contains no element of order 4", "H^4(M;Z) = Z/3", True)
_ORDER4_Z4 = _line("H^4(M;Z) contains an element of order 4", "H^4(M;Z) = Z/4", True)
_W5 = _line("necessary: w5(M) = 0", "true (closed odd-dimensional)", True)


class TestFullIrreducibleTraces:
    """Whole traces of every branch shape, pinned line by line."""

    CASES = {
        "spin, simply connected": (
            lambda: catalog("s3xs2"),
            {
                "verdict": "Yes",
                "theorem": "Cor 1.5(a)/Thm 1.4(a)",
                "trace": [
                    _SPIN,
                    _W4_ZERO,
                    _P1_ZERO_DIV5,
                    _line("semicharacteristic chi-hat(M) = 0", "chi-hat(M) = 0", True),
                    _line(
                        "simply connected shortcut: dim H_2(M;Z_2) odd",
                        "dim H_2(M;Z_2) = 1",
                        True,
                    ),
                ],
            },
        ),
        "spin, H_1 nontrivial": (
            lambda: lens_bundle(5),
            {
                "verdict": "No",
                "theorem": "Thm 1.4(a)",
                "trace": [
                    _SPIN,
                    _W4_ZERO,
                    _line("p1(M) divisible by 5", "p1(M) = (3 mod 5)", False),
                    _line("semicharacteristic chi-hat(M) = 0", "chi-hat(M) = 1", False),
                ],
            },
        ),
        "non-spin, simply connected": (
            lambda: catalog("wu"),
            {
                "verdict": "Yes",
                "theorem": "Cor 1.5(b)/Thm 1.4(b)",
                "trace": [
                    _NON_SPIN,
                    _line(
                        "H^4(M;Z) contains no element of order 4", "H^4(M;Z) = 0", True
                    ),
                    _W4_ZERO,
                    _P1_ZERO_DIV5,
                    _line(
                        "simply connected shortcut: H^4(M;Z) = 0 makes both "
                        "conditions automatic",
                        "H^4(M;Z) = 0",
                        True,
                    ),
                ],
            },
        ),
        "non-spin, H_1 nontrivial": (
            lambda: circle_bundle(
                CircleBundleSpec(hypersurface(3), (3, -3, -3, 0, 0, 0, 0))
            ),
            {
                "verdict": "Yes",
                "theorem": "Thm 1.4(b)",
                "trace": [_NON_SPIN, _NO_ORDER4_Z3, _W4_ZERO, _P1_ZERO_DIV5],
            },
        ),
        "order-4 torsion, necessary condition fails": (
            lambda: lens_bundle(4),
            {
                "verdict": "No",
                "theorem": "Prop 2.4",
                "trace": [
                    _NON_SPIN,
                    _ORDER4_Z4,
                    _line(
                        "necessary: p1(M) divisible by 5", "p1(M) = (3 mod 4)", True
                    ),
                    _line("necessary: w4(M) = 0", "false", False),
                    _W5,
                ],
            },
        ),
        "order-4 torsion, undecided": (
            unknown_branch_profile_with_fragment,
            {
                "verdict": "Unknown",
                "theorem": "Remark 4.4",
                "trace": [
                    _NON_SPIN,
                    _ORDER4_Z4,
                    _line("necessary: p1(M) divisible by 5", "p1(M) = 0", True),
                    _line("necessary: w4(M) = 0", "true", True),
                    _W5,
                    _line(
                        "a decision theorem applies",
                        "none: non-spin with order-4 torsion in H^4(M;Z) is undecided",
                        False,
                    ),
                ],
            },
        ),
    }

    @pytest.mark.parametrize("shape", sorted(CASES))
    def test_trace_is_pinned(self, shape):
        build, expected = self.CASES[shape]
        assert decide_irreducible_so3(build()).to_dict() == expected
