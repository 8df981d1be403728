"""Decision procedures with theorem-cited traces.

Each decision returns a verdict (Yes, No or Unknown), the citation tag
of the result that justifies it, and an ordered trace of checked
conditions.  Unknown is a first-class outcome: for a non-spin profile
whose H^4 contains an element of order 4, no implemented theorem
decides existence, and the engine reports exactly that instead of
extrapolating.

Citation tags ("Thm 1.4(a)" and so on) are opaque strings pinned by
golden tests; they name the statements backing each branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .charclass import Bundle5Data
from .fgab import GroupElement, has_element_of_order, solve_divisibility, tensor_reduction
from .topology import (
    ManifoldProfile,
    homology_mod2_dimension,
    kervaire_semicharacteristic,
    mod4_class_moduli,
    pontryagin_square,
    semicharacteristic,
)


__all__ = [
    "Verdict",
    "TraceLine",
    "Decision",
    "decide_irreducible_so3",
    "decide_two_field",
    "decide_standard_so3",
    "rank3_bundle_exists",
    "rank5_relation_holds",
]


class Verdict(Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class TraceLine:
    condition: str
    value: str
    satisfied: bool

    def to_dict(self) -> dict:
        return {"condition": self.condition, "value": self.value, "ok": self.satisfied}


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    theorem: str
    trace: tuple[TraceLine, ...]

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "theorem": self.theorem,
            "trace": [line.to_dict() for line in self.trace],
        }


def _bool(value: bool) -> str:
    return "true" if value else "false"


def decide_irreducible_so3(profile: ManifoldProfile) -> Decision:
    """Existence of an irreducible SO(3)-structure on the profile.

    Spin profiles are decided by the vanishing of w4, divisibility of
    p1 by 5 and vanishing of the semi-characteristic.  Non-spin
    profiles without order-4 elements in H^4(M;Z) are decided by the
    first two conditions alone.  Non-spin profiles with order-4
    torsion are rejected when the necessary conditions fail, and left
    Unknown otherwise.  Simply connected profiles get the shortcut
    citation prefixed and the parity restatement recorded.
    """
    h4 = profile.p1.group
    simply_connected = profile.homology[1].is_trivial()
    p1_div5 = solve_divisibility(profile.p1, 5) is not None
    w4_line = TraceLine("w4(M) = 0", _bool(profile.w4_is_zero), profile.w4_is_zero)
    p1_line = TraceLine("p1(M) divisible by 5", f"p1(M) = {profile.p1}", p1_div5)
    holds = profile.w4_is_zero and p1_div5

    if profile.spin:
        case = "a"
        chi = semicharacteristic(profile)
        holds = holds and chi == 0
        trace = [
            TraceLine("w2(M) = 0 (spin)", "true", True),
            w4_line,
            p1_line,
            TraceLine("semicharacteristic chi-hat(M) = 0", f"chi-hat(M) = {chi}", chi == 0),
        ]
        if simply_connected:
            dim2 = homology_mod2_dimension(profile, 2)
            trace.append(
                TraceLine(
                    "simply connected shortcut: dim H_2(M;Z_2) odd",
                    f"dim H_2(M;Z_2) = {dim2}",
                    dim2 % 2 == 1,
                )
            )
    elif not has_element_of_order(h4, 4):
        case = "b"
        trace = [
            TraceLine("w2(M) != 0 (non-spin)", "true", True),
            TraceLine("H^4(M;Z) contains no element of order 4", f"H^4(M;Z) = {h4}", True),
            w4_line,
            p1_line,
        ]
        if simply_connected:
            trace.append(
                TraceLine(
                    "simply connected shortcut: H^4(M;Z) = 0 makes both conditions automatic",
                    f"H^4(M;Z) = {h4}",
                    h4.is_trivial(),
                )
            )
    else:
        case = None
        trace = [
            TraceLine("w2(M) != 0 (non-spin)", "true", True),
            TraceLine("H^4(M;Z) contains an element of order 4", f"H^4(M;Z) = {h4}", True),
            *(
                TraceLine("necessary: " + line.condition, line.value, line.satisfied)
                for line in (p1_line, w4_line)
            ),
            TraceLine("necessary: w5(M) = 0", "true (closed odd-dimensional)", True),
        ]
        if holds:
            trace.append(
                TraceLine(
                    "a decision theorem applies",
                    "none: non-spin with order-4 torsion in H^4(M;Z) is undecided",
                    False,
                )
            )

    if case is None:
        verdict, theorem = (Verdict.UNKNOWN, "Remark 4.4") if holds else (Verdict.NO, "Prop 2.4")
    else:
        verdict = Verdict.YES if holds else Verdict.NO
        theorem = f"Thm 1.4({case})"
        if simply_connected:
            theorem = f"Cor 1.5({case})/{theorem}"
    return Decision(verdict, theorem, tuple(trace))


def decide_two_field(profile: ManifoldProfile, criterion: str = "atiyah") -> Decision:
    """Existence of two pointwise independent vector fields.

    criterion "atiyah": decided by the Kervaire semi-characteristic,
    no spin hypothesis.  criterion "thomas": decided by the mod-2
    semi-characteristic, requires spin; the w4 hypothesis is recorded
    as forced by the Wu formula in dimension 5.
    """
    if criterion == "atiyah":
        k = kervaire_semicharacteristic(profile)
        trace = (
            TraceLine("closed oriented connected 5-manifold", "profile valid", True),
            TraceLine("Kervaire semicharacteristic k(M) = 0", f"k(M) = {k}", k == 0),
        )
        return Decision(Verdict.YES if k == 0 else Verdict.NO, "Thm 1.3", trace)
    if criterion == "thomas":
        if not profile.spin:
            raise ValueError("criterion inapplicable: manifold is not spin")
        chi = semicharacteristic(profile)
        trace = (
            TraceLine("w2(M) = 0 (spin)", "true", True),
            TraceLine("w4(M) = 0", "forced by Wu formula", True),
            TraceLine(
                "semicharacteristic chi-hat(M) = 0", f"chi-hat(M) = {chi}", chi == 0
            ),
        )
        return Decision(Verdict.YES if chi == 0 else Verdict.NO, "Cor 1.2", trace)
    raise ValueError(f"unknown two-field criterion {criterion!r}")


def decide_standard_so3(profile: ManifoldProfile) -> Decision:
    """Existence of a standard SO(3)-structure (equivalent to a two-field).

    The verdict is the Atiyah two-field verdict.  For spin profiles the
    trace additionally carries a cross-check of the reformulation
    "irreducible iff standard and 5 | p1"; it holds on every valid spin
    profile, because ``validate``'s spin parity law makes the Thomas
    and Atiyah semi-characteristics agree there.
    """
    base = decide_two_field(profile, "atiyah")
    trace = list(base.trace)
    if profile.spin:
        irreducible = decide_irreducible_so3(profile)
        p1_div5 = solve_divisibility(profile.p1, 5) is not None
        reformulated = base.verdict is Verdict.YES and p1_div5
        agree = (irreducible.verdict is Verdict.YES) == reformulated
        trace.append(
            TraceLine(
                "Cor 1.6 cross-check: irreducible iff (standard and 5 | p1)",
                f"irreducible = {irreducible.verdict.value}, standard = "
                f"{base.verdict.value}, p1 divisible by 5 = {_bool(p1_div5)}",
                agree,
            )
        )
    else:
        trace.append(
            TraceLine(
                "Cor 1.6 cross-check", "skipped: spin hypothesis absent", True
            )
        )
    return Decision(base.verdict, "Remark 1.9/Thm 1.3", tuple(trace))


def _format_vector(vec: tuple[int, ...]) -> str:
    return "(" + ", ".join(str(x) for x in vec) + ")"


def rank3_bundle_exists(
    profile: ManifoldProfile, w2_class: tuple[int, ...], p1_candidate: GroupElement
) -> Decision:
    """Existence of a rank-3 bundle with prescribed w2 and p1.

    Decided by the relation rho_4(P) = psquare(W) in H^4(M;Z_4); needs
    the mod-2 fragment for the Pontryagin square.  The hypotheses of
    the classification (closed oriented 5-manifold, no order-4 torsion
    in H^4) are recorded in the trace with their actual truth values.
    """
    rhs = pontryagin_square(profile, tuple(w2_class))
    h4 = profile.p1.group
    if p1_candidate.group != h4:
        raise ValueError("candidate p1 must live in H^4(M;Z)")
    lhs = tensor_reduction(p1_candidate, 4)
    equal = lhs == rhs
    trace = (
        TraceLine("closed oriented connected 5-manifold", "profile valid", True),
        TraceLine(
            "H^4(M;Z) contains no element of order 4",
            f"H^4(M;Z) = {h4}",
            not has_element_of_order(h4, 4),
        ),
        TraceLine(
            "rho_4(P) = psquare(W) in H^4(M;Z_4)",
            f"rho_4(P) = {_format_vector(lhs)}, psquare(W) = {_format_vector(rhs)}",
            equal,
        ),
    )
    return Decision(Verdict.YES if equal else Verdict.NO, "Thm 4.2", trace)


def rank5_relation_holds(profile: ManifoldProfile, bundle: Bundle5Data) -> bool:
    """Whether rho_4(p1) = psquare(w2) + i(w4) holds for the bundle data.

    Evaluated in H^4(M;Z_4) through the profile's fragment.
    """
    if bundle.base != profile:
        raise ValueError("bundle data belongs to a different profile")
    # the record carries w2 and w4 classes exactly when its base has a
    # fragment, so pontryagin_square refuses a profile without one
    square = pontryagin_square(profile, bundle.w2_class)
    # i(w4) doubles componentwise, as in pontryagin_square
    moduli = mod4_class_moduli(profile)
    rhs = tuple((s + 2 * a) % m for s, a, m in zip(square, bundle.w4_class, moduli))
    return tensor_reduction(bundle.p1, 4) == rhs
