"""Characteristic-class records for low-rank bundles over a 5-manifold profile.

Bundle3Data and Bundle5Data hold the classifying data of rank-3 and
rank-5 bundles: the relevant Stiefel-Whitney information (as vanishing
flags, plus class vectors when the base profile carries a mod-2
fragment) and the first Pontryagin class.  On top of these the module
implements the passage to the symmetric trace-free endomorphism bundle
(rank 3 to rank 5), a degree-5 twist for spin bundles, the necessary
conditions for a rank-5 bundle to admit the irreducible reduction, and
the primary/secondary obstruction report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .fgab import GroupElement, solve_divisibility
from .topology import (
    ManifoldProfile,
    check_class_vector,
    cup_product,
    element_to_dict,
    mod2_class_moduli,
    semicharacteristic,
    zero_mod2_class,
)


__all__ = [
    "Bundle3Data",
    "Bundle5Data",
    "NecessaryConditions",
    "ObstructionReport",
    "sym0_classes",
    "degree5_twist",
    "necessary_conditions",
    "obstruction_report",
    "tangent_bundle_classes",
]


def _check_class(bundle: Bundle3Data | Bundle5Data, name: str, vec, flag: bool) -> None:
    """A w2 or w4 class is carried exactly when the base has a mod-2
    fragment; then it is reduced in its group (H^2(M;Z2) or H^4(M;Z2))
    and agrees with its vanishing flag."""
    base = bundle.base
    if (vec is None) != (base.mod2_fragment is None):
        raise ValueError(
            f"{name} class must be present exactly when the base has a mod-2 fragment"
        )
    if vec is None:
        return
    if name == "w2":
        moduli, group = (2,) * base.mod2_fragment.h2_dim, "H^2(M;Z2)"
    else:
        moduli, group = mod2_class_moduli(base), "H^4(M;Z2)"
    check_class_vector(vec, moduli, f"{name} class", group)
    if flag != (not any(vec)):
        raise ValueError(f"{name}_zero flag contradicts the {name} class vector")


def _check_p1_and_w2(bundle: Bundle3Data | Bundle5Data) -> None:
    """Checks shared by the rank-3 and rank-5 records: p1 lies in
    H^4(M;Z) of the base, and the w2 class follows _check_class."""
    if bundle.p1.group != bundle.base.p1.group:
        raise ValueError("bundle p1 must live in H^4(M;Z) of the base")
    _check_class(bundle, "w2", bundle.w2_class, bundle.w2_zero)


def _record_dict(record: Bundle3Data | Bundle5Data) -> dict:
    """Every field by name: the base as its name, p1 by element_to_dict, tuples as lists."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    out["base"] = record.base.name
    out["p1"] = element_to_dict(record.p1)
    return out


@dataclass(frozen=True)
class Bundle3Data:
    """Classifying data of a rank-3 bundle: w2 and p1.

    w2_class (a vector in the basis of H^2(M;Z_2)) is carried exactly
    when the base profile has a mod-2 fragment; the w2_zero flag must
    agree with it.
    """

    base: ManifoldProfile
    w2_zero: bool
    p1: GroupElement
    w2_class: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_p1_and_w2(self)

    def to_dict(self) -> dict:
        return _record_dict(self)


@dataclass(frozen=True)
class Bundle5Data:
    """Classifying data of a rank-5 bundle: w2, w4, w5 and p1.

    w2_class and w4_class (the degree-4 mod-2 class in matched
    coordinates) are carried exactly when the base profile has a mod-2
    fragment, and each must agree with its vanishing flag.  w5 is kept
    as a flag only: no criterion here consumes the class itself.
    """

    base: ManifoldProfile
    w2_zero: bool
    w4_zero: bool
    w5_zero: bool
    p1: GroupElement
    w2_class: tuple[int, ...] | None = None
    w4_class: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_p1_and_w2(self)
        _check_class(self, "w4", self.w4_class, self.w4_zero)

    def to_dict(self) -> dict:
        return _record_dict(self)


@dataclass(frozen=True)
class NecessaryConditions:
    """Outcome of the three necessary conditions for a rank-5 bundle."""

    p1_divisible_by_5: bool
    w4_zero: bool
    w5_zero: bool

    @property
    def passes(self) -> bool:
        return self.p1_divisible_by_5 and self.w4_zero and self.w5_zero

    def to_dict(self) -> dict:
        return {**asdict(self), "passes": self.passes}


@dataclass(frozen=True)
class ObstructionReport:
    """Primary obstruction k1 = (mod-5 part, mod-2 part) and secondary k2.

    k1 vanishes iff the mod-5 reduction of p1 is zero and w4 = 0.  The
    secondary value is reported only where it is identified with the
    semi-characteristic: k1 vanishing and spin base.
    """

    k1_mod5_part_zero: bool
    k1_mod2_part_zero: bool
    k2_value: int | None

    @property
    def k1_vanishes(self) -> bool:
        return self.k1_mod5_part_zero and self.k1_mod2_part_zero

    def to_dict(self) -> dict:
        return {**asdict(self), "k1_vanishes": self.k1_vanishes}


def sym0_classes(bundle: Bundle3Data) -> Bundle5Data:
    """Classes of the rank-5 bundle of symmetric trace-free endomorphisms.

    The passage keeps w2, kills w4 and w5, and multiplies p1 by 5.
    """
    w4_class = (
        zero_mod2_class(bundle.base) if bundle.base.mod2_fragment is not None else None
    )
    return Bundle5Data(
        base=bundle.base,
        w2_zero=bundle.w2_zero,
        w4_zero=True,
        w5_zero=True,
        p1=bundle.p1.scale(5),
        w2_class=bundle.w2_class,
        w4_class=w4_class,
    )


def degree5_twist(bundle: Bundle3Data) -> Bundle3Data:
    """Twist of a rank-3 bundle with spin structure; scales p1 by 5.

    Only defined when the bundle carries a spin structure (w2 = 0).
    """
    if not bundle.w2_zero:
        raise ValueError("twist requires a rank-3 bundle with spin structure")
    return Bundle3Data(
        base=bundle.base,
        w2_zero=True,
        p1=bundle.p1.scale(5),
        w2_class=bundle.w2_class,
    )


def necessary_conditions(bundle: Bundle5Data) -> NecessaryConditions:
    """Divisibility of p1 by 5 and vanishing of w4, w5."""
    return NecessaryConditions(
        p1_divisible_by_5=solve_divisibility(bundle.p1, 5) is not None,
        w4_zero=bundle.w4_zero,
        w5_zero=bundle.w5_zero,
    )


def obstruction_report(bundle: Bundle5Data) -> ObstructionReport:
    """Evaluate the primary obstruction and, where identified, the secondary.

    The mod-5 part is the image of p1 in H^4 (x) Z_5, which vanishes
    iff 5 divides p1 because the kernel of G -> G (x) Z_5 is 5G.  The
    mod-2 part is w4.
    """
    k1_mod5 = solve_divisibility(bundle.p1, 5) is not None
    k1_mod2 = bundle.w4_zero
    k2 = None
    if k1_mod5 and k1_mod2 and bundle.w2_zero:
        k2 = semicharacteristic(bundle.base)
    return ObstructionReport(
        k1_mod5_part_zero=k1_mod5,
        k1_mod2_part_zero=k1_mod2,
        k2_value=k2,
    )


def tangent_bundle_classes(profile: ManifoldProfile) -> Bundle5Data:
    """Rank-5 record of the tangent bundle of a valid profile.

    w5 is hard-set to zero: the top Stiefel-Whitney class of a closed
    odd-dimensional manifold vanishes with its Euler characteristic.
    When the profile has a fragment, w4 is w2 cup w2 by Wu's formula,
    which ``validate`` checks against the w4 flag.
    """
    frag = profile.mod2_fragment
    w2_class = w4_class = None
    if frag is not None:
        w2_class = frag.w2_class
        w4_class = cup_product(profile, w2_class, w2_class)
    return Bundle5Data(
        base=profile,
        w2_zero=profile.spin,
        w4_zero=profile.w4_is_zero,
        w5_zero=True,
        p1=profile.p1,
        w2_class=w2_class,
        w4_class=w4_class,
    )
