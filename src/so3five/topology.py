"""Invariant profiles of closed oriented connected 5-manifolds.

A profile records integral homology H_0..H_5 in invariant-factor form,
the spin flag (w_2 = 0), a flag for the vanishing of w_4, the first
Pontryagin class as an element of H^4(M; Z), and optionally a small
mod-2 cohomology fragment (cup products and Pontryagin squares on a
basis of H^2(M; Z_2)) for bundle-existence checks.

Cohomology is never stored: it is derived from homology through the
universal coefficient theorem, so the profile cannot drift out of sync
with itself.  The validator enforces the Poincare duality constraints
that a closed oriented connected 5-manifold imposes on such data, and
it runs when a profile is built: constructing an invalid
``ManifoldProfile`` raises ``ProfileValidationError``, so every profile
that exists is valid and no consumer checks again.

Degree-4 coefficient classes (values of cup products mod 2 and of
Pontryagin squares mod 4) are represented in *matched coordinates*:
one cyclic coordinate per coordinate of H^4(M; Z), with moduli given by
``tensor_reduction_moduli``.  In these coordinates the coefficient
reduction maps Z -> Z/4 and Z/2 -> Z/4 are componentwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from math import gcd

from .fgab import FgAbGroup, GroupElement, tensor_reduction_moduli


__all__ = [
    "CoefficientRing",
    "Mod2Fragment",
    "ManifoldProfile",
    "ProfileValidationError",
    "cohomology",
    "validate",
    "require_valid",
    "semicharacteristic",
    "kervaire_semicharacteristic",
    "homology_mod2_dimension",
    "cup_product",
    "pontryagin_square",
    "profile_to_dict",
    "profile_from_dict",
    "profile_to_json",
    "profile_from_json",
]


_MODULI = {"Z2": 2, "Z4": 4, "Z5": 5, "Z10": 10}


class CoefficientRing(Enum):
    """Coefficient rings supported by the cohomology computation."""

    Z = "Z"
    Z2 = "Z2"
    Z4 = "Z4"
    Z5 = "Z5"
    Z10 = "Z10"
    R = "R"

    @property
    def modulus(self) -> int | None:
        return _MODULI.get(self._value_)


@dataclass(frozen=True)
class Mod2Fragment:
    """Partial ring data on a basis of H^2(M; Z_2).

    cup22[i][j] is the cup product of the i-th and j-th basis classes,
    a degree-4 mod-2 class in matched coordinates; psquare[i] is the
    Pontryagin square of the i-th basis class, a degree-4 mod-4 class.
    w2_class is the coordinate vector of w_2(M) in the same basis.
    Pontryagin squares of non-basis classes are derived through the
    quadratic law P(x + y) = P(x) + P(y) + i(x cup y), where i doubles
    a mod-2 class into a mod-4 class.
    """

    h2_dim: int
    cup22: tuple[tuple[tuple[int, ...], ...], ...]
    psquare: tuple[tuple[int, ...], ...]
    w2_class: tuple[int, ...]


@dataclass(frozen=True)
class ManifoldProfile:
    """Invariants of a closed oriented connected 5-manifold.

    The name is a label only and does not participate in equality;
    profiles are equal iff their invariants are.  Construction runs
    ``validate`` and raises ``ProfileValidationError`` listing every
    violation, so an instance is always a valid profile.  Since
    ``validate`` checks it, ``p1.group`` is H^4(M;Z) of the profile.
    The private ``_cohomology`` holds the groups :func:`cohomology` has
    computed for this instance; it is not an invariant, so it takes no
    part in equality, hashing, repr or serialisation, and a copy made
    with ``dataclasses.replace`` starts with an empty one.
    """

    name: str = field(compare=False)
    homology: tuple[FgAbGroup, ...]
    spin: bool
    w4_is_zero: bool
    p1: GroupElement
    mod2_fragment: Mod2Fragment | None = None
    _cohomology: dict[tuple[int, str], FgAbGroup] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.homology) != 6:
            raise ValueError("a 5-manifold profile needs homology H_0..H_5")
        object.__setattr__(self, "homology", tuple(self.homology))
        require_valid(self)


class ProfileValidationError(ValueError):
    """Raised when a profile that violates the validator is built."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid profile: " + "; ".join(self.violations))


# ---------------------------------------------------------------------------
# cohomology via universal coefficients
# ---------------------------------------------------------------------------


def cohomology(
    profile: ManifoldProfile, k: int, ring: CoefficientRing = CoefficientRing.Z
) -> FgAbGroup:
    """H^k(M; R) computed from the stored homology.

    Integral coefficients: H^k = Z^{rank H_k} + torsion(H_{k-1}).
    Finite cyclic coefficients Z/m: H_k (x) Z/m + Tor(H_{k-1}, Z/m)
    (for finitely generated homology this agrees with the Hom/Ext
    description).  Both summands are direct sums of cyclic groups:
    H_k (x) Z/m has one Z/m per free factor and Z/gcd(d, m) per Z/d,
    and Tor(Z/d, Z/m) = Z/gcd(d, m).  Only the gcds are canonicalised:
    each divides m, so appending one m per free factor keeps the chain,
    and the free rank never enters the smoothing.  Real coefficients
    keep the free rank only.

    Each group is computed once per profile and kept in the profile's
    private cache, keyed by degree and ring; later calls return that
    same group.  This is sound because the group is a function of the
    homology alone, which is an immutable tuple of frozen groups, and
    the result is itself frozen.  An invalid degree raises before the
    cache is read and is never stored.
    """
    if not 0 <= k <= 5:
        raise ValueError("cohomology degree must be between 0 and 5")
    key = (k, ring._value_)  # a str hashes in C, an Enum member in Python
    group = profile._cohomology.get(key)
    if group is not None:
        return group
    hk = profile.homology[k]
    prev_torsion = profile.homology[k - 1].torsion if k >= 1 else ()
    if ring is CoefficientRing.Z:
        group = FgAbGroup(hk.free_rank, prev_torsion)
    elif ring is CoefficientRing.R:
        group = FgAbGroup(hk.free_rank, ())
    else:
        m = ring.modulus
        group = FgAbGroup.from_cyclic_orders(0, [gcd(d, m) for d in hk.torsion + prev_torsion])
        if hk.free_rank:
            group = FgAbGroup(0, group.torsion + (m,) * hk.free_rank)
    profile._cohomology[key] = group
    return group


def homology_mod2_dimension(profile: ManifoldProfile, i: int) -> int:
    """dim over Z_2 of H_i(M; Z_2) = H_i (x) Z_2 + Tor(H_{i-1}, Z_2).

    The same universal-coefficient sum gives H^i(M; Z_2), which
    ``cohomology`` builds as (Z/2)^k with free rank 0, so its dimension
    is the length of its torsion; 0 outside 0..5.
    """
    if not 0 <= i <= 5:
        return 0
    return len(cohomology(profile, i, CoefficientRing.Z2).torsion)


def semicharacteristic(profile: ManifoldProfile) -> int:
    """Mod-2 semi-characteristic: sum of dim H_i(M; Z_2), i = 0..2, mod 2.

    This is the obstruction-theoretic invariant; it is *not* the
    Kervaire semi-characteristic, which uses real coefficients.
    """
    return sum(homology_mod2_dimension(profile, i) for i in range(3)) % 2


def kervaire_semicharacteristic(profile: ManifoldProfile) -> int:
    """Kervaire semi-characteristic: (b_0 + b_2 + b_4) mod 2.

    Betti numbers are real-coefficient ranks.  Do not conflate this
    with the mod-2 semi-characteristic: on profiles whose H_2 carries
    2-torsion the two differ.
    """
    ranks = (profile.homology[0].free_rank, profile.homology[2].free_rank,
             profile.homology[4].free_rank)
    return sum(ranks) % 2


# ---------------------------------------------------------------------------
# degree-4 coefficient classes in matched coordinates
# ---------------------------------------------------------------------------


def mod2_class_moduli(profile: ManifoldProfile) -> tuple[int, ...]:
    """Cyclic moduli of H^4(M; Z_2) matched to the coordinates of H^4(M; Z)."""
    return tensor_reduction_moduli(profile.p1.group, 2)


def mod4_class_moduli(profile: ManifoldProfile) -> tuple[int, ...]:
    """Cyclic moduli of H^4(M; Z_4) matched to the coordinates of H^4(M; Z)."""
    return tensor_reduction_moduli(profile.p1.group, 4)


def zero_mod2_class(profile: ManifoldProfile) -> tuple[int, ...]:
    return (0,) * len(mod2_class_moduli(profile))


def zero_mod4_class(profile: ManifoldProfile) -> tuple[int, ...]:
    return (0,) * len(mod4_class_moduli(profile))


def include_mod2_into_mod4(profile: ManifoldProfile, vec: tuple[int, ...]) -> tuple[int, ...]:
    """The map H^4(M; Z_2) -> H^4(M; Z_4) induced by doubling Z_2 -> Z_4.

    Componentwise 2*a in the matched coordinates.  On a coordinate of
    modulus 2 on both sides (torsion coefficient 2 mod 4) this is the
    zero map, which is the correct induced map there.
    """
    check_class_vector(vec, mod2_class_moduli(profile), "mod-2 class", "H^4(M;Z2)")
    return tuple((2 * a) % m for a, m in zip(vec, mod4_class_moduli(profile)))


def _vec_sum(vectors, moduli: tuple[int, ...]) -> tuple[int, ...]:
    acc = [0] * len(moduli)
    for vec in vectors:
        for i, a in enumerate(vec):
            acc[i] += a
    return tuple(a % m for a, m in zip(acc, moduli))


def _require_fragment(profile: ManifoldProfile) -> Mod2Fragment:
    if profile.mod2_fragment is None:
        raise ValueError("insufficient ring data: profile has no mod-2 fragment")
    return profile.mod2_fragment


def check_class_vector(vec, moduli: tuple[int, ...], what: str, group: str) -> None:
    """The one rule for a class vector: an integer coordinate per modulus
    m, each reduced, 0 <= a < m.  A degree-2 mod-2 class has moduli
    (2,) * dim; a degree-4 class has the matched moduli of its
    coefficient group."""
    reduced = len(vec) == len(moduli) and all(
        type(a) is int and 0 <= a < m for a, m in zip(vec, moduli)
    )
    if not reduced:
        if set(moduli) <= {2}:
            raise ValueError(f"{what} must be a 0/1 vector of length {len(moduli)}")
        raise ValueError(
            f"{what} must be reduced in {group}: one coordinate below each modulus {moduli}"
        )


def cup_product(profile: ManifoldProfile, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Cup product of two mod-2 degree-2 classes, from the fragment tables."""
    frag = _require_fragment(profile)
    for vec in (x, y):
        check_class_vector(vec, (2,) * frag.h2_dim, "degree-2 class", "H^2(M;Z2)")
    moduli = mod2_class_moduli(profile)
    terms = [
        frag.cup22[i][j]
        for i in range(frag.h2_dim)
        if x[i]
        for j in range(frag.h2_dim)
        if y[j]
    ]
    return _vec_sum(terms, moduli)


def pontryagin_square(profile: ManifoldProfile, x: tuple[int, ...]) -> tuple[int, ...]:
    """Pontryagin square of a mod-2 degree-2 class, a mod-4 class.

    Basis values come from the fragment table; the quadratic law
    extends them to arbitrary classes:
    P(sum x_i e_i) = sum x_i P(e_i) + i(sum_{i<j} x_i x_j e_i cup e_j).
    The inclusion i doubles componentwise, and 2 (a mod 2) = 2a mod m
    for every m dividing 4, so each cross term enters the one mod-4 sum
    doubled, without a mod-2 sum first.
    """
    frag = _require_fragment(profile)
    n = frag.h2_dim
    check_class_vector(x, (2,) * n, "degree-2 class", "H^2(M;Z2)")
    terms = [frag.psquare[i] for i in range(n) if x[i]] + [
        tuple(2 * a for a in frag.cup22[i][j])
        for i in range(n) if x[i] for j in range(i + 1, n) if x[j]
    ]
    return _vec_sum(terms, mod4_class_moduli(profile))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _validate_fragment(profile: ManifoldProfile, out: list[str]) -> None:
    frag = profile.mod2_fragment
    assert frag is not None
    n = frag.h2_dim
    if n < 0:
        out.append("mod-2 fragment dimension must be nonnegative")
        return
    expected = homology_mod2_dimension(profile, 2)
    if n != expected:
        out.append(
            f"mod-2 fragment dimension {n} does not match dim H^2(M;Z2) = {expected}"
        )
    if len(frag.cup22) != n or any(len(row) != n for row in frag.cup22):
        out.append("cup product table must be square of the fragment dimension")
        return
    if len(frag.psquare) != n:
        out.append("Pontryagin square table must cover the fragment basis")
        return
    moduli2 = mod2_class_moduli(profile)
    moduli4 = mod4_class_moduli(profile)
    try:
        check_class_vector(frag.w2_class, (2,) * n, "w2 class", "H^2(M;Z2)")
        for row in frag.cup22:
            for val in row:
                check_class_vector(val, moduli2, "cup product value", "H^4(M;Z2)")
        for val in frag.psquare:
            check_class_vector(val, moduli4, "Pontryagin square value", "H^4(M;Z4)")
    except ValueError as exc:
        out.append(str(exc))
        return
    for i in range(n):
        for j in range(i + 1, n):
            if frag.cup22[i][j] != frag.cup22[j][i]:
                out.append("cup product table must be symmetric")
    for i in range(n):
        # 2 P(e_i) + i(e_i cup e_i) = 0, with i doubling componentwise
        pairs = zip(frag.psquare[i], frag.cup22[i][i], moduli4)
        if any(2 * (p + c) % m for p, c, m in pairs):
            out.append(
                "Pontryagin square table violates the quadratic law on basis classes"
            )
            break
    if profile.spin == any(frag.w2_class):
        out.append("fragment w2 class must vanish exactly when the profile is spin")
    if profile.w4_is_zero == any(cup_product(profile, frag.w2_class, frag.w2_class)):
        out.append("w4 must equal w2 cup w2 (Wu formula)")


def validate(profile: ManifoldProfile) -> list[str]:
    """All constraint violations of the profile (empty for a valid one).

    Checks connectivity and closedness (H_0 = H_5 = Z), the Poincare
    duality constraints (H_4 torsion-free of rank b_1, torsion of H_1
    equal to torsion of H_3, b_2 = b_3), the Wu-formula consequences
    for the flags, the spin parity law, the home of p1, and the
    internal consistency of the mod-2 fragment when present.  w2 is a
    class in H^2(M;Z2), so a profile with H^2(M;Z2) = 0 has w2 = 0 and
    must be spin.

    Wu's formula: the Wu class of a closed oriented 5-manifold is
    v = 1 + v_2 (v_i = 0 for 2i > 5, and v_1 = w_1 = 0), so w = Sq(v)
    gives w_2 = v_2 and w_4 = Sq^2 v_2 = w_2^2 (Milnor-Stasheff, Section
    11).  So spin forces w4 = 0, and with a fragment the w4 flag must
    say whether w2 cup w2 vanishes.

    Spin parity law: universal coefficients give dim H_i(M;Z2) =
    b_i + t_2(H_i) + t_2(H_{i-1}), t_2 counting even torsion
    coefficients, so with H_0 = Z and b_4 = b_1 the semi-characteristics
    satisfy chi-hat - k = t_2(H_2) (mod 2).  Lusztig-Milnor-Peterson
    (Topology 8, 1969) give chi-hat - k = <w2 w3, [M]>, which is 0 when
    w2 = 0: a spin profile has an even t_2(H_2).
    """
    out: list[str] = []
    h = profile.homology
    z = FgAbGroup(1, ())
    if h[0] != z:
        out.append("H0 must be Z (connected)")
    if h[5] != z:
        out.append("H5 must be Z (closed oriented)")
    if h[4].torsion:
        out.append("H4 must be torsion-free")
    if h[4].free_rank != h[1].free_rank:
        out.append("rank H4 must equal rank H1 (Poincare duality)")
    if h[1].torsion != h[3].torsion:
        out.append("torsion of H1 must equal torsion of H3 (Poincare duality)")
    if h[2].free_rank != h[3].free_rank:
        out.append("rank H2 must equal rank H3 (Poincare duality)")
    if not profile.spin and cohomology(profile, 2, CoefficientRing.Z2).is_trivial():
        out.append("w2 lives in H^2(M;Z2) = 0, so the spin flag must be set")
    if profile.spin and not profile.w4_is_zero:
        out.append("spin forces w4 = 0 (Wu formula)")
    if profile.spin and sum(1 for d in h[2].torsion if d % 2 == 0) % 2:
        out.append(
            "spin forces an even number of even torsion coefficients in H2 "
            "(Lusztig-Milnor-Peterson)"
        )
    if cohomology(profile, 4, CoefficientRing.Z2).is_trivial() and not profile.w4_is_zero:
        out.append("w4 lives in H^4(M;Z2) = 0, so the w4 flag must be set")
    if profile.p1.group != cohomology(profile, 4):
        out.append("p1 must be an element of H^4(M;Z)")
    if profile.mod2_fragment is not None and not out:
        _validate_fragment(profile, out)
    return out


def require_valid(profile: ManifoldProfile) -> None:
    violations = validate(profile)
    if violations:
        raise ProfileValidationError(violations)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def json_int(value: object, what: str) -> int:
    """A JSON integer as is; bools, floats and strings are refused, not coerced."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_bool(value: object, what: str) -> bool:
    """A JSON boolean read as is; any other value is refused."""
    if type(value) is not bool:
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def group_to_dict(group: FgAbGroup) -> dict:
    return {"free": group.free_rank, "torsion": list(group.torsion)}


def element_to_dict(x: GroupElement) -> dict:
    return {"free": list(x.free), "torsion": list(x.torsion)}


def group_from_dict(data: dict) -> FgAbGroup:
    return FgAbGroup(
        json_int(data["free"], "free rank"),
        tuple(json_int(d, "torsion coefficient") for d in data.get("torsion", ())),
    )


def _fragment_to_dict(frag: Mod2Fragment) -> dict:
    return {
        "h2_dim": frag.h2_dim,
        "cup22": [[list(v) for v in row] for row in frag.cup22],
        "psquare": [list(v) for v in frag.psquare],
        "w2_class": list(frag.w2_class),
    }


def _fragment_from_dict(data: dict) -> Mod2Fragment:
    def vec(values, what: str) -> tuple[int, ...]:
        return tuple(json_int(a, what) for a in values)

    return Mod2Fragment(
        h2_dim=json_int(data["h2_dim"], "h2_dim"),
        cup22=tuple(tuple(vec(v, "cup22 entry") for v in row) for row in data["cup22"]),
        psquare=tuple(vec(v, "psquare entry") for v in data["psquare"]),
        w2_class=vec(data["w2_class"], "w2_class entry"),
    )


def profile_to_dict(profile: ManifoldProfile) -> dict:
    return {
        "name": profile.name,
        "homology": [group_to_dict(g) for g in profile.homology],
        "spin": profile.spin,
        "w4_zero": profile.w4_is_zero,
        "p1": element_to_dict(profile.p1),
        "mod2_fragment": (
            _fragment_to_dict(profile.mod2_fragment)
            if profile.mod2_fragment is not None
            else None
        ),
    }


def profile_from_dict(data: dict) -> ManifoldProfile:
    try:
        homology = tuple(group_from_dict(g) for g in data["homology"])
        if len(homology) != 6:
            raise ValueError("homology must list H_0..H_5")
        h4 = FgAbGroup(homology[4].free_rank, homology[3].torsion)
        p1_data = data.get("p1", {})
        if not isinstance(p1_data, dict):
            raise TypeError(f"p1 must be an object, got {p1_data!r}")
        p1 = GroupElement(
            h4,
            tuple(json_int(c, "p1 coordinate") for c in p1_data.get("free", ())),
            tuple(json_int(c, "p1 coordinate") for c in p1_data.get("torsion", ())),
        )
        frag_data = data.get("mod2_fragment")
        fragment = _fragment_from_dict(frag_data) if frag_data is not None else None
        return ManifoldProfile(
            name=str(data.get("name", "profile")),
            homology=homology,
            spin=json_bool(data["spin"], "spin"),
            w4_is_zero=json_bool(data["w4_zero"], "w4_zero"),
            p1=p1,
            mod2_fragment=fragment,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed profile data: {exc}") from exc


def profile_to_json(profile: ManifoldProfile) -> str:
    return json.dumps(profile_to_dict(profile), sort_keys=True)


def profile_from_json(text: str) -> ManifoldProfile:
    return profile_from_dict(json.loads(text))
