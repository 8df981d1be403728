"""Geometric constructors for 5-manifold invariant profiles.

Recipes covered: a small catalog of standard spaces, connected sums,
products of a closed oriented 3-manifold with a closed oriented
surface, degree-d hypersurfaces in complex projective 3-space (as
4-manifold bases), and circle bundles over simply connected closed
oriented 4-manifolds via the Gysin sequence.  An exhaustive bounded
search for Euler classes with prescribed orthogonality and torsion
completes the circle-bundle pipeline.

Every constructor returns a profile that passes topology.validate(),
which ManifoldProfile runs when it is built.  Nothing is re-checked per
call: FourManifoldProfile's refusals (b2 x b2, |det Q| = 1, signature,
p1 = 3 * signature) settle the hypersurface arithmetic; Q is invertible
over Z, so a circle bundle's torsion content(Q c) is content(c), the
cokernel of a nonzero column (the Smith form that fgab's tests pin).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product as _cartesian
from operator import index, mul

from .fgab import (
    FgAbGroup,
    IntegerMatrix,
    direct_sum_elements,
    mod_p_dimension,
    tensor_reduction_moduli,
    vector_content,
)
from .topology import ManifoldProfile, Mod2Fragment


__all__ = [
    "FourManifoldProfile",
    "CircleBundleSpec",
    "catalog",
    "catalog_names",
    "connected_sum",
    "product_3x2",
    "hypersurface",
    "hyperplane_class",
    "circle_bundle",
    "find_euler_class",
]


# ---------------------------------------------------------------------------
# 4-manifold bases
# ---------------------------------------------------------------------------


def _determinant_and_signature(q: IntegerMatrix) -> tuple[int, int]:
    """Determinant and signature of a symmetric integer matrix, exactly.

    q splits into blocks: index sets, each with its principal block, such
    that q vanishes between any two of them.  Listing the sets one after
    another is a permutation P with P^T q P the direct sum of the blocks,
    so det(q) = det(P^T q P) is the product of the block determinants and
    signature, a congruence invariant, their sum; q is symmetric iff every
    block is.  A block's (det, sig) is a function of its entries, so a
    block equal to one met earlier in the call reuses that pair exactly,
    and each distinct block (two in a hypersurface form) is checked and
    diagonalized once.

    A matrix built by IntegerMatrix.block_diagonal carries the blocks it
    was built from, in index order, and they are sound here: the builder
    writes zeros everywhere off them, so q vanishes between any two, each
    is a union of the components of the support graph below, and the
    product and sum above hold over them as over the components.  No
    entry outside a block is read.  Any other matrix is split by one pass
    that finds the row supports supp(i) = {j : q[i][j] != 0}; its blocks
    are the components of the graph i -- supp(i).  Such a q is symmetric
    iff q[j][i] = q[i][j] for all j in supp(i): an asymmetric pair has a
    nonzero side, whose row lists the pair.
    """
    return _form_invariants(q)[:2]


def _form_invariants(
    q: IntegerMatrix,
) -> tuple[int, int, Sequence[int], tuple[tuple[tuple[int, ...], ...], ...]]:
    """_determinant_and_signature's pair, then the blocks it used: q's
    indices in block order, and the blocks' entries in that order."""
    if q._blocks is None:
        order, blocks = _components(q)
    else:
        order, blocks = range(q.rows), q._blocks
    known: dict[tuple, tuple[int, int]] = {}  # block entries -> (det, sig), for this call only
    determinant, signature = 1, 0
    for block in blocks:
        if block not in known:
            if block != tuple(zip(*block)):
                raise ValueError("intersection form must be symmetric")
            known[block] = _block_determinant_and_signature(block)
        determinant *= known[block][0]
        signature += known[block][1]
    return determinant, signature, order, blocks


def _components(q: IntegerMatrix) -> tuple[list[int], tuple[tuple[tuple[int, ...], ...], ...]]:
    """q's indices listed component by component, for the components of
    its support graph, and their principal blocks; refuses a q that is
    not symmetric."""
    e, n = q.entries, q.rows
    support = [tuple(compress(range(n), row)) for row in e]
    if q.cols != n or any(e[j][i] != e[i][j] for i in range(n) for j in support[i]):
        raise ValueError("intersection form must be symmetric")
    seen = [False] * n
    order, blocks = [], []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for i in component:
            for j in support[i]:
                if not seen[j]:
                    seen[j] = True
                    component.append(j)
        blocks.append(tuple(tuple(e[i][j] for j in component) for i in component))
        order += component
    return order, tuple(blocks)


def _block_determinant_and_signature(rows: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    """Determinant and signature of a symmetric integer block.

    The block is congruence-diagonalized over Fractions.  Simultaneous
    row/column swaps, symmetric additions and the elimination steps all
    preserve the determinant, so the pivot product equals the
    determinant, and the pivot signs give the signature.  Zero rows
    yield zero pivots.  The block below and right of the pivot stays
    symmetric, so the rows to clear are the pivot row's support.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    determinant, signature = Fraction(1), 0
    for t in range(n):
        if a[t][t] == 0:
            if all(a[t][j] == 0 for j in range(t, n)):
                determinant = Fraction(0)
                continue
            k = next((i for i in range(t + 1, n) if a[i][i] != 0), None)
            if k is not None:
                a[t], a[k] = a[k], a[t]
                for row in a:
                    row[t], row[k] = row[k], row[t]
            else:
                # every remaining diagonal entry vanishes; fold a nonzero
                # off-diagonal entry onto the diagonal (giving 2*a[t][j])
                j = next(j for j in range(t + 1, n) if a[t][j] != 0)
                for col in range(n):
                    a[t][col] += a[j][col]
                for row in a:
                    row[t] += row[j]
        pivot = a[t][t]
        determinant *= pivot
        signature += 1 if pivot > 0 else -1
        row_t = a[t]
        support = [j for j in range(t + 1, n) if row_t[j] != 0]
        for i in support:
            ratio = a[i][t] / pivot
            row_i = a[i]
            for j in support:
                row_i[j] -= ratio * row_t[j]
            row_i[t] = Fraction(0)
    return int(determinant), signature


@dataclass(frozen=True)
class FourManifoldProfile:
    """Invariants of a simply connected closed oriented 4-manifold.

    Q is the intersection form on H^2 (symmetric, unimodular) and
    w2_vector the mod-2 characteristic vector of Q, which represents
    the second Stiefel-Whitney class; it vanishes exactly for spin.
    """

    b2: int
    Q: IntegerMatrix
    w2_vector: tuple[int, ...]
    euler_char: int
    p1_eval: int
    signature: int

    def __post_init__(self) -> None:
        if self.b2 < 0:
            raise ValueError("b2 must be nonnegative")
        if self.Q.rows != self.b2 or self.Q.cols != self.b2:
            raise ValueError("intersection form must be b2 x b2")
        determinant, signature, order, blocks = _form_invariants(self.Q)
        if abs(determinant) != 1:
            raise ValueError("intersection form must be unimodular")
        if self.signature != signature:
            raise ValueError("signature does not match the intersection form")
        if self.p1_eval != 3 * self.signature:
            raise ValueError("p1 evaluation must equal 3 * signature")
        if self.euler_char != self.b2 + 2:
            raise ValueError("Euler characteristic must be b2 + 2")
        w = tuple(map(index, self.w2_vector))
        object.__setattr__(self, "w2_vector", w)
        if len(w) != self.b2 or any(b not in (0, 1) for b in w):
            raise ValueError("w2 vector must be a 0/1 vector of length b2")
        # characteristic: Q(w2, e_i) = Q(e_i, e_i) mod 2 for each i, and Q
        # vanishes off its blocks, so a block's rows meet only its part of w2
        ordered, start = [w[i] for i in order], 0
        for block in blocks:
            part = ordered[start : start + len(block)]
            start += len(block)
            if any((sum(map(mul, row, part)) - row[r]) % 2 for r, row in enumerate(block)):
                raise ValueError("w2 vector must be characteristic for Q")

    @property
    def spin(self) -> bool:
        return not any(self.w2_vector)


_E8 = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)

_HYPERBOLIC = ((0, 1), (1, 0))


# Coordinates of the restricted hyperplane class in the explicit bases
# below; pinned only for the degrees whose basis is pinned.
_HYPERPLANE = {1: (1,), 3: (3, -1, -1, -1, -1, -1, -1)}


def hyperplane_class(d: int) -> tuple[int, ...] | None:
    """Coordinates of the hyperplane-class restriction, where the basis
    of hypersurface(d) is explicit (degrees 1 and 3); None otherwise."""
    return _HYPERPLANE.get(d)


def hypersurface(d: int) -> FourManifoldProfile:
    """Degree-d hypersurface in complex projective 3-space.

    b2 = (6 - 4d + d^2) d - 2, Euler characteristic b2 + 2, first
    Pontryagin number (4 - d^2) d, signature a third of that (always an
    integer: d - 2, d and d + 2 cover every residue mod 3, so 3 divides
    one factor of d(2-d)(2+d)), spin iff d is even.  The intersection
    form is realized explicitly: odd d gives the odd indefinite diagonal
    form, even d a direct sum of hyperbolic planes and negative E8
    blocks.  For d = 3 the basis is the standard one of the projective
    plane with six reversed blowups, in which the hyperplane class
    restricts to (3, -1, ..., -1).
    """
    d = index(d)
    if d < 1:
        raise ValueError("hypersurface degree must be a positive integer")
    # The dense form has b2 ~ d^3 rows.  d = 12 (b2 = 1222), the largest
    # degree ever timed, takes 0.05 s and 27 MB peak RSS in a fresh process
    # on a shared 2-vCPU host, nearly all of it in writing the 1.5 million
    # entries and checking that they are integers; the form check reads
    # only the recorded blocks.
    if d > 12:
        raise ValueError(f"hypersurface degree {d} is too large: the supported range is 1..12")
    b2 = (6 - 4 * d + d * d) * d - 2
    p1_eval = (4 - d * d) * d
    signature = p1_eval // 3
    if d % 2:
        pos = (b2 + signature) // 2
        neg = b2 - pos
        q = IntegerMatrix.diagonal([1] * pos + [-1] * neg)
        w2 = (1,) * b2
    else:
        e8_count = -signature // 8
        hyp_count = (b2 - 8 * e8_count) // 2
        neg_e8 = tuple(tuple(-x for x in row) for row in _E8)
        q = IntegerMatrix.block_diagonal([_HYPERBOLIC] * hyp_count + [neg_e8] * e8_count)
        w2 = (0,) * b2
    return FourManifoldProfile(
        b2=b2,
        Q=q,
        w2_vector=w2,
        euler_char=b2 + 2,
        p1_eval=p1_eval,
        signature=signature,
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


_Z = FgAbGroup(1, ())
_O = FgAbGroup.trivial()
_Z2 = FgAbGroup(0, (2,))


# name -> (label, H_2, w2 class in the basis of H^2(M;Z2)); all simply connected
_CATALOG = {
    "s5": ("S^5", _O, ()),
    "wu": ("SU(3)/SO(3)", _Z2, (1,)),
    "s3xs2": ("S^3 x S^2", _Z, (0,)),
    "s3~xs2": ("S^3 x~ S^2", _Z, (1,)),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def catalog(name: str) -> ManifoldProfile:
    """One of the hardcoded standard profiles: s5, wu, s3xs2, s3~xs2."""
    try:
        label, h2, w2_class = _CATALOG[name]
    except KeyError:
        known = ", ".join(catalog_names())
        raise ValueError(f"unknown catalog name {name!r} (known: {known})") from None
    # Poincare duality with H_1 = 0 gives H_3 = Z^{b2} and H_4 = 0, so
    # H^4(M;Z) = 0: p1 = 0, w4 = 0 and every degree-4 table entry is empty.
    n = mod_p_dimension(h2, 2)
    return ManifoldProfile(
        name=label,
        homology=(_Z, _O, h2, FgAbGroup(h2.free_rank, ()), _O, _Z),
        spin=not any(w2_class),
        w4_is_zero=True,
        p1=_O.zero(),
        mod2_fragment=Mod2Fragment(
            h2_dim=n, cup22=(((),) * n,) * n, psquare=((),) * n, w2_class=w2_class
        ),
    )


# ---------------------------------------------------------------------------
# connected sums and products
# ---------------------------------------------------------------------------


def connected_sum(
    first: ManifoldProfile, second: ManifoldProfile, *more: ManifoldProfile
) -> ManifoldProfile:
    """Invariant profile of the connected sum of two or more parts.

    Middle homology adds, spin and w4 vanishing are intersected, and p1
    is the tuple of the parts' p1 written canonically in the merged H^4,
    by one direct sum per degree and one merge: both are associative, so
    any nesting of binary sums gives this profile.  The mod-2 fragment
    is not propagated: the summands' degree-4 coordinates are rewritten
    by an element-dependent isomorphism during the merge, and carrying
    the tables through it is not implemented.
    """
    parts = (first, second, *more)
    middle = [_O.direct_sum(*hs) for hs in zip(*(p.homology[1:5] for p in parts))]
    return ManifoldProfile(
        name=" # ".join(p.name for p in parts),
        homology=(_Z, *middle, _Z),
        spin=all(p.spin for p in parts),
        w4_is_zero=all(p.w4_is_zero for p in parts),
        p1=direct_sum_elements(p.p1 for p in parts),
        mod2_fragment=None,
    )


def product_3x2(n3_homology: object, genus: int) -> ManifoldProfile:
    """Product of a closed oriented 3-manifold with a genus-g surface.

    The 3-manifold enters through its homology (H_0..H_3), validated
    against Poincare duality; the surface contributes (Z, Z^2g, Z).
    That homology is free, so every Tor term of the Kunneth formula
    vanishes and H_k = H_k(N) + H_{k-1}(N)^2g + H_{k-2}(N), one direct
    sum per degree.  Both factors are spin and the 3-manifold is
    parallelizable, so the product profile is spin with w4 = 0 and
    p1 = 0.
    """
    n3 = tuple(n3_homology)
    if len(n3) != 4 or any(not isinstance(g, FgAbGroup) for g in n3):
        raise ValueError("3-manifold homology must be four groups H_0..H_3")
    if n3[0] != _Z or n3[3] != _Z:
        raise ValueError("closed oriented 3-manifold needs H_0 = H_3 = Z")
    if n3[2].torsion:
        raise ValueError("H_2 of a closed oriented 3-manifold is torsion-free")
    if n3[2].free_rank != n3[1].free_rank:
        raise ValueError("rank H_2 must equal rank H_1 (Poincare duality)")
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    # H_2 and H_3 get 2g copies of each torsion coefficient of H_1(N)
    if genus > 100:
        raise ValueError(f"genus {genus} is too large: the supported range is 0..100")
    h = (_O, _O, *n3, _O, _O)  # h[k + 2] = H_k(N), trivial outside 0..3
    homology = tuple(h[k + 2].direct_sum(*(h[k + 1],) * (2 * genus), h[k]) for k in range(6))
    h4 = FgAbGroup(homology[4].free_rank, homology[3].torsion)
    return ManifoldProfile(
        name=f"N3(H1={n3[1]}) x Sigma_{genus}",
        homology=homology,
        spin=True,
        w4_is_zero=True,
        p1=h4.zero(),
        mod2_fragment=None,
    )


# ---------------------------------------------------------------------------
# circle bundles via the Gysin sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleBundleSpec:
    """A circle bundle over a simply connected 4-manifold base, given by
    the coordinates of its Euler class in the basis of the form."""

    base: FourManifoldProfile
    euler_class: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "euler_class", tuple(index(x) for x in self.euler_class)
        )
        if len(self.euler_class) != self.base.b2:
            raise ValueError("Euler class must have one coordinate per basis class")


def circle_bundle(spec: CircleBundleSpec) -> ManifoldProfile:
    """Total space of the circle bundle, through the Gysin sequence.

    With c the Euler class and phi = Q c the evaluation functional
    x -> <c cup x, [base]>, the sequence gives homology
    (Z, Z_g, Z^{b2-1}, Z^{b2-1} + Z_g, 0, Z) for g = content(phi);
    spin iff w2 of the base is 0 or congruent to c mod 2 (pullback
    kills exactly those classes); w4 = 0 iff the base's top class is
    zero mod 2 (even Euler characteristic) or hit by cup with c
    (phi nonzero mod 2); p1 is the reduction of the base's Pontryagin
    number in H^4 = Z_g.  The fragment is expressed on the basis of
    pullback classes.
    """
    base, c = spec.base, spec.euler_class
    if not any(c):
        raise ValueError(
            "trivial circle bundle rejected: the Gysin route needs a nonzero Euler class"
        )
    b2 = base.b2
    phi = base.Q.apply(c)
    g = vector_content(phi)
    tors = (g,) if g > 1 else ()
    homology = (
        _Z,
        FgAbGroup(0, tors),
        FgAbGroup(b2 - 1, ()),
        FgAbGroup(b2 - 1, tors),
        _O,
        _Z,
    )
    w = base.w2_vector
    spin = not any(w) or all((wi - ci) % 2 == 0 for wi, ci in zip(w, c))
    w4_zero = base.euler_char % 2 == 0 or any(x % 2 for x in phi)
    h4 = FgAbGroup(0, tors)
    p1 = h4.element(torsion=[base.p1_eval] if g > 1 else [])

    # fragment on the pullback basis of H^2(M;Z_2)
    if g % 2:
        # c has an odd coordinate; its pullback relation removes one
        # basis class, and w2 may need the relation added to have a
        # representative supported away from the removed index
        j0 = next(i for i, ci in enumerate(c) if ci % 2)
        if w[j0] % 2:
            w = tuple((wi + ci) % 2 for wi, ci in zip(w, c))
        basis = [i for i in range(b2) if i != j0]
    else:
        basis = list(range(b2))
    # degree-4 values in the matched coordinates of H^4 = Z_g
    moduli2 = tensor_reduction_moduli(h4, 2)
    moduli4 = tensor_reduction_moduli(h4, 4)
    q = base.Q.entries
    fragment = Mod2Fragment(
        h2_dim=len(basis),
        cup22=tuple(
            tuple(tuple(q[i][j] % m for m in moduli2) for j in basis) for i in basis
        ),
        psquare=tuple(tuple(q[i][i] % m for m in moduli4) for i in basis),
        w2_class=tuple(w[i] % 2 for i in basis),
    )

    return ManifoldProfile(
        name="S1-bundle(c=" + ",".join(str(x) for x in c) + ")",
        homology=homology,
        spin=spin,
        w4_is_zero=w4_zero,
        p1=p1,
        mod2_fragment=fragment,
    )


# the box [-3, 3]^b2 of the paper's Prop 1.7 search
DEFAULT_SEARCH_BOUND = 3


def find_euler_class(
    base: FourManifoldProfile,
    u: object,
    target_torsion: int,
    search_bound: int = DEFAULT_SEARCH_BOUND,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """First vector w (lexicographically, in the box [-bound, bound]^b2)
    with Q(u, w) = 0, w != u and content(Q (u + w)) = target_torsion.

    Returns (c, w) with c = u + w, or None when the box contains no
    such w.  Q is unimodular, so content(Q c) = content(c), and that
    content is t = target_torsion only when t divides every coordinate
    of c: coordinate i of w runs, in ascending order, over the residue
    class -u_i mod t inside the box (the single value -u_i for t = 0).
    The last coordinate is solved from the orthogonality constraint
    when Q(u, e_last) is nonzero.  Every hit lies in these classes and
    each range ascends, so the first hit in lexicographic order is the
    one a scan of the whole box would find.
    """
    u = tuple(index(x) for x in u)
    if len(u) != base.b2:
        raise ValueError("u must have one coordinate per basis class")
    if search_bound < 0:
        raise ValueError("search bound must be nonnegative")
    if target_torsion < 0:
        raise ValueError("target torsion must be nonnegative")
    if base.b2 == 0:
        return None
    t, bound = target_torsion, search_bound
    if t:
        ranges = [range(-bound + (bound - ui) % t, bound + 1, t) for ui in u]
    else:
        ranges = [range(-ui, 1 - ui) if abs(ui) <= bound else range(0) for ui in u]
    phi_u = base.Q.apply(u)
    last = base.b2 - 1
    for prefix in _cartesian(*ranges[:last]):
        partial = sum(p * f for p, f in zip(prefix, phi_u))
        if phi_u[last]:
            q, r = divmod(-partial, phi_u[last])
            candidates = (q,) if not r and q in ranges[last] else ()
        else:
            candidates = () if partial else ranges[last]
        for wl in candidates:
            w = prefix + (wl,)
            c = tuple(a + b for a, b in zip(u, w))
            if w != u and vector_content(c) == t:
                return c, w
    return None
