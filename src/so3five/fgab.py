"""Exact arithmetic for finitely generated abelian groups.

This module is the integer backbone of the package: Smith normal form
with unimodular transforms, cokernels of integer matrices, tensor and
Tor in invariant-factor form, and element arithmetic with canonical
reduction.  Everything runs on arbitrary-precision Python integers;
there is no floating point anywhere.

Groups are kept in invariant-factor form, i.e. a free rank together
with torsion coefficients d1 | d2 | ... | dk, each di >= 2.  With that
normalisation two groups are isomorphic iff they are equal as values,
so structural equality is the only equality we ever need.

>>> G = FgAbGroup.from_cyclic_orders(0, [2, 3])
>>> str(G)
'Z/6'
>>> str(G.tensor(FgAbGroup.from_cyclic_orders(0, [4])))
'Z/2'
>>> cokernel(IntegerMatrix.from_rows([[2, 4], [6, 8]])).torsion
(2, 4)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product as _cartesian
from math import gcd
from operator import index, mod, mul


__all__ = [
    "IntegerMatrix",
    "SnfDecomposition",
    "FgAbGroup",
    "GroupElement",
    "smith_normal_form",
    "cokernel",
    "cokernel_with_projection",
    "mod_p_dimension",
    "solve_divisibility",
    "has_element_of_order",
    "direct_sum_elements",
    "tensor_reduction_moduli",
    "tensor_reduction",
    "vector_content",
]


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegerMatrix:
    """A dense rectangular matrix of Python integers.

    The class is immutable; all operations return new matrices.  It is
    deliberately small: just what integer homological algebra needs.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("entry grid does not match the row count")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("entry grid is not rectangular")
        # A row of ints sums to an int.  Only a row holding something else
        # (a float, a Fraction, a numpy scalar) pays for operator.index,
        # which refuses a non-integer and converts an integer type to int.
        entries = tuple(
            row if type(sum(row)) is int else tuple(map(index, row)) for row in self.entries
        )
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def from_rows(rows: object) -> "IntegerMatrix":
        data = tuple(tuple(row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        return IntegerMatrix(nrows, ncols, data)

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(
            n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        )

    @staticmethod
    def zero(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def diagonal(values: object) -> "IntegerMatrix":
        vals = tuple(values)
        n = len(vals)
        return IntegerMatrix(
            n, n, tuple((0,) * i + (v,) + (0,) * (n - 1 - i) for i, v in enumerate(vals))
        )

    def multiply(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix dimensions do not compose")
        out = tuple(
            tuple(
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            )
            for i in range(self.rows)
        )
        return IntegerMatrix(self.rows, other.cols, out)

    def apply(self, vector: object) -> tuple[int, ...]:
        """Matrix times column vector, returned as a tuple."""
        vec = tuple(index(x) for x in vector)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match the column count")
        return tuple(sum(map(mul, row, vec)) for row in self.entries)

    def is_symmetric(self) -> bool:
        """Whether the matrix equals its transpose."""
        return self.rows == self.cols and self.entries == tuple(zip(*self.entries))

    def determinant(self) -> int:
        """Exact determinant by the fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        rank, minor = _rank_and_minor(self.entries)
        return minor if rank == self.rows else 0


def _rank_and_minor(rows: object) -> tuple[int, int]:
    """Rank r of the rows and a nonzero r x r minor (1 when r = 0), by
    fraction-free Bareiss elimination: each pivot is, up to sign, the minor
    on the pivot rows and columns so far, so the divisions are exact.  The
    minor carries the sign of the row swaps, so a square matrix of full
    rank gets its determinant."""
    a = [list(row) for row in rows]
    rank, prev, sign = 0, 1, 1
    for j in range(len(a[0]) if a else 0):
        i = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if i is None:
            continue
        if i != rank:
            a[i], a[rank], sign = a[rank], a[i], -sign
        top, pivot, k = a[rank], a[rank][j], j + 1
        for row in a[rank + 1 :]:  # column j is never read again
            e = row[j]
            row[k:] = [(x * pivot - e * y) // prev for x, y in zip(row[k:], top[k:])]
        prev, rank = pivot, rank + 1
    return rank, sign * prev


def vector_content(vector: object) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in vector:
        g = gcd(g, index(x))
    return g


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnfDecomposition:
    """U * A * V = D with U, V unimodular and D in Smith normal form.

    D is diagonal with nonnegative entries d1 | d2 | ... along the
    diagonal (trailing zeros allowed).
    """

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.entries[i][i] for i in range(n))


def _diagonalize(a: list[list[int]], m: int, n: int) -> list[tuple[int, int, int | None]]:
    """Reduce the top-left m x n block of the rows ``a`` to Smith form and
    return the row operations performed, in order.

    Pivots come from the block only.  A row operation acts on the whole
    row and a column operation on the whole column, so a border around
    the block records them: rows [A | I_m] end as [U*A | U], and the
    columns of A over I_n (rows of n entries, which row operations
    never reach) end as A*V over V.  No pivot reads the border, so D,
    U and V come out the same whichever border a caller attaches, and
    U*A*V = D.

    Each returned op (i, t, q) is an elementary matrix E with U = E_N...E_1:
    q None swaps rows i and t; otherwise row i -= q * row t, which with
    i == t and q == 2 negates row t, and with q == -1 is the divisibility
    sweep's row t += row i.  Replaying them on I_m gives U without the
    border (see :func:`cokernel_with_projection`).
    """
    ops: list[tuple[int, int, int | None]] = []
    for t in range(min(m, n)):
        while True:
            # Pivot with least nonzero absolute value, re-selected on
            # every pass; balanced remainders shrink it strictly.
            best = None
            pi = pj = -1
            for i in range(t, m):
                row = a[i]
                for j in range(t, n):
                    e = row[j]
                    if e != 0 and (best is None or abs(e) < best):
                        best = abs(e)
                        pi, pj = i, j
            if best is None:
                break
            if pi != t:
                a[pi], a[t] = a[t], a[pi]
                ops.append((pi, t, None))
            if pj != t:
                for row in a:
                    row[pj], row[t] = row[t], row[pj]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                ops.append((t, t, 2))
            top = a[t]
            pivot = top[t]
            dirty = False
            for i in range(t + 1, m):
                e = a[i][t]
                q = (2 * e + pivot) // (2 * pivot)
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], top)]
                    ops.append((i, t, q))
                dirty = dirty or a[i][t] != 0
            for j in range(t + 1, n):
                e = top[j]
                q = (2 * e + pivot) // (2 * pivot)
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                dirty = dirty or top[j] != 0
            if dirty:
                continue
            # Divisibility sweep: the pivot must divide every remaining
            # entry so the diagonal forms a chain.
            for i in range(t + 1, m):
                if any(x % pivot for x in a[i][t + 1 : n]):
                    a[t] = [x + y for x, y in zip(top, a[i])]
                    ops.append((t, i, -1))
                    break
            else:
                break
        if a[t][t] == 0:
            break
    return ops


def smith_normal_form(A: IntegerMatrix) -> SnfDecomposition:
    """Smith normal form with both unimodular witnesses.

    Eliminates A bordered as [[A, I_m], [I_n]], which ends as
    [[D, U], [V]] with U*A*V = D; see :func:`_diagonalize`.
    """
    m, n = A.rows, A.cols
    a = [list(row + e) for row, e in zip(A.entries, IntegerMatrix.identity(m).entries)]
    a += map(list, IntegerMatrix.identity(n).entries)
    _diagonalize(a, m, n)
    return SnfDecomposition(
        IntegerMatrix(m, m, tuple(tuple(row[n:]) for row in a[:m])),
        IntegerMatrix(m, n, tuple(tuple(row[:n]) for row in a[:m])),
        IntegerMatrix(n, n, tuple(map(tuple, a[m:]))),
    )


# ---------------------------------------------------------------------------
# groups in invariant-factor form
# ---------------------------------------------------------------------------


def _factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division, which gives up past 10**6:
    torsion coefficients of realistic profiles factor far below that, and
    a cofactor with two larger prime factors would keep it going for ages."""
    if n < 1:
        raise ValueError("factorisation needs a positive integer")
    original = n
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        if p > 10**6:
            raise ValueError(
                f"cannot factor the torsion coefficient {original}: "
                "trial division stops at 10**6"
            )
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _factorize(n) == {n: 1}


@dataclass(frozen=True)
class FgAbGroup:
    """A finitely generated abelian group in invariant-factor form.

    ``free_rank`` copies of Z plus cyclic factors Z/d1 + ... + Z/dk with
    d1 | d2 | ... | dk and every di >= 2.  The constructor rejects
    anything not already canonical; use :meth:`from_cyclic_orders` to
    normalise an arbitrary list of cyclic orders.
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        r = self.free_rank
        if type(r) is not int:  # a bool or a numpy scalar is stored as an int
            r = index(r)
            object.__setattr__(self, "free_rank", r)
        if r < 0:
            raise ValueError("free rank must be nonnegative")
        # As in IntegerMatrix: a tuple of ints sums to an int.  Only other
        # torsion (a list, a numpy scalar, a float) pays for operator.index,
        # which refuses a non-integer with its own message; sum raises its
        # own TypeError on a str or None, so that goes to index as well.
        t = self.torsion
        try:
            exact = type(t) is tuple and type(sum(t)) is int
        except TypeError:
            exact = False
        if not exact:
            t = tuple(map(index, t))
            object.__setattr__(self, "torsion", t)
        if t and min(t) < 2:
            raise ValueError("torsion coefficients must be >= 2")
        if any(map(mod, t[1:], t)):
            raise ValueError("torsion coefficients must form a divisibility chain")

    # -- construction -------------------------------------------------

    @classmethod
    def from_cyclic_orders(cls, free_rank: int = 0, orders: object = ()) -> "FgAbGroup":
        """Canonicalise a direct sum of cyclic groups.

        Order 0 means an infinite cyclic factor, order 1 a trivial one.
        The invariant-factor form does not depend on the order of the
        summands, so the other orders d_i are sorted first; when each
        then divides the next they already form the chain and are
        returned at once, in linear time after the sort.  Otherwise they
        are smoothed into a divisibility chain by one pass that, for
        i < j with d_i not dividing d_j, replaces (d_i, d_j) by
        (gcd, lcm), keeping the isomorphism type.  Once row i is done,
        d_i divides every later entry, and later rows keep it so: the
        gcd and lcm of two multiples of d_i are again multiples of d_i.
        One pass thus leaves an ascending chain, with any 1s from
        coprime pairs in front.

        >>> FgAbGroup.from_cyclic_orders(0, [6, 4])
        FgAbGroup(free_rank=0, torsion=(2, 12))
        """
        ds = list(map(abs, map(index, orders)))
        free = index(free_rank) + ds.count(0)
        ds = sorted(d for d in ds if d >= 2)
        if not any(map(mod, ds[1:], ds)):
            return cls(free, tuple(ds))
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i]:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
        return cls(free, tuple(d for d in ds if d >= 2))

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(0, ())

    # -- structure ----------------------------------------------------

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Number of elements, or None when the group is infinite."""
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def exponent(self) -> int | None:
        """Least n >= 1 with n*x = 0 for all x; None when infinite rank."""
        if self.free_rank:
            return None
        return self.torsion[-1] if self.torsion else 1

    def direct_sum(self, *others: "FgAbGroup") -> "FgAbGroup":
        free = self.free_rank + sum(g.free_rank for g in others)
        orders = list(self.torsion)
        for g in others:
            orders.extend(g.torsion)
        return FgAbGroup.from_cyclic_orders(free, orders)

    def tensor(self, other: "FgAbGroup") -> "FgAbGroup":
        """Tensor product over Z.

        Z (x) A = A and Z/m (x) Z/n = Z/gcd(m, n), extended bilinearly.
        """
        orders = list(other.torsion) * self.free_rank + list(self.torsion) * other.free_rank
        orders += (gcd(a, b) for a in self.torsion for b in other.torsion)
        return FgAbGroup.from_cyclic_orders(self.free_rank * other.free_rank, orders)

    def tor(self, other: "FgAbGroup") -> "FgAbGroup":
        """Tor_1 over Z: free factors drop out, Tor(Z/m, Z/n) = Z/gcd."""
        orders = [gcd(a, b) for a in self.torsion for b in other.torsion]
        return FgAbGroup.from_cyclic_orders(0, orders)

    # -- elements -----------------------------------------------------

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.free_rank, (0,) * len(self.torsion))

    def element(self, free: object = (), torsion: object = ()) -> "GroupElement":
        return GroupElement(self, tuple(free), tuple(torsion))

    def elements(self):
        """Iterate over all elements (finite groups only)."""
        if self.free_rank:
            raise ValueError("cannot enumerate an infinite group")
        for coords in _cartesian(*(range(d) for d in self.torsion)):
            yield GroupElement(self, (), coords)

    def __str__(self) -> str:
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class GroupElement:
    """An element of an FgAbGroup, stored in reduced coordinates.

    Free coordinates are plain integers, the i-th torsion coordinate is
    reduced modulo the i-th torsion coefficient on construction, so
    equality of elements is equality of tuples.
    """

    group: FgAbGroup
    free: tuple[int, ...] = ()
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.free) != self.group.free_rank:
            raise ValueError("free coordinate count does not match the group")
        if len(self.torsion) != len(self.group.torsion):
            raise ValueError("torsion coordinate count does not match the group")
        object.__setattr__(self, "free", tuple(index(c) for c in self.free))
        object.__setattr__(
            self,
            "torsion",
            tuple(index(c) % d for c, d in zip(self.torsion, self.group.torsion)),
        )

    def _check_same_group(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise ValueError("elements live in different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        return GroupElement(
            self.group,
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
        )

    def __neg__(self) -> "GroupElement":
        return self.scale(-1)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, k: int) -> "GroupElement":
        k = index(k)
        return GroupElement(
            self.group,
            tuple(k * c for c in self.free),
            tuple(k * c for c in self.torsion),
        )

    def __rmul__(self, k: int) -> "GroupElement":
        return self.scale(k)

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        bits = [str(c) for c in self.free]
        bits.extend(f"{c} mod {d}" for c, d in zip(self.torsion, self.group.torsion))
        return "(" + ", ".join(bits) + ")"


# ---------------------------------------------------------------------------
# cokernels
# ---------------------------------------------------------------------------


def _diagonal_cokernel(a: list[list[int]], m: int, n: int):
    """Z^m / im(D) for D in Smith form on the top-left m x n of ``a``,
    with the coordinates that carry its free and its torsion part."""
    diag = [a[i][i] if i < n else 0 for i in range(m)]
    free_positions = [i for i, d in enumerate(diag) if d == 0]
    torsion_positions = [i for i, d in enumerate(diag) if d >= 2]
    group = FgAbGroup(len(free_positions), tuple(diag[i] for i in torsion_positions))
    return group, free_positions, torsion_positions


def _row_of_u(ops: list, m: int, k: int, modulus: int) -> list[int]:
    """e_k^T U for U = E_N...E_1 from :func:`_diagonalize`'s ops, reduced
    modulo ``modulus`` unless it is 0.  Walking backwards, v -> v*E is
    v_t -= q*v_i for row i -= q*row t, and a swap of v_i and v_t."""
    v = [0] * m
    v[k] = 1
    for i, t, q in reversed(ops):
        if q is None:
            v[i], v[t] = v[t], v[i]
        elif v[i]:
            v[t] = (v[t] - q * v[i]) % modulus if modulus else v[t] - q * v[i]
    return v


def cokernel_with_projection(A: IntegerMatrix):
    """Cokernel of A : Z^cols -> Z^rows together with the quotient map.

    Returns ``(G, project)`` where G is Z^rows / column-span(A) in
    canonical form and ``project`` sends a coordinate vector in Z^rows
    to its class in G.  If U*A*V = D then x + im(A) corresponds to
    U*x + im(D), and only U is needed, and of U only the rows at free
    positions (exactly) and at torsion positions k (modulo d_k, since
    reduction mod d_k commutes with the integer map x -> U*x and the
    element reduces that coordinate mod d_k anyway).  A is eliminated
    alone; :func:`_diagonalize` returns U = E_N...E_1 as its row
    operations, and e_k^T U = ((e_k^T E_N) E_(N-1))...E_1 is rebuilt one
    wanted row at a time (see :func:`_row_of_u`).  The pivots are those
    of the bordered elimination, so G and every projected coordinate
    equal those read off :func:`smith_normal_form`'s U.
    """
    m, n = A.rows, A.cols
    a = [list(row) for row in A.entries]
    ops = _diagonalize(a, m, n)
    group, free_positions, torsion_positions = _diagonal_cokernel(a, m, n)
    rows = [_row_of_u(ops, m, k, 0) for k in free_positions]
    rows += (_row_of_u(ops, m, k, a[k][k]) for k in torsion_positions)
    projection = IntegerMatrix(len(rows), m, tuple(map(tuple, rows)))
    free = group.free_rank

    def project(coords: object) -> GroupElement:
        y = projection.apply(coords)
        return GroupElement(group, y[:free], y[free:])

    return group, project


def _peel_units(a: list[list[int]], modulus: int) -> int:
    """Split unit pivots off the rows ``a`` modulo ``modulus`` (0: over Z,
    where the units are +-1); return how many.  A unit at (i, j) clears
    column j by row operations, and column operations would then clear
    row i alone, leaving a Z/1 summand: row i and column j are dropped."""
    for peeled in count():
        units = ((i, j) for i, r in enumerate(a) for j, e in enumerate(r) if gcd(e, modulus) == 1)
        i, j = next(units, (None, None))
        if i is None:
            return peeled
        top = a.pop(i)
        inverse = pow(top[j], -1, modulus) if modulus else top[j]
        for k, r in enumerate(a):
            q = r[j] * inverse % modulus if modulus else r[j] * inverse
            if q:
                r = a[k] = [(x - q * y) % modulus if modulus else x - q * y for x, y in zip(r, top)]
            del r[j]


def cokernel(A: IntegerMatrix) -> FgAbGroup:
    """Z^rows modulo the column span of A, in canonical form, with no witness.

    After the +-1 pivots over Z, Bareiss elimination of the rest, B, gives
    its rank r and D = |a nonzero r x r minor|.  B's nonzero invariant
    factors d1 | ... | dr have d1...dr dividing every r x r minor, so each
    di divides D.  Integer unimodular operations stay invertible modulo D,
    so B's Smith form over Z/D is diag(di mod D), associate to gcd(di, D)
    = di.  Each of the u unit pivots modulo D splits off a Z/1 (see
    :func:`_peel_units`); the block left, usually empty or 1 x 1, goes to
    :func:`_diagonalize`, and each of the first r - u entries c on its
    diagonal gives a di as gcd(c, D).
    """
    a = [list(row) for row in A.entries]
    _peel_units(a, 0)
    rank, minor = _rank_and_minor(a)
    free, modulus = len(a) - rank, abs(minor)
    if modulus == 1:
        return FgAbGroup(free)
    rank -= _peel_units(a, modulus)
    _diagonalize(a, len(a), len(a[0]) if a else 0)
    return FgAbGroup(free, tuple(d for i in range(rank) if (d := gcd(a[i][i], modulus)) > 1))


# ---------------------------------------------------------------------------
# divisibility, orders, mod-p dimensions
# ---------------------------------------------------------------------------


def mod_p_dimension(group: FgAbGroup, p: int) -> int:
    """dim over Z/p of G (x) Z/p, i.e. free rank plus the count of
    torsion coefficients divisible by p.  p must be prime."""
    if not _is_prime(p := index(p)):
        raise ValueError("mod-p dimension needs a prime p")
    return group.free_rank + sum(1 for d in group.torsion if d % p == 0)


def solve_divisibility(x: GroupElement, n: int) -> GroupElement | None:
    """Solve n*y = x in the ambient group; None when no solution exists.

    Coordinatewise: a free coordinate c needs n | c; a coordinate c in
    Z/d is solvable iff gcd(n, d) | c.

    >>> G = FgAbGroup(0, (3,))
    >>> solve_divisibility(G.element(torsion=[1]), 5).torsion
    (2,)
    """
    if (n := index(n)) <= 0:
        raise ValueError("divisor must be a positive integer")
    free: list[int] = []
    for c in x.free:
        if c % n:
            return None
        free.append(c // n)
    torsion: list[int] = []
    for c, d in zip(x.torsion, x.group.torsion):
        g = gcd(n, d)
        if c % g:
            return None
        dd = d // g
        y = ((c // g) * pow(n // g, -1, dd)) % dd if dd > 1 else 0
        torsion.append(y)
    return GroupElement(x.group, tuple(free), tuple(torsion))


def has_element_of_order(group: FgAbGroup, n: int) -> bool:
    """Whether some element has exact finite order n.

    An element of exact order n exists iff n divides the exponent of
    the torsion subgroup (take the corresponding multiple of a
    generator of the largest cyclic factor).
    """
    if (n := index(n)) <= 0:
        raise ValueError("order must be a positive integer")
    if n == 1:
        return True
    if not group.torsion:
        return False
    return group.torsion[-1] % n == 0


# ---------------------------------------------------------------------------
# coefficient reduction G -> G (x) Z/m
# ---------------------------------------------------------------------------


def tensor_reduction_moduli(group: FgAbGroup, m: int) -> tuple[int, ...]:
    """Cyclic moduli of G (x) Z/m, one per coordinate of G.

    A free coordinate reduces into Z/m, a Z/d coordinate into
    Z/gcd(d, m).  Positions are kept aligned with the coordinates of G
    (modulus-1 positions are identically zero)."""
    if (m := index(m)) <= 0:
        raise ValueError("modulus must be positive")
    return (m,) * group.free_rank + tuple(gcd(d, m) for d in group.torsion)


def tensor_reduction(x: GroupElement, m: int) -> tuple[int, ...]:
    """Image of x under G -> G (x) Z/m in the matched coordinates."""
    moduli = tensor_reduction_moduli(x.group, m)
    coords = x.free + x.torsion
    return tuple(c % mod for c, mod in zip(coords, moduli))


# ---------------------------------------------------------------------------
# canonical merge of elements of a direct sum
# ---------------------------------------------------------------------------


def _crt(residues: list[tuple[int, int]]) -> int:
    """The x in [0, prod(m)) with x = r (mod m) for each pair; coprime moduli >= 2."""
    x, mod = 0, 1
    for r, m in residues:
        k = ((r - x) * pow(mod % m, -1, m)) % m
        x += mod * k
        mod *= m
    return x


def direct_sum_elements(parts: object) -> GroupElement:
    """Canonical element of the direct sum of the parts' groups.

    The merged group is the canonical invariant-factor form of the
    direct sum.  Coordinates are fixed by splitting every torsion
    coordinate into its prime-power components (a canonical operation),
    regrouping components by prime with exponents descending, and
    recombining per invariant factor with the Chinese remainder
    theorem.  Components with equal prime power are ordered by value,
    and free coordinates are sorted; both choices are automorphisms of
    the sum, so the result is a well-defined representative that makes
    the merge commutative and associative.
    """
    parts = list(parts)
    free_rank = sum(p.group.free_rank for p in parts)
    free = sorted(c for p in parts for c in p.free)

    # prime-power components (p, e, value mod p**e) of all torsion coords
    components: dict[int, list[tuple[int, int]]] = {}
    for part in parts:
        for c, d in zip(part.torsion, part.group.torsion):
            for p, e in _factorize(d).items():
                q = p**e
                components.setdefault(p, []).append((e, c % q))

    # exponents descending; equal prime powers ordered by value
    for p in components:
        components[p].sort(key=lambda ev: (-ev[0], ev[1]))

    depth = max((len(v) for v in components.values()), default=0)
    factors: list[tuple[int, int]] = []  # (order, coordinate), largest first
    for slot in range(depth):
        residues = []
        order = 1
        for p, comps in sorted(components.items()):
            if slot < len(comps):
                e, val = comps[slot]
                order *= p**e
                residues.append((val, p**e))
        factors.append((order, _crt(residues)))

    factors.reverse()  # ascending divisibility chain
    group = FgAbGroup(free_rank, tuple(order for order, _ in factors))
    return GroupElement(group, tuple(free), tuple(val for _, val in factors))
