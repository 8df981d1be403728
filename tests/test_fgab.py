"""Exact-arithmetic core: matrices, Smith form, group calculus."""

import json
import random
from itertools import combinations, permutations, product
from math import gcd, lcm
from operator import mul

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from so3five.fgab import (
    FgAbGroup,
    GroupElement,
    IntegerMatrix,
    _diagonalize,
    _factorize,
    cokernel,
    cokernel_with_projection,
    direct_sum_elements,
    has_element_of_order,
    mod_p_dimension,
    smith_normal_form,
    solve_divisibility,
    tensor_reduction,
    tensor_reduction_moduli,
    vector_content,
)
from so3five.topology import group_from_dict, group_to_dict


def brute_determinant(mat: IntegerMatrix) -> int:
    # Leibniz expansion, usable up to 5x5
    n = mat.rows
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= mat.entries[i][perm[i]]
        total += term
    return total


def minor_gcd_diagonal(mat: IntegerMatrix) -> list[int]:
    """Invariant factors via gcds of k-by-k minors, the classical oracle."""
    out = []
    prev = 1
    for k in range(1, min(mat.rows, mat.cols) + 1):
        g = 0
        for rows in combinations(range(mat.rows), k):
            for cols in combinations(range(mat.cols), k):
                sub = IntegerMatrix.from_rows(
                    [[mat.entries[i][j] for j in cols] for i in rows]
                )
                g = gcd(g, abs(brute_determinant(sub)))
        if g == 0:
            out.append(0)
        else:
            out.append(g // prev)
            prev = g
    return out


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def _grid(rows: int, cols: int, entries=st.integers(-9, 9)):
    row = st.lists(entries, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


@st.composite
def presentations(draw, rows=st.integers(0, 6), cols=st.integers(0, 6)):
    """A dense, a rank-deficient (a product through k <= 3 columns) or a
    common-factor (entries multiples of 2, 3 and 5) matrix, including the
    0 x n and m x 0 shapes."""
    m, n = draw(rows), draw(cols)
    kind = draw(st.sampled_from(("dense", "thin", "common")))
    if kind == "thin":
        k = draw(st.integers(0, 3))
        left, right = draw(_grid(m, k)), draw(_grid(k, n))
        grid = [[sum(map(mul, r, c)) for c in zip(*right)] if k else [0] * n for r in left]
    else:
        factors = (1,) if kind == "dense" else (2, 3, 5, 6, 10, 15)
        entries = st.builds(mul, st.sampled_from(factors), st.integers(-9, 9))
        grid = draw(_grid(m, n, entries))
    return IntegerMatrix(m, n, tuple(map(tuple, grid)))


def prime_power_oracle(rank: int, orders: list[int]) -> FgAbGroup:
    """Elementary divisors per prime, largest exponents first, recombined
    into invariant factors from the top of the chain down."""
    powers: dict[int, list[int]] = {}
    for d in map(abs, orders):
        if d >= 2:
            for p, e in sympy.factorint(d).items():
                powers.setdefault(p, []).append(e)
    depth = max((len(es) for es in powers.values()), default=0)
    factors = []
    for k in range(depth):
        f = 1
        for p, es in powers.items():
            es_desc = sorted(es, reverse=True)
            if k < len(es_desc):
                f *= p ** es_desc[k]
        factors.append(f)
    return FgAbGroup(rank + orders.count(0), tuple(reversed(factors)))


@st.composite
def chain_orders(draw):
    """Up to 64 cyclic orders around a divisibility chain of 2-, 3- and
    5-smooth numbers: the chain sorted, shuffled, or with a power of 7
    inserted, which no entry divides and which divides no entry, so the
    sorted orders are not a chain; then some 0s and 1s, and signs."""
    base = draw(st.sampled_from([2, 3, 4, 5, 6]))
    chain = [base]
    for step in draw(st.lists(st.sampled_from([1, 2, 3, 5]), max_size=55)):
        chain.append(chain[-1] * step)
    kind = draw(st.sampled_from(["sorted", "shuffled", "broken"]))
    if kind == "shuffled":
        chain = draw(st.permutations(chain))
    elif kind == "broken":
        chain.insert(draw(st.integers(0, len(chain))), 7 ** draw(st.integers(1, 2)))
    orders = chain + draw(st.lists(st.sampled_from([0, 1]), max_size=4))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(orders), max_size=len(orders)))
    return list(map(mul, signs, orders))


def to_sympy(a: IntegerMatrix) -> sympy.Matrix:
    return sympy.Matrix(a.rows, a.cols, [x for row in a.entries for x in row])


def sympy_cokernel(a: IntegerMatrix) -> FgAbGroup:
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    d = sympy_snf(to_sympy(a), domain=sympy.ZZ)
    diag = [abs(int(d[i, i])) for i in range(min(a.rows, a.cols))]
    return FgAbGroup.from_cyclic_orders(0, diag + [0] * (a.rows - len(diag)))


class TestIntegerMatrix:
    def test_multiply_identity(self):
        a = IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert a.multiply(IntegerMatrix.identity(3)) == a
        assert IntegerMatrix.identity(2).multiply(a) == a

    def test_apply(self):
        a = IntegerMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
        assert a.apply((1, -1)) == (-1, -1, -1)

    def test_diagonal(self):
        assert IntegerMatrix.diagonal((2, -1, 0)).entries == ((2, 0, 0), (0, -1, 0), (0, 0, 0))
        assert IntegerMatrix.diagonal(()) == IntegerMatrix.zero(0, 0)

    def test_non_integer_entries_refused(self):
        with pytest.raises(TypeError):
            IntegerMatrix(1, 1, ((2.5,),)).determinant()
        with pytest.raises(TypeError):
            cokernel(IntegerMatrix(2, 1, ((1.5,), (0,))))
        with pytest.raises(TypeError):
            IntegerMatrix.diagonal([1.0])

    def test_integer_types_converted(self):
        import numpy

        m = IntegerMatrix(1, 2, ((numpy.int64(3), 1),))
        assert m.entries == ((3, 1),) and type(m.entries[0][0]) is int

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows([[1, 2], [3]])

    @given(small_matrices)
    @settings(max_examples=60)
    def test_determinant_matches_leibniz(self, rows):
        if len(rows) != len(rows[0]):
            return
        mat = IntegerMatrix.from_rows(rows)
        assert mat.determinant() == brute_determinant(mat)

    @given(st.integers(0, 5).flatmap(lambda n: presentations(st.just(n), st.just(n))))
    @settings(max_examples=150, deadline=None)
    def test_determinant_matches_sympy(self, a):
        # thin products are singular; zeros in the leading columns force row swaps
        assert a.determinant() == to_sympy(a).det()

    @pytest.mark.parametrize(
        "rows, det",
        [
            ([[0, 1], [1, 0]], -1),
            ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
            ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
            ([[0, 2, 1], [0, 4, 2], [3, 0, 0]], 0),
            ([[0, 0, 2], [0, 3, 0], [5, 7, 1]], -30),
        ],
    )
    def test_determinant_sign_follows_row_swaps(self, rows, det):
        assert IntegerMatrix.from_rows(rows).determinant() == det

    def test_is_symmetric(self):
        assert IntegerMatrix.from_rows([[0, 1], [1, 0]]).is_symmetric()
        assert not IntegerMatrix.from_rows([[0, 1], [2, 0]]).is_symmetric()
        assert IntegerMatrix.zero(0, 0).is_symmetric()
        assert not IntegerMatrix.zero(2, 3).is_symmetric()
        assert not IntegerMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 2, 0]]).is_symmetric()

    def test_vector_content(self):
        assert vector_content((4, 6, 0)) == 2
        assert vector_content((0, 0)) == 0
        assert vector_content(()) == 0
        assert vector_content((-3,)) == 3


class TestSmithNormalForm:
    def test_worked_example(self):
        a = IntegerMatrix.from_rows([[2, 4], [6, 8]])
        snf = smith_normal_form(a)
        assert snf.diagonal == (2, 4)

    def test_zero_and_identity(self):
        z = smith_normal_form(IntegerMatrix.zero(2, 3))
        assert z.diagonal == (0, 0)
        i = smith_normal_form(IntegerMatrix.identity(3))
        assert i.diagonal == (1, 1, 1)

    def test_single_column(self):
        a = IntegerMatrix.from_rows([[3], [-3], [-3], [0], [0], [0], [0]])
        assert smith_normal_form(a).diagonal == (3,)

    @given(small_matrices, st.data())
    @settings(max_examples=150)
    def test_decomposition_contract(self, rows, data):
        a = IntegerMatrix.from_rows(rows)
        snf = smith_normal_form(a)
        # U A V = D exactly
        assert snf.U.multiply(a).multiply(snf.V) == snf.D
        # U, V unimodular
        assert abs(snf.U.determinant()) == 1
        assert abs(snf.V.determinant()) == 1
        # D diagonal, nonnegative, divisibility chain
        for i in range(snf.D.rows):
            for j in range(snf.D.cols):
                if i != j:
                    assert snf.D.entries[i][j] == 0
        diag = snf.diagonal
        assert all(d >= 0 for d in diag)
        for prev, cur in zip(diag, diag[1:]):
            if prev == 0:
                assert cur == 0
            else:
                assert cur % prev == 0
        # every border gives the same answer: the cokernels read the
        # diagonal, and the projection is U followed by reduction
        full = diag + (0,) * (a.rows - len(diag))
        free = [i for i, d in enumerate(full) if d == 0]
        torsion = [i for i, d in enumerate(full) if d >= 2]
        group = FgAbGroup(len(free), tuple(full[i] for i in torsion))
        projected, project = cokernel_with_projection(a)
        assert cokernel(a) == projected == group
        x = data.draw(st.lists(st.integers(-30, 30), min_size=a.rows, max_size=a.rows))
        y = snf.U.apply(x)
        assert project(x) == group.element([y[i] for i in free], [y[i] for i in torsion])

    @given(presentations(rows=st.integers(0, 8), cols=st.integers(0, 8)))
    @settings(max_examples=200, deadline=None)
    def test_row_operations_replay_to_u(self, a):
        m, n = a.rows, a.cols
        bare = [list(row) for row in a.entries]
        ops = _diagonalize(bare, m, n)
        # forward on I_m, each op is row i -= q * row t, or a swap when q is None
        u = [list(row) for row in IntegerMatrix.identity(m).entries]
        for i, t, q in ops:
            if q is None:
                u[i], u[t] = u[t], u[i]
            else:
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        assert tuple(map(tuple, u)) == smith_normal_form(a).U.entries
        # no pivot reads the border: [[A, I_m], [I_n]] gives the same ops
        bordered = [list(row + e) for row, e in zip(a.entries, IntegerMatrix.identity(m).entries)]
        bordered += map(list, IntegerMatrix.identity(n).entries)
        assert _diagonalize(bordered, m, n) == ops
        assert [row[:n] for row in bordered[:m]] == bare

    @given(small_matrices)
    @settings(max_examples=40)
    def test_matches_minor_gcd_oracle(self, rows):
        a = IntegerMatrix.from_rows(rows)
        assert list(smith_normal_form(a).diagonal) == minor_gcd_diagonal(a)


class TestFgAbGroup:
    def test_canonical_chain_enforced(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (3, 2))
        with pytest.raises(ValueError):
            FgAbGroup(0, (1, 2))
        with pytest.raises(ValueError):
            FgAbGroup(-1)

    def test_from_cyclic_orders_smoothing(self):
        assert FgAbGroup.from_cyclic_orders(0, [2, 3]) == FgAbGroup(0, (6,))
        assert FgAbGroup.from_cyclic_orders(0, [6, 4]) == FgAbGroup(0, (2, 12))
        assert FgAbGroup.from_cyclic_orders(1, [0, 1, 5]) == FgAbGroup(2, (5,))
        assert FgAbGroup.from_cyclic_orders(0, []) == FgAbGroup.trivial()

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 3),
        st.lists(st.one_of(st.sampled_from([0, 1]), st.integers(2, 720)), max_size=8),
    )
    def test_from_cyclic_orders_matches_prime_power_oracle(self, rank, orders):
        assert FgAbGroup.from_cyclic_orders(rank, orders) == prime_power_oracle(rank, orders)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), chain_orders())
    def test_chains_and_broken_chains_match_prime_power_oracle(self, rank, orders):
        assert FgAbGroup.from_cyclic_orders(rank, orders) == prime_power_oracle(rank, orders)

    @pytest.mark.parametrize(
        "torsion, error, message",
        [
            ((3, -3), ValueError, "torsion coefficients must be >= 2"),
            ((2, True), ValueError, "torsion coefficients must be >= 2"),
            ((3, 2), ValueError, "torsion coefficients must form a divisibility chain"),
            ((2, 4.5), TypeError, "'float' object cannot be interpreted as an integer"),
            ((2.0,), TypeError, "'float' object cannot be interpreted as an integer"),
            (("2",), TypeError, "'str' object cannot be interpreted as an integer"),
            ((None,), TypeError, "'NoneType' object cannot be interpreted as an integer"),
            (5, TypeError, "'int' object is not iterable"),
        ],
    )
    def test_constructor_refusals(self, torsion, error, message):
        with pytest.raises(error) as refused:
            FgAbGroup(0, torsion)
        assert str(refused.value) == message

    @pytest.mark.parametrize("kind", ["list", "generator", "numpy", "numpy-mixed"])
    def test_integer_torsion_is_stored_as_a_tuple_of_int(self, kind):
        if kind == "list":
            torsion = [2, 4]
        elif kind == "generator":
            torsion = (d for d in (2, 4))
        else:
            int64 = pytest.importorskip("numpy").int64
            torsion = (int64(2), int64(4)) if kind == "numpy" else (2, int64(4))
        torsion = FgAbGroup(0, torsion).torsion
        assert type(torsion) is tuple and list(map(type, torsion)) == [int, int]
        assert torsion == (2, 4)

    @pytest.mark.parametrize("kind", ["bool", "numpy"])
    def test_free_rank_is_stored_as_an_int(self, kind):
        if kind == "bool":
            rank, expected = True, 1
        else:
            rank, expected = pytest.importorskip("numpy").int64(2), 2
        group = FgAbGroup(rank, (2,))
        assert type(group.free_rank) is int and group.free_rank == expected
        data = json.loads(json.dumps(group_to_dict(group)))
        assert data == {"free": expected, "torsion": [2]}
        assert group_from_dict(data) == group

    def test_str(self):
        assert str(FgAbGroup.trivial()) == "0"
        assert str(FgAbGroup(1)) == "Z"
        assert str(FgAbGroup(2)) == "Z^2"
        assert str(FgAbGroup(0, (6,))) == "Z/6"
        assert str(FgAbGroup(1, (2, 4))) == "Z + Z/2 + Z/4"

    def test_order_and_exponent(self):
        assert FgAbGroup(0, (2, 6)).order() == 12
        assert FgAbGroup(0, (2, 6)).exponent() == 6
        assert FgAbGroup.trivial().order() == 1
        assert FgAbGroup(1).order() is None

    def test_direct_sum(self):
        a = FgAbGroup(1, (2,))
        b = FgAbGroup(0, (4,))
        assert a.direct_sum(b) == FgAbGroup(1, (2, 4))
        assert a.direct_sum(b) == b.direct_sum(a)

    def test_tensor_known_values(self):
        z = FgAbGroup(1)
        z4 = FgAbGroup(0, (4,))
        z6 = FgAbGroup(0, (6,))
        assert z.tensor(z4) == z4
        assert z4.tensor(z6) == FgAbGroup(0, (2,))
        assert z.tensor(z) == z

    def test_tor_known_values(self):
        z = FgAbGroup(1)
        z4 = FgAbGroup(0, (4,))
        z6 = FgAbGroup(0, (6,))
        assert z.tor(z4) == FgAbGroup.trivial()
        assert z4.tor(z6) == FgAbGroup(0, (2,))

    def test_tensor_against_bilinear_oracle(self):
        # rank(A x B) = rA*rB; torsion: each pair contributes Z/gcd,
        # each free factor copies the other side's torsion
        rng = random.Random(7)
        for _ in range(50):
            a = random_group(rng)
            b = random_group(rng)
            orders = []
            for d in a.torsion:
                for e in b.torsion:
                    orders.append(gcd(d, e))
            orders += list(a.torsion) * b.free_rank
            orders += list(b.torsion) * a.free_rank
            expect = FgAbGroup.from_cyclic_orders(a.free_rank * b.free_rank, orders)
            assert a.tensor(b) == expect

    def test_mod_p_dimension_counts_p_torsion(self):
        g = FgAbGroup(2, (2, 6, 36))
        assert mod_p_dimension(g, 2) == 5
        assert mod_p_dimension(g, 3) == 4
        assert mod_p_dimension(g, 5) == 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntegerMatrix.from_rows([[1.9]]),
        lambda: IntegerMatrix.diagonal([1.9]),
        lambda: IntegerMatrix.identity(2).apply((1, 0.5)),
        lambda: vector_content((4, 2.0)),
        lambda: FgAbGroup(0, (2.5,)),
        lambda: FgAbGroup(1.0),
        lambda: FgAbGroup.from_cyclic_orders(0, [6, 4.0]),
        lambda: FgAbGroup(0, (2,)).element((), (1.5,)),
        lambda: GroupElement(FgAbGroup(1), (0.5,), ()),
        lambda: FgAbGroup(1).element((1,)).scale(1.5),
        lambda: has_element_of_order(FgAbGroup(0, (5,)), 2.5),
        lambda: mod_p_dimension(FgAbGroup(0, (5,)), 2.5),
        lambda: solve_divisibility(FgAbGroup(0, (5,)).element((), (1,)), 2.5),
        lambda: tensor_reduction_moduli(FgAbGroup(0, (5,)), 2.5),
        lambda: cokernel_with_projection(IntegerMatrix.from_rows([[2], [0]]))[1]((1, 0.5)),
    ],
    ids=[
        "from_rows", "diagonal", "apply", "vector_content", "group-torsion",
        "group-free-rank", "from_cyclic_orders", "element", "group-element", "scale",
        "has_element_of_order", "mod_p_dimension", "solve_divisibility",
        "tensor_reduction_moduli", "project",
    ],
)
def test_non_integer_input_refused(build):
    # a float is refused, never truncated (2.5 would read as Z/2)
    with pytest.raises(TypeError):
        build()


class TestFactorize:
    def test_exact_below_the_trial_division_limit(self):
        assert _factorize(2**40 * 3**5 * 999983) == {2: 40, 3: 5, 999983: 1}
        assert sympy.isprime(999999999989)  # largest prime below 10**12
        assert _factorize(999999999989) == {999999999989: 1}

    @pytest.mark.parametrize("n", [1000003**2, 1000003 * 1000033, 6 * 1000003 * 1000033])
    def test_refuses_cofactors_past_the_limit(self, n):
        with pytest.raises(ValueError, match=str(n)):
            _factorize(n)


def random_group(rng: random.Random, max_rank: int = 2) -> FgAbGroup:
    rank = rng.randrange(max_rank + 1)
    orders = [rng.choice([2, 2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(rng.randrange(3))]
    return FgAbGroup.from_cyclic_orders(rank, orders)


class TestGroupElement:
    def test_reduction_and_arithmetic(self):
        g = FgAbGroup(1, (2, 6))
        e = g.element((4,), (3, 7))
        assert e.free == (4,) and e.torsion == (1, 1)
        assert (e + e).torsion == (0, 2)
        assert (3 * e).free == (12,)
        assert (e - e).is_zero()
        assert str(g.zero()) == "0"
        assert str(e) == "(4, 1 mod 2, 1 mod 6)"

    def test_cross_group_addition_rejected(self):
        a = FgAbGroup(1).element((1,), ())
        b = FgAbGroup(0, (2,)).element((), (1,))
        with pytest.raises(ValueError):
            _ = a + b

    def test_scale_matches_repeated_addition(self):
        g = FgAbGroup(1, (12,))
        e = g.element((3,), (5,))
        acc = g.zero()
        for _ in range(7):
            acc = acc + e
        assert acc == e.scale(7) == 7 * e


def smith_class(a: IntegerMatrix, x) -> GroupElement:
    """The class of x in coker(A), read through smith_normal_form's U."""
    snf = smith_normal_form(a)
    full = snf.diagonal + (0,) * (a.rows - len(snf.diagonal))
    y = snf.U.apply(x)
    group = FgAbGroup(sum(d == 0 for d in full), tuple(d for d in full if d >= 2))
    return group.element(
        [y[i] for i, d in enumerate(full) if d == 0], [y[i] for i, d in enumerate(full) if d >= 2]
    )


def _seeded_dense(rows: int, cols: int) -> IntegerMatrix:
    rng = random.Random(rows * 1000 + cols)
    return IntegerMatrix.from_rows([[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)])


def _disguised_diagonal() -> IntegerMatrix:
    """P * diag(1, 1, 1, 2, 6, 12, 0, 0) * Q with P, Q products of random
    elementary matrices: both free and torsion rows of U are read."""
    rng = random.Random(8)
    diag = (1, 1, 1, 2, 6, 12, 0, 0)
    a = [list(row) for row in IntegerMatrix.diagonal(diag).entries]
    for _ in range(40):
        i, j = rng.sample(range(len(diag)), 2)
        q = rng.choice((-2, -1, 1, 2))
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]  # P: row operation
        for row in a:  # Q: column operation
            row[j] += q * row[i]
    return IntegerMatrix.from_rows(a)


# larger than the Hypothesis strategies draw, plus the degenerate shapes
PINNED_MATRICES = {
    "dense-12x10": _seeded_dense(12, 10),
    "dense-10x12": _seeded_dense(10, 12),
    "dense-16x16": _seeded_dense(16, 16),
    "disguised-diagonal": _disguised_diagonal(),
    "3x0": IntegerMatrix.zero(3, 0),
    "0x4": IntegerMatrix.zero(0, 4),
    "zero-3x2": IntegerMatrix.zero(3, 2),
}


class TestCokernel:
    def test_worked_example(self):
        a = IntegerMatrix.from_rows([[2, 4], [6, 8]])
        assert cokernel(a) == FgAbGroup(0, (2, 4))

    def test_identity_and_zero(self):
        assert cokernel(IntegerMatrix.identity(3)) == FgAbGroup.trivial()
        assert cokernel(IntegerMatrix.zero(3, 2)) == FgAbGroup(3)
        assert cokernel(IntegerMatrix.zero(0, 3)) == FgAbGroup.trivial()
        assert cokernel(IntegerMatrix.zero(2, 0)) == FgAbGroup(2)
        group, project = cokernel_with_projection(IntegerMatrix.zero(2, 0))
        assert project((1, -2)) == group.element((1, -2))

    def test_column_with_content_three(self):
        a = IntegerMatrix.from_rows([[3], [-3], [-3], [0], [0], [0], [0]])
        assert cokernel(a) == FgAbGroup(6, (3,))

    def test_projection_kills_image_and_is_additive(self):
        rng = random.Random(11)
        for _ in range(40):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            a = IntegerMatrix.from_rows(
                [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
            )
            group, project = cokernel_with_projection(a)
            assert group == cokernel(a)
            for j in range(cols):
                col = tuple(a.entries[i][j] for i in range(rows))
                assert project(col).is_zero()
            x = tuple(rng.randrange(-9, 10) for _ in range(rows))
            y = tuple(rng.randrange(-9, 10) for _ in range(rows))
            total = tuple(p + q for p, q in zip(x, y))
            assert project(total) == project(x) + project(y)

    def test_projection_generates_group(self):
        # standard basis vectors must span the cokernel of a full-torsion map
        a = IntegerMatrix.from_rows([[2, 0], [0, 4]])
        group, project = cokernel_with_projection(a)
        assert group == FgAbGroup(0, (2, 4))
        seen = set()
        for c0 in range(2):
            for c1 in range(4):
                vec = (c0, c1)
                seen.add(project(vec))
        assert len(seen) == 8

    @pytest.mark.parametrize("rows", [(), (1, 2, 3)], ids=["short", "long"])
    def test_projection_refuses_wrong_length(self, rows):
        _, project = cokernel_with_projection(IntegerMatrix.from_rows([[2], [0]]))
        with pytest.raises(ValueError):
            project(rows)

    @pytest.mark.parametrize("a", PINNED_MATRICES.values(), ids=PINNED_MATRICES.keys())
    def test_projection_is_the_class_of_smith_u(self, a):
        rng = random.Random(a.rows * 100 + a.cols)
        group, project = cokernel_with_projection(a)
        assert group == cokernel(a)
        for bound in (20, 2**100):
            for _ in range(4):
                x = [rng.choice((-1, 1)) * bound + rng.randrange(-20, 21) for _ in range(a.rows)]
                assert project(x) == smith_class(a, x)

    def test_unimodular_change_preserves_group(self):
        a = IntegerMatrix.from_rows([[2, 4], [6, 8]])
        u = IntegerMatrix.from_rows([[1, 1], [0, 1]])
        assert cokernel(u.multiply(a)) == cokernel(a)

    @given(presentations())
    @settings(max_examples=300, deadline=None)
    def test_matches_smith_diagonal_and_sympy(self, a):
        diag = list(smith_normal_form(a).diagonal)
        from_snf = FgAbGroup.from_cyclic_orders(0, diag + [0] * (a.rows - len(diag)))
        assert cokernel(a) == from_snf == sympy_cokernel(a)

    @pytest.mark.parametrize(
        "rows, group, passes",
        [
            # D = 6 and no entry is a unit mod 6, yet d1 = 1
            ([[6, 10, 15]], FgAbGroup(0, ()), [(0, 0), (6, 0)]),
            ([[6, 0], [0, 6]], FgAbGroup(0, (6, 6)), [(0, 0), (36, 0)]),
            # the last invariant factor is D itself
            ([[5]], FgAbGroup(0, (5,)), [(0, 0), (5, 0)]),
            ([[1, 0], [0, 5]], FgAbGroup(0, (5,)), [(0, 1), (5, 0)]),
            # -2 = det: 3 is a unit mod 2 and splits off, leaving Z/2
            ([[2, 3], [4, 5]], FgAbGroup(0, (2,)), [(0, 0), (2, 1)]),
            # the minor is on columns 0 and 2: Bareiss skips column 1
            ([[2, 4, 3], [4, 8, 7]], FgAbGroup(0, (2,)), [(0, 0), (2, 1)]),
            # rank 0 and D = 1: no pass modulo D
            ([[], []], FgAbGroup(2), [(0, 0)]),
        ],
    )
    def test_unit_passes(self, monkeypatch, rows, group, passes):
        import so3five.fgab as fgab

        seen, peel = [], fgab._peel_units

        def recording(a, modulus):
            seen.append((modulus, peel(a, modulus)))
            return seen[-1][1]

        monkeypatch.setattr(fgab, "_peel_units", recording)
        assert cokernel(IntegerMatrix.from_rows(rows)) == group
        assert seen == passes


class TestSolveDivisibility:
    def test_brute_force_on_finite_groups(self):
        for torsion in [(2,), (4,), (3, 6), (2, 8), (12,), (2, 2)]:
            g = FgAbGroup(0, torsion)
            all_elements = list(g.elements())
            for c in all_elements:
                for n in range(1, 13):
                    answer = solve_divisibility(c, n)
                    exists = any(n * y == c for y in all_elements)
                    assert (answer is not None) == exists, (torsion, str(c), n)
                    if answer is not None:
                        assert n * answer == c

    def test_free_part(self):
        g = FgAbGroup(2)
        c = g.element((10, -15), ())
        assert solve_divisibility(c, 5) == g.element((2, -3), ())
        assert solve_divisibility(c, 4) is None

    def test_mixed(self):
        g = FgAbGroup(1, (3,))
        c = g.element((5,), (1,))
        y = solve_divisibility(c, 5)
        assert y is not None and 5 * y == c


class TestHasElementOfOrder:
    def test_brute_force(self):
        for torsion in [(), (2,), (4,), (2, 6), (3, 9), (12,)]:
            g = FgAbGroup(0, torsion)
            all_elements = list(g.elements())
            for n in range(1, 20):
                exists = any(
                    (n * x).is_zero()
                    and all(not (m * x).is_zero() for m in range(1, n))
                    for x in all_elements
                )
                assert has_element_of_order(g, n) == exists, (torsion, n)

    def test_free_groups_have_no_torsion(self):
        assert not has_element_of_order(FgAbGroup(3), 2)
        assert has_element_of_order(FgAbGroup(3), 1)


class TestTensorReduction:
    def test_matched_moduli(self):
        g = FgAbGroup(2, (2, 12))
        assert tensor_reduction_moduli(g, 4) == (4, 4, 2, 4)
        assert tensor_reduction_moduli(g, 2) == (2, 2, 2, 2)
        assert tensor_reduction_moduli(g, 5) == (5, 5, 1, 1)

    def test_reduction_values(self):
        g = FgAbGroup(1, (12,))
        e = g.element((7,), (9,))
        assert tensor_reduction(e, 4) == (3, 1)
        assert tensor_reduction(e, 2) == (1, 1)
        assert tensor_reduction(e, 5) == (2, 0)

    def test_reduction_is_additive(self):
        g = FgAbGroup(1, (2, 12))
        rng = random.Random(3)
        for _ in range(30):
            a = g.element((rng.randrange(-9, 10),), (rng.randrange(12), rng.randrange(12)))
            b = g.element((rng.randrange(-9, 10),), (rng.randrange(12), rng.randrange(12)))
            moduli = tensor_reduction_moduli(g, 4)
            left = tensor_reduction(a + b, 4)
            right = tuple(
                (p + q) % m
                for p, q, m in zip(tensor_reduction(a, 4), tensor_reduction(b, 4), moduli)
            )
            assert left == right


def element_order(x: GroupElement) -> int | None:
    if any(c != 0 for c in x.free):
        return None
    n = 1
    acc = x
    while not acc.is_zero():
        acc = acc + x
        n += 1
    return n


class TestDirectSumElements:
    def test_group_is_direct_sum(self):
        a = FgAbGroup(1, (2,)).element((3,), (1,))
        b = FgAbGroup(0, (4,)).element((), (2,))
        merged = direct_sum_elements([a, b])
        assert merged.group == FgAbGroup(1, (2,)).direct_sum(FgAbGroup(0, (4,)))

    def test_order_is_preserved(self):
        rng = random.Random(19)
        for _ in range(60):
            parts = []
            for _ in range(rng.randrange(1, 4)):
                g = FgAbGroup.from_cyclic_orders(
                    0, [rng.choice([2, 3, 4, 8, 9, 5]) for _ in range(rng.randrange(1, 3))]
                )
                parts.append(
                    g.element((), tuple(rng.randrange(d) for d in g.torsion))
                )
            merged = direct_sum_elements(parts)
            orders = [element_order(p) for p in parts]
            assert element_order(merged) == lcm(*orders)

    def test_commutes_and_associates(self):
        a = FgAbGroup(0, (4,)).element((), (2,))
        b = FgAbGroup(0, (6,)).element((), (3,))
        c = FgAbGroup(1).element((5,), ())
        assert direct_sum_elements([a, b]) == direct_sum_elements([b, a])
        two = direct_sum_elements([a, b])
        assert direct_sum_elements([two, c]) == direct_sum_elements([a, b, c])

    def test_divisibility_is_preserved(self):
        # if every part is divisible by n then so is the merge
        a = FgAbGroup(0, (9,)).element((), (3,))
        b = FgAbGroup(0, (3,)).element((), (0,))
        merged = direct_sum_elements([a, b])
        for n in range(1, 10):
            parts_divisible = all(
                solve_divisibility(x, n) is not None for x in (a, b)
            )
            if parts_divisible:
                assert solve_divisibility(merged, n) is not None
