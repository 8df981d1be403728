"""Geometric constructors: hypersurfaces, catalog, sums, products, circle bundles."""

from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import product as cartesian
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3five.constructors import (
    _E8,
    CircleBundleSpec,
    FourManifoldProfile,
    _determinant_and_signature,
    catalog,
    catalog_names,
    circle_bundle,
    connected_sum,
    find_euler_class,
    hyperplane_class,
    hypersurface,
    product_3x2,
)
from so3five.fgab import FgAbGroup, IntegerMatrix, vector_content
from so3five.topology import (
    cohomology,
    kervaire_semicharacteristic,
    profile_to_dict,
    semicharacteristic,
    validate,
)

Z = FgAbGroup(1)
ZERO = FgAbGroup.trivial()
S3 = (Z, ZERO, ZERO, Z)
T3 = (Z, FgAbGroup(3), FgAbGroup(3), Z)
RP3 = (Z, FgAbGroup(0, (2,)), ZERO, Z)


class TestHypersurface:
    # degree: (b2, euler, signature, p1_eval, spin)
    TABLE = {
        1: (1, 3, 1, 3, False),
        2: (2, 4, 0, 0, True),
        3: (7, 9, -5, -15, False),
        4: (22, 24, -16, -48, True),
        5: (53, 55, -35, -105, False),
    }

    def test_golden_table(self):
        for d, (b2, euler, sigma, p1_eval, spin) in self.TABLE.items():
            h = hypersurface(d)
            assert (h.b2, h.euler_char, h.signature, h.p1_eval, h.spin) == (
                b2,
                euler,
                sigma,
                p1_eval,
                spin,
            )

    def test_signature_times_three_is_p1(self):
        for d in range(1, 9):
            h = hypersurface(d)
            assert h.p1_eval == 3 * h.signature

    def test_form_is_unimodular_and_matches_signature(self):
        for d in range(1, 6):
            h = hypersurface(d)
            assert abs(h.Q.determinant()) == 1
            assert h.Q.is_symmetric()

    def test_w2_parity(self):
        assert hypersurface(3).w2_vector == (1,) * 7
        assert hypersurface(2).w2_vector == (0, 0)
        assert hypersurface(4).w2_vector == (0,) * 22

    def test_characteristic_vector_property(self):
        # (Q w)_i = Q_ii mod 2 for every degree
        for d in range(1, 7):
            h = hypersurface(d)
            image = h.Q.apply(h.w2_vector)
            for i in range(h.b2):
                assert (image[i] - h.Q.entries[i][i]) % 2 == 0

    def test_even_degree_uses_hyperbolic_and_e8_blocks(self):
        k3 = hypersurface(4)
        # 2 copies of -E8 and 3 hyperbolic planes
        assert k3.b2 == 22
        assert sum(k3.Q.entries[i][i] for i in range(22)) == -2 * 8 * 2
        quadric = hypersurface(2)
        assert quadric.Q.entries == ((0, 1), (1, 0))

    def test_largest_supported_degree(self):
        h = hypersurface(12)
        assert (h.b2, h.signature, h.spin) == (1222, -560, True)
        image = h.Q.apply(h.w2_vector)
        assert all((image[i] - h.Q.entries[i][i]) % 2 == 0 for i in range(h.b2))
        with pytest.raises(ValueError, match="supported range is 1..12"):
            hypersurface(13)

    @pytest.mark.parametrize("i, j", [(0, -1), (-1, 0)])
    def test_one_sided_asymmetry_far_from_the_diagonal_is_refused(self, i, j):
        # q[i][j] = 1 and q[j][i] = 0: only one side's row support lists the pair
        h = hypersurface(7)
        rows = [list(row) for row in h.Q.entries]
        rows[i][j] = 1
        assert rows[j][i] == 0
        with pytest.raises(ValueError, match="must be symmetric"):
            replace(h, Q=IntegerMatrix.from_rows(rows))

    def test_non_characteristic_w2_on_a_large_block_form_is_refused(self):
        # e_0 lies in the first hyperbolic plane: Q(e_0, e_1) = 1 but Q(e_1, e_1) = 0
        h = hypersurface(8)
        with pytest.raises(ValueError, match="w2 vector must be characteristic for Q"):
            replace(h, w2_vector=(1,) + (0,) * (h.b2 - 1))

    def test_degree_is_read_as_an_integer(self):
        int64 = pytest.importorskip("numpy").int64
        h = hypersurface(int64(3))
        assert type(h.b2) is int and h == hypersurface(3)

    @pytest.mark.parametrize("d", [2.0, "3"], ids=["float", "str"])
    def test_non_integer_degree_refused(self, d):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            hypersurface(d)

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            hypersurface(0)
        with pytest.raises(ValueError):
            hypersurface(-2)

    def test_record_validation(self):
        one = IntegerMatrix.from_rows([[1]])
        with pytest.raises(ValueError, match="unimodular"):
            FourManifoldProfile(
                b2=1,
                Q=IntegerMatrix.from_rows([[2]]),
                w2_vector=(0,),
                euler_char=3,
                p1_eval=3,
                signature=1,
            )
        with pytest.raises(ValueError, match="3 \\* signature"):
            FourManifoldProfile(
                b2=1, Q=one, w2_vector=(1,), euler_char=3, p1_eval=4, signature=1
            )
        with pytest.raises(ValueError, match="0/1|characteristic"):
            FourManifoldProfile(
                b2=1, Q=one, w2_vector=(0,), euler_char=3, p1_eval=3, signature=1
            )
        with pytest.raises(ValueError, match="b2 must be nonnegative"):
            FourManifoldProfile(
                b2=-1, Q=one, w2_vector=(), euler_char=1, p1_eval=0, signature=0
            )
        with pytest.raises(ValueError, match="must be b2 x b2"):
            FourManifoldProfile(
                b2=2, Q=one, w2_vector=(1, 1), euler_char=4, p1_eval=3, signature=1
            )
        with pytest.raises(ValueError, match="signature does not match"):
            FourManifoldProfile(
                b2=1, Q=one, w2_vector=(1,), euler_char=3, p1_eval=-3, signature=-1
            )
        with pytest.raises(ValueError, match="Euler characteristic must be b2 \\+ 2"):
            FourManifoldProfile(
                b2=1, Q=one, w2_vector=(1,), euler_char=2, p1_eval=3, signature=1
            )
        with pytest.raises(ValueError, match="0/1 vector of length b2"):
            FourManifoldProfile(
                b2=1, Q=one, w2_vector=(1, 1), euler_char=3, p1_eval=3, signature=1
            )
        # floats are refused, not truncated to the CP^2 record
        with pytest.raises(TypeError):
            FourManifoldProfile(
                b2=1,
                Q=IntegerMatrix.diagonal([1.9]),
                w2_vector=(1.7,),
                euler_char=3,
                p1_eval=3,
                signature=1,
            )
        with pytest.raises(TypeError):
            FourManifoldProfile(
                b2=1, Q=one, w2_vector=(1.7,), euler_char=3, p1_eval=3, signature=1
            )
        with pytest.raises(TypeError):
            FourManifoldProfile(
                b2=1,
                Q=IntegerMatrix(1, 1, ((1.0,),)),
                w2_vector=(1,),
                euler_char=3,
                p1_eval=3,
                signature=1,
            )

    def test_hyperplane_classes(self):
        assert hyperplane_class(1) == (1,)
        assert hyperplane_class(3) == (3, -1, -1, -1, -1, -1, -1)
        assert hyperplane_class(2) is None

    def test_signature_against_jacobi_minor_oracle(self):
        # with nonzero leading principal minors, the signature is
        # n minus twice the sign changes along 1, D_1, ..., D_n
        import random

        from so3five.constructors import _determinant_and_signature

        rng = random.Random(23)
        done = 0
        while done < 60:
            n = rng.randrange(1, 6)
            entries = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    entries[i][j] = entries[j][i] = rng.randrange(-5, 6)
            q = IntegerMatrix.from_rows(entries)
            minors = [
                IntegerMatrix.from_rows(
                    [row[: k + 1] for row in entries[: k + 1]]
                ).determinant()
                for k in range(n)
            ]
            if any(m == 0 for m in minors):
                continue
            seq = [1] + minors
            changes = sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)
            assert _determinant_and_signature(q) == (minors[-1], n - 2 * changes)
            done += 1


def _symmetric_block(size):
    """A random symmetric integer block, often singular or with zero rows."""
    count = size * (size + 1) // 2
    upper = st.lists(st.integers(-3, 3), min_size=count, max_size=count)

    def fill(values):
        it = iter(values)
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                rows[i][j] = rows[j][i] = next(it)
        return rows

    return upper.map(fill)


_BLOCKS = st.one_of(
    st.just([[0]]),
    st.just([[0, 1], [1, 0]]),
    st.just([[-x for x in row] for row in _E8]),
    st.integers(1, 4).flatmap(_symmetric_block),
)


# square, with entries drawn independently: usually not symmetric
_square_block = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=k, max_size=k)
)

# the 3 x 3 block is a hyperbolic plane on indices {0, 2} and (1) on {1},
# so a scan lists its indices out of order
_UNIMODULAR_BLOCKS = st.sampled_from(
    [((1,),), ((-1,),), ((0, 1), (1, 0)), ((2, 1), (1, 1)), ((1, 2), (2, 3)),
     ((0, 0, 1), (0, 1, 0), (1, 0, 0)), tuple(tuple(-x for x in row) for row in _E8), _E8]
)


def _characteristic(block):
    """The characteristic vector of a unimodular block, by brute force."""
    return next(
        w
        for w in cartesian((0, 1), repeat=len(block))
        if all((sum(map(mul, row, w)) - row[i]) % 2 == 0 for i, row in enumerate(block))
    )


class TestBlockwiseFormCheck:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_BLOCKS, min_size=0, max_size=6), st.randoms(use_true_random=False))
    def test_matches_whole_matrix_elimination(self, blocks, rng):
        # the blocks are scattered by a random permutation, so a component
        # is in general not a run of consecutive indices
        n = sum(len(b) for b in blocks)
        dense = [[0] * n for _ in range(n)]
        offset = 0
        for block in blocks:
            for i, row in enumerate(block):
                dense[offset + i][offset : offset + len(row)] = row
            offset += len(block)
        perm = list(range(n))
        rng.shuffle(perm)
        q = IntegerMatrix.from_rows([[dense[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
        assert _determinant_and_signature(q) == _whole_matrix_determinant_and_signature(q)

    def test_equal_blocks_are_reused_by_entries_not_by_size(self):
        # minus affine A7 (a cycle of 1s around a diagonal of -2s) is
        # connected, 8 x 8 like -E8, and singular: it kills (1, ..., 1)
        neg_a7 = tuple(
            tuple(-2 if i == j else 1 if (i - j) % 8 in (1, 7) else 0 for j in range(8))
            for i in range(8)
        )
        neg_e8 = tuple(tuple(-x for x in row) for row in _E8)
        recorded = IntegerMatrix.block_diagonal([neg_e8] * 6 + [neg_a7] + [neg_e8] * 6)
        scanned = IntegerMatrix.from_rows(recorded.entries)
        for q in (recorded, scanned):
            assert _determinant_and_signature(q) == (0, -12 * 8 - 7)
        oracle = _whole_matrix_determinant_and_signature(scanned)
        assert _determinant_and_signature(scanned) == oracle

    def test_asymmetric_form_rejected(self):
        q = IntegerMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 2, 0]])
        with pytest.raises(ValueError, match="must be symmetric"):
            _determinant_and_signature(q)

    def test_asymmetric_recorded_block_rejected(self):
        # the same entries as above, with the blocks recorded; the block
        # after the first is checked although the first is symmetric
        q = IntegerMatrix.block_diagonal([[[1]], [[0, 1], [2, 0]]])
        with pytest.raises(ValueError, match="must be symmetric"):
            _determinant_and_signature(q)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_BLOCKS, _square_block), min_size=0, max_size=6))
    def test_recorded_blocks_agree_with_the_scan(self, blocks):
        # the same entries, once with the blocks recorded and once without
        recorded = IntegerMatrix.block_diagonal(blocks)
        scanned = IntegerMatrix.from_rows(recorded.entries)
        assert recorded._blocks is not None and scanned._blocks is None
        assert recorded == scanned and hash(recorded) == hash(scanned)
        outcomes = []
        for q in (recorded, scanned):
            try:
                outcomes.append(_determinant_and_signature(q))
            except ValueError as err:
                assert "must be symmetric" in str(err)
                outcomes.append("asymmetric")
        assert outcomes[0] == outcomes[1]
        symmetric = all(tuple(zip(*b)) == tuple(map(tuple, b)) for b in blocks)
        assert (outcomes[0] != "asymmetric") == symmetric
        if symmetric:
            assert outcomes[0] == _whole_matrix_determinant_and_signature(scanned)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_UNIMODULAR_BLOCKS, min_size=1, max_size=5), st.data())
    def test_characteristic_check_agrees_with_the_dense_one(self, blocks, data):
        # the characteristic vector, with a few coordinates flipped
        recorded = IntegerMatrix.block_diagonal(blocks)
        n = recorded.rows
        w2 = [x for block in blocks for x in _characteristic(block)]
        for i in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
            w2[i] ^= 1
        w2 = tuple(w2)
        q = recorded.entries
        image = recorded.apply(w2)
        characteristic = all((image[i] - q[i][i]) % 2 == 0 for i in range(n))
        signature = _whole_matrix_determinant_and_signature(recorded)[1]
        for form in (recorded, IntegerMatrix.from_rows(q)):
            record = dict(
                b2=n, Q=form, w2_vector=w2, euler_char=n + 2, p1_eval=3 * signature, signature=signature
            )
            if characteristic:
                assert FourManifoldProfile(**record).w2_vector == w2
            else:
                with pytest.raises(ValueError, match="w2 vector must be characteristic"):
                    FourManifoldProfile(**record)


class TestCatalog:
    def test_names_sorted(self):
        assert catalog_names() == ("s3xs2", "s3~xs2", "s5", "wu")

    def test_profiles_valid(self):
        for name in catalog_names():
            assert validate(catalog(name)) == []

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown catalog name"):
            catalog("t5")

    def test_wu_manifold_shape(self):
        wu = catalog("wu")
        assert wu.homology == (Z, ZERO, FgAbGroup(0, (2,)), ZERO, ZERO, Z)
        assert not wu.spin
        assert wu.w4_is_zero
        assert wu.mod2_fragment.w2_class == (1,)

    def test_bundle_pair_differ_only_in_w2(self):
        a = catalog("s3xs2")
        b = catalog("s3~xs2")
        assert a.homology == b.homology
        assert a.spin and not b.spin

    def test_s3xs2_matches_product_construction(self):
        cat = catalog("s3xs2")
        prod = product_3x2(S3, 0)
        assert cat.homology == prod.homology
        assert cat.spin == prod.spin
        assert cat.w4_is_zero == prod.w4_is_zero
        assert cat.p1 == prod.p1


def _bundle_over(degree, k):
    base = hypersurface(degree)
    return circle_bundle(CircleBundleSpec(base, (k,) + (0,) * (base.b2 - 1)))


def _product_with(h1_orders, genus):
    return product_3x2((Z, FgAbGroup.from_cyclic_orders(0, h1_orders), ZERO, Z), genus)


# parts with H_1 torsion: circle bundles over hypersurface(1) and (3) with
# c = (k, 0, ...), whose p1 is 3 or -15 mod k, and products N^3 x Sigma_g
_SUMMANDS = st.one_of(
    st.builds(_bundle_over, st.sampled_from([1, 3]), st.integers(2, 40)),
    st.builds(_product_with, st.lists(st.integers(2, 12), max_size=2), st.integers(0, 2)),
    st.sampled_from(catalog_names()).map(catalog),
)


class TestConnectedSum:
    def test_middle_homology_adds(self):
        a = catalog("s3xs2")
        s = connected_sum(a, a)
        assert s.homology == (Z, ZERO, FgAbGroup(2), FgAbGroup(2), ZERO, Z)
        assert s.name == "S^3 x S^2 # S^3 x S^2"

    def test_commutative_and_associative(self):
        a = catalog("s3xs2")
        b = catalog("wu")
        c = product_3x2(T3, 1)
        assert connected_sum(a, b) == connected_sum(b, a)
        assert connected_sum(connected_sum(a, b), c) == connected_sum(
            a, connected_sum(b, c)
        )

    def test_spin_and_w4_flags_and(self):
        spin = catalog("s3xs2")
        nonspin = catalog("wu")
        assert connected_sum(spin, spin).spin
        assert not connected_sum(spin, nonspin).spin
        assert connected_sum(spin, nonspin).w4_is_zero

    def test_p1_classes_merge_by_primary_parts(self):
        l4 = circle_bundle(CircleBundleSpec(hypersurface(1), (4,)))
        l5 = circle_bundle(CircleBundleSpec(hypersurface(1), (5,)))
        s = connected_sum(l4, l5)
        h4 = cohomology(s, 4)
        assert h4 == FgAbGroup(0, (20,))
        # p1 = 3 mod 4 and 3 mod 5 recombine to 3 mod 20
        assert s.p1 == h4.element((), (3,))

    def test_fragment_not_carried(self):
        l4 = circle_bundle(CircleBundleSpec(hypersurface(1), (4,)))
        assert connected_sum(l4, l4).mod2_fragment is None

    def test_semicharacteristic_addition(self):
        # both semi-characteristics satisfy s(A # B) = s(A) + s(B) + 1
        profiles = [
            catalog("s5"),
            catalog("wu"),
            catalog("s3xs2"),
            product_3x2(RP3, 2),
            circle_bundle(CircleBundleSpec(hypersurface(1), (4,))),
        ]
        for a in profiles:
            for b in profiles:
                s = connected_sum(a, b)
                assert semicharacteristic(s) == (
                    semicharacteristic(a) + semicharacteristic(b) + 1
                ) % 2
                assert kervaire_semicharacteristic(s) == (
                    kervaire_semicharacteristic(a) + kervaire_semicharacteristic(b) + 1
                ) % 2

    def test_validates_result(self):
        for a in (catalog("s5"), catalog("wu")):
            assert validate(connected_sum(a, a)) == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_SUMMANDS, min_size=2, max_size=5))
    def test_one_pass_equals_the_left_fold(self, parts):
        # the p1 merge factors every torsion coordinate, so the one-pass
        # sum must agree with the fold on names, groups and p1 coordinates
        assert profile_to_dict(connected_sum(*parts)) == profile_to_dict(
            reduce(connected_sum, parts)
        )


def general_kunneth(left, right, k):
    """H_k of a product by the full Kunneth sum: tensor terms in degree k, Tor in k - 1."""
    terms = [
        gl.tensor(gr) if i + j == k else gl.tor(gr)
        for i, gl in enumerate(left) for j, gr in enumerate(right) if i + j in (k, k - 1)
    ]
    return ZERO.direct_sum(*terms)


class TestProduct3x2:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 3),
        st.lists(st.sampled_from([2, 3, 4, 8, 9]), max_size=4),
        st.integers(0, 4),
    )
    def test_homology_is_the_general_kunneth_sum(self, rank, orders, genus):
        n3 = (Z, FgAbGroup.from_cyclic_orders(rank, orders), FgAbGroup(rank), Z)
        surface = (Z, FgAbGroup(2 * genus), Z)
        expected = tuple(general_kunneth(n3, surface, k) for k in range(6))
        assert product_3x2(n3, genus).homology == expected

    def test_s3_times_torus_honest_kunneth(self):
        p = product_3x2(S3, 1)
        assert p.homology == (Z, FgAbGroup(2), Z, Z, FgAbGroup(2), Z)

    def test_torsion_crossing(self):
        p = product_3x2(RP3, 1)
        assert p.homology == (
            Z,
            FgAbGroup(2, (2,)),
            FgAbGroup(1, (2, 2)),
            FgAbGroup(1, (2,)),
            FgAbGroup(2),
            Z,
        )
        assert validate(p) == []

    def test_flags_and_classes(self):
        p = product_3x2(T3, 2)
        assert p.spin and p.w4_is_zero
        assert p.p1.is_zero()
        assert p.mod2_fragment is None
        assert validate(p) == []

    def test_semicharacteristic_always_even(self):
        for n3 in (S3, T3, RP3):
            for genus in range(4):
                assert semicharacteristic(product_3x2(n3, genus)) == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            product_3x2((Z, ZERO, ZERO, FgAbGroup(2)), 0)  # H3 not Z
        with pytest.raises(ValueError):
            product_3x2((Z, ZERO, FgAbGroup(0, (2,)), Z), 0)  # H2 torsion
        with pytest.raises(ValueError):
            product_3x2((Z, Z, ZERO, Z), 0)  # rank H2 != rank H1
        with pytest.raises(ValueError):
            product_3x2(S3, -1)

    def test_genus_range(self):
        h1 = FgAbGroup.from_cyclic_orders(0, [2, 4, 8])
        assert validate(product_3x2((Z, h1, ZERO, Z), 100)) == []
        with pytest.raises(ValueError, match="genus 101 is too large: the supported range is 0..100"):
            product_3x2(S3, 101)

    def test_names_mention_both_factors(self):
        p = product_3x2(RP3, 2)
        assert "Sigma_2" in p.name


class TestCircleBundle:
    def test_hopf_bundle_is_a_sphere(self):
        m = circle_bundle(CircleBundleSpec(hypersurface(1), (1,)))
        s5 = catalog("s5")
        assert m.homology == s5.homology
        assert m.spin and m.w4_is_zero
        assert m.p1.is_zero()
        assert semicharacteristic(m) == 1

    def test_cubic_bundle_homology(self):
        m = circle_bundle(CircleBundleSpec(hypersurface(3), (3, -3, -3, 0, 0, 0, 0)))
        assert m.homology == (
            Z,
            FgAbGroup(0, (3,)),
            FgAbGroup(6),
            FgAbGroup(6, (3,)),
            ZERO,
            Z,
        )
        assert cohomology(m, 4) == FgAbGroup(0, (3,))
        assert not m.spin
        assert m.w4_is_zero
        assert m.p1.is_zero()  # -15 = 0 mod 3

    def test_lens_type_bundle(self):
        m = circle_bundle(CircleBundleSpec(hypersurface(1), (4,)))
        assert m.homology == (Z, FgAbGroup(0, (4,)), ZERO, FgAbGroup(0, (4,)), ZERO, Z)
        assert not m.spin
        assert not m.w4_is_zero  # euler char 3 odd, pairing even
        assert m.p1 == cohomology(m, 4).element((), (3,))

    def test_spin_rule(self):
        # base CP^2 has odd w2: total space spin exactly for odd pairing
        assert circle_bundle(CircleBundleSpec(hypersurface(1), (3,))).spin
        assert not circle_bundle(CircleBundleSpec(hypersurface(1), (2,))).spin
        # spin base: always spin upstairs
        assert circle_bundle(CircleBundleSpec(hypersurface(2), (2, 0))).spin

    def test_w4_rule(self):
        assert not circle_bundle(CircleBundleSpec(hypersurface(1), (2,))).w4_is_zero
        assert circle_bundle(CircleBundleSpec(hypersurface(1), (3,))).w4_is_zero
        # even base euler characteristic kills w4 regardless
        assert circle_bundle(CircleBundleSpec(hypersurface(2), (2, 0))).w4_is_zero

    def test_fragment_in_even_order_case(self):
        m = circle_bundle(CircleBundleSpec(hypersurface(1), (4,)))
        frag = m.mod2_fragment
        assert frag.h2_dim == 1
        assert frag.cup22 == (((1,),),)
        assert frag.psquare == ((1,),)
        assert frag.w2_class == (1,)

    def test_fragment_basis_drop_in_odd_order_case(self):
        m = circle_bundle(CircleBundleSpec(hypersurface(3), (3, -3, -3, 0, 0, 0, 0)))
        frag = m.mod2_fragment
        assert frag.h2_dim == 6
        assert frag.w2_class == (0, 0, 1, 1, 1, 1)
        # order 3 group: the single modulus-1 coordinate pins every value to 0
        assert all(entry == (0,) for row in frag.cup22 for entry in row)
        assert all(entry == (0,) for entry in frag.psquare)

    def test_semicharacteristic_parity_is_b2(self):
        cases = [
            (1, (2,)),
            (1, (5,)),
            (2, (1, 1)),
            (2, (4, 2)),
            (3, (3, -3, -3, 0, 0, 0, 0)),
            (4, (1,) + (0,) * 21),
            (4, (6,) + (0,) * 21),
        ]
        for d, c in cases:
            base = hypersurface(d)
            m = circle_bundle(CircleBundleSpec(base, c))
            assert semicharacteristic(m) == base.b2 % 2
            assert validate(m) == []

    def test_zero_euler_class_rejected(self):
        with pytest.raises(ValueError, match="trivial circle bundle"):
            circle_bundle(CircleBundleSpec(hypersurface(1), (0,)))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            CircleBundleSpec(hypersurface(2), (1,))

    def test_non_integer_euler_class_rejected(self):
        # a float is refused, not truncated to (3, -3, -3, 0, 0, 0, 0)
        with pytest.raises(TypeError):
            CircleBundleSpec(hypersurface(3), (3.7, -3, -3, 0, 0, 0, 0))


class TestFindEulerClass:
    def test_reproduces_order_three_construction(self):
        base = hypersurface(3)
        found = find_euler_class(base, hyperplane_class(3), 3, search_bound=3)
        assert found is not None
        c, w = found
        assert c == (3, -3, -3, 0, 0, 0, 0)
        assert w == (0, -2, -2, 1, 1, 1, 1)
        assert w != hyperplane_class(3)

    def test_orthogonality_and_content_of_result(self):
        base = hypersurface(3)
        u = hyperplane_class(3)
        c, w = find_euler_class(base, u, 3, search_bound=3)
        paired = sum(a * b for a, b in zip(base.Q.apply(u), w))
        assert paired == 0
        assert tuple(a + b for a, b in zip(u, w)) == c

    def test_primitive_target_on_projective_plane(self):
        base = hypersurface(1)
        found = find_euler_class(base, (1,), 1, search_bound=2)
        assert found is not None
        c, w = found
        assert w == (0,)
        assert c == (1,)

    def test_non_integer_u_rejected(self):
        with pytest.raises(TypeError):
            find_euler_class(hypersurface(3), (3.7, -1, -1, -1, -1, -1, -1), 3)

    def test_unreachable_target_returns_none(self):
        base = hypersurface(1)
        assert find_euler_class(base, (1,), 3, search_bound=3) is None
        assert find_euler_class(base, (1,), 5, search_bound=0) is None

    @pytest.mark.parametrize(
        "bound, c, w",
        [
            (3, (3, -3, -3, 0, 0, 0, 0), (0, -2, -2, 1, 1, 1, 1)),
            (4, (0, -3, -3, 0, 3, 3, 3), (-3, -2, -2, 1, 4, 4, 4)),
            (5, (0, -6, -3, 3, 3, 3, 3), (-3, -5, -2, 4, 4, 4, 4)),
        ],
    )
    def test_cubic_first_hits(self, bound, c, w):
        assert find_euler_class(hypersurface(3), hyperplane_class(3), 3, bound) == (c, w)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(st.sampled_from([1, -1]), min_size=1, max_size=4).map(
                lambda signs: ("diagonal", signs)
            ),
            st.integers(1, 2).map(lambda k: ("hyperbolic", k)),
        ),
        st.data(),
    )
    def test_matches_whole_box_oracle(self, form, data):
        base = _small_base(*form)
        u = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=base.b2, max_size=base.b2)))
        target = data.draw(st.integers(0, 7))
        bound = data.draw(st.integers(0, 3))
        assert find_euler_class(base, u, target, bound) == _whole_box_euler_class(
            base, u, target, bound
        )


def _small_base(kind, arg):
    """A diagonal +-1 form with the given signs, or a sum of arg hyperbolic planes."""
    if kind == "diagonal":
        b2, signature = len(arg), sum(arg)
        q, w2 = IntegerMatrix.diagonal(arg), (1,) * len(arg)
    else:
        b2, signature = 2 * arg, 0
        q = IntegerMatrix.from_rows(
            [[int(i // 2 == j // 2 and i != j) for j in range(b2)] for i in range(b2)]
        )
        w2 = (0,) * b2
    return FourManifoldProfile(
        b2=b2, Q=q, w2_vector=w2, euler_char=b2 + 2, p1_eval=3 * signature, signature=signature
    )


def _whole_box_euler_class(base, u, target, bound):
    """Every w of the box in lexicographic order, with Q applied to each."""
    phi_u = base.Q.apply(u)
    for w in cartesian(range(-bound, bound + 1), repeat=base.b2):
        if w == u or sum(a * b for a, b in zip(phi_u, w)):
            continue
        c = tuple(a + b for a, b in zip(u, w))
        if vector_content(base.Q.apply(c)) == target:
            return c, w
    return None


def _whole_matrix_determinant_and_signature(q):
    """The whole form congruence-diagonalized over Fractions at once."""
    n = q.rows
    assert all(q.entries[i][j] == q.entries[j][i] for i in range(n) for j in range(n))
    a = [[Fraction(x) for x in row] for row in q.entries]
    determinant = Fraction(1)
    signature = 0
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
                j = next(j for j in range(t + 1, n) if a[t][j] != 0)
                for col in range(n):
                    a[t][col] += a[j][col]
                for row in a:
                    row[t] += row[j]
        pivot = a[t][t]
        determinant *= pivot
        signature += 1 if pivot > 0 else -1
        for i in range(t + 1, n):
            ratio = a[i][t] / pivot
            for j in range(t, n):
                a[i][j] -= ratio * a[t][j]
    return int(determinant), signature
