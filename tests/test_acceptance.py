"""Acceptance suite: one test per criterion, exact tolerances.

Each test prints a single PASS line on success; a pytest failure line
is the FAIL signal.  Everything here is deterministic (fixed seeds).
"""

import random
from itertools import product as cartesian

from so3five.charclass import Bundle3Data, sym0_classes, tangent_bundle_classes
from so3five.constructors import (
    CircleBundleSpec,
    FourManifoldProfile,
    catalog,
    circle_bundle,
    connected_sum,
    find_euler_class,
    hyperplane_class,
    hypersurface,
    product_3x2,
)
from so3five.decide import Verdict, decide_irreducible_so3, decide_two_field, rank3_bundle_exists, rank5_relation_holds
from so3five.fgab import (
    FgAbGroup,
    IntegerMatrix,
    has_element_of_order,
    mod_p_dimension,
    smith_normal_form,
    solve_divisibility,
)
from so3five.topology import (
    ManifoldProfile,
    cohomology,
    homology_mod2_dimension,
    kervaire_semicharacteristic,
    semicharacteristic,
)

Z = FgAbGroup(1)
ZERO = FgAbGroup.trivial()


def test_criterion_1_hypersurface_table():
    cubic = hypersurface(3)
    assert cubic.b2 == 7
    assert cubic.euler_char == 9
    assert cubic.signature == -5
    assert cubic.p1_eval == -15
    assert not cubic.spin
    quartic = hypersurface(4)
    assert quartic.b2 == 22
    assert quartic.spin
    for d in range(1, 9):
        h = hypersurface(d)
        assert h.p1_eval == 3 * h.signature
    print("ACCEPTANCE 1 (hypersurface table): PASS")


def test_criterion_2_order_three_bundle_reproduction():
    base = hypersurface(3)
    found = find_euler_class(base, hyperplane_class(3), 3, search_bound=3)
    assert found is not None
    c, w = found
    total = circle_bundle(CircleBundleSpec(base, c))
    assert not total.spin
    assert total.p1.is_zero()
    assert total.w4_is_zero
    h4 = cohomology(total, 4)
    assert h4 == FgAbGroup(0, (3,))
    assert not has_element_of_order(h4, 4)
    assert semicharacteristic(total) == 1
    assert kervaire_semicharacteristic(total) == 1
    decision = decide_irreducible_so3(total)
    assert decision.verdict == Verdict.YES
    assert decision.theorem == "Thm 1.4(b)"
    print("ACCEPTANCE 2 (order-3 circle bundle reproduction): PASS")


def test_criterion_3_wu_manifold():
    wu = catalog("wu")
    assert decide_irreducible_so3(wu).verdict == Verdict.YES
    two_field = decide_two_field(wu, "atiyah")
    assert two_field.verdict == Verdict.NO
    assert kervaire_semicharacteristic(wu) == 1
    assert semicharacteristic(wu) == 0
    print("ACCEPTANCE 3 (Wu manifold): PASS")


def random_simply_connected_profile(rng: random.Random) -> ManifoldProfile:
    b2 = rng.randrange(6)
    torsion_orders = [rng.choice([2, 3, 4, 5, 6, 8, 9]) for _ in range(rng.randrange(4))]
    h2 = FgAbGroup.from_cyclic_orders(b2, torsion_orders)
    # w2 lives in H^2(M;Z2); a spin profile has an even count t2 of even
    # torsion coefficients in H_2 (Lusztig-Milnor-Peterson)
    t2 = sum(1 for d in h2.torsion if d % 2 == 0)
    spin = (rng.random() < 0.5 and t2 % 2 == 0) or mod_p_dimension(h2, 2) == 0
    return ManifoldProfile(
        name="random-simply-connected",
        homology=(Z, ZERO, h2, FgAbGroup(b2), ZERO, Z),
        spin=spin,
        w4_is_zero=True,
        p1=ZERO.zero(),
    )


def test_criterion_4_parity_law_on_random_profiles():
    rng = random.Random(2026)
    checked = 0
    for _ in range(1200):
        profile = random_simply_connected_profile(rng)
        verdict = decide_irreducible_so3(profile).verdict
        if profile.spin:
            expected = Verdict.YES if homology_mod2_dimension(profile, 2) % 2 == 1 else Verdict.NO
        else:
            expected = Verdict.YES
        assert verdict == expected, profile
        checked += 1
    assert checked >= 1000
    print(f"ACCEPTANCE 4 (parity law, {checked} random profiles): PASS")


def spin_yes_pool(rng: random.Random) -> list[ManifoldProfile]:
    pool = [catalog("s3xs2")]
    pool.append(product_3x2((Z, ZERO, ZERO, Z), 1))
    pool.append(product_3x2((Z, FgAbGroup(3), FgAbGroup(3), Z), 2))
    pool.append(product_3x2((Z, FgAbGroup(0, (2,)), ZERO, Z), 0))
    pool.append(circle_bundle(CircleBundleSpec(hypersurface(4), (1,) + (0,) * 21)))
    for _ in range(20):
        profile = random_simply_connected_profile(rng)
        if profile.spin and decide_irreducible_so3(profile).verdict == Verdict.YES:
            pool.append(profile)
    for profile in pool:
        assert profile.spin
        assert decide_irreducible_so3(profile).verdict == Verdict.YES
    return pool


def test_criterion_5_connected_sum_closure():
    rng = random.Random(55)
    pool = spin_yes_pool(rng)
    # odd sums stay decidable-Yes
    for _ in range(40):
        count = rng.choice([3, 5, 7])
        parts = [rng.choice(pool) for _ in range(count)]
        total = parts[0]
        for part in parts[1:]:
            total = connected_sum(total, part)
        assert decide_irreducible_so3(total).verdict == Verdict.YES
        assert decide_two_field(total).verdict == Verdict.YES
    # the Kervaire formula holds exactly on all pairs from the pool
    for a in pool:
        for b in pool:
            s = connected_sum(a, b)
            assert kervaire_semicharacteristic(s) == (
                kervaire_semicharacteristic(a) + kervaire_semicharacteristic(b) + 1
            ) % 2
    print(f"ACCEPTANCE 5 (connected-sum closure, pool of {len(pool)}): PASS")


def three_manifold_homologies(max_dim: int):
    """All (rank, torsion-chain) shapes with dim H_1(N;Z_2) up to max_dim."""
    two_chains = [()]
    for length in range(1, max_dim + 1):
        for chain in cartesian((2, 4, 8), repeat=length):
            if all(chain[i] <= chain[i + 1] for i in range(length - 1)):
                two_chains.append(chain)
    odd_parts = [(), (3,), (9,), (5,), (3, 3), (7,)]
    out = []
    for rank in range(max_dim + 1):
        for twos in two_chains:
            if rank + len(twos) > max_dim:
                continue
            for odd in odd_parts:
                h1 = FgAbGroup.from_cyclic_orders(rank, list(twos) + list(odd))
                out.append((Z, h1, FgAbGroup(h1.free_rank), Z))
    return out


def test_criterion_6_product_family():
    cases = 0
    for n3 in three_manifold_homologies(5):
        for genus in range(6):
            profile = product_3x2(n3, genus)
            assert semicharacteristic(profile) == 0, (n3[1], genus)
            assert decide_irreducible_so3(profile).verdict == Verdict.YES, (n3[1], genus)
            cases += 1
    print(f"ACCEPTANCE 6 (product family, {cases} cases): PASS")


def test_criterion_7_exact_arithmetic_oracles():
    rng = random.Random(41)
    # Smith normal form contract on 10^4 random matrices up to 6x6
    for _ in range(10_000):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        mat = IntegerMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        snf = smith_normal_form(mat)
        assert snf.U.multiply(mat).multiply(snf.V) == snf.D
        assert abs(snf.U.determinant()) == 1
        assert abs(snf.V.determinant()) == 1
        diag = snf.diagonal
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0

    # solve_divisibility against brute force on every group of order <= 1000
    groups = []

    def extend(chain, bound):
        start = 2 if not chain else chain[-1]
        d = start
        while True:
            if chain and d % chain[-1] != 0:
                d += 1
                continue
            if d > bound:
                break
            groups.append(tuple(chain) + (d,))
            extend(chain + [d], bound // d)
            d += 1

    extend([], 1000)
    assert len(groups) > 1000
    divisors = (2, 3, 4, 5, 6)
    for torsion in groups:
        group = FgAbGroup(0, torsion)
        order = group.order()
        coords = list(cartesian(*(range(d) for d in torsion)))
        if order <= 144:
            sample = coords
        else:
            sample = [tuple(rng.randrange(d) for d in torsion) for _ in range(20)]
        for n in divisors:
            reachable = {tuple((n * y) % d for y, d in zip(ys, torsion)) for ys in coords}
            for c in sample:
                answer = solve_divisibility(group.element((), c), n)
                assert (answer is not None) == (c in reachable), (torsion, c, n)
                if answer is not None:
                    assert n * answer == group.element((), c)
    print(
        f"ACCEPTANCE 7 (exact arithmetic oracles, 10000 matrices, {len(groups)} groups): PASS"
    )


def fragment_profile_family() -> list[ManifoldProfile]:
    profiles = [catalog(name) for name in ("s5", "wu", "s3xs2", "s3~xs2")]
    euler_by_degree = {
        1: [(1,), (2,), (3,), (4,), (5,), (6,)],
        2: [(1, 0), (1, 1), (2, 0), (2, 2), (3, 1), (4, 0), (6, 0)],
        3: [
            (1, 0, 0, 0, 0, 0, 0),
            (2, 0, 0, 0, 0, 0, 0),
            (3, -3, -3, 0, 0, 0, 0),
            (4, 0, 0, 2, 0, 0, 0),
            (5, 0, 0, 0, 0, 0, 0),
        ],
        4: [(1,) + (0,) * 21, (2,) + (0,) * 21, (3,) + (0,) * 21, (6, 2) + (0,) * 20],
    }
    for degree, classes in euler_by_degree.items():
        base = hypersurface(degree)
        for c in classes:
            profiles.append(circle_bundle(CircleBundleSpec(base, c)))
    diagonal_base = FourManifoldProfile(
        b2=2,
        Q=IntegerMatrix.diagonal((1, -1)),
        w2_vector=(1, 1),
        euler_char=4,
        p1_eval=0,
        signature=0,
    )
    profiles.append(circle_bundle(CircleBundleSpec(diagonal_base, (4, 0))))
    profiles.append(circle_bundle(CircleBundleSpec(diagonal_base, (2, 4))))
    return [p for p in profiles if p.mod2_fragment is not None]


def test_criterion_8_rank5_rank3_coherence():
    profiles = fragment_profile_family()
    assert len(profiles) > 20
    reconstructed = 0
    for profile in profiles:
        tangent = tangent_bundle_classes(profile)
        assert rank5_relation_holds(profile, tangent), profile.name

        p_class = solve_divisibility(profile.p1, 5)
        if not profile.w4_is_zero or p_class is None:
            continue  # the reconstruction chain assumes w4 = 0 and 5 | p1
        w2 = profile.mod2_fragment.w2_class
        check = rank3_bundle_exists(profile, w2, p_class)
        assert check.verdict == Verdict.YES, profile.name
        eta = Bundle3Data(
            base=profile,
            w2_zero=not any(w2),
            p1=p_class,
            w2_class=w2,
        )
        assert sym0_classes(eta) == tangent, profile.name
        reconstructed += 1
    assert reconstructed >= 15
    print(
        f"ACCEPTANCE 8 (bundle coherence on {len(profiles)} profiles, "
        f"{reconstructed} reconstructions): PASS"
    )
