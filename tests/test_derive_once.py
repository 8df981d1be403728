"""Each derived fact has one formula, and no layer re-derives it."""

import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3five.constructors import (
    CircleBundleSpec,
    catalog,
    catalog_names,
    circle_bundle,
    connected_sum,
    hypersurface,
    product_3x2,
)
from so3five.charclass import tangent_bundle_classes
from so3five.cli import _print_profile_report
from so3five.decide import (
    decide_irreducible_so3,
    decide_standard_so3,
    decide_two_field,
    rank3_bundle_exists,
    rank5_relation_holds,
)
from so3five.fgab import FgAbGroup
from so3five.topology import (
    CoefficientRing,
    cohomology,
    kervaire_semicharacteristic,
    pontryagin_square,
    profile_to_dict,
    semicharacteristic,
)

from test_acceptance import random_simply_connected_profile
from test_decide import (
    lens_bundle,
    unknown_branch_profile_with_fragment,
    unknown_branch_profile_without_fragment,
)

Z = FgAbGroup(1)
ZERO = FgAbGroup.trivial()
FINITE_RINGS = [ring for ring in CoefficientRing if ring.modulus is not None]


def oracle_cohomology(profile, k, ring):
    """Universal coefficients spelled out with tensor, Tor and direct sum."""
    hk = profile.homology[k]
    prev = profile.homology[k - 1] if k >= 1 else ZERO
    if ring is CoefficientRing.Z:
        return FgAbGroup(hk.free_rank, prev.torsion)
    if ring is CoefficientRing.R:
        return FgAbGroup(hk.free_rank, ())
    zm = FgAbGroup(0, (ring.modulus,))
    return hk.tensor(zm).direct_sum(prev.tor(zm))


small_groups = st.builds(
    FgAbGroup.from_cyclic_orders,
    st.integers(0, 2),
    st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 20]), max_size=3),
)


@st.composite
def profiles(draw):
    kind = draw(st.sampled_from(["criterion4", "catalog", "sum", "product", "bundle"]))
    if kind == "criterion4":
        return random_simply_connected_profile(random.Random(draw(st.integers(0, 10**6))))
    if kind == "catalog":
        return catalog(draw(st.sampled_from(catalog_names())))
    if kind == "sum":
        parts = draw(st.lists(st.sampled_from(catalog_names()), min_size=2, max_size=4))
        out = catalog(parts[0])
        for name in parts[1:]:
            out = connected_sum(out, catalog(name))
        return out
    if kind == "product":
        h1 = draw(small_groups)
        return product_3x2((Z, h1, FgAbGroup(h1.free_rank), Z), draw(st.integers(0, 2)))
    base = hypersurface(draw(st.integers(1, 3)))
    euler = draw(st.lists(st.integers(-4, 4), min_size=base.b2, max_size=base.b2))
    if not any(euler):
        euler[0] = 1
    return circle_bundle(CircleBundleSpec(base, tuple(euler)))


QUERIES = [(k, ring) for ring in CoefficientRing for k in range(6)]


@settings(max_examples=200, deadline=None)
@given(profiles(), st.permutations(QUERIES * 2))
def test_cohomology_matches_universal_coefficient_oracle(profile, queries):
    # every group twice, in shuffled order: a cached group answers as a
    # fresh one would, whichever query came first
    for k, ring in queries:
        assert cohomology(profile, k, ring) == oracle_cohomology(profile, k, ring)


def test_finite_ring_cohomology_builds_one_group(monkeypatch):
    calls = []
    original = FgAbGroup.from_cyclic_orders.__func__

    def counting(cls, free_rank=0, orders=()):
        calls.append(orders)
        return original(cls, free_rank, orders)

    profile = connected_sum(catalog("wu"), product_3x2((Z, FgAbGroup(0, (4,)), ZERO, Z), 1))
    # validation at construction has already derived some groups
    derived = set(profile._cohomology)
    monkeypatch.setattr(FgAbGroup, "from_cyclic_orders", classmethod(counting))
    for ring in FINITE_RINGS:
        for k in range(6):
            calls.clear()
            first = cohomology(profile, k, ring)
            assert len(calls) == int((k, ring.value) not in derived), (ring, k)
            calls.clear()
            assert cohomology(profile, k, ring) is first
            assert calls == [], (ring, k)


def test_cohomology_cache_is_not_an_invariant():
    used, fresh = catalog("wu"), catalog("wu")
    for k, ring in QUERIES:
        cohomology(used, k, ring)
    assert len(used._cohomology) == len(QUERIES) > len(fresh._cohomology)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert profile_to_dict(used) == profile_to_dict(fresh)
    assert dataclasses.replace(used)._cohomology == fresh._cohomology
    with pytest.raises(ValueError, match="between 0 and 5"):
        cohomology(used, 6, CoefficientRing.Z2)
    assert len(used._cohomology) == len(QUERIES)


@pytest.fixture
def cohomology_results(monkeypatch):
    """Every cohomology call made through a so3five namespace, as
    (profile, k, ring, group returned); holding each profile keeps its id
    from being reused."""
    import so3five.topology as topology

    results = []
    original = topology.cohomology

    def recording(profile, k, ring=CoefficientRing.Z):
        group = original(profile, k, ring)
        results.append((profile, k, ring, group))
        return group

    for name, module in list(sys.modules.items()):
        if name.startswith("so3five") and getattr(module, "cohomology", None) is original:
            monkeypatch.setattr(module, "cohomology", recording)
    return results


def test_consumers_build_each_cohomology_group_once(cohomology_results, capsys):
    subjects = [catalog("wu"), lens_bundle(4), catalog("s3xs2"),
                connected_sum(catalog("wu"), product_3x2((Z, FgAbGroup(0, (4,)), ZERO, Z), 1))]
    for profile in subjects:
        for as_json in (False, True):
            _print_profile_report(profile, as_json)
        semicharacteristic(profile)
        kervaire_semicharacteristic(profile)
        decide_irreducible_so3(profile)
        decide_two_field(profile, "atiyah")
        if profile.spin:
            decide_two_field(profile, "thomas")
        decide_standard_so3(profile)
        if profile.mod2_fragment is not None:
            rank3_bundle_exists(profile, profile.mod2_fragment.w2_class, profile.p1)
    capsys.readouterr()
    built = {}
    for profile, k, ring, group in cohomology_results:
        # a group built once is the one object every later call returns
        key = (id(profile), k, ring)
        assert built.setdefault(key, group) is group, (profile.name, k, ring)
    assert len(cohomology_results) > len(built)


@pytest.fixture
def tangent_calls(monkeypatch):
    """Count tangent_bundle_classes calls through every so3five namespace."""
    calls = []
    import so3five.charclass as charclass

    original = charclass.tangent_bundle_classes

    def counting(profile):
        calls.append(profile)
        return original(profile)

    for name, module in list(sys.modules.items()):
        if name.startswith("so3five") and hasattr(module, "tangent_bundle_classes"):
            monkeypatch.setattr(module, "tangent_bundle_classes", counting)
    return calls


@pytest.mark.parametrize(
    "build",
    [lambda: lens_bundle(4), unknown_branch_profile_with_fragment,
     unknown_branch_profile_without_fragment],
    ids=["prop-2.4", "remark-4.4-fragment", "remark-4.4-bare"],
)
def test_order_four_branch_reads_the_profile_directly(tangent_calls, build):
    decision = decide_irreducible_so3(build())
    assert decision.theorem in ("Prop 2.4", "Remark 4.4")
    assert tangent_calls == []


def test_fragment_arithmetic_derives_degree_four_once(monkeypatch):
    import so3five.topology as topology

    total = circle_bundle(CircleBundleSpec(hypersurface(3), (3, -3, -3, 0, 0, 0, 0)))
    tangent = tangent_bundle_classes(total)
    calls = []
    original = topology.cohomology

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(topology, "cohomology", counting)
    # both read H^4(M;Z) as total.p1.group and derive no cohomology
    pontryagin_square(total, (1,) * total.mod2_fragment.h2_dim)
    assert calls == []
    assert rank5_relation_holds(total, tangent)
    assert calls == []


def test_cokernels_build_no_smith_witnesses(monkeypatch):
    import so3five.fgab as fgab

    calls = []
    original = fgab.smith_normal_form

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(fgab, "smith_normal_form", counting)
    for rows in ([[2, 4], [6, 8]], [[3], [-3], [-3], [0]], [[0, 5, 10]]):
        a = fgab.IntegerMatrix.from_rows(rows)
        group, project = fgab.cokernel_with_projection(a)
        project((1,) * a.rows)
        assert fgab.cokernel(a) == group
    assert calls == []


def test_projection_eliminates_a_without_a_border(monkeypatch):
    import so3five.fgab as fgab

    widths = []
    original = fgab._diagonalize

    def recording(a, m, n):
        widths.append((n, {len(row) for row in a}))
        return original(a, m, n)

    monkeypatch.setattr(fgab, "_diagonalize", recording)
    for rows in ([[2, 4], [6, 8]], [[3], [-3], [-3], [0]], [[0, 5, 10]], [[1, 2, 3], [4, 5, 6]]):
        widths.clear()
        group, project = fgab.cokernel_with_projection(fgab.IntegerMatrix.from_rows(rows))
        project((1,) * len(rows))
        # rows of exactly n entries: no [A | I_m] identity border
        assert widths == [(len(rows[0]), {len(rows[0])})]
