"""Each derived fact has one formula, and no layer re-derives it."""

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
from so3five.decide import decide_irreducible_so3, rank5_relation_holds
from so3five.fgab import FgAbGroup
from so3five.topology import CoefficientRing, cohomology, pontryagin_square

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


@settings(max_examples=200, deadline=None)
@given(profiles())
def test_cohomology_matches_universal_coefficient_oracle(profile):
    for ring in CoefficientRing:
        for k in range(6):
            assert cohomology(profile, k, ring) == oracle_cohomology(profile, k, ring)


def test_finite_ring_cohomology_builds_one_group(monkeypatch):
    calls = []
    original = FgAbGroup.from_cyclic_orders.__func__

    def counting(cls, free_rank=0, orders=()):
        calls.append(orders)
        return original(cls, free_rank, orders)

    profile = connected_sum(catalog("wu"), product_3x2((Z, FgAbGroup(0, (4,)), ZERO, Z), 1))
    monkeypatch.setattr(FgAbGroup, "from_cyclic_orders", classmethod(counting))
    for ring in FINITE_RINGS:
        for k in range(6):
            calls.clear()
            cohomology(profile, k, ring)
            assert len(calls) == 1, (ring, k)


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
    pontryagin_square(total, (1,) * total.mod2_fragment.h2_dim)
    assert len(calls) == 1
    calls.clear()
    assert rank5_relation_holds(total, tangent)
    assert len(calls) <= 2
