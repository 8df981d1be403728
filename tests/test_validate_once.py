"""A profile is validated once, when it is built, and never again."""

import pytest

import so3five.topology as topology
from so3five.charclass import (
    Bundle3Data,
    necessary_conditions,
    obstruction_report,
    sym0_classes,
    tangent_bundle_classes,
)
from so3five.cli import parse_recipe
from so3five.constructors import (
    CircleBundleSpec,
    catalog,
    catalog_names,
    circle_bundle,
    connected_sum,
    hypersurface,
    product_3x2,
)
from so3five.decide import (
    decide_irreducible_so3,
    decide_standard_so3,
    decide_two_field,
    rank3_bundle_exists,
    rank5_relation_holds,
)
from so3five.fgab import FgAbGroup


@pytest.fixture
def validate_calls(monkeypatch):
    """Count the calls of topology.validate made through the module global."""
    calls = []
    original = topology.validate

    def counting(profile):
        calls.append(profile)
        return original(profile)

    monkeypatch.setattr(topology, "validate", counting)
    return calls


def test_decide_standard_on_catalog_validates_once(validate_calls):
    decide_standard_so3(catalog("s3xs2"))
    assert len(validate_calls) == 1


@pytest.mark.parametrize("k", [2, 3, 5])
def test_connected_sum_chain_validates_each_profile_once(validate_calls, k):
    names = catalog_names()
    out = catalog(names[0])
    for i in range(1, k):
        out = connected_sum(out, catalog(names[i % len(names)]))
    assert len(validate_calls) == 2 * k - 1


def test_constructors_validate_only_their_output(validate_calls):
    product_3x2((FgAbGroup(1), FgAbGroup(3), FgAbGroup(3), FgAbGroup(1)), 2)
    assert len(validate_calls) == 1
    circle_bundle(CircleBundleSpec(hypersurface(1), (4,)))
    assert len(validate_calls) == 2


def test_raw_recipe_validates_once(validate_calls):
    raw = topology.profile_to_dict(catalog("wu"))
    validate_calls.clear()
    parse_recipe(raw)
    assert len(validate_calls) == 1


def test_consumers_never_revalidate(validate_calls):
    lens = circle_bundle(CircleBundleSpec(hypersurface(1), (4,)))
    spin = catalog("s3xs2")
    validate_calls.clear()
    for profile in (lens, spin):
        decide_irreducible_so3(profile)
        decide_two_field(profile, "atiyah")
        decide_standard_so3(profile)
        tangent = tangent_bundle_classes(profile)
        necessary_conditions(tangent)
        obstruction_report(tangent)
        rank5_relation_holds(profile, tangent)
        w2 = profile.mod2_fragment.w2_class
        rank3_bundle_exists(profile, w2, profile.p1)
        eta = Bundle3Data(base=profile, w2_zero=not any(w2), p1=profile.p1, w2_class=w2)
        sym0_classes(eta)
    decide_two_field(spin, "thomas")
    assert validate_calls == []
