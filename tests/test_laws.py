"""Wu's formula and the spin parity law on constructor profiles.

Extends acceptance criterion 8 from its fixed family to drawn profiles:
the tangent record carries w4 = w2 cup w2, the rank-5 relation holds on
it, and on spin profiles the Cor 1.6 cross-check of
``decide_standard_so3`` is satisfied.
"""

import pytest
from hypothesis import given, settings

from so3five.charclass import tangent_bundle_classes
from so3five.constructors import catalog, catalog_names
from so3five.decide import decide_standard_so3, rank5_relation_holds
from so3five.topology import cup_product

from test_derive_once import circle_bundles, profiles


def assert_tangent_laws(profile):
    w2 = profile.mod2_fragment.w2_class
    tangent = tangent_bundle_classes(profile)
    assert tangent.w4_class == cup_product(profile, w2, w2), profile.name
    assert rank5_relation_holds(profile, tangent), profile.name


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_tangent_w4_is_w2_squared(name):
    assert_tangent_laws(catalog(name))


@settings(max_examples=60, deadline=None)
@given(circle_bundles())
def test_circle_bundle_tangent_w4_is_w2_squared(profile):
    assert_tangent_laws(profile)


@settings(max_examples=100, deadline=None)
@given(profiles())
def test_cor_1_6_cross_check_holds_on_spin_profiles(profile):
    cross = next(
        line for line in decide_standard_so3(profile).trace if "Cor 1.6" in line.condition
    )
    assert cross.satisfied, (profile, cross.value)
