"""The traced benchmark's hooks still find what they wrap in the library.

``perfbench/tracing.py`` rebinds library functions by name and wraps a
few class hooks in place.  A refactor that renames or moves one of them
would otherwise only show up as a crash of the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_on_the_library(tracing):
    for span_name in tracing.SPANS:
        module_name, _, rest = span_name.partition(".")
        owner = importlib.import_module(f"so3five.{module_name}")
        if span_name == "fgab.project":
            # wrapped on the projection that cokernel_with_projection returns
            assert callable(owner.cokernel_with_projection), span_name
            continue
        if "." in rest:
            cls_name, attr = rest.split(".")
            assert attr in vars(getattr(owner, cls_name)), span_name
        else:
            assert callable(getattr(owner, rest)), span_name


def test_wrapped_post_init_hooks_sit_in_their_classes(tracing):
    from so3five.charclass import Bundle3Data, Bundle5Data
    from so3five.constructors import FourManifoldProfile

    for cls in (FourManifoldProfile, Bundle3Data, Bundle5Data):
        assert "__post_init__" in vars(cls), cls.__name__
        assert f"{cls.__module__.split('.')[-1]}.{cls.__name__}.__post_init__" in tracing.SPANS


def test_construction_validates_through_the_traced_global(tracing):
    import so3five.cli  # noqa: F401  (the tracer wraps cli.parse_recipe too)
    from so3five import constructors, decide, topology

    original = topology.validate
    tracer = tracing.Tracer()
    try:
        tracer.install()
        decide.decide_standard_so3(constructors.catalog("s3xs2"))
    finally:
        tracer.uninstall()
    assert topology.validate is original
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("topology.validate") == 1
    assert "decide.decide_standard_so3" in names
