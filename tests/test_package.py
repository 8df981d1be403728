"""Package-level structure: the one export list and no dead imports."""

import ast
import importlib
from pathlib import Path

import so3five

PACKAGE = Path(so3five.__file__).resolve().parent
MODULES = ("charclass", "constructors", "decide", "fgab", "topology")

# the 57 public names, as the package exported them before the module
# lists became the one source
EXPORTED = {
    "Bundle3Data", "Bundle5Data", "CircleBundleSpec", "CoefficientRing", "Decision",
    "FgAbGroup", "FourManifoldProfile", "GroupElement", "IntegerMatrix", "ManifoldProfile",
    "Mod2Fragment", "NecessaryConditions", "ObstructionReport", "ProfileValidationError",
    "SnfDecomposition", "TraceLine", "Verdict", "catalog", "catalog_names", "circle_bundle",
    "cohomology", "cokernel", "cokernel_with_projection", "connected_sum", "cup_product",
    "decide_irreducible_so3", "decide_standard_so3", "decide_two_field", "degree5_twist",
    "direct_sum_elements", "find_euler_class", "has_element_of_order",
    "homology_mod2_dimension", "hyperplane_class", "hypersurface",
    "kervaire_semicharacteristic", "mod_p_dimension", "necessary_conditions",
    "obstruction_report", "pontryagin_square", "product_3x2", "profile_from_dict",
    "profile_from_json", "profile_to_dict", "profile_to_json", "rank3_bundle_exists",
    "rank5_relation_holds", "require_valid", "semicharacteristic", "sym0_classes",
    "smith_normal_form", "solve_divisibility", "tangent_bundle_classes", "tensor_reduction",
    "tensor_reduction_moduli", "validate", "vector_content",
}


def test_package_exports_are_the_module_lists():
    modules = [importlib.import_module(f"so3five.{name}") for name in MODULES]
    assert so3five.__all__ == [name for m in modules for name in m.__all__]
    assert len(so3five.__all__) == len(set(so3five.__all__))
    for module in modules:
        for name in module.__all__:
            assert getattr(so3five, name) is getattr(module, name), name
    assert set(so3five.__all__) == EXPORTED


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    # a quoted annotation such as -> "FgAbGroup" names its type in a string
    annotations = [
        node.annotation if isinstance(node, (ast.arg, ast.AnnAssign)) else node.returns
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef))
    ]
    quoted = [
        ast.parse(a.value, mode="eval")
        for a in annotations
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    used = {
        node.id for root in (tree, *quoted) for node in ast.walk(root) if isinstance(node, ast.Name)
    }
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            unused += _unused_imports(path)
    assert unused == []
