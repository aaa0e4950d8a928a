"""The package's public names, no unused import in its modules, and no
private module-level name that the package never reads."""
import ast
from pathlib import Path

import pytest

import lineport

SRC = Path(lineport.__file__).resolve().parent

#: ``lineport.__all__``: a new public name is an edit of this list
PUBLIC = [
    "CircuitTopology", "GaussianMoments", "InputError", "LadderSystem", "LcExampleParams",
    "LineInitialState", "LineParams", "LineportError", "NetlistParseError",
    "NumericalPreconditionError", "PoleLocus", "PoleSet", "ReducedModel", "ReducedState",
    "Signal", "SourceSpec", "StateSpace", "Trajectory", "TransferMatrixSpec",
    "ValidationError", "assemble_rhs", "backward_wave", "bromwich_ifft",
    "build_capacitance_matrix", "canonical_j", "char_poly", "commutator_residual",
    "derive_reduced_model", "find_poles", "impulse_response_table", "integrate",
    "invariant_report", "invert_ifft", "invert_partial_fractions", "ladder_oracle",
    "langevin_form", "langevin_weak", "line_params", "parse_netlist", "parse_netlist_file",
    "peak_envelope", "pole_locus", "poly_backward_residual", "potential_energy",
    "potential_gradient", "propagate_gaussian", "propagator_of", "reduce_ground", "residues",
    "respond", "sources_from_initial", "stiffness_matrix", "thevenin_source",
    "transfer_matrix", "weak_coupling", "write_csv",
]


def test_public_names_are_pinned():
    assert sorted(lineport.__all__) == PUBLIC


def imported_names(tree):
    """The names that the module's import statements bind, but for
    ``from __future__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree, ctx=ast.expr_context):
    """The names that the module reads, those in quoted annotations included;
    with ``ctx`` ast.Load, only the names it loads."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ctx)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= used_names(ast.parse(ann.value, mode="eval"), ctx)
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    tree = ast.parse((SRC / module).read_text())
    assert sorted(imported_names(tree) - used_names(tree)) == []


def private_definitions(tree):
    """The module-level private functions, classes and constants, dunders
    excepted."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_name_is_read():
    """A private helper that no module of the package loads, by name or as
    an attribute, is dead code: a merged-away helper must go with its merge."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        read |= used_names(tree, ast.Load)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    defined = {(module, name) for module, tree in trees.items()
               for name in private_definitions(tree)}
    assert defined  # the walk finds the package's helpers
    assert sorted(f"{module}: {name}" for module, name in defined if name not in read) == []
