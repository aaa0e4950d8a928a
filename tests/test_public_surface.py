"""The package's public names, and no unused import in its modules."""
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


def used_names(tree):
    """The names that the module reads, those in quoted annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
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
                names |= used_names(ast.parse(ann.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    tree = ast.parse((SRC / module).read_text())
    assert sorted(imported_names(tree) - used_names(tree)) == []
