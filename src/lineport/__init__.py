"""lineport: a semi-infinite transmission line capacitively coupled to a
lumped circuit, reduced to its one-port form and analyzed in time and
Laplace domains, with independent numerical oracles for every path."""

__version__ = "0.1.0"

from .errors import (InputError, LineportError, NetlistParseError,
                     NumericalPreconditionError, ValidationError)
from .netlist import (CircuitTopology, ReducedModel, build_capacitance_matrix,
                      derive_reduced_model, invariant_report, parse_netlist,
                      parse_netlist_file, potential_energy, potential_gradient,
                      reduce_ground, stiffness_matrix)
from .signals import Signal, Trajectory, peak_envelope, write_csv
from .tline import (LineInitialState, LineParams, backward_wave, line_params,
                    thevenin_source)
from .reduced_dynamics import (LadderSystem, ReducedState, StateSpace, assemble_rhs,
                               integrate, ladder_oracle, langevin_form)
from .spectral import (LcExampleParams, PoleLocus, PoleSet, TransferMatrixSpec,
                       char_poly, find_poles, pole_locus, poly_backward_residual,
                       transfer_matrix, weak_coupling)
from .inversion import (SourceSpec, bromwich_ifft, impulse_response_table,
                        invert_ifft, invert_partial_fractions, residues, respond,
                        sources_from_initial)
from .quantum_checks import (GaussianMoments, canonical_j, commutator_residual,
                             langevin_weak, propagate_gaussian, propagator_of)

__all__ = [
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
