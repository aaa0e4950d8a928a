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
from .tline import (LineInitialState, LineParams, backward_wave, dalembert_eval,
                    forward_wave, line_params, thevenin_source)
from .reduced_dynamics import (LadderSystem, ReducedState, StateSpace, assemble_rhs,
                               integrate, ladder_oracle, langevin_form)
from .spectral import (LcExampleParams, PoleLocus, PoleSet, TransferMatrixSpec,
                       char_poly, classify_modes, find_poles, pole_locus,
                       poly_backward_residual, transfer_eval, transfer_matrix,
                       weak_coupling)
from .inversion import (SourceSpec, bromwich_ifft, impulse_response_table,
                        invert_ifft, invert_partial_fractions, normalize_max_abs,
                        residues, respond, sources_from_initial)
from .quantum_checks import (GaussianMoments, HamiltonianSystem, OpenReducedSystem,
                             Propagator, canonical_j, commutator_residual,
                             langevin_weak, propagate_gaussian, propagator_of,
                             residual_report)

__all__ = [name for name in dir() if not name.startswith("_")]
