"""Exact-arithmetic workbench for quantum groups built from root data.

Everything runs over exact rationals: Laurent fractions in q for the
generic-parameter side, Fractions and p-adic valuations for the analytic
side.  The main entry points:

- scalars: ScalarQ Laurent fractions, q-integers, p-adic valuations.
- sparse: the one sparse-vector core (add at a key, drop zero sums).
- rootdata: RootDatum presets and validation.
- nichols: diagonal Nichols algebras via the pairing radical.
- uq: the double-bosonised quantum group on a truncated PBW window.
- weightmods: windowed Verma and dense weight modules, braidings,
  braid-group representations.
- norms: radius admissibility and convergence certificates.
- deform: truncated enveloping algebra, Chevalley-Eilenberg and gauge
  solvers for rigidity questions.
- cli: the `uqbench` command.
"""

from .errors import CapError, ConfigError, ObstructionError
from .scalars import (PadicParams, ScalarQ, ValuationBound, gauss_valuation,
                      q_binomial, q_factorial, q_int, vp, vp_factorial)
from .rootdata import RootDatum, list_presets, load_datum, validate_datum
from .nichols import NicholsContext, serre_element
from .uq import UqContext
from .weightmods import (WeightModule, braid_pair, braid_rep, braiding,
                         build_mlambda, build_verma,
                         closed_form_braiding_rank1, tensor_module,
                         ybe_check)
from .norms import (ConvergenceCertificate, NormReport, RadiusParams,
                    admissible, coaction_convergence, norm_contract_check,
                    reverify_certificate, rmatrix_condition)
from .deform import (SeriesElement, SeriesMap, TruncatedUg, conjugate_map,
                     derivation_gauge, identity_map, mult_trivialize,
                     plant_deformation, rigidity_conjugator)

__all__ = [
    "CapError", "ConfigError", "ObstructionError",
    "ScalarQ", "PadicParams", "ValuationBound",
    "q_int", "q_factorial", "q_binomial", "vp", "vp_factorial",
    "gauss_valuation",
    "RootDatum", "load_datum", "list_presets", "validate_datum",
    "NicholsContext", "serre_element",
    "UqContext",
    "WeightModule", "build_verma", "build_mlambda", "tensor_module",
    "braiding", "braid_pair", "closed_form_braiding_rank1", "braid_rep",
    "ybe_check",
    "RadiusParams", "ConvergenceCertificate", "NormReport",
    "admissible", "rmatrix_condition", "coaction_convergence",
    "reverify_certificate", "norm_contract_check",
    "TruncatedUg", "SeriesElement", "SeriesMap",
    "identity_map", "conjugate_map", "rigidity_conjugator",
    "derivation_gauge", "plant_deformation", "mult_trivialize",
]

__version__ = "0.1.0"
