"""Exact-arithmetic workbench for quantum groups built from root data.

Everything runs over exact rationals: Laurent fractions in q for the
generic-parameter side, Fractions and p-adic valuations for the analytic
side.  The main entry points:

- scalars: ScalarQ Laurent fractions, q-integers, p-adic valuations.
- sparse: the one sparse-vector core (`add_term` adds at a key and drops
  zero sums, `add_scaled` adds a scaled combination); every element of
  T(V), of U_q, of a module or of the deformation window is a plain
  {key: coefficient} dict built with it.
- rootdata: RootDatum presets and validation.
- nichols: tensor words, and the Nichols algebras of the datum's diagonal
  braiding via the pairing radical.
- uq: the double-bosonised quantum group on a truncated PBW window.
- weightmods: windowed Verma and dense weight modules, braidings, the
  braid-word engine and braid-group representations.
- norms: radius admissibility and convergence certificates.
- deform: truncated enveloping algebra, Chevalley-Eilenberg and gauge
  solvers for rigidity questions.
- cli: the `uqbench` command.
"""

from .errors import CapError, ConfigError, ObstructionError
from .scalars import (PadicParams, ScalarQ, ValuationBound, gauss_valuation,
                      q_binomial, q_factorial, q_int, vp, vp_factorial)
from .rootdata import RootDatum, load_datum, validate_datum
from .nichols import NicholsContext, serre_element
from .uq import UqContext
from .weightmods import (WeightModule, braid_pair, braid_rep, build_mlambda,
                         build_verma, tensor_module, ybe_check)
from .norms import (ConvergenceCertificate, RadiusParams, admissible,
                    coaction_convergence, reverify_certificate,
                    rmatrix_condition)
from .deform import (GEN_MONO, TruncatedUg, conjugate_map, derivation_gauge,
                     mult_trivialize, plant_deformation, rigidity_conjugator)

__all__ = [
    "CapError", "ConfigError", "ObstructionError",
    "ScalarQ", "PadicParams", "ValuationBound",
    "q_int", "q_factorial", "q_binomial", "vp", "vp_factorial",
    "gauss_valuation",
    "RootDatum", "load_datum", "validate_datum",
    "NicholsContext", "serre_element",
    "UqContext",
    "WeightModule", "build_verma", "build_mlambda", "tensor_module",
    "braid_pair", "braid_rep", "ybe_check",
    "RadiusParams", "ConvergenceCertificate",
    "admissible", "rmatrix_condition", "coaction_convergence",
    "reverify_certificate",
    "TruncatedUg", "GEN_MONO", "conjugate_map", "rigidity_conjugator",
    "derivation_gauge", "plant_deformation", "mult_trivialize",
]

__version__ = "0.1.0"
