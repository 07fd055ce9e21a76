"""Executable constructions and numerical certificates for prescribed KMS
spectra of group actions."""

from .blocks import (ConformalityReport, FiniteConformalBlock, FiniteGroupTable,
                     ProbVector, TruncatedProductSystem, check_conformality,
                     cohomologous_transform, conformal_weights,
                     integrate_potential)
from .errors import (ConstructionError, ConvergenceError, DomainError,
                     EnumerationError, FitFailureError, InvalidInputError,
                     KmspecError, RealizationError, UnsupportedGeneratorError,
                     WindowError)
from .expratio import PartitionedBlockSystem, WeightedMultiset, realize_block
from .growth import (CocycleModel, DefectCertificate, ball_census,
                     build_measure_net, classify_spectrum, limsup_ratio,
                     omega_mu)
from .padic import (Mat2, default_alphabet, freeness_suite, generator,
                    reduce_word, sl2_order, subgroup_closure_mod)
from .realize import (FractionPair, RealizableCocycle, build_realizable,
                      eval_phi, fraction_pair, mobius_eval, ratio_bound)
from .sets import ClosedSetSpec
from .spectra import (FreeProductSystem, SpectrumReport, WreathSystem,
                      assemble_free_product, shift_rn_derivative,
                      solve_free_product_spectrum, solve_spectrum,
                      target_phi_from_set, theta_rn_derivative)

__version__ = "0.1.0"
