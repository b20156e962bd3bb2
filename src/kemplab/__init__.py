"""kemplab: an exact measure-expansion laboratory on finite group models.

Finite discretizations of compact groups carry a normalized counting
measure, which turns minimal and nearly-minimal sumset expansion,
quotient transfer, set-induced pseudometrics, and character extraction
into exact integer arithmetic.  Every lemma-level inequality of the
theory is an executable check here.
"""

from .errors import (AmbiguousSign, AxiomViolation, EmptyInput, GroupMismatch,
                     KemplabError, MinimumResolution, NoCharacterWithinBound,
                     NoStructureFound, NotNormal, ParseError,
                     PreconditionError, StageError)
from .groups import (Arc, Character, GroupModel, Subgroup, abelianization,
                     coset_partition, cyclic_subgroup,
                     default_character_modulus, distinct_cyclic_subgroups,
                     enumerate_characters, generated_subgroup, is_normal,
                     make_cyclic, make_from_table, make_product, quotient,
                     subgroup_from_members, symmetric_group_table)
from .sumset import (OverlapProfile, Subset, bohr_preimage, fast_product_set,
                     overlap_profile, product_set, translate_overlap)
from .expansion import (DeficitReport, DirectionCover, ProbeReport,
                        ShrinkResult, SubmodularReport, ToricReport,
                        covering_tori, deficit, direction_cover,
                        find_translate_overlap, is_nearly_minimal,
                        kneser_witness, nonexpander_probe, period_stabilizer,
                        shrink_to_size, submodular_check,
                        toric_expansion_ratios)
from .fibers import (FiberProfile, SpilloverResult, TransferResult,
                     best_arc_fit, bohr_stability, fiber_profile, level_set,
                     spillover_bound, structural_control, transfer)
from .pseudometric import (AlphaResult, BallGrowthResult, LambdaSequence,
                           LinearityReport, MonotonicityReport,
                           PathMonotoneReport, PseudometricReport,
                           PseudometricTable, QuantizationReport, SignContext,
                           alpha_lambda, ball, ball_growth_check,
                           gamma_linearity, gamma_monotonicity,
                           irreducible_concatenation, is_irreducible,
                           kernel_subgroup, loop_quantization_check,
                           path_monotone_check, pseudometric_from_set,
                           relative_sign, total_weight, verify_pseudometric)
from .homextract import (AlmostHom, FiberRigidityReport, FitResult,
                         PipelineConfig, almost_hom, fiberwise_rigidity_report,
                         inverse_pipeline, kernel_norm_check,
                         snap_to_character)
from .inverse1d import (Escape, IntervalCover, RealStructure, TorusStructure,
                        freiman_3k4, real_inverse, torus_inverse)

__version__ = "0.1.0"
