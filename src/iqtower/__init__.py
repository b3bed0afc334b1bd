"""Computation toolkit for the nine class-number-one imaginary quadratic
fields: exact ring arithmetic, ray class groups, CM twist tables,
anticyclotomic tower layers, residue-field non-vanishing checks, Hecke
L-values, form class groups, and fine-Selmer rank calculus."""

from .abgroup import AbelianGroupStructure, QuotientPresentation, smith_normal_form
from .classforms import (FormClassGroup, QuadForm, SClassGroup, class_group,
                         p_rank, prime_form, principal_form, s_class_group)
from .cmsearch import (TableRow, TwistCandidate, curve_table,
                       find_twist_candidates, is_anomalous,
                       twist_degree_admissible)
from .finitefield import FFElement, FiniteField, finite_field
from .lvaluation import (LSeriesValue, ResidueEmbedding, compute_N1,
                         dirichlet_tail_bound, distinctness_check,
                         euler_factor_vanishes, euler_product_L,
                         evaluate_imprimitive_L, unity_image)
from .okring import (CLASS_NUMBER_ONE_DS, FieldTag, OkElement, OkError, OkPrime,
                     PrimeFactorization, canonical_associate, elements_up_to_norm,
                     factor, field, gcd_ok, parse_element,
                     primes_above, smallest_split_primes, split_type, valuation)
from .rayclass import (AnticyclotomicTower, CharacterSpec, RayClassGroup,
                       ResidueClass, TowerLevel, UnitGroup,
                       anticyclotomic_tower, artin_symbol, characters,
                       euler_phi, lcm_degree_check, lcm_ideal, minus_quotient,
                       ray_class_group, reduce_mod, unit_group_structure)
from .selmerrank import (CofinPGroup, IngestError, MonotonicityError,
                         RankConsistencyError, RankGapReport, SchemaError,
                         TowerLevelData, TowerSeries, class_to_selmer_gap_bound,
                         control_gap_bound, decomposition_counts,
                         fine_selmer_mod_p_rank, fit_iwasawa, ingest_tower,
                         rank_gap_bound, rank_gap_reports, series_stabilization,
                         stabilization_detect)

__version__ = "0.1.0"
