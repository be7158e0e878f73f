"""Research performance measurement pipeline.

Field-normalized bibliometric indicators with fractional author credit,
cohort percentile scaling, fractional-response regression of performance on
demographics, and a synthetic-cohort harness for validating the whole chain
against known ground truth.
"""

from .cohort import cohort_percentiles, percentile_rank
from .corpus import (Corpus, IngestError, Roster, derive_covariates,
                     ingest_publications, ingest_roster, working_years)
from .credit import (ALPHABETICAL, POSITION_WEIGHTED, ConventionMap,
                     CreditError, byline_weights, fractional_contribution)
from .indicators import (INDICATORS, MissingCellError, ScalingTable,
                         build_scaling_table, compute_scores)
from .pipeline import compute_indicator_scores, regression_frame, run_scoring
from .regress import (Design, FitError, FitResult, ModelSpec,
                      QuasiSeparationError, RegressionFrame,
                      average_marginal_effects, build_design,
                      collinearity_check, fit_fractional_logit, fit_model,
                      fit_with_selected_degree, mcfadden_pseudo_r2,
                      select_age_degree)
from .report import (coefficient_of_variation, descriptive_table,
                     distribution_histogram, format_cell, format_number,
                     parse_cell, regression_table)
from .sim import (FieldSpec, RecoveryReport, SimConfig, generate_cohort,
                  recovery_experiment)

__version__ = "0.1.0"
