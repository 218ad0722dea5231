"""Population 2x2 games against maximum-entropy predictions.

Simulate repeated population games on a discrete social-state lattice,
derive the closed-form maximum-entropy prediction for the observed means,
and test observation against prediction with entropy concentration bounds,
chi-square goodness of fit, and distance-weighted deviation statistics.
"""

from .errors import (DegenerateGame, DegenerateTheory, DuplicateId,
                     MaxentGamesError, NoInteriorEquilibrium, ParseError,
                     RangeError, SchemaError)
from .games import (EquilibriumPoint, PayoffMatrix, Treatment, get_treatment,
                    mixed_nash, parse_treatment_config, read_treatment_config,
                    treatment_catalog)
from .kernels import BACKEND
from .lattice import (LatticeDistribution, MeanObservation, degeneracies,
                      lattice_cells, mean_observation, tally)
from .maxent import (EntropyReport, MaxentPrediction, binomial_prediction,
                     ect_bound, entropy, entropy_report, lattice_freedoms)
from .sessionio import (AnalysisReport, EnsembleSummary, analyze_session,
                        canonical_json, fit_prediction, read_session_csv,
                        render_lattice_svg, session_digest,
                        session_from_csv, session_to_csv, summarize_ensemble,
                        write_lattice_svg, write_session_csv, TOOL_VERSION)
from .simulate import (DEFAULT_POPULATION, PolicySpec, SessionRecord,
                       logit_policy, mixed_policy, nash_policy, parse_policy,
                       run_ensemble, run_session)
from .special import chi_square_quantile, student_t_quantile
from .stats import (ChiSquareReport, DeviationReport, SummaryStats,
                    TTestReport, chi_square_gof, deviation_report,
                    one_sample_t_test, summarize)

__version__ = TOOL_VERSION

__all__ = [
    "AnalysisReport", "BACKEND", "ChiSquareReport",
    "DEFAULT_POPULATION", "DegenerateGame", "DegenerateTheory",
    "DeviationReport", "DuplicateId", "EnsembleSummary",
    "EntropyReport", "EquilibriumPoint",
    "LatticeDistribution", "MaxentGamesError", "MaxentPrediction",
    "MeanObservation", "NoInteriorEquilibrium", "ParseError",
    "PayoffMatrix", "PolicySpec", "RangeError", "SchemaError",
    "SessionRecord", "SummaryStats", "TOOL_VERSION", "TTestReport",
    "Treatment", "analyze_session", "binomial_prediction", "canonical_json",
    "chi_square_gof", "chi_square_quantile", "degeneracies",
    "deviation_report", "ect_bound", "entropy", "entropy_report",
    "fit_prediction", "get_treatment", "lattice_cells", "lattice_freedoms",
    "logit_policy",
    "mean_observation", "mixed_nash", "mixed_policy", "nash_policy",
    "one_sample_t_test", "parse_policy", "parse_treatment_config",
    "read_session_csv", "read_treatment_config", "render_lattice_svg",
    "run_ensemble", "run_session", "session_digest", "session_from_csv",
    "session_to_csv",
    "student_t_quantile", "summarize", "summarize_ensemble", "tally",
    "treatment_catalog", "write_lattice_svg", "write_session_csv",
]
