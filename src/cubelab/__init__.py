"""Exact, exhaustive analysis of Boolean functions and halfspaces on the
discrete cube: Fourier weights, influences, vertex boundaries, local tail
decay, constructive flip injections, and a theorem-check harness.
"""

from .bfcore import BooleanFunction, FunctionSpec, dual, from_truth_table, is_monotone
from .chernoff import CheckRecord, Partition
from .halfspace import Halfspace, TailDistribution, make_halfspace, parse_halfspace
from .harness import Corpus, PinnedConstants, Report, corpus_gen, run_suite, standard_corpus
from .influence import InfluenceProfile, influences, vertex_boundary
from .spectral import FourierSpectrum, LevelWeights, covariance, fwht_spectrum, noise_stability

__version__ = "0.1.0"

__all__ = [
    "BooleanFunction", "FunctionSpec", "dual", "from_truth_table",
    "is_monotone", "CheckRecord", "Partition", "Halfspace", "TailDistribution",
    "make_halfspace", "parse_halfspace", "Corpus", "PinnedConstants", "Report",
    "corpus_gen", "run_suite", "standard_corpus", "InfluenceProfile",
    "influences", "vertex_boundary", "FourierSpectrum", "LevelWeights",
    "covariance", "fwht_spectrum", "noise_stability", "__version__",
]
