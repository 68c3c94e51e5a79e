"""Bayesian frequency-domain system identification with conjugate-symmetric
H-infinity Gaussian process priors.

The package models an unknown stable transfer function g(z) as a complex
Gaussian process on the closed exterior of the unit disk, specified by a
Hermitian/complementary covariance pair.  Submodules:

* :mod:`hinfgp.kernels` — built-in covariance families and Gram assembly;
* :mod:`hinfgp.sampling` — finite-impulse-response path realizations;
* :mod:`hinfgp.verify` — conjugate-symmetry checks and the zero-one
  RKHS-membership (space-inclusion) probe;
* :mod:`hinfgp.regression` — strictly/widely linear posteriors, confidence
  disks, and marginal-likelihood hyperparameter tuning;
* :mod:`hinfgp.sysid` — simulated experiments and the filter-bank empirical
  transfer function estimate;
* :mod:`hinfgp.cli` — the ``hinfgp`` command-line entry point.
"""

from .kernels import (
    ComplexKernel,
    CozineParams,
    StationarySequence,
    cozine_kernel,
    exponential_kernel,
    from_config,
    geometric_kernel,
    gram,
    mixture_kernel,
    real_imag_kernels,
    stationary_kernel,
)
from .regression import (
    ConditioningError,
    Domain,
    EllipsoidBound,
    FrequencyDataset,
    Hyperparameters,
    Posterior,
    SchurComplement,
    WidelyLinearPrediction,
    ellipsoid,
    fit,
    log_marginal_likelihood,
    optimize_hyperparameters,
    predict_sl,
    predict_sl_many,
    predict_wl,
    schur_P,
)
from .sampling import sample_cozine_batch, sample_stationary_batch
from .sysid import (
    DiscreteTF,
    FilterBankSpec,
    TimeTrace,
    estimate_noise_var,
    etfe,
    gaussian_window,
    make_allpass,
    make_resonant_system,
    simulate,
)
from .verify import (
    ContinuityReport,
    DriscollReport,
    SymmetryReport,
    continuity_probe,
    continuity_search,
    dense_spiral,
    driscoll_test,
    h2_kernel,
    symmetry_test,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernels
    "ComplexKernel",
    "CozineParams",
    "StationarySequence",
    "geometric_kernel",
    "exponential_kernel",
    "stationary_kernel",
    "cozine_kernel",
    "mixture_kernel",
    "real_imag_kernels",
    "gram",
    "from_config",
    # sampling
    "sample_stationary_batch",
    "sample_cozine_batch",
    # verify
    "DriscollReport",
    "SymmetryReport",
    "ContinuityReport",
    "h2_kernel",
    "dense_spiral",
    "driscoll_test",
    "symmetry_test",
    "continuity_probe",
    "continuity_search",
    # regression
    "ConditioningError",
    "FrequencyDataset",
    "Posterior",
    "EllipsoidBound",
    "SchurComplement",
    "WidelyLinearPrediction",
    "Domain",
    "Hyperparameters",
    "fit",
    "predict_sl",
    "predict_sl_many",
    "predict_wl",
    "schur_P",
    "ellipsoid",
    "log_marginal_likelihood",
    "optimize_hyperparameters",
    # sysid
    "DiscreteTF",
    "TimeTrace",
    "FilterBankSpec",
    "make_resonant_system",
    "make_allpass",
    "simulate",
    "gaussian_window",
    "etfe",
    "estimate_noise_var",
]
