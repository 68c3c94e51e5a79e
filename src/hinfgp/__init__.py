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

Names are imported from their submodule (``from hinfgp.kernels import
geometric_kernel``); the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
