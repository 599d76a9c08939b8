"""Synthetic SEM-style images with exact SNR oracles, SNR estimators that
predict the noise-free autocorrelation peak, hardware yield-based SNR, and
classical denoising filters, plus a deterministic benchmark harness.

The package root holds only ``__version__``; every other name is imported
from the module that defines it.
"""

__version__ = "0.1.0"
