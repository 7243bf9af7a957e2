"""photonkit: numerical photonics workbench.

Subpackages cover Sellmeier dispersion and its estimation through
phase-matched down-conversion, biphoton joint-spectral modeling with fiber
dispersion propagation, rectangular and bent waveguide mode solving, and
photon counting statistics, all exposed through a batch CLI (`photonkit`).
"""

__version__ = "0.1.0"
