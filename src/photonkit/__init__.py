"""photonkit: numerical photonics workbench.

Subpackages cover Sellmeier dispersion and its estimation through
phase-matched down-conversion, biphoton joint-spectral modeling with fiber
dispersion propagation, rectangular and bent waveguide mode solving, and
photon counting statistics, all exposed through a batch CLI (`photonkit`).
"""

import os

__version__ = "0.1.0"


def worker_count() -> int:
    """Worker threads from WORKBENCH_THREADS: 1 when unset or not an integer.

    It lives here, where importing it loads no numpy, because the CLI reads
    it before numpy loads to size the BLAS thread pool."""
    env = os.environ.get("WORKBENCH_THREADS", "1")
    try:
        return max(1, int(env))
    except ValueError:
        return 1
