"""A fixed job that does not use photonkit, timed to gauge the host's speed.

    python3 perfbench/reference.py OUT_DIR

It does, briefly, the kinds of work a photonkit CLI job does: it starts a
fresh interpreter and imports numpy and the scipy modules photonkit imports,
does array arithmetic and FFTs on a 300 x 300 grid, a least-squares solve
through BLAS, and writes a CSV file into OUT_DIR. Nothing in it depends on
the code under test, so its wall time moves only with the host.
"""

import sys
from pathlib import Path

import numpy as np
from scipy import optimize, special, stats  # noqa: F401  (the imports are timed)

N = 300


def main() -> None:
    out = Path(sys.argv[1])
    x = np.linspace(-3.0, 3.0, N)
    xs, xi = np.meshgrid(x, x, indexing="ij")
    grid = np.exp(-(xs**2 + xi**2 - 0.6 * xs * xi)) * np.cos(2.0 * xs)
    for _ in range(6):
        grid = np.abs(np.fft.ifft2(np.fft.fft2(grid) * 0.99))
    design = np.column_stack([np.ones(N * N), xs.ravel(), xi.ravel(), xs.ravel()**2,
                              xi.ravel()**2, (xs * xi).ravel()])
    np.linalg.lstsq(design, grid.ravel(), rcond=None)
    with open(out / "reference.csv", "w") as fh:
        fh.writelines(f"{i},{v:.12e}\n" for i, v in enumerate(grid.ravel()[::3]))


if __name__ == "__main__":
    main()
