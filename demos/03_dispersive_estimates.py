"""Measuring the shorttime dispersive estimates.

Each family is sampled over Gaussian block data plus a coherent candidate,
ratios are formed against the predicted scaling, and a log-log slope is
fitted: a flat slope means the predicted power law is the right one.
"""

from toruslab.estimates import (
    bilinear_ratio,
    l4_modulation_ratio,
    maximal_ratio,
    smoothing_grid_operator_norm,
    smoothing_ratio,
)

import numpy as np

count = 12  # enough for a demo; the acceptance suite uses 64

rep = bilinear_ratio([5, 6, 7], 1, count=count, seed=0)
print(f"bilinear (normalized)       slope {rep.slope:+.3f} (raw -1/2)")

rep = maximal_ratio([3, 4, 5, 6, 7], count=count, seed=0)
print(f"maximal (normalized)        slope {rep.slope:+.3f} (raw +1/4)")

rep = smoothing_ratio([3, 4, 5, 6, 7], count=count, seed=0)
print(f"local smoothing (normalized) slope {rep.slope:+.3f} (raw -1/2)")

rep = l4_modulation_ratio([0, 1, 2, 3, 4], count=count, seed=0)
print(f"L4 modulation (normalized)  slope {rep.slope:+.3f} (raw 3j/8)")

print("\ntriangular interaction operator: norm against log2(N)")
for n in (4, 16, 64, 256):
    v = smoothing_grid_operator_norm(n)
    print(f"  N={n:4d}: norm {v:.4f}  norm/log2(N) {v/np.log2(n):.4f}")
