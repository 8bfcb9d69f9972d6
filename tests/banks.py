"""Fixed banks whose planes are steep enough to overflow or stall a solve.

`init_network` starts ma/lse from Xavier draws, whose slopes shrink as
n + m + I grows. The tests that need a bank to overflow at a huge condition,
or a 61x20 lse bank ill-conditioned enough that its solves run to the cap,
build that bank here: every slope and offset uniform in +-sqrt(3) (unit
variance), slopes first, from Rng(seed).
"""

import numpy as np

from paraconvex.networks import Bank, MlpParams
from paraconvex.numerics import Rng


def unit_variance_bank(n, m, seed, I=30, T=None):
    """An ma bank (T None) or an lse bank (T > 0) of I planes over [x; u]."""
    rng = Rng(seed)
    A = rng.uniform_in(-np.sqrt(3.0), np.sqrt(3.0), I * (n + m)).reshape(I, n + m)
    b = rng.uniform_in(-np.sqrt(3.0), np.sqrt(3.0), I)
    return Bank(n, m, mlp=MlpParams([A], [b]), T=T, seed=seed)
