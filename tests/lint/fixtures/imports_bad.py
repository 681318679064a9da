"""Seeded import-time violations (IMP001): scipy loaded on import."""

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse  # seeded: IMP001
from scipy.linalg import qz  # seeded: IMP001

if TYPE_CHECKING:
    from scipy.sparse.linalg import splu  # never runs: allowed
else:
    import scipy  # seeded: IMP001

try:
    from scipy import optimize  # seeded: IMP001
except ImportError:
    optimize = None


class Solver:
    from scipy.linalg import lu_factor  # seeded: IMP001

    def factor(self, matrix):
        from scipy.linalg import lu_factor  # inside a function: allowed

        return lu_factor(matrix)


def __getattr__(name):
    if name == "dgesv":
        from scipy.linalg.lapack import dgesv  # the PEP 562 hook: allowed

        globals()[name] = dgesv
        return dgesv
    raise AttributeError(name)


def reduce(g, c):
    return qz(g, c), splu, np.zeros(1), scipy.sparse
