"""cirlab: a desk-scale laboratory for class-interference regularization.

Trains small embedding networks on synthetic Gaussian-mixture data and
perturbs each training embedding toward the running average embedding of a
randomly drawn *wrong* class. The package keeps every numeric step explicit
(plain numpy forward/backward passes, hand-rolled losses) so the effect of
the perturbation on generalization can be measured and reproduced exactly.

Importing the package caps the BLAS thread pools at one thread unless the
environment sets them: the lab's steps are small matmuls that a second
BLAS thread slows down, and `cirlab reproduce --threads N` runs N worker
processes instead. The cap takes effect only if numpy is not loaded yet;
a caller that imported numpy first keeps its own pool.
"""

import os

for _var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
