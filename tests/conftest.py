"""Test-session setup shared by every test module.

BLAS runs on one thread unless the caller says otherwise: the coercivity
tests' dense oracle eigensolves, and the check's own reorthogonalization, slow
down two- to threefold when the default thread pool competes for shared cores.
This runs before any test module imports numpy, which is when the thread count
is read.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
