"""vocalm: a desk-scale textless language-modeling pipeline for marmoset
vocalizations: segmentation, features, discrete units, unit LMs, zero-shot
benchmarks, and evaluation metrics, with synthetic oracles throughout."""

import os

# Read by OpenBLAS when numpy loads it, so it is set before anything imports
# numpy: an idle BLAS worker spins for 2**n CPU cycles before it sleeps (the
# default n is 28, about 0.1 s). Between the pipeline's many small products
# that spin nearly doubled a run's CPU time and saved no wall time. Only the
# idle policy changes; the thread count and split, and so the bits of every
# product, stay the same. A value set by the caller wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"
