"""Make the checkout's gframes and the benchmark modules importable in tests."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from run import BLAS_THREADS  # noqa: E402

os.environ.update(BLAS_THREADS)
