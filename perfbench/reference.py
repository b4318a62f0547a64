"""A fixed reference task that tracks how fast the machine is right now.

On a shared host the same request can run 20% slower for minutes at a
time.  The benchmark runs :func:`reference_s` between rounds and reports
its timings at the machine speed where the reference takes
:data:`NOMINAL_S`: a round's times are divided, and its rates multiplied,
by the reference time around it over ``NOMINAL_S``.  The task is HiGHS
on a sparse linear program that does not fit in the processor's caches,
the kind of work most of the program's time goes to, and it uses nothing
from the program, so a change to the program cannot move it.

On a 2-core x86_64 host, over four and a half minutes of repeated
requests, the spread (quartile distance over median) of the median
latency in 35-second windows was 0.24 for an annealing portfolio, 0.29
for ``auto`` routed to annealing and 0.31 for a replicated tpcc QP;
divided by the median reference time it was 0.08, 0.13 and 0.08.  A
pure-Python loop tracked the drift worse (0.20, 0.21 and 0.15), and
adding it to the linear program made the scaling worse, not better.
"""

import time

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

#: The reference's median time on the host the benchmark was defined on
#: (2-core x86_64, Python 3.12).
NOMINAL_S = 0.19

_rng = np.random.default_rng(2)
_MATRIX = scipy.sparse.random(1500, 3000, density=0.004, random_state=3,
                              format="csr")
_COST = -_rng.random(3000)
_BOUND = np.full(1500, 5.0)


def reference_s() -> float:
    """Seconds the reference task takes once."""
    started = time.perf_counter()
    linprog(_COST, A_ub=_MATRIX, b_ub=_BOUND, bounds=(0, 1), method="highs")
    return time.perf_counter() - started
