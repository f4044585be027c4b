"""Machine-speed calibration: times are reported at a fixed reference speed.

The benchmark machine is a shared 2-vCPU virtual machine whose speed for
the same pure-Python work drifts by 30-50%, both from job to job and in
stretches of tens of seconds; process CPU time drifts with it, so it
cannot be measured away.  Just before and just after every job (and
after every set-up) the benchmark times ``kernel``, a fixed pure-Python
loop over lists, dicts and integers that calls nothing of the library,
and scales the measured time by ``REF_S`` / (mean kernel time).  In a
100 s test alternating three library jobs of about 0.5 s, this cut the
spread (interquartile range over median) of the job times from 0.29-0.35
to 0.07-0.13.  A kernel that chases pointers through a few megabytes
tracked the drift far worse (0.45-0.51): the drift is in the speed of
the processor, not of the memory.  A change to the library moves the
scaled time as it moves the raw time; a slow stretch of the machine moves
the kernel as well and largely cancels.  The raw times are kept in the
report line.

Changing ``kernel`` or ``REF_S`` changes every reported time: do it only
together with a new baseline.
"""

import time

# Median time of one ``sample()`` on the machine the bounds were set on
# (2 vCPUs, Python 3.11.7).  Scaled times are in seconds at that speed.
REF_S = 0.0009

ROUNDS = 60


def kernel():
    perm = list(range(1, 65))
    seen = {}
    acc = 0
    for r in range(ROUNDS):
        perm = [perm[(i * 7 + r) % 64] for i in range(64)]
        for i, x in enumerate(perm):
            seen[x] = seen.get(x, 0) + i
        acc += sum(x * x for x in perm) % 1000003
    return acc


def sample():
    """The faster of two timed kernel runs, in seconds."""
    best = None
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        t = time.perf_counter() - start
        best = t if best is None else min(best, t)
    return best


def scaled(seconds, kernel_s):
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REF_S / kernel_s
