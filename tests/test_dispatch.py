"""The pinned bits on every numpy dispatch target of the host.

numpy picks its SIMD loops when it is imported, per CPU, and its vector
complex multiply fuses products (FMA) on some targets but not on its
baseline. Each run below starts an interpreter with the host's targets
disabled from the top down (``NPY_DISABLE_CPU_FEATURES``), to the baseline,
and reruns there the moments digests, the Wigner kernel's bit check (every
preset shape, mixed photon numbers and the bare TMSV, at random points and at
signed zeros, a far point, a ``PhaseSpacePoint``, int and float32
coordinates), the figures-of-merit and fringe-top digests (which read the
parity quadrature's ``einsum`` contractions), the one-sided quadrature's
check against the two-sided sums and the dense engine's array digest.
"""

import os
import subprocess
import sys
from pathlib import Path

from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

TESTS = Path(__file__).resolve().parent
RERUN = """
import sys
from numpy._core._multiarray_umath import __cpu_features__
assert not any(__cpu_features__[name] for name in sys.argv[1:]), sys.argv
import test_analytics as t
t.TestMoments().test_moments_digest()
t.TestMoments().test_high_order_moments_digest()
t.TestWigner().test_kernel_matches_tensordot_contraction()
t.TestReports().test_figures_of_merit_digest()
t.TestParitySignal().test_fringe_top_series_digest()
t.TestParitySignal().test_one_sided_numerator_matches_two_sided_sums()
t.TestHeraldingArray().test_batch_of_one_holds_the_real_part_of_the_single_exponent()
"""


def test_pinned_bits_on_every_dispatch_target():
    have = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    runs = []
    for top in range(len(have)):  # the host's targets are in ascending order
        off = have[top:]
        env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=" ".join(off))
        runs.append((off, subprocess.Popen([sys.executable, "-c", RERUN, *off], env=env,
                                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                           text=True)))
    results = []
    for off, run in runs:  # every child is read, and its pipes closed, first
        try:
            _, err = run.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            run.kill()
            _, err = run.communicate()
        results.append((off, run.returncode, err))
    for off, code, err in results:
        assert code == 0, (off, err)
