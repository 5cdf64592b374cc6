"""The test process runs BLAS the way the command line does."""

from pathlib import Path

import numpy as np
import pytest

_STATUS = Path("/proc/self/status")


@pytest.mark.skipif(not _STATUS.exists(), reason="needs /proc/self/status")
def test_blas_runs_one_thread():
    # a threaded BLAS starts its workers by the first large product
    a = np.ones((2000, 2000))
    assert (a @ a)[0, 0] == 2000.0
    threads = next(line for line in _STATUS.read_text().splitlines()
                   if line.startswith("Threads:"))
    assert int(threads.split()[1]) == 1
