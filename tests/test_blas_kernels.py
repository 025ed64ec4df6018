"""The byte pins of `test_output_bytes.py` under a second OpenBLAS kernel
family.

Those digests hold for the kernel family OpenBLAS picks at run time on the
host that recorded them (see that module's docstring), and another family
may associate a product's sums differently.  The Haswell family (AVX2 and
FMA) writes the same bytes, so this reruns the file in a subprocess with
`OPENBLAS_CORETYPE=Haswell`: a change whose bits hold under one family only
fails here.  It is skipped on a CPU without avx2 and fma.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest


def cpu_flags() -> set[str]:
    """The CPU feature flags Linux reports, or none elsewhere."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    for line in lines:
        if line.startswith("flags"):
            return set(line.partition(":")[2].split())
    return set()


@pytest.mark.skipif(not {"avx2", "fma"} <= cpu_flags(),
                    reason="the Haswell kernels need avx2 and fma")
def test_output_bytes_under_haswell_kernels():
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tests / "test_output_bytes.py")],
        cwd=tests.parent, env=dict(os.environ, OPENBLAS_CORETYPE="Haswell"),
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and " passed" in proc.stdout, \
        proc.stdout[-4000:] + proc.stderr[-2000:]
