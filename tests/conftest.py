import os

# Determinism contract: pin BLAS threading before numpy loads anywhere.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

# The CLI tests start `python -m trustquant.cli`; let that import from src/ too.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

import numpy as np
import pytest

from trustquant.quantizer import AlphaTable


@pytest.fixture(scope="session")
def alpha_table():
    """One shared solver cache; alpha* is deterministic, so sharing is safe."""
    return AlphaTable()


@pytest.fixture()
def rng_np():
    return np.random.default_rng(1234)
