"""What the golden files' bytes depend on besides the code: the numpy build, the SIMD targets
numpy dispatches to on this CPU, and the kernel OpenBLAS picked for it.

``python tests/golden_key.py`` prints this machine's key as JSON.
"""

import ctypes
import json
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath


def openblas_core() -> str:
    """The core name of the OpenBLAS that numpy's wheel bundles, or "unknown" without one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def golden_key() -> dict:
    features = _multiarray_umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "numpy_dispatch": [t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)],
        "openblas_core": openblas_core(),
    }


if __name__ == "__main__":
    print(json.dumps(golden_key(), sort_keys=True))
