"""Every CLI artefact keeps the bytes fingerprinted in perfbench/golden.json
(see `python3 perfbench/golden.py check`)."""

import importlib.util
from pathlib import Path

import numpy as np

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath

GOLDEN_SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "golden.py"


def host_description() -> str:
    """numpy's version and the SIMD paths it takes on this CPU.  The array
    kernels' last bits, and so the fingerprints of masks near the boundary,
    depend on them (a fused multiply-add under AVX-512, for one)."""
    features = umath.__cpu_features__
    enabled = sorted(name for name, on in features.items() if on)
    dispatch = [name for name in umath.__cpu_dispatch__ if features.get(name)]
    return (f"numpy {np.__version__}\n"
            f"enabled CPU features: {' '.join(enabled)}\n"
            f"enabled dispatch targets: {' '.join(dispatch)}")


def test_cli_artefacts_match_golden_fingerprints(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_golden", GOLDEN_SCRIPT)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    code = golden.main(["check"])
    assert code == 0, capsys.readouterr().out + "\n" + host_description()
