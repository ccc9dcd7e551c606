"""Every CLI artefact keeps the bytes fingerprinted in perfbench/golden.json
(see `python3 perfbench/golden.py check`)."""

import importlib.util
from pathlib import Path

GOLDEN_SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "golden.py"


def test_cli_artefacts_match_golden_fingerprints(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_golden", GOLDEN_SCRIPT)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    code = golden.main(["check"])
    assert code == 0, capsys.readouterr().out
