"""sha256 fingerprints of every CLI artefact at a small size.

    python3 perfbench/golden.py write   # regenerate perfbench/golden.json
    python3 perfbench/golden.py check   # list the artefacts whose bytes changed

The artefacts are the PGM/PBM/meta files of every gallery preset (64x64,
depth 200), roots CSVs (one of them capped), matrix coordinate files and the
report of `verify --suite all`.  ``check`` exits 1 when any artefact differs
and 0 when all are byte-identical.  The fingerprints gate no benchmark
workload; they let a refactor show that its output is unchanged.  Never edit
golden.json by hand: regenerate it with ``write``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
PROBS = "plist:0.7,0.85,0.6;tail=0.75"


def commands(cli) -> list[tuple[list[str], list[str]]]:
    """(argv, artefact names) for every fingerprinted command."""
    out = []
    for preset in cli.PRESETS:
        out.append((["render", "--preset", preset, "--res", "64x64", "--depth", "200",
                     "--threads", "2", "--out", preset],
                    [f"{preset}.pgm", f"{preset}.pbm", f"{preset}.meta"]))
    for preset in cli.VERIFY_DEFAULT_PRESETS:
        out.append((["roots", "--preset", preset, "--depth", "3", "--out", f"roots-{preset}.csv"],
                    [f"roots-{preset}.csv"]))
    out.append((["roots", "--base", "const:3", "--probs", "pconst:0.7", "--depth", "6",
                 "--cap", "500", "--out", "roots-capped.csv"], ["roots-capped.csv"]))
    for n, base, probs in ((100, "const:3", "pconst:0.7"), (120, "periodic:3,5", PROBS),
                           (90, "even", "pconst:0.8"), (80, "fib", "pgeo:c=0.25,gamma=0.5")):
        name = f"matrix-{base.split(':')[0]}-{n}.txt"
        out.append((["matrix", "--n", str(n), "--base", base, "--probs", probs, "--out", name],
                    [name]))
    out.append((["verify", "--suite", "all", "--out", "verify-report.txt"],
                ["verify-report.txt"]))
    return out


def fingerprints() -> dict[str, str]:
    sys.path.insert(0, str(HERE.parent / "src"))
    from stochadd import cli

    (HERE / "out").mkdir(exist_ok=True)
    hashes = {}
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for argv, names in commands(cli):
            # Artefact paths are relative to the temporary directory.
            argv = argv[:-1] + [str(Path(tmp) / argv[-1])]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            for name in names:
                path = Path(tmp) / name
                if code != 0 or not path.is_file():
                    hashes[name] = f"missing (exit code {code})"
                else:
                    hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def main(argv=None) -> int:
    mode = (argv or sys.argv[1:] or [""])[0]
    if mode not in ("write", "check"):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    hashes = fingerprints()
    if mode == "write":
        GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(hashes)} fingerprints to {GOLDEN.name}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    differ = sorted(name for name in golden.keys() | hashes.keys()
                    if golden.get(name) != hashes.get(name))
    for name in differ:
        print(f"DIFFERS {name}: golden {golden.get(name)} now {hashes.get(name)}")
    print(f"{len(hashes) - len(differ)} of {len(golden | hashes)} artefacts identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
