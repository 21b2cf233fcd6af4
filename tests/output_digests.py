"""Print one SHA-256 per output file of the shipped scenario configs and of `verify`.

Runs each config of `test_scenarios.shipped_configs`, the ci-newtonian config with
`samples` and with a `zfactor_grid`, and `verify` at both levels, all through
`curvedwork.cli.main` into a temporary directory.  A scenario run's digests cover
its four files and the summary it prints; verification.json is hashed with every
criterion's runtime set to 0.  To compare two trees, run it in each and diff:

    PYTHONPATH=src python tests/output_digests.py > digests.txt

pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from curvedwork.cli import main
from test_scenarios import shipped_configs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(workdir: Path) -> list:
    """(digest, name) for every output file, in a fixed order."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        configs = shipped_configs(monkeypatch)
    newtonian = configs["ci-newtonian"]
    configs["ci-newtonian.samples"] = {**newtonian, "samples": 1000, "seed": 5}
    configs["ci-newtonian.zfactor_grid"] = {**newtonian, "zfactor_grid": [0.8, 1.0, 1.25]}
    lines = []
    for name, config in configs.items():
        path, out = workdir / f"{name}.json", workdir / name
        path.write_text(json.dumps(config))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main([config["scenario"], "--config", str(path), "--out", str(out)])
        if code:
            raise SystemExit(f"{name}: exit code {code}")
        lines.append((_sha(printed.getvalue().replace(str(out), name).encode()),
                       f"{name}/stdout"))
        lines += [(_sha((out / file).read_bytes()), f"{name}/{file}") for file in
                  ("report.json", "forward.csv", "reverse.csv", "curves.csv")]
    for level in ("fast", "full"):
        out = workdir / f"verify-{level}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", "--level", level, "--out", str(out)])
        if code:
            raise SystemExit(f"verify --level {level}: exit code {code}")
        summary = json.loads((out / "verification.json").read_text())
        for criterion in summary["criteria"]:
            criterion["runtime"] = 0.0
        lines.append((_sha(json.dumps(summary, indent=2).encode()),
                      f"verify-{level}/verification.json"))
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for digest, name in digests(Path(tmp)):
            print(digest, name)
