"""Record the reference values that the output checks compare against.

Runs each seed-independent scenario operation once, at every size, and writes
delta_F, mean_work, jarzynski_lhs and entropy_production from its report to
reference.json.  Run it from the root of a checkout only when a change to the
program is meant to move these values:

    PYTHONPATH=src python3 benchmarks/record_reference.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from curvedwork import cli

import workloads


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for size in workloads.SIZES:
            reference[size] = {}
            for name, config in workloads.fixed_configs(size).items():
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(config))
                out = Path(tmp) / f"{name}-{size}.out"
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main([config["scenario"], "--config", str(path), "--out", str(out)])
                if rc != 0:
                    raise SystemExit(f"{name} ({size}) exited with {rc}")
                report = json.loads((out / "report.json").read_text())["report"]
                reference[size][name] = {k: report[k] for k in workloads.REFERENCE_KEYS}
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
