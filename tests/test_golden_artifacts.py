"""Pinned artifacts: sha256 digests of short slices of the shipped missions.

Each slice runs one ``uavsearch`` command on a shipped scenario, shortened
by ``--set`` overrides, and every artifact except timing.txt must match
the sha256 recorded in golden_artifacts.json. The file also keeps an
8-hex-digit digest of every line of every artifact, so that a mismatch
names the first file and line that differ and a rounding change can be
told from a behaviour change.

Artifacts render floats with repr, so their bytes depend on the Python,
numpy and scipy versions (recorded in the file) and on the platform's
libm. A change that means to alter artifacts regenerates the file with

    PYTHONPATH=src python tests/test_golden_artifacts.py

and says which files changed and why.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from uavsearch.cli import main as cli_main
from uavsearch.exports import TIMING_FILE

GOLDEN = Path(__file__).resolve().parent / "golden_artifacts.json"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
LINE_DIGEST = 8

# mission1 keeps its three chained flights (a camera switch among them).
SLICES = {
    "mission1-simulate": ["simulate", "mission1.json",
                          "--set", "flights.0.duration_s=60",
                          "--set", "flights.1.duration_s=60",
                          "--set", "flights.2.duration_s=60"],
    "mission2-simulate": ["simulate", "mission2.json",
                          "--set", "flights.0.duration_s=120"],
    "mission3-validate": ["validate", "mission3.json",
                          "--set", "flights.0.duration_s=150", "--targets", "2000"],
}


def _lines(data: bytes) -> list[bytes]:
    return data.split(b"\n")


def _line_digests(data: bytes) -> str:
    return "".join(hashlib.sha256(line).hexdigest()[:LINE_DIGEST] for line in _lines(data))


def run_slice(name: str, out: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and artifact bytes (timing.txt left out) of one slice."""
    command, scenario, *rest = SLICES[name]
    code = cli_main([command, str(SCENARIOS / scenario), *rest, "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())
                  if p.name != TIMING_FILE}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def first_difference(name: str, want: dict, code: int, files: dict[str, bytes]) -> str | None:
    """A one-line account of where a slice's artifacts first differ from
    their golden digests, or None when they all match."""
    if code != want["exit"]:
        return f"{name}: exit code {code}, golden {want['exit']}"
    if sorted(files) != sorted(want["files"]):
        return f"{name}: artifact set {sorted(files)}, golden {sorted(want['files'])}"
    for filename in sorted(files):
        data, golden = files[filename], want["files"][filename]
        if hashlib.sha256(data).hexdigest() == golden["sha256"]:
            continue
        got, pinned = _line_digests(data), golden["lines"]
        step = LINE_DIGEST
        for index, line in enumerate(_lines(data)):
            if got[index * step:(index + 1) * step] != pinned[index * step:(index + 1) * step]:
                return f"{name}: {filename} line {index + 1} differs: {line[:200]!r}"
        return (f"{name}: {filename} has {len(_lines(data))} lines, "
                f"golden {len(pinned) // step}")
    return None


def test_golden_artifacts(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    problems = []
    for name in SLICES:
        code, files = run_slice(name, tmp_path / name)
        problem = first_difference(name, golden["slices"][name], code, files)
        if problem is not None:
            problems.append(problem)
    assert not problems, (
        "artifacts differ from tests/golden_artifacts.json (made with "
        f"{golden['versions']}, running {versions()}):\n" + "\n".join(problems))


def _write_golden(scratch: Path) -> None:
    slices = {}
    for name in SLICES:
        code, files = run_slice(name, scratch / name)
        slices[name] = {
            "command": SLICES[name],
            "exit": code,
            "files": {filename: {"sha256": hashlib.sha256(data).hexdigest(),
                                 "lines": _line_digests(data)}
                      for filename, data in files.items()},
        }
    GOLDEN.write_text(json.dumps({"versions": versions(), "slices": slices},
                                 indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        _write_golden(Path(scratch))
    print(f"wrote {GOLDEN}", file=sys.stderr)
