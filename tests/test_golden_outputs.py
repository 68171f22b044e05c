"""Golden outputs: one small run of each CLI command, compared byte for byte
with the digests in ``golden_outputs.json`` next to this file.

Each case runs in-process in an empty directory.  Its stdout, its stderr when
not empty, and every file it writes are compared by SHA-256.  The digests
also keep a short hash of every row, so a mismatch prints the first rows
that differ.  A change that moves output bytes on purpose rewrites the
digests with

    PYTHONPATH=src python tests/test_golden_outputs.py --update

and lists the rows the failing test printed in CHANGES.md.  The digests
record the numpy and scipy versions they were made with; a mismatch under
other versions says so, because the last digits of a float can move with
the build.
"""

import difflib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from click.testing import CliRunner

from res112.cli import cli

GOLDEN = Path(__file__).with_name("golden_outputs.json")

# every command, and every output format: csv, jsonl, json and text
CASES = {
    "bifdiag-kappa1": ["bifdiag", "--kappa", "1", "--ell", "-0.125,0.3125",
                       "--grid", "41"],
    "bifdiag-kappa0": ["bifdiag", "--kappa", "0", "--ell", "-0.5,0.125",
                       "--grid", "41", "--format", "json"],
    "critvals-delta-1": ["critvals", "--delta", "-1", "--grid", "9"],
    "critvals-delta-0.52": ["critvals", "--delta", "0.52", "--grid", "9"],
    "critvals-detuned": ["critvals", "--delta", "-0.8", "--lambda1", "0.05",
                         "--lambda2", "-0.07", "--grid", "7", "--validate",
                         "--format", "json"],
    "fiber": ["fiber", "--delta", "0", "--mu", "0", "--ell", "0", "--h", "0",
              "--format", "json"],
    "monodromy": ["monodromy", "--delta", "0", "--loop", "gamma2",
                  "--format", "json"],
    "scale": ["scale", "--kappa", "2", "--lam", "2", "--mu", "4", "--ell", "8"],
}
SHOWN_ROWS = 12


def _outputs(name: str, argv: list[str]) -> dict[str, bytes]:
    """stdout, stderr when not empty, and each written file of one case."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        if argv[0] in ("bifdiag", "critvals"):
            argv = argv + ["--out", name]
        res = runner.invoke(cli, argv, catch_exceptions=False)
        assert res.exit_code == 0, res.output
        out = {"stdout": res.stdout_bytes}
        if res.stderr_bytes:
            out["stderr"] = res.stderr_bytes
        for path in sorted(Path().iterdir()):
            out[path.name.removeprefix(name + "_")] = path.read_bytes()
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _row_hashes(data: bytes) -> list[str]:
    return [_sha(row)[:8] for row in data.split(b"\n")]


def _versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _first_differences(key: str, data: bytes, old_rows: str) -> list[str]:
    rows = data.split(b"\n")
    match = difflib.SequenceMatcher(None, old_rows.split(), _row_hashes(data),
                                    autojunk=False)
    out = [f"{key}: bytes differ"]
    shown = 0
    for tag, i1, i2, j1, j2 in match.get_opcodes():
        if tag == "equal":
            continue
        if tag == "delete":
            out.append(f"  golden rows {i1 + 1}-{i2} are gone (before new row {j1 + 1})")
        elif tag == "insert":
            out.append(f"  new rows {j1 + 1}-{j2} (after golden row {i1})")
        else:
            out.append(f"  golden rows {i1 + 1}-{i2} became new rows {j1 + 1}-{j2}")
        for j in range(j1, min(j2, j1 + SHOWN_ROWS - shown)):
            out.append(f"    new row {j + 1}: {rows[j].decode()}")
        shown += j2 - j1
        if shown >= SHOWN_ROWS:
            break
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    golden = json.loads(GOLDEN.read_text())
    case = golden["cases"][name]
    assert case["argv"] == CASES[name], "case changed: rerun with --update"
    got = _outputs(name, CASES[name])
    want = case["outputs"]
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in got:
            problems.append(f"{key}: no longer written")
        elif key not in want:
            problems.append(f"{key}: new output")
        elif _sha(got[key]) != want[key]["sha256"]:
            problems += _first_differences(key, got[key], want[key]["rows"])
    if problems and golden["versions"] != _versions():
        problems.append(f"note: the digests were made with {golden['versions']}, "
                        f"this run uses {_versions()}")
    if problems:
        pytest.fail("\n".join([f"{name} {CASES[name]}"] + problems), pytrace=False)


def _update() -> None:
    cases = {}
    for name, argv in sorted(CASES.items()):
        outputs = _outputs(name, argv)
        cases[name] = {"argv": argv, "outputs": {
            key: {"sha256": _sha(data), "rows": " ".join(_row_hashes(data))}
            for key, data in outputs.items()}}
    GOLDEN.write_text(json.dumps({"versions": _versions(), "cases": cases},
                                 indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden_outputs.py --update")
    _update()
