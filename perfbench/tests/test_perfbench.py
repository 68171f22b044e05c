"""Tests of the benchmark's own parts: seeded inputs, output checker, tracer.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import checker  # noqa: E402
import res112.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _invoke(op, prefix):
    argv = [*op.argv, "--out", str(prefix)] if op.files else list(op.argv)
    result = run.run_op(res112.cli.main, argv)
    assert result.code == 0 and result.error is None, result.error
    return result


def _corrupt_first_row(path, column, delta):
    lines = path.read_text().split("\n")
    fields = lines[1].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_generator_is_deterministic(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build(workload, 7) != workloads.build(workload, 8)


def test_detuned_lambda_differs_at_every_node_and_stays_below_half():
    _, ops = workloads.build("critvals-detuned", 5)
    for op in ops:
        s = op.spec
        axis = [-3.0 + 6.0 * i / (s["grid"] - 1) for i in range(s["grid"])]
        lams = [s["delta"] + s["lambda1"] * m + s["lambda2"] * e for m in axis for e in axis]
        assert len(set(lams)) == len(lams) and max(lams) < 0.5


def test_checker_rejects_corrupted_bifdiag_rows(tmp_path):
    warm, _ = workloads.build("bifdiag", 3)
    prefix = tmp_path / "op"
    _invoke(warm, prefix)
    clean = checker.check_bifdiag(prefix, warm.spec)
    assert clean.checked > 0 and clean.bad == 0
    _corrupt_first_row(Path(f"{prefix}_surface.csv"), 5, 1e-3)    # h
    _corrupt_first_row(Path(f"{prefix}_slices.csv"), 4, 1e-6)     # ell
    assert checker.check_bifdiag(prefix, warm.spec).bad == 2
    Path(f"{prefix}_slices.csv").write_text("provenance,ell\n")
    with pytest.raises(checker.Malformed):
        checker.check_bifdiag(prefix, warm.spec)


def test_checker_rejects_corrupted_critvals_row(tmp_path):
    warm, _ = workloads.build("critvals-detuned", 3)
    prefix = tmp_path / "op"
    _invoke(warm, prefix)
    clean = checker.check_critvals(prefix, warm.spec, warm.files)
    assert clean.checked > 0
    _corrupt_first_row(Path(f"{prefix}_faces.csv"), 2, 1e-2)      # h
    assert checker.check_critvals(prefix, warm.spec, warm.files).bad == clean.bad + 1
    Path(f"{prefix}_faces.csv").unlink()
    with pytest.raises(checker.Malformed):
        checker.check_critvals(prefix, warm.spec, warm.files)


def test_known_defect_is_where_the_section_cubic_has_a_double_root():
    assert checker.section_has_double_root(0.5, 0.5)        # cone diagonal
    assert checker.section_has_double_root(-0.3, -0.3)      # ell = -|mu|
    assert checker.section_has_double_root(0.0, -1.0)       # mu = 0
    assert not checker.section_has_double_root(0.3, 0.5)


def test_checker_rejects_wrong_monodromy_vectors():
    spec = {"loop": "gamma2", "delta": 0.0, "group": 0}
    good = {"loop": "gamma2", "m": (0, 1), "winding": (0.001, 0.999)}
    assert checker.check_monodromy_loop(good, spec).bad == 0
    assert checker.check_monodromy_loop(dict(good, m=(1, 1)), spec).bad == 1
    assert checker.check_monodromy_loop(dict(good, winding=(0.0, 0.95)), spec).bad == 1
    loops = [({"group": 0}, {"m": m}) for m in ((1, -1), (0, 1), (-1, 0))]
    assert checker.check_monodromy_sums(loops).bad == 0
    loops[2] = ({"group": 0}, {"m": (-1, 1)})
    assert checker.check_monodromy_sums(loops).bad == 1
    with pytest.raises(checker.Malformed):
        checker.parse_monodromy("monodromy vector (0, 1)")


def test_tracer_leaves_res112_unpatched_and_counts_repeat(tmp_path):
    warm, _ = workloads.build("critvals-fixed", 3)
    before = tracer.res112_bindings()
    counts = []
    for _ in range(2):
        with tracer.Tracer() as tr:
            patched = {k for k, v in tracer.res112_bindings().items() if v is not before[k]}
            tr.start_op(0)
            _invoke(warm, tmp_path / "op")
            tr.end_op()
        summary = tracer.summarize(tr.spans)
        counts.append({k: v["calls"] for k, v in summary.items()})
    assert ("res112.critical_values", "equilibria") in patched
    assert ("res112", "critical_slice") in patched
    after = tracer.res112_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert counts[0] == counts[1]
    assert counts[0]["critical_values.critical_slice"] == 9
    assert counts[0][tracer.OP] == 1
