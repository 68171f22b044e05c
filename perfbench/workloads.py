"""Seeded inputs of the four benchmark workloads.

A workload is a list of CLI invocations (ops).  Every value in them is drawn
from ``random.Random(seed)``, so one seed always gives the same argv lists.
Draws are stratified (one value in each equal sub-interval of the range) so
that the work in a pass changes little from seed to seed.

The ranges, and why each workload exists:

- ``bifdiag``: the README figure command, six ell-slices at kappa = 1 drawn
  from [-1.5, 1.0], oracle and surface on.  Stresses ``bifurcations``
  (``catalog_point``, ``a0_root``) and the CLI's slicing loops; never enters
  ``reduced_dynamics``, ``critical_values`` or ``monodromy``.
- ``critvals-fixed``: lambda1 = lambda2 = 0 with one delta < 1/2, drawn from
  [-1.5, 0.45], and one 1/2 < delta < 1, drawn from [0.55, 0.95], which adds
  ell*, L+- and the threads.  Every node of an invocation shares one lambda.
- ``critvals-detuned``: ``--validate`` with delta in [-1.2, -0.4] and
  |lambda1|, |lambda2| in [0.02, 0.12] (random signs), so lambda differs at
  every node and stays below 1/2 there.  Nothing is shared across nodes.
- ``monodromy``: the three generator loops at deltas drawn from
  [-1.4, 0.45], where all three threads exist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("bifdiag", "critvals-fixed", "critvals-detuned", "monodromy")

# Sizes: a pass takes 2-5 s on one core, so a 20 s run times each op four
# to eight times and the medians shrug off a shared machine's slow spells.
BIFDIAG_SLICES = 6
BIFDIAG_GRID = 31
FIXED_GRID_LOW = 25      # delta < 1/2: about 1 ms per node
FIXED_GRID_MID = 7       # 1/2 < delta < 1: about 40 ms per node
DETUNED_OPS = 3
DETUNED_GRID = 21
MONODROMY_DELTAS = 4
LOOPS = ("gamma1", "gamma2", "gamma3")


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    ``argv`` follows the program name and lacks ``--out``, which the runner
    adds for commands that write files (``files`` lists their suffixes).
    ``items`` counts the work units the op completes; ``spec`` holds what
    the output checker needs to know about the inputs.
    """

    argv: tuple[str, ...]
    items: int
    spec: dict = field(default_factory=dict)
    files: tuple[str, ...] = ()


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    width = (hi - lo) / n
    return [round(lo + width * (i + rng.random()), 6) for i in range(n)]


def _bifdiag_op(ells, grid) -> Op:
    argv = ("bifdiag", "--kappa", "1", "--ell", ",".join(map(repr, ells)), "--grid", str(grid))
    return Op(argv=argv, items=len(ells) * grid,
              spec={"kind": "bifdiag", "ells": tuple(ells), "kappa": 1.0},
              files=("slices.csv", "surface.csv"))


def _critvals_op(delta, grid, lambda1=0.0, lambda2=0.0, validate=False) -> Op:
    argv = ["critvals", "--delta", repr(delta), "--grid", str(grid)]
    if lambda1 or lambda2:
        argv += ["--lambda1", repr(lambda1), "--lambda2", repr(lambda2)]
    if validate:
        argv.append("--validate")
    files = ("surface.csv", "faces.csv")
    if not (lambda1 or lambda2):
        files += ("threads.csv", "loci.csv")
    return Op(argv=tuple(argv), items=grid * grid,
              spec={"kind": "critvals", "delta": delta, "lambda1": lambda1,
                    "lambda2": lambda2, "kappa": 1.0, "grid": grid},
              files=files)


def _monodromy_op(delta, loop, group) -> Op:
    argv = ("monodromy", "--delta", repr(delta), "--loop", loop, "--format", "json")
    return Op(argv=argv, items=1,
              spec={"kind": "monodromy", "delta": delta, "loop": loop, "group": group})


def build(workload: str, seed: int) -> tuple[Op, list[Op]]:
    """Return (warm-up op, ops of one pass) of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bifdiag":
        ells = _stratified(rng, -1.5, 1.0, BIFDIAG_SLICES)
        return _bifdiag_op(ells[:1], 3), [_bifdiag_op(ells, BIFDIAG_GRID)]
    if workload == "critvals-fixed":
        low = round(rng.uniform(-1.5, 0.45), 6)
        mid = round(rng.uniform(0.55, 0.95), 6)
        return (_critvals_op(mid, 3),
                [_critvals_op(low, FIXED_GRID_LOW), _critvals_op(mid, FIXED_GRID_MID)])
    if workload == "critvals-detuned":
        ops = []
        for delta in _stratified(rng, -1.2, -0.4, DETUNED_OPS):
            l1, l2 = (round(rng.choice((-1, 1)) * rng.uniform(0.02, 0.12), 6)
                      for _ in range(2))
            ops.append(_critvals_op(delta, DETUNED_GRID, l1, l2, validate=True))
        first = ops[0].spec
        warm = _critvals_op(first["delta"], 3, first["lambda1"], first["lambda2"],
                            validate=True)
        return warm, ops
    if workload == "monodromy":
        deltas = _stratified(rng, -1.4, 0.45, MONODROMY_DELTAS)
        ops = [_monodromy_op(d, loop, g) for g, d in enumerate(deltas) for loop in LOOPS]
        return _monodromy_op(deltas[0], LOOPS[0], -1), ops
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
