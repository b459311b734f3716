"""Operator mutation sweep over the package's modules.

Each mutant flips one operator in one module of ``src/aerosurvey``:

- a comparison: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, each
  into the other;
- an arithmetic operator, plain or augmented: ``+`` and ``-``, ``*`` and
  ``/``, each into the other.

The sweep copies the checkout (without ``.git``) into a temporary directory
once, checks that the chosen tests pass there unmutated, then
writes one mutant at a time into the copy and runs the tests against it in
one pytest process, with ``-x``. A mutant is killed when the tests fail or
time out, and survives when they pass. ``src`` itself is never written.

Sites are found with the standard library's ``ast``. A mutant swaps one
operator node in a fresh parse of the module and writes ``ast.unparse`` of
it to the copy; each module to be mutated is written through
``ast.unparse`` unmutated before the check, so the check and the mutants
run the same text. A site is named by the line and column, in the original
module, where the operand right of its operator starts; no two operators
share that operand. ``ast`` counts the column in UTF-8 bytes.

The file's name keeps pytest from collecting it. Run it from the checkout::

    python tests/mutation_sweep.py --modules spatial planner --sample 8 --seed 1
    python tests/mutation_sweep.py --modules harness --site harness.py:394 \\
        --tests tests/test_harness.py::TestRunSurvey
    python tests/mutation_sweep.py --modules cli --list

By default the tests are every ``tests/test_*.py`` file, the mutated module's
own file first, without the slow acceptance criterion 6 or the golden
corpus (which only compares bytes the other tests also cover).
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "aerosurvey"
MODULES = ("channel", "cli", "estimator", "harness", "planner", "spatial", "uncertainty")
DESELECT = (
    "tests/test_acceptance.py::test_06_uncertainty_planner_beats_baselines_in_monte_carlo",
    "tests/test_golden.py",
)
TIMEOUT = 600.0  # seconds before a test run counts as killed: a mutant may loop forever

_SYMBOLS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
}
_PAIRS = ((ast.Lt, ast.LtE), (ast.Gt, ast.GtE), (ast.Eq, ast.NotEq), (ast.Add, ast.Sub), (ast.Mult, ast.Div))
_SWAPS = {a: b for pair in _PAIRS for a, b in (pair, pair[::-1])}


def _operators(node: ast.AST) -> list[tuple[ast.AST, ast.AST]]:
    """Each operator of ``node`` with the operand to its right."""
    if isinstance(node, ast.BinOp):
        return [(node.op, node.right)]
    if isinstance(node, ast.AugAssign):
        return [(node.op, node.value)]
    return list(zip(node.ops, node.comparators)) if isinstance(node, ast.Compare) else []


@dataclass(frozen=True)
class Mutant:
    module: str
    node: int  # index of the expression in ``ast.walk`` order
    op: int  # index of the operator among the expression's operators
    line: int  # of the operand right of the operator
    col: int  # 0-based, in UTF-8 bytes
    old: str
    new: str

    def __str__(self) -> str:
        return f"{self.module}.py:{self.line}:{self.col + 1} {self.old!r} -> {self.new!r}"

    def apply(self, source: str) -> str:
        tree = ast.parse(source)
        node = list(ast.walk(tree))[self.node]
        if isinstance(node, ast.Compare):
            node.ops[self.op] = _SWAPS[type(node.ops[self.op])]()
        else:
            node.op = _SWAPS[type(node.op)]()
        return ast.unparse(tree)


def mutants(module: str) -> list[Mutant]:
    """Every operator mutant of ``module``, in source order."""
    source = (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    found = []
    for k, node in enumerate(ast.walk(ast.parse(source))):
        suffix = "=" if isinstance(node, ast.AugAssign) else ""
        for i, (op, right) in enumerate(_operators(node)):
            if type(op) in _SWAPS:
                old, new = _SYMBOLS[type(op)], _SYMBOLS[_SWAPS[type(op)]]
                found.append(Mutant(module, k, i, right.lineno, right.col_offset, old + suffix, new + suffix))
    return sorted(found, key=lambda m: (m.line, m.col))


def _test_files(module: str) -> list[str]:
    files = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py"))
    own = f"tests/test_{module}.py"
    return ([own] if own in files else []) + [f for f in files if f != own]


def _run_tests(copy: Path, tests: list[str]) -> tuple[str, float, str]:
    """Run pytest in ``copy``: ("passed" | "failed" | "timeout" | "error: ...", seconds, last output line)."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    for item in DESELECT:
        cmd += ["--deselect", item]
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start, ""
    seconds = time.perf_counter() - start
    tail = ((proc.stdout + proc.stderr).strip().splitlines() or [""])[-1]
    if proc.returncode in (0, 1):
        return ("passed", "failed")[proc.returncode], seconds, tail
    return f"error: pytest exited {proc.returncode}", seconds, tail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", default=list(MODULES), choices=MODULES)
    parser.add_argument("--sample", type=int, default=0, help="mutants drawn per module (0: all)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the sample")
    parser.add_argument("--site", action="append", default=[], help="only mutants at MODULE.py:LINE")
    parser.add_argument("--tests", nargs="+", help="pytest arguments to run instead of the default files")
    parser.add_argument("--list", action="store_true", help="print the chosen mutants and run nothing")
    ns = parser.parse_args(argv)

    chosen = []
    for module in ns.modules:
        found = mutants(module)
        if ns.site:
            found = [m for m in found if f"{m.module}.py:{m.line}" in ns.site]
        if ns.sample and len(found) > ns.sample:
            drawn = random.Random(f"{ns.seed}:{module}").sample(range(len(found)), ns.sample)
            found = [found[i] for i in sorted(drawn)]
        chosen += found
    if ns.list or not chosen:
        for m in chosen:
            print(m)
        print(f"{len(chosen)} mutants")
        return 0

    counts = {"killed": 0, "survived": 0}
    with tempfile.TemporaryDirectory(prefix="mutation_sweep_") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
        shutil.copytree(ROOT, copy, ignore=ignore, dirs_exist_ok=True)
        sources = {}
        for module in {m.module for m in chosen}:
            sources[module] = (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
            (copy / PACKAGE / f"{module}.py").write_text(ast.unparse(ast.parse(sources[module])), encoding="utf-8")

        status, seconds, tail = _run_tests(copy, ns.tests or _test_files(chosen[0].module))
        print(f"unmutated: {status} in {seconds:.1f} s: {tail}", flush=True)
        if status != "passed":
            return 2
        for m in chosen:
            path = copy / PACKAGE / f"{m.module}.py"
            unmutated = path.read_text(encoding="utf-8")
            path.write_text(m.apply(sources[m.module]), encoding="utf-8")
            try:
                status, seconds, _ = _run_tests(copy, ns.tests or _test_files(m.module))
            finally:
                path.write_text(unmutated, encoding="utf-8")
            verdict = "survived" if status == "passed" else "killed"
            counts[verdict] += 1
            note = "" if status in ("passed", "failed") else f" ({status})"
            print(f"{verdict:8} {m}  {seconds:.1f} s{note}", flush=True)
    print(f"{len(chosen)} mutants: {counts['killed']} killed, {counts['survived']} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
