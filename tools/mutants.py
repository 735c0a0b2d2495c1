"""Check that the tests kill each listed mutant of the program.

    python3 tools/mutants.py

A mutant is one edit: in a file, one exact old text, which must occur there
exactly once, is replaced by a new text.  Each mutant names the test ids that
must then fail.  The working tree's tracked and new (not ignored) src/ and
tests/ files and pyproject.toml are copied to a temporary directory, and every
listed test is first run there unmutated, where it must pass.  Then each
mutant in turn is applied, its tests are run with -x -q, and the file is
restored.  A mutant is killed when pytest reports a failing test (exit code
1) and survives when its tests pass; any other outcome is an error.  One line
per mutant is printed, and the script exits 1 if any mutant survives or errs,
else 0.  It is not part of the test suite: a full run takes about 25 s on a
2-vCPU VM.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from same_outputs import copy_working_tree

COPIED = ("src", "tests", "pyproject.toml")
# a mutant that loops is an error, not a kill
RUN_TIMEOUT_S = 600
# no bytecode cache, which keys on the source's mtime in whole seconds and its size: a same-size edit
# and its undo within one second would otherwise run stale code
ENV = os.environ | {"PYTHONDONTWRITEBYTECODE": "1"}

_FAMILY = "src/cyclosrg/family_search.py"
_REFERENCE = ("tests/test_family_search.py::test_scans_match_reference_loop",)
_GUARDS = "tests/test_cli.py::test_unreached_guards_raise_and_exit_3"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the family criteria, each against the integer reference of the scans
    Mutant("pair MOD4 as p1 = 1 mod 4", _FAMILY, "MOD4_PATTERN: p1 % 4 != 3", "MOD4_PATTERN: p1 % 4 == 1", _REFERENCE),
    Mutant("gcd up to 4", _FAMILY, "np.gcd(p1 - 1, p2 - 1) == 2", "np.gcd(p1 - 1, p2 - 1) <= 4", _REFERENCE),
    Mutant("pair lift dropped", _FAMILY, "~half | lifted", "~half", _REFERENCE),
    Mutant("triple lift dropped", _FAMILY, "full1 & ~lifted1 & full2", "full1 & full2", _REFERENCE),
    Mutant("DIOPHANTINE inverted", _FAMILY, "width - 1)] != target", "width - 1)] == target", _REFERENCE),
    Mutant("P1_TOO_SMALL admits 3", _FAMILY, "P1_TOO_SMALL: p1 <= 3", "P1_TOO_SMALL: p1 < 3", _REFERENCE),
    Mutant(
        "int64 powers up to ell^4 < 2^64", _FAMILY, "** 4 < 2**63", "** 4 < 2**64",
        ("tests/test_family_search.py::test_order_grids_match_mult_order",),
    ),
    # each guard that no input reaches, replaced by pass
    Mutant(
        "no irreducible guard", "src/cyclosrg/finite_field.py",
        'raise AssertionError("no irreducible polynomial found")', "pass", (f"{_GUARDS}[irreducible]",),
    ),
    Mutant(
        "no generator guard", "src/cyclosrg/finite_field.py", 'raise AssertionError("no generator found")', "pass",
        (f"{_GUARDS}[generator]",),
    ),
    Mutant(
        "no index-2 component guard", "src/cyclosrg/gauss_theory.py",
        'raise AssertionError("index 2 component orders do not fit any known case")', "pass",
        (f"{_GUARDS}[index2_components]",),
    ),
    Mutant(
        "no genus parity guard", "src/cyclosrg/gauss_theory.py",
        'raise AssertionError(f"f - h = {f} - {h} is odd, against genus theory")', "pass",
        (f"{_GUARDS}[genus_parity]",),
    ),
    Mutant(
        "no oracle certificate guard", "src/cyclosrg/srg_engine.py",
        'raise AssertionError(f"constant counts lambda = {lam}, mu = {mu} fit no strongly regular spectrum")', "pass",
        (f"{_GUARDS}[oracle_certificate]",),
    ),
)


def _pytest(tree: Path, tests) -> int | str:
    """The exit code of pytest -x -q on tests in tree, or "timeout"."""
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=ENV, capture_output=True, timeout=RUN_TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        return "timeout"


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants_") as tmp:
        tree = Path(tmp)
        copy_working_tree(tree, COPIED)
        baseline = _pytest(tree, sorted({test for mutant in MUTANTS for test in mutant.tests}))
        if baseline != 0:
            print(f"the listed tests do not pass unmutated (pytest exit {baseline})")
            return 1
        for mutant in MUTANTS:
            path = tree / mutant.path
            text = path.read_text()
            if text.count(mutant.old) != 1:
                outcome = "error: old text does not occur exactly once"
            else:
                path.write_text(text.replace(mutant.old, mutant.new))
                code = _pytest(tree, mutant.tests)
                path.write_text(text)
                outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"error: pytest exit {code}")
            bad += outcome != "killed"
            print(f"{outcome:<10} {mutant.name} ({mutant.path})")
    print(f"{len(MUTANTS)} mutants: {len(MUTANTS) - bad} killed, {bad} surviving or in error")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
