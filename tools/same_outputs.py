"""Check that the working tree prints what a parent revision prints.

    python3 tools/same_outputs.py PARENT_REV

The parent's src/ and demos/ come from git archive, the working tree's from
its tracked and new (not ignored) files, each copied to a temporary
directory.  Each tree then runs one list of argv in one interpreter of its
own: the _GOLDEN argv of tests/test_cli.py, every argv recorded in
perfbench/reference.json, the demos, the scans at the four corners of the
scan caps, and periods and verify-srg of class 0 for every field order
q <= 2^10 and every N | q - 1, each of the last three in all three formats.
The exit code, stdout and stderr of every argv are compared in full (by
sha256); each argv that differs is printed with what differed, and the
script exits 1 if any differ, else 0.  It is not part of the test suite:
one run takes a few minutes on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import runpy
import subprocess
import sys
import tarfile
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREE_DIRS = ("src", "demos")
FORMATS = ("json", "tsv", "pretty")
SWEEP_Q_MAX = 1 << 10
# the largest scan grids inside the caps: p up to 10^4, or partner primes up to 10^4
CAP_CORNER_SCANS = (
    "scan-pairs --p-max 100 --p1-max 10000",
    "scan-pairs --p-max 10000 --p1-max 100",
    "scan-triples --p-max 100 --n-max 10000",
    "scan-triples --p-max 10000 --n-max 100",
)


def _golden_argvs() -> list[str]:
    """The argv of _GOLDEN in tests/test_cli.py, read without importing the tests."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_GOLDEN" for t in node.targets):
            return [argv for argv, _, _ in ast.literal_eval(node.value)]
    raise LookupError("no _GOLDEN list in tests/test_cli.py")


def _sweep_argvs() -> list[str]:
    """periods and verify-srg of class 0 for every q = p^f <= SWEEP_Q_MAX and N | q - 1."""
    primes = [n for n in range(2, SWEEP_Q_MAX + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]
    argvs = []
    for p in primes:
        f = 1
        while p**f <= SWEEP_Q_MAX:
            q = p**f
            for n in (n for n in range(1, q) if (q - 1) % n == 0):
                for fmt in FORMATS:
                    argvs.append(f"periods --p {p} --f {f} --n {n} --format {fmt}")
                    argvs.append(f"verify-srg --p {p} --f {f} --n {n} --classes 0 --format {fmt}")
            f += 1
    return argvs


def argv_list() -> list[str]:
    """Every argv compared, in run order; a demo is named by its path, demos/NAME.py."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    recorded = [argv for block in ("named_examples", "closed_forms") for argv in reference[block]["outputs"]]
    demos = [f"demos/{path.name}" for path in sorted((ROOT / "demos").glob("*.py"))]
    corners = [f"{scan} --format {fmt}" for scan in CAP_CORNER_SCANS for fmt in FORMATS]
    return list(dict.fromkeys(_golden_argvs() + recorded + demos + corners + _sweep_argvs()))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_tree(argvs_path: str, results_path: str) -> int:
    """Run every argv of argvs_path in this interpreter, from the tree in the working directory.

    Writes [exit code, stdout sha256, stderr sha256] per argv to results_path.  An exception
    that escapes is recorded by its type and message, since its traceback names the tree's
    path; the traceback goes to the real stderr.
    """
    sys.path.insert(0, str(Path("src").resolve()))
    from cyclosrg.cli import main

    results = []
    for argv in json.loads(Path(argvs_path).read_text()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if argv.startswith("demos/"):
                    runpy.run_path(argv, run_name="__main__")
                    code = 0
                else:
                    code = main(argv.split())
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                traceback.print_exc(file=sys.__stderr__)
                code = f"{type(exc).__name__}: {exc}"
        results.append([code, _sha(out.getvalue()), _sha(err.getvalue())])
    Path(results_path).write_text(json.dumps(results))
    return 0


def _archive(rev: str, dest: Path) -> None:
    blob = subprocess.run(["git", "archive", rev, *TREE_DIRS], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)


def copy_working_tree(dest: Path, paths=TREE_DIRS) -> None:
    """Copy the tracked and new (not ignored) files under paths of the working tree to dest."""
    listed = subprocess.run(
        ["git", "ls-files", "-co", "--exclude-standard", "-z", *paths], cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is listed but gone
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_bytes(src.read_bytes())


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run-tree"]:
        return run_tree(*argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev", help="the revision to compare the working tree with")
    args = parser.parse_args(argv)
    argvs = argv_list()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        (tmp / "argvs.json").write_text(json.dumps(argvs))
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        _archive(args.parent_rev, trees["parent"])
        copy_working_tree(trees["change"])
        results = {}
        for name, tree in trees.items():
            out = tmp / f"{name}.json"
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--run-tree", str(tmp / "argvs.json"), str(out)],
                cwd=tree, check=True,
            )
            results[name] = json.loads(out.read_text())
    differ = 0
    for argv, old, new in zip(argvs, results["parent"], results["change"]):
        parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
        if parts:
            differ += 1
            print(f"{argv}: {', '.join(parts)} differ (exit {old[0]} -> {new[0]})")
    print(f"{len(argvs)} argv compared against {args.parent_rev}: {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
