"""A mutation probe for the search core.

It applies one ast mutation at a time to a copy of src/ in a temporary
directory, runs a pytest selection against that copy, and prints each
mutant with the first test that killed it, or "survived".  One test
process runs at a time, under a fixed --hypothesis-seed and without a
hypothesis example database, so a run repeats.  A mutant whose tests
outlive the per-mutant timeout is killed with its process group and
counted as killed.

    python tests/mutation/run.py _score _fill_keys
    python tests/mutation/run.py variation._greedy -- tests/test_variation.py
    python tests/mutation/run.py --list

Targets are the names in TARGETS or any module.qualname under
src/burkill.  Without a selection after "--", each target runs its
module's tests and then the fast gate (GATE in .github/workflows/tests.yml),
so that the likeliest killers run first.  The exit status is 0 whether or
not mutants survive: the score is reported, not gated.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

# target -> (module, qualified name inside it)
TARGETS = {
    "_score": ("integrator", "_score"),
    "_fill": ("integrator", "_fill"),
    "_fill_keys": ("integrator", "_fill_keys"),
    "_grid_keys": ("integrator", "_grid_keys"),
    "_level_exponent": ("integrator", "_level_exponent"),
    "_special_keys": ("integrator", "_special_keys"),
    "_tightened_report": ("integrator", "_tightened_report"),
    "_defect_at": ("integrator", "_defect_at"),
    "variation._greedy": ("variation", "_greedy"),
    "variation._density": ("variation", "_density"),
    "_ScoredPool": ("variation", "_ScoredPool"),
    "key_float": ("core", "key_float"),
    "reporting._limit_json": ("reporting", "_limit_json"),
    "reporting._witness_json": ("reporting", "_witness_json"),
    "density_kernel": ("density", "density_kernel"),
    "_EdgeKeys": ("density", "_EdgeKeys"),
    "around_set._meets": ("around_set", "_meets"),
    "catalog._k_singular": ("catalog", "_k_singular"),
    "catalog.special_keys": ("catalog", "IntervalFunction.special_keys"),
    "walsh._bareiss_det": ("walsh", "_bareiss_det"),
    "walsh._full_rank_mod_p": ("walsh", "_full_rank_mod_p"),
}

MODULE_TESTS = {
    "integrator": ["tests/test_integrator.py",
                   "tests/test_optimizer_properties.py",
                   "tests/test_limit_properties.py"],
    "variation": ["tests/test_variation.py"],
    "core": ["tests/test_core.py"],
    "reporting": [],
    "density": ["tests/test_density.py"],
    "around_set": ["tests/test_around.py"],
    "catalog": ["tests/test_catalog.py", "tests/test_fast_paths.py"],
    "walsh": ["tests/test_walsh.py"],
}

def gate() -> list[str]:
    """The fast gate: the tests that the workflow's GATE names."""
    text = (REPO / ".github" / "workflows" / "tests.yml").read_text()
    return re.search(r"GATE: >-\n((?: {8}.*\n)+)", text).group(1).split()


# the child: pytest with hypothesis's example database off, so that no
# mutant replays an example that an earlier mutant failed on, and without
# shrinking, since a probe needs only the first failure
BOOT = ("import sys, pytest; from hypothesis import Phase, settings; "
        "settings.register_profile('probe', database=None, phases=("
        "Phase.explicit, Phase.reuse, Phase.generate)); "
        "settings.load_profile('probe'); "
        "sys.exit(pytest.main(sys.argv[1:]))")

SWAP_CMP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
MEMOS = {"memo", "cache", "texts"}


def _one(value):
    return isinstance(value, ast.Constant) and value.value == 1 \
        and type(value.value) is int


def _plus_one(node):
    return ast.BinOp(node, ast.Add(), ast.Constant(1))


def _memo_store(target) -> bool:
    return (isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id in MEMOS)


def _reversed_range(node) -> bool:
    """range(start, -1, -1): a suffix pass from the end."""
    it = node.iter
    return (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
            and it.func.id == "range" and len(it.args) == 3
            and all(isinstance(a, ast.UnaryOp) and _one(a.operand)
                    for a in it.args[1:]))


def sites(root: ast.AST) -> list[tuple]:
    """The mutation sites under root, in ast.walk order: (node, kind,
    detail, apply), where apply(node) mutates the node in place or returns
    a replacement for it."""
    out = []
    parents = {id(c): p for p in ast.walk(root)
               for c in ast.iter_child_nodes(p)}
    for node in ast.walk(root):
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in SWAP_CMP:
                    new = SWAP_CMP[type(op)]
                    out.append((node, "cmp", f"{SYMBOL[type(op)]} -> "
                                f"{SYMBOL[new]}", _set_op(j, new)))
        elif isinstance(node, ast.Name) and node.id in ("max", "min") \
                and isinstance(node.ctx, ast.Load):
            other = "min" if node.id == "max" else "max"
            out.append((node, "maxmin", f"{node.id} -> {other}",
                        _rename(other)))
        elif isinstance(node, ast.Name) and node.id == "lc" \
                and isinstance(node.ctx, ast.Load):
            # lc and rc side by side in a call or a tuple trade places
            holder = parents.get(id(node))
            elems = getattr(holder, "args", None) or getattr(holder, "elts",
                                                             None)
            if elems is not None:
                names = [getattr(e, "id", None) for e in elems]
                if "rc" in names:
                    out.append((holder, "lcrc", "swap lc and rc",
                                _swap(names.index("lc"), names.index("rc"))))
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add,
                                                                ast.Sub)) \
                and _one(node.right):
            sign = "+" if isinstance(node.op, ast.Add) else "-"
            out.append((node, "drop1", f"drop {sign} 1", lambda n: n.left))
        if isinstance(node, ast.Attribute) and node.attr == "exp" \
                and isinstance(node.ctx, ast.Load):
            out.append((node, "add1", ".exp + 1", _plus_one))
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift,
                                                                ast.RShift)):
            out.append((node, "add1", "shift by one more",
                        _shift_more))
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "bit_length":
            out.append((node, "add1", "bit_length() + 1", _plus_one))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "_key":
            out.append((node, "add1", "_key(...) + 1", _plus_one))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "range":
            for j in range(min(2, len(node.args))):
                out.append((node, "add1", f"range argument {j} + 1",
                            _arg_plus_one(j)))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) \
                and isinstance(node.left, ast.Name) \
                and isinstance(node.right, ast.Name):
            out.append((node, "add1", "key difference + 1", _plus_one))
        if isinstance(node, ast.Assign) and any(map(_memo_store,
                                                    node.targets)):
            out.append((node, "memo", "drop a memo store", _drop_store))
        if isinstance(node, ast.For) and _reversed_range(node):
            out.append((node, "tighten", "drop the suffix pass",
                        lambda n: ast.Pass()))
        if isinstance(node, ast.keyword) and node.arg == "key" \
                and isinstance(node.value, ast.Lambda) \
                and isinstance(node.value.body, ast.Tuple):
            for j in range(1, len(node.value.body.elts)):
                out.append((node.value.body, "tiebreak",
                            f"reverse sort key element {j}", _negate(j)))
    return out


def _set_op(j, new):
    def apply(node):
        node.ops[j] = new()
    return apply


def _rename(name):
    def apply(node):
        node.id = name
    return apply


def _swap(i, j):
    def apply(node):
        elems = node.args if hasattr(node, "args") else node.elts
        elems[i], elems[j] = elems[j], elems[i]
    return apply


def _negate(j):
    def apply(node):
        node.elts[j] = ast.UnaryOp(ast.USub(), node.elts[j])
    return apply


def _arg_plus_one(j):
    def apply(node):
        node.args[j] = _plus_one(node.args[j])
    return apply


def _shift_more(node):
    node.right = _plus_one(node.right)


def _drop_store(node):
    keep = [t for t in node.targets if not _memo_store(t)]
    if keep:
        node.targets = keep
        return None
    return ast.Expr(node.value)


def find(tree: ast.Module, qualname: str) -> ast.AST:
    node = tree
    for part in qualname.split("."):
        node = next(n for n in ast.iter_child_nodes(node)
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == part)
    return node


class Target:
    def __init__(self, name: str, src: Path):
        module, qualname = TARGETS.get(name) or name.split(".", 1)
        self.name, self.module, self.qualname = name, module, qualname
        self.path = src / "burkill" / f"{module}.py"
        self.text = self.path.read_text()
        self.sites = sites(find(ast.parse(self.text), qualname))

    def mutant(self, i: int) -> str:
        """The module's source with the target's i-th site mutated; the
        rest of the file is unchanged byte for byte."""
        tree = ast.parse(self.text)
        node = find(tree, self.qualname)
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        last = node.end_lineno
        indent = " " * node.col_offset
        mutated = copy.deepcopy(node)
        site, _, _, apply = sites(mutated)[i]
        new = apply(site)
        if new is not None:
            _replace(mutated, site, new)
        body = "\n".join(indent + line if line else line
                         for line in ast.unparse(mutated).splitlines())
        lines = self.text.splitlines(keepends=True)
        return "".join(lines[:first - 1]) + body + "\n" + "".join(lines[last:])

    def describe(self, i: int) -> tuple[str, int, str]:
        node, kind, detail, _ = self.sites[i]
        return kind, getattr(node, "lineno", 0), detail


def _replace(root, old, new):
    for parent in ast.walk(root):
        for field, value in ast.iter_fields(parent):
            if value is old:
                setattr(parent, field, new)
                return
            if isinstance(value, list) and any(v is old for v in value):
                value[[id(v) for v in value].index(id(old))] = new
                return
    raise ValueError("site not found")


FAIL = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)
pytest_usage_error, pytest_no_tests = 4, 5       # pytest's exit codes


def run_tests(tmp: Path, tests: list[str], seed: int, timeout: float):
    """('killed', first failing test) | ('timeout', '') | ('survived', '')."""
    shutil.rmtree(tmp / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    args = [sys.executable, "-c", BOOT, "-x", "-q", "-rfE",
            "-p", "no:cacheprovider", f"--hypothesis-seed={seed}",
            f"--rootdir={REPO}", *[str(REPO / t) if t.startswith("tests")
                                   else t for t in tests]]
    proc = subprocess.Popen(args, cwd=tmp, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", ""
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode == 0:
        return "survived", ""
    if proc.returncode in (pytest_usage_error, pytest_no_tests):
        raise SystemExit(f"pytest could not run {' '.join(tests)}: "
                         + (out.strip().splitlines() or ["no output"])[-1])
    m = FAIL.search(out)
    if m:
        test = m.group(1)
        return "killed", test[max(0, test.find("tests/")):]
    return "killed", f"exit {proc.returncode}: " + (
        out.strip().splitlines() or ["no output"])[-1]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tests = []
    if "--" in argv:
        cut = argv.index("--")
        argv, tests = argv[:cut], argv[cut + 1:]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("targets", nargs="*", help="targets (default: all)")
    ap.add_argument("--list", action="store_true",
                    help="list the mutants without running any test")
    ap.add_argument("--only", type=int, nargs="*",
                    help="run only these mutant indices of each target")
    ap.add_argument("--timeout", type=float, default=300.0,
                    help="seconds per mutant before it counts as killed")
    ap.add_argument("--hypothesis-seed", type=int, default=0)
    ap.add_argument("--json", help="write the results to this file")
    opts = ap.parse_args(argv)
    # a terminated probe still kills its test process and restores the copy
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    src = REPO / "src"
    targets = [Target(t, src) for t in (opts.targets or TARGETS)]
    if opts.list:
        for t in targets:
            for i in range(len(t.sites)):
                kind, line, detail = t.describe(i)
                print(f"{t.name}\t{i}\t{kind}\t{line}\t{detail}")
        return 0
    results = []
    baseline: dict = {}                  # selection -> the unmutated run
    with tempfile.TemporaryDirectory(prefix="burkill-mutants-") as tmp:
        tmp = Path(tmp)
        shutil.copytree(src, tmp / "src", ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info"))
        for t in targets:
            selection = tests or [*MODULE_TESTS.get(t.module, []), *gate()]
            path = tmp / "src" / "burkill" / f"{t.module}.py"
            if tuple(selection) not in baseline:
                baseline[tuple(selection)] = run_tests(
                    tmp, selection, opts.hypothesis_seed, opts.timeout)
            state, test = baseline[tuple(selection)]
            if state != "survived":
                print(f"{t.name}: the unmutated copy fails ({state} "
                      f"{test}); skipped", flush=True)
                continue
            indices = opts.only if opts.only is not None else range(
                len(t.sites))
            try:
                for i in indices:
                    path.write_text(t.mutant(i))
                    start = time.monotonic()
                    state, test = run_tests(tmp, selection,
                                            opts.hypothesis_seed, opts.timeout)
                    kind, line, detail = t.describe(i)
                    shown = test if state == "killed" else state
                    print(f"{t.name}\t{i}\t{kind}\tline {line}\t{detail}\t"
                          f"{shown}\t{time.monotonic() - start:.1f}s",
                          flush=True)
                    results.append({"target": t.name, "index": i,
                                    "kind": kind, "line": line,
                                    "detail": detail, "state": state,
                                    "test": test})
            finally:
                path.write_text(t.text)
    print()
    print(f"{'target':28} {'mutants':>7} {'killed':>6} {'timeout':>7} "
          f"{'survived':>8}")
    for t in targets:
        rs = [r for r in results if r["target"] == t.name]
        count = {s: sum(r["state"] == s for r in rs)
                 for s in ("killed", "timeout", "survived")}
        print(f"{t.name:28} {len(rs):>7} {count['killed']:>6} "
              f"{count['timeout']:>7} {count['survived']:>8}")
    if opts.json:
        Path(opts.json).write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
