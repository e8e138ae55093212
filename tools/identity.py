"""Output identity of two checkouts of this repository, case by case.

    python tools/identity.py --base REV|DIR --change REV|DIR [--expect CASE ...]

Each side is a git revision of this repository, copied with ``git
archive``, or a directory, copied without its ``.git``; the two copies
are sibling directories of one temporary directory, at paths of equal
length.  Every case of one fixed matrix runs in its own process in each
copy, with the copy's ``src`` on ``PYTHONPATH``:

* ``moments``, ``validate`` (default order and ``--order 20``) and
  ``simulate``, ``compare`` (``--order 3 --reps 4``, seeds 7 and 11) on
  the five shipped models, each writing ``--out``: 40 runs;
* the four verbs, and ``compare --z-max nan``, on a 4-state chain of two
  blocks joined by 1e-13 links, whose stationary law cannot be
  certified: the error path;
* the four demos;
* ``compute_moment_table(model, n_max=20)`` on the benchmark's K = 50,
  200 and 500 models (``perfbench/modelgen.py``, read, not changed); on
  ``random_exponential_model(120)``, ``random_mixed_model(150)`` and
  ``ring_model(200)`` of ``tests/conftest.py``, where the Palm solver of
  some orders sits near its budget; on ten ``random_mixed_model`` draws
  at K = 2-11, whose orders all take the LU; and on 50 gamma states of
  shapes U(40, 300) with mean sojourns U(0.5, 2), whose weights come from
  long Erlang suffix sums.  Each model is drawn from
  ``numpy.random.default_rng(K)``, as the tests draw theirs.  The sha256
  of every array goes to stdout, the arrays themselves to ``--out``.

A case moves when its stdout, stderr, exit code or ``--out`` bytes
differ.  Where the ``--out`` JSON differs, the key paths that differ are
counted, with the largest relative gap among their numbers, and so is
each array or key among them (its key path without list indices), so
that a moved step count does not hide the gap of the moments.  ``--expect``
names the cases a change is meant to move (shell-style patterns).  The
exit code is 0 when exactly the expected cases move, 1 when a case
moves that was not expected or an expected one does not move, and 2
when a side cannot be checked out.
"""

import argparse
import fnmatch
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ("identical", "k2_exponential", "k2_gamma_exp", "k3_exponential", "k3_mixed")
DEMOS = (
    "01_poisson_reduction",
    "02_two_state_closed_forms",
    "03_markov_environment_identities",
    "04_simulation_adjudication",
)
# the table cases: the benchmark's models by K, test-suite draws, and the
# large-shape gamma model
TABLE_MODELS = (
    ("perfbench", 50),
    ("perfbench", 200),
    ("perfbench", 500),
    ("random_exponential_model", 120),
    ("random_mixed_model", 150),
    ("ring_model", 200),
    *(("random_mixed_model", k_count) for k_count in range(2, 12)),
    ("large_shape_gamma_model", 50),
)
NEAR_SINGULAR = "identity-near-singular.yaml"

# the weakly linked chain of the error-path cases, written into each copy
_EPS = 1e-13
NEAR_SINGULAR_MODEL = {
    "schema_version": 1,
    "mu": 1.0,
    "states": [{"lambda": 1.0, "beta": 1.0, "sojourn": {"family": "exponential", "rate": 1.0}} for _ in range(4)],
    "routing": [
        [0.0, 1.0 - _EPS, _EPS, 0.0],
        [1.0 - _EPS, 0.0, 0.0, _EPS],
        [_EPS, 0.0, 0.0, 1.0 - _EPS],
        [0.0, _EPS, 1.0 - _EPS, 0.0],
    ],
}

# one process per model: the table's arrays, hashed on stdout and in full
# in the --out file (JSON keeps every float exactly, NaN included)
TABLE_SCRIPT = """
import dataclasses, hashlib, json, sys
import numpy as np
sys.path[:0] = ["perfbench", "tests"]
from mminfenv import compute_moment_table

build, k_count, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
if build == "perfbench":
    import modelgen
    model = modelgen.build_model(modelgen.exponential_params(k_count))
elif build == "large_shape_gamma_model":
    from mminfenv import EnvironmentModel, Gamma
    from conftest import random_routing
    rng = np.random.default_rng(k_count)
    shapes, means = rng.uniform(40.0, 300.0, k_count), rng.uniform(0.5, 2.0, k_count)
    model = EnvironmentModel(
        arrival_rates=rng.uniform(0.2, 3.0, k_count),
        speeds=rng.uniform(0.3, 1.0, k_count),
        sojourns=tuple(Gamma(shape=float(s), rate=float(s / m)) for s, m in zip(shapes, means)),
        mu=float(rng.uniform(0.8, 1.5)),
        routing=random_routing(k_count, rng),
    )
else:
    import conftest
    model = getattr(conftest, build)(k_count, np.random.default_rng(k_count))
table = compute_moment_table(model, n_max=20)
arrays = {}
for field in dataclasses.fields(table):
    value = getattr(table, field.name)
    items = value.items() if isinstance(value, dict) else [(None, value)]
    for key, item in items:
        arrays[field.name if key is None else f"{field.name}.{key}"] = np.asarray(item)
for name, array in arrays.items():
    digest = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
    print(name, array.dtype, array.shape, digest)
with open(out, "w", encoding="utf-8") as handle:
    json.dump({name: array.tolist() for name, array in arrays.items()}, handle, sort_keys=True)
"""


def cases():
    """(name, argv, out file or None) of every case, argv relative to a copy's root."""
    cli = [sys.executable, "-m", "mminfenv.cli"]
    simulation = ["--order", "3", "--reps", "4"]
    matrix = []
    for model in SHIPPED:
        path = f"models/{model}.yaml"
        runs = [
            ("moments", ["moments", "--model", path]),
            ("moments-20", ["moments", "--model", path, "--order", "20"]),
            ("validate", ["validate", "--model", path]),
            ("validate-20", ["validate", "--model", path, "--order", "20"]),
        ]
        for verb in ("simulate", "compare"):
            runs += [(f"{verb}-s{seed}", [verb, "--model", path, *simulation, "--seed", str(seed)]) for seed in (7, 11)]
        for label, argv in runs:
            out = f"{label}-{model}.json"
            matrix.append((f"{label}/{model}", cli + argv + ["--out", out], out))
    for verb in ("moments", "validate", "simulate", "compare"):
        matrix.append((f"{verb}/near-singular", cli + [verb, "--model", NEAR_SINGULAR], None))
    matrix.append(("compare-z-nan/near-singular", cli + ["compare", "--model", NEAR_SINGULAR, "--z-max", "nan"], None))
    for demo in DEMOS:
        matrix.append((f"demo/{demo}", [sys.executable, f"demos/{demo}.py"], None))
    for build, k_count in TABLE_MODELS:
        label = f"k{k_count}" if build == "perfbench" else f"{build}-k{k_count}"
        out = f"table-{label}.json"
        matrix.append((f"table/{label}", [sys.executable, "-c", TABLE_SCRIPT, build, str(k_count), out], out))
    return matrix


def check_out(source: str, dest: Path) -> None:
    """Copy a directory (without .git and caches) or export a git revision of this repository."""
    if Path(source).is_dir():
        ignored = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
        shutil.copytree(source, dest, ignore=ignored)
        return
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", source], capture_output=True, check=False
    )
    if archive.returncode != 0:
        raise SystemExit(f"identity: {source} is neither a directory nor a revision: {archive.stderr.decode().strip()}")
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_side(root: Path, matrix) -> dict:
    """Every case's (stdout, stderr, exit code, --out bytes or None), run in ``root``."""
    (root / NEAR_SINGULAR).write_text(yaml.safe_dump(NEAR_SINGULAR_MODEL), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
    results = {}
    for name, argv, out in matrix:
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, check=False)
        written = (root / out).read_bytes() if out and (root / out).is_file() else None
        results[name] = (done.stdout, done.stderr, done.returncode, written)
    return results


def json_gaps(base, change, path="", found=None):
    """Key paths where two JSON trees differ, each with its relative gap (None if not numeric)."""
    found = [] if found is None else found
    if isinstance(base, dict) and isinstance(change, dict):
        for key in sorted(set(base) | set(change)):
            if key not in base or key not in change:
                found.append((f"{path}/{key}", None))
            else:
                json_gaps(base[key], change[key], f"{path}/{key}", found)
    elif isinstance(base, list) and isinstance(change, list) and len(base) == len(change):
        for index, (a, b) in enumerate(zip(base, change)):
            json_gaps(a, b, f"{path}[{index}]", found)
    elif _is_number(base) and _is_number(change):
        if not (base == change or (math.isnan(base) and math.isnan(change))):
            scale = max(abs(base), abs(change))
            gap = abs(base - change) / scale if math.isfinite(scale) and scale > 0.0 else math.inf
            found.append((path or "/", gap))
    elif base != change:
        found.append((path or "/", None))
    return found


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def describe(base, change) -> list:
    """The parts of one case that moved, each as a line of text."""
    lines = []
    for part, a, b in zip(("stdout", "stderr"), base[:2], change[:2]):
        if a != b:
            number, before, after = _first_difference(a, b)
            lines.append(f"{part} line {number}: {before!r} -> {after!r}")
    if base[2] != change[2]:
        lines.append(f"exit code: {base[2]} -> {change[2]}")
    if base[3] != change[3]:
        if base[3] is None or change[3] is None:
            lines.append(f"--out: {'missing' if base[3] is None else 'written'} -> {'missing' if change[3] is None else 'written'}")
        else:
            gaps = json_gaps(json.loads(base[3]), json.loads(change[3]))
            arrays = {}
            for path, gap in gaps:
                arrays.setdefault(re.sub(r"\[\d+\]", "", path), []).append(gap)
            lines.append(f"--out: {_gap_summary([gap for _, gap in gaps])}")
            lines += [f"  {name}: {_gap_summary(found)}" for name, found in arrays.items()]
    return lines


def _gap_summary(gaps: list) -> str:
    """How many key paths differ, and the largest relative gap among those that are numbers."""
    numeric = [gap for gap in gaps if gap is not None]
    return f"{len(gaps)} key paths differ" + (f", largest relative gap {max(numeric):.3e}" if numeric else "")


def _first_difference(base: bytes, change: bytes) -> tuple:
    """(1-based line number, base line, changed line) of the first line that differs."""
    a, b = base.decode(errors="replace").splitlines(), change.decode(errors="replace").splitlines()
    number = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return number + 1, a[number] if number < len(a) else "", b[number] if number < len(b) else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision or directory of the reference side")
    parser.add_argument("--change", required=True, help="git revision or directory of the changed side")
    parser.add_argument("--expect", nargs="*", default=[], metavar="CASE", help="cases expected to move (patterns)")
    args = parser.parse_args(argv)

    matrix = cases()
    names = [name for name, _, _ in matrix]
    unknown = [pattern for pattern in args.expect if not fnmatch.filter(names, pattern)]
    if unknown:
        print(f"identity: --expect names no case: {' '.join(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="identity-") as work:
        sides = {}
        for label, source in (("base", args.base), ("chng", args.change)):
            check_out(source, Path(work) / label)
            sides[label] = run_side(Path(work) / label, matrix)

    unexpected = 0
    for name in names:
        expected = any(fnmatch.fnmatch(name, pattern) for pattern in args.expect)
        moved = describe(sides["base"][name], sides["chng"][name])
        status = {
            (False, False): "same",
            (True, True): "moved, as expected",
            (True, False): "MOVED",
            (False, True): "EXPECTED MOVE MISSING",
        }[bool(moved), expected]
        unexpected += bool(moved) != expected
        print(f"{name:45s} {status}")
        for line in moved:
            print(f"    {line}")
    print(f"{len(names)} cases, {unexpected} not as expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
