"""The six workloads: their operations, inputs and output checks.

A workload runs whole rounds of the same operations, so the share of
failed operations is the same in every run.  ``round_ops(i)`` gives the
operations of round i as (label, callable) pairs; ``check(label, output)``
says whether one output is right, judged against ``reference.py`` or a
property the method must have, never against stored program output.
Outputs that repeat byte for byte (same input, same output) are judged
once.  ``problems`` collects faults of the run itself (an output that
changes between calls on the same input, a broken reference), which make
the run incorrect rather than counting as failed operations.
"""

import contextlib
import io
import json

import numpy as np

import mminfenv.sim
import modelgen
import reference
from mminfenv import compute_moment_table, load_model
from mminfenv.cli import main as cli_main
from mminfenv.errors import ModelError, NumericError

ORDER = 20
SIM_ORDER = 3
SIM_REPS = 32
SIM_WARMUP = 80.0
SIM_CYCLES = 2000.0
# |z| gate for the simulator: with 32 replications each z is close to a
# t variable with 31 degrees of freedom; P(any of 3 orders beyond 6) is
# about 4e-6 per call, so a correct simulator trips it far less than once
# in 1e4 calls.
Z_GATE = 6.0
WEIGHTINGS = ("embedded", "occupancy")
OUT_DIR = modelgen.ROOT / "perfbench" / "out"


def run_cli(argv):
    """One in-process CLI call: (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def shipped_references(paths, n_max):
    """Reference moments per model file, after the reference's own Poisson check."""
    refs = {path: reference.shipped_reference(path, n_max) for path in paths}
    for path in paths:
        if path.endswith("/identical.yaml"):
            reference.self_check_poisson(refs[path])
    return refs


def _table_rows(text):
    """Numeric rows of a CLI table: lists of floats, first column the order."""
    rows = []
    for line in text.splitlines():
        cells = line.split()
        if cells and cells[0].isdigit():
            rows.append([float("nan") if c == "-" else float(c) for c in cells])
    return rows


class Workload:
    kernel = "interp"
    # (module, function) after each call of which the timed run inserts one
    # kernel run, for operations long enough to span a machine-speed change
    kernel_hook = None

    def __init__(self, seed):
        self.seed = seed
        self.problems = []
        self.accurate_orders = None
        self.attempted = 0
        self.failed = 0
        self._judged = {}

    def prepare(self):
        """Build inputs and references; untimed."""

    def warmup(self):
        """Untimed calls that fill lazy imports and caches."""
        for label, op in self.round_ops(-1):
            self.check(label, op())

    def record(self, label, output):
        """Count one timed operation, failed if its output is wrong."""
        self.attempted += 1
        if not self.check(label, output):
            self.failed += 1

    def check(self, label, output):
        if (label, output) not in self._judged:
            self._judged[label, output] = self._judge(label, output)
        return self._judged[label, output]

    def _accurate(self, n):
        self.accurate_orders = n if self.accurate_orders is None else min(self.accurate_orders, n)

    def finish(self):
        """Checks made once per run, after the timed calls."""


class ShippedMoments(Workload):
    """``moments --order 20 --weighting both`` on the five shipped models."""

    name = "shipped-moments"

    def prepare(self):
        self.paths = modelgen.shipped_paths()
        self.refs = shipped_references(self.paths, ORDER)

    def round_ops(self, index):
        return [
            (path, lambda p=path: run_cli(["moments", "--model", p, "--order", str(ORDER), "--weighting", "both"]))
            for path in self.paths
        ]

    def _judge(self, path, output):
        code, text = output
        if code != 0:
            self._accurate(0)
            return False
        ref = self.refs[path]
        rows = {int(row[0]): row[1:] for row in _table_rows(text)}
        per_order = []
        for n in range(1, ORDER + 1):
            values = rows.get(n, [float("nan")] * 4)
            expected = [ref["factorial"]["embedded"][n], ref["factorial"]["occupancy"][n],
                        ref["raw"]["embedded"][n], ref["raw"]["occupancy"][n]]
            per_order.append(all(reference.close(v, e) for v, e in zip(values, expected)))
        self._accurate(reference.accurate_prefix(per_order))
        return all(per_order)


class ShippedValidate(Workload):
    """``validate --order 20`` on the five shipped models.

    The right verdict is PASS exactly when the program's moments are
    within 1e-9 of the reference at every order 1..20.
    """

    name = "shipped-validate"

    def prepare(self):
        self.paths = modelgen.shipped_paths()
        self.truth = {}
        for path, ref in shipped_references(self.paths, ORDER).items():
            table = compute_moment_table(load_model(path), n_max=ORDER)
            per_order = [
                all(
                    reference.close(table.aggregated[w][n], ref["factorial"][w][n])
                    and reference.close(table.raw[w][n], ref["raw"][w][n])
                    for w in WEIGHTINGS
                )
                for n in range(1, ORDER + 1)
            ]
            self._accurate(reference.accurate_prefix(per_order))
            self.truth[path] = all(per_order)

    def round_ops(self, index):
        return [(path, lambda p=path: run_cli(["validate", "--model", p, "--order", str(ORDER)])) for path in self.paths]

    def _judge(self, path, output):
        code, text = output
        overall = text.rstrip().splitlines()[-1] if text.strip() else ""
        if (code, overall) not in ((0, "overall: PASS"), (1, "overall: FAIL")):
            self.problems.append(f"validate on {path}: exit code {code} with last line {overall!r}")
            return False
        return (code == 0) == self.truth[path]


class LargeK(Workload):
    """``compute_moment_table(model, n_max=20)`` with its default checks."""

    def __init__(self, seed, k_count):
        super().__init__(seed)
        self.k_count = k_count
        # up to K = 200 the per-state Python loops and per-order call
        # overhead set the pace; at K = 500 the dense algebra does
        self.kernel = "interp" if k_count <= 200 else "lapack"
        self.name = f"large-k{k_count}"
        self._first = None

    def prepare(self):
        self.params = modelgen.exponential_params(self.k_count)
        self.model = modelgen.build_model(self.params)

    def warmup(self):
        compute_moment_table(self.model, n_max=2)

    def round_ops(self, index):
        return [(self.name, self._table)]

    def _table(self):
        try:
            return compute_moment_table(self.model, n_max=ORDER)
        except (NumericError, ModelError, ValueError) as exc:
            return exc

    def check(self, label, table):
        if isinstance(table, Exception):
            self._accurate(0)
            return False
        if self._first is None:
            self._first = (table, self._judge(table))
            return self._first[1]
        first = self._first[0]
        if not all(
            np.array_equal(a, b) for a, b in zip(first.stationary + first.palm, table.stationary + table.palm)
        ):
            self.problems.append(f"{self.name}: two tables of the same model differ")
            return False
        return self._first[1]

    def _judge(self, table):
        per_order, pi = reference.generator_identity_orders(self.params, table.stationary)
        self._accurate(reference.accurate_prefix(per_order))
        # all-exponential sojourns: Palm and stationary vectors agree bit for bit
        same = all(np.array_equal(p, s) for p, s in zip(table.palm, table.stationary))
        occupancy = pi / self.params["exit_rates"]
        occupancy /= occupancy.sum()
        contracted = all(
            reference.close(table.aggregated["embedded"][n], float(pi @ vec), 1e-12)
            and reference.close(table.aggregated["occupancy"][n], float(occupancy @ vec), 1e-12)
            for n, vec in enumerate(table.stationary)
        )
        return all(per_order) and same and contracted


class Simulate(Workload):
    """``compare`` on k3_mixed at order 3 with the acceptance-suite settings.

    Each call gets its own master seed, derived from the workload seed and
    the round index.
    """

    name = "simulate"
    kernel = "pyrng"
    kernel_hook = (mminfenv.sim, "simulate_queue")  # once per replication

    def prepare(self):
        self.path = modelgen.shipped_paths(["k3_mixed"])[0]
        self.ref = reference.shipped_reference(self.path, SIM_ORDER)
        self.horizon = SIM_WARMUP + SIM_CYCLES * self.ref["cycle"]

    def _argv(self, master_seed, reps, horizon):
        return ["compare", "--model", self.path, "--order", str(SIM_ORDER), "--reps", str(reps),
                "--warmup", str(SIM_WARMUP), "--horizon", repr(horizon), "--seed", str(master_seed),
                "--z-max", str(Z_GATE)]

    def master_seed(self, index):
        return int(np.random.SeedSequence([self.seed, index + 1]).generate_state(1, np.uint64)[0])

    def warmup(self):
        run_cli(self._argv(self.master_seed(-1), 2, SIM_WARMUP + 20 * self.ref["cycle"]))

    def round_ops(self, index):
        seed = self.master_seed(index)
        return [(seed, lambda: run_cli(self._argv(seed, SIM_REPS, self.horizon)))]

    def _judge(self, seed, output):
        code, text = output
        rows = {int(row[0]): row[1:] for row in _table_rows(text)}
        if code != 0 or sorted(rows) != list(range(1, SIM_ORDER + 1)):
            self._accurate(0)
            return False
        per_order = []
        within_gate = True
        for n in range(1, SIM_ORDER + 1):
            f_emb, f_occ, estimate, std_err = rows[n][:4]
            per_order.append(
                reference.close(f_emb, self.ref["factorial"]["embedded"][n])
                and reference.close(f_occ, self.ref["factorial"]["occupancy"][n])
            )
            gap = abs(self.ref["factorial"]["occupancy"][n] - estimate)
            within_gate = within_gate and std_err > 0.0 and gap <= Z_GATE * std_err
        self._accurate(reference.accurate_prefix(per_order))
        return all(per_order) and within_gate

    def finish(self):
        """One seed run twice must give byte-identical ``--out`` JSON."""
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        seed = self.master_seed(0)
        horizon = SIM_WARMUP + 200.0 * self.ref["cycle"]
        blobs = []
        for name in ("repeat-a", "repeat-b"):
            out = OUT_DIR / f"simulate-{self.seed}-{name}.json"
            run_cli(self._argv(seed, 4, horizon) + ["--out", str(out)])
            blobs.append(out.read_bytes())
            out.unlink()
        if blobs[0] != blobs[1] or not json.loads(blobs[0]).get("simulation"):
            self.problems.append("simulate: the same seed gave different --out reports")


def make(name, seed):
    if name == "shipped-moments":
        return ShippedMoments(seed)
    if name == "shipped-validate":
        return ShippedValidate(seed)
    if name == "simulate":
        return Simulate(seed)
    if name in ("large-k50", "large-k200", "large-k500"):
        return LargeK(seed, int(name[len("large-k"):]))
    raise KeyError(name)


NAMES = ("shipped-moments", "shipped-validate", "large-k50", "large-k200", "large-k500", "simulate")
