import ast
import dataclasses
import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mminfenv import (
    ChainStatics,
    Deterministic,
    EnvironmentModel,
    Exponential,
    ModelError,
    NumericError,
    SojournDistribution,
    chain_statics,
    load_model,
)
from mminfenv import environment
from mminfenv.environment import _stationary_law

from conftest import MODELS_DIR, random_exponential_model, random_mixed_model, random_routing

SHIPPED = sorted(MODELS_DIR.glob("*.yaml"))
PERFBENCH_MODELGEN = MODELS_DIR.parent / "perfbench" / "modelgen.py"


def two_state_model(**overrides):
    fields = dict(
        arrival_rates=[1.0, 2.0],
        speeds=[1.0, 0.5],
        sojourns=(Exponential(1.0), Exponential(2.0)),
        mu=1.0,
        routing=[[0.0, 1.0], [1.0, 0.0]],
    )
    fields.update(overrides)
    return EnvironmentModel(**fields)


def model_with_routing(routing):
    k_count = len(routing)
    return EnvironmentModel(
        arrival_rates=np.ones(k_count),
        speeds=np.ones(k_count),
        sojourns=tuple(Exponential(1.0) for _ in range(k_count)),
        mu=1.0,
        routing=routing,
    )


class TestValidate:
    def test_valid_model_has_empty_report(self):
        model = two_state_model()
        assert model.num_states == 2
        assert environment._violations(model) == []

    def test_nonzero_diagonal_flagged(self):
        with pytest.raises(ModelError, match="diagonal"):
            two_state_model(routing=[[0.5, 0.5], [1.0, 0.0]])

    def test_all_zero_speeds_flagged(self):
        with pytest.raises(ModelError, match="positive speed"):
            two_state_model(speeds=[0.0, 0.0])

    def test_all_zero_arrivals_flagged(self):
        with pytest.raises(ModelError, match="arrival"):
            two_state_model(arrival_rates=[0.0, 0.0])

    def test_arrivals_with_zero_speed_flagged(self):
        with pytest.raises(ModelError, match="zero speed"):
            two_state_model(speeds=[0.0, 1.0])
        # a positive speed whose service rate underflows to 0 diverges too
        with pytest.raises(ModelError, match="state 0 has positive arrivals but zero speed"):
            two_state_model(speeds=[1e-200, 1.0], mu=1e-200)

    @pytest.mark.parametrize("build", [
        lambda: two_state_model(speeds=[1e-310, 0.5]),
        lambda: dataclasses.replace(two_state_model(), speeds=[1e-310, 0.5]),
    ], ids=["constructor", "replace"])
    def test_overflowing_offered_load_flagged(self, build):
        # a subnormal service rate: 1.0 / 1e-310 overflows.  It is reported
        # like any violation, with no RuntimeWarning (an error under pytest)
        with pytest.raises(ModelError, match=r"^invalid model: state 0 has an offered load \(1\.0 / 1e-310\) "
                                             r"beyond double precision$"):
            build()

    def test_bad_row_sum_flagged(self):
        with pytest.raises(ModelError, match="sums to"):
            two_state_model(routing=[[0.0, 0.9], [1.0, 0.0]])

    def test_reducible_routing_flagged(self):
        with pytest.raises(ModelError, match="irreducible"):
            EnvironmentModel(
                arrival_rates=[1.0, 1.0, 1.0, 1.0],
                speeds=[1.0, 1.0, 1.0, 1.0],
                sojourns=tuple(Exponential(1.0) for _ in range(4)),
                mu=1.0,
                routing=[
                    [0.0, 1.0, 0.0, 0.0],
                    [1.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [0.0, 0.0, 1.0, 0.0],
                ],
            )

    def test_every_violation_listed_at_construction(self):
        with pytest.raises(ModelError) as info:
            two_state_model(mu=-1.0, speeds=[0.0, 1.0], routing=[[0.5, 0.7], [1.0, 0.0]])
        assert str(info.value) == (
            "invalid model: base service rate mu must be positive, got -1.0; "
            "state 0 has positive arrivals but zero speed (offered load diverges); "
            "routing diagonal entry p[0,0] = 0.5 must be 0; "
            "routing row 0 sums to 1.2, must be 1 within 1e-12"
        )

    def test_irreducibility_matches_transitive_closure(self):
        rng = np.random.default_rng(17)
        verdicts = []
        for _ in range(200):
            k_count = int(rng.integers(2, 31))
            edges = rng.random((k_count, k_count)) < rng.uniform(0.02, 0.3)
            # every state needs an exit so that the routing stays row-stochastic
            exits = (np.arange(k_count) + rng.integers(1, k_count, k_count)) % k_count
            edges[np.arange(k_count), exits] = True
            np.fill_diagonal(edges, False)
            closure = np.eye(k_count, dtype=bool) | edges
            for _ in range(int(np.ceil(np.log2(k_count)))):
                closure = (closure.astype(np.int64) @ closure.astype(np.int64)) > 0
            routing = edges / edges.sum(axis=1, keepdims=True)
            try:
                model_with_routing(routing)
                flagged = False
            except ModelError as exc:
                assert str(exc) == "invalid model: routing matrix is not irreducible"
                flagged = True
            assert flagged == (not closure.all())
            verdicts.append(flagged)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_irreducibility_at_k500(self):
        k_count = 500
        cycle = np.roll(np.eye(k_count), 1, axis=1)
        assert model_with_routing(cycle).num_states == k_count
        # two 250-cycles, the first leaking into the second and never back
        half = k_count // 2
        blocks = np.zeros((k_count, k_count))
        blocks[:half, :half] = np.roll(np.eye(half), 1, axis=1)
        blocks[half:, half:] = np.roll(np.eye(half), 1, axis=1)
        blocks[half - 1, [0, half]] = 0.5
        with pytest.raises(ModelError) as info:
            model_with_routing(blocks)
        assert str(info.value) == "invalid model: routing matrix is not irreducible"

    def test_single_state_flagged(self):
        with pytest.raises(ModelError, match="at least 2"):
            EnvironmentModel(
                arrival_rates=[1.0],
                speeds=[1.0],
                sojourns=(Exponential(1.0),),
                mu=1.0,
                routing=[[0.0]],
            )

    def test_shape_mismatch_raises_at_construction(self):
        with pytest.raises(ModelError):
            two_state_model(routing=[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        with pytest.raises(ModelError):
            two_state_model(sojourns=(Exponential(1.0),))
        with pytest.raises(ModelError, match="arrival_rates and speeds must be 1-d arrays of equal length"):
            two_state_model(speeds=[1.0, 0.5, 0.5])
        with pytest.raises(ModelError, match="arrival_rates and speeds must be 1-d arrays of equal length"):
            two_state_model(arrival_rates=[[1.0, 2.0]], speeds=[[1.0, 0.5]])


class TestChainStatics:
    def test_two_state_swap(self):
        statics = chain_statics(two_state_model())
        assert statics.pi == pytest.approx([0.5, 0.5], abs=1e-14)
        assert statics.reversed_routing == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_cyclic_three_states(self):
        # doubly stochastic cycle: pi uniform and reversal transposes the cycle
        routing = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0, 1.0],
            speeds=[1.0, 1.0, 1.0],
            sojourns=tuple(Exponential(1.0) for _ in range(3)),
            mu=1.0,
            routing=routing,
        )
        statics = chain_statics(model)
        assert statics.pi == pytest.approx([1 / 3] * 3, abs=1e-14)
        assert statics.reversed_routing == pytest.approx(np.array(routing).T)

    def test_random_k4_against_power_iteration(self):
        rng = np.random.default_rng(11)
        model = random_exponential_model(4, rng)
        statics = chain_statics(model)
        # independent oracle: power iteration of the row-stochastic matrix
        vector = np.full(4, 0.25)
        for _ in range(20000):
            vector = vector @ model.routing
            vector /= vector.sum()
        assert np.max(np.abs(statics.pi - vector)) < 1e-10

    def test_stationarity_and_row_sums_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = random_mixed_model(int(rng.integers(2, 6)), rng)
            statics = chain_statics(model)
            assert np.max(np.abs(statics.pi @ model.routing - statics.pi)) < 1e-12
            assert statics.pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(statics.pi >= -1e-15)
            rows = statics.reversed_routing.sum(axis=1)
            assert np.max(np.abs(rows - 1.0)) < 1e-12
            assert np.max(np.abs(np.diag(statics.reversed_routing))) == 0.0

    def test_double_reversal_returns_routing(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            model = random_mixed_model(4, rng)
            statics = chain_statics(model)
            pi = statics.pi
            double = (statics.reversed_routing.T * pi[np.newaxis, :]) / pi[:, np.newaxis]
            assert np.max(np.abs(double - model.routing)) < 1e-12

    def test_reversed_routing_is_c_contiguous(self):
        # the Palm series multiplies 2 x K blocks by its transpose, fastest
        # with Q row-major; the entries are those of the textbook formula
        for k_count in (3, 40):
            model = random_mixed_model(k_count, np.random.default_rng(k_count))
            statics = chain_statics(model)
            reversed_routing = statics.reversed_routing
            assert reversed_routing.flags.c_contiguous and not reversed_routing.flags.f_contiguous
            pi = statics.pi
            assert np.array_equal(reversed_routing, (model.routing.T * pi[np.newaxis, :]) / pi[:, np.newaxis])

    def test_occupancy_weights_by_mean_sojourns(self):
        model = two_state_model(sojourns=(Exponential(1.0), Exponential(4.0)))
        statics = chain_statics(model)
        # pi = (1/2, 1/2); means (1, 1/4) -> occupancy (4/5, 1/5)
        assert statics.occupancy == pytest.approx([0.8, 0.2], abs=1e-14)

    def test_invalid_model_rejected(self):
        # an invalid model never reaches chain_statics: construction refuses it
        with pytest.raises(ModelError, match="invalid model: routing diagonal entry p"):
            two_state_model(routing=[[0.5, 0.5], [1.0, 0.0]])

    def test_near_singular_balance_raises(self):
        eps = 1e-15
        with pytest.raises(NumericError):
            EnvironmentModel(
                arrival_rates=[1.0, 1.0, 1.0, 1.0],
                speeds=[1.0, 1.0, 1.0, 1.0],
                sojourns=tuple(Exponential(1.0) for _ in range(4)),
                mu=1.0,
                routing=[
                    [0.0, 1.0 - eps, eps / 2, eps / 2],
                    [1.0 - eps, 0.0, eps / 2, eps / 2],
                    [eps / 2, eps / 2, 0.0, 1.0 - eps],
                    [eps / 2, eps / 2, 1.0 - eps, 0.0],
                ],
            )

    def test_failed_lu_raises(self, monkeypatch):
        # the M-matrix of a valid chain is never singular: stand in a failed factorisation
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NumericError, match=r"^embedded balance system is near-singular \(condition inf > 1e12\)$"):
            chain_statics(two_state_model())

    def test_balance_residual_raises(self, monkeypatch):
        # no valid chain's certified pi misses its balance: stand in a uniform pi
        # for a chain whose stationary law is not uniform
        model = load_model(MODELS_DIR / "k3_mixed.yaml")
        monkeypatch.setattr(environment, "_stationary_law", lambda routing: (np.full(3, 1.0 / 3.0), 0, 1.0))
        with pytest.raises(NumericError, match=r"^stationary solve residual .* exceeds tolerance$"):
            chain_statics(model)

    def test_weakly_linked_blocks_raise(self):
        # two 2-state blocks joined by 1e-13 links: the reduced balance
        # system keeps one block, which is left only about once in 1e13 jumps
        eps = 1e-13
        routing = [
            [0.0, 1.0 - eps, eps, 0.0],
            [1.0 - eps, 0.0, 0.0, eps],
            [eps, 0.0, 0.0, 1.0 - eps],
            [0.0, eps, 1.0 - eps, 0.0],
        ]
        assert _stationary_law(np.array(routing))[2] > 1e12
        with pytest.raises(NumericError, match="near-singular"):
            model_with_routing(routing)

    def test_rarely_entered_state_is_well_conditioned(self):
        # a tiny stationary mass is no near-singularity: dropping the most
        # entered state leaves the identity
        eps = 1e-13
        model = model_with_routing([[0.0, 1.0 - eps, eps], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        pi, dropped, condition = _stationary_law(model.routing)
        assert dropped == 0
        assert condition == 1.0
        statics = chain_statics(model)
        assert statics.pi == pytest.approx([0.5, (1.0 - eps) / 2, eps / 2], rel=1e-15)

    def test_arrays_are_read_only(self):
        model = two_state_model()
        with pytest.raises(ValueError):
            model.routing[0, 1] = 0.5
        statics = model.statics
        arrays = (
            statics.pi, statics.reversed_routing, statics.deflated_routing, statics.deflated_row_sums,
            statics.mean_sojourns, statics.occupancy,
        )
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.statics = chain_statics(model)

    @pytest.mark.parametrize(
        "source", [*(path.stem for path in SHIPPED), 50, 200, 500], ids=lambda source: f"{source}"
    )
    def test_model_carries_its_chain_statics(self, source):
        # the statics built with the model are those chain_statics gives, bit for bit
        model = load_model(MODELS_DIR / f"{source}.yaml") if isinstance(source, str) else perfbench_model(source)
        rebuilt = chain_statics(model)
        for field in dataclasses.fields(ChainStatics):
            carried, expected = np.asarray(getattr(model.statics, field.name)), np.asarray(getattr(rebuilt, field.name))
            assert (carried.dtype, carried.shape) == (expected.dtype, expected.shape)
            assert carried.tobytes() == expected.tobytes(), field.name
        # E = Q - 1 pi' and the row sums of |E|, as a fresh pass gives them
        statics = model.statics
        deflated = statics.reversed_routing - statics.pi
        pairs = ((statics.deflated_routing, deflated), (statics.deflated_row_sums, np.abs(deflated).sum(axis=1)))
        for carried, expected in pairs:
            assert (carried.dtype, carried.shape) == (expected.dtype, expected.shape)
            assert carried.tobytes() == expected.tobytes()
        assert statics.deflated_routing.flags.c_contiguous

    def test_replace_rebuilds_the_statics(self):
        model = load_model(MODELS_DIR / "k3_mixed.yaml")
        changed = dataclasses.replace(model, routing=[[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        assert changed.statics.pi == pytest.approx([1.0 / 3.0] * 3, rel=1e-15)
        assert changed.statics.pi.tobytes() == chain_statics(changed).pi.tobytes()
        assert not np.allclose(changed.statics.pi, model.statics.pi)
        # the deflated routing and its row sums follow the new chain
        statics = changed.statics
        deflated = statics.reversed_routing - statics.pi
        assert statics.deflated_routing.tobytes() == deflated.tobytes()
        assert statics.deflated_row_sums.tobytes() == np.abs(deflated).sum(axis=1).tobytes()
        assert not np.allclose(statics.deflated_routing, model.statics.deflated_routing)


class TestStationaryLaw:
    def test_dropped_state_has_largest_column_sum(self):
        rng = np.random.default_rng(21)
        for k_count in (3, 7, 20):
            routing = random_routing(k_count, rng)
            assert _stationary_law(routing)[1] == np.argmax(routing.sum(axis=0))

    def test_condition_is_exact(self):
        # against the explicit-inverse inf-norm condition number of the
        # reduced matrix, on the shipped models and random draws
        routings = [load_model(path).routing for path in SHIPPED]
        for k_count in (5, 20, 60):
            rng = np.random.default_rng(k_count)
            routings += [random_mixed_model(k_count, rng).routing for _ in range(3)]
        for routing in routings:
            _, dropped, condition = _stationary_law(routing)
            keep = np.flatnonzero(np.arange(len(routing)) != dropped)
            reduced = np.eye(len(keep)) - routing[np.ix_(keep, keep)].T
            assert condition == pytest.approx(np.linalg.cond(reduced, np.inf), rel=1e-12)

    def test_pi_matches_extended_precision_at_k500(self):
        # the all-exponential K = 500 benchmark routing, whose pi comes from
        # the deflated series
        routing = random_routing(500, np.random.default_rng([0, 500]))
        reference = long_double_stationary_law(routing)
        statics = chain_statics(model_with_routing(routing))
        assert statics.steps > 0
        assert np.max(np.abs(statics.pi - reference) / reference) < 1e-14


class TestStationarySeries:
    def test_series_agrees_with_the_lu(self):
        for k_count in (200, 500):
            routing = random_routing(k_count, np.random.default_rng([0, k_count]))
            statics = chain_statics(model_with_routing(routing))
            assert 0 < statics.steps <= environment._series_budget(k_count)
            lu = _stationary_law(routing)[0]
            assert np.max(np.abs(statics.pi - lu) / lu) < 1e-14

    def test_small_chains_take_the_lu(self):
        # below K = 10 the budget is under one product: pi is the LU's, bit
        # for bit, even on the uniform chain, whose column means are pi
        uniform = (np.ones((9, 9)) - np.eye(9)) / 8
        for model in [load_model(path) for path in SHIPPED] + [model_with_routing(uniform)]:
            statics = chain_statics(model)
            assert statics.steps == 0
            assert np.array_equal(statics.pi, _stationary_law(model.routing)[0])
        assert environment._stationary_series(uniform, np.empty((9, 9))) == (None, 0)
        # one state more and the series takes it in one product
        uniform = (np.ones((10, 10)) - np.eye(10)) / 9
        assert environment._stationary_series(uniform, np.empty((10, 10)))[1] == 1

    @pytest.mark.parametrize("k_count, products", [(50, 1), (100, 5)])
    def test_hopeless_series_is_abandoned_early(self, k_count, products):
        # on the benchmark chains the series would need 14 products against a
        # budget of 5 at K = 50, and 12 against 10 at K = 100.  At K = 50 it
        # is abandoned on its first term, before the K^2 pass for q (the
        # workspace stays untouched); at K = 100 on its fifth.
        class CountingProducts(np.ndarray):
            products = 0

            def __rmatmul__(self, other):
                CountingProducts.products += 1
                return other @ np.asarray(self)

        routing = random_routing(k_count, np.random.default_rng([0, k_count]))
        buffer = np.full((k_count, k_count), np.nan)
        assert environment._stationary_series(routing.view(CountingProducts), buffer) == (None, 0)
        # the column means are one more product
        assert CountingProducts.products == products + 1
        assert np.isnan(buffer).all() == (products == 1)

    def test_rarely_entered_state_matches_extended_precision(self):
        # state 0 is entered ~1e-11 times as often as the others: the series'
        # tail bound cannot resolve its entry relatively, so the LU gives pi
        k_count = 300
        routing = random_routing(k_count, np.random.default_rng(300))
        routing[:, 0] *= 1e-11
        routing /= routing.sum(axis=1, keepdims=True)
        reference = long_double_stationary_law(routing)
        assert reference[0] < 1e-10 * reference[1:].min()
        statics = chain_statics(model_with_routing(routing))
        assert statics.steps == 0
        assert np.max(np.abs(statics.pi - reference) / reference) < 1e-14

    def test_weakly_linked_dense_blocks_raise(self):
        # two dense 100-state blocks, each state linked to the other block
        # with probability 1e-13: no certified series, and the LU's
        # condition number is above 1e12
        k_count, half, eps = 200, 100, 1e-13
        rng = np.random.default_rng(200)
        routing = np.zeros((k_count, k_count))
        routing[:half, :half] = random_routing(half, rng)
        routing[half:, half:] = random_routing(half, rng)
        routing *= 1.0 - eps
        states = np.arange(k_count)
        routing[states, (states + half) % k_count] = eps
        assert environment._stationary_series(routing, np.empty((k_count, k_count)))[0] is None
        with pytest.raises(NumericError, match="near-singular"):
            model_with_routing(routing)


def perfbench_model(k_count):
    """The benchmark's all-exponential K-state model, built by ``perfbench/modelgen.py``."""
    spec = importlib.util.spec_from_file_location("modelgen", PERFBENCH_MODELGEN)
    modelgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(modelgen)
    return modelgen.build_model(modelgen.exponential_params(k_count))


def long_double_stationary_law(routing):
    """pi by power iteration on the lazy chain (I + P) / 2 in long double."""
    k_count = len(routing)
    lazy = (np.eye(k_count, dtype=np.longdouble) + routing.astype(np.longdouble)) / 2
    reference = np.full(k_count, 1 / np.longdouble(k_count))
    for _ in range(200):
        reference = reference @ lazy
        reference /= reference.sum()
    assert np.max(np.abs(reference @ lazy - reference) / reference) < 1e-17
    return reference


def package_lines_matching(pattern, skip=()):
    """``module:line`` of every package source line that matches ``pattern``."""
    package = Path(__file__).resolve().parent.parent / "src" / "mminfenv"
    sources = sorted(path for path in package.glob("*.py") if path.name not in skip)
    assert sources
    return [
        f"{path.name}:{number}"
        for path in sources
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(pattern, line)
    ]


def test_no_explicit_inverse_in_the_package():
    # each linear system gets one factorisation: no condition number or
    # inverse is formed explicitly anywhere in the package
    assert package_lines_matching(r"linalg\.(cond|inv)\s*\(") == []


def test_no_unused_import_in_the_package():
    # every name a module or test file imports is read somewhere in it; the
    # package's __init__ imports only to re-export
    tests = Path(__file__).resolve().parent
    package = tests.parent / "src" / "mminfenv"
    unused = []
    for path in sorted(package.glob("*.py")) + sorted(tests.glob("*.py")):
        if path == package / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert unused == []


def test_no_unused_private_name_in_the_package():
    # every module-level private function, class or constant of the package
    # is read somewhere in the package, so no helper outlives its last caller
    package = Path(__file__).resolve().parent.parent / "src" / "mminfenv"
    defined, read = {}, set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(f"{where} {name}" for name, where in defined.items() if name not in read) == []


def test_only_the_model_runs_the_structural_checks():
    # a model checks itself once, at construction; no other module re-validates it
    pattern = r"\b(_violations|validate_model|require_valid)\b"
    assert package_lines_matching(pattern, skip={"environment.py"}) == []
    assert package_lines_matching(pattern) != []


def test_unknown_sojourn_law_rejected():
    # a law outside the four families fails when the model is built, not
    # later in the moment engine, the simulator or the model writer
    class Uniform(SojournDistribution):
        def laplace(self, s):
            return -math.expm1(-s) / s if s else 1.0

        def mean(self):
            return 0.5

    with pytest.raises(ModelError) as info:
        two_state_model(sojourns=(Exponential(1.0), Uniform()))
    message = str(info.value)
    assert "state 1" in message and "Uniform" in message
    for family in ("Exponential", "Gamma", "Deterministic", "HyperExponential"):
        assert family in message


def test_cycle_length_cyclic_deterministic():
    model = EnvironmentModel(
        arrival_rates=[1.0, 1.0, 1.0],
        speeds=[1.0, 1.0, 1.0],
        sojourns=(Deterministic(0.5), Deterministic(1.0), Deterministic(2.0)),
        mu=1.0,
        routing=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
    )
    statics = chain_statics(model)
    assert statics.mean_sojourns.tolist() == [0.5, 1.0, 2.0]
    assert statics.cycle_length == pytest.approx(3.5, rel=1e-12)
