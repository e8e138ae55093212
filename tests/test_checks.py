import dataclasses
from pathlib import Path

import pytest

from mminfenv import (
    assemble_moment_table,
    chain_statics,
    load_model,
    palm_moment_vectors,
    stationary_moment_vectors,
    structural_checks,
)

from conftest import MODELS_DIR

SHIPPED = sorted(MODELS_DIR.glob("*.yaml"))

# the verdicts that read the Palm or stationary vectors of the table
READS_VECTORS = {"forward-relation", "markovian-identity", "two-state-closed-form"}


def verdicts_of(model, statics, palm):
    """The verdicts of the table that the pipeline builds from these Palm vectors."""
    stationary = stationary_moment_vectors(model, statics, palm)
    table = assemble_moment_table(model, statics, palm, stationary)
    return {v.name: v for v in structural_checks(model, table)}


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: Path(path).stem)
def test_perturbed_order_2_fails_every_verdict_that_reads_it(path):
    # a relative error of 1e-6 in the order-2 Palm vector, carried into the
    # stationary vectors, must fail every check that reads the vectors and
    # leave the others passing
    model = load_model(path)
    statics = chain_statics(model)
    palm = palm_moment_vectors(model, statics, 6)
    assert all(v.passed for v in verdicts_of(model, statics, palm).values())

    vectors = list(palm.vectors)
    vectors[2] = vectors[2] * (1.0 + 1e-6)
    verdicts = verdicts_of(model, statics, dataclasses.replace(palm, vectors=tuple(vectors)))
    assert "forward-relation" in verdicts
    for name, verdict in verdicts.items():
        assert verdict.passed == (name not in READS_VECTORS), (name, verdict.residual)
