import csv
import json

import numpy as np
import pytest

from smallball.bounds import BoundReport, load_constants
from smallball.chains import (
    make_independent_chain,
    make_two_state_chain,
    make_weight_system,
    parity_labels,
    repeated_signs,
)


@pytest.fixture(scope="session")
def constants():
    return load_constants()


@pytest.fixture(scope="session")
def uniform_independent():
    return make_independent_chain([0.5, 0.5])


@pytest.fixture
def two_state_03():
    return make_two_state_chain(0.3)


def balanced_signs(chain, n):
    return repeated_signs(parity_labels(chain.n_states), n, chain.stationary,
                          balanced=True)


def ones_weights(n):
    return make_weight_system(np.ones(n))


def read_bound_reports(path):
    """The BoundReport rows of a CSV that bounds.write_bound_reports wrote."""
    with open(path, newline="") as fh:
        return [BoundReport(
            instance_id=row["instance_id"], n=int(row["n"]), d=int(row["d"]),
            lam=float(row["lambda"]), radius=float(row["R"]),
            prob=float(row["prob"]), bound=float(row["bound"]),
        ) for row in csv.DictReader(fh)]


def serialize(est):
    """An McEstimate as sorted-key JSON with every float by its repr: the
    text whose sha256 the pinned-estimate tests record."""
    return json.dumps({
        "estimate": repr(est.estimate), "samples": est.samples,
        "ci_low": repr(est.ci_low), "ci_high": repr(est.ci_high),
        "seed": est.seed,
    }, sort_keys=True)
