"""Equality and hashing of the library's frozen records.

Records whose fields hold arrays compare and hash by identity, since value
equality on an array field can only raise; records of scalars and tuples
compare by value.
"""

import numpy as np
import pytest

from lama.criteria import QuadraticProgram
from lama.experiments import SimulationConfig, WeightChoice
from lama.models import Dataset, ModelFits
from lama.qp import GramForm, NestedForm, SolveReport
from lama.risk_theory import PowerLawProfile, RiskSurface


def _fits():
    return ModelFits(n=3, sizes=np.array([1, 2]), coefs=np.eye(2), residuals=np.ones((3, 2)),
                     leverages=np.full((3, 2), 0.5), rss=np.array([3.0, 3.0]), ranks=np.array([1, 2]))


def _surface():
    return RiskSurface(n=np.array([20]), M=np.array([10]), weighting="equal", risk=np.array([1.5]),
                       bias=np.array([1.0]), variance=np.array([0.5]), excluded_singular=np.array([False]))


ARRAY_RECORDS = {
    "Dataset": lambda: Dataset(Y=np.arange(3.0), X=np.ones((3, 1))),
    "ModelFits": _fits,
    "SolveReport": lambda: SolveReport(np.full(2, 0.5), 1.0, 3, "converged", 0.0),
    "GramForm": lambda: GramForm(np.eye(2)),
    "NestedForm": lambda: NestedForm(np.ones(2), np.zeros(2), np.ones(2)),
    "QuadraticProgram": lambda: QuadraticProgram(NestedForm(np.ones(2), np.zeros(2)), np.zeros(2)),
    "WeightChoice": lambda: WeightChoice("mma", np.full(2, 0.5), 1.0, 1.0),
    "RiskSurface": _surface,
}


@pytest.mark.parametrize("make", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_records_holding_arrays_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a
    assert a != b
    assert len({a, b}) == 2


def test_records_of_scalars_and_tuples_compare_and_hash_by_value():
    profiles = PowerLawProfile(1.0, 2.0, 50), PowerLawProfile(1.0, 2.0, 50)
    configs = SimulationConfig(n_values=(20,), m_values=(5,)), SimulationConfig(n_values=(20,), m_values=(5,))
    for a, b in (profiles, configs):
        assert a is not b and a == b
        assert len({a, b}) == 1
    assert PowerLawProfile(1.0, 2.0, 50) != PowerLawProfile(1.0, 2.0, 51)
