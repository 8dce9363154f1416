import copy
import pickle

import numpy as np
import pytest

from coherent_readout.channels import (
    CptpReport,
    KrausChannel,
    amplitude_damping,
    pauli_channel,
    rotation_y,
    validate_cptp,
)
from coherent_readout.povm import Povm, PovmReport, effective_povm
from coherent_readout.readout import ReadoutModel, classical_forward, extract
from coherent_readout.solver import (
    MitigationProblem,
    SolverOptions,
    classical_invert,
    mitigate,
    project_to_density_set,
)
from coherent_readout.states import DensityMatrix, StateDecomposition


def one_level_model():
    return ReadoutModel([[1.0]], np.zeros((1, 0)))


def two_level_model():
    return ReadoutModel(np.eye(2), np.zeros((2, 2)))


# (make, make_other, repr, hashable): make builds a fresh instance with its own
# arrays each call; make_other builds one that differs in some field.
VALUES = {
    "KrausChannel": (
        lambda: KrausChannel(1, [[[1.0]]]),
        lambda: KrausChannel(1, [[[-1.0]]]),
        "KrausChannel(dim=1, kraus_ops=array([[[1.+0.j]]]))",
        False,
    ),
    "CptpReport": (
        lambda: CptpReport(0.0, True),
        lambda: CptpReport(0.75, False),
        "CptpReport(defect=0.0, passed=True)",
        True,
    ),
    "Povm": (
        lambda: Povm(1, [[[1.0]]]),
        lambda: Povm(2, np.eye(2)[:, None] * np.eye(2)),
        "Povm(dim=1, elements=array([[[1.+0.j]]]))",
        False,
    ),
    "PovmReport": (
        lambda: PovmReport(0.0, 0.0, 0.0, True),
        lambda: PovmReport(0.0, 0.5, 0.0, False),
        "PovmReport(hermiticity_defect=0.0, positivity_defect=0.0, "
        "completeness_defect=0.0, passed=True)",
        True,
    ),
    "DensityMatrix": (
        lambda: DensityMatrix([[1.0]]),
        lambda: DensityMatrix(np.eye(2) / 2.0),
        "DensityMatrix(matrix=array([[1.+0.j]]))",
        False,
    ),
    "StateDecomposition": (
        lambda: StateDecomposition([1.0], []),
        lambda: StateDecomposition([0.5, 0.5], [0.0, 0.0]),
        "StateDecomposition(populations=array([1.]), coherences=array([], dtype=float64))",
        False,
    ),
    "ReadoutModel": (
        one_level_model,
        two_level_model,
        "ReadoutModel(assignment=array([[1.]]), coherence=array([], shape=(1, 0), dtype=float64))",
        False,
    ),
    "SolverOptions": (
        SolverOptions,
        lambda: SolverOptions(max_iterations=7),
        "SolverOptions(max_iterations=5000, residual_tol=1e-09)",
        True,
    ),
    "MitigationProblem": (
        lambda: MitigationProblem(one_level_model(), [1.0]),
        lambda: MitigationProblem(two_level_model(), [1.0, 0.0]),
        "MitigationProblem(model=ReadoutModel(assignment=array([[1.]]), "
        "coherence=array([], shape=(1, 0), dtype=float64)), z_observed=array([1.]))",
        False,
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_types_are_immutable_and_compare_by_value(name):
    make, make_other, text, hashable = VALUES[name]
    value = make()
    assert type(value).__name__ == name
    assert repr(value) == text
    # Equal fields held in different arrays compare equal, as a bool.
    same, other = value == make(), value == make_other()
    assert type(same) is bool and same
    assert type(other) is bool and not other
    assert value != make_other()
    assert value != text
    field = type(value).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = None
    if hashable:
        assert hash(value) == hash(make())
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


@pytest.mark.parametrize("name", VALUES)
def test_value_types_survive_pickle_and_copy(name):
    value = VALUES[name][0]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value
        assert repr(twin) == repr(value)
        for field in type(value).__slots__:
            a = getattr(twin, field)
            assert not (isinstance(a, np.ndarray) and a.flags.writeable)


# Each call puts one non-finite number where a finite one belongs.
NON_FINITE_CALLS = {
    "pauli_channel": lambda bad: pauli_channel([bad, 0.5, 0.25, 0.25]),
    "classical_forward": lambda bad: classical_forward(two_level_model(), [bad, 1.0]),
    "classical_invert": lambda bad: classical_invert(two_level_model(), [bad, 1.0]),
    "project_to_density_set": lambda bad: project_to_density_set([0.5, 0.5], [bad, 0.0]),
    "rotation_y": rotation_y,
    "validate_cptp": lambda bad: validate_cptp([np.diag([bad, 1.0])]),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", NON_FINITE_CALLS)
def test_public_functions_reject_non_finite_numbers(name, bad):
    with pytest.raises(ValueError):
        NON_FINITE_CALLS[name](bad)


def damping_problem(z):
    return MitigationProblem(extract(effective_povm(amplitude_damping(0.3))), z)


# Finite input whose trace, populations or probabilities sum past the float
# range: (call, the message it raises, or None where it returns). The sum is
# inf and judged as such, without a RuntimeWarning, which the test
# configuration turns into an error.
OVERFLOWING_SUMS = {
    "DensityMatrix": (lambda: DensityMatrix(np.diag([1e308, 1e308])), r"trace \(inf\+0j\)"),
    "StateDecomposition": (lambda: StateDecomposition([1e308, 1e308], [0.0, 0.0]), r"trace \(inf\+0j\)"),
    "classical_forward": (lambda: classical_forward(two_level_model(), [1e308, 1e308]), "populations must sum to 1"),
    "pauli_channel": (lambda: pauli_channel([1e308, 1e308, 0.0, 0.0]), "probabilities must sum to 1"),
    "project_to_density_set": (lambda: project_to_density_set([1e308, 1e308], [0.0, 0.0]), None),
    "project_to_density_set-gate": (
        lambda: project_to_density_set([1e308, 1e308], [0.0, 0.0], gate=True), None,
    ),
    "mitigate": (lambda: mitigate(damping_problem([1e308, 1e308])), "out of range"),
}


@pytest.mark.parametrize("name", OVERFLOWING_SUMS)
def test_overflowing_sums_are_judged_without_warning(name):
    call, message = OVERFLOWING_SUMS[name]
    if message is not None:
        with pytest.raises(ValueError, match=message):
            call()
        return
    x, y = call()
    assert np.array_equal(x, [0.5, 0.5]) and np.array_equal(y, [0.0, 0.0])
