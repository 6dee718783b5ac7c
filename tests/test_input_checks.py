"""Each library input check, reached once: the call raises and names the fault."""

import numpy as np
import pytest

from gibbslearn.errors import DimensionMismatch
from gibbslearn.learn import (
    ReconstructionResult,
    Verdict,
    evaluate_recovery,
    recovery_angle,
    temperature_ratio,
)
from gibbslearn.models import xxz_chain
from gibbslearn.moments import MomentAssembler
from gibbslearn.pauli import PauliOperator, PauliString, enumerate_geometric_k_local, masks
from gibbslearn.sdp import SdpProblem
from gibbslearn.states import build_table, expectation


CHECKS = {
    "string-no-sites": (lambda: PauliString(0), ValueError, "site count must be positive"),
    "string-site-out-of-range": (lambda: PauliString(2, x=0b100), ValueError, "out of range"),
    "operator-term-other-n": (
        lambda: PauliOperator(3, {PauliString(2, x=1): 1.0}),
        DimensionMismatch,
        "term on 2 sites in an operator on 3 sites",
    ),
    "k-local-zero": (lambda: enumerate_geometric_k_local(3, 0), ValueError, "1 <= k <= n"),
    "k-local-above-n": (lambda: enumerate_geometric_k_local(3, 4), ValueError, "1 <= k <= n"),
    "assembler-empty-basis": (
        lambda: MomentAssembler([], []),
        ValueError,
        "at least one perturbing operator",
    ),
    "assembler-term-not-selfadjoint": (
        lambda: MomentAssembler(
            [PauliString(1, x=1)], [PauliOperator(1, {PauliString(1, z=1): 1j})]
        ),
        ValueError,
        "must be selfadjoint",
    ),
    "sdp-no-kernel-matrix": (
        lambda: SdpProblem(np.eye(2), np.zeros((0, 2, 2)), np.zeros(0)),
        ValueError,
        "at least one kernel-direction matrix",
    ),
    "sdp-shapes-disagree": (
        lambda: SdpProblem(np.eye(2), np.zeros((1, 3, 3)), np.zeros(1)),
        ValueError,
        "dimensions disagree",
    ),
    "density-wrong-shape": (
        lambda: build_table(np.eye(3) / 3, masks([PauliString(1, z=1)])),
        DimensionMismatch,
        r"2\^n x 2\^n matrix, not shape \(3, 3\)",
    ),
    "expectation-other-n": (
        lambda: expectation(np.diag([1.0, 0.0]), PauliString(2, z=1)),
        DimensionMismatch,
        "string on 2 sites, state on 1",
    ),
    "angle-lengths-differ": (
        lambda: recovery_angle(np.ones(2), np.ones(3)),
        ValueError,
        "different lengths",
    ),
    "ratio-zero-truth": (
        lambda: temperature_ratio(np.ones(2), 1.0, np.zeros(2), 1.0),
        ValueError,
        "true coefficient vector is zero",
    ),
    "recovery-without-candidate": (
        lambda: evaluate_recovery(
            ReconstructionResult(Verdict.NOT_STATIONARY, None, None, None, None, []),
            np.ones(2),
            1.0,
        ),
        ValueError,
        "no candidate to evaluate",
    ),
    "xxz-one-site": (lambda: xxz_chain(1), ValueError, "at least two sites"),
}


@pytest.mark.parametrize("call, error, message", CHECKS.values(), ids=CHECKS.keys())
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
