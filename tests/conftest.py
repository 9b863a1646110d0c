import pytest

from qrbsde.forward import path_array
from qrbsde.scheme import backward_steps


def stack_steps(spec, grid, sched, bundle, basis, radius):
    """Ybar (P, N+1), Zbar (P, N, m) and dK (P, N+1) of the backward
    recursion, stacked from the steps ``backward_steps`` yields: the whole
    arrays that no solver stores, rebuilt for the tests that compare them."""
    P, N = bundle.n_paths, grid.N
    Ybar, Zbar, dK = path_array(P, N + 1), path_array(P, N, bundle.m), path_array(P, N + 1)
    for step in backward_steps(spec, grid, sched, bundle, basis, radius):
        if step.i == N - 1:
            Ybar[:, N] = step.y_next
        Ybar[:, step.i], Zbar[:, step.i, :], dK[:, step.i] = step.y, step.z, step.dk
    return Ybar, Zbar, dK


@pytest.fixture
def stacked():
    """``stack_steps``, for the tests that read a solve's whole arrays."""
    return stack_steps
