import numpy as np
import pytest

from nhomog import haar, matrix_core
from nhomog.errors import IndexOutOfRange
from nhomog.star_algebra import NOISE_FLOOR, SubspaceBasis, nullspace

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1, -1]).astype(complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@pytest.fixture
def sx():
    return SX.copy()


@pytest.fixture
def sz():
    return SZ.copy()


@pytest.fixture
def hadamard():
    return HADAMARD.copy()


@pytest.fixture(autouse=True)
def fresh_draws():
    """Forget every Haar stack that haar._mc_draws keeps, before and after
    each test, so a count of draws or a patched sampler does not depend on
    which test ran before."""
    haar._mc_draws.cache_clear()
    yield
    haar._mc_draws.cache_clear()


def rng(seed):
    return np.random.default_rng(seed)


# An index argument and the int it stands for, or None where it is no
# integer: a numpy integer indexes like an int; a bool, float or string
# is refused.
INDEX_CASES = [(np.int64(1), 1), (np.int32(1), 1), (np.uint8(1), 1), (True, None), (np.True_, None), (0.7, None),
               (1.5, None), (np.float64(1.0), None), ("1", None)]


def check_index_rule(call, index, same):
    """``call(index)`` equals ``call(same)`` bit for bit, or raises
    IndexOutOfRange where ``same`` is None."""
    if same is None:
        with pytest.raises(IndexOutOfRange, match=r" is not an integer$"):
            call(index)
    else:
        assert np.array_equal(call(index), call(same))


def opnorm(a):
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def assert_close(a, b, atol=1e-10):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    gap = float(np.abs(a - b).max()) if a.size else 0.0
    assert gap <= atol, f"matrices differ by {gap:.3e} > {atol:.1e}"


def same_up_to_phase(u, v, atol=1e-8):
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    z = np.trace(v.conj().T @ u)
    if abs(z) < 1e-12:
        return False
    phase = z / abs(z)
    return float(np.abs(u - phase * v).max()) <= atol


def kron_loop_intertwiner(a, b, tol=matrix_core.DEFAULT_TOL):
    """intertwiner_space as a Python loop of np.kron blocks over the
    letter pairs, two norms per pair, with the zero-generator cut taken
    absolute: the reference for the stacked solve, whose cut agrees with
    it on tuples of unit scale."""
    d = a.d
    eye = np.eye(d, dtype=complex)
    blocks = []
    for ga, gb in zip(a.with_adjoints(), b.with_adjoints()):
        scale = max(matrix_core.opnorm(ga), matrix_core.opnorm(gb))
        if scale <= NOISE_FLOOR:
            continue
        blocks.append((np.kron(eye, ga.T) - np.kron(gb, eye)) / scale)
    if not blocks:
        return SubspaceBasis(element_shape=(d, d), vectors=np.eye(d * d, dtype=complex))
    null = nullspace(np.vstack(blocks), tol, "intertwiner nullspace")
    return SubspaceBasis(element_shape=(d, d), vectors=np.ascontiguousarray(null))
