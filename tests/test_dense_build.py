"""The array collector and array reduction behind the dense tables, checked
against the symbolic engine they replace."""

import random

import numpy as np
import pytest

from nilforge.hall import _collect_arrays, _collect_letters, builtin_basis
from nilforge.lab import DenseGroup
from nilforge.quotients import FiniteQuotient, QuotientError, standard_quotient


def symbolic_row(q, h):
    """Right translation by element index h, as the tables used to be made:
    one symbolic reduction per element."""
    tail = [(i, e) for i, e in enumerate(q.decode(h)) if e]
    row = np.empty(q.order, dtype=np.int64)
    for g in range(q.order):
        letters = [(i, e) for i, e in enumerate(q.decode(g)) if e]
        row[g] = q.reduce_letters(letters + tail).index()
    return row


@pytest.mark.parametrize("kind,p,r", [
    ("N_r", 5, 1), ("N_r", 5, 4), ("K", 5, None), ("M", 5, None),
    ("N_r", 7, 1), ("N_r", 7, 6), ("K", 7, None), ("M", 7, None),
    ("DH_M_r", 5, 1),
])
def test_dense_rows_match_symbolic_reduce(kind, p, r):
    # one slab per base-p digit; row 1 of digit t translates by the element
    # of index _strides[t], the step g^(p^j), which the build composes from
    # the row of g
    q = standard_quotient(kind, p, r)
    dense = DenseGroup(q)
    assert p ** len(dense.slabs) == q.order
    for stride, slab in zip(dense._strides, dense.slabs):
        assert np.array_equal(slab[1], symbolic_row(q, stride))


def test_dense_tables_are_int32_digit_slabs():
    # DH_M_r at p = 7: x, y, z of modulus 49 give six digits of 7 rows
    q = standard_quotient("DH_M_r", 7, 1)
    dense = DenseGroup(q)
    assert all(t.dtype == np.int32 and t.shape == (7, q.order)
               for t in dense.slabs)
    assert sum(t.nbytes for t in dense.slabs) == 4 * 7 * 117649 * 6 == 19_765_032


def test_dense_group_rejects_int32_overflow():
    # order 23^6: p * n >= 2^31, refused before any reduction or allocation
    q = standard_quotient("DH_M_r", 23, 1)
    with pytest.raises(QuotientError, match="int32"):
        DenseGroup(q)


def test_mult_rejects_out_of_range_indices():
    # a flat gather would read a neighbouring row of the slab for an a
    # outside [0, n), and the digit lookup would wrap a negative b
    dense = standard_quotient("N_r", 5, 2).dense
    n = dense.n
    for a, b in [(n + 1, 0), (-1, 0), (0, n), (0, -1),
                 (np.array([0, n]), 1), (np.arange(3)[:, None], np.array([[0, -2]]))]:
        with pytest.raises(IndexError):
            dense.mult(a, b)
    assert dense.mult(n - 1, 0) == n - 1


def random_words(rng, basis, count, length, bound):
    """``count`` words sharing one symbol sequence, as array letters, and
    the same words entry by entry; about a third of the exponents are 0."""
    syms = [rng.randrange(basis.size) for _ in range(length)]
    exps = [[rng.choice((0, rng.randint(-bound, bound))) for _ in range(count)]
            for _ in syms]
    arrays = [(s, np.array(col, dtype=np.int64)) for s, col in zip(syms, exps)]
    words = [[(s, col[i]) for s, col in zip(syms, exps)] for i in range(count)]
    return arrays, words


@pytest.mark.parametrize("name", ["F23", "F32"])
def test_array_collector_matches_symbolic(name):
    basis = builtin_basis(name)
    rng = random.Random(11)
    for _ in range(60):
        arrays, words = random_words(rng, basis, 40, rng.randint(1, 9), 12)
        got = _collect_arrays(basis, arrays, 40)
        for i, word in enumerate(words):
            want = _collect_letters(basis, word)
            assert tuple(int(col[i]) for col in got) == want


@pytest.mark.parametrize("kind,p,r", [
    ("N_r", 5, 2), ("K", 7, None), ("DH_M_r", 5, 3),
])
def test_array_reduction_matches_reduce_letters(kind, p, r):
    q = standard_quotient(kind, p, r)
    rng = random.Random(5)
    for _ in range(20):
        arrays, words = random_words(rng, q.basis, 30, rng.randint(1, 7), 60)
        got = q.reduce_arrays(arrays)
        for i, word in enumerate(words):
            want = q.reduce_letters([(s, e) for s, e in word if e]).vector
            assert tuple(int(col[i]) for col in got) == want


def test_exponent_bound_raises():
    q = standard_quotient("N_r", 5, 2)
    ones = np.ones(3, dtype=np.int64)
    # x^(2^20 - 1) * y is collected already; only divmod touches it
    below = q.reduce_arrays([(0, ones * ((1 << 20) - 1)), (1, ones)])
    assert below[0].tolist() == [((1 << 20) - 1) % 25] * 3
    # y * x^(2^20): the swap forms products of the exponents
    with pytest.raises(QuotientError, match="2\\^20"):
        q.reduce_arrays([(1, ones), (0, ones << 20)])


def test_dense_group_rejects_divergent_corruption():
    good = standard_quotient("N_r", 5, 2)
    bad_tails = list(good.tails)
    bad_tails[3] = (7, 0, 1, 0, 0)  # powers regenerate [y,x,x] forever
    bad = FiniteQuotient(good.basis, good.relator_set, good.moduli,
                         tuple(bad_tails))
    with pytest.raises(QuotientError):
        DenseGroup(bad)
