"""The dense tables, built by induction down the pc series, checked row by
row against symbolic reduction, and the builder's refusals."""

import numpy as np
import pytest

from nilforge.hall import FreeNilElement
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
    ("DH_M_r", 5, 1), ("DH_M_r", 3, 2), ("N_r", 11, 3),
])
def test_dense_rows_match_symbolic_reduce(kind, p, r):
    # one slab per base-p digit; row 1 of digit t translates by the element
    # of index _strides[t], the step g^(p^j), which the build composes from
    # the row of g that the pc-series induction makes
    q = standard_quotient(kind, p, r)
    dense = DenseGroup(q)
    assert p ** len(dense.slabs) == q.order
    for stride, slab in zip(dense._strides, dense.slabs):
        assert np.array_equal(slab[1], symbolic_row(q, stride))


def test_dense_tables_are_int32_digit_slabs():
    # DH_M_r at p = 7: six pc symbols of modulus 7 give six digits of 7 rows
    q = standard_quotient("DH_M_r", 7, 1)
    dense = DenseGroup(q)
    assert all(t.dtype == np.int32 and t.shape == (7, q.order)
               for t in dense.slabs)
    assert sum(t.nbytes for t in dense.slabs) == 4 * 7 * 117649 * 6 == 19_765_032


def test_dense_group_keeps_no_per_digit_side_arrays():
    # mult reads the slabs and one int32 row offset per digit; digits are
    # derived from _strides where needed, so nothing else of size n is kept
    q = standard_quotient("DH_M_r", 5, 1)
    dense = DenseGroup(q)

    def nbytes(value):
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, (list, tuple)):
            return sum(nbytes(v) for v in value)
        return 0

    held = {name: nbytes(v) for name, v in vars(dense).items() if nbytes(v)}
    assert held == {"slabs": 4 * 5 * q.order * 6, "_offsets": 4 * q.order * 6}
    for st, off in zip(dense._strides, dense._offsets):
        assert np.array_equal(off, np.arange(q.order) // st % 5 * q.order)


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


def test_dense_group_rejects_a_conjugation_that_is_not_a_permutation():
    # [y,x] eliminated, and its rule corrupted after construction to
    # [y,x] = y^-1, a tail the constructor refuses: x^-1 y x = y [y,x] = 1,
    # so conjugation by x sends y to 1 and is not a permutation of
    # <y, [y,x,x]>
    good = standard_quotient("N_r", 5, 2)
    bad = FiniteQuotient(good.basis, good.relator_set, (5, 5, 1, 5, 1), good.tails)
    bad._rules = (*bad._rules[:2], (1, FreeNilElement(bad.basis, (0, -1, 0, 0, 0))),
                  *bad._rules[3:])
    with pytest.raises(QuotientError, match="conjugation by x is not a permutation"):
        DenseGroup(bad)


def test_inverse_table_needs_no_order_table():
    # the inverse of g_1^e_1 ... g_T^e_T is g_T^-e_T ... g_1^-e_1, one
    # product per pc symbol, so no element order is computed
    dense = standard_quotient("DH_M_r", 5, 1).dense
    inv = dense.inv
    assert "orders" not in vars(dense)
    idx = np.arange(dense.n)
    assert inv.dtype == np.int64
    assert (dense.mult(inv, idx) == 0).all() and (dense.mult(idx, inv) == 0).all()
    assert np.array_equal(inv[inv], idx)


def test_power_rejects_out_of_range_indices_for_every_exponent():
    # inv[-1] wraps and e = 0 reaches no mult, so the check is on entry
    dense = standard_quotient("N_r", 5, 1).dense
    n = dense.n
    for a in (-1, n, np.array([0, -1]), np.array([n, 0])):
        for e in (-3, -1, 0, 1, 2):
            with pytest.raises(IndexError):
                dense.power(a, e)
    assert dense.power(n - 1, 0) == 0


def test_power_starts_from_the_first_factor():
    # square and multiply from the base itself: (bit length - 1) squarings
    # and (popcount - 1) products, no multiplication by the identity
    dense = standard_quotient("N_r", 5, 1).dense
    inv = dense.inv  # built before the count
    calls = []
    mult = dense.mult
    dense.mult = lambda a, b: calls.append(1) or mult(a, b)
    idx = np.arange(dense.n)
    try:
        for e in (1, 2, 3, 5, 8, 24, -1, -6):
            calls.clear()
            got = dense.power(idx, e)
            assert len(calls) == abs(e).bit_length() + bin(abs(e)).count("1") - 2
            base = idx if e > 0 else inv
            want = base
            for _ in range(abs(e) - 1):
                want = mult(want, base)
            assert np.array_equal(got, want), e
            assert got is not idx
    finally:
        del dense.mult
