import random

import pytest

from nilforge.hall import (
    BasisError,
    _collect_onto,
    FreeEndomorphism,
    GroupWord,
    IntMatrix,
    abelianization_matrix,
    builtin_basis,
    collect,
    commutator,
    inverse,
    multiply,
    power,
)
from nilforge.series import (
    TruncatedSeries,
    magnus_embed,
    symbol_series,
    word_series,
)

F23 = builtin_basis("F23")
F32 = builtin_basis("F32")
X, Y = F23.gens()
C, D, E = F23.generator(2), F23.generator(3), F23.generator(4)


def rand_word(rng, basis, max_len=20):
    n = rng.randrange(0, max_len + 1)
    return [(rng.randrange(basis.size),
             rng.choice([e for e in range(-9, 10) if e])) for _ in range(n)]


def rand_elem(rng, basis):
    return collect(basis, rand_word(rng, basis, 8))


# -- bases -------------------------------------------------------------------

def test_builtin_shapes():
    assert F23.size == 5
    assert F23.weights() == (1, 1, 2, 3, 3)
    assert [s.name for s in F23.symbols] == ["x", "y", "[y,x]", "[y,x,x]", "[y,x,y]"]
    assert F32.size == 6
    assert F32.weights() == (1, 1, 1, 2, 2, 2)


def test_builtin_unknown_name():
    with pytest.raises(BasisError):
        builtin_basis("F99")


def test_structure_rule_c_by_x():
    # x^-1 [y,x] x = [y,x] [y,x,x]
    conj = collect(F23, [(0, -1), (2, 1), (0, 1)])
    assert conj == multiply(C, D)


def test_builtin_bases_are_cached():
    assert builtin_basis("F23") is F23


# -- collection ---------------------------------------------------------------

def test_collect_empty_word():
    assert collect(F23, []).exponents == (0, 0, 0, 0, 0)


def test_collect_yx():
    assert collect(F23, [(1, 1), (0, 1)]).exponents == (1, 1, 1, 0, 0)


def test_collect_xyxy():
    # oracle first: the claimed normal form must have the same series as the word
    word = [(0, 1), (1, 1), (0, 1), (1, 1)]
    claimed = F23.element((2, 2, 1, 0, 1))
    assert word_series(F23, word) == magnus_embed(claimed)
    assert collect(F23, word) == claimed


def test_collect_rejects_bad_letters():
    with pytest.raises(BasisError):
        collect(F23, [(7, 1)])
    with pytest.raises(BasisError):
        GroupWord(((0, 0),)).validate(F23)


def test_normal_form_idempotence():
    rng = random.Random(3)
    for _ in range(200):
        a = rand_elem(rng, F23)
        assert collect(F23, a.letters()) == a


# -- group arithmetic -----------------------------------------------------------

def test_multiply_powers_of_x():
    assert multiply(power(X, 2), power(X, 3)) == power(X, 5)


def test_commutator_is_basis_symbol():
    assert commutator(Y, X) == C


def test_power_of_product():
    assert power(multiply(X, Y), 2).exponents == (2, 2, 1, 0, 1)


def test_basis_mismatch_raises():
    with pytest.raises(BasisError):
        multiply(X, F32.generator(0))


@pytest.mark.parametrize("basis", [F23, F32], ids=["F23", "F32"])
def test_group_axioms_random(basis):
    rng = random.Random(11)
    for _ in range(5000):
        a, b, c = (rand_elem(rng, basis) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, inverse(a)).is_identity()
        m, n = rng.randrange(-7, 8), rng.randrange(-7, 8)
        assert power(a, m + n) == multiply(power(a, m), power(a, n))


@pytest.mark.parametrize("basis", [F23, F32], ids=["F23", "F32"])
def test_centrality_of_top_weight(basis):
    rng = random.Random(5)
    top = [i for i, s in enumerate(basis.symbols)
           if s.weight == basis.nilpotency_class]
    for _ in range(100):
        a = rand_elem(rng, basis)
        for i in top:
            assert commutator(basis.generator(i), a).is_identity()


# -- endomorphisms ----------------------------------------------------------------

def test_apply_endo_identity():
    rng = random.Random(1)
    for _ in range(50):
        a = rand_elem(rng, F23)
        assert FreeEndomorphism([X, Y])(a) == a


def test_apply_endo_inverts_y():
    # x -> x, y -> y^-1 sends [y,x] to [y,x]^-1 [y,x,y]
    img = FreeEndomorphism([X, inverse(Y)])(C)
    expected = F23.element((0, 0, -1, 0, 1))
    assert magnus_embed(expected) == (
        magnus_embed(inverse(Y)).inverse() * magnus_embed(X).inverse()
        * magnus_embed(inverse(Y)) * magnus_embed(X))
    assert img == expected


def test_apply_endo_scales_brackets_in_class_two():
    x, y, z = F32.gens()
    r = 3
    images = [power(x, r), power(y, r), power(z, r)]
    img = FreeEndomorphism(images)(F32.generator(3))
    assert img == power(F32.generator(3), r * r)


def test_apply_endo_wrong_image_count():
    with pytest.raises(BasisError):
        FreeEndomorphism([X])(C)


def test_apply_endo_multiplicative():
    rng = random.Random(9)
    for _ in range(80):
        images = [rand_elem(rng, F23), rand_elem(rng, F23)]
        a, b = rand_elem(rng, F23), rand_elem(rng, F23)
        endo = FreeEndomorphism(images)
        assert endo(multiply(a, b)) == multiply(endo(a), endo(b))


# -- abelianization matrices ---------------------------------------------------------

def test_abelianization_identity():
    m = abelianization_matrix([X, Y])
    assert m.entries == ((1, 0), (0, 1))
    assert m.det == 1


def test_abelianization_scaling_det_r_cubed():
    x, y, z = F32.gens()
    r = 3
    m = abelianization_matrix([power(x, r), power(y, r), power(z, r)])
    assert m.entries == ((3, 0, 0), (0, 3, 0), (0, 0, 3))
    assert m.det == 27


def test_abelianization_shear_det_one():
    x, y, z = F32.gens()
    m = abelianization_matrix([x, multiply(x, y), multiply(y, z)])
    assert m.det == 1
    assert m.entries == ((1, 1, 0), (0, 1, 1), (0, 0, 1))


def test_abelianization_functorial():
    rng = random.Random(21)
    for _ in range(40):
        f = FreeEndomorphism([rand_elem(rng, F23), rand_elem(rng, F23)])
        g = FreeEndomorphism([rand_elem(rng, F23), rand_elem(rng, F23)])
        assert (f.compose(g)).matrix() == f.matrix() * g.matrix()


def test_int_matrix_det_known_values():
    assert IntMatrix([[2, 1], [0, 1]]).det == 2
    assert IntMatrix([[0, 0, 1], [0, -1, 0], [1, 1, 0]]).det == 1
    assert IntMatrix([[1, 2, 0, 1], [0, 1, 3, 0], [2, 0, 1, 1], [1, 1, 0, 2]]).det == 16
    with pytest.raises(ValueError):
        IntMatrix([[1, 2, 3], [4, 5, 6]])


# -- series oracle -------------------------------------------------------------------

def test_series_identity_and_generator():
    one = TruncatedSeries.one(2, 3)
    assert magnus_embed(F23.identity) == one
    assert magnus_embed(X).terms == {(): 1, (0,): 1}


def test_series_of_bracket_frozen():
    # regression fixture: direct truncated expansion of y^-1 x^-1 y x
    got = dict(magnus_embed(C).terms)
    assert got == {
        (): 1,
        (0, 1): -1, (1, 0): 1,
        (0, 0, 1): 1, (0, 1, 0): -1, (1, 0, 1): 1, (1, 1, 0): -1,
    }


def test_series_inverse_and_power():
    s = magnus_embed(multiply(X, Y))
    assert s * s.inverse() == TruncatedSeries.one(2, 3)
    assert s ** 3 == s * s * s
    assert s ** -2 == (s.inverse()) ** 2
    for basis in (F23, F32):
        one = TruncatedSeries.one(basis.rank, basis.nilpotency_class)
        for i in range(basis.size):
            s = symbol_series(basis, i)
            inv = s.inverse()
            assert s * inv == inv * s == one
            for n in range(-7, 8):
                expected = one
                for _ in range(abs(n)):
                    expected = expected * (s if n > 0 else inv)
                assert s ** n == expected
    with pytest.raises(ValueError):
        TruncatedSeries(2, 3, {(): 2, (0,): 1}) ** 2


def test_series_multiplicative_on_embedding():
    rng = random.Random(17)
    for _ in range(100):
        a, b = rand_elem(rng, F23), rand_elem(rng, F23)
        assert magnus_embed(multiply(a, b)) == magnus_embed(a) * magnus_embed(b)


@pytest.mark.parametrize("basis", [F23, F32], ids=["F23", "F32"])
def test_oracle_equivalence_sample(basis):
    rng = random.Random(23)
    for _ in range(1500):
        word = rand_word(rng, basis)
        assert magnus_embed(collect(basis, word)) == word_series(basis, word)


@pytest.mark.parametrize("basis", [F23, F32], ids=["F23", "F32"])
def test_collect_large_and_negative_exponents(basis):
    # exponents up to 10^4 in size reach C(n, 2) of large negatives, which
    # the +-9 words above do not; collecting the tail of a word onto the
    # normal form of its head equals collecting the whole word
    rng = random.Random(41)
    for _ in range(300):
        word = [(rng.randrange(basis.size),
                 rng.choice((-1, 1)) * rng.randint(1, 10 ** 4))
                for _ in range(rng.randrange(0, 12))]
        whole = collect(basis, word)
        assert magnus_embed(whole) == word_series(basis, word)
        k = rng.randrange(len(word) + 1)
        head = collect(basis, word[:k]).exponents
        assert _collect_onto(basis, head, word[k:]) == whole.exponents


def test_series_injective_on_small_forms():
    seen = {}
    for i in range(-2, 3):
        for j in range(-2, 3):
            for k in range(-1, 2):
                elem = F23.element((i, j, k, 0, 0))
                key = tuple(magnus_embed(elem).items_sorted())
                assert key not in seen
                seen[key] = elem
