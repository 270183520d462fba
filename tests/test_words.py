import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmzv.constructor import classical_expansion_word, expansion_word
from qmzv.errors import AdmissibilityError, MembershipError, ParameterError
from qmzv.genfun import MultiPoly, verify_g_diff, verify_recurrence
from qmzv.models import check_window, xi_value, zeta_bz_finite, zeta_infinite
from qmzv.verify import SuiteConfig
from qmzv.words import (
    BAR1,
    H0,
    H1,
    HGEQ2,
    AlgebraElement,
    BarIndex,
    bar_from_pairs,
    check_index,
    element_from_json,
    element_to_json,
    format_element,
    format_word,
    index_from_word,
    index_weight,
    interleave_pairs,
    pair_weight,
    pairs_from_bar,
    pairs_from_sz,
    theta,
    weight,
    word_from_index,
    word_in,
)


def all_indices(max_weight):
    """All composition indices of weight <= max_weight, the empty one included."""
    out = [()]
    for w in range(1, max_weight + 1):
        for r in range(1, w + 1):
            for cuts in itertools.combinations(range(1, w), r - 1):
                bounds = (0,) + cuts + (w,)
                out.append(tuple(bounds[i + 1] - bounds[i] for i in range(r)))
    return out


def test_word_from_index_examples():
    assert word_from_index(()) == ""
    assert word_from_index((1,)) == "y"
    assert word_from_index((2,)) == "yx"
    assert word_from_index((3, 1)) == "yxxy"
    assert word_from_index((1, 2)) == "yyx"


def test_index_round_trip_exhaustive_weight_8():
    ks = all_indices(8)
    # compositions of weight w come in 2^(w-1) flavors; plus the empty index
    assert len(ks) == 1 + sum(2 ** (w - 1) for w in range(1, 9))
    for k in ks:
        assert index_from_word(word_from_index(k)) == k


def test_index_from_word_rejects_non_h1():
    with pytest.raises(MembershipError):
        index_from_word("xy")
    with pytest.raises(ParameterError):
        index_from_word("yza")


def test_membership_examples():
    assert word_in("", H1) and word_in("", H0) and word_in("", HGEQ2)
    assert word_in("yxxy", H1)
    assert not word_in("xy", H1)
    assert word_in("yx", H0)
    assert not word_in("y", H0)
    assert word_in("yxx", HGEQ2)
    assert word_in("yxyx", HGEQ2)
    assert not word_in("yxy", HGEQ2)
    assert not word_in("yyx", HGEQ2)


def test_space_inclusions_on_random_generated_elements():
    rng = random.Random(7)
    for _ in range(1000):
        # a random product of HGEQ2 generator blocks: yx then x | yx blocks
        blocks = ["yx"] + [rng.choice(["x", "yx"]) for _ in range(rng.randrange(4))]
        w = "".join(blocks)
        assert word_in(w, HGEQ2)
        assert word_in(w, H0)
        assert word_in(w, H1)


def test_theta_signs_and_involution():
    u = AlgebraElement({"y": 1, "yx": 2, "yxx": -1})
    t = theta(u)
    assert t.coeff("y") == -1
    assert t.coeff("yx") == 2
    assert t.coeff("yxx") == 1
    assert theta(t) == u


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.text(alphabet="xy", max_size=5), st.integers(-5, 5), max_size=6
    )
)
def test_theta_is_an_involution(terms):
    u = AlgebraElement(terms)
    assert theta(theta(u)) == u


def test_element_canonicalization():
    u = AlgebraElement({"y": 1}) + AlgebraElement({"y": -1})
    assert u.is_zero()
    v = AlgebraElement({"yx": 2, "y": 0})
    assert v.terms() == (("yx", 2),)
    # rebuilding from terms is the identity
    assert AlgebraElement(dict(v.terms())) == v


def test_element_product_concatenates():
    a = AlgebraElement({"y": 1, "yx": -2})
    b = AlgebraElement({"x": 3})
    prod = a * b
    assert prod.terms() == (("yx", 3), ("yxx", -6))
    assert 2 * a == a + a


def random_terms(rng):
    """A dict of up to six words of length <= 4 with signed coefficients,
    zeros included."""
    words = ["".join(rng.choice("xy") for _ in range(rng.randrange(5))) for _ in range(6)]
    return {w: rng.randint(-3, 3) for w in words[: rng.randrange(7)]}


def plain_sum(*dicts):
    out = {}
    for d in dicts:
        for w, c in d.items():
            out[w] = out.get(w, 0) + c
    return out


def test_trusted_algebra_matches_checked_constructor():
    # every operation builds its result unchecked; each must equal the element
    # the checked constructor makes from the same terms computed on plain dicts
    for seed in range(200):
        rng = random.Random(seed)
        a, b = random_terms(rng), random_terms(rng)
        u, v = AlgebraElement(a), AlgebraElement(b)
        n = rng.randint(-2, 2)
        cases = [
            (u + v, plain_sum(a, b)),
            (u - v, plain_sum(a, {w: -c for w, c in b.items()})),
            (u + (-u), {}),
            (-u, {w: -c for w, c in a.items()}),
            (n * u, {w: n * c for w, c in a.items()}),
            (u * n, {w: n * c for w, c in a.items()}),
            (0 * u, {}),
            (u * v, plain_sum(*({w1 + w2: c1 * c2} for w1, c1 in a.items()
                                for w2, c2 in b.items()))),
            (theta(u), {w: -c if len(w) % 2 else c for w, c in a.items()}),
        ]
        for got, terms in cases:
            want = AlgebraElement(terms)
            assert got == want and hash(got) == hash(want), (seed, got, want)
            assert got.terms() == want.terms(), (seed, got.terms())
            assert [w for w, _ in got.terms()] == sorted(w for w, _ in got.terms())
            assert all(c for _, c in got.terms()), (seed, got.terms())
            assert got.is_zero() == (not any(terms.values()))


def test_element_json_round_trip_sorted():
    u = AlgebraElement({"yxx": -3, "y": 1, "yx": 2})
    doc = element_to_json(u)
    assert [t["word"] for t in doc["terms"]] == ["y", "yx", "yxx"]
    assert element_from_json(doc) == u


def test_element_from_json_reads_int_coefficients_only():
    doc = {"terms": [{"word": "y", "coeff": -3}, {"word": "yx", "coeff": "2"}]}
    assert element_from_json(doc) == AlgebraElement({"y": -3, "yx": 2})
    for coeff in (1.5, 2.0, True, "abc", "1.5", "1/2", None, [1]):
        with pytest.raises(ParameterError):  # 1.5 is not truncated to 1
            element_from_json({"terms": [{"word": "y", "coeff": coeff}]})
    for doc in ({"terms": [{"word": "z", "coeff": 1}]}, {"terms": [{"word": "y"}]},
                {"terms": 5}, {}, None):
        with pytest.raises(ParameterError):
            element_from_json(doc)


def test_element_refuses_bool_coefficients():
    # a bool coefficient would print as True, and its JSON document would not
    # read back
    for terms in ({"y": True}, {"y": 1, "yx": False}):
        with pytest.raises(ParameterError, match="must be an int"):
            AlgebraElement(terms)
    with pytest.raises(ParameterError):
        AlgebraElement.word("y", True)


def test_element_from_json_refuses_a_repeated_word():
    doc = {"terms": [{"word": "y", "coeff": 1}, {"word": "y", "coeff": 2}]}
    with pytest.raises(ParameterError, match="listed twice"):
        element_from_json(doc)


def test_format_word_and_element():
    assert format_word("") == "1"
    assert format_word("yxxy") == "y x^2 y"
    assert format_word("yxx") == "y x^2"
    u = AlgebraElement({"yxx": 1, "y": -2})
    assert format_element(u) == "-2 y + y x^2"
    assert format_element(AlgebraElement.zero()) == "0"


def test_bar_index_admissibility_and_weight():
    assert BarIndex((BAR1, 2)).is_admissible()
    assert not BarIndex((2, BAR1)).is_admissible()
    assert BarIndex(()).is_admissible()
    assert BarIndex((BAR1, BAR1, 3, 1)).weight() == 6
    assert weight(BarIndex((BAR1, 2))) == 3


def test_pair_codec_examples():
    assert pairs_from_bar(BarIndex((BAR1, 2))) == (2, 2)
    assert pairs_from_bar(BarIndex((3,))) == (1, 3)
    assert pairs_from_bar(BarIndex((BAR1, BAR1, 1, 2))) == (3, 1, 1, 2)
    assert bar_from_pairs((2, 2)).entries == (BAR1, 2)
    with pytest.raises(AdmissibilityError):
        pairs_from_bar(BarIndex((2, BAR1)))
    assert interleave_pairs((3, 1), (1, 2)) == (3, 1, 1, 2)
    assert interleave_pairs((), ()) == ()
    with pytest.raises(ParameterError):
        interleave_pairs((1, 2), (1,))
    with pytest.raises(ParameterError):
        interleave_pairs((0,), (1,))
    with pytest.raises(ParameterError, match="^l must be a sequence"):
        interleave_pairs(None, (1,))
    with pytest.raises(ParameterError, match="^k must be a sequence"):
        interleave_pairs((1,), 5)


def test_pair_codec_round_trip():
    for flat in itertools.product(range(1, 4), repeat=4):
        k = bar_from_pairs(flat)
        assert k.is_admissible()
        assert pairs_from_bar(k) == flat
        assert k.weight() == pair_weight(flat)


def test_check_index_rejects_non_sequences():
    assert check_index([2, 1]) == (2, 1)
    for bad in (None, 5):
        with pytest.raises(ParameterError, match="^k must be a sequence"):
            check_index(bad, "k")
    with pytest.raises(ParameterError, match="^index entries"):
        check_index((1, 0))
    with pytest.raises(ParameterError, match="^pair sequence must be"):
        bar_from_pairs(None)


# Each call passes a bool for a count, window bound or eps, or the float 1.0
# for eps; bool is an int subclass and 1.0 == 1, so an isinstance-only or
# membership-only check lets them through.
@pytest.mark.parametrize("call", [
    lambda: zeta_bz_finite((1,), N=True, order=3),
    lambda: MultiPoly(True, 1, 3),
    lambda: verify_g_diff(0, True, 3, 1, 1, 4),
    lambda: verify_recurrence(True, 0, 2, 1, 1, 4),
    lambda: expansion_word(1.0, (1, 1)),
    lambda: classical_expansion_word(1.0, (2, 1)),
    lambda: xi_value(1.0, (1, 1), N=3, order=4),
    lambda: check_window(True, 3),
    lambda: SuiteConfig(max_N=True),
], ids=[
    "bz-finite-N", "multipoly-nvars", "g-diff-M", "recurrence-eps", "expansion-eps",
    "classical-expansion-eps", "xi-eps", "window-M", "suite-config-max_N",
])
def test_scalar_checks_refuse_bool_and_float(call):
    with pytest.raises(ParameterError):
        call()


def test_zero_padded_index_has_one_validator():
    assert pairs_from_sz((0, 0, 2, 1)) == (3, 2, 1, 1)
    for call in (lambda k: pairs_from_sz(k), lambda k: zeta_infinite("sz", k, order=4)):
        with pytest.raises(ParameterError, match="^zero-padded index must be a sequence"):
            call(None)
        with pytest.raises(AdmissibilityError, match="ends with 0"):
            call((2, 0))
        with pytest.raises(ParameterError, match="^zero-padded index entries"):
            call((1, -1, 2))


def test_weights():
    assert index_weight((2, 3)) == 5
    assert pair_weight((2, 1)) == 2
    assert pair_weight((2, 1, 1, 3)) == 5
    assert weight("yxxy") == 4
    assert weight((2, 3)) == 5
