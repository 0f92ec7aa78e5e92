"""Tangency sequence arithmetic and state validation."""

import pytest

from severi.tangency import (
    InvalidState,
    canonical,
    seq_from_text,
    seq_to_text,
    state_key,
    weight,
)


def test_canonical_trims_trailing_zeros():
    assert canonical([2, 0, 1, 0, 0]) == (2, 0, 1)
    assert canonical([0, 0]) == ()
    assert canonical([]) == ()


def test_canonical_rejects_negative_parts():
    with pytest.raises(ValueError):
        canonical([1, -1])


def test_weight():
    assert weight((2,)) == 2
    assert weight((0, 1)) == 2
    assert weight(()) == 0
    assert weight((1, 2, 3)) == 1 + 4 + 9


def test_text_form():
    assert seq_to_text((2, 0, 1)) == "2,0,1"
    assert seq_to_text(()) == ""
    assert seq_from_text("2,0,1") == (2, 0, 1)
    assert seq_from_text("") == ()
    assert seq_from_text("2,0,1,0") == (2, 0, 1)  # canonicalized
    with pytest.raises(ValueError):
        seq_from_text("2,x")


def test_state_validates_weight():
    assert state_key(3, 1, (1,), (2,)) == (3, 1, (1,), (2,))
    with pytest.raises(InvalidState):
        state_key(3, 1, (1,), (1,))
    with pytest.raises(InvalidState):
        state_key(0, 0, (), ())
    with pytest.raises(InvalidState):
        state_key(2, -1, (), (2,))


def test_state_refuses_numbers_that_are_not_ints():
    for d, delta, alpha, beta in ((3.0, 1, (1,), (2,)), (3, 1.0, (1,), (2,)),
                                  (3, 1, (1.0,), (2,)), (3, 1, (1,), (2.0,))):
        with pytest.raises(InvalidState):
            state_key(d, delta, alpha, beta)


def test_state_canonicalizes_on_build():
    _, _, alpha, beta = state_key(2, 0, (0, 1, 0), (0,))
    assert alpha == (0, 1)
    assert beta == ()
