import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spaceform.errors import ConfigError, NonLorentz
from spaceform.liegroup import (
    MINKOWSKI,
    GeneratorSpec,
    displayed_q,
    induced_action,
    lorentz_generator,
    phi_check,
    word_matrix,
)


def test_generator_spec_validation():
    GeneratorSpec(1, 1, 0.5)
    with pytest.raises(ConfigError):
        GeneratorSpec(4, 1, 0.5)
    with pytest.raises(ConfigError):
        GeneratorSpec(1, 3, 0.5)
    with pytest.raises(ConfigError):
        GeneratorSpec(1, 1, float("nan"))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("l", [1, 2])
def test_generators_are_lorentz(k, l):
    P = lorentz_generator(GeneratorSpec(k, l, 0.7))
    assert np.max(np.abs(P.T @ MINKOWSKI @ P - MINKOWSKI)) < 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("l", [1, 2])
def test_induced_action_matches_displayed(k, l, rng):
    for t in rng.uniform(-2.0, 2.0, size=5):
        g = GeneratorSpec(k, l, float(t))
        q = induced_action(lorentz_generator(g))
        assert np.max(np.abs(q - displayed_q(g))) < 1e-13


def test_induced_action_at_zero_parameter_is_identity():
    for k in (1, 2, 3):
        for l in (1, 2):
            q = induced_action(lorentz_generator(GeneratorSpec(k, l, 0.0)))
            assert np.allclose(q, np.eye(3))


def test_central_element_maps_to_identity():
    q = induced_action(-np.eye(4))
    assert np.max(np.abs(q - np.eye(3))) == 0.0


def test_non_lorentz_matrix_rejected():
    with pytest.raises(NonLorentz):
        induced_action(2.0 * np.eye(4))
    with pytest.raises(NonLorentz):
        induced_action(np.eye(3))


def test_non_lorentz_gate_fails_on_nan():
    P = np.eye(4)
    P[1, 2] = np.nan
    with pytest.raises(NonLorentz, match="P\\^t g P = g at"):
        induced_action(P)


@pytest.mark.parametrize("flip", [2, 3])
def test_reflections_leak_out_of_the_selfdual_triple(flip):
    """A reflection preserves the Minkowski form but sends each Theta to
    its conjugate; the gate names the (row, column) of the leak, so a
    quarter turn first moves it off the diagonal."""
    P = np.eye(4)
    P[flip, flip] = -1.0
    turn = lorentz_generator(GeneratorSpec(3, 1, np.pi / 2))
    for Q, where in ((P, (0, 0)), (P @ turn, (0, 1))):
        with pytest.raises(NonLorentz, match="preserves the self-dual subspace") as exc:
            induced_action(Q)
        assert exc.value.location == where


def test_word_matrix_order():
    a = GeneratorSpec(1, 1, 0.3)
    b = GeneratorSpec(2, 2, 0.4)
    expect = lorentz_generator(a) @ lorentz_generator(b)
    assert np.allclose(word_matrix([a, b]), expect)


def test_phi_check_homomorphism(rng):
    words = [[GeneratorSpec(int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                            float(rng.uniform(-1.0, 1.0))) for _ in range(4)]
             for _ in range(25)]
    assert phi_check(words) < 1e-10


_generators = st.builds(GeneratorSpec, st.integers(1, 3), st.integers(1, 2),
                        st.floats(-1.0, 1.0))


@given(st.lists(st.lists(_generators, min_size=1, max_size=6), min_size=1, max_size=4))
def test_phi_check_homomorphism_on_random_words(words):
    """The induced action of a word's product is the product of the
    displayed images, complex-orthogonal with unit determinant."""
    assert phi_check(words) < 1e-10


def test_images_are_complex_orthogonal(rng):
    for _ in range(10):
        g = GeneratorSpec(int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                          float(rng.uniform(-1.5, 1.5)))
        q = displayed_q(g)
        assert np.max(np.abs(q.T @ q - np.eye(3))) < 1e-14
        assert abs(np.linalg.det(q) - 1.0) < 1e-14
