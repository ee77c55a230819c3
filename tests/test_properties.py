"""Seeded randomized soundness checks for the series kernel."""

import random

import _props


SEED = 20260825


def test_ring_axioms():
    assert _props.check_ring_axioms(random.Random(SEED), 150) == 150


def test_inverse_two_sided_1000():
    assert _props.check_inverse(random.Random(SEED + 1), 1000) == 1000


def test_delta_q_is_derivation():
    assert _props.check_derivation(random.Random(SEED + 2), 150) == 150


def test_truncation_soundness():
    assert _props.check_truncation_soundness(random.Random(SEED + 3), 150) == 150


def test_bound_validation():
    assert _props.check_bound_validation(random.Random(SEED + 4), 50) == 50


def test_substitution_resummation():
    assert _props.check_substitution_resummation(random.Random(SEED + 5), 100) == 100


def test_prefactor_reach():
    done, zeros, laurent = _props.check_prefactor_reach(random.Random(SEED + 6), 400)
    assert done == 400 and zeros and laurent  # the zero series and Laurent series were drawn


def test_eval_many_names_in_one_pass():
    done, zeros, poles, fractions = _props.check_eval_many(random.Random(SEED + 7), 600)
    assert done == 600 and zeros and poles and fractions
