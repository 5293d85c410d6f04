"""The simultaneous eating protocol: event exactness, SD-envy-freeness."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fairlot.core import InputError, Instance, sd_dominates
from fairlot.eating import EatingState, eat, eat_full

from conftest import random_goods
from oracles import eating_exhausted, eating_run, eating_targets

F = Fraction
ONE = Fraction(1)
HALF = Fraction(1, 2)


class TestEat:
    def test_swap4_first_unit(self, swap4):
        # both favor g1; they split it, then diverge to g2 and g3
        x = eat(swap4, [1, 1, 1, 1], 1)
        assert x.matrix == (
            (HALF, HALF, Fraction(0), Fraction(0)),
            (HALF, Fraction(0), HALF, Fraction(0)),
        )

    def test_single_agent_eats_in_order(self):
        inst = Instance.from_rows([[1, 3, 2]])
        x = eat(inst, [1, 1, 1], 1)
        assert x.matrix[0] == (Fraction(0), ONE, Fraction(0))
        x2 = eat(inst, [1, 1, 1], Fraction(5, 2))
        assert x2.matrix[0] == (HALF, ONE, ONE)

    def test_two_identical_agents_one_item_idle_after_half(self):
        inst = Instance.from_rows([[2], [2]])
        x = eat(inst, [1], 1)
        assert x.matrix == ((HALF,), (HALF,))

    def test_zero_duration(self, swap4):
        x = eat(swap4, [1, 1, 1, 1], 0)
        assert all(v == 0 for row in x.matrix for v in row)

    def test_partial_masses(self):
        inst = Instance.from_rows([[3, 1], [3, 1]])
        x = eat(inst, [Fraction(1, 2), 1], 1)
        # g1 (mass 1/2) splits at t=1/4; both move to g2
        assert x.matrix == (
            (Fraction(1, 4), Fraction(1, 2)),
            (Fraction(1, 4), Fraction(1, 2)),
        )

    def test_negative_duration_rejected(self, swap4):
        with pytest.raises(InputError):
            eat(swap4, [1, 1, 1, 1], -1)

    def test_wrong_mass_vector_length(self, swap4):
        with pytest.raises(InputError):
            eat(swap4, [1, 1], 1)

    def test_prefs_override(self, swap4):
        flipped = ((3, 2, 1, 0), (3, 2, 1, 0))
        x = eat(swap4, [1, 1, 1, 1], 1, prefs=flipped)
        assert x.matrix[0] == (Fraction(0), Fraction(0), HALF, HALF)


class TestEatFull:
    def test_swap4_classic_outcome(self, swap4):
        x = eat_full(swap4)
        assert x.matrix == (
            (HALF, ONE, Fraction(0), HALF),
            (HALF, Fraction(0), ONE, HALF),
        )
        assert x.complete

    def test_distinct_favorites_permutation(self):
        inst = Instance.from_rows([[9, 1, 1], [1, 9, 1], [1, 1, 9]])
        x = eat_full(inst)
        assert x.to_integral().bundles == ((0,), (1,), (2,))

    def test_bads_ordinal_input_splits_everything(self, bads3):
        x = eat_full(bads3)
        assert x.matrix == ((HALF, HALF, HALF), (HALF, HALF, HALF))


class TestStateMechanics:
    def test_targets_point_to_best_available(self, swap4):
        state = EatingState.start(swap4.prefs, (ONE, ONE, ONE, ONE))
        assert eating_targets(state) == (0, 0)
        later = state.run(HALF)
        assert eating_targets(later) == (1, 2)

    def test_mass_conservation_at_events(self, swap4):
        masses = (ONE, HALF, Fraction(3, 4), Fraction(1, 4))
        state = EatingState.start(swap4.prefs, masses)
        for _ in range(16):
            if eating_exhausted(state):
                break
            state = state.run(Fraction(1, 8))
            for j in range(4):
                eaten_j = sum(state.eaten[i][j] for i in range(2))
                assert state.remaining[j] + eaten_j == masses[j]

    def test_invalid_masses_rejected(self, swap4):
        with pytest.raises(InputError):
            EatingState.start(swap4.prefs, (Fraction(3, 2), ONE, ONE, ONE))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_unit_eating_is_sd_envy_free(seed):
    # each agent eats her favorite available item at all times, so every
    # prefix of her own plate weakly beats the same prefix of anyone else's
    rng = random.Random(seed)
    inst = random_goods(rng, n_max=4, m_max=7)
    masses = [Fraction(rng.randint(0, 4), 4) for _ in range(inst.m)]
    if sum(masses) == 0:
        masses[0] = ONE
    x = eat(inst, masses, 1)
    for i in range(inst.n):
        for h in range(inst.n):
            assert sd_dominates(inst.prefs, i, x.row(i), x.row(h))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_row_sums_track_the_clock(seed):
    rng = random.Random(seed)
    inst = random_goods(rng, n_max=4, m_max=7)
    masses = [ONE] * inst.m
    duration = Fraction(rng.randint(0, 8), 4)
    x = eat(inst, masses, duration)
    horizon = min(duration, Fraction(inst.m, inst.n))
    for i in range(inst.n):
        assert sum(x.row(i), Fraction(0)) == horizon


def test_run_matches_fraction_events():
    # the integer event loop against the Fraction reference events, on
    # fractional masses, partial preference orders, and runs resumed mid-way
    rng = random.Random(3131)
    moved = 0
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(0, 6)
        prefs = []
        for _ in range(n):
            order = rng.sample(range(m), m)
            prefs.append(order[: rng.randint(0, m)] if rng.random() < 0.2 else order)
        state = EatingState.start(prefs, [F(rng.randint(0, q), q) for q in (rng.randint(1, 7) for _ in range(m))])
        for _ in range(rng.randint(1, 3)):
            duration = F(rng.randint(0, 9), rng.randint(1, 6))
            after = state.run(duration)
            assert after == eating_run(state, duration)
            moved += after != state
            state = after
    assert moved > 200
