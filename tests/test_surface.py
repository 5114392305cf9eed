"""Surface assembly, interpolation, boundary extraction, rate map.

The rate map (the threshold rule) and its mask-chained oracle are tested
on a hand-worked mask pattern:
with rates (0.9, 0.6, 0.3, 0.0) and contact masks

    rung 1: node0 off, nodes 1.. on
    rung 2: nodes 0,1 off, nodes 2.. on
    rung 3: node0 off, nodes 1.. on

node 1 at rung 3 chains one step (rung 3 contacts rung 2 there) but rung 2
does not contact rung 1, so the reachable rate is 0.3, not 0.9.
"""

import re

import numpy as np
import pytest

from divratchet import (
    DomainTooSmall,
    Exponential,
    Grid,
    ModelParams,
    RateOutOfRange,
    ValidationError,
)
from divratchet.ladder import RateLadder, solve_ladder
from divratchet.simulate import FrontierSchedule
from divratchet.surface import (
    ValueSurface,
    build_rate_map,
    contact_scan,
    extract_boundary,
    ratchet_thresholds,
)
from rate_map_reference import chained_rate_map

M2 = ModelParams(mu=2.0, lam=2.0, r=0.1, ell=2.0, c_bar=1.2, c_floor=0.0)
D2 = Exponential(0.6)
G2 = Grid(L=20.0, n_x=800)


@pytest.fixture(scope="module")
def surf2():
    lad = RateLadder(64, 1.2, 0.0)
    return solve_ladder(M2, D2, G2, lad, update_tol=1e-11)


def synthetic_surface(masks, rates_spec, values=None, m=None, grid=None):
    """Assemble a ValueSurface from raw mask/value rows (structure tests)."""
    n_rungs, c_bar, c_floor = rates_spec
    m = m or ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.5, c_bar=c_bar, c_floor=c_floor)
    grid = grid or Grid(L=8.0, n_x=64)
    lad = RateLadder(n_rungs, c_bar, c_floor)
    shape = (n_rungs + 1, grid.n_x + 1)
    if values is None:
        values = np.arange(n_rungs + 1.0)[:, None] + np.zeros(shape)
    return ValueSurface(
        m, grid, lad,
        np.asarray(values, float), np.zeros(shape), np.asarray(masks, bool),
        np.zeros(n_rungs + 1, dtype=np.int64), np.zeros(n_rungs + 1),
    )


def pattern_masks(n_rungs, n_nodes, first_true):
    """Row i is True from node first_true[i] on (rung 0 all True)."""
    masks = [np.ones(n_nodes, bool)]
    for i in range(1, n_rungs + 1):
        row = np.zeros(n_nodes, bool)
        row[first_true[i] :] = True
        masks.append(row)
    return masks


class TestRateMapOracle:
    # both the threshold rule of build_rate_map and the mask chain
    rules = (build_rate_map, chained_rate_map)

    def test_hand_worked_chain(self):
        n_nodes = 65
        masks = pattern_masks(3, n_nodes, {1: 1, 2: 2, 3: 1})
        surf = synthetic_surface(masks, (3, 0.9, 0.0))
        for rule in self.rules:
            rm = rule(surf)
            np.testing.assert_allclose(rm[0][:4], [0.9, 0.9, 0.9, 0.9])
            np.testing.assert_allclose(rm[1][:4], [0.6, 0.9, 0.9, 0.9])
            np.testing.assert_allclose(rm[2][:4], [0.3, 0.3, 0.9, 0.9])
            # node 1 chains only one rung up: the broken link at rung 2 stops it
            np.testing.assert_allclose(rm[3][:4], [0.0, 0.3, 0.9, 0.9])

    def test_full_contact_maps_to_cap(self):
        masks = [np.ones(65, bool)] * 4
        surf = synthetic_surface(masks, (3, 0.9, 0.0))
        for rule in self.rules:
            assert np.all(rule(surf) == 0.9)


def test_rules_part_only_at_a_mask_hole():
    # a hole right of rung 2's threshold breaks the chain there, while the
    # threshold rule has already ratcheted past it
    masks = pattern_masks(3, 65, {1: 1, 2: 2, 3: 1})
    masks[2][5] = False
    surf = synthetic_surface(masks, (3, 0.9, 0.0))
    rm, chain = build_rate_map(surf), chained_rate_map(surf)
    assert contact_scan(np.asarray(masks[1:]))[1].sum() == 1
    assert np.argwhere(rm != chain).tolist() == [[2, 5], [3, 5]]
    assert rm[2, 5] == rm[3, 5] == 0.9


class TestValueInterpolation:
    def test_reproduces_bilinear(self):
        grid = Grid(L=8.0, n_x=64)
        lad_rates = (4, 1.0, 0.0)
        lad = RateLadder(*lad_rates)
        rows = [2.0 + 3.0 * grid.nodes - 5.0 * r for r in lad.rates]
        masks = [np.ones(65, bool)] * 5
        surf = synthetic_surface(masks, lad_rates, values=rows, grid=grid)
        for x, c in [(0.0, 1.0), (1.23, 0.4), (7.9, 0.77), (3.3333, 0.0)]:
            assert surf.value_at(x, c) == pytest.approx(2.0 + 3.0 * x - 5.0 * c, abs=1e-12)

    def test_exact_at_lattice_points(self, surf2):
        for i, j in [(0, 0), (12, 100), (64, 0), (64, 800), (33, 417)]:
            x = j * G2.dx
            c = float(surf2.rates[i])
            assert surf2.value_at(x, c) == surf2.v[i, j]

    def test_far_field(self, surf2):
        assert surf2.value_at(25.0, 0.5) == M2.c_bar / M2.r
        assert surf2.value_at(G2.L, 0.5) == M2.c_bar / M2.r

    def test_injection_extension_exact(self, surf2):
        for c in (0.0, 0.61, 1.2):
            v0 = surf2.value_at(0.0, c)
            assert surf2.value_at(-1.0, c) == v0 - M2.ell
            assert surf2.value_at(-2.5, c) == v0 + M2.ell * (-2.5)

    def test_rate_out_of_range(self, surf2):
        with pytest.raises(RateOutOfRange):
            surf2.value_at(1.0, 1.3)
        with pytest.raises(RateOutOfRange):
            surf2.value_at(1.0, -0.1)
        with pytest.raises(RateOutOfRange):
            FrontierSchedule(M2, ratchet_thresholds(surf2), [1.3])

    def test_monotone_in_c_downward(self, surf2):
        # lower current rate = more options: value nondecreasing as c drops
        vals = [surf2.value_at(2.0, c) for c in np.linspace(1.2, 0.0, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestBoundaryExtraction:
    def test_known_pattern(self):
        masks = pattern_masks(3, 65, {1: 4, 2: 8, 3: 2})
        surf = synthetic_surface(masks, (3, 0.9, 0.0))
        fb = extract_boundary(surf)
        dx = surf.grid.dx
        np.testing.assert_allclose(fb.x_star, [4 * dx, 4 * dx, 8 * dx, 2 * dx])
        assert fb.up_closure_violations.sum() == 0

    def test_violation_counted(self):
        masks = pattern_masks(2, 65, {1: 4, 2: 6})
        masks[1][10] = False  # hole right of the threshold
        surf = synthetic_surface(masks, (2, 0.9, 0.0))
        fb = extract_boundary(surf)
        assert fb.up_closure_violations[1] == 1
        assert fb.up_closure_violations[2] == 0

    def test_domain_too_small(self):
        masks = pattern_masks(1, 65, {1: 60})  # first contact at 0.94 L
        surf = synthetic_surface(masks, (1, 0.9, 0.0))
        # the message of solve_ladder's trust rule, which is the same rule
        msg = "rung 1 (rate 0): no switch node at or below 0.8 L = 6.4; enlarge the domain"
        with pytest.raises(DomainTooSmall, match=re.escape(msg)):
            extract_boundary(surf)

    def test_contact_scan(self):
        # a clean upper interval, a hole above the threshold, no contact
        masks = np.zeros((3, 9), dtype=bool)
        masks[0, 3:] = True
        masks[1, [2, 4, 5, 8]] = True
        first, free = contact_scan(masks)
        assert first.tolist() == [3, 2, 9] and free.tolist() == [0, 3, 0]
        one = contact_scan(masks[1])
        assert (int(one[0]), int(one[1])) == (2, 3)

    def test_solved_surface(self, surf2):
        fb = extract_boundary(surf2)
        assert fb.x_star[0] == fb.x_star[1]
        assert fb.x_star.max() <= 0.8 * G2.L
        assert fb.x_star.min() >= 0.0
        assert fb.up_closure_violations.sum() == 0
        assert fb.gradient_at_zero.shape == (65,)


def schedule_rate(surface, x, c):
    """The ratchet's rate while its running maximum sits at x, from rate c:
    the simulator's lookup of the thresholds' rate runs."""
    return float(FrontierSchedule(surface.m, ratchet_thresholds(surface), [c]).rate_at(x))


class TestEquivalentRate:
    def test_beyond_thresholds_is_cap(self, surf2):
        fb = extract_boundary(surf2)
        x = fb.x_star.max() + G2.dx
        for c in (0.0, 0.6, 1.2):
            assert schedule_rate(surf2, x, c) == M2.c_bar

    def test_never_below_own_rate(self, surf2):
        rm = build_rate_map(surf2)
        for i in range(surf2.ladder.n + 1):
            assert np.all(rm[i] >= surf2.rates[i] - 1e-12)

    def test_monotone_in_x(self, surf2):
        rm = build_rate_map(surf2)
        assert np.all(np.diff(rm, axis=1) >= 0.0)

    def test_rate_snaps_up(self, surf2):
        # a rate strictly inside a rung interval must use the rung above
        rm = build_rate_map(surf2)
        dc = surf2.ladder.dc
        c_mid = float(surf2.rates[3]) - 0.5 * dc
        got = schedule_rate(surf2, 0.0, c_mid)
        assert got == rm[3, 0]

    def test_right_continuous_in_x(self, surf2):
        rm = build_rate_map(surf2)
        j = 150
        at_node = schedule_rate(surf2, j * G2.dx, 0.0)
        just_left = schedule_rate(surf2, j * G2.dx - 1e-9, 0.0)
        assert at_node == rm[64, j]
        assert just_left == rm[64, j - 1]

    def test_matches_lattice(self, surf2):
        rm = build_rate_map(surf2)
        for i, j in [(5, 0), (20, 77), (64, 400)]:
            c = float(surf2.rates[i])
            x = j * G2.dx
            assert schedule_rate(surf2, x, c) == rm[i, j]


def test_wrong_array_shapes_rejected():
    grid = Grid(L=8.0, n_x=64)
    lad = RateLadder(3, 0.9, 0.0)
    good = np.zeros((4, 65))
    steps, norms = np.zeros(4, dtype=np.int64), np.zeros(4)
    m = ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.5, c_bar=0.9, c_floor=0.0)
    ValueSurface(m, grid, lad, good, good, good.astype(bool), steps, norms)
    with pytest.raises(ValidationError):
        ValueSurface(m, grid, lad, np.zeros((3, 65)), good, good.astype(bool), steps, norms)
    with pytest.raises(ValidationError):
        ValueSurface(m, grid, lad, good, np.zeros((4, 64)), good.astype(bool), steps, norms)
    with pytest.raises(ValidationError):
        ValueSurface(m, grid, lad, good, good, good.astype(bool), steps[:3], norms)
