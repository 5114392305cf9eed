"""Obstacle-chain tests.

The dense reference solver below (`howard_reference`) solves the same
discrete complementarity system by policy iteration with direct dense
solves - finitely convergent for M-matrices - and is the independent check
that both rung solvers (banded policy iteration for exponential mixtures,
the Anderson-mixed projected-sweep Picard iteration otherwise) land on the
right solution.
"""

import numpy as np
import pytest

import divratchet._sweep as sweep_mod
import divratchet.discretization as discretization
import divratchet.ladder as ladder_mod
from divratchet import (
    DomainTooSmall,
    Exponential,
    Grid,
    HyperExponential,
    ModelParams,
    NoConvergence,
    ShiftedPareto,
    ValidationError,
    h_eval,
)
from divratchet._sweep import bordered_banded_solve
from divratchet.discretization import complementarity_defect, get_kernel, scheme_residual
from divratchet.surface import (
    DEFAULT_TOLERANCES, build_rate_map, contact_scan, extract_boundary
)
from divratchet.verify import run_invariant_suite
from divratchet.ladder import (
    PICARD_MARGIN,
    RateLadder,
    accept_rung,
    picard_rung,
    policy_rung,
    slope_growth_bound,
    solve_g,
    solve_ladder,
    solve_rung,
)
from ladder_reference import chained_slopes, reference_bordered_banded_solve
from sweep_reference import reference_picard_rung

M1 = ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)
D1 = Exponential(0.5)
M2 = ModelParams(mu=2.0, lam=2.0, r=0.1, ell=2.0, c_bar=1.2, c_floor=0.0)
D2 = Exponential(0.6)
G2 = Grid(L=20.0, n_x=800)
H2 = HyperExponential((0.7, 0.3), (0.3, 1.3))
P2 = ShiftedPareto(3.0, 1.2)


@pytest.fixture(scope="module")
def ladder2():
    return solve_ladder(M2, D2, G2, RateLadder(64, 1.2, 0.0), update_tol=1e-11)


def dense_system(m, d, grid, c, v_L):
    """Full matrix of the frozen scheme row by row, for the reference solver."""
    n = grid.n_x
    kern = get_kernel(d, grid)
    a = (m.mu - c) / grid.dx
    b = a + m.r + m.lam
    size = n + 1
    A = np.zeros((size, size))
    for j in range(n):
        A[j, j] += b
        A[j, j + 1] -= a
        # T row: convolution weights plus the reflected-tail column
        for k in range(j + 1):
            A[j, k] -= m.lam * kern.w[j - k]
        A[j, 0] += m.lam * kern.b_corr[j]
        A[j, 0] -= m.lam * kern.tail[j]
    A[n, n] = 1.0
    rhs = np.empty(size)
    rhs[:n] = c - h_eval(m, d, grid.nodes[:n])
    rhs[n] = v_L
    return A, rhs


def base_slice(m, d, grid):
    """Rung 0 (the cap-rate value g) as the first obstacle."""
    return solve_g(m, d, grid, update_tol=1e-13)


def howard_reference(m, d, grid, c, psi, v_L):
    """Policy iteration on min(A v - rhs, v - psi) = 0; exact dense solves."""
    A, rhs = dense_system(m, d, grid, c, v_L)
    n = grid.n_x
    size = n + 1
    eye = np.eye(size)
    contact = np.zeros(size, dtype=bool)
    v = None
    for _ in range(200):
        rows = np.where(contact[:, None], eye, A)
        b_eff = np.where(contact, psi, rhs)
        v = np.linalg.solve(rows, b_eff)
        res = A @ v - rhs
        new_contact = (v - psi) < res
        new_contact[n] = False  # Dirichlet row stays linear
        if np.array_equal(new_contact, contact):
            return v
        contact = new_contact
    raise AssertionError("reference policy iteration failed to settle")


class TestRateLadder:
    def test_rates_hit_endpoints(self):
        lad = RateLadder(256, 1.0, 0.0)
        assert lad.rates[0] == 1.0
        assert lad.rates[-1] == 0.0
        assert lad.dc == pytest.approx(1.0 / 256)
        assert np.all(np.diff(lad.rates) < 0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RateLadder(0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            RateLadder(8, 1.0, 1.0)

    def test_model_mismatch(self):
        with pytest.raises(ValidationError):
            solve_ladder(M1, D1, Grid(L=20.0, n_x=100), RateLadder(4, 0.9, 0.0))


class TestDegenerateChain:
    """For the first parameter set g already dominates every lower rate
    (its gradient at zero stays below 1), so each rung reproduces g."""

    def test_all_rungs_equal_g(self):
        grid = Grid(L=30.0, n_x=800)
        ladder = RateLadder(32, 1.0, 0.0)
        surface = solve_ladder(M1, D1, grid, ladder, update_tol=1e-12)
        g = surface.v[0]
        for v, mask in zip(surface.v[1:], surface.masks[1:]):
            assert np.array_equal(v, g)
            assert mask.all()
        assert (np.diff(surface.v, axis=0) / ladder.dc).max() == 0.0


class TestAgainstDenseReference:
    def test_rung_matches_howard(self):
        grid = Grid(L=12.0, n_x=96)
        prev = solve_g(M2, D2, grid, update_tol=1e-13)
        for c in (1.0, 0.8, 0.6):
            s = solve_rung(
                prev.v, c, M2, get_kernel(D2, grid), h_eval(M2, D2, grid.nodes), update_tol=1e-13
            )
            ref = howard_reference(M2, D2, grid, c, prev.v, prev.v[-1])
            assert np.max(np.abs(s.v - ref)) < 1e-9
            prev = s

    @pytest.mark.parametrize("d", [D2, H2], ids=["exponential", "hyperexponential"])
    def test_policy_rungs_match_howard(self, d):
        grid = Grid(L=12.0, n_x=96)
        prev = base_slice(M2, d, grid)
        assert get_kernel(d, grid).has_recursion()
        for c in (1.0, 0.8, 0.6):
            s = solve_rung(prev.v, c, M2, get_kernel(d, grid), h_eval(M2, d, grid.nodes))
            ref = howard_reference(M2, d, grid, c, prev.v, prev.v[-1])
            assert np.max(np.abs(s.v - ref)) < 1e-11
            assert s.iterations <= 10  # policy steps, not sweeps
            prev = s

    def test_picard_rungs_match_howard(self):
        # Pareto claims have no recursion and keep the projected sweep
        grid = Grid(L=12.0, n_x=96)
        prev = base_slice(M2, P2, grid)
        assert not get_kernel(P2, grid).has_recursion()
        for c in (1.0, 0.8, 0.6):
            s = solve_rung(
                prev.v, c, M2, get_kernel(P2, grid), h_eval(M2, P2, grid.nodes), update_tol=1e-13
            )
            ref = howard_reference(M2, P2, grid, c, prev.v, prev.v[-1])
            assert np.max(np.abs(s.v - ref)) < 1e-9
            prev = s

    @pytest.mark.parametrize("d", [D2, H2], ids=["exponential", "hyperexponential"])
    @pytest.mark.parametrize("node0", [True, False], ids=["node0-contact", "node0-free"])
    def test_bordered_solve_matches_dense(self, d, node0):
        # one frozen-policy system against the dense matrix with identity
        # contact rows; node 0 in contact makes x_t[0] = 0 in the border
        grid = Grid(L=12.0, n_x=96)
        n = grid.n_x
        c = 0.6
        A, rhs = dense_system(M2, d, grid, c, 9.5)
        psi = np.linspace(3.0, 9.5, n + 1)
        contact = np.zeros(n, dtype=bool)
        contact[0] = node0
        contact[[5, 6, 40]] = True
        contact[70:] = True
        rows = np.where(contact)[0]
        A[rows] = np.eye(n + 1)[rows]
        rhs[rows] = psi[rows]
        ref = np.linalg.solve(A, rhs)

        kern = get_kernel(d, grid)
        a = (M2.mu - c) / grid.dx
        ab, bands, stride = kern.rung_band(a, a + M2.r + M2.lam, M2.lam)
        h = h_eval(M2, d, grid.nodes)
        v = bordered_banded_solve(
            ab, bands, stride, np.append(c - h[:n], 9.5),
            M2.lam * kern.tail[:n], contact, psi[:n],
        )
        assert np.array_equal(v[:n][contact], psi[:n][contact])
        assert np.max(np.abs(v - ref)) < 1e-11

    @pytest.mark.parametrize("d", [D2, H2], ids=["exponential", "hyperexponential"])
    def test_rung_band_rewritten_for_a_new_rate(self, d):
        # a band built for one rate and rewritten for another is bitwise the
        # band built for the second (the ladder builds one band per ladder)
        kern = get_kernel(d, Grid(L=12.0, n_x=96))
        lam = M2.lam
        ab, bands, stride = kern.rung_band(7.0, 7.0 + M2.r + lam, lam)
        fresh = kern.rung_band(5.0, 5.0 + M2.r + lam, lam)
        again = kern.rung_band(5.0, 5.0 + M2.r + lam, lam, ab)
        assert again[0] is ab
        assert np.array_equal(ab, fresh[0]) and again[1:] == fresh[1:] == (bands, stride)

    @pytest.mark.parametrize("d", [D2, H2], ids=["exponential", "hyperexponential"])
    def test_one_band_per_ladder(self, d, monkeypatch):
        # g and every rung of a 400 x 16 ladder rewrite the one band the
        # ladder makes; the surface is bitwise the one solved with a fresh
        # band for every solve
        grid, ladder = Grid(L=20.0, n_x=400), RateLadder(16, 1.2, 0.0)
        rung_band = discretization.ConvKernel.rung_band
        calls = []

        def counted(kern, a, b, lam, ab=None):
            calls.append(ab is None)
            return rung_band(kern, a, b, lam, ab)

        monkeypatch.setattr(discretization.ConvKernel, "rung_band", counted)
        v = solve_ladder(M2, d, grid, ladder).v
        assert (calls.count(True), calls.count(False)) == (1, 17)
        monkeypatch.setattr(
            discretization.ConvKernel, "rung_band",
            lambda kern, a, b, lam, ab=None: rung_band(kern, a, b, lam),
        )
        assert np.array_equal(v, solve_ladder(M2, d, grid, ladder).v)

    def test_rung_band_needs_recursion(self):
        with pytest.raises(ValidationError):
            get_kernel(P2, Grid(L=12.0, n_x=96)).rung_band(1.0, 2.0, 1.0)

    def test_policy_matches_picard_path(self):
        # README set at 800 x 32: every policy rung against the projected
        # Picard sweep run on the same obstacle
        grid = Grid(L=20.0, n_x=800)
        surface = solve_ladder(M2, D2, grid, RateLadder(32, 1.2, 0.0))
        kern = get_kernel(D2, grid)
        h = h_eval(M2, D2, grid.nodes)
        for i in range(1, 33):
            v, sweeps, _, _ = picard_rung(
                surface.v[i - 1], float(surface.rates[i]), M2, kern, h, 1e-10, "test",
            )
            assert np.max(np.abs(v - surface.v[i])) < 1e-8
            assert sweeps > surface.iterations[i]
        assert surface.iterations[1:].max() <= 10

    def test_scheme_matrix_is_monotone(self):
        # off-diagonals nonpositive, diagonally dominant with row sums >= r:
        # the structure behind the obstacle-monotonicity of the solution
        grid = Grid(L=12.0, n_x=96)
        A, _ = dense_system(M2, D2, grid, 0.6, 10.0)
        off = A - np.diag(np.diag(A))
        assert off.max() <= 1e-14
        assert np.diag(A).min() > 0
        assert A[:-1].sum(axis=1).min() >= M2.r - 1e-10


H3 = HyperExponential((0.2, 0.5, 0.3), (0.1, 0.8, 4.0))


def cut_masks(n, rng):
    """Contact sets of length n: none, all, an upper interval, random, and
    an upper interval with 5% of its nodes flipped."""
    upper = np.arange(n) >= n // 3
    return {
        "none": np.zeros(n, dtype=bool),
        "all": np.ones(n, dtype=bool),
        "upper": upper,
        "random": rng.random(n) < 0.5,
        "upper-flipped": upper ^ (rng.random(n) < 0.05),
    }


class TestCutSolve:
    """`bordered_banded_solve` factors the band only up to the last free
    node; the full-band solve (`ladder_reference`) is the oracle, bitwise."""

    @pytest.mark.parametrize(
        "d", [D2, H2, H3], ids=["exponential", "hyperexponential", "mixture3"]
    )
    @pytest.mark.parametrize("n_x", [64, 200, 1000])
    @pytest.mark.parametrize("c", [0.0, 0.6, 1.2], ids=["floor", "mid", "cap"])
    @pytest.mark.parametrize("mask", ["none", "all", "upper", "random", "upper-flipped"])
    def test_matches_full_band(self, d, n_x, c, mask):
        grid = Grid(L=20.0, n_x=n_x)
        kern = get_kernel(d, grid)
        a = (M2.mu - c) / grid.dx
        ab, bands, stride = kern.rung_band(a, a + M2.r + M2.lam, M2.lam)
        h = h_eval(M2, d, grid.nodes)
        psi = M2.c_bar / M2.r * (1.0 - 0.6 * np.exp(-grid.nodes / 4.0))
        contact = cut_masks(n_x, np.random.default_rng(n_x))[mask]
        args = (ab, bands, stride, np.append(c - h[:n_x], psi[n_x]),
                M2.lam * kern.tail[:n_x], contact, psi[:n_x])
        ab_before = ab.copy()
        v = bordered_banded_solve(*args)
        assert np.array_equal(v, reference_bordered_banded_solve(*args))
        assert np.array_equal(ab, ab_before)

    def test_readme_ladder_matches_full_band(self, monkeypatch):
        # README model at 1000 x 64 (the ladder-exp size), g included
        grid = Grid(L=20.0, n_x=1000)
        ladder = RateLadder(64, 1.2, 0.0)
        cut = solve_ladder(M2, D2, grid, ladder)
        monkeypatch.setattr(ladder_mod, "bordered_banded_solve", reference_bordered_banded_solve)
        full = solve_ladder(M2, D2, grid, ladder)
        for name in ("v", "iterations"):
            assert np.array_equal(getattr(cut, name), getattr(full, name)), name


class TestAnderson:
    """Pareto rungs are Anderson-mixed projected sweeps; plain sweeps from
    the same obstacle (`sweep_reference`) are the oracle."""

    def test_pareto_rungs_match_plain_picard(self):
        grid = Grid(L=20.0, n_x=400)
        kern = get_kernel(P2, grid)
        h = h_eval(M2, P2, grid.nodes)
        psi = base_slice(M2, P2, grid).v
        for i, c in enumerate(RateLadder(16, 1.2, 0.0).rates[1:], 1):
            v, sweeps, update, _ = picard_rung(psi, float(c), M2, kern, h, 1e-10, str(i))
            ref, plain_sweeps = reference_picard_rung(psi, float(c), M2, P2, grid)
            assert update <= 1e-10
            assert np.max(np.abs(v - ref)) <= 1e-8
            assert np.array_equal(v == psi, ref == psi)
            assert sweeps < plain_sweeps
            psi = v

    def test_forced_restarts_still_converge(self, monkeypatch):
        # mixing coefficients of the wrong sign make mixed steps fail to
        # lower the residual; each failure must clear the history and fall
        # back to the plain sweep of the last accepted iterate
        grid = Grid(L=20.0, n_x=200)
        kern = get_kernel(P2, grid)
        h = h_eval(M2, P2, grid.nodes)
        psi = base_slice(M2, P2, grid).v
        c = 1.0
        gram_solve = sweep_mod._gram_solve
        monkeypatch.setattr(sweep_mod, "_gram_solve", lambda a, b: -4.0 * gram_solve(a, b))
        restarts = 0

        def watched(G, v, tol, max_iter, label):
            images = []

            def recorded(x):
                # a restart evaluates the image of the last accepted iterate,
                # two evaluations back
                nonlocal restarts
                restarts += len(images) >= 2 and np.array_equal(x, images[-2])
                images.append(G(x))
                return images[-1]

            return sweep_mod.anderson_fixed_point(recorded, v, tol, max_iter, label)

        monkeypatch.setattr(ladder_mod, "anderson_fixed_point", watched)
        v, sweeps, update, _ = picard_rung(psi, c, M2, kern, h, 1e-10, "forced")
        ref, plain_sweeps = reference_picard_rung(psi, c, M2, P2, grid)
        assert restarts >= 1
        assert update <= 1e-10
        assert np.max(np.abs(v - ref)) <= 1e-8
        assert sweeps <= 2 * plain_sweeps + 2

    def test_singular_gram_falls_back_to_least_squares(self, monkeypatch):
        # on a constant start every iterate of this map is constant, so the
        # residual differences are collinear and the Gram matrix singular:
        # the LU solve fails and least squares takes over
        lstsq = np.linalg.lstsq
        fallbacks = []

        def recorded(a, b, rcond=None):
            fallbacks.append(a.shape[0])
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", recorded)

        def G(v):
            return 0.5 * np.cos(v)

        v, evaluations, update = sweep_mod.anderson_fixed_point(G, np.zeros(8), 1e-12, 100, "toy")
        assert fallbacks and min(fallbacks) >= 2
        assert update <= 1e-12
        ref = np.zeros(8)
        for _ in range(200):
            ref = G(ref)
        assert np.max(np.abs(v - ref)) <= 1e-12
        assert evaluations < 20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sweep_raises_at_once(self, bad, capfd):
        evaluations = 0

        def G(v):
            nonlocal evaluations
            evaluations += 1
            return 0.5 * v + 1.0 if evaluations < 3 else np.full_like(v, bad)

        with pytest.raises(NoConvergence, match="toy: non-finite update after 3") as exc:
            sweep_mod.anderson_fixed_point(G, np.zeros(8), 1e-12, 10000, "toy")
        assert exc.value.iterations == 3 and evaluations == 3
        assert not np.isfinite(exc.value.update_norm)
        assert capfd.readouterr().err == ""  # no LAPACK complaint on the way

    def test_no_convergence_counts_sweeps(self, monkeypatch):
        grid = Grid(L=20.0, n_x=200)
        kern = get_kernel(P2, grid)
        h = h_eval(M2, P2, grid.nodes)
        psi = base_slice(M2, P2, grid).v
        monkeypatch.setattr(ladder_mod, "MAX_ITER", 3)
        with pytest.raises(NoConvergence, match="rung x: .* after 3 map evaluations") as exc:
            picard_rung(psi, 1.0, M2, kern, h, 1e-10, "x")
        assert exc.value.iterations == 3


def record_solve_lengths(monkeypatch):
    """Node counts of the Anderson solves that picard_rung makes."""
    lengths = []
    orig = ladder_mod.anderson_fixed_point

    def recorded(G, v, *args):
        if args[-1] != "rung g":  # not g's solve, which goes through picard_rung too
            lengths.append(v.shape[0])
        return orig(G, v, *args)

    monkeypatch.setattr(ladder_mod, "anderson_fixed_point", recorded)
    return lengths


class TestTruncatedPicard:
    """From rung 2 on, Pareto rungs sweep only up to a cut above the
    estimated free boundary; the whole-domain solve (the cut forced to n_x)
    is the oracle."""

    ladders = pytest.mark.parametrize(
        "d, n_x, n",
        [(P2, 1600, 32), (P2, 800, 16), (ShiftedPareto(2.2, 0.6), 800, 16)],
        ids=["pareto3-1600x32", "pareto3-800x16", "pareto2.2-800x16"],
    )

    @ladders
    def test_matches_whole_domain(self, d, n_x, n, monkeypatch):
        grid = Grid(L=20.0, n_x=n_x)
        ladder = RateLadder(n, 1.2, 0.0)
        tol = 1e-10
        lengths = record_solve_lengths(monkeypatch)
        cut = solve_ladder(M2, d, grid, ladder, update_tol=tol)
        # every rung from the second on was cut, and none solved again
        assert sum(k < n_x + 1 for k in lengths) == n - 1
        assert lengths.count(n_x + 1) == 1  # rung 1
        monkeypatch.setattr(ladder_mod, "PICARD_MARGIN", n_x)
        full = solve_ladder(M2, d, grid, ladder, update_tol=tol)
        assert np.array_equal(cut.masks, full.masks)
        assert np.array_equal(cut.iterations, full.iterations)
        assert np.array_equal(extract_boundary(cut).x_star, extract_boundary(full).x_star)
        assert np.array_equal(build_rate_map(cut), build_rate_map(full))
        # both stop within rho/(1 - rho) * update_tol of the same fixed point
        rho = M2.lam / (M2.r + M2.lam)
        assert np.max(np.abs(cut.v - full.v)) <= 2 * rho / (1 - rho) * tol

    @ladders
    def test_warm_start_changes_only_the_path(self, d, n_x, n, monkeypatch):
        # rungs from the third on start from the rung extrapolated from the
        # two above; a start from the obstacle reaches the same contact sets
        # and stops within the same distance of the same fixed point
        grid = Grid(L=20.0, n_x=n_x)
        ladder = RateLadder(n, 1.2, 0.0)
        tol = 1e-10
        solve_rung = ladder_mod.solve_rung
        starts = []

        def cold_rung(*args, start=None, **kwargs):
            starts.append(start)
            return solve_rung(*args, **kwargs)

        warm = solve_ladder(M2, d, grid, ladder, update_tol=tol)
        monkeypatch.setattr(ladder_mod, "solve_rung", cold_rung)
        cold = solve_ladder(M2, d, grid, ladder, update_tol=tol)
        assert sum(s is not None for s in starts) == n - 2  # rungs 3..n had one
        assert np.array_equal(warm.masks, cold.masks)
        assert np.array_equal(extract_boundary(warm).x_star, extract_boundary(cold).x_star)
        assert np.array_equal(build_rate_map(warm), build_rate_map(cold))
        rho = M2.lam / (M2.r + M2.lam)
        assert np.max(np.abs(warm.v - cold.v)) <= 2 * rho / (1 - rho) * tol
        assert warm.iterations[0] == cold.iterations[0]  # g keeps its start
        assert warm.iterations.sum() <= cold.iterations.sum()

    def test_cut_below_the_boundary_falls_back(self, monkeypatch):
        # a start set beginning at half the true first contact node forces
        # v = psi where the rung is free: the acceptance sweep rejects it,
        # and the rung is solved again on the whole domain
        grid = Grid(L=20.0, n_x=800)
        n = grid.n_x
        surface = solve_ladder(M2, P2, grid, RateLadder(16, 1.2, 0.0))
        kern = get_kernel(P2, grid)
        h = h_eval(M2, P2, grid.nodes)
        lengths = record_solve_lengths(monkeypatch)
        for i in (2, 8, 16):
            psi, c = surface.v[i - 1], float(surface.rates[i])
            first = int(np.argmax(surface.masks[i]))
            j = first // 2
            top = j + j // 4 + PICARD_MARGIN
            assert top < first
            lengths.clear()
            v, sweeps, update, _ = picard_rung(psi, c, M2, kern, h, 1e-10, "x", first=j)
            assert lengths[0] == top + 1 and lengths[1] == n + 1
            full_v, full_sweeps, full_update, _ = picard_rung(psi, c, M2, kern, h, 1e-10, "x")
            assert np.array_equal(v, full_v)
            assert update == full_update
            assert sweeps > full_sweeps  # the rejected solve is counted

    def test_returned_residual_is_that_of_v(self, monkeypatch):
        # a kept cut, a cut that falls back and a whole-domain solve each
        # hand back scheme_residual(v); a kept cut convolves the whole grid
        # once, in the acceptance sweep that reads that T v
        grid = Grid(L=20.0, n_x=800)
        n = grid.n_x
        surface = solve_ladder(M2, P2, grid, RateLadder(16, 1.2, 0.0))
        kern = get_kernel(P2, grid)
        h = h_eval(M2, P2, grid.nodes)
        lengths = []
        convolve = discretization.ConvKernel.convolve

        def recorded(self, f, method="auto"):
            lengths.append(f.shape[0])
            return convolve(self, f, method)

        monkeypatch.setattr(discretization.ConvKernel, "convolve", recorded)
        psi, c = surface.v[7], float(surface.rates[8])
        first = int(np.argmax(surface.masks[8]))
        for start, full_grid_calls in [(first, 1), (first // 2, None), (0, None)]:
            lengths.clear()
            v, _, _, res = picard_rung(psi, c, M2, kern, h, 1e-10, "x", first=start)
            if full_grid_calls is not None:
                assert lengths.count(n + 1) == full_grid_calls
            _, res_ref = scheme_residual(v, np.diff(v) / grid.dx, c, M2, kern, h)
            assert np.array_equal(res, res_ref)

    def test_pocketed_obstacle_is_not_cut(self, monkeypatch):
        # lam = 3, ell = 1.5 on L = 20 leaves a free pocket below the pin at
        # L on every rung: no cut can hold, so every rung is solved once on
        # the whole domain
        m = ModelParams(mu=2.0, lam=3.0, r=0.1, ell=1.5, c_bar=1.2, c_floor=0.0)
        grid = Grid(L=20.0, n_x=400)
        lengths = record_solve_lengths(monkeypatch)
        surface = solve_ladder(m, P2, grid, RateLadder(8, 1.2, 0.0))
        assert not surface.masks[1][np.argmax(surface.masks[1]):].all()
        assert lengths == [grid.n_x + 1] * 8


class TestChainStructure:
    def test_obstacle_order_bitwise(self, ladder2):
        v = ladder2.v
        assert np.all(v[1:] >= v[:-1])

    def test_masks_up_closed(self, ladder2):
        for m in ladder2.masks:
            first = int(np.argmax(m))
            assert m[first:].all()

    def test_switch_gain_bounds(self, ladder2):
        u = np.diff(ladder2.v, axis=0) / ladder2.ladder.dc
        cap = (M2.ell - 1.0) / M2.r
        assert u.min() >= 0.0
        assert u.max() <= cap + 1e-6

    def test_switch_gain_growth(self, ladder2):
        dc = ladder2.ladder.dc
        u = np.diff(ladder2.v, axis=0) / dc
        growth = u[:-1] - u[1:]  # u_{i-1} - u_i
        assert growth.max() <= slope_growth_bound(M2) * dc + 1e-6

    def test_curvature_lower_bound(self, ladder2):
        v = ladder2.v
        bound = -M2.lam * M2.ell / (M2.mu - M2.c_bar)
        second_diff = v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]
        assert second_diff.min() / G2.dx**2 >= bound - 1e-6

    def test_complementarity(self, ladder2):
        kern = get_kernel(D2, G2)
        h = h_eval(M2, D2, G2.nodes)
        n = G2.n_x
        for i in range(1, ladder2.ladder.n + 1):
            v = ladder2.v[i]
            c = ladder2.rates[i]
            t = M2.lam * (kern.convolve(v, "auto") + v[0] * kern.tail)
            res = (
                -(M2.mu - c) * np.diff(v) / G2.dx
                + (M2.r + M2.lam) * v[:n]
                - t[:n]
                + h[:n]
                - c
            )
            gap = v[:n] - ladder2.v[i - 1, :n]
            assert res.min() >= -1e-8
            assert np.max(np.abs(np.minimum(res, gap))) <= 1e-8

    def test_dyadic_refinement_monotone(self, ladder2):
        v32 = solve_ladder(M2, D2, G2, RateLadder(32, 1.2, 0.0), update_tol=1e-11).v
        worst = float(np.max(v32 - ladder2.v[::2]))
        assert worst <= 1e-7

    def test_floor_extension_leaves_upper_rungs(self, ladder2):
        m_ext = ModelParams(mu=2.0, lam=2.0, r=0.1, ell=2.0, c_bar=1.2, c_floor=-0.6)
        v96 = solve_ladder(m_ext, D2, G2, RateLadder(96, 1.2, -0.6), update_tol=1e-11).v
        assert np.max(np.abs(ladder2.v - v96[:65])) <= 1e-9


class TestFailureModes:
    def test_domain_too_small(self):
        with pytest.raises(DomainTooSmall, match="rung"):
            solve_ladder(M2, D2, Grid(L=5.0, n_x=200), RateLadder(16, 1.2, 0.0))

    def test_rung_no_convergence_labels_rung(self, monkeypatch):
        # g of exponential claims is one banded solve, so MAX_ITER = 1 stops
        # the first rung
        grid = Grid(L=20.0, n_x=400)
        monkeypatch.setattr(ladder_mod, "MAX_ITER", 1)
        with pytest.raises(NoConvergence, match="rung 1/"):
            solve_ladder(M2, D2, grid, RateLadder(8, 1.2, 0.0))


class TestWarmStart:
    """README set at 1000 x 64 (the ladder-exp benchmark size)."""

    @pytest.fixture(scope="class")
    def readme_ladder(self):
        grid = Grid(L=20.0, n_x=1000)
        return grid, solve_ladder(M2, D2, grid, RateLadder(64, 1.2, 0.0))

    def test_start_does_not_change_v(self, readme_ladder):
        # the converged contact set fixes v, so the previous contact set,
        # the extrapolated interval and the empty set give the same bits
        grid, surface = readme_ladder
        n = grid.n_x
        kern = get_kernel(D2, grid)
        h = h_eval(M2, D2, grid.nodes)
        firsts = [int(np.argmax(mask)) for mask in surface.masks]
        for i in range(1, surface.ladder.n + 1):
            starts = [surface.masks[i - 1][:n], np.zeros(n, dtype=bool)]
            if i >= 3:
                starts.append(np.arange(n) >= 2 * firsts[i - 1] - firsts[i - 2])
            for contact in starts:
                v, _, _, _ = policy_rung(
                    surface.v[i - 1], contact, float(surface.rates[i]), M2, kern, h, "test",
                )
                assert np.array_equal(v, surface.v[i])

    def test_returned_residual_is_that_of_v(self, readme_ladder):
        # solve_rung takes the residual from the last policy step instead
        # of recomputing it; the converged v needs no projection
        grid, surface = readme_ladder
        n = grid.n_x
        kern = get_kernel(D2, grid)
        h = h_eval(M2, D2, grid.nodes)
        for i in range(1, surface.ladder.n + 1):
            psi, c = surface.v[i - 1], float(surface.rates[i])
            v, _, _, res = policy_rung(
                psi, surface.masks[i - 1][:n], c, M2, kern, h, "test",
            )
            _, res_ref = scheme_residual(v, np.diff(v) / grid.dx, c, M2, kern, h)
            assert np.array_equal(res, res_ref)
            assert np.array_equal(np.maximum(v, psi), v)
            assert np.array_equal(v, surface.v[i])

    def test_policy_steps_capped(self, readme_ladder):
        # 202 steps from the previous contact set; 112 measured
        _, surface = readme_ladder
        assert int(surface.iterations[1:].sum()) <= 120


#: lam = 3 leaves a free pocket below the pin at L on every rung (r = 0.1,
#: L = 20); with ell = 1.05 under H2 claims every rung's first contact
#: node is node 0, with free nodes above it
POCKET = ModelParams(mu=2.0, lam=3.0, r=0.1, ell=1.5, c_bar=1.2, c_floor=0.0)
POCKET_LOW_ELL = ModelParams(mu=2.0, lam=3.0, r=0.1, ell=1.05, c_bar=1.2, c_floor=0.0)


def record_contacts(monkeypatch):
    """The start contact set (None for none) that solve_ladder hands each
    solve_rung call."""
    contacts = []
    real = ladder_mod.solve_rung

    def recorded(*args, contact=None, **kwargs):
        contacts.append(None if contact is None else contact.copy())
        return real(*args, contact=contact, **kwargs)

    monkeypatch.setattr(ladder_mod, "solve_rung", recorded)
    return contacts


class TestWarmStartRule:
    """`solve_ladder` alone chooses each rung's start, on pocketed ladders."""

    @pytest.mark.parametrize("d", [D2, P2], ids=["exponential", "shifted_pareto"])
    def test_contact_handed_to_each_rung(self, d, monkeypatch):
        # rung 1 starts from g's contact set (every node), rung 2 from rung
        # 1's exact contact set, later rungs from the extrapolated interval;
        # a Picard rung below a pocket gets None (the whole domain)
        grid, n = Grid(L=20.0, n_x=400), 8
        contacts = record_contacts(monkeypatch)
        surface = solve_ladder(POCKET, d, grid, RateLadder(n, 1.2, 0.0))
        monkeypatch.undo()
        firsts, free = contact_scan(surface.masks)
        assert (free[1:] > 0).all()  # every rung has a pocket
        nodes = np.arange(grid.n_x)
        picard = d is P2
        assert len(contacts) == n
        for i, contact in enumerate(contacts, 1):
            if picard and free[i - 1]:
                assert contact is None, i
                continue
            if i == 1:
                want = np.ones(grid.n_x, dtype=bool)
            elif i == 2:
                want = surface.masks[1][:-1]
            else:
                want = nodes >= min(max(2 * firsts[i - 1] - firsts[i - 2], 0), grid.n_x)
            assert np.array_equal(contact, want), i
        assert picard or not contacts[1][firsts[1]:].all()  # the pocket is kept

    def test_rung_2_policy_steps_pinned(self):
        # rung 1's exact contact set, pocket included, settles rung 2 in 3
        # policy steps; the interval from rung 1's threshold takes 28
        grid = Grid(L=20.0, n_x=1000)
        surface = solve_ladder(POCKET_LOW_ELL, H2, grid, RateLadder(32, 1.2, 0.0))
        assert surface.iterations[2] == 3


class TestComplementarityBound:
    """Every rung is accepted on the complementarity defect the certificate
    measures, against the certificate's own bound."""

    @pytest.mark.parametrize("d", [D2, P2], ids=["exponential", "shifted_pareto"])
    def test_rungs_and_certificate_read_one_bound(self, d, monkeypatch):
        grid = Grid(L=20.0, n_x=200)
        ladder = RateLadder(4, M2.c_bar, M2.c_floor)
        surface = solve_ladder(M2, d, grid, ladder)
        _, res = scheme_residual(
            surface.v[1], np.diff(surface.v[1]) / grid.dx, float(surface.rates[1]),
            M2, get_kernel(d, grid), h_eval(M2, d, grid.nodes),
        )
        defect = complementarity_defect(res, surface.v[1] - surface.v[0])
        assert 0.0 < defect <= DEFAULT_TOLERANCES["complementarity"]
        monkeypatch.setitem(DEFAULT_TOLERANCES, "complementarity", 1e-20)
        with pytest.raises(NoConvergence, match="rung 1/") as exc:
            solve_ladder(M2, d, grid, ladder)
        assert exc.value.residual == defect
        assert run_invariant_suite(surface).check("complementarity").bound == 1e-20

    def test_nan_defect_is_not_accepted(self):
        # a NaN compares false with every bound, so a `defect > bound` test
        # would let a NaN rung through
        with pytest.raises(NoConvergence, match="rung g: .* defect nan") as exc:
            accept_rung(np.array([0.0, np.nan]), np.full(3, np.inf), "residual", "g", 1, 0.0)
        assert np.isnan(exc.value.residual)


@pytest.mark.parametrize(
    "d,n_x,n",
    [(D2, 800, 32), (H2, 800, 16), (P2, 800, 16)],
    ids=["exponential", "hyperexponential", "shifted_pareto"],
)
def test_surface_reads_the_solvers_masks_and_slopes(d, n_x, n, monkeypatch):
    # the surface stores v alone: its masks are each solve_rung's contact
    # set v == psi and its slopes the v' the rung solves chained, bitwise
    slices, sizes = [], []
    real_g, real_rung = ladder_mod.solve_g, ladder_mod.solve_rung
    real_fixed_point = ladder_mod.anderson_fixed_point

    def fixed_point(sweep, start, *args):
        sizes.append(start.shape[0])
        return real_fixed_point(sweep, start, *args)

    def recorded(solve):
        return lambda *a, **k: slices.append(solve(*a, **k)) or slices[-1]

    monkeypatch.setattr(ladder_mod, "solve_g", recorded(real_g))
    monkeypatch.setattr(ladder_mod, "solve_rung", recorded(real_rung))
    monkeypatch.setattr(ladder_mod, "anderson_fixed_point", fixed_point)
    grid = Grid(L=20.0, n_x=n_x)
    surface = solve_ladder(M2, d, grid, RateLadder(n, M2.c_bar, M2.c_floor))
    monkeypatch.undo()
    assert len(slices) == n + 1
    # the Picard rungs take the truncated solve: some run on fewer nodes
    assert (min(sizes) < n_x + 1) if d is P2 else not sizes
    assert surface.masks[0].all()  # g is in contact everywhere
    for i, (psi, rung) in enumerate(zip(slices, slices[1:]), 1):
        assert np.array_equal(surface.masks[i], rung.v == psi.v), i
    assert 0.0 < surface.masks[1:].mean() < 1.0
    ref = chained_slopes(M2, d, grid, surface.rates, slices)
    assert surface.slopes()[0].tobytes() == ref.tobytes()
