from pathlib import Path

import numpy as np
import pytest

import reference
from medialcover import (
    ClosedSetSpec,
    CoercivityError,
    SlopeLattice,
    Window,
    asplund_lift,
    marginal_inf_rows,
    nondiff_witnesses,
    survey,
)
from medialcover.config import load_config
from medialcover.verify import detect_ambiguous

FIXTURES = Path(__file__).parent / "fixtures"

WINDOW2 = Window([-2, -2], [2, 2])
WINDOW1 = Window([-2], [2])

TWO_POINTS = ClosedSetSpec([{"type": "point", "coords": [-1, 0]}, {"type": "point", "coords": [1, 0]}], 2)
# strongly convex lift of the two-point set: 2|x1| + |x|^2 - 1
LIFT = asplund_lift(TWO_POINTS)


# a sphere shell, a point and a segment, as in the benchmark's 3-D workload
SHELLS = ClosedSetSpec(
    [
        {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        {"type": "point", "coords": [-1.4, -1.3, -1.5]},
        {"type": "segment", "a": [1.0, 1.6, 1.3], "b": [1.6, 1.0, 1.4]},
    ],
    3,
)
SHELLS_LIFT = asplund_lift(SHELLS)
# kinks on the planes x1 = 0, x2 = 1 and x3 = -1
KINKS = reference.strongify(
    lambda x: 2.0 * np.abs(x[..., 0]) + 3.0 * np.abs(x[..., 1] - 1.0) + 4.0 * np.abs(x[..., 2] + 1.0)
)


def sq_norm(x):
    return np.add.reduce(x * x, axis=-1)


def concave(x):
    return -np.sum(x * x, axis=-1)


def kinked_1d(x):
    return np.abs(x[..., 0])


def box(field, x, step=1e-4):
    """Per-axis [minus, plus] finite-difference partials at one point, shape (n, 2), from the batched oracle."""
    minus, plus = reference.one_sided(field, np.asarray(x, dtype=float)[None], step)
    return np.stack([minus[0], plus[0]], axis=1)


def witness(field, x, lattice):
    """The finite-difference witness search on a batch of one point."""
    return reference.fd_witnesses(field, [x], lattice)[0]


def exact_witness(x, feet, lattice):
    """The witness of the distance lift at ``x`` whose nearest points are ``feet``."""
    feet = np.asarray(feet, dtype=float)
    return nondiff_witnesses([[x, feet.min(axis=0), feet.max(axis=0)]], lattice)[0]


def marginal_inf_at(field, axis, slope, x_rest):
    """The marginal infimum at one x_rest node: a batch of one row."""
    point = np.insert(np.asarray(x_rest, dtype=float), axis, 0.0)
    return float(marginal_inf_rows(field, [axis], [slope], [point])[0])


class TestOneSidedPartials:
    def test_abs_kink_at_origin(self):
        minus, plus = box(kinked_1d, [0.0])[0]
        assert minus == pytest.approx(-1.0, abs=1e-9)
        assert plus == pytest.approx(1.0, abs=1e-9)

    def test_lift_kink(self):
        # subgradient of 2|t| + t^2 at t = 0 is [-2, 2]
        minus, plus = box(LIFT, [0.0, 0.5])[0]
        assert minus == pytest.approx(-2.0, abs=1e-8)
        assert plus == pytest.approx(2.0, abs=1e-8)

    def test_smooth_field(self):
        minus, plus = box(sq_norm, [1.0, 0.0])[0]
        assert minus == pytest.approx(2.0, abs=1e-9)
        assert plus == pytest.approx(2.0, abs=1e-9)

    def test_order_invariant_on_random_points(self):
        points = np.random.default_rng(0).uniform(-2, 2, size=(100, 2))
        minus, plus = reference.one_sided(LIFT, points, 1e-4)
        assert np.all(minus <= plus + 1e-8)


class TestSubgradientBox:
    def test_abs_interval(self):
        assert box(kinked_1d, [0.0]) == pytest.approx(np.array([[-1.0, 1.0]]), abs=1e-9)

    def test_smooth_point_box_collapses(self):
        assert box(sq_norm, [1.0, 2.0]) == pytest.approx(np.array([[2.0, 2.0], [4.0, 4.0]]), abs=1e-8)

    def test_lift_box_at_origin(self):
        intervals = box(LIFT, [0.0, 0.0])
        assert intervals[0] == pytest.approx([-2.0, 2.0], abs=1e-8)
        assert intervals[1] == pytest.approx([0.0, 0.0], abs=1e-8)

    def test_supporting_line_inequality(self):
        # for every s in the axis interval: f(x + t e_i) >= f(x) + s t - 1e-8
        rng = np.random.default_rng(1)
        x = np.array([0.0, 0.5])
        f0 = LIFT(x)
        intervals = box(LIFT, x)
        for axis in range(2):
            slopes = rng.uniform(*intervals[axis], size=10)
            steps = rng.uniform(-2, 2, size=10)
            for s in slopes:
                for t in steps:
                    y = x.copy()
                    y[axis] += t
                    assert LIFT(y) >= f0 + s * t - 1e-8


# The nearest points of the bisector of TWO_POINTS.
SITES = [[-1.0, 0.0], [1.0, 0.0]]


class TestWitness:
    def test_widest_interior_pair_on_coarse_lattice(self):
        # derivative gap (-2, 2); half-step margin leaves {-1.5, ..., 1.5}
        assert exact_witness([0.0, 0.5], SITES, SlopeLattice(step=0.5, bound=4.0)) == (0, -1.5, 1.5)

    def test_smooth_field_has_no_witness(self):
        assert witness(sq_norm, [0.7, -0.3], SlopeLattice(0.5, 4.0)) is None

    def test_abs_smooth_away_from_kink(self):
        assert witness(kinked_1d, [0.3], SlopeLattice(0.5, 4.0)) is None

    def test_gap_below_two_steps_is_unresolved(self):
        # sites 0.1 apart give a derivative gap of 0.2 on the bisector
        narrow = [[-0.05, 0.0], [0.05, 0.0]]
        assert exact_witness([0.0, 0.4], narrow, SlopeLattice(step=0.125, bound=64)) is None
        assert exact_witness([0.0, 0.4], narrow, SlopeLattice(step=0.0625, bound=64)) == (0, -0.0625, 0.0625)

    def test_bound_clamps_the_pair(self):
        assert exact_witness([0.0, 0.5], SITES, SlopeLattice(step=0.5, bound=1.0)) == (0, -1.0, 1.0)


def reference_partials(field, x, axis, step=1e-4):
    """The scalar loop of secants that the batched partials replaced: (minus, plus)."""
    x = np.asarray(x, dtype=float)
    e = np.zeros(len(x))
    e[axis] = 1.0
    f0 = float(field(x))

    def secant(t):
        return (float(field(x + t * e)) - f0) / t

    ends = []
    for sign in (1.0, -1.0):
        s_h, s_h2, s_h4 = secant(sign * step), secant(sign * step / 2), secant(sign * step / 4)
        ends.append(((8.0 * s_h4 - 6.0 * s_h2 + s_h) / 3.0, s_h4))
    (plus, sp_h4), (minus, sm_h4) = ends
    if sm_h4 <= sp_h4:
        plus = min(max(plus, sm_h4), sp_h4)
        minus = min(max(minus, sm_h4), sp_h4)
    return minus, plus


def reference_witness(field, x, lattice, step=1e-4):
    """The lattice rule on the scalar partials of every axis."""
    minus, plus = zip(*(reference_partials(field, x, axis, step) for axis in range(len(x))))
    return reference.lattice_witness(minus, plus, lattice)


class TestBatchedWitnesses:
    POINTS = [
        [0.0, 0.0, 0.0],  # kinks on all three axes: the first one wins
        [0.5, 1.0, 0.0],
        [0.5, 0.5, -1.0],
        [0.5, 0.5, 0.5],  # smooth
        [0.3, 1.0, -1.0],
        [-0.7, 0.2, 1.1],  # smooth
        [0.4, 0.6, -1.0],
        [3e-5, 0.5, 0.5],  # a kink inside the secant steps: the clip binds, no witness
        [0.5, 1.0 - 6e-5, -1.0 + 2e-5],
    ]

    def test_batch_mixes_gaps_on_every_axis_with_none(self):
        lattice = SlopeLattice(0.5, 4.0)
        batch = reference.fd_witnesses(KINKS, self.POINTS, lattice)
        assert [w[0] if w else None for w in batch] == [0, 1, 2, None, 1, None, 2, None, None]
        assert batch == [witness(KINKS, p, lattice) for p in self.POINTS]
        assert batch == [reference_witness(KINKS, p, lattice) for p in self.POINTS]

    @pytest.mark.parametrize("lattice", [SlopeLattice(0.125, 64.0), SlopeLattice(1.0, 1.0)])
    def test_batch_equals_the_per_axis_loop_on_a_3d_lift(self, lattice):
        samples = detect_ambiguous(SHELLS, Window([-2.0] * 3, [2.0] * 3), 12)[:, 0]
        smooth = np.random.default_rng(5).uniform(-2.0, 2.0, size=(20, 3))
        points = np.vstack([samples, smooth])
        batch = reference.fd_witnesses(SHELLS_LIFT, points, lattice)
        assert batch == [reference_witness(SHELLS_LIFT, p, lattice) for p in points]
        assert None in batch and any(batch)

    @pytest.mark.parametrize("field", [KINKS, concave], ids=["kinks", "concave"])
    def test_partials_equal_the_scalar_loop(self, field):
        minus, plus = reference.one_sided(field, np.array(self.POINTS), 1e-4)
        for k, x in enumerate(self.POINTS):
            for axis in range(3):
                assert (minus[k, axis], plus[k, axis]) == reference_partials(field, x, axis)
                assert box(field, x)[axis].tolist() == [minus[k, axis], plus[k, axis]]

    def test_empty_batch(self):
        assert nondiff_witnesses(np.empty((0, 3, 3)), SlopeLattice(0.5, 4.0)) == []
        assert reference.fd_witnesses(KINKS, np.empty((0, 3)), SlopeLattice(0.5, 4.0)) == []


def fixture_found(name):
    """The set, lattice and detected (K, 3, n) samples with feet of a verify fixture."""
    config, _ = load_config(FIXTURES / f"{name}.json")
    return config.set_spec, config.lattice, detect_ambiguous(config.set_spec, config.window, config.grid_resolution)


def shell_centre_found(spec):
    """The set, the default lattice, and the samples on a grid of 9 nodes per axis with the shell's centre added.

    ``detect_ambiguous`` never samples a grid node, so the centre c of the
    shell of radius R (row 0) comes by hand, with the feet box
    (c - R, c + R) of the whole shell on every axis.
    """
    window = Window([-2.0] * spec.dimension, [2.0] * spec.dimension)
    found = detect_ambiguous(spec, window, 9)
    assert not np.all(found[:, 0] == spec.starts[0], axis=1).any()
    centre, radius = spec.starts[0], spec.radii[0]
    return spec, SlopeLattice(), np.concatenate([found, [[centre, centre - radius, centre + radius]]])


CIRCLE = ClosedSetSpec([{"type": "ball", "center": [0.0, 0.0], "radius": 1.0}], 2)
SPHERE_AND_POINT = ClosedSetSpec(
    [{"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}, {"type": "point", "coords": [-1.4, -1.3, -1.5]}], 3
)
EXACT_CASES = {
    **{
        name: lambda name=name: fixture_found(name)
        for name in ("verify_two_point", "verify_star", "verify_shells", "verify_wide_window")
    },
    "circle_centre": lambda: shell_centre_found(CIRCLE),
    "sphere_and_point_centre": lambda: shell_centre_found(SPHERE_AND_POINT),
}


# ``reference.one_sided`` reads a partial only to within its own rounding
# error.  A lift value below 16 in magnitude is off by a few units in the last
# place, about 1e-14, and the Richardson sum of the secants at h/4, h/2 and h
# multiplies that by 30 / h: about 4e-9 at h = 1e-4.  The largest
# |exact - FD| partial on EXACT_CASES is 4.6e-10.  An oracle partial that close
# to a knife edge of the lattice rule, where (partial + step / 2) / step is an
# integer for a lower partial and (partial - step / 2) / step for an upper one,
# cannot be told from the edge, and is read as on it.
ONE_SIDED_ROUNDING = 1e-8


def on_knife_edges(partials, shift, step):
    """``partials`` with each one within ``ONE_SIDED_ROUNDING`` of a knife edge (v + shift) / step in Z put on it."""
    edge = np.round((partials + shift) / step) * step - shift
    return np.where(np.abs(partials - edge) <= ONE_SIDED_ROUNDING, edge, partials)


def oracle_witnesses(spec, points, lattice):
    """The finite-difference witnesses of the lift, with the partials on a knife edge put on it."""
    minus, plus = reference.one_sided(asplund_lift(spec), points)
    half = lattice.step / 2.0
    minus, plus = on_knife_edges(minus, half, lattice.step), on_knife_edges(plus, -half, lattice.step)
    return [reference.lattice_witness(m, p, lattice) for m, p in zip(minus.tolist(), plus.tolist())]


class TestExactWitnesses:
    """Witnesses read off the feet against the finite-difference oracle of the lift."""

    @pytest.mark.parametrize("case", list(EXACT_CASES))
    def test_exact_witness_equals_the_oracle(self, case):
        spec, lattice, found = EXACT_CASES[case]()
        assert len(found)
        assert nondiff_witnesses(found, lattice) == oracle_witnesses(spec, found[:, 0], lattice)

    def test_one_oracle_partial_lies_on_a_knife_edge(self):
        """verify_wide_window's sample (1.80625, 1.0) ties exactly; its lower partial along x0 is 30.5 lattice steps.

        The oracle reads it 5e-11 high, beyond the rule's slack of 1e-12
        steps, so the unrounded oracle picks alpha = 4.0.  Every other
        oracle partial of EXACT_CASES lies more than 1e-5 from a knife edge.
        """
        near = []
        for case, build in EXACT_CASES.items():
            spec, lattice, found = build()
            minus, plus = reference.one_sided(asplund_lift(spec), found[:, 0])
            for partials, shift in ((minus, lattice.step / 2.0), (plus, -lattice.step / 2.0)):
                gap = np.abs(np.round((partials + shift) / lattice.step) * lattice.step - shift - partials)
                assert np.all((gap <= ONE_SIDED_ROUNDING) | (gap > 1e-5))
                near += [(case, k, axis) for k, axis in zip(*np.nonzero(gap <= ONE_SIDED_ROUNDING))]
        assert [(case, axis) for case, _, axis in near] == [("verify_wide_window", 0)]
        spec, lattice, found = EXACT_CASES["verify_wide_window"]()
        sample = found[near[0][1]]
        assert sample[0].tolist() == [1.80625, 1.0]
        assert 2.0 * (sample[0, 0] + sample[1, 0]) == 3.8125 == 30.5 * lattice.step
        assert nondiff_witnesses(sample[None], lattice) == [(0, 3.875, 5.25)]
        assert reference.fd_witnesses(asplund_lift(spec), sample[None, 0], lattice) == [(0, 4.0, 5.25)]

    @pytest.mark.parametrize("case", list(EXACT_CASES))
    def test_exact_partials_lie_within_the_finite_difference_error(self, case):
        # The largest measured |exact - FD| is about 1.06e-3; the bound is twice that.
        spec, _, found = EXACT_CASES[case]()
        minus, plus = reference.one_sided(asplund_lift(spec), found[:, 0])
        x, foot_lo, foot_hi = found[:, 0], found[:, 1], found[:, 2]
        assert np.abs(2.0 * (x + foot_lo) - minus).max() <= 2e-3
        assert np.abs(2.0 * (x + foot_hi) - plus).max() <= 2e-3


def mixed_rows(dimension, count, seed):
    """Random points, axes and slopes up to +-40, so rows double their brackets unequally."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-2.0, 2.0, size=(count, dimension))
    axes = rng.integers(0, dimension, size=count)
    slopes = rng.choice([-40.0, -17.5, -3.0, -0.125, 0.0, 0.5, 2.0, 9.25, 40.0], size=count)
    return axes, slopes, points


def evaluator_calls(field, axes, slopes, points):
    """The row count of each evaluator call that one ``marginal_inf_rows`` batch makes."""
    calls = []

    def counting(x):
        calls.append(len(x))
        return field(x)

    marginal_inf_rows(counting, axes, slopes, points)
    return calls


class TestMarginalInfRows:
    @pytest.mark.parametrize(
        "field, dimension",
        [(SHELLS_LIFT, 3), (LIFT, 2), (reference.strongify(reference.blend(3, 3)), 3)],
        ids=["shells3d", "two_point", "blend"],
    )
    @pytest.mark.parametrize("order", ["default", "shuffled"])
    def test_rows_equal_scalar_marginal_inf(self, field, dimension, order):
        axes, slopes, points = mixed_rows(dimension, 48, seed=dimension)
        if order == "shuffled":  # other neighbours in every lockstep field call
            perm = np.random.default_rng(7).permutation(48)
            axes, slopes, points = axes[perm], slopes[perm], points[perm]
        values = marginal_inf_rows(field, axes, slopes, points)
        assert values.shape == (48,)
        for value, axis, slope, point in zip(values.tolist(), axes.tolist(), slopes.tolist(), points):
            assert value == reference.reference_marginal_inf(field, axis, slope, np.delete(point, axis))

    def test_one_open_row_fails_the_batch_and_is_named(self):
        def half_open(x):  # |x2| - 2 x2 has no minimum; every other row is coercive
            return x[..., 0] ** 2 + np.abs(x[..., 1])

        axes, slopes = [0, 1, 0, 1], [3.0, 0.5, -2.0, 2.0]
        with pytest.raises(CoercivityError, match=r"axis 1, slope 2\.0 still open after 60 doublings"):
            marginal_inf_rows(half_open, axes, slopes, np.zeros((4, 2)))
        values = marginal_inf_rows(half_open, axes[:3], slopes[:3], np.zeros((3, 2)))
        assert values.tolist() == [reference.reference_marginal_inf(half_open, a, s, [0.0]) for a, s in zip(axes[:3], slopes[:3])]

    def test_a_minimizer_beyond_the_resolution_fails_after_the_step_cap(self):
        # inf of t^2 - 2**42 t sits at t = 2**41, where one ulp is 2**-11: the
        # golden-section bracket can never shrink to 1e-7.  The search once ran
        # forever; the counting field fails the test instead.
        calls = []

        def counting(x):
            calls.append(len(x))
            assert len(calls) < 1000, "the golden-section search does not stop"
            return np.add.reduce(x * x, axis=-1)

        with pytest.raises(CoercivityError, match=r"axis 0, slope 4398046511104\.0 still wider than 1e-07 after 123 steps"):
            marginal_inf_rows(counting, [0, 0], [2.0**42, 1.0], np.zeros((2, 1)))
        assert calls[-1] == 1  # the coercive row closed; the far one took every step
        assert len(calls) == 1 + 43 + 1 + 123

    @pytest.mark.parametrize("field, dimension", [(SHELLS_LIFT, 3), (LIFT, 2)], ids=["shells3d", "two_point"])
    def test_one_evaluator_call_per_step_on_the_rows_still_open(self, field, dimension):
        axes, slopes, points = mixed_rows(dimension, 48, seed=dimension)
        doublings, steps = [], []
        for r in range(48):
            # a row alone: 3 rows, 2 per doubling, 2 for the golden-section start, then 1 per step
            alone = evaluator_calls(field, axes[r : r + 1], slopes[r : r + 1], points[r : r + 1])
            assert alone == [3] + [2] * alone.count(2) + [1] * alone.count(1)
            doublings.append(alone.count(2) - 1)
            steps.append(alone.count(1))
        doublings, steps = np.array(doublings), np.array(steps)
        assert len(set(doublings.tolist())) > 2 and len(set(steps.tolist())) > 2
        calls = evaluator_calls(field, axes, slopes, points)
        assert calls == (
            [3 * 48]
            + [2 * int(np.sum(doublings >= k)) for k in range(1, doublings.max() + 1)]
            + [2 * 48]
            + [int(np.sum(steps >= k)) for k in range(1, steps.max() + 1)]
        )
        assert len(calls) == 2 + doublings.max() + steps.max()  # the maximum over the rows, not the sum

    def test_shapes_are_validated(self):
        with pytest.raises(ValueError, match="R axes"):
            marginal_inf_rows(LIFT, [0, 1], [0.0], np.zeros((2, 2)))
        assert marginal_inf_rows(LIFT, [], [], np.empty((0, 2))).shape == (0,)


class TestMarginalInf:
    def test_kink_minimizer(self):
        # inf over t of 2|t| + t^2 + x2^2 - 1 at x2 = 0
        assert marginal_inf_at(LIFT, 0, 0.0, [0.0]) == pytest.approx(-1.0, abs=1e-6)

    def test_slope_inside_the_kink_keeps_the_minimizer(self):
        assert marginal_inf_at(LIFT, 0, 1.0, [0.5]) == pytest.approx(-0.75, abs=1e-6)

    def test_complete_the_square_1d(self):
        f = sq_norm
        assert marginal_inf_at(f, 0, 2.0, []) == pytest.approx(-1.0, abs=1e-10)

    def test_far_minimizer_through_bracket_expansion(self):
        f = sq_norm
        # inf(x^2 - 40 x) = -400 at x = 20, far outside the initial bracket
        assert marginal_inf_at(f, 0, 40.0, []) == pytest.approx(-400.0, abs=1e-6)

    def test_non_coercive_input_fails_with_diagnostic(self):
        with pytest.raises(CoercivityError, match="strongly convex"):
            marginal_inf_at(concave, 0, 0.0, [])

    def test_marginal_function_is_convex(self):
        def g(x):
            rest = np.atleast_1d(x[..., 0])
            points = np.column_stack([np.zeros_like(rest), rest])
            return marginal_inf_rows(LIFT, np.zeros(len(rest), dtype=int), np.full(len(rest), 0.5), points)

        violation, _, _ = reference.convexity_probe(lambda x: g(x).reshape(x.shape[:-1]), WINDOW1, num_samples=200, seed=0)
        assert violation <= 1e-6

    def test_identity_at_witnessed_point(self):
        # at a kink point the marginal infimum is attained at the point itself
        a = np.array([0.0, 0.37])
        w = exact_witness(a, SITES, SlopeLattice(0.125, 64))
        assert w is not None
        axis, alpha, beta = w
        lift_at_a = LIFT(a)
        for slope in (alpha, beta):
            g = marginal_inf_at(LIFT, axis, slope, [a[1]])
            assert g == pytest.approx(lift_at_a - slope * a[0], abs=1e-6)


class TestProbes:
    def test_squared_norm_is_convex(self):
        violation, _, passed = reference.convexity_probe(sq_norm, WINDOW2, 10_000, seed=0)
        assert passed
        assert violation <= 1e-12

    def test_concave_field_fails(self):
        violation, _, passed = reference.convexity_probe(concave, WINDOW2, 10_000, seed=0)
        assert not passed
        assert violation > 0.1

    def test_distance_lift_is_convex_for_all_primitive_kinds(self):
        specs = [
            TWO_POINTS,
            ClosedSetSpec([{"type": "segment", "a": [-1, -0.5], "b": [1, 0.5]}], 2),
            ClosedSetSpec([{"type": "ball", "center": [0.2, -0.1], "radius": 0.9}], 2),
            ClosedSetSpec(
                [
                    {"type": "point", "coords": [0, 0]},
                    {"type": "ball", "center": [1, 1], "radius": 0.5},
                    {"type": "segment", "a": [-1, 1], "b": [-1, -1]},
                ],
                2,
            ),
        ]
        for spec in specs:
            violation, _, _ = reference.convexity_probe(reference.asplund_field(spec), WINDOW2, 10_000, seed=3)
            assert violation <= 1e-9

    # F is strongly convex with modulus 1 exactly when F - |x|^2 is convex.
    @staticmethod
    def passes_strong_convexity_probe(field):
        _, _, passed = reference.convexity_probe(lambda x: field(x) - np.sum(x * x, axis=-1), WINDOW2, 10_000, seed=0)
        return passed

    def test_strongified_zero_passes_with_equality(self):
        assert self.passes_strong_convexity_probe(reference.strongify(lambda x: np.zeros(x.shape[:-1])))

    def test_strongified_lift_passes(self):
        assert self.passes_strong_convexity_probe(LIFT)

    def test_half_modulus_fails(self):
        assert not self.passes_strong_convexity_probe(lambda x: 0.5 * np.sum(x * x, axis=-1))

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="num_samples"):
            reference.convexity_probe(sq_norm, WINDOW2, 0)


def test_ambiguous_points_have_witnesses():
    # classification says ambiguous => the lift shows a derivative gap there
    lattice = SlopeLattice(0.125, 64)
    points = np.array([[0.0, y] for y in (-1.5, -0.2, 0.8, 1.9)])
    assert survey(TWO_POINTS, points).ambiguous.all()
    feet = TWO_POINTS.starts  # the two nearest points of every point on the bisector
    found = np.stack([points, np.tile(feet.min(axis=0), (4, 1)), np.tile(feet.max(axis=0), (4, 1))], axis=1)
    assert nondiff_witnesses(found, lattice) == [(0, -1.875, 1.875)] * 4
    assert all(witness(LIFT, point, lattice) is not None for point in points)
