import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdiv import curves, dataset, losses, metrics, relevance
from interdiv.approx import ApproxParams, SimplifyGrid
from interdiv.errors import InputError, UndefinedMetricError
from interdiv.gbt import DEFAULT_HESS_FLOOR

from conftest import (
    ParentIdLossObjective,
    brute_ser,
    dense_count,
    envelope,
    layout_cases,
    make_instance,
    parent_best_group,
    parent_build,
    parent_divergence_gap,
    parent_export_curves,
    parent_idloss_from_curves,
)


class TestHelpers:
    def test_normalize_divides_and_is_zero_where_empty(self, rng):
        ser = rng.random(50) * 10.0
        count = rng.integers(0, 4, size=50)
        out = curves.normalize(ser, count)
        assert np.array_equal(out, np.divide(ser, count, out=np.zeros(50), where=count > 0))
        assert np.all(out[count == 0] == 0.0)

    def test_require_two_groups_names_its_subject(self):
        ds = dataset.from_arrays(np.zeros((3, 1)), [1.0, 2.0, 3.0], [[1], [1], [0]])
        curves.require_two_groups(ds, "a measure")
        with pytest.raises(UndefinedMetricError,
                           match="^a measure needs at least 2 populated groups$"):
            curves.require_two_groups(ds.subset([0, 1]), "a measure")


    # columns: (values per group, populated per group, best group, gap)
    @pytest.mark.parametrize("values, populated, best, gap", [
        ([1.0, 1.0, 3.0], [True, True, True], 0, 2.0),            # tie: lowest id
        ([2.0, 1.0, 1.0], [True, True, True], 1, 1.0),
        ([0.0, 5.0, 2.0], [False, True, True], 2, 3.0),           # an empty group's 0 is skipped
        ([0.0, 5.0, 2.0], [False, False, False], -1, 0.0),        # no group populated
        ([0.0, 5.0, 2.0], [False, True, False], 1, 0.0),          # one group populated
    ])
    def test_best_group_and_divergence_gap(self, values, populated, best, gap):
        # the same column three times, beside a column of other groups
        other = [[4.0, 0.0, 7.0], [True, True, False]]
        values = np.array([values, other[0], values, values]).T
        populated = np.array([populated, other[1], populated, populated]).T
        # a count of 1 makes each populated value its own normalized curve
        env = envelope(values, populated.astype(np.int64))
        assert env.best.dtype == np.int64
        assert env.best.tolist() == [best, 1, best, best]
        assert env.populated.tolist() == populated.sum(axis=0).tolist()
        got_gap = np.where(env.populated >= 2, env.high - env.low, 0.0)
        assert got_gap.tolist() == [gap, 4.0, gap, gap]

    @settings(max_examples=60, deadline=None)
    @given(case=layout_cases(), picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=30))
    def test_envelope_of_columns_is_the_envelope_at_them(self, case, picks):
        # SimplifyGrid reads the envelope at a subset of intervals, with
        # repeats; both must agree with the masked reductions it replaced
        ds, phi, preds = case
        cs = curves.CurveLayout(ds, phi).curves(preds[0])
        idx = np.array(picks) % cs.ser.shape[1]
        count = dense_count(cs.layout)
        sub = envelope(cs.ser[:, idx], count[:, idx])
        # not ``total``: ``ser[:, idx]`` is column-major, and numpy adds the
        # rows of a column-major array pairwise from 8 rows on, so its last
        # bit can differ from the sum in the row-major ``ser``
        for field in ("populated", "best", "low", "high"):
            assert np.array_equal(getattr(sub, field), getattr(cs.envelope, field)[idx])
        norm, cand = curves.normalize(cs.ser, count)[:, idx], count[:, idx] > 0
        assert np.array_equal(sub.best, parent_best_group(norm, cand))
        gap = np.where(sub.populated >= 2, sub.high - sub.low, 0.0)
        assert np.array_equal(gap, parent_divergence_gap(norm, cand))
        assert np.array_equal(sub.total, norm.sum(axis=0))

    def test_envelope_is_read_only_and_kept(self, rng):
        ds, phi, preds = make_instance(rng, n=30)
        cs = curves.build(ds, preds, phi)
        assert cs.envelope is cs.envelope
        assert curves.argmin_pattern(cs) is cs.envelope.best
        for field in cs.envelope:
            assert not field.flags.writeable


class TestBuild:
    def test_perfect_predictions_give_zero_curves(self, rng):
        ds, phi, _ = make_instance(rng, n=30)
        cs = curves.build(ds, ds.targets.copy(), phi)
        assert np.all(cs.ser == 0.0)
        for g in range(ds.n_groups):
            ser_v, _ = cs.values_at(np.linspace(0, 1, 11), g)
            assert np.all(ser_v == 0.0)

    def test_single_sample_step(self):
        ds = dataset.from_arrays(np.zeros((1, 1)), [2.0], [[1]])
        phi = relevance.from_points([(0.0, 0.0), (5.0, 1.0)])
        r = float(phi(2.0))
        e2 = 1.44
        cs = curves.build(ds, np.array([2.0 + 1.2]), phi)
        below = np.linspace(0.0, r, 7)
        ser_v, cnt_v = cs.values_at(below, 0)
        assert np.allclose(ser_v, e2, atol=1e-12)
        assert np.all(cnt_v == 1)
        above = np.linspace(np.nextafter(r, 1.0), 1.0, 7)
        ser_v, cnt_v = cs.values_at(above, 0)
        assert np.all(ser_v == 0.0)
        assert np.all(cnt_v == 0)

    def test_grid_values_match_brute_force(self, rng):
        ds, phi, preds = make_instance(rng, n=50)
        cs = curves.build(ds, preds, phi)
        grid = np.linspace(0.0, 1.0, 1001)
        for g in range(ds.n_groups):
            ser_v, cnt_v = cs.values_at(grid, g)
            for t, s, c in zip(grid, ser_v, cnt_v):
                bs, bc = brute_ser(ds, preds, phi, t, g)
                assert s == pytest.approx(bs, rel=1e-12, abs=1e-12)
                assert c == bc

    def test_non_finite_prediction_names_index(self, rng):
        ds, phi, preds = make_instance(rng, n=12)
        preds[7] = np.nan
        with pytest.raises(InputError, match="7"):
            curves.build(ds, preds, phi)

    def test_length_mismatch_rejected(self, rng):
        ds, phi, preds = make_instance(rng, n=12)
        with pytest.raises(InputError):
            curves.build(ds, preds[:-1], phi)

    def test_monotone_step_property(self, rng):
        ds, phi, preds = make_instance(rng, n=60)
        cs = curves.build(ds, preds, phi)
        assert np.all(np.diff(cs.ser, axis=1) <= 1e-12)
        assert np.all(np.diff(dense_count(cs.layout), axis=1) <= 0)

    def test_decomposition_group_sum_equals_pooled(self, rng):
        ds, phi, preds = make_instance(rng, n=45)
        cs = curves.build(ds, preds, phi)
        pooled = dataset.from_arrays(
            ds.features, ds.targets, np.ones((ds.n, 1), dtype=np.uint8)
        )
        cs_pooled = curves.build(pooled, preds, phi)
        assert np.array_equal(cs.breakpoints, cs_pooled.breakpoints)
        assert np.allclose(cs.ser.sum(axis=0), cs_pooled.ser[0], rtol=1e-12, atol=1e-12)
        assert np.array_equal(dense_count(cs.layout).sum(axis=0),
                              dense_count(cs_pooled.layout)[0])


class TestAgainstPerCallBuild:
    """The layout and the objectives on it against the per-call build they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(case=layout_cases())
    def test_bit_identical(self, case):
        ds, phi, preds_seq = case
        pairs = [
            (losses.IdLossObjective(ds, phi), ParentIdLossObjective(ds, phi)),
            (losses.IdLossObjective(ds, phi, approx_params=ApproxParams()),
             ParentIdLossObjective(ds, phi, approx_params=ApproxParams())),
        ]
        populated = np.count_nonzero(ds.group_counts()) >= 2
        for preds in preds_seq:
            cs = curves.build(ds, preds, phi)
            ref = parent_build(ds, preds, phi)
            assert np.array_equal(cs.breakpoints, ref.breakpoints)
            assert np.array_equal(cs.ser, ref.ser)
            assert np.array_equal(dense_count(cs.layout), ref.count)
            for g in range(ds.n_groups):
                for got, want in zip(cs.values_at(ref.breakpoints, g),
                                     ref.values_at(ref.breakpoints, g)):
                    assert np.array_equal(got, want)
            assert curves.sera(ds, preds, phi) == float(
                np.sum(ref.sample_relevance * ref.sample_sq_error))
            for obj, oracle in pairs:
                if not populated:
                    with pytest.raises(UndefinedMetricError):
                        obj.grad_hess(preds)
                    with pytest.raises(UndefinedMetricError):
                        oracle.grad_hess(preds)
                    continue
                gh = obj.grad_hess(preds)
                grad, hess = oracle.grad_hess(preds)
                assert np.array_equal(gh.grad, grad)
                # the oracle floors the Hessian itself; the objective leaves that to gbt.fit
                assert np.array_equal(np.maximum(gh.hess, DEFAULT_HESS_FLOOR), hess)
                assert gh.value == losses.idloss_value(ds, preds, phi)
                assert gh.value == parent_idloss_from_curves(ref)
        for obj, oracle in pairs:
            assert obj.eval_points == oracle.eval_points
            assert obj.region_switches == oracle.region_switches


def _sweep_results(ds, phi, preds_seq, out_dir):
    """Every result that a sweep over intervals feeds, in one list: the
    dense tables, the envelope, ID, both objectives' grad, hess, value and
    counters, the simplified sweep and the exported curve bytes."""
    layout = curves.CurveLayout(ds, phi)
    sgrid = SimplifyGrid(layout, ApproxParams())
    objs = [losses.IdLossObjective(ds, phi),
            losses.IdLossObjective(ds, phi, approx_params=ApproxParams())]
    got = []
    for i, preds in enumerate(preds_seq):
        cs = layout.curves(preds)
        got += [cs.ser, dense_count(layout), *cs.envelope, curves.argmin_pattern(cs),
                *sgrid.sample_weights(cs)]
        curves.export_curves(cs, out_dir / f"{i}.csv")
        got.append((out_dir / f"{i}.csv").read_bytes())
        try:
            got.append(metrics.intersectional_divergence(cs))
        except UndefinedMetricError:
            got.append(None)
        for obj in objs:
            try:
                gh = obj.grad_hess(preds)
                got += [gh.grad, gh.hess, gh.value]
            except UndefinedMetricError:
                got.append(None)
    return got + [n for obj in objs for n in (obj.eval_points, obj.region_switches)]


class TestBlockedSweep:
    """Sweeps over blocks of a few intervals against one block of all.

    A block is at least two intervals wide (see ``curves.SWEEP_CELLS``), so a
    budget of one interval per group gives blocks of two, and one of three
    gives blocks of three; the last block takes up to one interval more."""

    @settings(max_examples=100, deadline=None)
    @given(case=layout_cases(), width=st.sampled_from([1, 2, 3]))
    def test_bit_identical_to_one_block(self, tmp_path_factory, case, width):
        ds, phi, preds_seq = case
        one = _sweep_results(ds, phi, preds_seq, tmp_path_factory.mktemp("one"))
        with mock.patch.object(curves, "SWEEP_CELLS", width * ds.n_groups):
            layout = curves.CurveLayout(ds, phi)
            widths = [cols.stop - cols.start for cols, _, _ in layout.sweep()]
            blocked = _sweep_results(ds, phi, preds_seq, tmp_path_factory.mktemp("blocks"))
            for preds in preds_seq:
                cs, ref = layout.curves(preds), parent_build(ds, preds, phi)
                assert np.array_equal(cs.ser, ref.ser)
                assert np.array_equal(dense_count(layout), ref.count)
        n_intervals = len(layout.breakpoints) - 1
        assert sum(widths) == n_intervals
        assert max(widths) <= max(2, width) + 1
        assert len(widths) == max(1, (n_intervals - 1 + max(2, width) - 1) // max(2, width))
        assert len(blocked) == len(one)
        for a, b in zip(blocked, one):
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            else:
                assert a == b

    def test_tables_of_several_blocks_equal_one(self, rng):
        ds, phi, preds = make_instance(rng, n=200)
        cs, ref = curves.build(ds, preds, phi), parent_build(ds, preds, phi)
        with mock.patch.object(curves, "SWEEP_CELLS", 7 * ds.n_groups):
            assert np.array_equal(cs.ser, ref.ser)
            assert np.array_equal(dense_count(cs.layout), ref.count)
            every = np.arange(len(cs.breakpoints) - 1)
            assert np.array_equal(cs.layout.count_at(every), ref.count)
            ks = np.array([0, 0, 3, 4, 4, 9, 30, len(cs.breakpoints) - 2])
            count = cs.layout.count_at(ks)
            assert np.array_equal(count, ref.count[:, ks])
            assert np.array_equal(cs.suffix[cs.layout.ends[:, None] - count], ref.ser[:, ks])


def _many_groups(n, attributes, seed=0):
    """Balanced random bits: 2**attributes groups of about equal size."""
    rng = np.random.default_rng(seed)
    ds = dataset.from_arrays(rng.normal(size=(n, 1)), rng.normal(size=n),
                             (rng.random((n, attributes)) < 0.5).astype(np.uint8))
    return ds, relevance.from_boxplot(ds.targets), ds.targets + rng.normal(size=n)


# Traced peak of one exact IDLoss grad_hess, and of one ID with its curve
# build, at 256 groups and 20k rows. Measured at 3.4 MB and 2.6 MB; with the
# dense (groups, intervals) tables that the block sweep replaced, at 156 MB
# and 93 MB.
SWEEP_PEAK = 16 * 2**20


class TestSweepMemory:
    def test_grad_hess_and_id_at_256_groups(self):
        ds, phi, preds = _many_groups(20_000, 8)
        assert ds.n_groups == 256
        obj = losses.IdLossObjective(ds, phi)
        layout = curves.CurveLayout(ds, phi)
        for call in (lambda: obj.grad_hess(preds),
                     lambda: metrics.intersectional_divergence(layout.curves(preds))):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < SWEEP_PEAK


class TestSera:
    def test_flat_relevance_reduces_to_sse(self, rng):
        ds, _, preds = make_instance(rng, n=40)
        phi1 = relevance.from_points([(-100.0, 1.0), (100.0, 1.0)])
        sse = float(np.sum((preds - ds.targets) ** 2))
        assert curves.sera(ds, preds, phi1) == pytest.approx(sse, rel=1e-12)

    def test_perfect_predictions(self, rng):
        ds, phi, _ = make_instance(rng, n=40)
        assert curves.sera(ds, ds.targets.copy(), phi) == 0.0

    def test_closed_form_matches_event_sweep(self, rng):
        for _ in range(50):
            ds, phi, preds = make_instance(rng, n=100)
            a = curves.sera(ds, preds, phi)
            b = curves.sera_from_curves(curves.build(ds, preds, phi))
            assert b == pytest.approx(a, rel=1e-10)

    def test_adding_sample_adds_relevance_weighted_error(self, rng):
        ds, phi, preds = make_instance(rng, n=30)
        base = curves.sera(ds, preds, phi)
        new_y = float(rng.normal(0, 2))
        new_pred = new_y + 0.7
        ds2 = dataset.from_arrays(
            np.vstack([ds.features, np.zeros((1, ds.features.shape[1]))]),
            np.concatenate([ds.targets, [new_y]]),
            np.vstack([ds.protected, ds.protected[:1]]),
        )
        grown = curves.sera(ds2, np.concatenate([preds, [new_pred]]), phi)
        assert grown - base == pytest.approx(float(phi(new_y)) * 0.7**2, abs=1e-10)


def test_export_curves_format(tmp_path, rng):
    ds, phi, preds = make_instance(rng, n=20)
    cs = curves.build(ds, preds, phi)
    path = tmp_path / "curves.csv"
    curves.export_curves(cs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,group,ser,count,normalized_ser"
    assert len(lines) == 1 + ds.n_groups * len(cs.breakpoints)
    t, g, s, c, nrm = lines[1].split(",")
    assert float(t) == 0.0 and int(g) == 0
    assert float(s) >= 0 and int(c) >= 0 and float(nrm) >= 0


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_export_curves_in_small_blocks(tmp_path, rng, block_rows):
    ds, phi, preds = make_instance(rng, n=20)
    cs = curves.build(ds, preds, phi)
    curves.export_curves(cs, tmp_path / "one.csv")
    with mock.patch.object(dataset, "BLOCK_ROWS", block_rows):
        curves.export_curves(cs, tmp_path / "blocks.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


@st.composite
def _export_cases(draw):
    """Curves of tied targets under a relevance with flat stretches, where
    some predictions are exact and one group has a single member."""
    n = draw(st.integers(2, 40))
    levels = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=n))
    y = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))) / 4.0
    # the last row alone holds (1, 1); the others draw from the other three
    combos = draw(st.lists(st.sampled_from([(0, 0), (0, 1), (1, 0)]),
                           min_size=n - 1, max_size=n - 1))
    ds = dataset.from_arrays(np.zeros((n, 1)), y, combos + [(1, 1)])
    knots = sorted(draw(st.lists(st.integers(-24, 24), min_size=2, max_size=4, unique=True)))
    rel = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                        min_size=len(knots), max_size=len(knots)))
    phi = relevance.from_points([(t / 4.0, r) for t, r in zip(knots, rel)])
    # an exact prediction changes a curve's count but not its ser
    noise = draw(st.lists(st.sampled_from([0.0, 0.5, -1.0]) | st.floats(-3.0, 3.0),
                          min_size=n, max_size=n))
    return curves.build(ds, y + np.array(noise), phi)


@pytest.mark.parametrize("block_rows", [1, 2, 3, dataset.BLOCK_ROWS])
@settings(max_examples=100, deadline=None)
@given(cs=_export_cases())
def test_export_curves_writes_the_parent_bytes(tmp_path_factory, cs, block_rows):
    out = tmp_path_factory.mktemp("export")
    parent_export_curves(cs, out / "parent.csv")
    with mock.patch.object(dataset, "BLOCK_ROWS", block_rows):
        curves.export_curves(cs, out / "new.csv")
    assert (out / "new.csv").read_bytes() == (out / "parent.csv").read_bytes()


# Traced peak of writing one curve file, per written row: the t column
# formatted once as fixed-width bytes, one group's value columns and one
# block of rows. Measured at 21 B per row for the 50k rows and 4 groups
# below, and at 15 B for the writer that formatted every row from scratch.
# A writer that held the t column as str objects, or the file's text,
# would pass 30.
EXPORT_PEAK_PER_ROW = 30


def test_export_traced_peak_per_row(tmp_path):
    rng = np.random.default_rng(3)
    n = 50_000
    ds = dataset.from_arrays(rng.normal(size=(n, 1)), rng.normal(size=n),
                             rng.random((n, 2)) < 0.5)
    cs = curves.build(ds, ds.targets + rng.normal(size=n), relevance.from_boxplot(ds.targets))
    tracemalloc.start()
    try:
        curves.export_curves(cs, tmp_path / "curves.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = cs.n_groups * len(cs.breakpoints)
    assert cs.n_groups == 4
    assert peak < EXPORT_PEAK_PER_ROW * rows


# Traced peak of building one layout, per row: the layout's own arrays
# (relevances, breakpoints, orders, sample intervals and the samples'
# interval order, intervals and groups) plus the temporaries of building
# them. Measured at 66 B per row for the 50k rows and 4 groups below; at
# 104 B for a layout that held a groups x breakpoints count table, and at
# 157 B for one that also held each group's running count integral.
LAYOUT_PEAK_PER_ROW = 90


def test_layout_traced_peak_per_row():
    rng = np.random.default_rng(3)
    n = 50_000
    ds = dataset.from_arrays(rng.normal(size=(n, 1)), rng.normal(size=n),
                             rng.random((n, 2)) < 0.5)
    phi = relevance.from_boxplot(ds.targets)
    tracemalloc.start()
    try:
        layout = curves.CurveLayout(ds, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense_count(layout).shape[0] == 4
    assert peak < LAYOUT_PEAK_PER_ROW * n
