"""Grid core: logit/probability math, update recursion, segmentation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgrid import Box3, LabelOccupancyGrid, logit, probability, voxel_center
from labelgrid.grid import pack_key, pack_keys, unpack_codes
from oracles import oracle_update

KEY_LIMIT = 2 ** 20  # keys must lie in [-KEY_LIMIT, KEY_LIMIT) on every axis

# high-precision oracle values, frozen from 30-digit evaluation
LN_7_OVER_3 = 0.8472978603872036      # ln(0.7 / 0.3)
LN_9 = 2.1972245773362196             # ln 9 = logit(0.9)
TWO_LN_7_OVER_3 = 1.6945957207744072  # 2 ln(7/3)
P_49_OVER_58 = 49.0 / 58.0            # posterior of two p=0.7 updates


class TestLogit:
    def test_symmetric_point(self):
        assert logit(0.5) == 0.0

    def test_oracle_values(self):
        assert logit(0.7) == pytest.approx(LN_7_OVER_3, abs=1e-12)
        assert logit(0.9) == pytest.approx(LN_9, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.3, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            logit(bad)


class TestProbability:
    def test_uniform_prior(self):
        assert probability(0.0) == 0.5

    def test_oracle_value(self):
        assert probability(LN_9) == pytest.approx(0.9, abs=1e-12)
        assert probability(-LN_9) == pytest.approx(0.1, abs=1e-12)

    def test_symmetry(self):
        for lo in (0.3, 1.7, 5.0, 30.0):
            assert probability(-lo) == pytest.approx(1.0 - probability(lo), abs=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            probability(bad)

    def test_extreme_log_odds_do_not_overflow(self):
        assert probability(1000.0) == 1.0
        assert probability(-1000.0) == 0.0


@given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
def test_round_trip(p):
    assert probability(logit(p)) == pytest.approx(p, abs=1e-12)


@given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
def test_logit_antisymmetry(p):
    assert logit(1.0 - p) == pytest.approx(-logit(p), abs=1e-12)


class TestVoxelKey:
    def test_center_round_trips(self):
        for key in [(0, 0, 0), (3, -2, 7), (-100, 5, -1)]:
            assert np.floor(voxel_center(key, 0.01) / 0.01).tolist() == list(key)


class TestUpdateVoxel:
    def test_fresh_voxel_posterior_equals_measurement(self):
        g = LabelOccupancyGrid(0.01, 4)
        g.update_voxel((0, 0, 0), 1, 0.9)
        assert g.log_odds((0, 0, 0), 1) == pytest.approx(LN_9, abs=1e-12)
        assert g.voxel_probability((0, 0, 0), 1) == pytest.approx(0.9, abs=1e-12)

    def test_two_confident_updates_accumulate(self):
        g = LabelOccupancyGrid(0.01, 4)
        g.update_voxel((0, 0, 0), 2, 0.7)
        g.update_voxel((0, 0, 0), 2, 0.7)
        assert g.log_odds((0, 0, 0), 2) == pytest.approx(TWO_LN_7_OVER_3, abs=1e-12)
        assert g.voxel_probability((0, 0, 0), 2) == pytest.approx(P_49_OVER_58, abs=1e-12)

    def test_complementary_updates_cancel(self):
        # 0.7/0.3 are not exact float complements; the residue is O(1 ulp)
        g = LabelOccupancyGrid(0.01, 4)
        g.update_voxel((0, 0, 0), 0, 0.7)
        g.update_voxel((0, 0, 0), 0, 0.3)
        assert abs(g.log_odds((0, 0, 0), 0)) < 5e-16
        assert g.voxel_probability((0, 0, 0), 0) == pytest.approx(0.5, abs=1e-15)

    def test_other_labels_untouched(self):
        g = LabelOccupancyGrid(0.01, 4)
        g.update_voxel((1, 2, 3), 2, 0.9)
        for label in (0, 1, 3):
            assert g.log_odds((1, 2, 3), label) == 0.0

    def test_clamp_saturates(self):
        g = LabelOccupancyGrid(0.01, 2, clamp=3.5)
        for _ in range(10):
            g.update_voxel((0, 0, 0), 1, 0.9)
        assert g.log_odds((0, 0, 0), 1) == 3.5

    def test_roi_grid_stores_keys_outside_the_roi(self):
        """Registration applies the roi; the grid stores what it is given."""
        roi = Box3((0, 0, 0), (2, 2, 2))
        keys = np.array([(1, 1, 1), (5, 5, 5)])
        for g in (LabelOccupancyGrid(1.0, 2, roi=roi), LabelOccupancyGrid(1.0, 2)):
            g.update(pack_keys(keys), np.full((2, 2), 0.9))
            g.update_voxel((-3, 0, 0), 1, 0.9)
            assert unpack_codes(g.codes).tolist() == [[-3, 0, 0], [1, 1, 1], [5, 5, 5]]
            assert g.log_odds((5, 5, 5), 1) == pytest.approx(LN_9, abs=1e-12)
            assert g.log_odds((-3, 0, 0), 1) == pytest.approx(LN_9, abs=1e-12)

    def test_label_out_of_range(self):
        g = LabelOccupancyGrid(0.01, 4)
        with pytest.raises(ValueError):
            g.update_voxel((0, 0, 0), 4, 0.9)

    def test_label_must_be_an_integer(self):
        # int() would take 1.9 and True as label 1
        g = LabelOccupancyGrid(0.01, 4)
        for label in (1.9, True, "1", math.nan, -1):
            with pytest.raises(ValueError, match=r"label must be an integer in \[0, 4\), got"):
                g.update_voxel((0, 0, 0), label, 0.9)
            with pytest.raises(ValueError, match="label must be an integer"):
                g.segment(label)
        assert len(g) == 0
        g.update_voxel((0, 0, 0), np.int64(1), 0.9)
        g.update_voxel((0, 0, 0), 2.0, 0.9)
        assert g.log_odds((0, 0, 0), 1.0) == g.log_odds((0, 0, 0), np.int32(2)) == LN_9

    def test_vector_and_scalar_paths_agree(self):
        rng = np.random.default_rng(7)
        a = LabelOccupancyGrid(0.01, 5)
        b = LabelOccupancyGrid(0.01, 5)
        for _ in range(50):
            key = tuple(rng.integers(0, 3, size=3))
            probs = rng.uniform(0.05, 0.95, size=5)
            a.update(np.array([pack_key(key)]), probs[None, :])
            for label in range(5):
                b.update_voxel(key, label, probs[label])
        assert np.array_equal(a.codes, b.codes)
        assert np.allclose(a.log_odds_matrix, b.log_odds_matrix, atol=1e-12)

    @pytest.mark.parametrize("p", [0.476, 0.492, 0.494, 0.504, np.float32(0.3)])
    def test_scalar_update_stores_the_bits_of_a_one_row_update(self, p):
        assert_one_logit(p, 1)


def assert_one_logit(p, label):
    """``update_voxel`` and a one-row ``update`` with 0.5 at every other
    label add the same logit, so they store equal bits."""
    key = (1, -2, 3)
    scalar = LabelOccupancyGrid(0.01, 3, clamp=math.inf)
    vector = LabelOccupancyGrid(0.01, 3, clamp=math.inf)
    row = np.full((1, 3), 0.5)
    row[0, label] = p
    for _ in range(2):
        scalar.update_voxel(key, label, p)
        vector.update(np.array([pack_key(key)]), row)
    assert scalar == vector
    assert scalar.log_odds_matrix.tobytes() == vector.log_odds_matrix.tobytes()


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       st.integers(0, 2))
def test_scalar_and_vector_updates_take_one_logit(p, label):
    assert_one_logit(p, label)


class TestVoxelProbability:
    def test_absent_voxel_is_unknown(self):
        g = LabelOccupancyGrid(0.01, 4)
        assert g.voxel_probability((9, 9, 9), 0) == 0.5

    def test_closed_form_for_repeated_updates(self):
        g = LabelOccupancyGrid(0.01, 2, clamp=3.5)
        p, k = 0.7, 10
        for _ in range(k):
            g.update_voxel((0, 0, 0), 1, p)
        expected = probability(min(k * logit(p), 3.5))
        assert g.voxel_probability((0, 0, 0), 1) == pytest.approx(expected, abs=1e-12)


class TestSegment:
    def test_empty_grid(self):
        g = LabelOccupancyGrid(0.01, 4)
        segment = g.segment(1)
        assert segment.shape == (0, 3) and segment.dtype == np.int64

    def test_single_update(self):
        g = LabelOccupancyGrid(0.01, 4)
        g.update_voxel((2, 3, 4), 3, 0.9)
        assert g.segment(3).tolist() == [[2, 3, 4]]
        assert g.segment(2).shape == (0, 3)

    def test_exact_zero_log_odds_excluded(self):
        # 0.75/0.25 logits cancel bitwise, leaving the unknown prior
        assert logit(0.75) + logit(0.25) == 0.0
        g = LabelOccupancyGrid(0.01, 4)
        g.update_voxel((0, 0, 0), 1, 0.75)
        g.update_voxel((0, 0, 0), 1, 0.25)
        assert g.log_odds((0, 0, 0), 1) == 0.0
        assert g.segment(1).shape == (0, 3)

    def test_segment_matches_positive_log_odds_exactly(self):
        rng = np.random.default_rng(3)
        g = LabelOccupancyGrid(0.01, 3)
        for _ in range(500):
            g.update_voxel(tuple(rng.integers(0, 4, size=3)),
                           int(rng.integers(0, 3)),
                           float(rng.uniform(0.1, 0.9)))
        for label in range(3):
            expected = [key for key, vec in zip(unpack_codes(g.codes).tolist(),
                                                g.log_odds_matrix) if vec[label] > 0.0]
            assert g.segment(label).tolist() == expected


class TestCentroid:
    def test_single_voxel(self):
        g = LabelOccupancyGrid(1.0, 2)
        g.update_voxel((0, 0, 0), 1, 0.9)
        assert np.allclose(g.centroid(1), [0.5, 0.5, 0.5])

    def test_two_voxels_midpoint(self):
        g = LabelOccupancyGrid(1.0, 2)
        g.update_voxel((0, 0, 0), 1, 0.9)
        g.update_voxel((1, 0, 0), 1, 0.9)
        assert np.allclose(g.centroid(1), [1.0, 0.5, 0.5])

    def test_block_mean_against_enumeration(self):
        g = LabelOccupancyGrid(1.0, 2)
        centers = []
        for ix in range(2):
            for iy in range(2):
                for iz in range(2):
                    g.update_voxel((ix, iy, iz), 1, 0.9)
                    centers.append([ix + 0.5, iy + 0.5, iz + 0.5])
        assert np.allclose(g.centroid(1), np.mean(centers, axis=0))
        assert np.allclose(g.centroid(1), [1.0, 1.0, 1.0])

    def test_empty_segment_is_none(self):
        g = LabelOccupancyGrid(1.0, 2)
        assert g.centroid(1) is None


# --- spec-level invariants ---------------------------------------------------

@settings(max_examples=200)
@given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=100))
def test_additivity_unclamped(ps):
    g = LabelOccupancyGrid(0.01, 2, clamp=math.inf)
    for p in ps:
        g.update_voxel((0, 0, 0), 1, p)
    folded = 0.0
    for p in ps:
        folded += logit(p)
    assert g.log_odds((0, 0, 0), 1) == pytest.approx(folded, abs=1e-12)


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=0.3, max_value=0.7), min_size=2, max_size=20),
       st.randoms(use_true_random=False))
def test_commutativity_without_clamping(ps, rand):
    # clamp far out of reach so no intermediate saturation occurs
    def run(seq):
        g = LabelOccupancyGrid(0.01, 2, clamp=1e9)
        for p in seq:
            g.update_voxel((0, 0, 0), 1, p)
        return g.log_odds((0, 0, 0), 1)

    shuffled = list(ps)
    rand.shuffle(shuffled)
    assert run(shuffled) == pytest.approx(run(ps), abs=1e-12)


def test_monotone_saturation():
    g = LabelOccupancyGrid(0.01, 2, clamp=2.0)
    values = []
    for _ in range(20):
        g.update_voxel((0, 0, 0), 1, 0.7)
        values.append(g.log_odds((0, 0, 0), 1))
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == 2.0


def test_sparse_matches_dense_oracle():
    """Brute-force dense-array recursion as an independent oracle."""
    rng = np.random.default_rng(123)
    shape, labels = (8, 8, 8), 4
    clamp = 3.5
    dense = np.zeros(shape + (labels,))
    grid = LabelOccupancyGrid(0.05, labels, clamp=clamp)
    for _ in range(2000):
        ix, iy, iz = (int(v) for v in rng.integers(0, 8, size=3))
        label = int(rng.integers(0, labels))
        p = float(rng.uniform(0.05, 0.95))
        dense[ix, iy, iz, label] = np.clip(
            dense[ix, iy, iz, label] + np.log(p / (1.0 - p)), -clamp, clamp)
        grid.update_voxel((ix, iy, iz), label, p)
    for ix in range(8):
        for iy in range(8):
            for iz in range(8):
                for label in range(labels):
                    want = 1.0 - 1.0 / (1.0 + np.exp(dense[ix, iy, iz, label]))
                    got = grid.voxel_probability((ix, iy, iz), label)
                    assert got == pytest.approx(want, abs=1e-12)


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [
        {"resolution": 0.0, "num_labels": 2},
        {"resolution": -1.0, "num_labels": 2},
        {"resolution": 0.01, "num_labels": 1},
        {"resolution": 0.01, "num_labels": 2, "clamp": 0.0},
        {"resolution": 0.01, "num_labels": 2, "clamp": -3.0},
        {"resolution": 0.01, "num_labels": 2, "clamp": math.nan},
        {"resolution": 0.005, "num_labels": math.nan},
        {"resolution": 0.005, "num_labels": "40"},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            LabelOccupancyGrid(**kwargs)

    def test_num_labels_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"num_labels must be an integer >= 2, got 40\.7"):
            LabelOccupancyGrid(0.005, 40.7)
        for num_labels in (np.int64(40), 40.0):
            g = LabelOccupancyGrid(0.005, num_labels)
            assert g.num_labels == 40 and type(g.num_labels) is int

    def test_label_count_is_the_matrix_width(self):
        g = LabelOccupancyGrid(0.01, 3)
        assert g != LabelOccupancyGrid(0.01, 2)
        g.set_cells([pack_key((0, 0, 0))], [[0.1, 0.2, 0.3]])
        assert g.num_labels == 3 and type(g.num_labels) is int

    def test_infinite_clamp_allowed(self):
        g = LabelOccupancyGrid(0.01, 2, clamp=math.inf)
        g.update_voxel((0, 0, 0), 1, 0.9)
        assert g.log_odds((0, 0, 0), 1) == pytest.approx(LN_9, abs=1e-15)

    def test_immutable_core_parameters(self):
        g = LabelOccupancyGrid(0.01, 4)
        with pytest.raises(AttributeError):
            g.resolution = 0.5
        with pytest.raises(AttributeError):
            g.num_labels = 8


class TestKeyRange:
    @pytest.mark.parametrize("key", [(KEY_LIMIT - 1, 0, 0), (0, -(KEY_LIMIT - 1), 0),
                                     (0, 0, -KEY_LIMIT),
                                     (KEY_LIMIT - 1, -KEY_LIMIT, KEY_LIMIT - 1)])
    def test_extreme_keys_accepted(self, key):
        g = LabelOccupancyGrid(0.005, 2)
        g.update_voxel(key, 1, 0.9)
        assert unpack_codes(g.codes).tolist() == [list(key)]
        assert g.log_odds(key, 1) == pytest.approx(LN_9, abs=1e-12)

    @pytest.mark.parametrize("key", [(KEY_LIMIT, 0, 0), (0, -KEY_LIMIT - 1, 0),
                                     (0, 0, KEY_LIMIT), (-KEY_LIMIT - 1, 0, 0)])
    def test_keys_past_the_range_rejected(self, key):
        g = LabelOccupancyGrid(0.005, 2)
        with pytest.raises(ValueError, match="outside"):
            g.update_voxel(key, 1, 0.9)
        with pytest.raises(ValueError, match="outside"):
            pack_keys(np.array([key]))
        assert len(g) == 0

    def test_code_order_is_key_order(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(-KEY_LIMIT, KEY_LIMIT, size=(500, 3))
        keys[:100, 0] = keys[100:200, 0]  # shared leading components
        codes = pack_keys(keys)
        assert [pack_key(k) for k in keys.tolist()] == codes.tolist()
        assert np.array_equal(unpack_codes(codes), keys)
        by_code = keys[np.argsort(codes)].tolist()
        assert by_code == sorted(keys.tolist())


# --- batched update against the per-voxel recursion --------------------------

unit_probs = st.floats(min_value=1e-3, max_value=1.0 - 1e-3)


@st.composite
def spread_batches(draw):
    """Sorted, distinct code batches. After the first, each batch mixes new
    codes below the stored ones, codes anywhere between the lowest and the
    highest stored code (stored or not) and new codes above them."""
    stored: set = set()
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        lo, hi = min(stored, default=KEY_LIMIT), max(stored, default=KEY_LIMIT)
        below = draw(st.sets(st.integers(lo - 40, lo - 1), max_size=5))
        between = draw(st.sets(st.integers(lo, hi), max_size=10))
        above = draw(st.sets(st.integers(hi + 1, hi + 40), max_size=5))
        batch = sorted(below | between | above)
        stored.update(batch)
        batches.append(np.array(batch, dtype=np.int64))
    return batches


@settings(max_examples=200, deadline=None)
@given(spread_batches(),
       st.data(),
       st.sampled_from([0.5, 2.0, math.inf]),
       st.booleans())
def test_batched_update_matches_per_voxel_oracle(batches, data, clamp, with_roi):
    """New codes before, between and after the stored ones land in their
    sorted rows, and every row gets exactly the per-voxel recursion."""
    labels, resolution = 3, 0.5
    roi = Box3((-1.0, -1.0, -1.0), (1.0, 1.5, 0.75)) if with_roi else None
    grid = LabelOccupancyGrid(resolution, labels, clamp=clamp, roi=roi)
    cells: dict = {}
    for codes in batches:
        probs = np.array(data.draw(st.lists(unit_probs, min_size=codes.size * labels,
                                            max_size=codes.size * labels)),
                         dtype=float).reshape(codes.size, labels)
        grid.update(codes, probs)
        # the grid's roi is metadata: the grid stores every key, as the
        # oracle does without an roi
        oracle_update(cells, None, resolution, clamp, unpack_codes(codes), probs)
        assert (np.diff(grid.codes) > 0).all()
        keys = [tuple(key) for key in unpack_codes(grid.codes).tolist()]
        assert keys == sorted(cells)
        assert grid.log_odds_matrix.tobytes() == np.array([cells[k] for k in keys]).tobytes()


def test_update_rejects_unsorted_or_duplicate_codes():
    g = LabelOccupancyGrid(1.0, 2)
    probs = np.full((2, 2), 0.6)
    for keys in ([(1, 0, 0), (0, 0, 0)], [(1, 0, 0), (1, 0, 0)]):
        with pytest.raises(ValueError, match="strictly increasing"):
            g.update(pack_keys(np.array(keys)), probs)
    assert len(g) == 0


def test_update_validates_before_writing():
    g = LabelOccupancyGrid(1.0, 2)
    codes = pack_keys(np.array([(0, 0, 0), (1, 0, 0)]))
    with pytest.raises(ValueError, match="strictly in"):
        g.update(codes, np.array([[0.6, 0.4], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="probabilities"):
        g.update(codes, np.full((2, 3), 0.5))
    assert len(g) == 0


def test_grid_is_unequal_to_a_non_grid():
    grid = LabelOccupancyGrid(0.01, 2)
    assert grid.__eq__(5) is NotImplemented
    assert (grid == 5) is False and grid != 5
