import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.models import (
    InvalidRow,
    MarkovModel,
    ModelPair,
    ParseError,
    blend_model,
    generate_pair,
    load_model,
    random_model,
    save_model,
    temperature_scale,
)
from speclab.probability import Distribution


class TestRandomModel:
    def test_deterministic_in_inputs(self):
        a = random_model(4, 1, 7, 0.8)
        b = random_model(4, 1, 7, 0.8)
        assert np.array_equal(a.table, b.table)

    def test_minimal_shape(self):
        m = random_model(2, 0, 1, 1.0)
        assert m.table.shape == (1, 2)
        assert abs(m.table[0].sum() - 1.0) < 1e-12

    def test_high_concentration_approaches_uniform(self):
        # Dirichlet(1e4) entry sd ~ sqrt(0.25*0.75/40001) ~ 0.0022; 0.02 is ~9 sigma
        m = random_model(4, 2, 3, 1e4)
        assert np.max(np.abs(m.table - 0.25)) < 0.02


class TestConditional:
    def test_order_zero_ignores_context(self):
        m = MarkovModel(3, 0, np.array([[0.2, 0.3, 0.5]]))
        assert np.array_equal(m.conditional(()).mass, m.conditional((0, 1, 2)).mass)

    def test_unit_temperature_is_identity(self):
        m = random_model(3, 1, 5, 1.0)
        row = m.conditional((2,), temperature=1.0)
        assert np.array_equal(row.mass, m.table[2])

    def test_markov_suffix_property(self):
        m = random_model(3, 2, 9, 1.0)
        a = m.conditional((0, 1, 2, 1, 0))
        b = m.conditional((2, 2, 2, 1, 0))
        assert np.array_equal(a.mass, b.mass)

    def test_short_context_left_padded_with_zero(self):
        m = random_model(3, 2, 9, 1.0)
        assert np.array_equal(m.conditional((1,)).mass, m.conditional((0, 1)).mass)
        assert np.array_equal(m.conditional(()).mass, m.conditional((0, 0)).mass)

    @pytest.mark.parametrize("T", [1.0, 0.7])
    def test_rows_cached_and_read_only(self, T):
        m = random_model(3, 1, 5, 1.0)
        row = m.conditional((2,), T)
        assert m.conditional((1, 2), T) is row
        assert m.conditional((2,), 0.5) is not row
        before = row.mass.copy()
        with pytest.raises(ValueError):
            row.mass[0] = 0.0
        with pytest.raises(ValueError):
            m.table[2, 0] = 0.0
        assert np.array_equal(m.conditional((2,), T).mass, before)


class TestTemperatureScale:
    def test_identity(self):
        d = Distribution(np.array([0.7, 0.3]))
        assert temperature_scale(d, 1.0) is d

    def test_symmetric_unchanged(self):
        d = Distribution(np.array([0.5, 0.5]))
        out = temperature_scale(d, 3.7)
        assert np.allclose(out.mass, [0.5, 0.5])

    def test_low_temperature_sharpens(self):
        expected = 0.9**10 / (0.9**10 + 0.1**10)
        out = temperature_scale(Distribution(np.array([0.9, 0.1])), 0.1)
        assert abs(out.mass[0] - expected) < 1e-12
        assert out.mass[0] >= 0.999999

    @given(st.integers(0, 10_000), st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=100)
    def test_argmax_preserved(self, seed, T):
        gen = np.random.Generator(np.random.PCG64(seed))
        d = Distribution(gen.dirichlet(np.ones(5)))
        out = temperature_scale(d, T)
        assert int(np.argmax(out.mass)) == int(np.argmax(d.mass))


class TestFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        m = random_model(3, 1, 123, 0.6)
        path = tmp_path / "m.json"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.vocab_size == 3 and loaded.order == 1
        assert np.array_equal(loaded.table, m.table)

    def test_explicit_table_round_trip(self, tmp_path):
        m = MarkovModel(2, 1, np.array([[0.8, 0.2], [0.3, 0.7]]))
        path = tmp_path / "m.json"
        save_model(m, path)
        loaded = load_model(path)
        assert np.allclose(loaded.table, [[0.8, 0.2], [0.3, 0.7]])

    def test_tolerant_row_sum_renormalized(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "vocab_size": 2, "order": 0, "table": [[0.5000004, 0.5]],
        }))
        m = load_model(path)
        assert abs(m.table[0].sum() - 1.0) < 1e-12

    def test_negative_entry_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "vocab_size": 2, "order": 0, "table": [[-0.1, 1.1]],
        }))
        with pytest.raises(InvalidRow):
            load_model(path)

    def test_row_sum_beyond_tolerance_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "vocab_size": 2, "order": 0, "table": [[0.6, 0.6]],
        }))
        with pytest.raises(InvalidRow):
            load_model(path)

    def test_nan_entry_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "vocab_size": 2, "order": 0, "table": [[float("nan"), 0.5]],
        }))
        with pytest.raises(InvalidRow):
            load_model(path)

    def test_garbage_is_parse_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json")
        with pytest.raises(ParseError):
            load_model(path)

    def test_wrong_shape_is_parse_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"vocab_size": 2, "order": 1, "table": [[0.5, 0.5]]}))
        with pytest.raises(ParseError):
            load_model(path)


class TestPairs:
    def test_vocab_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ModelPair(random_model(2, 0, 1, 1.0), random_model(3, 0, 1, 1.0))

    def test_full_similarity_matches_draft(self):
        pair = generate_pair(4, 1, 11, 1.0, similarity=1.0)
        assert np.allclose(pair.draft.table, pair.target.table)

    def test_blend_is_convex(self):
        a = random_model(3, 1, 1, 1.0)
        b = random_model(3, 1, 2, 1.0)
        mid = blend_model(a, b, 0.25)
        assert np.allclose(mid.table, 0.25 * a.table + 0.75 * b.table)

    def test_temperature_applied_to_both(self):
        pair = generate_pair(4, 0, 5, 1.0, similarity=0.3, temperature=0.5)
        raw_p = pair.draft.conditional((), 1.0).mass
        cooled = pair.draft_conditional(())
        assert not np.allclose(raw_p, cooled.mass)
        assert int(np.argmax(raw_p)) == int(np.argmax(cooled.mass))
