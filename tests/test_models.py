import itertools
import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.harness import ALGORITHMS, decode
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
from speclab.oracle import exact_output_distribution
from speclab.probability import Distribution, RandomSource


class TestRandomModel:
    def test_deterministic_in_inputs(self):
        a = random_model(4, 1, 7, 0.8)
        b = random_model(4, 1, 7, 0.8)
        assert np.array_equal(a.table, b.table)

    def test_minimal_shape(self):
        m = random_model(2, 0, 1, 1.0)
        assert m.table.shape == (1, 2)
        assert abs(m.table[0].sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("concentration", [0.05, 1.0, 1e4])
    def test_one_draw_equals_per_row_draws(self, order, concentration):
        V, seed = 5, 17
        gen = np.random.Generator(np.random.PCG64(seed))
        alpha = np.full(V, concentration)
        rows = np.stack([gen.dirichlet(alpha) for _ in range(V**order)])
        assert np.array_equal(random_model(V, order, seed, concentration).table, rows)

    def test_negative_order_rejected(self):
        # checked before V**order is formed, which would not be a row count
        with pytest.raises(ValueError, match="order must be >= 0"):
            random_model(4, -1, 0, 1.0)

    def test_one_token_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="^vocab_size must be >= 2$"):
            random_model(1, 0, 0, 1.0)

    @pytest.mark.parametrize("V, order, message", [
        (1, 0, "vocab_size must be >= 2"), (2, -1, "order must be >= 0"),
    ])
    def test_model_shape_is_checked_before_its_table(self, V, order, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MarkovModel(V, order, np.array([[1.0]]))

    @pytest.mark.parametrize("other", [random_model(3, 1, 0, 1.0), random_model(2, 2, 0, 1.0)], ids=["vocab", "order"])
    def test_blend_of_different_shapes_rejected(self, other):
        with pytest.raises(ValueError, match="^blend requires models of identical shape$"):
            blend_model(random_model(2, 1, 0, 1.0), other, 0.5)

    @pytest.mark.parametrize("concentration", [0.0, np.nan, np.inf])
    def test_non_finite_or_non_positive_concentration_rejected(self, concentration):
        with pytest.raises(ValueError, match="concentration must be finite and > 0"):
            random_model(4, 1, 0, concentration)

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
        row = m.conditional((2,))
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
        m = replace(random_model(3, 1, 5, 1.0), temperature=T)
        row = m.conditional((2,))
        assert m.conditional((1, 2)) is row
        assert replace(m, temperature=0.5).conditional((2,)) is not row
        before = row.mass.copy()
        with pytest.raises(ValueError):
            row.mass[0] = 0.0
        with pytest.raises(ValueError):
            m.table[2, 0] = 0.0
        assert np.array_equal(m.conditional((2,)).mass, before)


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

    @pytest.mark.parametrize("T", [0.0, np.nan, np.inf])
    def test_non_finite_or_non_positive_temperature_rejected(self, T):
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            temperature_scale(Distribution(np.array([0.5, 0.5])), T)

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

    @pytest.mark.parametrize("body, message", [
        ([2, 0, [[0.5, 0.5]]], "top level must be an object"),
        ({"vocab_size": 2, "order": 0, "table": "0.5 0.5"}, "table must be an array"),
        ({"vocab_size": 2, "order": 1, "table": [[0.5, 0.5], [1.0]]}, "ragged or non-numeric table ("),
        ({"vocab_size": 2, "order": 0, "table": [["a", "b"]]}, "ragged or non-numeric table ("),
        ({"vocab_size": 2, "order": 0, "table": [0.5, 0.5]}, "table must be two-dimensional"),
    ], ids=["not-an-object", "not-an-array", "ragged", "non-numeric", "one-dimensional"])
    def test_malformed_body_is_parse_error(self, tmp_path, body, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(body))
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_model(path)

    @pytest.mark.parametrize("header", [
        {"vocab_size": 2, "order": 0.7},
        {"vocab_size": 2.5, "order": 0},
        {"vocab_size": 2.0, "order": 0},
        {"vocab_size": "2", "order": 0},
        {"vocab_size": 2, "order": True},
        {"vocab_size": True, "order": 0},
        {"vocab_size": 2, "order": -1},
        {"vocab_size": 1, "order": 0},
        {"vocab_size": 2},
    ])
    def test_header_needs_integers_in_range(self, tmp_path, header):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**header, "table": [[0.5, 0.5]]}))
        with pytest.raises(ParseError):
            load_model(path)


class TestValidateTable:
    def _table(self):
        return random_model(4, 1, 2, 1.0).table.copy()

    def _error(self, table):
        with pytest.raises(InvalidRow) as e:
            MarkovModel(4, 1, table)
        return e.value

    def test_first_bad_row_reported(self):
        table = self._table()
        table[1] *= 1.5
        table[2, 0] = -0.1
        err = self._error(table)
        assert (err.index, err.reason) == (1, f"row sums to {float(table[1].sum())!r}")

    def test_negative_entry_checked_before_row_sum(self):
        table = self._table()
        table[3, 0] = -0.5
        err = self._error(table)
        assert (err.index, err.reason) == (3, "negative entry")

    def test_nan_row_reports_its_sum(self):
        table = self._table()
        table[2, 1] = np.nan
        err = self._error(table)
        assert (err.index, err.reason) == (2, "row sums to nan")

    def test_slightly_off_row_rescaled_by_its_sum(self):
        table = random_model(64, 1, 2, 1.0).table.copy()
        table[1] *= 1.0 + 1e-9
        table[2] *= 1.0 + 3e-7
        table[3] *= 1.0 + 1e-13
        m = MarkovModel(64, 1, table)
        for i in (1, 2):
            assert np.array_equal(m.table[i], table[i] / table[i].sum())
        kept = np.delete(np.arange(64), [1, 2])
        assert np.array_equal(m.table[kept], table[kept])


class TestPairs:
    def test_vocab_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ModelPair(random_model(2, 0, 1, 1.0), random_model(3, 0, 1, 1.0))

    @pytest.mark.parametrize("T", [0.0, np.nan, np.inf])
    def test_non_finite_or_non_positive_temperature_rejected(self, T):
        m = random_model(3, 0, 1, 1.0)
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            ModelPair(m, m, T)

    def test_full_similarity_matches_draft(self):
        pair = generate_pair(4, 1, 11, 1.0, similarity=1.0)
        assert np.allclose(pair.draft.table, pair.target.table)

    def test_blend_is_convex(self):
        a = random_model(3, 1, 1, 1.0)
        b = random_model(3, 1, 2, 1.0)
        mid = blend_model(a, b, 0.25)
        assert np.array_equal(mid.table, 0.25 * a.table + 0.75 * b.table)

    def test_temperature_applied_to_both(self):
        pair = generate_pair(4, 0, 5, 1.0, similarity=0.3, temperature=0.5)
        raw_p = pair.draft.table[0]
        cooled = pair.draft.conditional(())
        assert not np.allclose(raw_p, cooled.mass)
        assert int(np.argmax(raw_p)) == int(np.argmax(cooled.mass))


def _tempered_at_one(pair: ModelPair, T: float) -> ModelPair:
    """``pair``'s tables with each row tempered by ``temperature_scale``, used at T = 1."""

    def temper(m):
        rows = [temperature_scale(Distribution(row), T).mass for row in m.table]
        return MarkovModel(m.vocab_size, m.order, np.array(rows))

    return ModelPair(temper(pair.draft), temper(pair.target))


@pytest.mark.parametrize("T", [0.5, 2.0])
@pytest.mark.parametrize("V, order", [(6, 2), (16, 1)])
class TestTemperatureAppliedOnce:
    """A pair built at T samples exactly as its rows tempered once and read at T = 1."""

    def test_decodes_match(self, V, order, T):
        pair = generate_pair(V, order, 3, 0.5, 0.5, T)
        plain = _tempered_at_one(pair, T)
        for algo, seed in itertools.product(ALGORITHMS, range(3)):
            got, gm = decode(pair, algo, 2, 3, (1, 2), 24, RandomSource(seed))
            want, wm = decode(plain, algo, 2, 3, (1, 2), 24, RandomSource(seed))
            assert got == want
            gm, wm = asdict(gm), asdict(wm)
            del gm["wall_ms"], wm["wall_ms"]
            assert gm == wm

    def test_oracle_report_matches(self, V, order, T):
        pair = generate_pair(V, order, 3, 0.5, 0.5, T)
        got = exact_output_distribution(pair, 2, 2).to_jsonable()
        want = exact_output_distribution(_tempered_at_one(pair, T), 2, 2).to_jsonable()
        del got["runtime_s"], want["runtime_s"]
        assert got == want

    def test_rebuilt_pair_keeps_its_rows(self, V, order, T):
        pair = generate_pair(V, order, 3, 0.5, 0.5, T)
        rebuilt, plain = ModelPair(pair.draft, pair.target, pair.temperature), _tempered_at_one(pair, T)
        assert rebuilt.draft is pair.draft and rebuilt.target is pair.target
        for ctx in itertools.product(range(V), repeat=order):
            for model, once in ((rebuilt.draft, plain.draft), (rebuilt.target, plain.target)):
                assert np.array_equal(model.conditional(ctx).mass, once.conditional(ctx).mass)
