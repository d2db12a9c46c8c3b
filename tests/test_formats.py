"""File formats: native JSON round trips and UAI text parsing."""

import json

import numpy as np
import pytest

from spiderbp import (
    COUNT,
    DUAL,
    PROB,
    DualNumber,
    FormatWarning,
    GraphMode,
    ParseError,
    UnsupportedPreambleError,
    ValidationError,
    build_graph,
    exact_contraction,
    parse_native,
    parse_uai,
    serialize_native,
    serialize_uai,
)

from fixtures import random_tree

MINIMAL = """
{
  "semiring_hint": "prob",
  "variables": [{"id": 0, "name": "a", "dim": 2}, {"id": 1, "dim": 2}],
  "factors": [{"id": 0, "neighbors": [0, 1], "values": [1.0, 2.0, 3.0, 4.0]}],
  "mode": "spider"
}
"""

UAI_PAIR = """MARKOV
2
2 2
1
2 0 1

4
1.0 2.0 3.0 4.0
"""

UAI_WITH_UNARY = """MARKOV
2
2 2
2
2 0 1
1 0

4
1.0 2.0 3.0 4.0

2
0.5 0.25
"""


class TestParseNative:
    def test_minimal_document(self):
        g, sr = parse_native(MINIMAL)
        assert sr.name == "prob"
        assert g.mode is GraphMode.SPIDER
        assert [v.obj.dim for v in g.variables] == [2, 2]
        assert g.variable(0).obj.name == "a"
        assert g.variable(1).obj.name == "v1"  # defaulted
        assert g.factor(0).tensor.data.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_mode_defaults_to_spider(self):
        doc = json.loads(MINIMAL)
        del doc["mode"]
        g, _ = parse_native(json.dumps(doc))
        assert g.mode is GraphMode.SPIDER

    def test_explicit_semiring_wins_over_hint(self):
        doc = json.loads(MINIMAL)
        doc["factors"][0]["values"] = [1, 0, 0, 1]
        _, sr = parse_native(json.dumps(doc), semiring="count")
        assert sr.name == "count"

    def test_payload_fallbacks(self):
        doc = json.loads(MINIMAL)
        del doc["semiring_hint"]
        doc["factors"][0]["values"] = [True, False, False, True]
        _, sr = parse_native(json.dumps(doc))
        assert sr.name == "bool"

        doc["factors"][0]["values"] = [[1.0, 0.0]] * 4
        _, sr = parse_native(json.dumps(doc))
        assert sr.name == "dual"

        doc["factors"][0]["values"] = [1.0, 2.0, 3.0, 4.0]
        _, sr = parse_native(json.dumps(doc))
        assert sr.name == "prob"

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError, match=r"line \d+ column \d+"):
            parse_native("{not json")

    def test_unknown_keys_rejected_with_path(self):
        doc = json.loads(MINIMAL)
        doc["extra"] = 1
        with pytest.raises(ParseError, match="'extra' at top level"):
            parse_native(json.dumps(doc))

        doc = json.loads(MINIMAL)
        doc["variables"][1]["flavor"] = "?"
        with pytest.raises(ParseError, match=r"'flavor' at variables\[1\]"):
            parse_native(json.dumps(doc))

        doc = json.loads(MINIMAL)
        doc["factors"][0]["weight"] = 2
        with pytest.raises(ParseError, match=r"'weight' at factors\[0\]"):
            parse_native(json.dumps(doc))

    def test_missing_keys_rejected(self):
        doc = json.loads(MINIMAL)
        del doc["factors"][0]["values"]
        with pytest.raises(ParseError, match="missing key 'values'"):
            parse_native(json.dumps(doc))

    def test_variable_values_only_allowed_in_bipartite(self):
        doc = json.loads(MINIMAL)
        doc["variables"][0]["values"] = [1.0, 1.0]
        with pytest.raises(ParseError, match="'values'"):
            parse_native(json.dumps(doc))

    def test_bool_ids_rejected(self):
        doc = json.loads(MINIMAL)
        doc["variables"][0]["id"] = True
        with pytest.raises(ParseError, match="id must be an integer"):
            parse_native(json.dumps(doc))

    def test_bad_mode(self):
        doc = json.loads(MINIMAL)
        doc["mode"] = "triangle"
        with pytest.raises(ParseError, match="mode"):
            parse_native(json.dumps(doc))

    def test_bad_semiring_hint(self):
        doc = json.loads(MINIMAL)
        doc["semiring_hint"] = "nosuch"
        with pytest.raises(ParseError, match="unknown semiring"):
            parse_native(json.dumps(doc))

    def test_unknown_neighbor_cites_factor(self):
        doc = json.loads(MINIMAL)
        doc["factors"][0]["neighbors"] = [0, 7]
        with pytest.raises(ValidationError, match="factor 0"):
            parse_native(json.dumps(doc))

    def test_wrong_value_count_cites_factor(self):
        doc = json.loads(MINIMAL)
        doc["factors"][0]["values"] = [1.0, 2.0]
        with pytest.raises(ValidationError, match="factor 0"):
            parse_native(json.dumps(doc))

    def test_negative_prob_value_cites_factor(self):
        doc = json.loads(MINIMAL)
        doc["factors"][0]["values"] = [1.0, -2.0, 3.0, 4.0]
        with pytest.raises(ValidationError, match="factor 0"):
            parse_native(json.dumps(doc))

    @pytest.mark.parametrize("semiring", ["prob", "maxtimes"])
    def test_non_finite_value_cites_factor(self, semiring):
        # json reads 1e309 as inf, and accepts the NaN and Infinity literals
        for bad in ("1e309", "Infinity", "NaN"):
            text = MINIMAL.replace("[1.0, 2.0, 3.0, 4.0]", f"[1.0, {bad}, 3.0, 4.0]")
            with pytest.raises(ValidationError, match="factor 0"):
                parse_native(text, semiring=semiring)

    def test_non_finite_dual_value_cites_factor(self):
        for bad in ("[NaN, 1.0]", "[1.0, 1e309]"):
            text = MINIMAL.replace("[1.0, 2.0, 3.0, 4.0]", f"[[1.0, 0.0], {bad}, [3.0, 0.0], [4.0, 0.0]]")
            with pytest.raises(ValidationError, match="factor 0"):
                parse_native(text, semiring="dual")

    def test_bipartite_document(self):
        doc = {
            "semiring_hint": "prob",
            "variables": [{"id": 0, "dim": 2, "values": [1.0, 0.0, 0.0, 1.0]}],
            "factors": [
                {"id": 0, "neighbors": [0], "values": [1.0, 2.0]},
                {"id": 1, "neighbors": [0], "values": [3.0, 4.0]},
            ],
            "mode": "bipartite",
        }
        g, _ = parse_native(json.dumps(doc))
        assert g.mode is GraphMode.BIPARTITE
        assert g.variable(0).tensor.shape == (2, 2)

    def test_bipartite_requires_variable_values(self):
        doc = {
            "variables": [{"id": 0, "dim": 2}],
            "factors": [{"id": 0, "neighbors": [0], "values": [1.0, 2.0]}],
            "mode": "bipartite",
        }
        with pytest.raises(ValidationError, match="variable 0"):
            parse_native(json.dumps(doc))


class TestNativeRoundTrip:
    def test_structure_identical(self):
        rng = np.random.default_rng(53)
        for name in ("prob", "maxtimes", "bool", "count"):
            g = random_tree(rng, name, max_vars=6)
            text = serialize_native(g, name)
            g2, sr2 = parse_native(text)
            assert sr2.name == name
            assert g2.mode == g.mode
            assert [(v.id, v.obj.name, v.obj.dim) for v in g2.variables] == [
                (v.id, v.obj.name, v.obj.dim) for v in g.variables
            ]
            for f, f2 in zip(g.factors, g2.factors):
                assert f2.id == f.id
                assert f2.neighbors == f.neighbors
                assert f2.tensor.data.tolist() == f.tensor.data.tolist()

    def test_serialization_is_stable(self):
        rng = np.random.default_rng(59)
        g = random_tree(rng, "prob")
        text = serialize_native(g, "prob")
        g2, _ = parse_native(text)
        assert serialize_native(g2, "prob") == text

    def test_float_precision_survives(self):
        g = build_graph([2], [((0,), [1 / 3, 0.1])], PROB)
        g2, _ = parse_native(serialize_native(g, PROB))
        assert g2.factor(0).tensor.data.tolist() == [1 / 3, 0.1]

    def test_dual_values_as_pairs(self):
        g = build_graph([2], [((0,), [[1.5, 2.0], [3.0, 0.0]])], DUAL)
        text = serialize_native(g, DUAL)
        doc = json.loads(text)
        assert doc["factors"][0]["values"] == [[1.5, 2.0], [3.0, 0.0]]
        g2, sr = parse_native(text)
        assert sr.name == "dual"
        assert g2.factor(0).tensor.data.tolist() == [
            DualNumber(1.5, 2.0),
            DualNumber(3.0, 0.0),
        ]

    def test_canonical_key_order(self):
        g = build_graph([2], [((0,), [1.0, 2.0])], PROB)
        text = serialize_native(g, PROB)
        keys = list(json.loads(text))
        assert keys == ["semiring_hint", "variables", "factors", "mode"]
        assert text.index("semiring_hint") < text.index("variables") < text.index("factors")

    def test_bipartite_round_trip(self):
        g = build_graph(
            [2],
            [((0,), [1.0, 2.0]), ((0,), [3.0, 4.0])],
            PROB,
            mode=GraphMode.BIPARTITE,
            var_tensors={0: [1.0, 0.0, 0.0, 1.0]},
        )
        g2, _ = parse_native(serialize_native(g, PROB))
        assert g2.mode is GraphMode.BIPARTITE
        assert g2.variable(0).tensor.data.tolist() == [1.0, 0.0, 0.0, 1.0]


class TestParseUAI:
    def test_pair_table(self):
        g, sr = parse_uai(UAI_PAIR)
        assert sr.name == "prob"
        assert len(g.variables) == 2
        assert g.factor(0).neighbors == (0, 1)
        assert exact_contraction(g, PROB) == 10.0

    def test_with_unary_hand_computed(self):
        g, _ = parse_uai(UAI_WITH_UNARY)
        # 0.5 * (1 + 2) + 0.25 * (3 + 4)
        assert np.isclose(exact_contraction(g, PROB), 3.25, rtol=1e-12)

    def test_whitespace_is_free_form(self):
        squashed = " ".join(UAI_PAIR.split())
        g, _ = parse_uai(squashed)
        assert exact_contraction(g, PROB) == 10.0

    def test_bayes_reads_with_warning(self):
        text = UAI_PAIR.replace("MARKOV", "BAYES")
        with pytest.warns(FormatWarning):
            g, _ = parse_uai(text)
        assert exact_contraction(g, PROB) == 10.0

    def test_other_preambles_rejected(self):
        with pytest.raises(UnsupportedPreambleError, match="byte offset 0"):
            parse_uai(UAI_PAIR.replace("MARKOV", "MRF"))

    def test_unsupported_preamble_is_a_parse_error(self):
        assert issubclass(UnsupportedPreambleError, ParseError)

    def test_truncation_reports_byte_offset(self):
        text = UAI_PAIR[: UAI_PAIR.index("4\n1.0")]
        with pytest.raises(ParseError, match="byte offset"):
            parse_uai(text)

    def test_bad_token_reports_byte_offset(self):
        text = UAI_PAIR.replace("2.0", "duck")
        with pytest.raises(ParseError, match="byte offset"):
            parse_uai(text)

    def test_scope_out_of_range(self):
        text = UAI_PAIR.replace("2 0 1", "2 0 9")
        with pytest.raises(ParseError, match="unknown variable 9"):
            parse_uai(text)

    def test_count_semiring_reading(self):
        text = UAI_PAIR.replace("1.0 2.0 3.0 4.0", "1 0 0 1")
        g, sr = parse_uai(text, semiring="count")
        assert sr.name == "count"
        assert exact_contraction(g, COUNT) == 2

    def test_fractional_count_rejected(self):
        with pytest.raises(ValidationError, match="factor 0"):
            parse_uai(UAI_PAIR.replace("2.0", "2.5"), semiring="count")

    @pytest.mark.parametrize("semiring", ["prob", "maxtimes"])
    def test_non_finite_value_rejected(self, semiring):
        for bad in ("1e309", "inf", "nan"):
            with pytest.raises(ValidationError, match="factor 0"):
                parse_uai(UAI_PAIR.replace("2.0", bad), semiring=semiring)


class TestSerializeUAI:
    def test_round_trip(self):
        rng = np.random.default_rng(61)
        g = random_tree(rng, "prob", max_vars=6)
        text = serialize_uai(g, "prob")
        g2, _ = parse_uai(text)
        assert len(g2.variables) == len(g.variables)
        for f, f2 in zip(g.factors, g2.factors):
            assert f2.neighbors == f.neighbors
            assert f2.tensor.data.tolist() == f.tensor.data.tolist()

    def test_bool_as_01(self):
        g = build_graph([2], [((0,), [True, False])], "bool")
        text = serialize_uai(g, "bool")
        lines = [ln for ln in text.splitlines() if ln]
        assert lines[-1] == "1 0"
        g2, _ = parse_uai(text, semiring="bool")
        assert g2.factor(0).tensor.data.tolist() == [True, False]

    def test_dual_has_no_uai_form(self):
        g = build_graph([2], [((0,), [[1.0, 0.0], [2.0, 0.0]])], DUAL)
        with pytest.raises(ValidationError):
            serialize_uai(g, DUAL)

    def test_bipartite_has_no_uai_form(self):
        g = build_graph(
            [2],
            [((0,), [1.0, 1.0])],
            PROB,
            mode=GraphMode.BIPARTITE,
            var_tensors={0: [1.0, 1.0]},
        )
        with pytest.raises(ValidationError):
            serialize_uai(g, PROB)
