"""File formats: native JSON round trips and UAI text parsing."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiderbp import (
    PROB,
    FormatWarning,
    ParseError,
    RunConfig,
    SpiderBPError,
    TooLargeError,
    UnsupportedPreambleError,
    ValidationError,
    build_graph,
    contraction_value,
    exact_contraction,
    parse_native,
    parse_uai,
    serialize_native,
    serialize_uai,
)
from spiderbp.algebra import COUNT, DUAL, DualNumber, get_semiring
from spiderbp.tensor import DEFAULT_TENSOR_CAP, DenseTensor

from fixtures import random_tree

BENCH = Path(__file__).resolve().parent.parent / "bench"

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
        assert [v.obj.dim for v in g.variables] == [2, 2]
        assert g.variable(0).obj.name == "a"
        assert g.variable(1).obj.name == "v1"  # defaulted
        assert g.factor(0).tensor.data.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_mode_defaults_to_spider(self):
        doc = json.loads(MINIMAL)
        del doc["mode"]
        g, _ = parse_native(json.dumps(doc))
        assert serialize_native(g) == serialize_native(parse_native(MINIMAL)[0])

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

    def test_bare_number_table_in_any_position(self):
        # a rank-0 factor may give its one entry as a bare value
        factors = [
            {"id": 0, "neighbors": [], "values": 5},
            {"id": 1, "neighbors": [0], "values": [1.0, 2.0]},
        ]
        parsed = []
        for order in (factors, factors[::-1]):
            doc = {"variables": [{"id": 0, "dim": 2}], "factors": order}
            g, sr = parse_native(json.dumps(doc))
            parsed.append((sr.name, g.semiring, [g.factor(i).tensor.data.tolist() for i in (0, 1)]))
        assert parsed[0] == parsed[1] == ("prob", "prob", [[5.0], [1.0, 2.0]])

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

    def test_variables_carry_no_values(self):
        doc = json.loads(MINIMAL)
        doc["variables"][0]["values"] = [1.0, 1.0]
        with pytest.raises(ParseError, match="'values'"):
            parse_native(json.dumps(doc))

    def test_bool_ids_rejected(self):
        doc = json.loads(MINIMAL)
        doc["variables"][0]["id"] = True
        with pytest.raises(ParseError, match="id must be an integer"):
            parse_native(json.dumps(doc))

    @pytest.mark.parametrize("key, bad", [("variables", 3), ("factors", 5), ("variables", {}), ("factors", "f")])
    def test_variables_and_factors_must_be_lists(self, key, bad):
        doc = json.loads(MINIMAL)
        doc[key] = bad
        with pytest.raises(ParseError, match=f"expected a list at {key}$"):
            parse_native(json.dumps(doc))

    def test_bad_mode(self):
        doc = json.loads(MINIMAL)
        doc["mode"] = "triangle"
        with pytest.raises(ParseError, match="mode"):
            parse_native(json.dumps(doc))

    def test_bipartite_mode_names_the_spider_rewrite(self):
        doc = json.loads(MINIMAL)
        doc["mode"] = "bipartite"
        with pytest.raises(ParseError, match="one variable per wire"):
            parse_native(json.dumps(doc))

    def test_bad_semiring_hint(self):
        doc = json.loads(MINIMAL)
        doc["semiring_hint"] = "nosuch"
        with pytest.raises(ParseError, match="unknown semiring"):
            parse_native(json.dumps(doc))

    @pytest.mark.parametrize("hint", [["prob"], {"prob": 1}, 3])
    def test_semiring_hint_must_be_a_string(self, hint):
        doc = json.loads(MINIMAL)
        doc["semiring_hint"] = hint
        with pytest.raises(ParseError, match="semiring_hint must be a string"):
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


class TestNativeRoundTrip:
    def test_structure_identical(self):
        rng = np.random.default_rng(53)
        for name in ("prob", "maxtimes", "bool", "count"):
            g = random_tree(rng, name, max_vars=6)
            text = serialize_native(g)
            g2, sr2 = parse_native(text)
            assert sr2.name == name
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
        text = serialize_native(g)
        g2, _ = parse_native(text)
        assert serialize_native(g2) == text

    def test_float_precision_survives(self):
        g = build_graph([2], [((0,), [1 / 3, 0.1])], PROB)
        g2, _ = parse_native(serialize_native(g))
        assert g2.factor(0).tensor.data.tolist() == [1 / 3, 0.1]

    def test_dual_values_as_pairs(self):
        g = build_graph([2], [((0,), [[1.5, 2.0], [3.0, 0.0]])], DUAL)
        text = serialize_native(g)
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
        text = serialize_native(g)
        keys = list(json.loads(text))
        assert keys == ["semiring_hint", "variables", "factors", "mode"]
        assert text.index("semiring_hint") < text.index("variables") < text.index("factors")


class TestDualPlainNumbers:
    """Under dual, a table of plain numbers holds one scalar per number."""

    WANT = [DualNumber(1.5, 0.0), DualNumber(2.5, 0.0)]

    def test_uai(self):
        g, sr = parse_uai("MARKOV 1 2 1 1 0 2 1.5 2.5", semiring="dual")
        assert sr.name == g.semiring == "dual"
        assert g.factor(0).tensor.data.tolist() == self.WANT

    def test_native(self):
        doc = {
            "semiring_hint": "dual",
            "variables": [{"id": 0, "dim": 2}],
            "factors": [{"id": 0, "neighbors": [0], "values": [1.5, 2.5]}],
        }
        g, _ = parse_native(json.dumps(doc))
        assert g.factor(0).tensor.data.tolist() == self.WANT

    def test_build_graph_and_native_round_trip(self):
        g = build_graph([2], [([0], [1.5, 2.5])], "dual")
        assert g.factor(0).tensor.data.tolist() == self.WANT
        text = serialize_native(g)
        g2, sr = parse_native(text)
        assert sr.name == g2.semiring == "dual"
        assert g2.factor(0).tensor.data.tolist() == self.WANT
        assert serialize_native(g2) == text


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
        text = serialize_uai(g)
        g2, _ = parse_uai(text)
        assert len(g2.variables) == len(g.variables)
        for f, f2 in zip(g.factors, g2.factors):
            assert f2.neighbors == f.neighbors
            assert f2.tensor.data.tolist() == f.tensor.data.tolist()

    def test_bool_as_01(self):
        g = build_graph([2], [((0,), [True, False])], "bool")
        text = serialize_uai(g)
        lines = [ln for ln in text.splitlines() if ln]
        assert lines[-1] == "1 0"
        g2, _ = parse_uai(text, semiring="bool")
        assert g2.factor(0).tensor.data.tolist() == [True, False]

    def test_dual_has_no_uai_form(self):
        g = build_graph([2], [((0,), [[1.0, 0.0], [2.0, 0.0]])], DUAL)
        with pytest.raises(ValidationError):
            serialize_uai(g)


# -- bulk table reading ------------------------------------------------------------


def _bits(data):
    """Everything that must match between two tensors' flat data."""
    if data.dtype == object:
        return [(type(x).__name__, repr(x)) for x in data.tolist()]
    return data.tobytes()


def _random_document(rng, semiring):
    """A random spider graph as (dims, scopes, tables) with raw table values."""
    n = int(rng.integers(1, 9))
    dims = [int(rng.integers(1, 5)) for _ in range(n)]
    scopes = [[int(rng.integers(0, v)), v] for v in range(1, n)]
    scopes += [[v] for v in range(n) if rng.random() < 0.6]
    if rng.random() < 0.3:
        scopes.append([])
    tables = []
    for scope in scopes:
        size = int(np.prod([dims[v] for v in scope]))
        if semiring in ("prob", "maxtimes"):
            t = rng.uniform(0.0, 3.0, size)
            t[rng.random(size) < 0.2] = 0.0
            values = [float(x) if rng.random() < 0.8 else int(rng.integers(0, 5)) for x in t]
            if rng.random() < 0.2:
                values[0] = -0.0
        elif semiring == "count":
            values = [int(x) for x in rng.integers(0, 4, size)]
            if rng.random() < 0.3:
                values[-1] = 2**60 + int(rng.integers(0, 1000))
        elif semiring == "bool":
            values = [bool(x) for x in rng.integers(0, 2, size)]
        else:
            values = [[float(a), float(b)] for a, b in rng.uniform(0.0, 2.0, (size, 2))]
        tables.append(values)
    return dims, scopes, tables


def _native_text(dims, scopes, tables):
    return json.dumps(
        {
            "variables": [{"id": i, "dim": d} for i, d in enumerate(dims)],
            "factors": [
                {"id": i, "neighbors": scope, "values": values}
                for i, (scope, values) in enumerate(zip(scopes, tables))
            ],
        }
    )


def _uai_text(dims, scopes, tables):
    lines = ["MARKOV", str(len(dims)), " ".join(map(str, dims)), str(len(scopes))]
    lines += [" ".join(map(str, [len(s)] + s)) for s in scopes]
    for values in tables:
        lines.append(str(len(values)))
        lines.append(" ".join(str(int(x)) if isinstance(x, bool) else repr(x) for x in values))
    return "\n".join(lines) + "\n"


class TestBulkTables:
    @pytest.mark.parametrize("semiring", ["prob", "maxtimes", "count", "bool", "dual"])
    def test_native_tensors_equal_from_values(self, semiring):
        rng = np.random.default_rng(["prob", "maxtimes", "count", "bool", "dual"].index(semiring))
        sr = get_semiring(semiring)
        for _ in range(40):
            dims, scopes, tables = _random_document(rng, semiring)
            g, _ = parse_native(_native_text(dims, scopes, tables), semiring=semiring)
            for f, scope, values in zip(g.factors, scopes, tables):
                want = DenseTensor.from_values(tuple(dims[v] for v in scope), values, sr)
                assert f.tensor.shape == want.shape
                assert f.tensor.data.dtype == want.data.dtype
                assert _bits(f.tensor.data) == _bits(want.data)
                assert not f.tensor.data.flags.writeable

    @pytest.mark.parametrize("semiring", ["prob", "maxtimes", "count", "bool", "dual"])
    def test_uai_tensors_equal_from_values(self, semiring):
        # dual files hold plain numbers, read under the dual semiring; a
        # two-entry table is skipped there, since from_values takes a flat
        # [a, b] list for one dual pair
        rng = np.random.default_rng(10 + ["prob", "maxtimes", "count", "bool", "dual"].index(semiring))
        sr = get_semiring(semiring)
        written = "prob" if semiring == "dual" else semiring
        for _ in range(40):
            dims, scopes, tables = _random_document(rng, written)
            if semiring == "dual" and any(len(t) == 2 for t in tables):
                continue
            g, _ = parse_uai(_uai_text(dims, scopes, tables), semiring=semiring)
            for f, scope, values in zip(g.factors, scopes, tables):
                entries = [x if semiring == "count" else float(x) for x in values]
                want = DenseTensor.from_values(tuple(dims[v] for v in scope), entries, sr)
                assert f.tensor.shape == want.shape
                assert f.tensor.data.dtype == want.data.dtype
                assert _bits(f.tensor.data) == _bits(want.data)
                assert not f.tensor.data.flags.writeable

    @pytest.mark.parametrize("semiring", ["prob", "maxtimes", "count", "bool", "dual"])
    def test_one_coerce_per_file(self, semiring, monkeypatch):
        sr = get_semiring(semiring)
        calls = []
        original = sr.coerce

        def counted(values):
            calls.append(len(values))
            return original(values)

        monkeypatch.setattr(sr, "coerce", counted)
        rng = np.random.default_rng(7)
        native = _random_document(rng, semiring)
        uai = _random_document(rng, "prob") if semiring == "dual" else native  # plain numbers
        for (dims, scopes, tables), text, parse in ((native, _native_text, parse_native),
                                                    (uai, _uai_text, parse_uai)):
            calls.clear()
            parse(text(dims, scopes, tables), semiring=semiring)
            assert calls == [sum(len(t) for t in tables)]


class TestExactUAICounts:
    def test_integer_tokens_stay_exact(self):
        big = 2**53 + 1  # the first integer a float64 cannot hold
        text = UAI_PAIR.replace("1.0 2.0 3.0 4.0", f"{big} 1 1 1")
        g, _ = parse_uai(text, semiring="count")
        assert g.factor(0).tensor.data.tolist() == [big, 1, 1, 1]
        assert exact_contraction(g, COUNT) == big + 3
        assert contraction_value(g) == big + 3

    def test_integral_float_tokens_still_read(self):
        g, _ = parse_uai(UAI_PAIR.replace("1.0 2.0 3.0 4.0", "2.0 1e3 0 -0"), semiring="count")
        data = g.factor(0).tensor.data.tolist()
        assert data == [2, 1000, 0, 0]
        assert all(type(x) is int for x in data)


class TestMalformedNativeEntries:
    @pytest.mark.parametrize("semiring", ["prob", "maxtimes"])
    @pytest.mark.parametrize(
        "bad", ["null", "{}", pytest.param("1" * 400, id="400-digit-int"), "[1.0, null]"]
    )
    def test_value_error_names_the_factor(self, semiring, bad):
        text = MINIMAL.replace("[1.0, 2.0, 3.0, 4.0]", f"[1.0, {bad}, 3.0, 4.0]")
        with pytest.raises(ValidationError, match=f"factor 0: {semiring} values must be finite nonnegative reals"):
            parse_native(text, semiring=semiring)

    def test_dual_pair_past_float_range(self):
        text = MINIMAL.replace("[1.0, 2.0, 3.0, 4.0]", "[[1.0, 0.0], [1" + "0" * 400 + ", 0.0], [1.0, 0.0], [1.0, 0.0]]")
        with pytest.raises(ValidationError, match="factor 0: dual values must be"):
            parse_native(text, semiring="dual")


#: (format, semiring, text, error type, message): each message and byte
#: offset as the table-by-table reader words it
_TWO = UAI_WITH_UNARY
ERRORS = [
    ("uai", "prob", UAI_PAIR.replace("2.0", "duck"), ParseError,
     "expected entry 1 of factor 0 at byte offset 28, got 'duck'"),
    ("uai", "prob", UAI_PAIR.replace("2 2\n", "2 x\n"), ParseError,
     "expected cardinality of variable 1 at byte offset 11, got 'x'"),
    ("uai", "prob", UAI_PAIR.replace("2 2\n", "2 -1\n"), ValidationError,
     "cardinality of variable 1 must be >= 1, got -1 at byte offset 11"),
    ("uai", "prob", UAI_PAIR.replace("2 0 1", "2 0 q"), ParseError,
     "expected a variable id in factor 0 at byte offset 19, got 'q'"),
    ("uai", "prob", UAI_PAIR.replace("4\n1.0", "4.0\n1.0"), ParseError,
     "expected the table size of factor 0 at byte offset 22, got '4.0'"),
    ("uai", "prob", UAI_PAIR[: UAI_PAIR.index("3.0")], ParseError,
     "truncated input: expected entry 2 of factor 0 at byte offset 32"),
    ("uai", "prob", "MARKOV\n2\n2 2\n1\n2 0", ParseError,
     "truncated input: expected a variable id in factor 0 at byte offset 18"),
    ("uai", "prob", "  \n", ParseError,
     "truncated input: expected a network type preamble at byte offset 3"),
    ("uai", "prob", "  \n MRF 2 2 2 0", UnsupportedPreambleError,
     "unsupported network type 'MRF' at byte offset 4"),
    ("uai", "prob", UAI_PAIR.replace("4\n1.0", "-4\n1.0"), ParseError,
     "expected the table size of factor 0 at byte offset 22, got '-4'"),
    ("uai", "prob", UAI_PAIR.replace("2.0", "-2.0"), ValidationError,
     "factor 0: prob values must be finite nonnegative reals, got -2.0"),
    ("uai", "prob", UAI_PAIR.replace("2.0", "1e309"), ValidationError,
     "factor 0: prob values must be finite nonnegative reals, got inf"),
    ("uai", "maxtimes", UAI_PAIR.replace("2.0", "nan"), ValidationError,
     "factor 0: maxtimes values must be finite nonnegative reals, got nan"),
    ("uai", "prob", UAI_PAIR.replace("4\n1.0 2.0 3.0 4.0", "3\n1.0 2.0 3.0"), ValidationError,
     "factor 0: 3 values cannot fill shape [2, 2] (4 entries)"),
    ("uai", "prob", UAI_PAIR.replace("2 0 1", "2 0 9"), ParseError,
     "factor 0 references unknown variable 9"),
    ("uai", "count", UAI_PAIR.replace("2.0", "2.5"), ValidationError,
     "factor 0: count values must be nonnegative integers, got 2.5"),
    ("uai", "count", UAI_PAIR.replace("2.0", "-1"), ValidationError,
     "factor 0: count values must be nonnegative integers, got -1.0"),
    ("uai", "bool", UAI_PAIR.replace("2.0", "2"), ValidationError,
     "factor 0: bool values must be true/false or 0/1, got 2.0"),
    ("uai", "prob", "MARKOV\n5\n40 40 40 40 40\n1\n5 0 1 2 3 4\n0\n", TooLargeError,
     "tensor of 102400000 entries exceeds the cap of 16777216"),
    # two bad factors: the first in file order wins, whatever the kinds
    ("uai", "prob", _TWO.replace("2.0", "-2.0").replace("0.25", "duck"), ValidationError,
     "factor 0: prob values must be finite nonnegative reals, got -2.0"),
    ("uai", "prob", _TWO.replace("2.0", "-2.0")[:-6], ValidationError,
     "factor 0: prob values must be finite nonnegative reals, got -2.0"),
    ("uai", "prob", _TWO.replace("2.0", "duck").replace("0.25", "-1"), ParseError,
     "expected entry 1 of factor 0 at byte offset 32, got 'duck'"),
    ("uai", "prob", _TWO.replace("4\n1.0 2.0 3.0 4.0", "3\n1.0 2.0 3.0").replace("0.25", "-1"), ValidationError,
     "factor 0: 3 values cannot fill shape [2, 2] (4 entries)"),
    ("uai", "prob", _TWO.replace("0.25", "-0.25"), ValidationError,
     "factor 1: prob values must be finite nonnegative reals, got -0.25"),
    ("uai", "count", _TWO.replace("3.0", "3.5").replace("0.25", "x"), ValidationError,
     "factor 0: count values must be nonnegative integers, got 3.5"),
    # malformed UAI files that once ran as another model: a negative count
    # or size was read as 0, and tokens after the last table were ignored
    ("uai", "prob", "MARKOV\n1\n2\n1\n-1\n\n1\n5.0\n", ParseError,
     "expected the scope size of factor 0 at byte offset 13, got '-1'"),
    ("uai", "prob", "MARKOV\n-1\n-1\n", ParseError,
     "expected the variable count at byte offset 7, got '-1'"),
    ("uai", "prob", "MARKOV\n1\n2\n-1\n", ParseError,
     "expected the factor count at byte offset 11, got '-1'"),
    ("uai", "prob", "MARKOV\n1\n2\n0\n7 8 9 garbage\n", ParseError,
     "expected the end of input after the last table at byte offset 13, got '7'"),
    ("uai", "prob", UAI_PAIR + "0.5\n", ParseError,
     "expected the end of input after the last table at byte offset 40, got '0.5'"),
    ("uai", "bool", UAI_PAIR.replace("1.0 2.0 3.0 4.0", "1 0 0 1") + "1\n", ParseError,
     "expected the end of input after the last table at byte offset 32, got '1'"),
    ("uai", "prob", _TWO + "x", ParseError,
     "expected the end of input after the last table at byte offset 56, got 'x'"),
    ("native", None, MINIMAL.replace("[0, 1]", "[0, 7]"), ValidationError,
     "factor 0 references unknown variable 7"),
    ("native", None, MINIMAL.replace("[1.0, 2.0, 3.0, 4.0]", "[1.0, 2.0]"), ValidationError,
     "factor 0: 2 values cannot fill shape [2, 2] (4 entries)"),
    ("native", None, MINIMAL.replace("2.0, 3.0", "-2.0, 3.0"), ValidationError,
     "factor 0: prob values must be finite nonnegative reals, got -2.0"),
    ("native", "maxtimes", MINIMAL.replace("2.0, 3.0", "NaN, 3.0"), ValidationError,
     "factor 0: maxtimes values must be finite nonnegative reals, got nan"),
    ("native", None, MINIMAL.replace("2.0, 3.0", '"abc", 3.0'), ValidationError,
     "factor 0: could not convert string to float: 'abc'"),
    ("native", "count", MINIMAL.replace("[1.0, 2.0, 3.0, 4.0]", "[1, -2, 3, 4]"), ValidationError,
     "factor 0: count values must be nonnegative integers, got -2"),
    # a pair's parts are numbers, whether the table is read whole or entry by entry
    ("native", "dual", MINIMAL.replace("[1.0, 2.0, 3.0, 4.0]", '[["1.5", "2"], 2.0, 3.0, 4.0]'), ValidationError,
     "factor 0: dual values must be [a, b] pairs or numbers, got '1.5'"),
]


def _two_factor_native(first, second):
    doc = json.loads(MINIMAL)
    doc["factors"] = [
        {"id": 0, "neighbors": first[0], "values": first[1]},
        {"id": 1, "neighbors": second[0], "values": second[1]},
    ]
    return json.dumps(doc)


ERRORS += [
    ("native", None, _two_factor_native(([0, 1], [1.0, -2.0, 3.0, 4.0]), ([0, 9], [1.0, 1.0])), ValidationError,
     "factor 0: prob values must be finite nonnegative reals, got -2.0"),
    ("native", None, _two_factor_native(([0, 9], [1.0, 1.0]), ([0, 1], [1.0, -2.0, 3.0, 4.0])), ValidationError,
     "factor 0 references unknown variable 9"),
    ("native", None, _two_factor_native(([0, 1], [1.0, 3.0, 4.0]), ([0], [1.0, -2.0])), ValidationError,
     "factor 0: 3 values cannot fill shape [2, 2] (4 entries)"),
    ("native", None, _two_factor_native(([0, 1], [1.0, 2.0, 3.0, 4.0]), ([0], [1.0, -2.0])), ValidationError,
     "factor 1: prob values must be finite nonnegative reals, got -2.0"),
]


class TestErrorCatalogue:
    @pytest.mark.parametrize("fmt, semiring, text, error, message", ERRORS)
    def test_message_and_offset(self, fmt, semiring, text, error, message):
        with pytest.raises(error) as info:
            if fmt == "uai":
                parse_uai(text, semiring=semiring)
            else:
                parse_native(text, semiring=semiring)
        assert type(info.value) is error
        assert str(info.value) == message


def _graph_bits(g):
    """Everything that must match between two graphs: label, variables, and
    each factor's wiring, shape, dtype and table bits."""
    return (
        g.semiring,
        [(v.id, v.obj.name, v.obj.dim) for v in g.variables],
        [(f.id, f.neighbors, f.tensor.shape, f.tensor.data.dtype, _bits(f.tensor.data)) for f in g.factors],
    )


def _mutate(rng, kind, dims, scopes, tables):
    """One fault of ``kind`` put into a model's plain data, in place."""
    if kind in DIM_FAULTS:
        dims[int(rng.integers(0, len(dims)))] = DIM_FAULTS[kind]
        return
    if kind == "float neighbor":
        k = int(rng.choice([i for i, scope in enumerate(scopes) if scope]))
        i = int(rng.integers(0, len(scopes[k])))
        scopes[k][i] = float(scopes[k][i])
        return
    k = int(rng.integers(0, len(tables)))
    if kind == "short table":
        tables[k] = tables[k][:-1]
    elif kind == "unknown neighbor":
        scopes[k] = scopes[k] + [len(dims)]
    else:
        tables[k][int(rng.integers(0, len(tables[k])))] = {"negative": -1, "nan": float("nan"), "None": None}[kind]


DIM_FAULTS = {"dim 0": 0, "dim over the cap": DEFAULT_TENSOR_CAP + 1, "bool dim": True}
MUTATIONS = ["negative", "nan", "None", "short table", "unknown neighbor", "float neighbor", *DIM_FAULTS]


def _outcome(build):
    """The SpiderBPError class ``build()`` raises, None when it returns;
    any other exception fails the test."""
    try:
        build()
    except SpiderBPError as err:
        return type(err)
    return None


class TestOneWayIn:
    """``build_graph`` and both parsers assemble a graph through one path,
    so plain data and a file describing it give the same graph bit for bit,
    or the same typed error."""

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        semiring=st.sampled_from(["prob", "maxtimes", "count", "bool", "dual"]),
        mutation=st.sampled_from(MUTATIONS),
    )
    def test_builders_agree(self, seed, semiring, mutation):
        rng = np.random.default_rng(seed)
        dims, scopes, tables = _random_document(rng, semiring)
        g = build_graph(dims, list(zip(scopes, tables)), semiring)
        want = _graph_bits(g)
        assert _graph_bits(parse_native(serialize_native(g))[0]) == want
        assert _graph_bits(parse_native(_native_text(dims, scopes, tables), semiring=semiring)[0]) == want
        if semiring != "dual":
            assert _graph_bits(parse_uai(serialize_uai(g), semiring=semiring)[0]) == want

        # a table fault needs a table, a neighbour fault a factor with neighbours
        if mutation not in DIM_FAULTS and not (any(scopes) if mutation == "float neighbor" else tables):
            mutation = "dim 0"
        _mutate(rng, mutation, dims, scopes, tables)
        built = _outcome(lambda: build_graph(dims, list(zip(scopes, tables)), semiring))
        parsed = _outcome(lambda: parse_native(_native_text(dims, scopes, tables), semiring=semiring))
        assert built is parsed
        if mutation == "dim over the cap":
            assert built is TooLargeError
        elif not (mutation == "negative" and semiring == "dual"):  # a dual entry may be negative
            assert built is ValidationError


class TestBenchModelsParse:
    """The benchmark writes its model files with its own writer; every one
    must still parse, under the semiring the benchmark reads it with."""

    @pytest.mark.parametrize("workload", ["tree-cli", "loopy-sync", "jtree-grid"])
    def test_every_model_parses(self, workload, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        import workloads

        plan = json.loads(Path(workloads.write_plan(workload, 7, str(tmp_path))).read_text())
        semirings = {f["path"]: f["semiring"] for f in plan["setup_files"]}
        for op in plan["ops"]:
            argv = op.get("argv", [])
            if "--input" in argv:
                named = "--semiring" in argv
                semirings[argv[argv.index("--input") + 1]] = argv[argv.index("--semiring") + 1] if named else "prob"
        models = sorted(p for p in tmp_path.iterdir() if p.name != "plan.json")
        assert models and {str(p) for p in models} == set(semirings)
        for path in models:
            if path.suffix == ".json":
                _g, sr = parse_native(path.read_text())
            else:
                assert path.suffix == ".uai"
                _g, sr = parse_uai(path.read_text(), semiring=semirings[str(path)])
            assert sr.name == semirings[str(path)], path.name
