"""Reading and writing graphs: native JSON and the UAI text format.

The native format is a single JSON object::

    {
      "semiring_hint": "prob",          # optional
      "variables": [{"id": 0, "name": "v0", "dim": 2}, ...],
      "factors":   [{"id": 0, "neighbors": [0, 1], "values": [...]}, ...],
      "mode": "spider"                  # optional; the only value
    }

Factor values are flat row-major lists: numbers, booleans for the bool
algebra, or [a, b] pairs for dual numbers (a plain number x in a dual table
is x + 0*eps). A rank-0 factor may give its one value bare. Every variable
is a spider (a copy tensor); a node with a tensor of its own is written as
one variable per wire plus the node tensor as a factor over them. Unknown
keys are rejected with the path to the offending object. Serialization
writes the graph's semiring as the hint, preserves this key order and
renders floats with up to 17 significant digits, so a round trip is
structurally identical.

The UAI format is the plain-text MARKOV network layout: a preamble token,
variable count, cardinalities, clique scopes, then one table per clique.
BAYES files are accepted as plain factor tables with a warning; other
preambles are rejected. A UAI file is split into tokens once; a token's
byte offset is computed only for an error message.

Tables are read in bulk. Under every semiring all tables of a file go
through one conversion and one ``coerce``, into the graph's wire table
(``graph._Wires``): the entries stacked by table shape, beside arrays of
each wire's factor, axis, variable and dim. No factor node or tensor is
built per table; ``g.factors`` builds them on first read, each tensor a
read-only view of the stacked entries. Count entries stay exact Python ints in
both formats: a UAI integer token is read with ``int``, so
``9007199254740993`` is not rounded to a float (``2.0`` still reads as 2,
``2.5`` is still rejected). Nested lists and any file with a bad table are
read table by table through
``DenseTensor.from_values``, so every error is the one that table alone
raises: factor i's unknown-variable, value and size checks all run before
factor i+1 is looked at, and the first error in file order wins.
``build_graph`` and ``engine.dual_seed`` go through the same code
(``_assemble``), so plain data and a file describing it give the same graph
or the same typed error. A graph is validated once; ``run_bp`` and the
other entry points reuse the verdict.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from itertools import chain, islice
from numbers import Integral

import numpy as np

from .algebra import get_semiring
from .errors import (
    FormatWarning,
    ParseError,
    ShapeMismatchError,
    UnsupportedPreambleError,
    ValidationError,
)
from .graph import (
    FactorGraph,
    ObjectType,
    VariableNode,
    _ensure_valid,
    _wire_table,
)
from .tensor import DEFAULT_TENSOR_CAP, DenseTensor

#: each object's allowed keys, and its required ones in the order a missing one is named
_TOP_KEYS = frozenset(("semiring_hint", "variables", "factors", "mode")), ("variables", "factors")
_VARIABLE_KEYS = frozenset(("id", "name", "dim")), ("id", "dim")
_FACTOR_KEYS = frozenset(("id", "neighbors", "values")), ("id", "neighbors", "values")
_INT = frozenset((int,))


def _resolve_semiring(requested, hint, payload_sample):
    """Pick the semiring: explicit request, then document hint, then payload."""
    if requested:
        return get_semiring(requested)
    if hint:
        return get_semiring(hint)
    if isinstance(payload_sample, bool):
        return get_semiring("bool")
    if isinstance(payload_sample, (list, tuple)):
        return get_semiring("dual")
    return get_semiring("prob")


def _require_keys(obj, keys, where, index=None):
    allowed, required = keys
    if obj.keys() <= allowed and all(map(obj.__contains__, required)):
        return
    if index is not None:
        where = f"{where}[{index}]"
    for key in obj:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} at {where}")
    for key in required:
        if key not in obj:
            raise ParseError(f"missing key {key!r} at {where}")


def _bulk(sr, shapes, flat):
    """One flat list of table entries, in order, as one array.

    The entries go through one ``coerce``. Returns None when a table is over
    the size cap or an entry does not coerce: the caller then reads table by
    table, which raises the first error in file order.
    """
    if shapes and max(map(math.prod, shapes)) > DEFAULT_TENSOR_CAP:
        return None
    try:
        return sr.coerce(flat)
    except ValueError:
        return None


def _table(sr, fid, shape, values):
    """One factor's tensor through ``DenseTensor.from_values``; a bad table
    is a ValidationError naming the factor."""
    try:
        return DenseTensor.from_values(shape, values, sr)
    except (ValueError, ShapeMismatchError) as err:
        raise ValidationError(f"factor {fid}: {err}") from None


def _variable(i, vid, name, dim):
    """Variable ``vid`` declared at ``variables[i]``: a dim that is not an
    integer >= 1 is a ValidationError there, one over the cap a
    TooLargeError."""
    try:
        return VariableNode(vid, ObjectType(name, dim))
    except ValueError as err:
        raise ValidationError(f"{err} at variables[{i}]") from None


def _assemble(sr, variables, factors):
    """The validated graph of ``variables`` and ``factors``, a list of (id,
    neighbor ids, table) triples (numpy integer ids rewritten as ints), its
    tables read into semiring ``sr`` in bulk or one by one as the module
    docstring says: the one path from tables to a graph, for
    ``build_graph``, ``parse_native`` and ``dual_seed``.
    """
    dims = {v.id: int(v.obj.dim) for v in variables}
    shapes, stop = [], None
    for k, (fid, neighbors, values) in enumerate(factors):
        if not _INT.issuperset(map(type, neighbors)):  # numpy integers are kept as ints
            bad = [v for v in neighbors if type(v) is bool or not isinstance(v, Integral)]
            if bad:
                stop = ValidationError(f"factor {fid}: neighbor ids must be integers, got {bad[0]!r}")
                break
            factors[k] = (fid, neighbors := tuple(map(int, neighbors)), values)
        try:
            shapes.append(tuple(map(dims.__getitem__, neighbors)))
        except KeyError:
            unknown = [v for v in neighbors if v not in dims]
            stop = ValidationError(f"factor {fid} references unknown variable {unknown[0]}")
            break
    # the tables before an unknown variable raise their own errors first
    tables = [values for _fid, _nb, values in factors[: len(shapes)]]
    data = None
    if all(
        type(values) is list and len(values) == math.prod(shape)
        for shape, values in zip(shapes, tables)
    ):
        data = _bulk(sr, shapes, list(chain.from_iterable(tables)))
    if data is None:
        data = np.concatenate([
            _table(sr, f[0], shape, values).data for f, shape, values in zip(factors, shapes, tables)
        ])
    if stop is not None:
        raise stop
    return _graph(sr, tuple(variables), [f[0] for f in factors], [f[1] for f in factors], shapes, data)


def _graph(sr, variables, ids, neighbors, shapes, data):
    """The validated graph of ``variables`` and factors ``ids`` with these
    neighbor ids and table shapes, their entries in order in ``data``: its
    wire table is filled here, and its factor nodes wait for a first read."""
    return _ensure_valid(FactorGraph._of_table(variables, _wire_table(ids, neighbors, shapes, data), sr.name))


def build_graph(var_dims, factors, semiring):
    """Convenience constructor from plain Python data.

    ``var_dims`` is a list of dims or (name, dim) pairs; ``factors`` a list
    of (neighbor ids, flat row-major values). Values are coerced into the
    given semiring's scalar type, and the graph is labelled with it. Bad
    data raises what ``parse_native`` raises for it: a ValidationError
    naming the variable or factor, or a TooLargeError for a dim over the
    tensor cap.
    """
    sr = get_semiring(semiring)
    variables = []
    for i, entry in enumerate(var_dims):
        name, dim = entry if isinstance(entry, tuple) else (f"v{i}", entry)
        variables.append(_variable(i, i, name, dim))
    return _assemble(sr, variables, [(i, tuple(nb), values) for i, (nb, values) in enumerate(factors)])


def parse_native(text, semiring=None):
    """Parse a native JSON document into (FactorGraph, semiring).

    The semiring is ``semiring`` if given, else the document's
    ``semiring_hint``, else guessed from the first table entry; the graph
    is labelled with it. Raises ParseError for malformed documents (with
    the JSON position or object path), ValidationError when the described
    graph is unsound (with the offending ids) and TooLargeError for a dim
    over the tensor cap.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    _require_keys(doc, _TOP_KEYS, "top level")
    mode = doc.get("mode", "spider")
    if mode != "spider":
        raise ParseError(
            f'mode must be "spider", got {mode!r} at top level: write a node that carries its own '
            "tensor as one variable per wire, with the node tensor as a factor over those variables"
        )
    for key in ("variables", "factors"):
        if type(doc[key]) is not list:
            raise ParseError(f"expected a list at {key}")

    # the first table entry: a rank-0 table may be a bare value
    sample = None
    for fac in doc["factors"]:
        vals = fac.get("values") if isinstance(fac, dict) else None
        if vals is not None and vals != []:
            sample = vals[0] if type(vals) is list else vals
            break
    hint = doc.get("semiring_hint")
    if hint is not None and type(hint) is not str:
        raise ParseError(f"semiring_hint must be a string, got {type(hint).__name__} at top level")
    try:
        sr = _resolve_semiring(semiring, hint, sample)
    except ValueError as err:
        raise ParseError(f"{err} at top level") from None

    variables = []
    # JSON gives exact types, so ``type(x) is int`` is an integer, not a bool
    for i, item in enumerate(doc["variables"]):
        if type(item) is not dict:
            raise ParseError(f"expected an object at variables[{i}]")
        _require_keys(item, _VARIABLE_KEYS, "variables", i)
        vid = item["id"]
        if type(vid) is not int:
            raise ParseError(f"id must be an integer at variables[{i}]")
        variables.append(_variable(i, vid, item["name"] if "name" in item else f"v{vid}", item["dim"]))

    factors = []
    for i, item in enumerate(doc["factors"]):
        if type(item) is not dict:
            raise ParseError(f"expected an object at factors[{i}]")
        _require_keys(item, _FACTOR_KEYS, "factors", i)
        fid = item["id"]
        if type(fid) is not int:
            raise ParseError(f"id must be an integer at factors[{i}]")
        neighbors = item["neighbors"]
        if type(neighbors) is not list:
            raise ParseError(f"neighbors must be a list of variable ids at factors[{i}]")
        factors.append((fid, tuple(neighbors), item["values"]))

    return _assemble(sr, variables, factors), sr


def graph_to_document(g):
    """Native-format dict for a graph, in canonical key order."""
    semiring = get_semiring(g.semiring)
    doc = {"semiring_hint": semiring.name}
    doc["variables"] = [{"id": v.id, "name": v.obj.name, "dim": v.obj.dim} for v in g.variables]
    doc["factors"] = [
        {
            "id": f.id,
            "neighbors": list(f.neighbors),
            "values": [semiring.value_to_json(x) for x in f.tensor.data.tolist()],
        }
        for f in g.factors
    ]
    doc["mode"] = "spider"
    return doc


def serialize_native(g):
    return json.dumps(graph_to_document(g)) + "\n"


_TOKEN = re.compile(rb"\S+")


class _Tokens:
    """The whitespace-separated tokens of a UAI file, read front to back.

    ``bytes.split`` splits on the same ASCII whitespace as ``\\S+``, and
    ``int`` and ``float`` read a bytes token exactly as its ASCII text. A
    token's byte offset is worked out only when an error message needs it.
    """

    def __init__(self, text):
        self.data = text.encode("utf-8") if isinstance(text, str) else text
        self.tokens = self.data.split()
        self.pos = 0

    def take(self, count, what, convert=int, **names):
        """The next ``count`` tokens through ``convert``.

        ``what`` names the expected token in errors, formatted with the
        ``names`` and with ``j``, the token's index among the ``count``.
        """
        start = self.pos
        chunk = self.tokens[start : start + count]
        try:
            values = list(map(convert, chunk))
        except ValueError:
            for j, tok in enumerate(chunk):
                try:
                    convert(tok)
                except ValueError:
                    raise ParseError(
                        f"expected {what.format(j=j, **names)} at byte offset "
                        f"{self.offset(start + j)}, got {_ascii(tok)!r}"
                    ) from None
        if len(chunk) < count:
            raise ParseError(
                f"truncated input: expected {what.format(j=len(chunk), **names)} "
                f"at byte offset {len(self.data)}"
            )
        self.pos = start + len(chunk)
        return values

    def next_int(self, what, **names):
        """The next token as a count: an int >= 0."""
        return self.take(1, what, _count, **names)[0]

    def offset(self, k):
        """Byte offset of token ``k``."""
        return next(islice(_TOKEN.finditer(self.data), k, None)).start()


def _ascii(tok):
    return tok.decode("ascii", "replace")


def _count(tok):
    """A count or size token: an int >= 0, else a bad token (ValueError)."""
    if (n := int(tok)) < 0:
        raise ValueError(tok)
    return n


def _count_entry(tok):
    """A count table entry: a nonnegative integer token as an exact int,
    any other token as ``float`` reads it (so 2.0 passes, 2.5 and -1 fail)."""
    try:
        v = int(tok)
    except ValueError:
        return float(tok)
    return v if v >= 0 else float(tok)


def parse_uai(text, semiring="prob"):
    """Parse a UAI MARKOV file into (FactorGraph, semiring), the graph
    labelled with ``semiring``.

    Whitespace and newlines are interchangeable. Truncated files raise
    ParseError with the byte offset where input ran out; a negative count
    or size, or a token after the last table, is a ParseError at its byte
    offset.
    """
    sr = get_semiring(semiring)
    toks = _Tokens(text)
    preamble = toks.take(1, "a network type preamble", _ascii)[0]
    kind = preamble.upper()
    if kind == "BAYES":
        warnings.warn(
            "BAYES network read as plain factor tables", FormatWarning, stacklevel=2
        )
    elif kind != "MARKOV":
        raise UnsupportedPreambleError(
            f"unsupported network type {preamble!r} at byte offset {toks.offset(0)}"
        )
    n_vars = toks.next_int("the variable count")
    dims = toks.take(n_vars, "cardinality of variable {j}")
    if dims and min(dims) < 1:  # one check over the list, before any ObjectType
        j = next(j for j, d in enumerate(dims) if d < 1)
        raise ValidationError(
            f"cardinality of variable {j} must be >= 1, got {dims[j]} "
            f"at byte offset {toks.offset(toks.pos - len(dims) + j)}"
        )
    variables = tuple(
        VariableNode(i, ObjectType(f"v{i}", d)) for i, d in enumerate(dims)
    )
    n_factors = toks.next_int("the factor count")
    tokens = toks.tokens
    scopes = []
    for i in range(n_factors):
        p = toks.pos
        try:
            end = p + 1 + int(tokens[p])
            scope = tuple(map(int, tokens[p + 1 : end]))
            if not p < end <= len(tokens):
                raise ValueError
            toks.pos = end
        except (IndexError, ValueError):
            # the careful reader raises the error
            k = toks.next_int("the scope size of factor {i}", i=i)
            scope = tuple(toks.take(k, "a variable id in factor {i}", i=i))
        if scope and not (0 <= min(scope) and max(scope) < n_vars):
            bad = [v for v in scope if not 0 <= v < n_vars]
            raise ParseError(f"factor {i} references unknown variable {bad[0]}")
        scopes.append(scope)
    shapes = [tuple(map(dims.__getitem__, scope)) for scope in scopes]
    number = _count_entry if sr.name == "count" else float
    data = _uai_bulk(toks, sr, shapes, number)
    if data is None:
        tables = []
        for i, shape in enumerate(shapes):
            count = toks.next_int("the table size of factor {i}", i=i)
            values = toks.take(count, "entry {j} of factor {i}", number, i=i)
            tables.append(_table(sr, i, shape, values).data)
        if toks.pos < len(tokens):
            raise ParseError(
                f"expected the end of input after the last table at byte offset "
                f"{toks.offset(toks.pos)}, got {_ascii(tokens[toks.pos])!r}"
            )
        data = np.concatenate(tables)
    return _graph(sr, variables, list(range(n_factors)), scopes, shapes, data), sr


def _uai_bulk(toks, sr, shapes, number):
    """The tables section read in one pass, or None when a size token does
    not match its table, a token is bad, missing or after the last table,
    or an entry does not coerce; ``toks`` is left where the tables begin."""
    tokens, p, entries = toks.tokens, toks.pos, []
    try:
        for shape in shapes:
            end = p + 1 + math.prod(shape)
            if int(tokens[p]) != end - p - 1:
                return None
            entries += tokens[p + 1 : end]
            p = end
        if p != len(tokens):
            return None
        values = list(map(number, entries))
    except (IndexError, ValueError):
        return None
    return _bulk(sr, shapes, values)


def serialize_uai(g):
    """Write a graph with numeric values as a UAI MARKOV file."""
    semiring = get_semiring(g.semiring)
    if semiring.name == "dual":
        raise ValidationError("dual-valued graphs have no UAI form")
    lines = ["MARKOV", str(len(g.variables))]
    lines.append(" ".join(str(v.obj.dim) for v in g.variables))
    lines.append(str(len(g.factors)))
    for f in g.factors:
        lines.append(" ".join([str(f.rank)] + [str(v) for v in f.neighbors]))
    lines.append("")
    for f in g.factors:
        lines.append(str(f.tensor.size))
        lines.append(" ".join(_uai_number(semiring, x) for x in f.tensor.data.tolist()))
        lines.append("")
    return "\n".join(lines)


def _uai_number(semiring, x):
    v = semiring.value_to_json(x)
    if isinstance(v, bool):
        return "1" if v else "0"
    return repr(v)
