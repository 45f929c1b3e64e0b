"""The file loader, which parses each constant straight to integers, against
the ``Fraction`` loader of ``oracles.py``: the same integer table, the same
constants and the same file form on random specs, and the same
``SpecFormatError`` text on every malformed one.  Last, a pin that nothing
on the load path builds a ``Fraction`` per constant."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalab import algebra, catalog, exactmath
from nalab.algebra import FIELD_Q, FIELD_QSQRT3, find_units
from nalab.catalog import AlgebraSpec, SpecFormatError, load, save
from nalab.exactmath import parse_scalar, scalar_parts
from oracles import (fraction_integer_table, fraction_load,
                     fraction_parse_scalar, fraction_save)

#: ASCII digits, Arabic-Indic digits and fullwidth digits
DIGIT_SETS = ("0123456789", "".join(map(chr, range(0x660, 0x66A))),
              "".join(map(chr, range(0xFF10, 0xFF1A))))


@st.composite
def rational_texts(draw):
    """p/q as text: small unreduced fractions, numerators past 2^64 over
    denominators up to 2^64, or a written zero; digits from one of
    DIGIT_SETS and spaces around the parts."""
    kind = draw(st.sampled_from(("small", "big", "zero")))
    if kind == "zero":
        return draw(st.sampled_from(("0", "-0", "0/7", "-0/3", " 0 ")))
    if kind == "small":
        p, q = draw(st.integers(-6, 6)), draw(st.integers(1, 8))
    else:
        p = draw(st.integers(-2 ** 80, 2 ** 80))
        q = draw(st.integers(1, 2 ** 64))
    digits = draw(st.sampled_from(DIGIT_SETS))
    to = str.maketrans("0123456789", digits)
    text = str(p).translate(to)
    if q != 1 or draw(st.booleans()):
        text += draw(st.sampled_from(("/", " / "))) + str(q).translate(to)
    return text


@st.composite
def scalar_texts(draw, quadratic):
    """A rational text, or over Q(sqrt 3) also a + b*sqrt3 (b written,
    even as zero)."""
    a = draw(rational_texts())
    if not quadratic or draw(st.booleans()):
        return a
    sign = draw(st.sampled_from(("+", "-", " + ", " - ")))
    return f"{a}{sign}{draw(rational_texts())}*sqrt3"


@st.composite
def specs(draw):
    """A well-formed JSON spec over Q or Q(sqrt 3), its entries shuffled:
    lists of four or five elements, or tuples as a Python caller may
    pass."""
    field = draw(st.sampled_from((FIELD_Q, FIELD_QSQRT3)))
    n = draw(st.integers(1, 4))
    cells = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3),
                          unique=True, max_size=min(n ** 3, 24)))
    entries = []
    for i, j, k in cells:
        s = draw(scalar_texts(field == FIELD_QSQRT3))
        form = draw(st.sampled_from(("list", "five", "tuple")))
        entries.append([i, j, k, s] if form == "list" else
                       [i, j, k, s, "note"] if form == "five" else
                       (i, j, k, s))
    entries = draw(st.permutations(entries))
    return {"name": "rand", "dim": n, "field": field,
            "basis": [f"e{i}" for i in range(n)], "constants": entries}


MUTATIONS = ("bool", "float", "str", "range", "short", "duplicate",
             "zero_denominator", "sqrt_in_q", "malformed")


@st.composite
def malformed_specs(draw):
    """A well-formed spec with one entry broken by one of MUTATIONS."""
    spec = draw(specs())
    kind = draw(st.sampled_from(MUTATIONS))
    entries = [list(e) for e in spec["constants"]] or [[0, 0, 0, "1"]]
    pos = draw(st.integers(0, len(entries) - 1))
    e = entries[pos]
    h = draw(st.integers(0, 2))
    if kind == "bool":
        e[h] = draw(st.booleans())
    elif kind == "float":
        e[h] = float(e[h])
    elif kind == "str":
        e[h] = str(e[h])
    elif kind == "range":
        e[h] = draw(st.sampled_from((-1, spec["dim"])))
    elif kind == "short":
        entries[pos] = e[:draw(st.integers(0, 3))]
    elif kind == "duplicate":
        entries.insert(draw(st.integers(pos + 1, len(entries))),
                       e[:3] + [draw(st.sampled_from(("0", "2", "-0")))])
    elif kind == "zero_denominator":
        e[3] = draw(st.sampled_from(("1/0", "0/0", "-3 / 0", "1+1/0*sqrt3",
                                     "1/0+1/0*sqrt3")))
    elif kind == "sqrt_in_q":
        spec["field"] = FIELD_Q
        e[3] = draw(st.sampled_from(("0+0*sqrt3", "1-2*sqrt3",
                                     "0 - 0/5 * sqrt3")))
    else:
        e[3] = draw(st.sampled_from(("1.5", "x", "", "1+sqrt3", "2**3",
                                     "1/2/3")))
    spec["constants"] = entries
    return spec


class TestLoadMatchesFractionLoad:
    @given(specs())
    @settings(max_examples=300, deadline=None)
    def test_table_constants_and_file_form(self, spec):
        A, oracle = load(spec), fraction_load(spec)
        assert A.integer_table() == fraction_integer_table(oracle.constants)
        assert A.constants == oracle.constants
        assert save(A).to_json_dict() == fraction_save(oracle).to_json_dict()

    @given(malformed_specs())
    @settings(max_examples=300, deadline=None)
    def test_malformed_message(self, spec):
        with pytest.raises(SpecFormatError) as oracle:
            fraction_load(spec)
        with pytest.raises(SpecFormatError) as got:
            load(spec)
        assert str(got.value) == str(oracle.value)

    @given(st.one_of(scalar_texts(True), st.text(max_size=8)))
    @settings(max_examples=300, deadline=None)
    def test_parse_scalar(self, text):
        try:
            expected = fraction_parse_scalar(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                scalar_parts(text)
            assert str(got.value) == str(exc)
            return
        got = parse_scalar(text)
        assert got == expected and type(got) is type(expected)

    def test_python_caller_spec(self):
        # an AlgebraSpec built in Python may index by bools, as the ints
        # they equal, and a repeated cell is named as it was given
        spec = AlgebraSpec("b", 2, FIELD_Q, ["e0", "e1"],
                           [(True, 0, True, "2"), (0, False, 0, "-1/3")])
        A, oracle = load(spec), fraction_load(spec)
        assert A.integer_table() == fraction_integer_table(oracle.constants)
        assert save(A).to_json_dict() == fraction_save(oracle).to_json_dict()
        spec.constants.append((1, 0, 1, "5"))
        with pytest.raises(SpecFormatError) as oracle:
            fraction_load(spec)
        with pytest.raises(SpecFormatError) as got:
            load(spec)
        assert str(got.value) == str(oracle.value)

    def test_digit_limit_message(self):
        # int() refuses more than 4300 digits; the message is Fraction's
        for text in ("1" * 5000, "1/" + "2" * 5000, "-" + "3" * 5000):
            with pytest.raises(ValueError) as oracle:
                fraction_parse_scalar(text)
            with pytest.raises(ValueError) as got:
                scalar_parts(text)
            assert str(got.value) == str(oracle.value)


def fraction_stub(budget):
    """A Fraction that raises once more than budget have been built."""
    made = []

    class Budgeted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            if len(made) > budget:
                raise AssertionError(f"more than {budget} Fractions built")
            return Fraction(*args, **kwargs)

    return Budgeted


@pytest.mark.parametrize("name", ("dense6", "S16"))
def test_no_fraction_per_constant(monkeypatch, files_algebras, name):
    """catalog.load and the tensor build no Fraction at all; find_units
    builds at most 8 dim + 2 (its answer and the re-verification of the
    unit), far fewer than the constants."""
    spec = save(files_algebras[name]).to_json_dict()
    n = spec["dim"]

    def patch(budget):
        stub = fraction_stub(budget)
        for module in (exactmath, catalog, algebra):
            monkeypatch.setattr(module, "Fraction", stub)

    patch(0)
    A = load(spec)
    A.tensor()
    patch(8 * n + 2)
    units = find_units(A)
    assert units.has_unit == (name == "S16")
    assert 8 * n + 2 < len(spec["constants"])
