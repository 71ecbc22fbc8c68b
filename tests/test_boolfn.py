"""Truth tables, ANF round trips, derivatives, and the function families.

Index convention under test everywhere: x1 is the most significant bit of the
table index, so at n = 2 the table order is F(00), F(01), F(10), F(11).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gowersim import cli
from gowersim.boolfn import (
    Anf,
    BooleanFunction,
    bent_quadratic,
    linear,
    random_function,
)
from gowersim.errors import AnfSyntaxError, CapacityError
from gowersim.spectral import _derivative_rows

import stream_reference as stream
from packed import from_packed

from_anf_string = BooleanFunction.from_anf_string


def tables_equal(f, expected):
    assert list(f.table) == expected


def same(f, g):
    return f.n == g.n and np.array_equal(f.table, g.table)


def test_and_function():
    f = from_anf_string("x1*x2", 2)
    tables_equal(f, [0, 0, 0, 1])
    assert f.weight == 1
    assert f.degree() == 2
    assert f.to_hex() == "1"
    assert f.table[0b11] == 1
    assert f.table[0b10] == 0


def test_xor_and_or():
    tables_equal(from_anf_string("x1 + x2", 2), [0, 1, 1, 0])
    f_or = from_anf_string("x1 + x2 + x1*x2", 2)
    tables_equal(f_or, [0, 1, 1, 1])
    assert f_or.to_hex() == "7"
    # OR's ANF has exactly the three expected coefficients
    anf = f_or.to_anf()
    assert np.flatnonzero(anf.coeffs).tolist() == [0b01, 0b10, 0b11]
    assert anf.to_string() == "x2 + x1 + x1*x2"


def test_anf_ampersand_and_idempotence():
    assert same(from_anf_string("x1 & x2", 2), from_anf_string("x1*x2", 2))
    assert same(from_anf_string("x1*x1", 2), from_anf_string("x1", 2))


def test_anf_constants():
    tables_equal(from_anf_string("1", 2), [1, 1, 1, 1])
    tables_equal(from_anf_string("0", 2), [0, 0, 0, 0])
    tables_equal(from_anf_string("1 + 1", 2), [0, 0, 0, 0])


def test_anf_syntax_errors_carry_positions():
    with pytest.raises(AnfSyntaxError) as err:
        from_anf_string("x1 + ", 2)
    assert err.value.position == 6

    with pytest.raises(AnfSyntaxError) as err:
        from_anf_string("x", 2)
    assert err.value.position == 1  # the bare 'x' is the offending token

    with pytest.raises(AnfSyntaxError) as err:
        from_anf_string("x1 x2", 2)
    assert err.value.position == 4

    with pytest.raises(AnfSyntaxError) as err:
        from_anf_string("x3", 2)
    assert "out of range" in str(err.value)

    with pytest.raises(AnfSyntaxError):
        from_anf_string("", 2)
    with pytest.raises(AnfSyntaxError):
        from_anf_string("x1 * + x2", 2)


def test_anf_variable_indices_are_ascii_digits():
    # str.isdigit() and int() would read the Arabic-Indic digits as x1*x2
    with pytest.raises(AnfSyntaxError) as err:
        from_anf_string("x\u0661*x\u0662", 2)
    assert err.value.position == 1
    assert "'x' must be followed by a variable index" in str(err.value)
    with pytest.raises(AnfSyntaxError) as err:
        from_anf_string("x1 + x\uff12", 2)  # fullwidth 2
    assert err.value.position == 6


# message and column of each malformed input, as reported by the character-scanning parser
ANF_ERRORS = [
    ("", 2, "empty ANF expression", 1),
    ("   ", 2, "empty ANF expression", 1),
    ("\t", 2, "empty ANF expression", 1),
    ("x", 2, "'x' must be followed by a variable index", 1),
    ("x1 + ", 2, "expected a variable or constant", 6),
    ("x1 +", 2, "expected a variable or constant", 5),
    ("x1 *", 2, "expected a variable or constant", 5),
    ("x1 & ", 2, "expected a variable or constant", 6),
    ("x1\xa0+\u3000x2 *", 2, "expected a variable or constant", 10),
    ("x1 x2", 2, "expected '+' but found 'x'", 4),
    ("x1x2", 2, "expected '+' but found 'x'", 3),
    ("x1 + x2 x3", 3, "expected '+' but found 'x'", 9),
    ("1 0", 2, "expected '+' but found '0'", 3),
    ("x1 - x2", 2, "expected '+' but found '-'", 4),
    ("x3", 2, "variable x3 out of range [1, 2]", 1),
    ("x0", 2, "variable x0 out of range [1, 2]", 1),
    ("x00", 2, "variable x0 out of range [1, 2]", 1),
    ("x1 * + x2", 2, "unexpected character '+'", 6),
    ("y", 2, "unexpected character 'y'", 1),
    ("+", 2, "unexpected character '+'", 1),
    ("x1 ** x2", 2, "unexpected character '*'", 5),
    ("x1 ++ x2", 2, "unexpected character '+'", 5),
    ("(x1)", 2, "unexpected character '('", 1),
    ("x\u0661*x\u0662", 2, "'x' must be followed by a variable index", 1),
    ("x1 + x\uff12", 2, "'x' must be followed by a variable index", 6),
]


@pytest.mark.parametrize("text, n, message, column", ANF_ERRORS)
def test_anf_syntax_error_messages_and_columns(text, n, message, column):
    with pytest.raises(AnfSyntaxError) as err:
        from_anf_string(text, n)
    assert str(err.value) == f"{message} (column {column})"
    assert err.value.position == column


@pytest.mark.parametrize("text, table", [
    ("x01", [0, 0, 1, 1]),
    ("x1 +\tx2", [0, 1, 1, 0]),
    ("x1*x1 + x1", [0, 0, 0, 0]),
    ("1 + 1", [0, 0, 0, 0]),
    ("x1&x2+0*x1 + 1", [1, 1, 1, 0]),
])
def test_anf_valid_edge_cases(text, table):
    tables_equal(from_anf_string(text, 2), table)


def test_anf_round_trip_random():
    rng = np.random.default_rng(811)
    for n in range(1, 9):
        for _ in range(20):
            f = random_function(n, int(rng.integers(0, 2**32)))
            g = BooleanFunction(n, f.to_anf().coeffs).to_anf()  # the Moebius transform inverts
            assert np.array_equal(g.coeffs, f.table)
            if f.to_anf().coeffs.any():
                h = from_anf_string(f.to_anf().to_string(), n)
                assert same(h, f)


def reference_anf_string(anf):
    """One bit string and one join per monomial."""
    terms = []
    for u in np.flatnonzero(anf.coeffs).tolist():
        bits = format(u, f"0{anf.n}b")
        terms.append("*".join(f"x{i + 1}" for i, b in enumerate(bits) if b == "1") if u else "1")
    return " + ".join(terms) if terms else "0"


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.builds(from_packed, st.just(n), st.integers(0, (1 << (1 << n)) - 1))
))
def test_anf_string_round_trip(f):
    text = f.to_anf().to_string()
    assert text == reference_anf_string(f.to_anf())
    assert same(from_anf_string(text, f.n), f)


def test_anf_string_edge_cases():
    # n = 1 has an empty low field; constants print as the empty sum and "1"
    assert from_anf_string("x1", 1).to_anf().to_string() == "x1"
    assert from_anf_string("1 + x1", 1).to_anf().to_string() == "1 + x1"
    assert BooleanFunction(1, [0, 0]).to_anf().to_string() == "0"
    assert BooleanFunction(1, [1, 1]).to_anf().to_string() == "1"
    assert BooleanFunction(5, [0] * 32).to_anf().to_string() == "0"
    assert BooleanFunction(5, [1] * 32).to_anf().to_string() == "1"
    # ascending u; at n = 5 the high field is x1..x3, so x3*x4*x5 spans both fields
    assert from_anf_string("x1*x5 + x3*x4*x5", 5).to_anf().to_string() == "x3*x4*x5 + x1*x5"


def test_mobius_is_an_involution():
    for n in range(1, 11):
        f = random_function(n, 4242 + n)  # a seed is an int, not a numpy Generator
        anf = f.to_anf()
        assert anf.coeffs.dtype == np.uint8 and anf.coeffs.shape == (1 << n,)
        # the same transform applied to the coefficient table gives back the truth table
        assert np.array_equal(BooleanFunction(n, anf.coeffs).to_anf().coeffs, f.table)


def test_degree():
    assert from_anf_string("x1*x2*x3", 3).degree() == 3
    assert from_anf_string("x1 + x2", 3).degree() == 1
    assert BooleanFunction(3, [0] * 8).degree() == 0
    assert BooleanFunction(3, [1] * 8).degree() == 0


def test_hex_round_trip():
    rng = np.random.default_rng(90125)
    for n in range(1, 9):
        for _ in range(10):
            f = random_function(n, int(rng.integers(0, 2**32)))
            assert same(BooleanFunction.from_hex(n, f.to_hex()), f)


def test_hex_conventions():
    # delta at the all-zero input: first table bit set, rest clear
    f = BooleanFunction.from_hex(2, "8")
    tables_equal(f, [1, 0, 0, 0])
    # n = 1 uses one hex digit with two padding bits that must be zero
    g = BooleanFunction(1, [1, 0])
    assert g.to_hex() == "8"
    assert same(BooleanFunction.from_hex(1, "8"), g)
    for text in ("9", "a"):  # a padding bit set: the last, or the first
        with pytest.raises(ValueError, match="padding bits"):
            BooleanFunction.from_hex(1, text)
    with pytest.raises(ValueError):
        BooleanFunction.from_hex(2, "12")  # wrong digit count
    with pytest.raises(ValueError):
        BooleanFunction.from_hex(2, "g")
    # only 0-9a-fA-F: int(text, 16) alone would take a prefix, separators and signs
    assert same(BooleanFunction.from_hex(4, "1F2E"), BooleanFunction.from_hex(4, "1f2e"))
    # surrounding whitespace is dropped, as a quoted --tt-hex ' 6a ' passes it on
    assert same(BooleanFunction.from_hex(3, " 6a "), BooleanFunction.from_hex(3, "6a"))
    for text in ("0x1f", "1_2f", "-001", "+1f2", "\u0661\u0662\u0663\u0664"):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            BooleanFunction.from_hex(4, text)


def test_tables_are_read_only():
    f = random_function(5, 31)
    anf = f.to_anf()
    checked = BooleanFunction(2, [0, 1, 1, 0]).table
    for table in (f.table, anf.coeffs, linear(5, "00110").table, bent_quadratic(4).table, checked):
        assert table.dtype == np.uint8 and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] ^= 1
    assert np.array_equal(BooleanFunction(5, anf.coeffs).to_anf().coeffs, f.table)


def test_constructor_checks_and_copies_its_input():
    arr = np.array([0, 1, 1, 0], dtype=np.uint8)
    f = BooleanFunction(2, arr)
    assert arr.flags.writeable
    arr[0] = 1  # the caller's array is neither frozen nor shared
    tables_equal(f, [0, 1, 1, 0])
    wide = np.array([0, 0, 0, 1, 0, 0, 0, 0], dtype=np.int64)
    g = BooleanFunction(3, wide)
    assert wide.flags.writeable and g.table.dtype == np.uint8
    wide[0] = 1  # nor is a wider integer array
    tables_equal(g, [0, 0, 0, 1, 0, 0, 0, 0])
    # 8 entries are not a 5-variable table, and 2..7 are not table entries
    with pytest.raises(ValueError, match="truth table must have length 32$"):
        BooleanFunction(5, np.zeros(8, np.uint8))
    a = np.arange(8, dtype=np.uint8)
    with pytest.raises(ValueError, match="truth table entries must be 0/1$"):
        BooleanFunction(3, a)
    assert a.flags.writeable
    for bad in (np.zeros(8), np.zeros(8, np.complex64)):
        with pytest.raises(ValueError, match=f"truth table must hold integers, got {bad.dtype}$"):
            BooleanFunction(3, bad)
    with pytest.raises(ValueError, match="must hold integers, got float64$"):
        BooleanFunction(1, [0.0, 1.0])
    with pytest.raises(ValueError, match="positive integer, got 0$"):
        BooleanFunction(0, [])


def test_anf_has_no_public_constructor():
    # BooleanFunction.to_anf is the one source of an Anf, so its table needs no check
    with pytest.raises(TypeError):
        Anf(2, [0, 0, 0, 1])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))
))
def test_packed_round_trip(case):
    n, bits = case
    table = [bits >> x & 1 for x in range(1 << n)]  # bit idx(x) holds F(x), one by one
    assert BooleanFunction(n, table).packed == bits
    assert np.array_equal(from_packed(n, bits).table, table)  # the tests' helper


def test_table_validation():
    with pytest.raises(ValueError):
        BooleanFunction(2, [0, 1, 2, 0])
    with pytest.raises(ValueError):
        BooleanFunction(2, [0, 1])
    with pytest.raises(ValueError):
        BooleanFunction(0, [])
    with pytest.raises(CapacityError, match=r"maximum 24: 2\^25 table entries > 2\^24$"):
        BooleanFunction.from_hex(25, "0")
    with pytest.raises(ValueError, match="positive integer, got 2.0$"):
        BooleanFunction(2.0, [0, 1, 1, 0])
    # 0/1 tables of every admitted dtype pass, and each out-of-range entry a dtype holds fails
    for dtype in (np.bool_, np.int8, np.int64, np.uint8, np.uint64):
        tables_equal(BooleanFunction(2, np.array([0, 1, 1, 0], dtype)), [0, 1, 1, 0])
        for bad in (-1, 2, 255):
            if dtype is not np.bool_ and np.iinfo(dtype).min <= bad <= np.iinfo(dtype).max:
                with pytest.raises(ValueError, match="truth table entries must be 0/1$"):
                    BooleanFunction(2, np.array([0, 1, bad, 0], dtype))


@pytest.mark.parametrize("build", [
    ["-n", "3", "--anf", "1 + x1*x2"],
    ["-n", "3", "--tt-hex", "6a"],
    ["-n", "3", "--family", "linear", "--u", "101"],
    ["-n", "4", "--family", "bent"],
    ["-n", "3", "--family", "random", "--seed", "5"],
    lambda: from_anf_string("1 + x1*x2", 3),
    lambda: BooleanFunction.from_hex(3, "6a"),
    lambda: linear(3, "101"),
    lambda: bent_quadratic(4),
    lambda: random_function(3, 5),
], ids=["cli-anf", "cli-tt-hex", "cli-linear", "cli-bent", "cli-random",
        "from_anf_string", "from_hex", "linear", "bent_quadratic", "random_function"])
def test_every_function_is_built_by_the_checked_constructor_once(monkeypatch, capsys, build):
    calls = []
    checked = BooleanFunction.__init__

    def counted(self, n, table):
        calls.append(n)
        checked(self, n, table)

    monkeypatch.setattr(BooleanFunction, "__init__", counted)
    if callable(build):
        build()
    else:
        assert cli.main(["analyze", *build, "--deterministic"]) == 0
    assert len(calls) == 1


def derivative_table(f, dirs):
    """D_{d1..dk} F as the exact routes compute it: while n <= 8, spectral._derivative_rows
    yields the tables of depth k in the order of the index d1 * 2^(n(k-1)) + ... + dk."""
    rows = np.concatenate(list(_derivative_rows(f.table[None], len(dirs))))
    index = 0
    for d in dirs:
        index = index << f.n | d
    return rows[index]


def test_derivative_examples():
    f = from_anf_string("x1*x2", 2)
    d = derivative_table(f, [0b10])  # direction e1: D f = x2
    assert list(d) == [0, 1, 0, 1]
    d2 = derivative_table(f, [0b10, 0b01])
    assert list(d2) == [1, 1, 1, 1]  # second derivative of x1*x2 is constant 1
    d0 = derivative_table(f, [0b00])
    assert list(d0) == [0, 0, 0, 0]  # zero direction kills everything


def test_derivative_properties():
    rng = np.random.default_rng(77)
    for n in range(2, 7):
        f = random_function(n, int(rng.integers(0, 2**32)))
        a = int(rng.integers(1, 2**n))
        b = int(rng.integers(1, 2**n))
        t, x = f.table, np.arange(1 << n)
        assert np.array_equal(derivative_table(f, [a]), t ^ t[x ^ a])
        # direction order does not matter
        assert np.array_equal(derivative_table(f, [a, b]), derivative_table(f, [b, a]))
        # differentiation drops degree for non-constant functions
        if f.degree() >= 1:
            d = BooleanFunction(n, derivative_table(f, [a]))
            assert d.degree() <= max(f.degree() - 1, 0)


def test_linear_family():
    f = linear(3, "101")  # u1, the coefficient of x1, comes first, as --u reads it
    for x in range(8):
        assert f.table[x] == (bin(x & 0b101).count("1") & 1)
    assert same(from_anf_string("x1 + x3", 3), f)
    assert linear(3, "000").weight == 0
    # u is the bit string alone: no index, bit vector or bytes
    for bad in ("10", "1010", "102", " 101", 5, [1, 0, 1], b"101"):
        with pytest.raises(ValueError, match=f"^direction string must be 3 bits of 0/1, got "
                                             f"{re.escape(repr(bad))}$"):
            linear(3, bad)
    with pytest.raises(ValueError, match="^direction string must be 2 bits of 0/1, got 1$"):
        linear(2, 1)


def test_bent_family():
    for n in range(2, 25, 2):  # the closed form against its ANF, up to the table guard
        assert same(bent_quadratic(n),
                    from_anf_string(" + ".join(f"x{i}*x{i + 1}" for i in range(1, n, 2)), n)), n
    with pytest.raises(ValueError):
        bent_quadratic(3)


def test_random_family_is_seeded():
    assert same(random_function(5, 123), random_function(5, 123))
    assert not same(random_function(5, 123), random_function(5, 124))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16])
def test_random_tables_are_the_top_bits_of_the_streams_bytes(n):
    # entry x is the top bit of byte x, little-endian, of the seed's stream; 2^16 entries
    # span several draw chunks of 8 bytes a word
    for seed in (0, 9, (5, 2)):
        assert random_function(n, seed).table.tolist() == stream.table_bits(seed, 1 << n)
