import sys

import pytest

from homkit.errors import InputError
from homkit.abgroups import FgAbGroup, is_isomorphic
from homkit.intlinalg import IntMatrix
from homkit.jsonio import (
    complex_from_json,
    decimal_to_int,
    int_to_decimal,
    complex_to_json,
    graded_group_from_json,
    graded_group_to_json,
    group_from_json,
    group_to_json,
    matrix_from_json,
    matrix_to_json,
    rmodule_from_json,
)
from homkit.percomplex import homology, moore_complex
from homkit.randgen import random_complex, random_group
import random


class TestMatrix:
    def test_roundtrip(self):
        m = IntMatrix.from_rows([[1, -2], [10**30, 0]])
        assert matrix_from_json(matrix_to_json(m)) == m

    def test_big_integers_survive(self):
        doc = {"rows": 1, "cols": 1, "data": [[str(10**40)]]}
        assert matrix_from_json(doc).data[0][0] == 10**40

    def test_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            matrix_from_json({"rows": 2, "cols": 1, "data": [["1"]]})
        with pytest.raises(InputError):
            matrix_from_json({"rows": 1, "cols": 1, "data": [["x"]]})
        with pytest.raises(InputError):
            matrix_from_json({"rows": 1, "cols": 1})
        with pytest.raises(InputError):
            matrix_from_json([1, 2])

    @pytest.mark.parametrize("data, what, message", [
        ([["1", "2"], ["3", "x"]], "a.json.d", "a.json.d[1]: not a decimal integer string: 'x'"),
        ([["1", True]], "m", "m[0]: expected a decimal string"),
        ([["1", 1.5]], "hh.json.lambda", "hh.json.lambda[0]: expected a decimal string"),
        ([["1", "2"], ["3"]], "m", "m: row 1 does not have 2 entries"),
        ([["1", "x" * 5000]], "m",
         "m[0]: not a decimal integer string: 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
    ])
    def test_entry_messages_in_full(self, data, what, message):
        # The `what[i]` label names the row of the bad entry.
        doc = {"rows": len(data), "cols": 2, "data": data}
        with pytest.raises(InputError) as info:
            matrix_from_json(doc, what)
        assert str(info.value) == message

    def test_entries_are_plain_ints(self):
        m = matrix_from_json({"rows": 1, "cols": 3, "data": [["-4", 5, "0"]]})
        assert m.data == ((-4, 5, 0),) and all(type(x) is int for x in m.data[0])

    def test_subclassed_values_parse_to_plain_ints(self):
        # A document built in Python may hold int or str subclasses; the one
        # integer parser hands on plain ints wherever it reads them.
        class Big(int):
            pass

        class Text(str):
            pass

        m = matrix_from_json({"rows": 1, "cols": 2, "data": [[Big(3), Text("-7")]]})
        assert m.data == ((3, -7),) and all(type(x) is int for x in m.data[0])
        assert group_from_json({"rank": 0, "torsion": [Big(2), Text("4")]}).canonical == (0, (2, 4))

    @pytest.mark.parametrize("key", ["rows", "cols"])
    def test_rejects_negative_sizes(self, key):
        doc = {"rows": 0, "cols": 0, "data": [], key: -2}
        with pytest.raises(InputError, match=rf"^hh\.json\.lambda\.{key}: must be >= 0$"):
            matrix_from_json(doc, what="hh.json.lambda")


class TestDecimalStrings:
    @pytest.mark.parametrize("text", ["1_000", " 7\n", "\u0663", "+5", "", "-", "7\n", "1e3"])
    def test_only_ascii_decimal_digits(self, text):
        with pytest.raises(InputError, match="not a decimal integer string"):
            matrix_from_json({"rows": 1, "cols": 1, "data": [[text]]})

    def test_accepted_forms(self):
        doc = {"rows": 1, "cols": 4, "data": [["-0", "007", "-12", 5]]}
        assert matrix_from_json(doc).data == ((0, 7, -12, 5),)

    @pytest.mark.parametrize("digits", [599, 600, 601, 4300, 4301, 5000, 12001])
    def test_any_length_both_ways(self, digits):
        rng = random.Random(digits)
        text = str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(digits - 1))
        for signed in (text, "-" + text, text[:-300] + "0" * 300):
            value = decimal_to_int(signed)
            expected = 0  # left to right, 100 digits at a time
            for i in range(0, len(signed.lstrip("-")), 100):
                chunk = signed.lstrip("-")[i:i + 100]
                expected = expected * 10 ** len(chunk) + int(chunk)
            assert value == (-expected if signed.startswith("-") else expected)
            assert int_to_decimal(value) == signed
            m = matrix_from_json({"rows": 1, "cols": 1, "data": [[signed]]})
            assert matrix_to_json(m)["data"] == [[signed]]

    def test_digit_limit_setting_untouched(self):
        get = getattr(sys, "get_int_max_str_digits", None)
        before = get() if get else None
        matrix_to_json(matrix_from_json({"rows": 1, "cols": 1, "data": [["9" * 5000]]}))
        assert (get() if get else None) == before

    def test_echoed_value_is_cut(self):
        with pytest.raises(InputError) as info:
            matrix_from_json({"rows": 1, "cols": 1, "data": [["x" * 5000]]})
        assert len(str(info.value)) < 100
        assert "5000 characters" in str(info.value)


class TestGroups:
    def test_canonical_roundtrip(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_group(rng)
            assert is_isomorphic(group_from_json(group_to_json(g)), g)

    def test_presentation_input(self):
        g = group_from_json({"presentation": {"rows": 1, "cols": 1, "data": [["6"]]}})
        assert g.canonical == (0, (6,))

    def test_invalid_invariants(self):
        with pytest.raises(InputError):
            group_from_json({"rank": 0, "torsion": ["3", "2"]})

    def test_graded_roundtrip(self):
        rng = random.Random(5)
        from homkit.randgen import random_graded_group
        g = random_graded_group(rng)
        assert graded_group_from_json(graded_group_to_json(g)).is_isomorphic_to(g)


class TestComplexes:
    def test_roundtrip_preserves_homology(self):
        rng = random.Random(7)
        for _ in range(10):
            x = random_complex(rng, 2)
            y = complex_from_json(complex_to_json(x))
            assert x == y

    def test_invalid_complex_rejected(self):
        doc = {"even_rank": 1, "odd_rank": 1,
               "d": {"rows": 1, "cols": 1, "data": [["1"]]},
               "e": {"rows": 1, "cols": 1, "data": [["1"]]}}
        with pytest.raises(InputError, match="not a complex"):
            complex_from_json(doc)

    @pytest.mark.parametrize("key", ["even_rank", "odd_rank"])
    def test_rejects_negative_ranks(self, key):
        zero = {"rows": 0, "cols": 0, "data": []}
        doc = {"even_rank": 0, "odd_rank": 0, "d": zero, "e": zero, key: -1}
        with pytest.raises(InputError, match=rf"^a\.json\.{key}: must be >= 0$"):
            complex_from_json(doc, what="a.json")


class TestRModules:
    def test_quotient_module(self):
        doc = {"ring": {"kind": "quotient", "poly": ["-1", "0", "1"]},
               "generators": 1,
               "relations": {"rows": 1, "cols": 0, "data": [[]]},
               "t_action": {"rows": 1, "cols": 1, "data": [["-1"]]}}
        m = rmodule_from_json(doc)
        assert m.ngens == 1

    def test_laurent_module(self):
        doc = {"ring": {"kind": "laurent"},
               "generators": 1,
               "relations": {"rows": 1, "cols": 0, "data": [[]]},
               "t_action": {"rows": 1, "cols": 1, "data": [["-1"]]}}
        assert rmodule_from_json(doc).ngens == 1

    def test_bad_ring_kind(self):
        doc = {"ring": {"kind": "field"}, "generators": 0,
               "relations": {"rows": 0, "cols": 0, "data": []},
               "t_action": {"rows": 0, "cols": 0, "data": []}}
        with pytest.raises(InputError, match="kind"):
            rmodule_from_json(doc)

    def test_rejects_negative_generator_count(self):
        doc = {"ring": {"kind": "laurent"}, "generators": -1,
               "relations": {"rows": 0, "cols": 0, "data": []},
               "t_action": {"rows": 0, "cols": 0, "data": []}}
        with pytest.raises(InputError, match=r"^m\.json\.generators: must be >= 0$"):
            rmodule_from_json(doc, what="m.json")

    def test_generator_count_mismatch(self):
        doc = {"ring": {"kind": "laurent"}, "generators": 2,
               "relations": {"rows": 1, "cols": 0, "data": [[]]},
               "t_action": {"rows": 1, "cols": 1, "data": [["1"]]}}
        with pytest.raises(InputError, match="one row per generator"):
            rmodule_from_json(doc)
