"""Tokenizer tests."""

import pytest

from repro.core.errors import ParseError
from repro.core.lexer import Token, tokenize


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text) if t.kind != "eof"]


class TestBasicTokens:
    def test_identifiers_and_keywords(self):
        toks = kinds("foo init prop Work")
        assert toks == [
            ("ident", "foo"),
            ("keyword", "init"),
            ("keyword", "prop"),
            ("ident", "Work"),
        ]

    def test_numbers_integer(self):
        toks = tokenize("42")
        assert toks[0].kind == "number"
        assert toks[0].num == 42.0

    def test_numbers_float(self):
        toks = tokenize("3.25")
        assert toks[0].num == 3.25

    def test_number_not_greedy_over_dot(self):
        # "3." without trailing digit: the dot is not consumed
        with pytest.raises(ParseError):
            tokenize("3.")

    def test_comments_stripped(self):
        toks = kinds("a # a comment with symbols <| |> :: \nb")
        assert toks == [("ident", "a"), ("ident", "b")]

    def test_eof_token_present(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == "eof"


class TestPunctuation:
    def test_longest_match_transaction_brackets(self):
        assert [t.value for t in tokenize("<| |>")[:-1]] == ["<|", "|>"]

    def test_longest_match_double_pipe_vs_pipe(self):
        values = [t.value for t in tokenize("| || |>")[:-1]]
        assert values == ["|", "||", "|>"]

    def test_double_colon_vs_colon(self):
        values = [t.value for t in tokenize("a::b a:b")[:-1]]
        assert values == ["a", "::", "b", "a", ":", "b"]

    def test_arrows(self):
        values = [t.value for t in tokenize("-> =>")[:-1]]
        assert values == ["->", "=>"]

    def test_ellipsis(self):
        values = [t.value for t in tokenize("save(..., n)")[:-1]]
        assert "..." in values

    def test_arith_operators(self):
        values = [t.value for t in tokenize("3 * t + 1 - 2 / 4")[:-1]]
        assert values == ["3", "*", "t", "+", "1", "-", "2", "/", "4"]


class TestPositions:
    def test_line_and_column(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_error_position(self):
        with pytest.raises(ParseError) as e:
            tokenize("ok\n  $")
        assert e.value.line == 2
        assert e.value.column == 3

    @pytest.mark.parametrize(
        "text, column",
        [
            ("x = \u00b2", 5),  # superscript two: str.isdigit, float() refuses it
            ("x = \u0661", 5),  # Arabic-Indic one: str.isdigit and float() == 1
            ("\u00e9 = 1", 1),  # e-acute: str.isalpha
            ("ab\u00e9", 3),  # ...also inside an identifier
            ("12\u00b2", 3),  # ...and inside a number
        ],
    )
    def test_non_ascii_outside_a_comment_is_a_parse_error(self, text, column):
        with pytest.raises(ParseError) as e:
            tokenize("ok\n" + text)
        assert (e.value.line, e.value.column) == (2, column)

    def test_non_ascii_in_a_comment_is_accepted(self):
        assert kinds("a # caf\u00e9 \u00b2 \u2192\nb") == [("ident", "a"), ("ident", "b")]


class TestTokenHelpers:
    def test_is_punct(self):
        t = Token("punct", ";", 1, 1)
        assert t.is_punct(";", ",")
        assert not t.is_punct(",")

    def test_is_kw(self):
        t = Token("keyword", "case", 1, 1)
        assert t.is_kw("case")
        assert not t.is_kw("wait")
