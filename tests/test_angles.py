import math

import pytest

from spinqpe import AngleParseError, parse_angle


class TestGrammar:
    @pytest.mark.parametrize("text,expected", [
        ("pi", math.pi),
        ("pi/3", math.pi / 3),
        ("-pi/3", -math.pi / 3),
        ("-pi", -math.pi),
        ("3pi/4", 3 * math.pi / 4),
        ("15/16pi", 15 * math.pi / 16),
        ("1/2pi", math.pi / 2),
        ("2pi", 2 * math.pi),
        ("0pi", 0.0),
    ])
    def test_pi_fractions_exact(self, text, expected):
        assert parse_angle(text) == expected

    def test_nested_divisor(self):
        assert parse_angle("15/16pi/2") == 15 * math.pi / 16 / 2

    @pytest.mark.parametrize("text,expected", [
        ("1.0471975512", 1.0471975512),
        ("0", 0.0),
        ("2", 2.0),
        ("-2", -2.0),
        ("0.25", 0.25),
        ("-2.5e-3", -2.5e-3),
        ("1e2", 100.0),
        ("3.", 3.0),
    ])
    def test_decimal_radians(self, text, expected):
        assert parse_angle(text) == expected

    def test_surrounding_whitespace_ignored(self):
        assert parse_angle("  pi/4  ") == math.pi / 4


class TestErrors:
    @pytest.mark.parametrize("text,position", [
        ("", 0),
        ("   ", 3),
        ("foo", 0),
        ("+pi", 0),
        ("--pi", 1),
        ("pie", 2),
        ("pi/", 3),
        ("pi/x", 3),
        ("pi/0", 3),
        ("3/4", 3),
        ("3/0pi", 2),
        ("1.2.3", 3),
        ("1e", 2),
        ("pi/4 junk", 5),
        ("pi4", 2),
        # only ASCII digits are digits
        ("\u0663pi", 0),
        ("3\u00b2", 1),
        ("pi/\u0664", 3),
        ("1e\u0665", 2),
        ("\U0001d7d1", 0),
    ])
    def test_position_reported(self, text, position):
        with pytest.raises(AngleParseError) as excinfo:
            parse_angle(text)
        assert excinfo.value.position == position
        assert excinfo.value.text == text

    def test_message_carries_position(self):
        with pytest.raises(AngleParseError, match="position 2"):
            parse_angle("pie")
