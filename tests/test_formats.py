import json
import sys
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import lamo.formats
from lamo import INF, IntSet, LinearMap, NumberSequence, PiecewiseMap, Tail, simulate
from lamo.errors import LamoError, NotNonDecreasing, ParseError
from lamo.exact import ExactNumber
from lamo.formats import (
    events_to_json,
    events_to_jsonl,
    intset_from_json,
    intset_to_json,
    map_from_json,
    map_to_json,
    parse_intset,
    parse_intset_text,
    parse_map,
    parse_sequence,
    parse_sequence_text,
    render_intset_text,
    render_sequence_text,
    sequence_from_json,
    sequence_to_json,
)
from lamo.runner import COLLISION, MEETING, X_CROSSING, Y_CROSSING, Event, EventLog

from oracles import (
    event_to_json,
    per_term_intset_str,
    per_term_intset_text,
    per_term_sequence_json,
    per_term_sequence_text,
    regex_plain_head,
    scan_parse_text,
)


class TestSequenceText:
    def test_basic_round_trip(self):
        s = NumberSequence((0, 0, 1, 4), Tail.infinite())
        assert parse_sequence_text(render_sequence_text(s)) == s

    def test_all_tail_kinds(self):
        for tail in (Tail.unknown(), Tail.constant(7), Tail.infinite()):
            s = NumberSequence((1, 2, 7) if tail.kind == "constant" else (1, 2), tail)
            assert parse_sequence_text(render_sequence_text(s)) == s

    def test_inf_token(self):
        s = parse_sequence_text("0\ninf\n#tail infinite\n")
        assert s.prefix == (0, INF)

    def test_missing_directive_defaults_to_unknown(self):
        assert parse_sequence_text("3\n4\n").tail == Tail.unknown()

    def test_comments_and_blank_lines_skipped(self):
        s = parse_sequence_text("# a note\n\n1\n# another\n2\n#tail unknown\n")
        assert s.prefix == (1, 2)

    def test_comment_starting_with_the_directive_word(self):
        s = parse_sequence_text("1\n2\n#tailored by hand\n")
        assert s == NumberSequence((1, 2), Tail.unknown())

    def test_directive_word_must_match_exactly(self):
        assert parse_sequence_text("1\n2\n#tailx constant 2\n").tail == Tail.unknown()

    def test_error_names_offending_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_sequence_text("1\ntwo\n#tail unknown\n")

    def test_term_after_directive(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_sequence_text("1\n#tail unknown\n2\n")

    def test_duplicate_directive(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_sequence_text("1\n#tail unknown\n#tail infinite\n")

    def test_bad_directives(self):
        with pytest.raises(ParseError):
            parse_sequence_text("1\n#tail constant\n")
        with pytest.raises(ParseError):
            parse_sequence_text("1\n#tail sometimes\n")

    def test_negative_term_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_sequence_text("-3\n#tail unknown\n")

    def test_negative_constant_tail_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_sequence_text("1\n2\n#tail constant -3\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0\n# note\n\n-1\n#tail unknown\n", 4),
            ("0\n1\n2.5\n", 3),
            ("0\n-1\n#tail constant -1\n", 2),
            ("1\n\n#tail constant x\n", 3),
            ("1\n#tail constant\n", 2),
            ("1\n#tail constant 3 4\n", 2),
            ("1\n#tail infinite 3\n", 2),
            ("1\n#tail\n", 2),
            ("1\n#tail sometimes\n", 2),
            ("1\n#tail unknown\n# fine\n2\n", 4),
            ("1\n# note\n#tail constant -1\n\n# after\n", 3),
        ],
    )
    def test_each_error_names_its_line(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse_sequence_text(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0\n# note\n2\n1\n", "line 4: term 3 (1) is below term 2 (2)"),
            ("0\ninf\n1\n#tail infinite\n", "line 3: term 3 (1) is below term 2 (inf)"),
            ("0\n2\n\n#tail constant 1\n", "line 4: term 2 (2) exceeds the constant tail 1"),
            # A term at fault is named before a tail at fault.
            ("2\n1\n#tail sometimes\n", "line 2: term 2 (1) is below term 1 (2)"),
        ],
    )
    def test_order_error_names_its_line(self, text, message):
        with pytest.raises(NotNonDecreasing) as e:
            parse_sequence_text(text)
        assert str(e.value) == message

    @pytest.mark.parametrize("token", ["1_0", "+2", "３", "1٣", "-+1"])
    def test_one_integer_spelling(self, token):
        for text, line, what in [
            (f"{token}\n5\n#tail constant 9\n", 1, "an integer or 'inf'"),
            (f"1\n# note\n2\n{token}\n#tail constant 9\n", 4, "an integer or 'inf'"),
            (f"1\n2\n#tail constant {token}\n", 3, "an integer"),
        ]:
            with pytest.raises(ParseError) as e:
                parse_sequence_text(text)
            assert str(e.value) == f"line {line}: expected {what}, got {token!r}"

    def test_first_bad_token_is_named(self):
        with pytest.raises(ParseError, match="^line 2: .* got 'x'$"):
            parse_sequence_text("1\nx\n1_0\n")
        with pytest.raises(ParseError, match="^line 2: .* got '1_0'$"):
            parse_sequence_text("1\n1_0\nx\n")

    def test_integer_past_the_digit_limit(self):
        # int() refuses a decimal string longer than this, so the term is no integer.
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not digits:
            pytest.skip("this interpreter has no limit on integer string length")
        with pytest.raises(ParseError, match="^line 2: expected an integer or 'inf', got '11"):
            parse_sequence_text("1\n" + "1" * (digits + 1) + "\n")

    def test_digits_with_leading_zeros_or_a_minus(self):
        assert parse_sequence_text("007\n10\n#tail constant 012\n") == NumberSequence(
            (7, 10), Tail.constant(12))
        with pytest.raises(ParseError, match="^line 2: expected a non-negative.* got -3$"):
            parse_sequence_text("-0\n-3\n")


class TestSequenceJson:
    @pytest.mark.parametrize(
        "s",
        [
            NumberSequence((0, 2, INF), Tail.infinite()),
            NumberSequence((0, 2, 5), Tail.constant(7)),
            NumberSequence((1, 1), Tail.unknown()),
        ],
        ids=["infinite", "constant", "unknown"],
    )
    def test_round_trip(self, s):
        assert sequence_from_json(sequence_to_json(s)) == s

    def test_constant_tail_value(self):
        obj = sequence_to_json(NumberSequence((1,), Tail.constant(9)))
        assert obj == {"terms": [1], "tail": {"kind": "constant", "value": 9}}

    def test_sniffing(self):
        assert parse_sequence('{"terms":[1,2],"tail":{"kind":"unknown"}}').prefix == (1, 2)
        assert parse_sequence("1\n2\n#tail unknown\n").prefix == (1, 2)

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {"terms": "nope"},
            {"terms": [1.5]},
            {"terms": [True]},
            {"terms": [-1]},
            {"terms": [], "tail": {"kind": "constant"}},
            {"terms": [], "tail": {"kind": "weird"}},
            {"terms": [], "tail": "unknown"},
        ],
    )
    def test_malformed(self, obj):
        with pytest.raises(ParseError):
            sequence_from_json(obj)

    def test_bad_json_text(self):
        with pytest.raises(ParseError, match="bad JSON"):
            parse_sequence("{not json")

    @pytest.mark.parametrize("term", [1.5, True, -1, "x", None, [2]])
    def test_bad_term_names_its_index(self, term):
        with pytest.raises(ParseError, match="^term 2: "):
            sequence_from_json({"terms": [0, term, 4], "tail": {"kind": "weird"}})

    def test_inf_from_its_first_place_on(self):
        obj = {"terms": [0, 2, "inf", "inf"], "tail": {"kind": "unknown"}}
        assert sequence_from_json(obj) == NumberSequence((0, 2, INF, INF), Tail.infinite())
        assert obj["terms"] == [0, 2, "inf", "inf"]  # the caller's list is left as it was
        with pytest.raises(NotNonDecreasing, match="term 3 \\(3\\) is below term 2 \\(inf\\)"):
            sequence_from_json({"terms": [0, "inf", 3], "tail": {"kind": "unknown"}})

    @pytest.mark.parametrize("terms, expected", [
        ([0, 1, 3], ((0, 1, 3), Tail.unknown())),
        ([0, 2, "inf", "inf"], ((0, 2, INF, INF), Tail.infinite())),
        ([0, "inf", 3], (NotNonDecreasing, "term 3 (3) is below term 2 (inf)")),
        ([0, True, 2], (ParseError, "term 2: expected a non-negative integer or 'inf', got True")),
        ([0, 1.0, 2], (ParseError, "term 2: expected a non-negative integer or 'inf', got 1.0")),
        ([0, [1], 2], (ParseError, "term 2: expected a non-negative integer or 'inf', got [1]")),
    ], ids=["ints", "inf-suffix", "inf-inside", "true", "float", "nested"])
    def test_terms_value_or_error(self, terms, expected):
        obj = {"terms": terms, "tail": {"kind": "unknown"}}
        assert _parsed(sequence_from_json, obj) == expected

    @pytest.mark.parametrize("kind", ["unknown", "infinite"])
    def test_tail_without_a_value_rejects_one(self, kind):
        with pytest.raises(ParseError, match="carries no value, got 3"):
            sequence_from_json({"terms": [1], "tail": {"kind": kind, "value": 3}})


class TestIntSetForms:
    def test_text_round_trip(self):
        s = IntSet((1, 2, 4, 8), 100)
        assert parse_intset(render_intset_text(s)) == s

    def test_json_round_trip(self):
        s = IntSet((2, 4, 6), 10)
        assert intset_from_json(intset_to_json(s)) == s
        assert parse_intset(json.dumps(intset_to_json(s))) == s

    def test_default_horizon_is_last_element(self):
        assert parse_intset("1\n5\n").horizon == 5
        assert parse_intset("").horizon == 0

    def test_horizon_word_must_match_exactly(self):
        assert parse_intset("1\n2\n#horizonx 9\n") == IntSet((1, 2), 2)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1\nx\n", 2),
            ("1\n#horizon x\n", 2),
            ("1\n#horizon\n", 2),
            ("1\n#horizon 9\n7\n", 3),
            ("1\n#horizon 5\n# fine\n#horizon 9\n", 4),
            ("# note\n1\n\n2\n5\n#horizon 3\n", 5),
        ],
    )
    def test_text_error_names_its_line(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse_intset(text)

    @pytest.mark.parametrize("token", ["1_0", "+2", "３", "1٣"])
    def test_one_integer_spelling(self, token):
        for text, line in [(f"{token}\n20\n", 1), (f"1\n2\n{token}\n", 3),
                           (f"1\n2\n#horizon {token}\n", 3)]:
            with pytest.raises(ParseError) as e:
                parse_intset(text)
            assert str(e.value) == f"line {line}: expected an integer, got {token!r}"

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_intset("1\nx\n")
        with pytest.raises(ParseError):
            intset_from_json({"elements": [1], "horizon": "big"})
        with pytest.raises(ParseError):
            intset_from_json({"elements": [1.5], "horizon": 5})
        with pytest.raises(ParseError):
            intset_from_json({"elements": [1, True], "horizon": 5})


# Lines of a text file: plain terms, terms padded or split by whitespace and
# by characters that `str.splitlines` breaks at, misspelled and over-long
# terms, comments, blanks and directives, well formed or not.
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
_TERMS = st.integers(0, 10**6).map(str)
_ODD = st.sampled_from(["inf", "-3", "1_0", "+2", "３", "1 2", "5 # five", "5#", "x", "2.5",
                        "1" * (_DIGITS + 1), "\x0c", "5\x0c", "\x1c5", "1\x0c2", "1\x1c2",
                        "007", "-0", "-01", "1e3", "-", "1-2", "true", "[5]", "5\r ", "\r"])
_PADDED = st.tuples(st.sampled_from(["", " ", "\t"]), _TERMS,
                    st.sampled_from(["", " ", "\t", "\r", "\x0c"])).map("".join)
_COMMENTS = st.sampled_from(["# note", "#", "#tailored", "#horizonx 3", "  # indented", "\t#"])
_BLANKS = st.sampled_from(["", " ", "\t"])
_DIRECTIVES = st.sampled_from([
    "#tail unknown", "#tail infinite", "#tail constant 70", "#tail constant 9", "#tail constant",
    "#tail bogus", "#tail constant -1", "#tail constant 1_0", "#tail infinite 3", " #tail unknown",
    "#horizon 10000000", "#horizon 9", "#horizon", "#horizon 1 2", "#horizon +5", "\t#horizon 50",
])
_LINES = st.one_of(_TERMS, _PADDED, _ODD, _COMMENTS, _BLANKS, _DIRECTIVES)


@st.composite
def text_files(draw):
    """A text file: comments, then increasing terms among which up to two
    other lines, then a `#` line or not, then any lines, with `\n`, `\r\n`
    or `\r` endings and a final one or not."""
    before = draw(st.lists(st.one_of(_COMMENTS, _BLANKS), max_size=2))
    steps = draw(st.lists(st.integers(1, 9), max_size=12))
    terms = [str(v) for v in accumulate(steps)]
    for i, line in draw(st.lists(st.tuples(st.integers(0, 12), st.one_of(_PADDED, _ODD, _BLANKS)),
                                 max_size=2)):
        terms.insert(i, line)
    mark = draw(st.lists(st.sampled_from(["# note", "#tail unknown", "#horizon 70"]), max_size=1))
    after = draw(st.lists(_LINES, max_size=8))
    ending = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    lines = before + terms + mark + after
    return ending.join(lines) + (ending if lines and draw(st.booleans()) else "")


def _parsed(parse, text):
    """What the parse gives, as plain data, or the class and message of its error."""
    try:
        v = parse(text)
    except LamoError as e:
        return type(e), str(e)
    return (v.prefix, v.tail) if isinstance(v, NumberSequence) else v


class TestScanRoutes:
    @settings(max_examples=400)
    @given(text_files())
    @example("")
    @example("1\r\n4\r\n# between\r\n9\r\n#tail unknown\r\n")
    @example("1\n2\n# note\n3\n#tail constant 3\n# after\n")
    @example("1\n2\n# note\n1_0\n\n#tail unknown\n")
    @example("1\n2\n5\x0c\n#tail constant -1\n")
    @example("1\n2\n\n#horizon 1\n")
    @example("1\n2\n#tail unknown\n#tail unknown\n")
    @example("1\n2\n#horizon 9\n5\n")
    @example("3\n1\n#horizon 1 2\n")
    @example("1\n2")
    # Where JSON and int() read a line differently, or JSON sees fewer lines.
    @example("007\n8\n#tail constant 9\n")
    @example("-0\n1\n#horizon 2\n")
    @example("1\n-01\n#tail unknown\n")
    @example(" 5\t\n6\n#tail constant 5\n")
    @example("1\n1e3\n")
    @example("1.0\n2\n")
    @example("1 2\n3\n")
    @example("1\n-\n")
    @example("--1\n2\n")
    @example("1-2\n")
    @example("1\x0b2\n3\n")
    @example("true\n")
    @example("1\n" + "7" * 5000 + "\n#tail unknown\n")
    @example("2\r \n1\n")
    @example("2\r\r\n1\n#horizon 1\n")
    @example("\n#tail constant -1\n")
    @example(" \r\n#horizon 1 2\n")
    # Where the file's first `#` sits, and a head that is not ASCII.
    @example("1\n2#\n3\n#tail unknown\n")
    @example("#c\n1\n2\n")
    @example("\n#tail unknown\n")
    @example("1\n٣\n")
    @example("1\n2\n#")
    @example("1\r#tail unknown\r")
    def test_same_as_the_per_line_route(self, text):
        for parse in (parse_sequence_text, parse_intset_text):
            got = _parsed(parse, text)
            with mock.patch.object(lamo.formats, "_scan", scan_parse_text):
                assert got == _parsed(parse, text), (parse.__name__, text)

    @settings(max_examples=300)
    @given(st.one_of(text_files(), st.text("0123456789-x #\t\r\n\x0c\x85\u2028\x1c\x00٣３")))
    @example("#")
    @example("1\n#")
    @example("1#\n2\n#tail unknown\n")
    def test_head_as_the_regex_rule_finds_it(self, text):
        assert lamo.formats._plain_head(text) == regex_plain_head(text)

    @pytest.mark.parametrize("text, per_line", [
        ("1\n2\n3\n#tail constant 5\n# end\n", [[], ["5"]]),
        ("1\n2\n3\n", [[]]),
        ("1\n2\n# note\n3\n#tail constant 5\n", [["3"], ["5"]]),
        ("1\r\n2\r\n#tail constant 5\r\n", [[], ["5"]]),
        ("1\n\n2\n#tail constant 5\n", [["1", "2"], ["5"]]),
        ("1\ninf\n#tail infinite\n", [["1", "inf"]]),
        ("# note\n1\n2\n", [["1", "2"]]),
        ("007\n8\n#tail constant 9\n", [["007", "8"], ["9"]]),
        ("1\r\n2\r\n# note\r\n3\r\n", [["3"]]),
        ("1\r \n2\n", [["1", "2"]]),
    ])
    def test_only_the_rest_goes_line_by_line(self, text, per_line):
        # The data lines before the first `#` line, when JSON reads them as
        # integers, never reach the per-line converter `_ints`.
        seen = []
        real = lamo.formats._ints

        def spy(tokens, *args):
            seen.append(list(tokens))
            return real(tokens, *args)

        with mock.patch.object(lamo.formats, "_ints", spy):
            parse_sequence_text(text)
        assert seen == per_line


class TestMapForms:
    def test_linear_round_trip(self):
        phi = LinearMap(ExactNumber(-1, 1, 5, 2))
        obj = map_to_json(phi)
        assert obj == {"kind": "linear", "lambda": "(-1+1*sqrt(5))/2"}
        back = map_from_json(obj)
        assert isinstance(back, LinearMap) and back.slope == phi.slope

    def test_unicode_minus_accepted(self):
        phi = map_from_json({"kind": "linear", "lambda": "(−1+1*sqrt(5))/2"})
        assert phi.slope == ExactNumber(-1, 1, 5, 2)

    def test_piecewise_round_trip(self):
        phi = PiecewiseMap([Fraction(3, 2), Fraction(5, 3), Fraction(11, 4)], saturation_limit=3)
        obj = map_to_json(phi)
        assert obj["anchors"] == [[1, "3/2"], [2, "5/3"], [3, "11/4"]]
        assert obj["tail"] == {"kind": "saturate", "limit": "3"}
        back = map_from_json(obj)
        assert isinstance(back, PiecewiseMap)
        assert back.values == phi.values and back.limit == phi.limit

    def test_extend_tail_round_trip(self):
        phi = PiecewiseMap([Fraction(1, 2), Fraction(7, 3)])
        back = map_from_json(map_to_json(phi))
        assert isinstance(back, PiecewiseMap) and back.limit is None
        assert back.values == phi.values

    def test_anchor_grid_points_must_be_consecutive(self):
        with pytest.raises(ParseError, match="1..N"):
            map_from_json({"kind": "piecewise", "anchors": [[2, "1/2"]], "tail": {"kind": "extend"}})

    def test_irrational_anchor_rejected(self):
        with pytest.raises(ParseError, match="rational"):
            map_from_json({"kind": "piecewise", "anchors": [[1, "sqrt(2)"]], "tail": {"kind": "extend"}})

    def test_decimal_lambda_rejected(self):
        with pytest.raises(ParseError):
            map_from_json({"kind": "linear", "lambda": "0.618"})

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "spline"},
            {"kind": "linear"},
            {"kind": "piecewise", "anchors": []},
            {"kind": "piecewise", "anchors": [[1, "1/2"]], "tail": {"kind": "loop"}},
            {"kind": "piecewise", "anchors": [[1, "1/2"]], "tail": {"kind": "saturate"}},
            "linear",
        ],
    )
    def test_malformed(self, obj):
        with pytest.raises(ParseError):
            map_from_json(obj)

    @pytest.mark.parametrize(
        "tail", [{"kind": "extend_last_slope"}, {"kind": "saturate_toward", "limit": "3"}]
    )
    def test_alias_tail_kinds_rejected(self, tail):
        # Only the names map_to_json writes are accepted.
        with pytest.raises(ParseError, match="unknown map tail kind"):
            map_from_json({"kind": "piecewise", "anchors": [[1, "1/2"]], "tail": tail})

    def test_parse_map_bad_json(self):
        with pytest.raises(ParseError, match="bad map JSON"):
            parse_map("{")


class TestEventExport:
    def test_jsonl_shape(self):
        log = simulate(LinearMap(ExactNumber(0, 1, 2)), 3)
        lines = events_to_jsonl(log).splitlines()
        assert len(lines) == len(log.events)
        first = json.loads(lines[0])
        assert set(first) == {"t", "kind", "count"}
        assert first["kind"] == "meeting" and first["count"] == 1
        # times re-parse to the exact values
        for line, e in zip(lines, log.events):
            assert ExactNumber.parse(json.loads(line)["t"]) == e.time

    def test_empty_log_renders_empty(self):
        log = simulate(LinearMap(ExactNumber(0, 1, 2)), Fraction(1, 3))
        assert events_to_jsonl(log) == ""


exact_times = st.builds(
    lambda a, b, d, c: ExactNumber(a, b, d, c),
    st.integers(-(10**12), 10**12),
    st.integers(-(10**6), 10**6),
    st.integers(0, 10**6),
    st.integers(1, 10**6),
)
events = st.builds(
    Event,
    exact_times,
    st.sampled_from([MEETING, X_CROSSING, Y_CROSSING, COLLISION]),
    st.integers(0, 10**9),
)


@given(st.lists(events, max_size=20))
def test_jsonl_lines_are_json_dumps(evs):
    log = EventLog(tuple(evs), ExactNumber(1))
    expected = [json.dumps(event_to_json(e.time, e.kind, e.count)) for e in evs]
    assert events_to_jsonl(log) == "".join(line + "\n" for line in expected)


summaries = st.dictionaries(
    st.sampled_from(["collision_at", "agree", "recorded"]),
    st.one_of(st.booleans(), st.text(max_size=5), st.lists(st.integers(), max_size=3)),
    min_size=1,
)


@given(st.lists(events, max_size=20), summaries)
def test_json_object_is_json_dumps(evs, summary):
    log = EventLog(tuple(evs), ExactNumber(1))
    expected = {"events": [event_to_json(e.time, e.kind, e.count) for e in evs], **summary}
    assert events_to_json(log, summary) == json.dumps(expected)


# Terms of every size, ints past 2^64 among them, then a run of inf or none.
_BIG = st.one_of(st.integers(0, 9), st.integers(0, 2**70), st.integers(2**64, 2**200))


@st.composite
def number_sequences(draw):
    ints = sorted(draw(st.lists(_BIG, max_size=40)))
    infs = draw(st.sampled_from([0, 0, 1, 3]))
    kind = draw(st.sampled_from(["unknown", "infinite"] + ["constant"] * (not infs)))
    last = ints[-1] if ints else 0
    value = draw(st.integers(last, last + 2**70)) if kind == "constant" else None
    return NumberSequence(ints + [INF] * infs, Tail(kind, value))


@st.composite
def int_sets(draw):
    elements = sorted(draw(st.sets(st.integers(1, 2**70), max_size=40)))
    last = elements[-1] if elements else 0
    return IntSet(elements, draw(st.integers(last, last + 2**70)))


class TestOnePassWriters:
    """The `%` writers against the per-term writers they replaced."""

    @settings(max_examples=300)
    @given(number_sequences())
    @example(NumberSequence((), Tail.unknown()))
    @example(NumberSequence((), Tail.infinite()))
    @example(NumberSequence((), Tail.constant(0)))
    @example(NumberSequence((INF,), Tail.infinite()))
    @example(NumberSequence((INF, INF, INF), Tail.infinite()))
    @example(NumberSequence((7,), Tail.unknown()))
    @example(NumberSequence((7,), Tail.constant(7)))
    @example(NumberSequence((0, 2**64, INF, INF), Tail.infinite()))
    @example(NumberSequence(range(10**4), Tail.constant(10**4)))
    def test_sequence_writers(self, s):
        assert render_sequence_text(s) == per_term_sequence_text(s)
        assert sequence_to_json(s) == per_term_sequence_json(s)
        assert json.dumps(sequence_to_json(s)) == json.dumps(per_term_sequence_json(s))

    @settings(max_examples=300)
    @given(int_sets())
    @example(IntSet((), 0))
    @example(IntSet((), 5))
    @example(IntSet((1,), 1))
    @example(IntSet((2**64 + 1,), 2**65))
    @example(IntSet(range(1, 10**4 + 1), 10**4))
    def test_set_writers(self, s):
        assert render_intset_text(s) == per_term_intset_text(s)
        assert str(s) == per_term_intset_str(s)
