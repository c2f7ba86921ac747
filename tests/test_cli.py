import io
import json
import os
import subprocess
import sys

import pytest

from lamo import LinearMap, cli, simulate
from lamo.cli import main
from lamo.errors import LamoError
from lamo.exact import ExactNumber

from oracles import event_to_json

SQUARES = "1\n4\n9\n16\n25\n#tail unknown\n"
BOUNDED = "1\n1\n2\n#tail constant 2\n"
HATIN = "0\n0\n1\n4\n#tail infinite\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestInvert:
    def test_window_and_horizon_note(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", SQUARES)
        code, out, _ = run(capsys, "invert", f, "--limit", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# exact through: 25"
        assert lines[1:11] == ["0", "1", "1", "1", "2", "2", "2", "2", "2", "3"]
        assert lines[11] == "#tail unknown"

    def test_all_zero_prints_inf(self, tmp_path, capsys):
        f = write(tmp_path, "z.txt", "0\n#tail constant 0\n")
        code, out, _ = run(capsys, "invert", f, "--limit", "3")
        assert code == 0
        assert out.splitlines()[1:] == ["inf", "inf", "inf", "#tail infinite"]

    def test_decreasing_input_exits_2(self, tmp_path, capsys):
        f = write(tmp_path, "bad.txt", "2\n1\n#tail unknown\n")
        code, _, err = run(capsys, "invert", f)
        assert code == 2 and "NotNonDecreasing" in err

    @pytest.mark.parametrize("name, text, where", [
        ("bad.txt", "1\n# note\n3\n2\n#tail unknown\n", "line 4: term 3 (2) is below term 2 (3)"),
        ("bad.json", '{"terms": [1, 3, 2], "tail": {"kind": "unknown"}}',
         "term 3 (2) is below term 2 (3)"),
        ("tail.txt", "1\n3\n\n#tail constant 2\n", "line 4: term 2 (3) exceeds the constant tail 2"),
        ("tail.json", '{"terms": [1, 3], "tail": {"kind": "constant", "value": 2}}',
         "term 2 (3) exceeds the constant tail 2"),
    ])
    def test_order_error_names_its_line_or_term(self, tmp_path, capsys, name, text, where):
        f = write(tmp_path, name, text)
        for cmd in (["invert", f], ["hat", f, "1"], ["classify", f], ["construct-phi", f]):
            code, out, err = run(capsys, *cmd)
            assert (code, out, err) == (2, "", f"lamo: NotNonDecreasing: {where}\n")

    def test_order_error_in_a_long_file_is_short(self, tmp_path, capsys):
        terms = list(range(1, 10**5 + 1))
        terms[50000] = 3
        f = write(tmp_path, "long.txt", "\n".join(map(str, terms)) + "\n")
        for cmd in (["invert", f], ["classify", f], ["construct-phi", f]):
            code, _, err = run(capsys, *cmd)
            assert code == 2 and "line 50001" in err and len(err) < 200

    def test_empty_window_exits_3(self, tmp_path, capsys):
        f = write(tmp_path, "zero.txt", "0\n0\n#tail unknown\n")
        code, _, err = run(capsys, "invert", f)
        assert code == 3 and "EmptyWindow" in err

    def test_json_format(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", SQUARES)
        code, out, _ = run(capsys, "invert", f, "--limit", "5", "--format", "json")
        obj = json.loads(out)
        assert code == 0
        assert obj["terms"] == [0, 1, 1, 1, 2]
        assert obj["exact_through"] == 25

    def test_csv_format(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", SQUARES)
        code, out, _ = run(capsys, "invert", f, "--limit", "2", "--format", "csv")
        assert code == 0
        assert out == "key,value\nterms,0\nterms,1\ntail.kind,unknown\nexact_through,25\n"

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(SQUARES))
        code, out, _ = run(capsys, "invert", "-", "--limit", "1")
        assert code == 0 and out.splitlines()[1] == "0"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "invert", "/nonexistent/f.txt")
        assert code == 2 and "cannot read" in err

    def test_non_utf8_input_exits_2(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "bad.txt"
        f.write_bytes(b"\xff\n")
        code, out, err = run(capsys, "classify", str(f))
        assert (code, out) == (2, "")
        assert err.startswith(f"lamo: ParseError: cannot read {f}: 'utf-8' codec can't decode")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
        code, out, err = run(capsys, "classify", "-")
        assert (code, out) == (2, "")
        assert err.startswith("lamo: ParseError: cannot read -: 'utf-8' codec can't decode")

    def test_negative_limit_exits_2(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", SQUARES)
        code, out, err = run(capsys, "invert", f, "--limit", "-1")
        assert code == 2 and out == ""
        assert err == "lamo: NotPositive: --limit must be a non-negative integer, got -1\n"

    def test_limit_is_checked_like_every_bound(self, tmp_path, capsys):
        s = write(tmp_path, "s.txt", "1\n3\n#horizon 4\n")
        code, out, err = run(capsys, "unhat", s, "--limit", "-2")
        assert code == 2 and out == ""
        assert err == "lamo: NotPositive: --limit must be a non-negative integer, got -2\n"
        code, out, _ = run(capsys, "unhat", s, "--limit", "0")
        assert code == 0 and out == "#tail unknown\n"

    def test_json_unknown_tail_with_a_value_exits_2(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", '{"terms":[1,2],"tail":{"kind":"unknown","value":3}}')
        code, out, err = run(capsys, "invert", f)
        assert code == 2 and out == ""
        assert err == "lamo: ParseError: unknown tail carries no value, got 3\n"

    def test_negative_constant_tail_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n#tail constant -3\n"))
        code, _, err = run(capsys, "invert", "-")
        assert code == 2 and "ParseError: line 3" in err


# `lamo invert --limit L` of one file per tail kind, for L = 0, a window
# inside g's prefix, one ending with it and one past it: the exact-through
# note (g's whole horizon, whatever the window), the terms and the tail.
INVERT_WINDOWS = [
    ("1\n4\n9\n#tail unknown\n", 0, 9, [], "unknown"),
    ("1\n4\n9\n#tail unknown\n", 4, 9, [0, 1, 1, 1], "unknown"),
    ("1\n4\n9\n#tail unknown\n", 9, 9, [0, 1, 1, 1, 2, 2, 2, 2, 2], "unknown"),
    ("1\n4\n9\n#tail unknown\n", 12, 9, [0, 1, 1, 1, 2, 2, 2, 2, 2], "unknown"),
    (BOUNDED, 0, "unbounded", [], "unknown"),
    (BOUNDED, 1, "unbounded", [0], "unknown"),
    (BOUNDED, 2, "unbounded", [0, 2], "infinite"),
    (BOUNDED, 5, "unbounded", [0, 2, "inf", "inf", "inf"], "infinite"),
    (HATIN, 0, "unbounded", [], "unknown"),
    (HATIN, 2, "unbounded", [2, 3], "unknown"),
    (HATIN, 4, "unbounded", [2, 3, 3, 3], "constant 4"),
    (HATIN, 7, "unbounded", [2, 3, 3, 3, 4, 4, 4], "constant 4"),
]


class TestInvertWindows:
    @pytest.mark.parametrize("text, limit, through, terms, tail", INVERT_WINDOWS)
    def test_output_in_each_format(self, tmp_path, capsys, text, limit, through, terms, tail):
        f = write(tmp_path, "f.txt", text)
        kind, _, value = tail.partition(" ")
        listed = ", ".join(str(t) if t != "inf" else '"inf"' for t in terms)
        json_tail = f'{{"kind": "{kind}", "value": {value}}}' if value else f'{{"kind": "{kind}"}}'
        json_through = f'"{through}"' if through == "unbounded" else through
        expected = {
            "text": f"# exact through: {through}\n"
                    + "".join(f"{t}\n" for t in terms) + f"#tail {tail}\n",
            "json": f'{{"terms": [{listed}], "tail": {json_tail}, '
                    f'"exact_through": {json_through}}}\n',
            "csv": "key,value\n" + ("".join(f"terms,{t}\n" for t in terms) or "terms\n")
                   + f"tail.kind,{kind}\n" + (f"tail.value,{value}\n" if value else "")
                   + f"exact_through,{through}\n",
        }
        for fmt, want in expected.items():
            got = run(capsys, "invert", f, "--limit", str(limit), "--format", fmt)
            assert got == (0, want, "")

    def test_crlf_and_comments_read_as_the_plain_file(self, tmp_path, capsys):
        plain = write(tmp_path, "plain.txt", "1\n4\n9\n#tail unknown\n")
        crlf = write(tmp_path, "crlf.txt",
                     "# f\r\n1\r\n 4\t\r\n# between\r\n9\r\n#tail unknown\r\n")
        for fmt in ("text", "json", "csv"):
            want = run(capsys, "invert", plain, "--limit", "6", "--format", fmt)
            assert run(capsys, "invert", crlf, "--limit", "6", "--format", fmt) == want


class TestHatUnhat:
    def test_hat_window(self, tmp_path, capsys):
        f = write(tmp_path, "s.txt", HATIN)
        code, out, _ = run(capsys, "hat", f, "100")
        assert code == 0
        assert out == "1\n2\n4\n8\n#horizon 100\n"

    def test_hat_rejects_limit(self, tmp_path, capsys):
        f = write(tmp_path, "s.txt", HATIN)
        with pytest.raises(SystemExit) as exc:
            main(["hat", f, "10", "--limit", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --limit 3" in capsys.readouterr().err

    def test_hat_beyond_horizon_exits_3(self, tmp_path, capsys):
        f = write(tmp_path, "w.txt", "1\n2\n#tail unknown\n")
        code, _, err = run(capsys, "hat", f, "5")
        assert code == 3 and "HorizonExceeded" in err

    def test_round_trip_is_byte_identical(self, tmp_path, capsys):
        f = write(tmp_path, "s.txt", HATIN)
        code, hat_out, _ = run(capsys, "hat", f, "100")
        assert code == 0
        setfile = write(tmp_path, "set.txt", hat_out)
        code, seq_out, _ = run(capsys, "unhat", setfile, "--complete")
        assert code == 0
        assert seq_out == HATIN

    def test_windowed_round_trip(self, tmp_path, capsys):
        original = "1\n2\n3\n4\n5\n#tail unknown\n"
        f = write(tmp_path, "s.txt", original)
        _, hat_out, _ = run(capsys, "hat", f, "10")
        setfile = write(tmp_path, "set.txt", hat_out)
        code, seq_out, _ = run(capsys, "unhat", setfile)
        assert code == 0 and seq_out == original

    def test_unhat_complete_extends_with_inf(self, tmp_path, capsys):
        setfile = write(tmp_path, "set.json", '{"elements":[1,2,4,8],"horizon":8}')
        code, out, _ = run(capsys, "unhat", setfile, "--complete", "--limit", "6")
        assert code == 0
        assert out == "0\n0\n1\n4\ninf\ninf\n#tail infinite\n"

    def test_unhat_unsorted_exits_2(self, tmp_path, capsys):
        setfile = write(tmp_path, "set.txt", "2\n1\n")
        code, _, err = run(capsys, "unhat", setfile)
        assert code == 2 and "NotSorted" in err

    @pytest.mark.parametrize("text, err", [
        ("1\n5\n3\n#horizon 9\n",
         "NotSorted: line 3: set elements must be strictly increasing: 3 after 5"),
        ("1\n-5\n", "NotPositive: line 2: set element must be a positive integer: -5"),
        ("# first\n0\n", "NotPositive: line 2: set element must be a positive integer: 0"),
        ('{"elements": [1, 5, 3], "horizon": 9}',
         "NotSorted: element 3: set elements must be strictly increasing: 3 after 5"),
        ('{"elements": [1, -5], "horizon": 9}',
         "NotPositive: element 2: set element must be a positive integer: -5"),
    ])
    def test_unhat_rejected_element_names_its_line(self, capsys, monkeypatch, text, err):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(capsys, "unhat", "-") == (2, "", f"lamo: {err}\n")

    def test_unhat_negative_horizon_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n#horizon -1\n"))
        code, out, err = run(capsys, "unhat", "-")
        assert code == 2 and out == ""
        assert err == "lamo: NotPositive: horizon must be a non-negative integer, got -1\n"

    def test_unhat_element_beyond_own_horizon_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n5\n#horizon 3\n"))
        code, _, err = run(capsys, "unhat", "-")
        assert code == 2
        assert err == "lamo: ParseError: line 3: element 5 lies beyond the horizon 3\n"

    def test_unhat_element_after_horizon_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n#horizon 9\n5\n"))
        code, out, err = run(capsys, "unhat", "-")
        assert code == 2 and out == ""
        assert err == "lamo: ParseError: line 4: '5' after the #horizon directive\n"

    def test_unhat_second_horizon_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n#horizon 5\n#horizon 9\n"))
        code, out, err = run(capsys, "unhat", "-")
        assert code == 2 and out == ""
        assert err == "lamo: ParseError: line 4: duplicate #horizon directive\n"

    def test_unhat_json_element_beyond_own_horizon_exits_2(self, tmp_path, capsys):
        setfile = write(tmp_path, "set.json", '{"elements":[1,2,5,7],"horizon":3}')
        code, _, err = run(capsys, "unhat", setfile)
        assert code == 2
        assert err == "lamo: ParseError: element 5 lies beyond the horizon 3\n"


class TestCheck:
    def test_passing_pair(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", "\n".join(str(n) for n in range(1, 21)) + "\n#tail unknown\n")
        g = write(tmp_path, "g.txt", "\n".join(str(n) for n in range(0, 20)) + "\n#tail unknown\n")
        code, out, _ = run(capsys, "check", f, g, "10", "10", "20")
        assert code == 0
        assert "mutual-inverse 10x10: pass" in out
        assert "partition" in out

    def test_failing_pair_reports_witness(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", "1\n2\n3\n#tail unknown\n")
        code, out, _ = run(capsys, "check", f, f, "3", "3", "6")
        assert code == 1
        assert "fail at m=1 n=1 (neither)" in out

    def test_non_monotone_g_past_its_horizon_exits_2(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", "1\n2\n3\n#tail unknown\n")
        g = write(tmp_path, "g.txt", "2\n1\n#tail unknown\n")
        code, _, err = run(capsys, "check", f, g, "3", "3", "4")
        assert code == 2 and "NotNonDecreasing" in err

    def test_order_error_in_f_comes_first(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", "1\n3\n2\n")
        g = write(tmp_path, "g.txt", "2\n1\n")
        code, _, err = run(capsys, "check", f, g, "1", "1", "1")
        assert (code, err) == (2, "lamo: NotNonDecreasing: line 3: term 3 (2) is below term 2 (3)\n")

    def test_mismatched_horizon_exits_3(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", "1\n2\n3\n#tail unknown\n")
        code, _, err = run(capsys, "check", f, f, "4", "4", "3")
        assert code == 3 and "HorizonExceeded" in err

    def test_json_payload(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", "1\n2\n3\n#tail unknown\n")
        code, out, _ = run(capsys, "check", f, f, "3", "3", "6", "--format", "json")
        obj = json.loads(out)
        assert code == 1
        assert obj["ok"] is False
        assert obj["grid"]["witness"] == {"m": 1, "n": 1, "kind": "neither"}

    def test_stdin_named_twice_exits_2_unread(self, capsys, monkeypatch):
        stdin = io.StringIO("1\n")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "check", "-", "-", "1", "1", "2")
        assert (code, out) == (2, "") and err.startswith("lamo: ParseError: ")
        assert len(err.splitlines()) == 1 and stdin.tell() == 0


class TestBeatty:
    def test_golden_partition(self, capsys):
        code, out, _ = run(capsys, "beatty", "(-1+1*sqrt(5))/2", "16")
        assert code == 0
        assert "A: {1, 3, 4, 6, 8, 9, 11, 12, 14, 16} horizon 16" in out
        assert "partition" in out and "holds" in out

    def test_rational_failure_case(self, capsys):
        code, out, _ = run(capsys, "beatty", "2/3", "12")
        assert code == 0
        assert "overlap(5)" in out and "violation(3)" in out

    def test_negative_slope_exits_2(self, capsys):
        code, _, err = run(capsys, "beatty", "--", "-1", "5")
        assert code == 2 and "NonPositiveSlope" in err

    def test_unparsable_slope_exits_2(self, capsys):
        code, _, err = run(capsys, "beatty", "0.75", "5")
        assert code == 2 and "ParseError" in err

    def test_whitespace_inside_a_number_exits_2(self, capsys):
        code, out, err = run(capsys, "beatty", "1 2", "5")
        assert code == 2 and out == "" and "ParseError" in err

    def test_csv_lists_both_sets(self, capsys):
        code, out, _ = run(capsys, "beatty", "1", "4", "--format", "csv")
        assert code == 0
        assert out == (
            "key,value\nA.elements,2\nA.elements,4\nA.horizon,4\nB.elements,2\nB.elements,4\n"
            "B.horizon,4\nverdict,overlap\nwitness,2\navoidance.holds,false\n"
            "avoidance.violation,1\navoidance.checked_through,4\n"
        )


class TestConstructPhi:
    def test_bounded_sequence_map_json(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", BOUNDED)
        code, out, _ = run(capsys, "construct-phi", f, "--format", "json")
        obj = json.loads(out)
        assert code == 0
        assert obj["anchors"] == [[1, "3/2"], [2, "5/3"], [3, "11/4"]]
        assert obj["tail"] == {"kind": "saturate", "limit": "3"}

    def test_infinite_values_exit_2(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", "0\ninf\n#tail infinite\n")
        code, _, err = run(capsys, "construct-phi", f)
        assert code == 2 and "InfiniteValue" in err


class TestSimulate:
    def test_agreement(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", BOUNDED)
        _, map_json, _ = run(capsys, "construct-phi", f, "--format", "json")
        mapfile = write(tmp_path, "map.json", map_json)
        code, out, _ = run(capsys, "simulate", mapfile, "3")
        assert code == 0
        assert "agree: yes" in out
        assert '"kind": "meeting"' in out

    def test_inline_map_and_json_format(self, capsys):
        code, out, _ = run(
            capsys, "simulate", '{"kind":"linear","lambda":"sqrt(2)"}', "10", "--format", "json"
        )
        obj = json.loads(out)
        assert code == 0 and obj["agree"] is True
        assert obj["recorded"]["S_X"]["elements"][:3] == [1, 3, 5]

    @pytest.mark.parametrize("slope, T, code, events", [
        ("sqrt(2)", "10", 0, 48), ("3/2", "6", 4, 24), ("sqrt(2)", "1/3", 0, 0),
    ])
    def test_json_is_json_dumps_of_the_log(self, capsys, slope, T, code, events):
        phi = f'{{"kind":"linear","lambda":"{slope}"}}'
        got, out, _ = run(capsys, "simulate", phi, T, "--format", "json")
        log = simulate(LinearMap(ExactNumber.parse(slope)), ExactNumber.parse(T))
        summary = json.loads(out)
        del summary["events"]
        assert (got, len(log.events)) == (code, events)
        assert ("collision_at" in summary) == (code == 4)
        expected = {"events": [event_to_json(e.time, e.kind, e.count) for e in log.events], **summary}
        assert out == json.dumps(expected) + "\n"

    def test_collision_exits_4(self, capsys):
        code, out, _ = run(capsys, "simulate", '{"kind":"linear","lambda":"1"}', "2")
        assert code == 4
        assert "collision at t=1" in out

    def test_decimal_horizon_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", '{"kind":"linear","lambda":"1"}', "1.5")
        assert code == 2 and "ParseError" in err

    def test_alias_tail_kind_exits_2(self, capsys):
        phi = '{"kind":"piecewise","anchors":[[1,"1/2"]],"tail":{"kind":"extend_last_slope"}}'
        code, _, err = run(capsys, "simulate", phi, "3")
        assert code == 2 and "ParseError" in err

    @pytest.mark.parametrize("t", ["true", "1.0"])
    def test_anchor_grid_point_must_be_an_int(self, capsys, t):
        phi = f'{{"kind":"piecewise","anchors":[[{t},"1/3"]],"tail":{{"kind":"saturate","limit":"1"}}}}'
        code, out, err = run(capsys, "simulate", phi, "2")
        assert (code, out) == (2, "")
        assert err.startswith("lamo: ParseError: anchor 1: grid points must run 1..N")


class TestClassify:
    def test_classes(self, tmp_path, capsys):
        for text, expected in [
            (BOUNDED, "bounded"),
            (HATIN, "eventually_infinite"),
            ("1\n2\n#tail unknown\n", "all_finite_unbounded_window"),
        ]:
            f = write(tmp_path, "c.txt", text)
            code, out, _ = run(capsys, "classify", f)
            assert code == 0 and out.strip() == expected

    def test_misspelled_integer_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1_0\n+2_0\n#tail constant 2_5\n"))
        code, out, err = run(capsys, "classify", "-")
        assert (code, out) == (2, "")
        assert err == "lamo: ParseError: line 1: expected an integer or 'inf', got '1_0'\n"


class TestGlobalFlags:
    @pytest.mark.parametrize("argv, bad", [
        (["hat", "{f}", "1_0"], "1_0"),
        (["invert", "{f}", "--limit", "２"], "２"),
        (["beatty", "sqrt(2)", "+1_0"], "+1_0"),
        (["check", "{f}", "{f}", "2", "+2", "3"], "+2"),
    ])
    def test_integer_arguments_have_one_spelling(self, tmp_path, capsys, argv, bad):
        f = write(tmp_path, "z.txt", "0\n0\n2\n#tail constant 3\n")
        with pytest.raises(SystemExit) as exc:
            main([a.format(f=f) for a in argv])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"invalid integer value: {bad!r}" in out.err

    @pytest.mark.parametrize("argv, stdin", [
        (["beatty", "{n}", "3"], ""),
        (["beatty", "sqrt({n})/2", "3"], ""),
        (["simulate", '{{"kind":"linear","lambda":"sqrt(2)"}}', "{n}/2"], ""),
        (["simulate", '{{"kind":"linear","lambda":"{n}/3"}}', "2"], ""),
        (["simulate", '{{"kind":"piecewise","anchors":[[1,"1/{n}"]]}}', "2"], ""),
        (["classify", "-"], '{{"terms": [{n}]}}'),
    ], ids=["slope", "radicand", "horizon", "map_slope", "map_anchor", "json_term"])
    def test_integer_past_the_digit_limit_exits_2(self, capsys, monkeypatch, argv, stdin):
        # int() and json.loads refuse a decimal string longer than this.
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not digits:
            pytest.skip("this interpreter has no limit on integer string length")
        n = "1" * (digits + 1)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin.format(n=n)))
        code, out, err = run(capsys, *(a.format(n=n) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("lamo: ParseError: ")

    @pytest.mark.parametrize("argv, what", [
        (["classify", "{deep}"], "JSON"),
        (["simulate", '{{"kind": {nested}}}', "3"], "map JSON"),
    ], ids=["sequence_file", "inline_map"])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, argv, what):
        nested = "[" * 100_000 + "]" * 100_000
        deep = write(tmp_path, "deep.json", '{"terms": ' + nested + "}")
        code, out, err = run(capsys, *(a.format(deep=deep, nested=nested) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith(f"lamo: ParseError: bad {what}: maximum recursion depth exceeded")

    @pytest.mark.parametrize("files, argv", [
        ({"big.txt": "1\n99999999999999999999\n"}, ["invert", "big.txt"]),
        ({"c.txt": BOUNDED}, ["invert", "c.txt", "--limit", "99999999999999999999"]),
        ({"s.txt": "2\n3\n#horizon 4\n"},
         ["unhat", "s.txt", "--complete", "--limit", "99999999999999999999"]),
        ({"c.txt": BOUNDED}, ["hat", "c.txt", "99999999999999999999"]),
    ], ids=["invert_term", "invert_limit", "unhat_limit", "hat_K"])
    def test_size_past_the_index_range_exits_2(self, tmp_path, capsys, files, argv):
        for name, text in files.items():
            write(tmp_path, name, text)
        code, out, err = run(capsys, *(str(tmp_path / a) if a in files else a for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("lamo: OverflowError: ") and err.count("\n") == 1

    def test_env_format_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LAMO_FORMAT", "json")
        f = write(tmp_path, "f.txt", BOUNDED)
        code, out, _ = run(capsys, "classify", f)
        assert code == 0 and json.loads(out) == {"class": "bounded"}

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LAMO_FORMAT", "json")
        f = write(tmp_path, "f.txt", BOUNDED)
        code, out, _ = run(capsys, "classify", f, "--format", "text")
        assert code == 0 and out == "bounded\n"

    def test_bad_env_format_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LAMO_FORMAT", "yaml")
        f = write(tmp_path, "f.txt", BOUNDED)
        code, _, err = run(capsys, "classify", f)
        assert code == 2 and "unknown output format" in err

    def test_output_file(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", HATIN)
        dest = tmp_path / "out.txt"
        code, out, _ = run(capsys, "hat", f, "100", "--output", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text() == "1\n2\n4\n8\n#horizon 100\n"

    def test_output_to_a_directory_exits_2(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", HATIN)
        code, out, err = run(capsys, "hat", f, "100", "--output", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith(f"lamo: cannot write {tmp_path}: ")

    def test_json_output_reparses_identically(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", SQUARES)
        code, out, _ = run(capsys, "hat", f, "26", "--format", "json")
        from lamo.formats import intset_from_json
        from lamo.sequences import hat
        from lamo.formats import parse_sequence

        assert code == 0
        assert intset_from_json(json.loads(out)) == hat(parse_sequence(SQUARES), 26)


GOLDEN_INPUTS = {
    "squares": SQUARES,
    "bounded": BOUNDED,
    "hatin": HATIN,
    "short": "1\n2\n3\n#tail unknown\n",
    "hatset": "1\n2\n4\n8\n#horizon 8\n",
}

# Exact stdout and exit code of every subcommand in every format; a name
# from GOLDEN_INPUTS stands for a file holding that text.
GOLDEN = [
    pytest.param(['invert', 'squares', '--limit', '4'], 'text', 0,
                 '# exact through: 25\n0\n1\n1\n1\n#tail unknown\n', id='invert-text'),
    pytest.param(['invert', 'squares', '--limit', '4'], 'json', 0,
                 '{"terms": [0, 1, 1, 1], "tail": {"kind": "unknown"}, "exact_through": 25}\n',
                 id='invert-json'),
    pytest.param(['invert', 'squares', '--limit', '4'], 'csv', 0, (
        'key,value\nterms,0\nterms,1\nterms,1\nterms,1\ntail.kind,unknown\n'
        'exact_through,25\n'
    ), id='invert-csv'),
    pytest.param(['hat', 'hatin', '10'], 'text', 0,
                 '1\n2\n4\n8\n#horizon 10\n', id='hat-text'),
    pytest.param(['hat', 'hatin', '10'], 'json', 0,
                 '{"elements": [1, 2, 4, 8], "horizon": 10}\n', id='hat-json'),
    pytest.param(['hat', 'hatin', '10'], 'csv', 0,
                 'key,value\nelements,1\nelements,2\nelements,4\nelements,8\nhorizon,10\n',
                 id='hat-csv'),
    pytest.param(['unhat', 'hatset', '--complete', '--limit', '6'], 'text', 0,
                 '0\n0\n1\n4\ninf\ninf\n#tail infinite\n', id='unhat-text'),
    pytest.param(['unhat', 'hatset', '--complete', '--limit', '6'], 'json', 0, (
        '{"terms": [0, 0, 1, 4, "inf", "inf"], "tail": {"kind": "infinite"}, '
        '"exact_through": "unbounded"}\n'
    ), id='unhat-json'),
    pytest.param(['unhat', 'hatset', '--complete', '--limit', '6'], 'csv', 0, (
        'key,value\nterms,0\nterms,0\nterms,1\nterms,4\nterms,inf\nterms,inf\n'
        'tail.kind,infinite\nexact_through,unbounded\n'
    ), id='unhat-csv'),
    pytest.param(['check', 'short', 'short', '3', '3', '6'], 'text', 1, (
        'mutual-inverse 3x3: fail at m=1 n=1 (neither)\n'
        'complementary [1,6]: overlap(2)\n'
    ), id='check-text'),
    pytest.param(['check', 'short', 'short', '3', '3', '6'], 'json', 1, (
        '{"grid": {"window": [3, 3], "ok": false, "witness": {"m": 1, "n": 1, '
        '"kind": "neither"}}, "complementary": {"window": 6, "verdict": "overlap", '
        '"witness": 2}, "ok": false}\n'
    ), id='check-json'),
    pytest.param(['check', 'short', 'short', '3', '3', '6'], 'csv', 1, (
        'key,value\ngrid.window,3\ngrid.window,3\ngrid.ok,false\ngrid.witness.m,1\n'
        'grid.witness.n,1\ngrid.witness.kind,neither\ncomplementary.window,6\n'
        'complementary.verdict,overlap\ncomplementary.witness,2\nok,false\n'
    ), id='check-csv'),
    pytest.param(['beatty', '2/3', '6'], 'text', 0, (
        'A: {1, 3, 5, 6} horizon 6\nB: {2, 5} horizon 6\n'
        'complementary [1,6]: overlap(5)\nlattice avoidance n<=6: violation(3)\n'
    ), id='beatty-text'),
    pytest.param(['beatty', '2/3', '6'], 'json', 0, (
        '{"A": {"elements": [1, 3, 5, 6], "horizon": 6}, "B": {"elements": [2, 5], '
        '"horizon": 6}, "verdict": "overlap", "witness": 5, '
        '"avoidance": {"holds": false, "violation": 3, "checked_through": 6}}\n'
    ), id='beatty-json'),
    pytest.param(['beatty', '2/3', '6'], 'csv', 0, (
        'key,value\nA.elements,1\nA.elements,3\nA.elements,5\nA.elements,6\nA.horizon,6\n'
        'B.elements,2\nB.elements,5\nB.horizon,6\nverdict,overlap\nwitness,5\n'
        'avoidance.holds,false\navoidance.violation,3\navoidance.checked_through,6\n'
    ), id='beatty-csv'),
    pytest.param(['construct-phi', 'bounded'], 'text', 0, (
        '{\n  "kind": "piecewise",\n  "anchors": [\n    [\n      1,\n      "3/2"\n'
        '    ],\n    [\n      2,\n      "5/3"\n    ],\n    [\n      3,\n'
        '      "11/4"\n    ]\n  ],\n  "tail": {\n    "kind": "saturate",\n'
        '    "limit": "3"\n  }\n}\n'
    ), id='construct-phi-text'),
    pytest.param(['construct-phi', 'bounded'], 'json', 0, (
        '{"kind": "piecewise", "anchors": [[1, "3/2"], [2, "5/3"], [3, "11/4"]], '
        '"tail": {"kind": "saturate", "limit": "3"}}\n'
    ), id='construct-phi-json'),
    pytest.param(['construct-phi', 'bounded'], 'csv', 0, (
        'key,value\nkind,piecewise\nanchors,1,3/2\nanchors,2,5/3\nanchors,3,11/4\n'
        'tail.kind,saturate\ntail.limit,3\n'
    ), id='construct-phi-csv'),
    pytest.param(['simulate', '{"kind":"linear","lambda":"sqrt(2)"}', '1'], 'text', 0, (
        '{"t": "(-1+1*sqrt(2))", "kind": "meeting", "count": 1}\n'
        '{"t": "sqrt(2)/2", "kind": "x_crosses_origin", "count": 1}\n'
        '{"t": "(-2+2*sqrt(2))", "kind": "meeting", "count": 2}\n'
        '{"t": "1", "kind": "y_crosses_origin", "count": 2}\n'
        'recorded S_X: {1} horizon 2\nrecorded S_Y: {2} horizon 2\n'
        'algebraic S_X: {1} horizon 2\nalgebraic S_Y: {2} horizon 2\nagree: yes\n'
    ), id='simulate-text'),
    pytest.param(['simulate', '{"kind":"linear","lambda":"sqrt(2)"}', '1'], 'json', 0, (
        '{"events": [{"t": "(-1+1*sqrt(2))", "kind": "meeting", "count": 1}, '
        '{"t": "sqrt(2)/2", "kind": "x_crosses_origin", "count": 1}, '
        '{"t": "(-2+2*sqrt(2))", "kind": "meeting", "count": 2}, {"t": "1", '
        '"kind": "y_crosses_origin", "count": 2}], '
        '"recorded": {"S_X": {"elements": [1], "horizon": 2}, "S_Y": {"elements": [2], '
        '"horizon": 2}}, "algebraic": {"S_X": {"elements": [1], "horizon": 2}, '
        '"S_Y": {"elements": [2], "horizon": 2}}, "agree": true}\n'
    ), id='simulate-json'),
    pytest.param(['simulate', '{"kind":"linear","lambda":"sqrt(2)"}', '1'], 'csv', 0, (
        'key,value\nevents,(-1+1*sqrt(2)),meeting,1\nevents,sqrt(2)/2,x_crosses_origin,1\n'
        'events,(-2+2*sqrt(2)),meeting,2\nevents,1,y_crosses_origin,2\n'
        'recorded.S_X.elements,1\nrecorded.S_X.horizon,2\nrecorded.S_Y.elements,2\n'
        'recorded.S_Y.horizon,2\nalgebraic.S_X.elements,1\nalgebraic.S_X.horizon,2\n'
        'algebraic.S_Y.elements,2\nalgebraic.S_Y.horizon,2\nagree,true\n'
    ), id='simulate-csv'),
    pytest.param(['simulate', '{"kind":"linear","lambda":"1"}', '2'], 'text', 4, (
        '{"t": "1/2", "kind": "meeting", "count": 1}\n'
        '{"t": "1", "kind": "collision", "count": 2}\n'
        '{"t": "3/2", "kind": "meeting", "count": 3}\n'
        '{"t": "2", "kind": "collision", "count": 4}\ncollision at t=1\n'
    ), id='simulate-collision-text'),
    pytest.param(['simulate', '{"kind":"linear","lambda":"1"}', '2'], 'json', 4, (
        '{"events": [{"t": "1/2", "kind": "meeting", "count": 1}, {"t": "1", '
        '"kind": "collision", "count": 2}, {"t": "3/2", "kind": "meeting", '
        '"count": 3}, {"t": "2", "kind": "collision", "count": 4}], '
        '"collision_at": "1"}\n'
    ), id='simulate-collision-json'),
    pytest.param(['simulate', '{"kind":"linear","lambda":"1"}', '2'], 'csv', 4, (
        'key,value\nevents,1/2,meeting,1\nevents,1,collision,2\nevents,3/2,meeting,3\n'
        'events,2,collision,4\ncollision_at,1\n'
    ), id='simulate-collision-csv'),
    pytest.param(['classify', 'bounded'], 'text', 0,
                 'bounded\n', id='classify-text'),
    pytest.param(['classify', 'bounded'], 'json', 0,
                 '{"class": "bounded"}\n', id='classify-json'),
    pytest.param(['classify', 'bounded'], 'csv', 0,
                 'key,value\nclass,bounded\n', id='classify-csv'),
]


@pytest.mark.parametrize("argv, fmt, code, expected", GOLDEN)
def test_golden_output(tmp_path, capsys, argv, fmt, code, expected):
    argv = [write(tmp_path, a, GOLDEN_INPUTS[a]) if a in GOLDEN_INPUTS else a for a in argv]
    assert run(capsys, *argv, "--format", fmt)[:2] == (code, expected)


def _json_rows(value, path):
    """The rows a JSON value's leaves must have in the CSV form, in order."""
    spell = lambda v: v if isinstance(v, str) else json.dumps(v)
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _json_rows(v, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        if not value:
            yield [path]
        for item in value:
            if isinstance(item, dict):
                item = list(item.values())
            yield [path, *map(spell, item if isinstance(item, list) else [item])]
    else:
        yield [path, spell(value)]


@pytest.mark.parametrize("argv, code", [
    pytest.param(argv, code, id=p.id.removesuffix("-json"))
    for p in GOLDEN for argv, fmt, code, _ in [p.values] if fmt == "json"
])
def test_csv_carries_what_json_carries(tmp_path, capsys, argv, code):
    import csv

    argv = [write(tmp_path, a, GOLDEN_INPUTS[a]) if a in GOLDEN_INPUTS else a for a in argv]
    json_code, out, _ = run(capsys, *argv, "--format", "json")
    csv_code, table, _ = run(capsys, *argv, "--format", "csv")
    assert json_code == csv_code == code
    rows = list(csv.reader(io.StringIO(table)))
    assert rows == [["key", "value"], *_json_rows(json.loads(out), "")]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("error", [LamoError, *_subclasses(LamoError)], ids=lambda c: c.__name__)
def test_error_table(tmp_path, capsys, monkeypatch, error):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_classify", fail)
    code, out, err = run(capsys, "classify", write(tmp_path, "f.txt", BOUNDED))
    expected = {"HorizonExceeded": 3, "EmptyWindow": 3, "CollisionPresent": 4}
    assert code == expected.get(error.__name__, 2)
    assert out == "" and err == f"lamo: {error.__name__}: boom\n"


@pytest.mark.parametrize("step", ["_cmd_invert", "_render"])
def test_memory_error_exits_2_in_one_line(tmp_path, capsys, monkeypatch, step):
    def fail(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, step, fail)
    code, out, err = run(capsys, "invert", write(tmp_path, "f.txt", BOUNDED), "--limit", "10")
    assert (code, out) == (2, "")
    assert err == "lamo: MemoryError: the answer does not fit in memory\n"


def test_import_loads_only_what_every_invocation_uses():
    # -S keeps site's .pth files from importing any of these first.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import lamo.cli, sys; "
             "print(*[m for m in ('dataclasses', 'inspect', 'csv', 'pathlib', 'fractions', 'decimal', "
             "'numbers') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "\n"


def test_fractions_imported_after_lamo_still_coerce_and_hash():
    # lamo loads no `fractions`, so it must find the class once the caller has loaded it.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import lamo.cli, sys; from lamo.exact import ExactNumber; "
             "assert 'fractions' not in sys.modules; from fractions import Fraction; "
             "x = ExactNumber(3, 0, 0, 2); "
             "assert ExactNumber.coerce(Fraction(3, 2)) == x and x == Fraction(3, 2); "
             "assert hash(x) == hash(Fraction(3, 2)); print('ok')")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "ok\n"
