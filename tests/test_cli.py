import io
import json

import pytest

from lamo.cli import main

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
        assert out == "n,value\n1,0\n2,1\n"

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(SQUARES))
        code, out, _ = run(capsys, "invert", "-", "--limit", "1")
        assert code == 0 and out.splitlines()[1] == "0"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "invert", "/nonexistent/f.txt")
        assert code == 2 and "cannot read" in err


class TestHatUnhat:
    def test_hat_window(self, tmp_path, capsys):
        f = write(tmp_path, "s.txt", HATIN)
        code, out, _ = run(capsys, "hat", f, "100")
        assert code == 0
        assert out == "1\n2\n4\n8\n#horizon 100\n"

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

    def test_csv_lists_both_sets(self, capsys):
        code, out, _ = run(capsys, "beatty", "1", "4", "--format", "csv")
        assert code == 0
        assert out == "set,element\nA,2\nA,4\nB,2\nB,4\n"


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


class TestGlobalFlags:
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

    def test_json_output_reparses_identically(self, tmp_path, capsys):
        f = write(tmp_path, "f.txt", SQUARES)
        code, out, _ = run(capsys, "hat", f, "26", "--format", "json")
        from lamo.formats import intset_from_json
        from lamo.sequences import hat
        from lamo.formats import parse_sequence

        assert code == 0
        assert intset_from_json(json.loads(out)) == hat(parse_sequence(SQUARES), 26)
