import errno
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from decimal import MAX_PREC, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import hurwitz.cli
from hurwitz import closedform, oracle
from hurwitz.cli import BATCH, SIX, _csv_line, _rational, main
from hurwitz.partitions import Partition, branch_points, partitions_of

from dense_reference import ref_table_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextmanager
def digit_limit(maxdigits):
    """Hold the int-to-str digit limit at maxdigits (0 lifts it), where Python has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    setter, old = sys.set_int_max_str_digits, sys.get_int_max_str_digits()
    setter(maxdigits)
    try:
        yield
    finally:
        setter(old)


def assert_payload_is_form(data, form):
    """The printed closed-form payload, read back field by field against the form."""
    assert list(data) == ["kind", "mu", "b_offset", "normalization", "terms"]
    assert data["kind"] == form.kind
    assert data["mu"] == list(form.mu.parts)
    assert data["b_offset"] == branch_points(form.mu, 0)
    assert Fraction(data["normalization"]) == form.normalization
    terms = [(t["k"], t["i"], Fraction(t["coeff"])) for t in data["terms"]]
    assert terms == list(form.terms)


class TestRationalStrings:
    def test_integer_renders_bare(self):
        assert _rational(Fraction(7)) == "7"

    def test_fraction_renders_with_slash(self):
        assert _rational(Fraction(-7, 180)) == "-7/180"

    def test_round_trip(self):
        for text in ("0", "25", "-4", "1/2", "-1663/2160"):
            assert _rational(Fraction(text)) == text

    def test_none_passes_through(self):
        assert _rational(None) is None

    def test_zero_renders_as_zero(self):
        assert _rational(Fraction(0)) == "0"

    def test_negative_whole_value_has_no_denominator(self):
        assert _rational(Fraction(-12, 3)) == "-4"
        assert _rational(Fraction(-10**30)) == "-1" + "0" * 30


class TestClosedFormCommand:
    def test_json_three_three(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "--kind", "monotone", "--mu", "3,3",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["mu"] == [3, 3]
        assert len(data["terms"]) == 7
        assert {"k": 5, "i": 1, "coeff": "125/1728"} in data["terms"]
        assert_payload_is_form(data, closedform.monotone_closed_form(Partition((3, 3))))

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--kind", "simple", "--mu", "5")
        assert code == 0
        assert "normalization: 1/300" in out
        assert "k=10 i=1 coeff=1" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "--kind", "simple", "--mu", "5", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["k,i,coeff", "10,1,1", "5,1,-4"]

    def test_deterministic_output(self, capsys):
        _, first, _ = run(
            capsys, "closed-form", "--kind", "monotone", "--mu", "3,3",
            "--format", "json",
        )
        _, second, _ = run(
            capsys, "closed-form", "--kind", "monotone", "--mu", "3,3",
            "--format", "json",
        )
        assert first == second

    def test_unsorted_mu_canonicalized(self, capsys):
        _, a, _ = run(capsys, "closed-form", "--kind", "simple", "--mu", "1,2,3")
        _, b, _ = run(capsys, "closed-form", "--kind", "simple", "--mu", "3,2,1")
        assert a == b

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "form.json"
        code, out, _ = run(
            capsys, "closed-form", "--kind", "simple", "--mu", "5",
            "--format", "json", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["mu"] == [5]

    def test_unwritable_output_is_an_error_line(self, capsys, tmp_path):
        target = tmp_path / "missing" / "form.txt"
        code, out, err = run(
            capsys, "closed-form", "--kind", "simple", "--mu", "3",
            "--output", str(target),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write ")
        assert "Traceback" not in err

    def test_failed_stdout_write_is_an_error_line(self, capsys, monkeypatch):
        class FullStdout:
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", FullStdout())
        code = main(["eval", "--kind", "simple", "--mu", "4", "--genus", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
        )


class TestEvalCommand:
    def test_monotone_two_large_genus(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--kind", "monotone", "--mu", "2", "--genus", "100"
        )
        assert code == 0
        assert out == "1/2\n"

    def test_simple_five(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--kind", "simple", "--mu", "5", "--genus", "0"
        )
        assert code == 0
        assert out == "25\n"

    def test_value_beyond_int_str_digit_limit(self, capsys):
        # About 7300 digits, past the default int-to-str limit of 4300: eval
        # prints an exact Decimal row, and the str(int) below needs the lift.
        code, out, err = run(
            capsys, "eval", "--kind", "simple", "--mu", "4,4,4", "--genus", "2000"
        )
        assert code == 0, err
        value = closedform.evaluate(
            closedform.simple_closed_form(Partition((4, 4, 4))), 2000
        )
        assert value.denominator == 1
        if hasattr(sys, "get_int_max_str_digits"):
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                expected = f"{value.numerator}\n"
            finally:
                sys.set_int_max_str_digits(limit)
            assert len(expected) > limit > 0  # main restored the limit
        else:
            expected = f"{value.numerator}\n"
        assert out == expected

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--kind", "simple", "--mu", "5", "--genus", "1",
            "--format", "json",
        )
        data = json.loads(out)
        assert data == {"kind": "simple", "mu": [5], "genus": 1, "b": 6, "value": "3125"}

    @pytest.mark.parametrize("kind", ["simple", "monotone"])
    def test_prints_the_evaluated_rational(self, capsys, monkeypatch, closed_forms, kind):
        # eval prints the table's exact Decimal row; it reads as evaluate's Fraction.
        monkeypatch.setattr(closedform, f"{kind}_closed_form", closed_forms[kind])
        for d in range(2, 7):
            for mu in partitions_of(d):
                for g in (0, 1, 9):
                    value = _rational(closedform.evaluate(closed_forms[kind](mu), g))
                    argv = ["eval", "--kind", kind, "--mu", ",".join(map(str, mu.parts))]
                    argv += ["--genus", str(g)]
                    assert run(capsys, *argv) == (0, value + "\n", ""), (mu, g)
                    code, out, _ = run(capsys, *argv, "--format", "json")
                    assert code == 0
                    assert json.loads(out) == {
                        "kind": kind, "mu": list(mu.parts), "genus": g,
                        "b": branch_points(mu, g), "value": value,
                    }

    def test_does_not_call_evaluate(self, capsys, monkeypatch):
        def refuse(form, g):
            raise AssertionError("eval called closedform.evaluate")

        monkeypatch.setattr(closedform, "evaluate", refuse)
        result = run(capsys, "eval", "--kind", "simple", "--mu", "5", "--genus", "1")
        assert result == (0, "3125\n", "")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize(
    "argv", [("eval", "--genus", "2000"), ("table", "--genus-max", "2000", "--format", "csv")]
)
def test_values_print_without_lifting_the_digit_limit(capsys, monkeypatch, argv):
    # (4,4,4) at genus 2000 has about 7300 digits.  With main's lift made a
    # no-op, the 4300-digit default stays in force and any str(int) of such a
    # value raises; eval and table print exact Decimal rows instead.
    request = [argv[0], "--kind", "simple", "--mu", "4,4,4", *argv[1:]]
    expected = run(capsys, *request)
    assert expected[0] == 0, expected[2]
    cells = [cell for line in expected[1].splitlines() for cell in line.split(",")]
    assert max(map(len, cells)) > 4300
    with digit_limit(4300):
        monkeypatch.setattr(sys, "set_int_max_str_digits", lambda maxdigits: None)
        assert run(capsys, *request) == expected


class TestTableCommand:
    def test_text_rows(self, capsys):
        code, out, _ = run(
            capsys, "table", "--kind", "simple", "--mu", "5", "--genus-max", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-3:] == ["0  4  25  25", "1  6  3125  3125", "2  8  328125  328125"]

    def test_single_row(self, capsys):
        code, out, _ = run(
            capsys, "table", "--kind", "monotone", "--mu", "5", "--genus-max", "0",
            "--format", "csv",
        )
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 2  # header + one row
        # vecH_{0;(5)} = (8/45*4^4 - 9/20*3^4 + 14/45*2^4 - 7/180)/5
        value = (
            Fraction(8, 45) * 256 - Fraction(9, 20) * 81
            + Fraction(14, 45) * 16 - Fraction(7, 180)
        ) / 5
        assert rows[1].split(",")[2] == str(value)

    def test_decimal_is_six_significant_digits(self, capsys):
        _, out, _ = run(
            capsys, "table", "--kind", "simple", "--mu", "5", "--genus-max", "4",
            "--format", "csv",
        )
        last = out.splitlines()[-1].split(",")
        # H_{4;(5)} = (10^12 - 4 * 5^12)/300
        assert last[2] == "3330078125"
        assert last[3] == "3.33008E+9"

    @pytest.mark.parametrize(
        "value, shown",
        [
            (Fraction(3330078125), "3.33008E+9"),
            (Fraction(-7, 3), "-2.33333"),
            # monotone genus-0 values 1/(2d)
            (Fraction(1, 4), "0.25"),
            (Fraction(1, 14), "0.0714286"),
            # exact half-even ties
            (Fraction(1234565, 10), "123456"),
            (Fraction(1234575, 10), "123458"),
            (Fraction(7**4000 + 1, 3**2001), None),
        ],
    )
    def test_decimal_string_reads_the_exact_digits(self, value, shown):
        # The table divides an exact Decimal numerator by an int denominator.
        with localcontext() as ctx:
            ctx.prec = 6
            expected = str(Decimal(str(value.numerator)) / Decimal(str(value.denominator)))
        assert str(SIX.divide(Decimal(value.numerator), value.denominator)) == expected
        if shown is not None:
            assert expected == shown


class TestTableAtBenchmarkScale:
    # Rows as long as the benchmark's tables, byte for byte against the
    # string route the CLI took before its sums moved to Decimal.
    def test_monotone_five_three_csv(self, capsys, closed_forms):
        code, out, _ = run(
            capsys, "table", "--kind", "monotone", "--mu", "5,3", "--genus-max", "2000",
            "--format", "csv",
        )
        rows = ref_table_rows(closed_forms["monotone"](Partition((5, 3))), 2000)
        assert code == 0
        # Lists, not strings: pytest's diff of two long strings is quadratic.
        assert out.splitlines() == ["g,b,value,decimal"] + [
            f"{g},{b},{v},{d}" for g, b, v, d in rows
        ]
        assert out.endswith("\n")

    def test_simple_four_four_four_text(self, capsys, closed_forms):
        code, out, _ = run(
            capsys, "table", "--kind", "simple", "--mu", "4,4,4", "--genus-max", "1000"
        )
        rows = ref_table_rows(closed_forms["simple"](Partition((4, 4, 4))), 1000)
        assert code == 0
        assert out.splitlines() == ["kind: simple", "mu: 4,4,4", "g  b  value  decimal"] + [
            f"{g}  {b}  {v}  {d}" for g, b, v, d in rows
        ]
        assert out.endswith("\n")


# The tabulate benchmark's longest document: about 3.4 MB in every format.
LONG_TABLE = ["table", "--kind", "monotone", "--mu", "5,3", "--genus-max", "2000"]


class _Sink:
    """A stdout that records the size of each write and, when asked, its text."""

    def __init__(self, keep=True):
        self.sizes = []
        self.text = [] if keep else None

    def write(self, text):
        self.sizes.append(len(text))
        if self.text is not None:
            self.text.append(text)
        return len(text)

    def flush(self):
        pass


class TestStreamedOutput:
    @pytest.mark.parametrize(
        "cells",
        [
            ["g", "b", "value", "decimal"],
            ["12", "28", "-3457/16", "-216.062"],
            ["simple", "3,2", "7", "1.23457E+1234"],
            ["6", "2,2,1,1", "true", "", "", "false"],
            ["0", "", "", ""],
            ["say \"hi\"", "\"", "\"\"", "a,\"b\""],
            ["line\nbreak", "\n", ",", "a,b\nc\"d"],
            [" lead", "trail ", "tab\there", "semi;colon", "'single'"],
        ],
    )
    def test_csv_line_matches_csv_writer(self, cells):
        import csv
        import io

        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow(cells)
        assert _csv_line(cells) == buffer.getvalue()

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_output_file_holds_the_stdout_bytes(self, monkeypatch, tmp_path, fmt):
        sink = _Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main([*LONG_TABLE, "--format", fmt]) == 0
        out = "".join(sink.text)
        target = tmp_path / f"table.{fmt}"
        assert main([*LONG_TABLE, "--format", fmt, "--output", str(target)]) == 0
        assert target.read_bytes() == out.encode()
        # Written as rendered: no write is longer than one batch and one line.
        longest_line = max(map(len, out.splitlines(keepends=True)))
        assert max(sink.sizes) <= BATCH + longest_line < len(out)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_peak_memory_stays_near_the_output_size(self, monkeypatch, fmt):
        import tracemalloc

        sink = _Sink(keep=False)
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main([*LONG_TABLE, "--format", fmt])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        # The rows hold about one output's worth of text; a whole rendered
        # document beside them read 3.2-3.6 times the output.
        assert peak < 1.5 * sum(sink.sizes)

    def test_write_failing_mid_stream_is_one_error_line(self, capsys, monkeypatch):
        class FillsUp:
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return len(text)

            def flush(self):
                pass

        stdout = FillsUp()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main([*LONG_TABLE, "--format", "csv"])
        assert code == 1
        assert stdout.writes == 2
        assert capsys.readouterr().err == (
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
        )

    def test_reader_closing_the_pipe_is_an_error_line(self):
        # A reader that stops early, as `hurwitz table ... | head` does.
        src = Path(hurwitz.cli.__file__).parents[1]
        with subprocess.Popen(
            [sys.executable, "-m", "hurwitz.cli", *LONG_TABLE, "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
        ) as proc:
            assert proc.stdout.read(18) == b"g,b,value,decimal\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n".encode()


class TestOracleCommand:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--kind", "simple", "--mu", "3", "--genus", "0"
        )
        assert code == 0
        assert "count=6" in out
        assert "hurwitz=1" in out

    def test_guard_exit_one(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--kind", "simple", "--mu", "9", "--genus", "0"
        )
        assert code == 1
        assert "too large" in err
        assert "d = 9 > 8 (use --force)" in err

    def test_force_lifts_the_degree_cap(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--kind", "simple", "--mu", "9", "--genus", "0", "--force"
        )
        assert code == 0
        assert "count=192849310080 hurwitz=531441" in out

    def test_guard_on_b(self, capsys):
        result = run(capsys, "oracle", "--kind", "simple", "--mu", "2", "--genus", "6")
        assert result == (
            1, "", "error: oracle search space too large: b = 13 > 12 (use --force)\n"
        )

    def test_forced_deep_query_counts(self, capsys):
        # b = 501 slots, one forward layer each: no recursion limit applies
        result = run(
            capsys, "oracle", "--kind", "simple", "--mu", "2", "--genus", "250", "--force"
        )
        assert result == (0, "mu=2 kind=simple genus=250 b=501 count=1 hurwitz=1/2\n", "")

    def test_forced_count_past_the_digit_limit(self, capsys):
        # b = 9202: count and value have about 4390 digits each, past the
        # 4300-digit default, so main lifts the limit for the request only.
        with digit_limit(4300):
            result = run(
                capsys, "oracle", "--kind", "simple", "--mu", "3", "--genus", "4600", "--force"
            )
            if hasattr(sys, "get_int_max_str_digits"):
                assert sys.get_int_max_str_digits() == 4300
        value = closedform.evaluate(closedform.simple_closed_form(Partition((3,))), 4600)
        count = value * 6  # d! / |Aut(3)| = 6
        assert count.denominator == value.denominator == 1
        assert count > value > 10**4300
        with digit_limit(0):
            line = f"mu=3 kind=simple genus=4600 b=9202 count={count} hurwitz={value}\n"
        assert result == (0, line, "")

    def test_counts_once_per_request(self, capsys, monkeypatch):
        calls = []
        real = oracle.count_constellations

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "count_constellations", counted)
        code, out, _ = run(
            capsys, "oracle", "--kind", "monotone", "--mu", "3", "--genus", "1"
        )
        assert code == 0
        assert len(calls) == 1
        assert "count=" in out


class TestVerifyCommand:
    def test_matches_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--kind", "simple", "--mu", "3", "--genus-max", "1"
        )
        assert code == 0
        assert "2/2 genera match" in out

    def test_monotone_matches(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--kind", "monotone", "--mu", "2,1", "--genus-max", "1"
        )
        assert code == 0
        assert "2/2 genera match" in out

    def test_injected_fault_exits_two(self, capsys, monkeypatch):
        # corrupt a single coefficient on the closed-form side
        real = closedform.evaluate

        def corrupted(form, g):
            return real(form, g) + 1

        monkeypatch.setattr(closedform, "evaluate", corrupted)
        code, out, _ = run(
            capsys, "verify", "--kind", "simple", "--mu", "3", "--genus-max", "1"
        )
        assert code == 2
        assert "MISMATCH" in out

    def test_force_lifts_the_branch_point_cap(self, capsys):
        # (2) at genus 6 has b = 13
        code, out, _ = run(
            capsys, "verify", "--kind", "simple", "--mu", "2", "--genus-max", "6", "--force"
        )
        assert code == 0
        assert "7/7 genera match" in out

    @pytest.mark.parametrize(
        "kind, mu, genus_max, b",
        [("simple", "2,2,1,1,1,1", "1", 14), ("monotone", "4,4", "3", 14)],
    )
    def test_oracle_guard_fails_before_any_query(
        self, capsys, monkeypatch, kind, mu, genus_max, b
    ):
        # the guard is on the last genus's b; lower genera pass it alone
        calls = []
        monkeypatch.setattr(
            oracle, "count_constellations", lambda *args, **kwargs: calls.append(args) or 0
        )
        code, out, err = run(
            capsys, "verify", "--kind", kind, "--mu", mu, "--genus-max", genus_max
        )
        assert code == 1 and out == ""
        assert f"error: oracle search space too large: b = {b} > 12 (use --force)" in err
        assert calls == []


class TestChecksCommand:
    @pytest.mark.parametrize("d_max, total", [(5, 17), (12, 270)])
    def test_simple_sweep(self, capsys, d_max, total):
        code, out, _ = run(capsys, "checks", "--kind", "simple", "--d-max", str(d_max))
        assert code == 0
        assert out.endswith(f"\n{total}/{total} partitions conform\n")

    def test_monotone_sweep_json(self, capsys):
        code, out, _ = run(
            capsys, "checks", "--kind", "monotone", "--d-max", "4", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["all_pass"] is True
        assert len(data["rows"]) == sum(len(partitions_of(d)) for d in range(2, 5))

    def test_fault_exits_two(self, capsys, monkeypatch):
        real = closedform.structure_checks

        def corrupted(form):
            return real(form)._replace(gap_all_zero=False)

        monkeypatch.setattr(closedform, "structure_checks", corrupted)
        code, _, _ = run(capsys, "checks", "--kind", "simple", "--d-max", "3")
        assert code == 2


class TestAsymptoticsCommand:
    def test_monotone_five_three(self, capsys):
        code, out, _ = run(
            capsys, "asymptotics", "--kind", "monotone", "--mu", "5,3",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        head = data["terms"][0]
        assert head == {"k": 7, "i": 1, "coeff": "16807/2073600", "leading": True}


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_mu(self, capsys):
        assert run(capsys, "eval", "--kind", "simple", "--genus", "0")[0] == 1

    def test_bad_kind(self, capsys):
        assert run(capsys, "eval", "--kind", "orbifold", "--mu", "3", "--genus", "0")[0] == 1

    def test_bad_mu(self, capsys):
        code, _, err = run(capsys, "eval", "--kind", "simple", "--mu", "x", "--genus", "0")
        assert code == 1
        assert "cannot parse partition" in err

    @pytest.mark.parametrize("mu", ["1_0", "+3", "\u0663", "3,-2"])
    def test_mu_takes_ascii_digits_only(self, capsys, mu):
        result = run(capsys, "closed-form", "--kind", "simple", "--mu", mu)
        assert result == (1, "", f"error: cannot parse partition from {mu!r}\n")

    @pytest.mark.parametrize("mu", ["3,,2", " 3 , 2 ", "2,3,", ",3,2"])
    def test_mu_skips_empty_pieces_and_spaces(self, capsys, mu):
        code, out, _ = run(capsys, "closed-form", "--kind", "simple", "--mu", mu)
        assert code == 0
        assert "mu: 3,2\n" in out

    def test_engine_guard(self, capsys):
        code, _, err = run(
            capsys, "closed-form", "--kind", "simple", "--mu", ",".join(["1"] * 13)
        )
        assert code == 1
        assert "engine guard" in err

    @pytest.mark.parametrize("parts", [[1] * 11, [1] * 12, [2] + [1] * 10])
    def test_engine_guard_on_parts(self, capsys, monkeypatch, parts):
        # the guard caps |mu| alone, so up to twelve parts are admitted; the
        # stub keeps the closed form out of the test
        seen = []
        small = closedform.simple_closed_form(Partition((2,)))

        def stub(mu):
            seen.append(mu)
            return small

        monkeypatch.setattr(closedform, "simple_closed_form", stub)
        code, _, err = run(
            capsys, "closed-form", "--kind", "simple", "--mu", ",".join(map(str, parts))
        )
        assert code == 0, err
        assert seen == [Partition(tuple(parts))]

    def test_engine_guard_admits_ten_parts(self, capsys, monkeypatch):
        # (1^10) stays accepted; the stub keeps the closed form out of the test
        seen = []
        small = closedform.simple_closed_form(Partition((2,)))

        def stub(mu):
            seen.append(mu)
            return small

        monkeypatch.setattr(closedform, "simple_closed_form", stub)
        code, _, _ = run(capsys, "closed-form", "--kind", "simple", "--mu", ",".join(["1"] * 10))
        assert code == 0
        assert seen == [Partition((1,) * 10)]

    def test_checks_guard_fails_before_the_sweep(self, capsys, monkeypatch):
        # (13) is in the sweep; the guard must refuse before any profile
        seen = []
        monkeypatch.setattr(closedform, "simple_closed_form", seen.append)
        code, out, err = run(capsys, "checks", "--kind", "simple", "--d-max", "13")
        assert code == 1
        assert out == ""
        assert err == "error: engine guard: |mu| = 13 > 12 (use --force)\n"
        assert seen == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--genus", "1000000"),
            ("eval", "--genus", "71000"),
            ("table", "--genus-max", "2500"),
            ("table", "--genus-max", str(10**12)),
        ],
    )
    def test_genus_guard_refuses_at_once(self, capsys, monkeypatch, argv):
        seen = []
        monkeypatch.setattr(closedform, "simple_closed_form", seen.append)
        code, out, err = run(capsys, argv[0], "--kind", "simple", "--mu", "4,4,4", *argv[1:])
        assert code == 1
        assert out == ""
        assert err == (
            "error: genus guard: sum of b^2 over the genera > 20000000000 (use --force)\n"
        )
        assert seen == []

    @pytest.mark.parametrize(
        "argv", [("eval", "--genus", "70000"), ("table", "--genus-max", "2000")]
    )
    @pytest.mark.parametrize(
        "mu", ["4,4,4", "3,1,1,1,1,1,1,1,1,1", "1,1,1,1,1,1,1,1,1,1,1,1"]
    )
    def test_genus_guard_admits(self, capsys, monkeypatch, argv, mu):
        # b = 2g + |mu| + l - 2 is largest at |mu| = l = 12; the stub
        # keeps the engine out of the test, and (2)'s one pole k = 1 keeps
        # every value small
        small = closedform.simple_closed_form(Partition((2,)))
        monkeypatch.setattr(closedform, "simple_closed_form", lambda _: small)
        code, _, err = run(capsys, argv[0], "--kind", "simple", "--mu", mu, *argv[1:])
        assert code == 0, err

    def test_genus_guard_admits_force(self, capsys, monkeypatch):
        monkeypatch.setattr(
            closedform, "decimal_values", lambda form, g=0: iter([(Decimal(g), 1)])
        )
        code, out, _ = run(
            capsys, "eval", "--kind", "simple", "--mu", "4,4,4", "--genus", "1000000",
            "--force",
        )
        assert code == 0
        assert out == "1000000\n"

    def test_value_past_decimal_precision(self, capsys):
        # b = 2 * 10**21: 3^b has about 10^21 digits, past decimal.MAX_PREC
        result = run(
            capsys, "eval", "--kind", "simple", "--mu", "3", "--genus", str(10**21), "--force"
        )
        assert result == (1, "", f"error: value has more than {MAX_PREC} digits\n")

    def test_engine_self_check_still_raises(self, monkeypatch):
        # only the exact context's Rounded becomes an error line
        monkeypatch.setattr(closedform, "recombine", lambda decomposition: None)
        with pytest.raises(ArithmeticError, match="recombination mismatch"):
            main(["eval", "--kind", "monotone", "--mu", "3", "--genus", "1"])

    def test_negative_genus(self, capsys, monkeypatch):
        # refused before any closed form is built or constellation counted
        seen = []
        monkeypatch.setattr(closedform, "simple_closed_form", seen.append)
        monkeypatch.setattr(oracle, "count_constellations", lambda *a, **k: seen.append(a))
        for command in ("eval", "oracle"):
            result = run(capsys, command, "--kind", "simple", "--mu", "3", "--genus", "-1")
            assert result == (1, "", "error: --genus must be >= 0\n")
        assert seen == []

    @pytest.mark.parametrize(
        "argv, err",
        [
            ("eval --mu x --genus -1", "--genus must be >= 0"),
            ("table --mu x --genus-max 1000000", "cannot parse partition from 'x'"),
            (
                f"eval --mu {','.join(['1'] * 13)} --genus 1000000",
                "genus guard: sum of b^2 over the genera > 20000000000 (use --force)",
            ),
            (
                f"verify --mu {','.join(['1'] * 13)} --genus-max 0",
                "oracle search space too large: d = 13 > 8 (use --force)",
            ),
            ("checks --d-max 1", "--d-max must be >= 2"),
        ],
    )
    def test_refusal_order(self, capsys, argv, err):
        # wrong in two ways: the integer option is checked first, then --mu,
        # then the command's own guard, then the engine guard
        command, *rest = argv.split()
        result = run(capsys, command, "--kind", "simple", *rest)
        assert result == (1, "", f"error: {err}\n")


class TestJsonRoundTripInvariant:
    def test_round_trips_through_emitted_document(self, capsys, closed_forms):
        for d in range(2, 9):
            for mu in partitions_of(d):
                for kind, build in closed_forms.items():
                    mu_arg = ",".join(map(str, mu.parts))
                    code, out, _ = run(
                        capsys, "closed-form", "--kind", kind, "--mu", mu_arg,
                        "--format", "json",
                    )
                    assert code == 0
                    assert_payload_is_form(json.loads(out), build(mu))


# First line of each subcommand's --help at COLUMNS=200.
USAGE = {
    "closed-form": "usage: hurwitz closed-form [-h] --kind {simple,monotone} --mu MU"
    " [--format {text,json,csv}] [--force] [--output OUTPUT]",
    "eval": "usage: hurwitz eval [-h] --kind {simple,monotone} --mu MU"
    " [--format {text,json,csv}] [--force] [--output OUTPUT] --genus GENUS",
    "table": "usage: hurwitz table [-h] --kind {simple,monotone} --mu MU"
    " [--format {text,json,csv}] [--force] [--output OUTPUT] --genus-max GENUS_MAX",
    "oracle": "usage: hurwitz oracle [-h] --kind {simple,monotone} --mu MU"
    " [--format {text,json,csv}] [--force] [--output OUTPUT] --genus GENUS",
    "verify": "usage: hurwitz verify [-h] --kind {simple,monotone} --mu MU"
    " [--format {text,json,csv}] [--force] [--output OUTPUT] --genus-max GENUS_MAX",
    "checks": "usage: hurwitz checks [-h] --kind {simple,monotone}"
    " [--format {text,json,csv}] [--force] [--output OUTPUT] --d-max D_MAX",
    "asymptotics": "usage: hurwitz asymptotics [-h] --kind {simple,monotone} --mu MU"
    " [--format {text,json,csv}] [--force] [--output OUTPUT]",
}


@pytest.mark.parametrize("command", USAGE)
def test_help_usage_line(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert out.splitlines()[0] == USAGE[command]


def _readme_examples():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


def _docstring_examples():
    block = hurwitz.cli.__doc__.split("Usage:\n", 1)[1].split("\n\n", 1)[0]
    return [line.strip() for line in block.splitlines()]


@pytest.mark.parametrize("examples", [_readme_examples, _docstring_examples])
def test_examples_name_every_command_once(examples):
    lines = examples()
    assert all(line.split()[0] == "hurwitz" for line in lines), lines
    assert sorted(line.split()[1] for line in lines) == sorted(USAGE)


@pytest.mark.parametrize("example", _readme_examples())
def test_readme_example_runs(capsys, example):
    code, _, err = run(capsys, *example.split()[1:])
    assert code == 0, err
