import pytest

from ybe import brace as br
from ybe import files
from ybe import solution as sol
from ybe.errors import AxiomError, ParseError


class TestParseSolution:
    def test_trivial(self):
        s = files.parse_solution("2\n0 1\n0 1\n")
        assert s.sigma == sol.trivial(2).sigma

    def test_swap(self):
        s = files.parse_solution("2\n1 0\n1 0\n")
        assert s.sigma == ((1, 0), (1, 0))

    def test_axiom_failure_carries_report(self):
        with pytest.raises(AxiomError) as exc:
            files.parse_solution("2\n0 1\n1 0\n")
        report = exc.value.report
        assert report is not None
        assert report.failures.get("braid_sigma_condition") == (0, 1)

    def test_comments_and_blank_lines(self):
        text = "# a comment\n2\n\n0 1  # trailing\n0 1\n"
        s = files.parse_solution(text)
        assert s.m == 2

    def test_wrong_row_count(self):
        with pytest.raises(ParseError) as exc:
            files.parse_solution("3\n0 1 2\n0 1 2\n")
        assert str(exc.value) == "expected 3 permutation rows, got 2"

    def test_wrong_row_width(self):
        with pytest.raises(ParseError) as exc:
            files.parse_solution("2\n0 1 1\n0 1\n")
        assert str(exc.value) == "line 2: sigma[0]: expected 2 entries, got 3"

    def test_out_of_range_entry(self):
        with pytest.raises(ParseError) as exc:
            files.parse_solution("2\n0 2\n0 1\n")
        assert str(exc.value) == "line 2: sigma[0]: entry 2 out of range [0, 2)"

    def test_non_bijective_row(self):
        with pytest.raises(ParseError) as exc:
            files.parse_solution("2\n0 0\n0 1\n")
        assert str(exc.value) == "line 2: sigma[0] is not a bijection"

    def test_garbage(self):
        with pytest.raises(ParseError):
            files.parse_solution("hello world\n")

    def test_error_reports_line_number(self):
        with pytest.raises(ParseError) as exc:
            files.parse_solution("2\n0 1\nx y\n")
        assert str(exc.value).startswith("line 3: ")


@pytest.mark.parametrize(
    ("parse", "what"),
    [(files.parse_sigma_table, "size"), (files.parse_brace, "order")],
)
@pytest.mark.parametrize(
    ("text", "message", "kind", "line"),
    [
        ("# only a comment\n\n", "empty file", "count", None),
        ("2 2\n", "line 1: expected a single {what} on the first line", "syntax", 1),
        ("x\n", "line 1: {what}: not an integer: 'x'", "syntax", 1),
        ("\n# c\n -3 # z\n", "line 3: {what} must be at least 1, got -3", "range", 3),
    ],
)
def test_header_errors(parse, what, text, message, kind, line):
    # ``kind`` labels the case (a count, syntax or range error); the
    # line, when known, is the message's "line N: " prefix
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message.format(what=what)
    assert str(exc.value).startswith(f"line {line}: ") == (line is not None)



@pytest.mark.parametrize(
    ("text", "message"),
    [
        # an underscore, a plus sign and full-width digits all pass int()
        ("0_2\n0 1\n1 0\n", "line 1: size: not an integer: '0_2'"),
        ("+0\n", "line 1: size: not an integer: '+0'"),
        ("2\n\uff11 \uff10\n1 0\n", "line 2: sigma[0]: not an integer: '\uff11'"),
    ],
)
def test_integers_are_ascii_digits(text, message):
    with pytest.raises(ParseError) as exc:
        files.parse_solution(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    ("text", "message"),
    [
        # str.split and str.splitlines also split at these
        ("2\n1\u30000\n1 0\n", "line 2: sigma[0]: expected 2 entries, got 1"),
        ("2\n0 1\x0c1 0\nx y\n", "line 2: sigma[0]: expected 2 entries, got 3"),
        ("2\n1 0\u20281 0\n1 0\n", "line 2: sigma[0]: expected 2 entries, got 3"),
        ("2\n1 0\x1c1 0\n1 0\n", "line 2: sigma[0]: expected 2 entries, got 3"),
        ("2\n1 0\x0c\n1 0\n", "line 2: sigma[0]: not an integer: '0\\x0c'"),
    ],
)
def test_blanks_are_ascii_spaces_and_tabs(text, message):
    with pytest.raises(ParseError) as exc:
        files.parse_solution(text)
    assert str(exc.value) == message


def test_crlf_and_tabs_accepted():
    for text in ("2\r\n1 0\r\n1 0\r\n", "# c\r\n 2\t\r\n1\t 0 # x\r\n\r\n\t1  0"):
        assert files.parse_solution(text).sigma == ((1, 0), (1, 0))
    with pytest.raises(ParseError) as exc:
        files.parse_solution("2\r\n0 1\r\nx y\r\n")
    assert str(exc.value) == "line 3: sigma[1]: not an integer: 'x'"


class TestEmitSolution:
    def test_trivial_canonical(self):
        assert files.emit_solution(sol.trivial(2)) == "2\n0 1\n0 1\n"

    def test_header_comment(self):
        text = files.emit_solution(sol.trivial(2), header="power m=2 n=1 encoding=lex-msb-first")
        assert text.startswith("# power m=2")
        assert files.parse_solution(text).sigma == sol.trivial(2).sigma

    def test_round_trip_all_m3(self):
        for s in sol.enumerate_solutions(3):
            assert files.parse_solution(files.emit_solution(s)).sigma == s.sigma


class TestBraceFiles:
    def test_z2_round_trip(self):
        b = br.trivial_brace([[0, 1], [1, 0]])
        again = files.parse_brace(files.emit_brace(b))
        assert again.add == b.add and again.mul == b.mul

    def test_z4_round_trip(self, brace_z4):
        again = files.parse_brace(files.emit_brace(brace_z4))
        assert again.add == brace_z4.add and again.mul == brace_z4.mul

    def test_malformed_width(self):
        with pytest.raises(ParseError) as exc:
            files.parse_brace("2\n0 1\n1 0\n\n0 1 1\n1 0\n")
        assert str(exc.value) == "line 5: mul[0]: expected 2 entries, got 3"

    def test_wrong_table_count(self):
        with pytest.raises(ParseError) as exc:
            files.parse_brace("2\n0 1\n1 0\n")
        assert str(exc.value) == "expected 4 table rows (add then mul), got 2"

    def test_invalid_axioms_rejected(self):
        text = "2\n0 1\n1 0\n\n0 1\n1 1\n"
        with pytest.raises(AxiomError):
            files.parse_brace(text)

    def test_round_trip_all_found(self):
        for k in (2, 3, 4):
            for b in br.find_braces(k):
                again = files.parse_brace(files.emit_brace(b))
                assert (again.add, again.mul) == (b.add, b.mul)
