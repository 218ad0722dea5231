"""Serialization: session CSV, treatment config, report JSON, and SVG."""

import hashlib
import json
import math
import struct
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, strategies as st

from maxentgames import (
    AnalysisReport,
    DuplicateId,
    LatticeDistribution,
    ParseError,
    RangeError,
    SchemaError,
    SessionRecord,
    analyze_session,
    binomial_prediction,
    canonical_json,
    chi_square_quantile,
    fit_prediction,
    get_treatment,
    mean_observation,
    mixed_policy,
    parse_policy,
    parse_treatment_config,
    read_session_csv,
    read_treatment_config,
    render_lattice_svg,
    run_ensemble,
    run_session,
    session_digest,
    session_from_csv,
    session_to_csv,
    student_t_quantile,
    summarize_ensemble,
    tally,
    write_lattice_svg,
    write_session_csv,
)
from maxentgames.cli import main
from maxentgames.sessionio import (_checked_rows, _plain_count_rows,
                                   format_float, to_obj)

from oracles import (fit_and_digest, flat, reference_canonical_json,
                     reference_format_float)


# a bad byte is reported on the line str.splitlines puts it on
LINE_ENDINGS = pytest.mark.parametrize(
    "ending", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])

CSV_TOKENS = st.sampled_from(["0", "1", "2", "3", "4", "5", "04", "10", "-1",
                              " 1", "+2", "x", ""])


def count_calls(monkeypatch, function):
    """Route every binding of a package function through a wrapper that
    records each call's arguments; returns the list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, tuple(sorted(kwargs.items()))))
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "maxentgames" or name.startswith("maxentgames."):
            for key, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, key, counted)
    return calls


def report_json(report):
    """A report's or summary's JSON text, as `analyze --json` writes it."""
    return canonical_json(to_obj(report))


def assert_json_holds(value, obj):
    """`obj`, a report's JSON read back by the stdlib parser, holds every
    field of the dataclass `value` with its type: nested dataclasses field
    by field, a per-cell vector under its "i,j" keys."""
    if is_dataclass(value):
        assert set(obj) == {f.name for f in fields(value)}
        for f in fields(value):
            assert_json_holds(getattr(value, f.name), obj[f.name])
    elif isinstance(value, list):
        n = math.isqrt(len(value)) - 1
        assert len(obj) == len(value) == (n + 1) ** 2
        for i in range(n + 1):
            for j in range(n + 1):
                assert_json_holds(value[i * (n + 1) + j], obj[f"{i},{j}"])
    else:
        assert type(obj) is type(value) and obj == value


def tiny_record():
    return SessionRecord(treatment_id=3, seed=17, n=4,
                         rounds=((1, 2), (0, 4), (1, 2)),
                         policy_id="iid_mixed(p=0.25,q=0.75)")


session_strategy = st.builds(
    SessionRecord,
    treatment_id=st.integers(min_value=0, max_value=99),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    n=st.just(4),
    rounds=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=40).map(tuple),
    policy_id=st.just("iid_mixed(p=0.5,q=0.5)"),
)


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


# every double by its bit pattern, plus the edges of %.17g: signed zeros,
# subnormals, non-finite values and whole numbers around 1e16 and 1e17
FLOATS = st.one_of(
    st.floats(),
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     math.inf, -math.inf, math.nan, -math.nan, 1e16, 1e17,
                     9007199254740993.0, 99999999999999984.0]),
    st.integers(-10 ** 18, 10 ** 18).map(float))
JSON_STRINGS = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=0x9f)),  # C0 and C1 controls
    st.sampled_from(["é", "\u2028", "\ud800", "\"\\", "日本"]),
    st.text().map(_Str))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers().map(_Int),
              FLOATS, FLOATS.map(_Float), JSON_STRINGS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_STRINGS, children, max_size=4)),
    max_leaves=24)


class TestFloatFormatting:
    def test_plain_floats_keep_a_decimal_point(self):
        assert format_float(1.0) == "1.0"
        assert format_float(-3.0) == "-3.0"

    def test_seventeen_digits_round_trip(self):
        for value in [0.1, 1 / 3, math.pi, 0.007067591348217456]:
            assert float(format_float(value)) == value

    def test_non_finite(self):
        assert format_float(math.inf) == "Infinity"
        assert format_float(-math.inf) == "-Infinity"
        assert format_float(math.nan) == "NaN"

    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_property(self, value):
        assert float(format_float(value)) == value

    @given(value=FLOATS)
    def test_matches_the_oracle(self, value):
        assert format_float(value) == reference_format_float(value)


class TestCanonicalJson:
    def test_sorted_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_float_formatting_inline(self):
        assert canonical_json({"x": 2.0}) == '{"x":2.0}'
        assert canonical_json([math.inf, -math.inf]) == "[Infinity,-Infinity]"

    def test_scalars(self):
        assert canonical_json(None) == "null"
        assert canonical_json(True) == "true"
        assert canonical_json(7) == "7"
        assert canonical_json("text") == '"text"'

    def test_nested_stability(self):
        obj = {"z": [1.5, {"k": False}], "a": None}
        assert canonical_json(obj) == canonical_json(json.loads(
            canonical_json(obj)))

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            canonical_json({1: "x"})

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical_json({"x": {1, 2}})

    @given(obj=JSON_VALUES)
    def test_matches_the_oracle(self, obj):
        assert canonical_json(obj) == reference_canonical_json(obj)

    @pytest.mark.parametrize("obj", [
        {1: "x"}, {"a": 1, "b": {2.5: None}}, {(1, 2): []}, {"a": 1, 2: 3},
        {"x": {1, 2}}, [b"bytes"], {"b": 1j, "a": [0, frozenset()]},
        (None, object())])
    def test_errors_match_the_oracle(self, obj):
        with pytest.raises(TypeError) as expected:
            reference_canonical_json(obj)
        with pytest.raises(TypeError) as got:
            canonical_json(obj)
        assert str(got.value) == str(expected.value)


def per_agent_csv(record):
    """The record in the per-agent schema: each round's action-1 players
    first on each side."""
    n = record.n
    lines = [f"# n={n}", f"# treatment={record.treatment_id}",
             f"# seed={record.seed}", f"# policy={record.policy_id}",
             ",".join(["round"] + [f"x{k}" for k in range(1, n + 1)]
                      + [f"y{k}" for k in range(1, n + 1)])]
    for r, (i, j) in enumerate(record.rounds, start=1):
        bits = [1] * i + [0] * (n - i) + [1] * j + [0] * (n - j)
        lines.append(",".join(map(str, [r, *bits])))
    return "\n".join(lines) + "\n"


# a canonical CSV as written, and edits of it that still parse to the
# same rounds but are not the canonical CSV of what they parse to
CSV_VARIANTS = {
    "canonical": lambda text: text,
    # the mark is dropped before parsing, so what is parsed is canonical
    "byte_order_mark": lambda text: "\ufeff" + text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "padded_seed": lambda text: text.replace("# seed=5\n", "# seed=005\n"),
    "extra_metadata": lambda text: "# note=x\n" + text,
    "reordered_metadata": lambda text: text.replace(
        "# treatment=1\n# seed=5\n", "# seed=5\n# treatment=1\n"),
    "no_policy_line": lambda text: "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith("# policy=")),
    "comment": lambda text: text.replace("\n3,", "\n# note\n3,"),
    "blank_line": lambda text: text.replace("\n3,", "\n\n3,"),
    "no_final_newline": lambda text: text[:-1],
    "per_agent": lambda text: per_agent_csv(session_from_csv(text)),
}


class TestSessionCsv:
    def test_golden_bytes(self):
        expected = (
            "# n=4\n"
            "# treatment=3\n"
            "# seed=17\n"
            "# policy=iid_mixed(p=0.25,q=0.75)\n"
            "round,x1_count,y1_count\n"
            "1,1,2\n"
            "2,0,4\n"
            "3,1,2\n"
        )
        assert session_to_csv(tiny_record()) == expected

    def test_round_trip_identity(self):
        record = tiny_record()
        assert session_from_csv(session_to_csv(record)) == record

    @given(record=session_strategy)
    def test_round_trip_property(self, record):
        assert session_from_csv(session_to_csv(record)) == record

    def test_file_round_trip(self, tmp_path):
        record = run_session(get_treatment(1), rounds=200, seed=5)
        path = tmp_path / "session.csv"
        write_session_csv(record, path)
        back = read_session_csv(path)
        assert back == record
        assert back.distribution().total == 200

    def test_missing_population_metadata(self):
        text = "round,x1_count,y1_count\n1,0,0\n"
        with pytest.raises(SchemaError):
            session_from_csv(text)

    def test_count_beyond_population(self):
        text = "# n=4\nround,x1_count,y1_count\n1,5,0\n"
        with pytest.raises(RangeError, match="line 3"):
            session_from_csv(text)

    def test_round_gap_rejected(self):
        text = "# n=4\nround,x1_count,y1_count\n1,0,0\n3,0,0\n"
        with pytest.raises(ParseError, match="round 3"):
            session_from_csv(text)

    def test_duplicate_round_rejected(self):
        text = "# n=4\nround,x1_count,y1_count\n1,0,0\n1,0,0\n"
        with pytest.raises(ParseError):
            session_from_csv(text)

    def test_no_data_rows(self):
        text = "# n=4\nround,x1_count,y1_count\n"
        with pytest.raises(SchemaError):
            session_from_csv(text)

    def test_wrong_column_count(self):
        text = "# n=4\nround,x1_count,y1_count\n1,0\n"
        with pytest.raises(SchemaError, match="3 columns"):
            session_from_csv(text)

    def test_non_integer_count(self):
        text = "# n=4\nround,x1_count,y1_count\n1,a,0\n"
        with pytest.raises(ParseError):
            session_from_csv(text)

    def test_metadata_defaults(self):
        text = "# n=4\nround,x1_count,y1_count\n1,2,2\n"
        record = session_from_csv(text)
        assert record.treatment_id == 0
        assert record.seed == 0
        assert parse_policy(record.policy_id) == mixed_policy(0.5, 0.5)

    def test_invalid_policy_metadata(self):
        text = ("# n=4\n# policy=nonsense()\n"
                "round,x1_count,y1_count\n1,0,0\n")
        with pytest.raises(ParseError, match="line 2"):
            session_from_csv(text)

    @pytest.mark.parametrize("key", ["treatment", "seed"])
    def test_bad_metadata_names_its_line(self, key):
        text = f"# n=4\n# {key}=abc\nround,x1_count,y1_count\n1,0,0\n"
        with pytest.raises(ParseError, match="line 2"):
            session_from_csv(text)

    @pytest.mark.parametrize("value", ["x", "0", "517"])
    def test_bad_population_names_its_line(self, value):
        text = f"# n={value}\n# seed=1\nround,x1_count,y1_count\n1,0,0\n"
        with pytest.raises(ParseError, match="line 1"):
            session_from_csv(text)

    def test_blank_lines_and_comments_skipped(self):
        text = ("# n=4\n\nround,x1_count,y1_count\n"
                "1,1,1\n# interim note\n\n2,2,2\n")
        record = session_from_csv(text)
        assert record.rounds == ((1, 1), (2, 2))

    def test_extended_schema_collapses_to_counts(self):
        # per-agent action bits: 4 X columns then 4 Y columns
        text = ("# n=4\n"
                "round,x1,x2,x3,x4,y1,y2,y3,y4\n"
                "1,1,0,0,1,0,1,1,1\n"
                "2,0,0,0,0,1,1,1,1\n")
        record = session_from_csv(text)
        assert record.rounds == ((2, 3), (0, 4))

    def test_extended_schema_rejects_non_bits(self):
        text = ("# n=4\n"
                "round,x1,x2,x3,x4,y1,y2,y3,y4\n"
                "1,2,0,0,0,0,0,0,0\n")
        with pytest.raises(RangeError, match="0 or 1"):
            session_from_csv(text)

    def test_written_rows_are_read_in_bulk(self):
        record = run_session(get_treatment(1), rounds=200, seed=5)
        body = session_to_csv(record).splitlines()[5:]
        assert _plain_count_rows(body, 4) == list(record.rounds)

    @given(data=st.data())
    def test_bulk_rows_agree_with_line_by_line(self, data):
        # written rows, some counts one past n, then maybe one line changed
        # by hand: what the bulk reader accepts, the line-by-line reader
        # must accept with the same rounds
        n = data.draw(st.integers(min_value=1, max_value=5))
        cells = data.draw(st.lists(
            st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)),
            min_size=1, max_size=8))
        body = [f"{r},{i},{j}" for r, (i, j) in enumerate(cells, start=1)]
        edit = data.draw(st.sampled_from(["none", "field", "line"]))
        index = data.draw(st.integers(0, len(body) - 1))
        if edit == "field":
            fields = body[index].split(",")
            fields[data.draw(st.integers(0, 2))] = data.draw(CSV_TOKENS)
            body[index] = ",".join(fields)
        elif edit == "line":
            body[index] = data.draw(st.sampled_from(
                ["", "# note", "1,2", "1,2,3,4", " " + body[index]]))
        plain = _plain_count_rows(body, n)
        lines = [f"# n={n}", "round,x1_count,y1_count", *body]
        if plain is not None:
            assert plain == _checked_rows(lines, 2, n, False)
        elif edit == "none" and max(max(c) for c in cells) <= n:
            pytest.fail("a written body was not read in bulk")

    @pytest.mark.parametrize("body", [
        ["2,0,0"], ["1,0,0", "3,0,0"], ["1,0,0", "1,0,0"], ["1,5,0"],
        ["1,0,5"], ["1,0"], ["1,0,0,0"], ["1,0", "0,2,0,0"]])
    def test_bulk_reader_declines_what_the_line_reader_rejects(self, body):
        lines = ["# n=4", "round,x1_count,y1_count", *body]
        with pytest.raises(ParseError):
            _checked_rows(lines, 2, 4, False)
        assert _plain_count_rows(body, 4) is None

    def test_reading_checks_the_policy_label_once(self, tmp_path,
                                                  monkeypatch):
        record = run_session(get_treatment(1), rounds=50, seed=5)
        path = tmp_path / "session.csv"
        write_session_csv(record, path)
        calls = count_calls(monkeypatch, parse_policy)
        back = read_session_csv(path)
        assert len(calls) == 1
        assert back == record and hash(back) == hash(record)

    def test_a_record_is_tallied_once(self, tmp_path, monkeypatch):
        record = run_session(get_treatment(1), rounds=50, seed=5)
        assert record.distribution() is record.distribution()
        path = tmp_path / "session.csv"
        write_session_csv(record, path)
        calls = count_calls(monkeypatch, tally)
        back = read_session_csv(path)
        assert back.distribution() is back.distribution()
        assert back.distribution() == record.distribution()
        assert len(calls) == 1

    @LINE_ENDINGS
    def test_non_utf8_byte_names_its_file_and_line(self, tmp_path, ending):
        path = tmp_path / "session.csv"
        write_session_csv(run_session(get_treatment(1), rounds=5, seed=5),
                          path)
        data = path.read_bytes().replace(b"\n", ending)
        row = data.index(ending + b"2,") + len(ending)  # line 7
        path.write_bytes(data[:row + 2] + b"\xff" + data[row + 3:])
        with pytest.raises(ParseError) as info:
            read_session_csv(path)
        assert type(info.value) is ParseError
        assert str(info.value) == f"{path}: line 7: not UTF-8 text"

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        record = run_session(get_treatment(1), rounds=200, seed=5)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_session_csv(record, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        plain_back, back = read_session_csv(plain), read_session_csv(marked)
        assert back == plain_back == record
        plain_report = analyze_session(plain_back, *fit_and_digest(plain_back))
        report = analyze_session(back, *fit_and_digest(back))
        assert report_json(report) == report_json(plain_report)
        assert report.input_digest == session_digest(record)
        assert main(["analyze", str(marked)]) == 0

    @pytest.mark.parametrize("variant", list(CSV_VARIANTS))
    def test_digest_of_what_was_read_is_the_canonical_digest(
            self, tmp_path, monkeypatch, variant):
        record = run_session(get_treatment(1), rounds=50, seed=5)
        path = tmp_path / "session.csv"
        text = CSV_VARIANTS[variant](session_to_csv(record))
        assert (text == session_to_csv(record)) == (variant == "canonical")
        path.write_bytes(text.encode("utf-8"))
        back = read_session_csv(path)
        assert back.rounds == record.rounds
        serialized = count_calls(monkeypatch, session_to_csv)
        digest = session_digest(back)
        canonical = variant in ("canonical", "byte_order_mark")
        assert len(serialized) == (0 if canonical else 1)
        assert digest == hashlib.sha256(
            session_to_csv(back).encode("utf-8")).hexdigest()
        if canonical:  # the kept digest is not part of the record's value
            assert back == record and hash(back) == hash(record)
            assert digest == write_session_csv(back, tmp_path / "again.csv")

    def test_digest_is_stable_and_input_sensitive(self):
        a = session_digest(tiny_record())
        assert a == session_digest(tiny_record())
        assert len(a) == 64
        other = SessionRecord(treatment_id=3, seed=18, n=4,
                              rounds=tiny_record().rounds,
                              policy_id=tiny_record().policy_id)
        assert session_digest(other) != a


class TestTreatmentConfig:
    def test_read_from_path(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("5 7 2 0 9 4 5 8 1 12 200\n", encoding="utf-8")
        (treatment,) = read_treatment_config(path)
        assert treatment.id == 5
        assert treatment.payoffs.a11 == 7 and treatment.payoffs.b22 == 1
        assert treatment.groups == 12 and treatment.rounds_per_group == 200

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = ("1 10 8 0 18 9 9 10 8 12 200\n"
                "2 9 4 0 13 6 7 8 5 12 200\n")
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert (read_treatment_config(marked)
                == read_treatment_config(plain)
                == parse_treatment_config(text))

    @LINE_ENDINGS
    def test_non_utf8_byte_names_its_file_and_line(self, tmp_path, ending):
        # the byte-order mark does not shift the line count
        path = tmp_path / "config.txt"
        path.write_bytes(b"\xef\xbb\xbf1 10 8 0 18 9 9 10 8 12 200" + ending
                         + b"\xff 9 4 0 13 6 7 8 5 12 200" + ending)
        with pytest.raises(ParseError) as info:
            read_treatment_config(path)
        assert type(info.value) is ParseError
        assert str(info.value) == f"{path}: line 2: not UTF-8 text"

    def test_comments_and_blank_lines(self):
        text = "# catalog slice\n\n1 10 8 0 18 9 9 10 8 12 200  # game 1\n"
        (treatment,) = parse_treatment_config(text)
        assert treatment.id == 1

    def test_wrong_column_count(self):
        with pytest.raises(SchemaError, match="11 columns"):
            parse_treatment_config("1 2 3 4 5 6 7\n")

    def test_non_numeric_cell(self):
        with pytest.raises(ParseError):
            parse_treatment_config("1 x 8 0 18 9 9 10 8 12 200\n")

    def test_non_finite_payoff_names_its_line(self):
        text = ("1 10 8 0 18 9 9 10 8 12 200\n"
                "2 inf 8 0 18 9 9 10 8 12 200\n")
        with pytest.raises(RangeError, match="line 2: payoff a11 must be "
                                             "finite"):
            parse_treatment_config(text)

    def test_duplicate_id(self):
        text = ("1 10 8 0 18 9 9 10 8 12 200\n"
                "1 9 4 0 13 6 7 8 5 12 200\n")
        with pytest.raises(DuplicateId):
            parse_treatment_config(text)

    def test_nonpositive_layout(self):
        with pytest.raises(RangeError, match="line 1"):
            parse_treatment_config("1 10 8 0 18 9 9 10 8 0 200\n")

    def test_empty_config(self):
        with pytest.raises(SchemaError):
            parse_treatment_config("# nothing here\n")


class TestAnalyzeSession:
    def test_report_fields(self):
        record = run_session(get_treatment(1), rounds=200, seed=9)
        report = analyze_session(record, *fit_and_digest(record),
                                 source="mem://session", group_id=4)
        assert report.treatment_id == 1
        assert report.group_id == 4
        assert report.source == "mem://session"
        assert report.version == "0.1.0"
        assert report.input_digest == session_digest(record)
        assert 0.0 <= report.mean_p <= 1.0
        assert report.entropy.s_e <= report.entropy.s_t + 1e-12
        assert report.chi_square.freedoms == 22
        assert report.deviation.d_te == pytest.approx(
            1.0 - report.entropy.s_e / report.entropy.s_t, abs=1e-14)

    def test_ect_sample_size_override(self):
        record = run_session(get_treatment(1), rounds=50, seed=9)
        report = analyze_session(record, *fit_and_digest(record),
                                 ect_sample_size=2400)
        assert report.entropy.sample_size == 2400

    def test_degenerate_boundary_session(self):
        # every round at the same corner: prediction collapses to a point
        # mass with zero entropy; no deviation to score, and no crash
        record = SessionRecord(treatment_id=0, seed=0, n=4,
                               rounds=((0, 0),) * 10,
                               policy_id="iid_mixed(p=0.0,q=0.0)")
        report = analyze_session(record, *fit_and_digest(record))
        assert report.entropy.s_t == 0.0
        assert report.deviation.d_te == 0.0
        assert report.deviation.z == 0.0
        assert report.deviation.per_cell == [0.0] * 25
        assert not report.chi_square.impossible

    def test_json_round_trip_lossless(self):
        record = run_session(get_treatment(2), rounds=150, seed=3)
        report = analyze_session(record, *fit_and_digest(record),
                                 source="a.csv", group_id=2)
        assert_json_holds(report, json.loads(report_json(report)))

    def test_json_round_trip_large_lattice(self):
        # sorted "i,j" keys are not row-major once n >= 10
        record = run_session(get_treatment(2), rounds=150, seed=3, n=10)
        report = analyze_session(record, *fit_and_digest(record))
        assert len(report.deviation.per_cell) == 121
        assert_json_holds(report, json.loads(report_json(report)))

    def test_json_bytes_deterministic(self):
        record = run_session(get_treatment(2), rounds=80, seed=3)
        a = report_json(analyze_session(record, *fit_and_digest(record)))
        b = report_json(analyze_session(record, *fit_and_digest(record)))
        assert a == b


class TestEnsembleSummary:
    def test_round_trip(self):
        records = run_ensemble(get_treatment(1), groups=6, rounds=100,
                               base_seed=21)
        reports = [analyze_session(r, *fit_and_digest(r), group_id=g + 1)
                   for g, r in enumerate(records)]
        summary = summarize_ensemble(reports)
        assert summary.sessions == 6
        assert 0 <= summary.chi_exceed_count <= 6
        assert_json_holds(summary, json.loads(report_json(summary)))

    def test_aggregates_match_inputs(self):
        records = run_ensemble(get_treatment(1), groups=4, rounds=100,
                               base_seed=2)
        reports = [analyze_session(r, *fit_and_digest(r))
                   for r in records]
        summary = summarize_ensemble(reports)
        d_values = [r.deviation.d_te for r in reports]
        assert summary.d_te.mean == pytest.approx(
            math.fsum(d_values) / 4, abs=1e-15)
        assert summary.d_te_test.freedoms == 3
        assert summary.d_te.confidence == 0.99
        # the t tests keep their own, narrower interval level
        assert summary.d_te_test.confidence == 0.95


class TestLatticeSvg:
    def fitted(self):
        record = run_session(get_treatment(1), rounds=200, seed=12)
        return record.distribution(), fit_prediction(record.distribution())

    def test_valid_xml(self):
        markup = render_lattice_svg(*self.fitted(),
                                    title="game 1 <test>")
        root = ET.fromstring(markup)
        assert root.tag.endswith("svg")

    def test_state_marker_per_cell(self):
        markup = render_lattice_svg(*self.fitted())
        assert markup.count('class="state"') == 25

    def test_single_mean_star(self):
        markup = render_lattice_svg(*self.fitted())
        assert markup.count("<polygon") == 1

    def test_byte_deterministic(self):
        assert render_lattice_svg(*self.fitted()) == \
            render_lattice_svg(*self.fitted())

    def test_no_residual_disks_when_exact(self):
        # observed exactly equals its own fitted prediction at a corner
        dist = LatticeDistribution(n=4, counts=flat(4, {(0, 0): 10}))
        markup = render_lattice_svg(dist, fit_prediction(dist))
        assert "#c0392b" not in markup and "#2e6da4" not in markup

    def test_residual_radius_magnification(self):
        # point mass at center vs its balanced self-fit: surplus residual
        # 1 - 0.140625 saturates the five-fold area magnification
        dist = LatticeDistribution(n=4, counts=flat(4, {(2, 2): 100}))
        markup = render_lattice_svg(dist, fit_prediction(dist))
        assert 'r="42.00" fill="#c0392b"' in markup
        # deficit at (0,0): r = 42 * sqrt(5 / 256)
        expected = 42.0 * math.sqrt(5.0 / 256.0)
        assert f'r="{expected:.2f}" fill="#2e6da4"' in markup

    def test_counts_labelled(self):
        dist = LatticeDistribution(n=4, counts=flat(4, {(1, 3): 7, (2, 2): 3}))
        markup = render_lattice_svg(dist, fit_prediction(dist))
        assert ">7</text>" in markup and ">3</text>" in markup

    def test_write_svg(self, tmp_path):
        path = tmp_path / "lattice.svg"
        dist, prediction = self.fitted()
        write_lattice_svg(dist, path, prediction, title="t")
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<?xml")
        ET.fromstring(text)


class TestScoreSession:
    def test_fields_equal_analyze_session(self):
        simulated = run_session(get_treatment(4), rounds=200, seed=31)
        parsed = session_from_csv(session_to_csv(simulated))
        assert parsed == simulated and hash(parsed) == hash(simulated)
        scored = []
        for record in (simulated, parsed):
            prediction = fit_prediction(record.distribution())
            for confidence, significance, base_corrected, m in (
                    (0.95, 0.05, False, None), (0.9, 0.01, True, 2400)):
                report = analyze_session(
                    record, prediction, session_digest(record),
                    confidence=confidence,
                    significance=significance, base_corrected=base_corrected,
                    ect_sample_size=m)
                assert (report.mean_p, report.mean_q) == (
                    prediction.mean.o_p, prediction.mean.o_q)
                scored.append((report.entropy, report.chi_square,
                               report.deviation))
        assert scored[:2] == scored[2:]

    def test_quantile_cache_misses_once_per_argument(self, monkeypatch):
        records = (run_ensemble(get_treatment(1), groups=3, rounds=100,
                                base_seed=4)
                   + run_ensemble(get_treatment(2), groups=2, rounds=100,
                                  base_seed=5, n=2))
        chi_square_quantile.cache_clear()
        student_t_quantile.cache_clear()
        chi_calls = count_calls(monkeypatch, chi_square_quantile)
        t_calls = count_calls(monkeypatch, student_t_quantile)
        summarize_ensemble([analyze_session(r, *fit_and_digest(r))
                            for r in records])
        # ECT bound and chi-square criterion: one (k, F) per lattice size
        assert {args for args, _ in chi_calls} == {(22, 0.95), (6, 0.95)}
        assert len(chi_calls) == 10
        for function, calls in ((chi_square_quantile, chi_calls),
                                (student_t_quantile, t_calls)):
            info = function.cache_info()
            assert info.misses == len(set(calls))
            assert info.hits == len(calls) - len(set(calls))


class TestTallyAndFitOnce:
    """Each command tallies, fits and serializes a session once, and hands
    the same pair to the report and the SVG."""

    def counters(self, monkeypatch):
        return {f.__name__: count_calls(monkeypatch, f)
                for f in (tally, mean_observation, binomial_prediction,
                          session_to_csv)}

    def test_simulate_manifest_digests(self, tmp_path, monkeypatch, capsys):
        written = count_calls(monkeypatch, session_to_csv)
        digested = count_calls(monkeypatch, session_digest)
        out = tmp_path / "sim"
        assert main(["simulate", "--treatment", "1", "--groups", "3",
                     "--rounds", "40", "--seed", "6", "--out", str(out)]) == 0
        assert len(written) == 3 and digested == []
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["sessions"]:
            path = out / entry["file"]
            data = path.read_bytes()
            assert entry["digest"] == hashlib.sha256(data).hexdigest()
            again = tmp_path / "again.csv"
            assert write_session_csv(read_session_csv(path),
                                     again) == entry["digest"]
            assert again.read_bytes() == data

    def test_analyze_svg(self, tmp_path, monkeypatch, capsys):
        # two simulate trees: group_01 and group_02 appear in both, and an
        # SVG file is drawn once, from the last input with its stem
        paths = []
        for seed, groups in ((8, 4), (9, 2)):
            sim = tmp_path / f"sim_{seed}"
            assert main(["simulate", "--treatment", "3", "--groups",
                         str(groups), "--rounds", "60", "--seed", str(seed),
                         "--out", str(sim)]) == 0
            paths += sorted(sim.glob("*.csv"))
        counters = self.counters(monkeypatch)
        drawn = count_calls(monkeypatch, write_lattice_svg)
        svg = tmp_path / "svg"
        assert main(["analyze", *map(str, paths), "--svg", str(svg),
                     "--json", str(tmp_path / "report.json")]) == 0
        # simulate writes canonical CSVs, so each digest is taken from the
        # text read and no session is serialized again
        assert {k: len(v) for k, v in counters.items()} == {
            **dict.fromkeys(counters, 6), "session_to_csv": 0}
        last = {p.stem: p for p in paths}
        assert sorted(p.stem for p in svg.glob("*.svg")) == sorted(last)
        assert len(drawn) == len(last) == 4
        for stem, path in last.items():
            alone = tmp_path / f"alone_{stem}"
            assert main(["analyze", str(path), "--svg", str(alone)]) == 0
            assert ((svg / f"{stem}.svg").read_bytes()
                    == (alone / f"{stem}.svg").read_bytes())

    def test_reproduce_flagged_svgs(self, tmp_path, monkeypatch, capsys):
        counters = self.counters(monkeypatch)
        out = tmp_path / "rep"
        digested = count_calls(monkeypatch, session_digest)
        assert main(["reproduce", "--seed", "42", "--out", str(out)]) == 0
        assert digested == []
        assert len(list((out / "svg").glob("*.svg"))) > 0
        assert {k: len(v) for k, v in counters.items()} == dict.fromkeys(
            counters, 108)
