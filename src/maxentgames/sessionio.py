"""Serialization and analysis reporting.

Formats are deliberately boring and fully deterministic:

* session CSV: `# key=value` metadata lines, a `round,x1_count,y1_count`
  header, one row per round, LF line endings.  Round-trips losslessly.
  An extended per-agent schema (`round` plus 2n action-bit columns) is
  accepted on read and collapsed to counts.  A leading UTF-8 byte-order
  mark is skipped on read, as in treatment configs.
* analysis JSON: canonical rendering (sorted keys, 17-significant-digit
  floats), byte-stable across runs and platforms.  Non-finite floats are
  written as the `Infinity`/`NaN` literals Python's `json` reads; strict
  RFC 8259 parsers reject them.  The encoder walks the value once,
  appending to one list joined at the end, and escapes strings with
  `json.encoder.encode_basestring`, the function `json.dumps(s,
  ensure_ascii=False)` calls.
* lattice SVG: hand-assembled markup, no drawing library, so identical
  input yields identical bytes.

Every output file goes through `write_text`: UTF-8 with LF line endings.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from json.encoder import encode_basestring  # json.dumps, ensure_ascii=False
from pathlib import Path
from typing import Any, Callable, Sequence

from .errors import ParseError, RangeError, SchemaError, read_input
from .lattice import (LatticeDistribution, check_population, lattice_cells,
                      mean_observation)
from .maxent import (EntropyReport, MaxentPrediction, binomial_prediction,
                     entropy_report)
from .simulate import SessionRecord, mixed_policy
from .stats import (ChiSquareReport, DeviationReport, SummaryStats,
                    TTestReport, chi_square_gof, deviation_report,
                    one_sample_t_test, summarize)

TOOL_VERSION = "0.1.0"
ENSEMBLE_CONFIDENCE = 0.99  # CI of the d_te and z summaries, not the t tests

# ---------------------------------------------------------------------------
# canonical JSON

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def format_float(value: float) -> str:
    """`%.17g`, with `.0` kept on whole numbers: reads back exactly, but is
    not repr's shortest form (0.1 gives "0.10000000000000001")."""
    text = format(value, ".17g")
    if "." in text or "e" in text:
        return text
    # keep floats typed as floats on the way back in
    return _NON_FINITE.get(text) or text + ".0"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting.  Output is
    byte-identical for equal inputs, so reports can be diffed and hashed."""
    parts: list[str] = []
    _encode(obj, parts.append)
    return "".join(parts)


def _encode(obj: Any, emit: Callable[[str], None]) -> None:
    # bool before int: True is an int too
    if obj is None:
        emit("null")
    elif isinstance(obj, bool):
        emit("true" if obj else "false")
    elif isinstance(obj, int):
        emit(str(obj))
    elif isinstance(obj, float):
        emit(format_float(obj))
    elif isinstance(obj, str):
        emit(encode_basestring(obj))
    elif isinstance(obj, (list, tuple)):
        separator = "["
        for value in obj:
            emit(separator)
            separator = ","
            _encode(value, emit)
        emit("[]" if separator == "[" else "]")
    elif isinstance(obj, dict):
        separator = "{"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(
                    f"JSON object keys must be strings, got {key!r}")
            value = obj[key]
            # most of a report is floats in objects: one call for the pair
            if type(value) is float:
                emit(f"{separator}{encode_basestring(key)}:"
                     f"{format_float(value)}")
            else:
                emit(f"{separator}{encode_basestring(key)}:")
                _encode(value, emit)
            separator = ","
        emit("{}" if separator == "{" else "}")
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def write_text(path: str | Path, text: str) -> None:
    """Write an output file, and its directory if missing: UTF-8 with LF
    line endings on every platform, so equal text gives equal bytes."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# session CSV

_CSV_HEADER = "round,x1_count,y1_count"


def _csv_head(record: SessionRecord) -> str:
    """The canonical CSV's metadata and header lines, each ending in LF."""
    return (f"# n={record.n}\n# treatment={record.treatment_id}\n"
            f"# seed={record.seed}\n# policy={record.policy_id}\n"
            f"{_CSV_HEADER}\n")


def session_to_csv(record: SessionRecord) -> str:
    rows = "\n".join([f"{r},{i},{j}"
                      for r, (i, j) in enumerate(record.rounds, start=1)])
    return f"{_csv_head(record)}{rows}\n"


def _csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_session_csv(record: SessionRecord, path: str | Path) -> str:
    """Write the record's canonical CSV; returns its `session_digest`."""
    text = session_to_csv(record)
    write_text(path, text)
    return _csv_digest(text)


def _parse_int(text: str, what: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"line {line_no}: {what} is not an integer: "
                         f"{text!r}") from None


def _row_state(parts: list[str], n: int, extended: bool,
               line_no: int) -> tuple[int, int, int]:
    r = _parse_int(parts[0], "round", line_no)
    if not extended:
        i = _parse_int(parts[1], "x1_count", line_no)
        j = _parse_int(parts[2], "y1_count", line_no)
        if not (0 <= i <= n and 0 <= j <= n):
            raise RangeError(
                f"line {line_no}: counts ({i}, {j}) beyond n={n}")
        return r, i, j
    bits = [_parse_int(p, "action", line_no) for p in parts[1:]]
    if any(b not in (0, 1) for b in bits):
        raise RangeError(f"line {line_no}: action columns must be 0 or 1")
    return r, sum(bits[:n]), sum(bits[n:])


_PLAIN_COUNT_ROWS = re.compile(r"[0-9]+,[0-9]+,[0-9]+"
                               r"(?:\n[0-9]+,[0-9]+,[0-9]+)*")


def _plain_count_rows(body: list[str], n: int) -> list[tuple[int, int]] | None:
    """The rounds of a count-schema body in the form session_to_csv writes
    (digits only, rounds 1, 2, ... in order, every count on the lattice),
    read in bulk; None for any other body, which _checked_rows then reads
    or rejects with a line number."""
    text = "\n".join(body)
    if not _PLAIN_COUNT_ROWS.fullmatch(text):
        return None
    fields = text.replace("\n", ",").split(",")
    if fields[0::3] != [str(r) for r in range(1, len(body) + 1)]:
        return None
    # "0" ... str(n) only: a count like "05", or beyond n, falls back
    count = {str(k): k for k in range(n + 1)}
    try:
        return list(zip(map(count.__getitem__, fields[1::3]),
                        map(count.__getitem__, fields[2::3])))
    except KeyError:
        return None


def _checked_rows(lines: list[str], body_start: int, n: int,
                  extended: bool) -> list[tuple[int, int]]:
    """The rounds of a data section read line by line: blank and comment
    lines are skipped, and the first bad row raises with its line number."""
    width = 3 if not extended else 1 + 2 * n
    rounds: list[tuple[int, int]] = []
    for idx in range(body_start, len(lines)):
        stripped = lines[idx].strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(",")
        if len(parts) != width:
            raise SchemaError(
                f"line {idx + 1}: expected {width} columns, got {len(parts)}")
        r, i, j = _row_state(parts, n, extended, idx + 1)
        if r != len(rounds) + 1:
            raise ParseError(
                f"line {idx + 1}: round {r} out of order "
                f"(expected {len(rounds) + 1})")
        rounds.append((i, j))
    return rounds


def session_from_csv(text: str) -> SessionRecord:
    """Parse a session CSV.

    Requires the `# n=` metadata line and contiguous round numbering from
    1; treatment, seed, and policy metadata default when absent.  Both the
    count schema and the extended per-agent action schema are accepted.
    """
    meta: dict[str, tuple[str, int]] = {}  # key -> (value, line number)

    def meta_int(key: str) -> int:
        value, line_no = meta.get(key, ("0", 0))
        return _parse_int(value, key, line_no)

    lines = text.splitlines()
    body_start = None
    extended = False
    n = None
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            entry = stripped.lstrip("#").strip()
            if "=" in entry:
                key, _, value = entry.partition("=")
                meta[key.strip()] = (value.strip(), idx + 1)
            continue
        if "n" not in meta:
            raise SchemaError("missing '# n=' metadata line")
        n = meta_int("n")
        try:
            check_population(n)
        except ValueError as exc:
            raise RangeError(f"line {meta['n'][1]}: {exc}") from None
        columns = [c.strip() for c in stripped.split(",")]
        if columns == _CSV_HEADER.split(","):
            extended = False
        elif (len(columns) == 1 + 2 * n and columns[0] == "round"
              and all(c for c in columns)):
            extended = True
        else:
            raise SchemaError(
                f"line {idx + 1}: expected header {_CSV_HEADER!r} or "
                f"'round' plus {2 * n} action columns, got {stripped!r}")
        body_start = idx + 1
        break
    if body_start is None or n is None:
        raise SchemaError("no data header found")
    treatment_id = meta_int("treatment")
    seed = meta_int("seed")
    policy_id, policy_line = meta.get(
        "policy", (mixed_policy(0.5, 0.5).label(), 0))

    body = lines[body_start:]
    rounds = None if extended else _plain_count_rows(body, n)
    plain = rounds is not None
    if not plain:
        rounds = _checked_rows(lines, body_start, n, extended)
    if not rounds:
        raise SchemaError("session file has no data rows")
    # each other check the record makes was made above, with a line number
    try:
        record = SessionRecord(treatment_id=treatment_id, seed=seed, n=n,
                               rounds=tuple(rounds), policy_id=policy_id)
    except ParseError as exc:
        raise ParseError(f"line {policy_line}: {exc}") from None
    # a plain body is the canonical rows, so a text that is the canonical
    # head plus that body is session_to_csv(record): keep its digest, as
    # the record keeps its tally (not a field, so == and hash ignore it)
    if plain and text == _csv_head(record) + "\n".join(body) + "\n":
        object.__setattr__(record, "_digest", _csv_digest(text))
    return record


def read_session_csv(path: str | Path) -> SessionRecord:
    return read_input(path, session_from_csv)


def session_digest(record: SessionRecord) -> str:
    """sha256 of the record's canonical CSV serialization, not of the bytes
    it was read from: inputs that parse to the same record (CRLF line
    endings, a byte-order mark, the per-agent schema) share one digest.
    A record read from text that is already its canonical CSV carries that
    text's digest, so it is not serialized again."""
    digest = getattr(record, "_digest", None)
    if digest is None:
        digest = _csv_digest(session_to_csv(record))
    return digest


# ---------------------------------------------------------------------------
# analysis

@dataclass(frozen=True)
class AnalysisReport:
    """One session's complete comparison against its Maxent prediction."""

    treatment_id: int
    group_id: int
    source: str
    mean_p: float
    mean_q: float
    entropy: EntropyReport
    chi_square: ChiSquareReport
    deviation: DeviationReport
    version: str
    input_digest: str


@dataclass(frozen=True)
class EnsembleSummary:
    """Treatment-level aggregation over several sessions' reports."""

    sessions: int
    chi_exceed_count: int
    d_te: SummaryStats
    z: SummaryStats
    d_te_test: TTestReport
    z_test: TTestReport


def fit_prediction(dist: LatticeDistribution) -> MaxentPrediction:
    """The Maxent prediction fitted from the distribution's own mean: the
    data supply the constraints, the maximum-entropy step supplies
    everything else.  A session is scored and drawn against this fit."""
    return binomial_prediction(mean_observation(dist), dist.n)


def analyze_session(record: SessionRecord, prediction: MaxentPrediction,
                    input_digest: str, source: str = "<memory>",
                    group_id: int = 1, confidence: float = 0.95,
                    significance: float = 0.05,
                    base_corrected: bool = False,
                    ect_sample_size: int | None = None) -> AnalysisReport:
    """The full report for one session: the record's tally scored against
    its fit `prediction` (`fit_prediction`, which the caller makes once so
    it can draw the same pair) by the entropy comparison with its
    concentration bound, the chi-square test and the deviation statistics;
    plus where the session came from: its treatment, group, source name,
    the tool version and `input_digest`, the sha256 of its canonical CSV
    (from `write_session_csv` or `session_digest`).

    ect_sample_size overrides the M used in the concentration bound (None:
    the tally's round count)."""
    dist = record.distribution()
    ent = entropy_report(dist, prediction, confidence=confidence,
                         sample_size=ect_sample_size,
                         base_corrected=base_corrected)
    chi = chi_square_gof(dist, prediction, significance=significance)
    dev = deviation_report(dist, prediction, ent.s_e)
    return AnalysisReport(treatment_id=record.treatment_id,
                          group_id=group_id, source=source,
                          mean_p=prediction.mean.o_p,
                          mean_q=prediction.mean.o_q,
                          entropy=ent, chi_square=chi, deviation=dev,
                          version=TOOL_VERSION,
                          input_digest=input_digest)


def summarize_ensemble(reports: Sequence[AnalysisReport]) -> EnsembleSummary:
    """Aggregate several session reports the way a results table would:
    mean/SE/CI of D_te and Z at ENSEMBLE_CONFIDENCE (99%), plus t tests
    against zero with one_sample_t_test's default 95% intervals."""
    d_values = [r.deviation.d_te for r in reports]
    z_values = [r.deviation.z for r in reports]
    return EnsembleSummary(
        sessions=len(reports),
        chi_exceed_count=sum(1 for r in reports if r.chi_square.exceeds),
        d_te=summarize(d_values, ENSEMBLE_CONFIDENCE),
        z=summarize(z_values, ENSEMBLE_CONFIDENCE),
        d_te_test=one_sample_t_test(d_values, 0.0),
        z_test=one_sample_t_test(z_values, 0.0))


# ---------------------------------------------------------------------------
# report JSON

@lru_cache(maxsize=4)
def _cell_keys(n: int) -> tuple[str, ...]:
    """The "i,j" keys of the lattice for n, in row-major order."""
    return tuple(f"{i},{j}" for i, j in lattice_cells(n))


def to_obj(value: Any) -> Any:
    """JSON-ready form of a report dataclass, with each row-major per-cell
    vector (a list field) written as an object keyed "i,j"."""
    if is_dataclass(value):
        return {f.name: to_obj(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, list):
        return dict(zip(_cell_keys(math.isqrt(len(value)) - 1), value))
    return value


# ---------------------------------------------------------------------------
# SVG rendering

def _fmt(value: float) -> str:
    return format(value, ".2f")


def _star_points(cx: float, cy: float, outer: float, inner: float) -> str:
    pts = []
    for k in range(10):
        radius = outer if k % 2 == 0 else inner
        angle = -math.pi / 2.0 + k * math.pi / 5.0
        pts.append(f"{_fmt(cx + radius * math.cos(angle))},"
                   f"{_fmt(cy + radius * math.sin(angle))}")
    return " ".join(pts)


def render_lattice_svg(observed: LatticeDistribution,
                       prediction: MaxentPrediction, title: str = "") -> str:
    """Draw the social-state lattice against a prediction, normally the
    one fitted from its own mean (`fit_prediction`), made by the caller.

    Yellow disks have area proportional to the observed density; red (blue)
    disks show positive (negative) residuals against the prediction with
    area magnified five-fold to stay visible; dashed outlines show the
    prediction itself; a star marks the prediction's mean (the mean
    observation, for the self-fit); counts label the occupied cells.
    Output is plain markup, deterministic byte for byte, with no external
    references.
    """
    n = observed.n
    mean = prediction.mean
    step = 100.0
    x0, y0 = 80.0, 70.0
    span = n * step
    width = x0 + span + 80.0
    height = y0 + span + 110.0
    r_max = 42.0

    def x_at(i: float) -> float:
        return x0 + i * step

    def y_at(j: float) -> float:
        return y0 + (n - j) * step

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
        'fill="white"/>',
    ]
    if title:
        safe = (title.replace("&", "&amp;").replace("<", "&lt;")
                .replace(">", "&gt;"))
        parts.append(f'<text x="{_fmt(x0)}" y="36" font-family="sans-serif" '
                     f'font-size="16" fill="#111">{safe}</text>')
    for k in range(n + 1):
        parts.append(f'<line x1="{_fmt(x_at(k))}" y1="{_fmt(y_at(0))}" '
                     f'x2="{_fmt(x_at(k))}" y2="{_fmt(y_at(n))}" '
                     'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<line x1="{_fmt(x_at(0))}" y1="{_fmt(y_at(k))}" '
                     f'x2="{_fmt(x_at(n))}" y2="{_fmt(y_at(k))}" '
                     'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x_at(k))}" y="{_fmt(y_at(0) + 28)}" '
                     'font-family="sans-serif" font-size="13" fill="#333" '
                     f'text-anchor="middle">{k}</text>')
        parts.append(f'<text x="{_fmt(x0 - 24)}" y="{_fmt(y_at(k) + 4)}" '
                     'font-family="sans-serif" font-size="13" fill="#333" '
                     f'text-anchor="middle">{k}</text>')
    parts.append(f'<text x="{_fmt(x0 + span / 2)}" y="{_fmt(y_at(0) + 56)}" '
                 'font-family="sans-serif" font-size="14" fill="#111" '
                 'text-anchor="middle">i (X agents playing action 1)</text>')
    parts.append(f'<text x="22" y="{_fmt(y0 + span / 2)}" '
                 'font-family="sans-serif" font-size="14" fill="#111" '
                 'text-anchor="middle" transform="rotate(-90 22 '
                 f'{_fmt(y0 + span / 2)})">j (Y agents playing action 1)'
                 '</text>')

    for (i, j), count, rho, pred in zip(lattice_cells(n), observed.counts,
                                        observed.densities,
                                        prediction.densities):
        cx, cy = x_at(i), y_at(j)
        # one neutral marker per social state, occupied or not
        parts.append(f'<circle class="state" cx="{_fmt(cx)}" '
                     f'cy="{_fmt(cy)}" r="2.20" fill="#999999"/>')
        if pred > 0.0:
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                         f'r="{_fmt(r_max * math.sqrt(pred))}" fill="none" '
                         'stroke="#555555" stroke-width="1.2" '
                         'stroke-dasharray="4 3"/>')
        if rho > 0.0:
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                         f'r="{_fmt(r_max * math.sqrt(rho))}" '
                         'fill="#f5c542" fill-opacity="0.8" '
                         'stroke="#b8860b" stroke-width="0.8"/>')
        resid = rho - pred
        if resid != 0.0:
            color = "#c0392b" if resid > 0 else "#2e6da4"
            r = r_max * math.sqrt(min(1.0, 5.0 * abs(resid)))
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                         f'r="{_fmt(r)}" fill="{color}" '
                         'fill-opacity="0.35"/>')
        if count:
            parts.append(f'<text x="{_fmt(cx)}" y="{_fmt(cy + 4)}" '
                         'font-family="sans-serif" font-size="11" '
                         f'fill="#222" text-anchor="middle">{count}</text>')

    mx, my = x_at(mean.o_p * n), y_at(mean.o_q * n)
    parts.append(f'<polygon points="{_star_points(mx, my, 11.0, 4.5)}" '
                 'fill="#111111"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_lattice_svg(observed: LatticeDistribution, path: str | Path,
                      prediction: MaxentPrediction, title: str = "") -> None:
    write_text(path, render_lattice_svg(observed, prediction, title))
