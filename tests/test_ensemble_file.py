"""ensemble.jsonl's run records: the loader's edge cases, checked on the
text of a saved mini-study ensemble edited one record at a time, and the
record codec's renderer and decoder against json.dumps and a regular
expression on random tables."""

import importlib.resources
import io
import json
import re
import tracemalloc

import numpy as np
import pytest

from cibpath import simulate
from cibpath.errors import ParseError
from cibpath.model import json_rows, load_study_spec
from cibpath.simulate import EnsembleResult, load_ensemble, simulate_ensemble, write_ensemble

#: The record that the edits change, and where its iteration counts and
#: states start: a mini-study record is [run, periods recorded, 30 states,
#: 6 converged flags, 6 iteration counts].
RUN = 9
ITERATIONS = 2 + 30 + 6
STATE = 2 + 2 * 5 + 1  # period 2, descriptor 1
INT64_MAX = np.iinfo(np.int64).max
SYNTAX = "not a compact JSON array of 44 integers"


@pytest.fixture(scope="module")
def saved():
    fixtures = importlib.resources.files("cibpath") / "fixtures"
    spec = load_study_spec(str(fixtures / "mini_study.json"))
    ensemble = simulate_ensemble(spec, 12, 42)
    assert not ensemble.errors
    buf = io.StringIO()
    write_ensemble(ensemble, buf)
    return ensemble, buf.getvalue().encode()


#: The RECORD_CHUNK values the loader is tested at: 1, 7 and its default.
CHUNKS = (1, 7, simulate.RECORD_CHUNK)


@pytest.fixture(params=CHUNKS, ids=["chunk1", "chunk7", "chunk-default"])
def chunk(request, monkeypatch):
    """RECORD_CHUNK at 1, 7 and its default."""
    monkeypatch.setattr(simulate, "RECORD_CHUNK", request.param)
    return simulate.RECORD_CHUNK


def at_each_chunk_size(monkeypatch):
    """RECORD_CHUNK set to each of CHUNKS in turn, for a test whose ids
    predate the chunk fixture."""
    for size in CHUNKS:
        monkeypatch.setattr(simulate, "RECORD_CHUNK", size)
        yield size


def load_text(tmp_path, text: bytes):
    path = tmp_path / "ensemble.jsonl"
    path.write_bytes(text)
    return load_ensemble(str(path))


def edit_record(text: bytes, edit, run=RUN) -> bytes:
    """text with record run's line replaced by edit(line)."""
    lines = text.split(b"\n")
    lines[1 + run] = edit(lines[1 + run])
    return b"\n".join(lines)


def set_number(index, number: bytes):
    def edit(line):
        numbers = line[1:-1].split(b",")
        numbers[index] = number
        return b"[" + b",".join(numbers) + b"]"
    return edit


def assert_fails_at(tmp_path, text, reason, run=RUN):
    with pytest.raises(ParseError) as caught:
        load_text(tmp_path, text)
    assert caught.value.path.endswith(f": runs[{run}]")
    assert caught.value.reason.startswith(reason), caught.value.reason


def test_19_digit_iteration_count_inside_int64_loads_exactly(saved, tmp_path):
    _, text = saved
    edited = edit_record(text, set_number(ITERATIONS + 2, b"9223372036854775806"))
    loaded = load_text(tmp_path, edited)
    assert loaded.iterations[RUN, 2] == INT64_MAX - 1


@pytest.mark.parametrize("number, read", [
    (b"12345678901234567890", INT64_MAX),
    (b"9223372036854775807", INT64_MAX),
    (b"-12345678901234567890", INT64_MAX),
    (b"-9223372036854775808", -INT64_MAX - 1),
    (b"9999999999999999999", INT64_MAX),
    (b"-9223372036854775809", INT64_MAX),
    pytest.param(b"9" * 5000, INT64_MAX, id="5000-digits"),
    pytest.param(b"-" + b"1" * 5000, INT64_MAX, id="minus-5000-digits"),
])
def test_iteration_count_beyond_int64_is_refused(saved, tmp_path, number, read):
    """A number beyond int64, on either side, reads as int64's largest value."""
    _, text = saved
    reason = f"iteration count {read} is not a non-negative 64-bit integer"
    assert_fails_at(tmp_path, edit_record(text, set_number(ITERATIONS + 2, number)), reason)


def test_state_beyond_int64_is_refused_as_its_largest_value(saved, tmp_path):
    _, text = saved
    edited = edit_record(text, set_number(STATE, b"-" + b"9" * 25))
    assert_fails_at(tmp_path, edited, f"state {INT64_MAX} is not a state index (0 to 127)")


@pytest.mark.parametrize("edit", [
    pytest.param(set_number(STATE, b""), id="empty-number"),
    pytest.param(set_number(0, b""), id="empty-first-number"),
    pytest.param(set_number(-1, b""), id="empty-last-number"),
    pytest.param(set_number(STATE, b"-"), id="lone-minus"),
    pytest.param(set_number(-1, b"-"), id="lone-minus-last"),
    pytest.param(set_number(STATE, b"--1"), id="double-minus"),
    pytest.param(set_number(STATE, b"1-2"), id="inner-minus"),
    pytest.param(set_number(STATE, b"1-"), id="trailing-minus"),
    pytest.param(set_number(STATE, b"+1"), id="plus-sign"),
    pytest.param(set_number(STATE, b" 1"), id="space"),
    pytest.param(set_number(STATE, b"1.0"), id="decimal"),
    pytest.param(set_number(STATE, b"1:"), id="colon"),
    pytest.param(set_number(STATE, b"/1"), id="slash"),
    pytest.param(set_number(STATE, b"1\r"), id="stray-cr"),
    pytest.param(lambda line: line[:-1] + b"\r]", id="cr-before-close"),
    pytest.param(lambda line: line + b"\r\r", id="cr-cr-lf"),
    pytest.param(set_number(STATE, b"\xc3\xa9"), id="non-ascii"),
    pytest.param(set_number(STATE, b"[1]"), id="nested-array"),
    pytest.param(lambda line: b"[" + line + b"]", id="wrapped-array"),
    pytest.param(lambda line: line + b",", id="trailing-comma"),
    pytest.param(lambda line: line[1:], id="no-open"),
    pytest.param(lambda line: line[:-1], id="no-close"),
    pytest.param(lambda line: line + b"]", id="double-close"),
    pytest.param(lambda line: line.replace(b",", b"]", 1)[:-1] + b",", id="close-inside"),
    pytest.param(lambda line: line.replace(b",", b"]", 1), id="close-for-comma"),
    pytest.param(set_number(STATE, b"[1"), id="open-inside"),
    pytest.param(lambda line: line[:-1] + b",0]", id="one-number-too-many"),
    pytest.param(lambda line: line[:line.rindex(b",")] + b"]", id="one-number-too-few"),
    pytest.param(lambda line: line.replace(b",", b"", 1), id="merged-numbers"),
    pytest.param(lambda line: b"", id="empty-line"),
    pytest.param(lambda line: b"[]", id="empty-array"),
])
def test_malformed_record_names_it(saved, tmp_path, chunk, edit):
    _, text = saved
    assert_fails_at(tmp_path, edit_record(text, edit), SYNTAX)


def test_first_malformed_record_is_named(saved, tmp_path, chunk):
    _, text = saved
    edited = edit_record(edit_record(text, set_number(STATE, b"")), set_number(0, b"x"), run=3)
    assert_fails_at(tmp_path, edited, SYNTAX, run=3)


def test_malformed_first_and_last_records_are_named(saved, tmp_path, chunk):
    _, text = saved
    assert_fails_at(tmp_path, edit_record(text, set_number(1, b"-"), run=0), SYNTAX, run=0)
    assert_fails_at(tmp_path, edit_record(text, set_number(1, b"-"), run=11), SYNTAX, run=11)


def test_minus_zero_and_leading_zeros_load_as_their_value(saved, tmp_path, chunk):
    ensemble, text = saved
    edited = edit_record(edit_record(text, set_number(STATE, b"007")), set_number(2, b"-0"))
    loaded = load_text(tmp_path, edited)
    assert loaded.states[RUN, 2, 1] == 7 and loaded.states[RUN, 0, 0] == 0
    assert loaded.iterations.tolist() == ensemble.iterations.tolist()


def test_thousands_of_leading_zeros_load_as_the_value(saved, tmp_path, chunk):
    _, text = saved
    edited = edit_record(text, set_number(ITERATIONS + 2, b"0" * 4999 + b"7"))
    edited = edit_record(edited, set_number(STATE, b"-" + b"0" * 5000))
    loaded = load_text(tmp_path, edited)
    assert loaded.iterations[RUN, 2] == 7 and loaded.states[RUN, 2, 1] == 0


def test_header_integer_of_thousands_of_digits_names_the_header(saved, tmp_path):
    """Python's int() refuses 5 000 digits with ValueError; the header's
    reader refuses them with ParseError."""
    _, text = saved
    head, body = text.split(b"\n", 1)
    head = re.sub(rb'"master_seed":[0-9]+', b'"master_seed":' + b"1" * 5000, head)
    with pytest.raises(ParseError) as caught:
        load_text(tmp_path, head + b"\n" + body)
    assert caught.value.path.endswith("ensemble.jsonl: header"), caught.value.path


def test_body_without_final_newline_loads(saved, tmp_path, chunk):
    ensemble, text = saved
    assert text.endswith(b"]\n")
    assert load_text(tmp_path, text[:-1]) == ensemble


#: Where a mini-study record's converged flags start, and the record of
#: the run that errored_prefix stops after three periods.
CONVERGED = 2 + 30
PAST = 3


def errored_prefix(text: bytes, index=None, number=b"") -> bytes:
    """text with run RUN stopped after PAST periods by an error, zero past
    them, and then its number at index, if given, set to number."""
    header, *lines = text.split(b"\n")
    doc = json.loads(header)
    doc["errors"] = [[RUN, "no feasible state for descriptor 'PS'"]]
    numbers = lines[RUN][1:-1].split(b",")
    numbers[1] = b"%d" % PAST
    for start, size in ((2, 5), (CONVERGED, 1), (ITERATIONS, 1)):
        numbers[start + PAST * size:start + 6 * size] = [b"0"] * ((6 - PAST) * size)
    if index is not None:
        numbers[index] = number
    lines[RUN] = b"[" + b",".join(numbers) + b"]"
    return b"\n".join([simulate.compact_json(doc).encode(), *lines])


#: Each of load_ensemble's record checks, in the order it makes them: an
#: edit of the saved text that only that check refuses, and its reason.
RECORD_CHECKS = {
    "run-index": (lambda t: edit_record(t, set_number(0, b"5")), "run index 5, expected 9"),
    "no-period": (lambda t: edit_record(t, set_number(1, b"0")),
                  "0 periods recorded, but the time grid has 6"),
    "periods-beyond-grid": (lambda t: edit_record(t, set_number(1, b"7")),
                            "7 periods recorded, but the time grid has 6"),
    "error-on-a-full-run": (lambda t: errored_prefix(t, 1, b"6"),
                            "ends in an error but records all 6 periods"),
    "early-stop-without-error": (lambda t: edit_record(t, set_number(1, b"3")),
                                 "3 of the time grid's 6 periods recorded, but no error"),
    "state-past-the-stop": (lambda t: errored_prefix(t, 2 + 4 * 5 + 2, b"2"),
                            "state 2 past the recorded periods"),
    # read before the int8 cast, and refused here, before the state range check
    "state-300-past-the-stop": (lambda t: errored_prefix(t, 2 + 4 * 5 + 2, b"300"),
                                "state 300 past the recorded periods"),
    "flag-past-the-stop": (lambda t: errored_prefix(t, CONVERGED + 4, b"1"),
                           "converged flag 1 past the recorded periods"),
    "iterations-past-the-stop": (lambda t: errored_prefix(t, ITERATIONS + 5, b"4"),
                                 "iteration count 4 past the recorded periods"),
    "flag-seven": (lambda t: edit_record(t, set_number(CONVERGED + 2, b"7")),
                   "converged flag 7 is not 0 or 1"),
    "iterations-negative": (lambda t: edit_record(t, set_number(ITERATIONS + 2, b"-5")),
                            "iteration count -5 is not a non-negative 64-bit integer"),
    "state-300": (lambda t: edit_record(t, set_number(STATE, b"300")),
                  "state 300 is not a state index (0 to 127)"),
    "state-negative": (lambda t: edit_record(t, set_number(STATE, b"-1")),
                       "state -1 is not a state index (0 to 127)"),
}


def test_an_errored_prefix_loads(saved, tmp_path):
    loaded = load_text(tmp_path, errored_prefix(saved[1]))
    assert loaded.lengths[RUN] == PAST and RUN in loaded.errors


def test_an_empty_ensemble_loads(saved, tmp_path, chunk):
    header = json.loads(saved[1].split(b"\n", 1)[0])
    header["run_count"] = 0
    loaded = load_text(tmp_path, simulate.compact_json(header).encode() + b"\n")
    assert loaded.run_count == 0 and not loaded.errors
    assert loaded.states.shape == (0, 6, 5) and loaded.iterations.shape == (0, 6)


@pytest.mark.parametrize("check", RECORD_CHECKS)
def test_each_record_check_names_the_run_and_its_reason(saved, tmp_path, monkeypatch, check):
    edit, reason = RECORD_CHECKS[check]
    for size in at_each_chunk_size(monkeypatch):
        with pytest.raises(ParseError) as caught:
            load_text(tmp_path, edit(saved[1]))
        assert caught.value.path.endswith(f": runs[{RUN}]"), size
        assert caught.value.reason == reason, size


@pytest.mark.parametrize("early, late", [
    ("run-index", "state-300"), ("no-period", "flag-seven"),
    ("early-stop-without-error", "state-negative"), ("flag-seven", "iterations-negative"),
    ("iterations-negative", "state-300"),
])
def test_an_earlier_check_on_a_later_run_comes_first(saved, tmp_path, monkeypatch, early, late):
    """A run failing a check is named before an earlier run failing a later
    check, also when the two runs are in different chunks."""
    _, text = saved
    line = text.split(b"\n")[1 + RUN]
    moved = RECORD_CHECKS[late][0](text).split(b"\n")[1 + RUN]
    lines = RECORD_CHECKS[early][0](text).split(b"\n")
    lines[1 + 2] = moved.replace(line[:line.index(b",")], b"[2", 1)
    for size in at_each_chunk_size(monkeypatch):
        with pytest.raises(ParseError) as caught:
            load_text(tmp_path, b"\n".join(lines))
        assert caught.value.path.endswith(f": runs[{RUN}]"), size
        assert caught.value.reason == RECORD_CHECKS[early][1], size


@pytest.mark.parametrize("edit, found", [
    (lambda text: text + b"\n", 13),
    (lambda text: text.replace(b"]\n[", b"]\n\n[", 1), 13),
    (lambda text: text.replace(b"]\n[", b"][", 1), 11),
    (lambda text: text[:text.index(b"\n") + 1], 0),
])
def test_line_count_differs_from_the_header(saved, tmp_path, edit, found):
    _, text = saved
    reason = f"{found} run records, but the header says 12"
    with pytest.raises(ParseError, match=re.escape(reason)):
        load_text(tmp_path, edit(text))


def test_a_run_count_no_memory_holds_is_refused_by_the_record_count(saved, tmp_path):
    """The records are counted before the ensemble's arrays are allocated."""
    head, body = saved[1].split(b"\n", 1)
    header = json.loads(head)
    header["run_count"] = 10 ** 15
    reason = f"12 run records, but the header says {10 ** 15}"
    with pytest.raises(ParseError, match=re.escape(reason)):
        load_text(tmp_path, simulate.compact_json(header).encode() + b"\n" + body)


def test_a_descriptor_count_no_memory_holds_is_refused_by_the_record_bytes(saved, tmp_path):
    """A header whose run_count records of its width cannot fit in the
    records' bytes is refused before the ensemble's arrays, of that width,
    are allocated, also when the first record has that width; one near the
    records' width names the first record."""
    head, body = saved[1].split(b"\n", 1)
    header = json.loads(head)
    # run 0 of 200 descriptors' width, 6 * 200 + 14 numbers; the other runs empty
    wide = b"[" + b",".join([b"0"] * 1214) + b"]\n" + b"[]\n" * 11
    for descriptors, records, node, reason in (
        (10 ** 12, body, "header", "descriptors and time_grid give records of "
         f"{6 * 10 ** 12 + 14} numbers, more than 12 in {len(body)} bytes hold"),
        (200, wide, "header", "descriptors and time_grid give records of 1214 numbers, "
         f"more than 12 in {len(wide)} bytes hold"),
        (6, body, "runs[0]", "not a compact JSON array of 50 integers"),
    ):
        header["descriptors"] = descriptors
        with pytest.raises(ParseError) as caught:
            load_text(tmp_path, simulate.compact_json(header).encode() + b"\n" + records)
        assert caught.value.path.endswith(f"ensemble.jsonl: {node}"), caught.value.path
        assert caught.value.reason.startswith(reason), caught.value.reason


# ---------------------------------------------------------------------------
# The record codec on random int64 tables

#: The least and largest magnitude of a number of 1 to 19 digits in int64.
LEAST = np.array([0] + [10 ** (d - 1) for d in range(2, 20)], np.int64)
LARGEST = np.array([10 ** d - 1 for d in range(1, 19)] + [INT64_MAX], np.int64)


def random_table(rng, rows, width):
    """Numbers of 1 to 19 digits, half of them negative, and 0, int64's
    least and int64's largest value sprinkled in."""
    digits = rng.integers(1, 20, (rows, width))
    table = rng.integers(LEAST[digits - 1], LARGEST[digits - 1], endpoint=True)
    table = np.where(rng.random((rows, width)) < 0.5, -table, table)
    special = rng.integers(0, 10, (rows, width))
    for value, pick in ((0, 0), (-INT64_MAX - 1, 1), (INT64_MAX, 2)):
        table[special == pick] = value
    return table


def json_lines(table) -> bytes:
    """The oracle: json.dumps of each row, one a line."""
    rows = table.tolist()
    return "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows).encode()


def records(table) -> bytes:
    """The rows of table as json_rows renders them into run records."""
    return json_rows(table, [b"["], 0, b"]\n")


def rendered(table) -> bytes:
    """The table rendered a chunk at a time, as write_ensemble does."""
    step = simulate.RECORD_CHUNK
    chunks = (table[a:a + step] for a in range(0, len(table), step))
    return b"".join(map(records, chunks))


def decoded(text: bytes, rows: int, width: int) -> np.ndarray:
    """The (rows, width) table that _parse_records decodes from text, its
    chunks joined; each chunk must start where the one before it ended."""
    table = np.empty((rows, width), np.int64)
    done = 0
    for at, values in simulate._parse_records(text, rows, width, "t"):
        assert at == slice(done, min(done + simulate.RECORD_CHUNK, rows))
        table[at] = values
        done = at.stop
    assert done == rows
    return table


def table_shapes(seed):
    rng = np.random.default_rng(seed)
    return rng, int(rng.integers(0, 40)), int(rng.integers(1, 61))


@pytest.mark.parametrize("seed", range(12))
def test_rendered_table_equals_json_dumps_and_decodes_back(seed, chunk):
    rng, rows, width = table_shapes(seed)
    table = random_table(rng, rows, width)
    text = rendered(table)
    assert text == json_lines(table) == records(table)
    assert np.array_equal(decoded(text, rows, width), table)


@pytest.mark.parametrize("shape", [(0, 1), (0, 44), (1, 1), (1, 60), (3, 1), (50, 60)])
def test_codec_at_the_edges(shape, chunk):
    table = random_table(np.random.default_rng(sum(shape)), *shape)
    text = rendered(table)
    assert text == json_lines(table)
    assert np.array_equal(decoded(text, *shape), table)


def test_every_digit_count_and_sign_round_trips(chunk):
    magnitudes = [0, *(10 ** d for d in range(19)), *(10 ** d - 1 for d in range(1, 19))]
    magnitudes.append(INT64_MAX)
    table = np.array([[m, -m] for m in magnitudes] + [[-INT64_MAX - 1, 0]], np.int64)
    text = rendered(table)
    assert text == json_lines(table)
    assert np.array_equal(decoded(text, *table.shape), table)


def test_write_ensemble_equals_json_dumps_across_chunk_edges(chunk):
    """write_ensemble builds each chunk's rows from the ensemble's arrays."""
    rng = np.random.default_rng(5)
    runs, periods, width = 23, 3, 4
    iterations = random_table(rng, runs, periods)
    ensemble = EnsembleResult(
        "d" * 64, 7, (2020, 2025, 2030),
        rng.integers(-128, 128, (runs, periods, width)).astype(np.int8),
        rng.random((runs, periods)) < 0.5, iterations, random_table(rng, runs, 1)[:, 0], {},
    )
    buf = io.StringIO()
    write_ensemble(ensemble, buf)
    rows = np.concatenate([
        np.arange(runs)[:, None], ensemble.lengths[:, None], ensemble.states.reshape(runs, -1),
        ensemble.converged, ensemble.iterations,
    ], axis=1)
    header, body = buf.getvalue().encode().split(b"\n", 1)
    assert body == json_lines(rows)


def record_oracle(text: bytes, rows: int, width: int):
    """What the loader makes of text: ("count", lines), ("record", i) for
    the first line that is not a compact JSON array of width integers, or
    ("values", rows) with a number beyond int64 read as its largest value."""
    if text and not text.endswith(b"\n"):
        text += b"\n"
    lines = text.split(b"\n")[:-1]
    if len(lines) != rows:
        return "count", len(lines)
    record = re.compile(rb"\[-?[0-9]+(,-?[0-9]+){%d}\]" % (width - 1))
    for i, line in enumerate(lines):
        if not record.fullmatch(line):
            return "record", i
    numbers = [[int(x) for x in line[1:-1].split(b",")] for line in lines]
    return "values", [
        [x if -INT64_MAX - 1 <= x <= INT64_MAX else INT64_MAX for x in row] for row in numbers
    ]


def loaded(text: bytes, rows: int, width: int):
    try:
        return "values", decoded(text, rows, width).tolist()
    except ParseError as e:
        if e.path == "t":
            return "count", int(e.reason.split()[0])
        return "record", int(re.fullmatch(r"t: runs\[(\d+)\]", e.path).group(1))


#: Bytes that a corruption writes: the record syntax's own and a few others.
CORRUPTIONS = [
    b"", b"0", b"7", b"-", b",", b"[", b"]", b"\n", b"\r", b" ", b"+", b"/", b":", b"\xff",
    b"--", b",,",
]


@pytest.mark.parametrize("seed", range(300))
def test_corrupted_tables_are_read_as_the_regular_expression_says(seed, monkeypatch):
    """One to three bytes of a table's text replaced, deleted or inserted:
    the decoder accepts exactly what the record syntax accepts, names the
    same first bad record, and reads the same numbers."""
    rng = np.random.default_rng(seed)
    monkeypatch.setattr(simulate, "RECORD_CHUNK", int(rng.choice([1, 2, 3, 7, 1024])))
    rows, width = int(rng.integers(1, 12)), int(rng.integers(1, 6))
    table = random_table(rng, rows, width) // 10 ** int(rng.integers(0, 19))
    text = bytearray(json_lines(table))
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(text)))
        put = CORRUPTIONS[int(rng.integers(0, len(CORRUPTIONS)))]
        text[at:at + int(rng.integers(0, 2))] = put
    text = bytes(text)
    assert loaded(text, rows, width) == record_oracle(text, rows, width), text


def loading_scratch(tmp_path, runs, periods=6, descriptors=5):
    """The tracemalloc peak of loading a mini-study-shaped ensemble of runs
    runs, less the bytes of the ensemble's arrays; the file's bytes; and
    a record's width."""
    rng = np.random.default_rng(runs)
    ensemble = EnsembleResult(
        "d" * 64, 1, tuple(range(2025, 2025 + 5 * periods, 5)),
        rng.integers(0, 3, (runs, periods, descriptors)).astype(np.int8),
        rng.random((runs, periods)) < 0.9, rng.integers(0, 101, (runs, periods)),
        np.full(runs, periods), {},
    )
    path = tmp_path / f"ensemble{runs}.jsonl"
    simulate.save_ensemble(ensemble, str(path))
    tracemalloc.start()
    try:
        loaded = load_ensemble(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == ensemble
    result = sum(array.nbytes for array in loaded._arrays())
    return peak - result, path.stat().st_size, 2 + periods * (descriptors + 2)


def test_loading_peak_memory_is_the_file_and_a_chunk_of_scratch_space(tmp_path):
    """Loading 40 000 runs takes, besides the ensemble's arrays, the file's
    bytes, 8 bytes a run to index the line ends and one chunk's scratch
    space (a reused int64 buffer and the decoder's temporaries, about 41
    bytes per number on this table); 10 000 runs take the same but for the
    file and the index. An int64 table of the whole file, at 8 bytes a
    number, does not fit."""
    scratch, size, width = loading_scratch(tmp_path, 40_000)
    assert 0 < scratch <= size + 8 * 40_000 + 48 * simulate.RECORD_CHUNK * width
    fewer, fewer_size, _ = loading_scratch(tmp_path, 10_000)
    assert scratch - fewer <= size - fewer_size + 8 * 30_000 + 64 * 1024, (scratch, fewer)


def test_rendering_a_chunk_takes_at_most_32_bytes_of_scratch_a_number():
    """The tracemalloc peak of rendering one RECORD_CHUNK chunk of
    mini-study records (run index, periods recorded, 30 states, 6 converged
    flags and 6 iteration counts), its output included: about 16 bytes a
    number."""
    rng = np.random.default_rng(3)
    n = simulate.RECORD_CHUNK
    rows = np.concatenate([
        np.arange(n)[:, None], np.full((n, 1), 6), rng.integers(0, 3, (n, 30)),
        rng.random((n, 6)) < 0.9, rng.integers(0, 101, (n, 6)),
    ], axis=1, dtype=np.int64)
    assert records(rows) == json_lines(rows)
    tracemalloc.start()
    try:
        records(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak <= 32 * rows.size, peak / rows.size
