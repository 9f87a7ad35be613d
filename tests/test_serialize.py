import json
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from latwig import cli, serialize, wigner
from oracles import candidate_operators, candidate_values, dense_table, dumps_json, fano_text, operator_text

# ---------------------------------------------------------------------------
# Reference emitter: the element-by-element serializer the template path
# replaced. Every artifact must stay byte-identical to what it writes.


def _reference_emit(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(serialize.format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _reference_emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _reference_emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def reference_dumps_json(obj):
    out = []
    _reference_emit(obj, out)
    out.append("\n")
    return "".join(out)


def _dense_records(table):
    """The record array s, t, n, m, re, im of every entry of a dense N^4 table."""
    return np.rec.fromarrays([*np.indices(table.shape).reshape(4, -1), table.real.ravel(), table.imag.ravel()],
                             names="s,t,n,m,re,im")


def _operator_record_array(ops):
    """The record array q, p, re (N, N), im (N, N) of an N^4 operator tensor, as the command line built it."""
    n = len(ops)
    records = np.empty(n * n, dtype=[("q", np.intp), ("p", np.intp), ("re", float, (n, n)), ("im", float, (n, n))])
    records["q"], records["p"] = np.indices((n, n)).reshape(2, -1)
    records["re"] = ops.real.reshape(n * n, n, n)
    records["im"] = ops.imag.reshape(n * n, n, n)
    return records


def _plain(obj):
    """The document as built before arrays were passed: lists, dicts and scalars."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.names is not None:
            # A subarray field's value comes back from tolist() as an ndarray.
            return [{k: _plain(v) for k, v in zip(obj.dtype.names, rec)} for rec in obj.tolist()]
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _dense_fano_document(doc):
    """A ``fano`` document with its record generators replaced by record arrays.

    The coefficients become the records of every entry of the dense
    candidate table, as the command line built them before it rendered them
    from the table's support, and the operators the records of the record
    array of the candidate's operator tensor, as it built them before it
    rendered them from codes and then from text strips.
    """
    n = doc["n"]
    return {**doc, "coefficients": _dense_records(dense_table(candidate_values(n))),
            "operators": _operator_record_array(candidate_operators(n))}


CLI_DOCUMENTS = [
    *[["fano", "--n", str(n)] for n in range(1, 10)],
    # N = 9 and 12 are the first sizes whose operators repeat many values across arrays.
    ["fano", "--n", "12"],
    ["check", "--n", "4"],
    ["check", "--n", "5"],
    ["wigner", "--n", "5", "--state", "random", "--seed", "3"],
    ["wigner", "--n", "5", "--state", "momentum:2"],
    ["marginal", "--n", "5", "--kappa", "2", "--lambda", "3", "--state", "random", "--seed", "3"],
    ["tomo", "--n", "5", "--shots", "0", "--seed", "2"],
    ["tomo", "--n", "5", "--shots", "1000", "--seed", "2"],
]


@pytest.mark.parametrize("argv", CLI_DOCUMENTS, ids=lambda argv: "-".join(argv).replace("--", ""))
def test_cli_artifacts_match_the_reference_emitter(tmp_path, monkeypatch, argv):
    docs = []
    write_json = serialize.write_json

    def capture(path, obj):
        docs.append(obj)
        return write_json(path, obj)

    monkeypatch.setattr(serialize, "write_json", capture)
    out = tmp_path / "artifact.json"
    assert cli.main([*argv, "--out", str(out)]) in (0, 1)
    assert len(docs) == 1
    doc = _dense_fano_document(docs[0]) if argv[0] == "fano" else docs[0]
    assert out.read_text() == reference_dumps_json(_plain(doc))


def _quoting_cases():
    """Strings that exercise every branch of JSON string escaping, and random mixes of them."""
    fixed = ["", '"', "\\", '\\"', 'a"b\\c/d', "Wigner ω^(2pk) – Σ 日本語 ñ", "\U0001F600", "\U0010FFFF",
             "\ud800", "\udfff", "\udc00\ud800", "\ud83d\ude00", "a\ud800b"]
    singles = [chr(c) for c in range(0x100)]  # every control character, DEL and Latin-1
    # Code point ranges: ASCII, control characters, 2- and 3-byte UTF-8, surrogates, the rest of the BMP, astral.
    ranges = np.array([(0, 0x80), (0, 0x20), (0x80, 0x800), (0x800, 0xD800), (0xD800, 0xE000), (0xE000, 0x10000),
                       (0x10000, 0x110000)])
    rng = np.random.default_rng(20011)
    lengths = rng.integers(1, 9, size=20_000)
    picked = rng.integers(len(ranges), size=lengths.sum())
    points = rng.integers(ranges[picked, 0], ranges[picked, 1]).tolist()
    ends = np.cumsum(lengths).tolist()
    mixed = ["".join(map(chr, points[start:end])) for start, end in zip([0, *ends[:-1]], ends)]
    return fixed + singles + mixed + [np.str_("numpy str")]


def test_strings_and_keys_are_quoted_as_json_dumps_quotes_them():
    """The writer quotes with the C function behind ``json.dumps``, without loading ``json``."""
    cases = _quoting_cases()
    assert len(cases) == 20_270
    for text in cases:
        assert serialize._quote(text) == json.dumps(text), repr(text)
    doc = {text: text for text in cases[:300]}
    assert dumps_json(doc) == json.dumps(doc, separators=(",", ":")) + "\n"


EDGE_VALUES = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 2 / 3, 1e16, 123456.789]


def test_edge_floats_match_the_reference_emitter():
    a = np.array(EDGE_VALUES)
    for shaped in (a, a.reshape(2, 5), a.reshape(5, 2).T):
        assert dumps_json(shaped) == reference_dumps_json(shaped.tolist())
    doc = {"values": a, "scalar": a[0], "nested": [a, {"x": a[::-1]}]}
    assert dumps_json(doc) == reference_dumps_json(_plain(doc))
    assert dumps_json(a).startswith("[-0,0,nan,inf,-inf,")


@pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3), (3, 1)])
def test_empty_arrays_match_the_reference_emitter(shape):
    a = np.full(shape, -0.0)
    assert dumps_json(a) == reference_dumps_json(a.tolist())


# ---------------------------------------------------------------------------
# 1-D and 2-D float64 arrays, blocks and streaming: every block size and
# array size gives the reference emitter's text, and the writer gets one
# block at a time.

# -0, quiet and signalling NaNs of both signs with payloads, both
# infinities, the smallest and largest subnormals.
SPECIAL_BITS = np.array([0x8000000000000000, 0x7FF8DEADBEEF0001, 0xFFF8000000000002, 0x7FF0000000000001,
                         0xFFF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000,
                         0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF], dtype=np.uint64)

# Array sizes: one and two values, fewer than the special floats; a prime,
# which reshapes only to one row or one column; and 1025, many blocks at the
# small BLOCK values the tests set.
SIZES = [1, 2, 23, 1025]

# Rows of each size's 2-D shape.
ROWS = {1: 1, 2: 2, 23: 23, 1025: 5}


def _special_values(size, seed=0):
    """size floats, repeats and distinct values, special floats planted at the front.

    An array shorter than the special floats gets those from index seed on,
    so that the seeds 0 to 9 plant each of them.
    """
    rng = np.random.default_rng(seed)
    a = np.where(rng.random(size) < 0.5, rng.choice([0.0, 1 / 3, -2.5, 1e-300], size), rng.standard_normal(size))
    special = np.roll(SPECIAL_BITS, -seed).view(np.float64)
    a[:len(special)] = special[:size]
    return a


def _special_arrays(size):
    """The arrays of size values that plant every special float."""
    return [_special_values(size, seed) for seed in range(len(SPECIAL_BITS) if size < len(SPECIAL_BITS) else 1)]


@pytest.mark.parametrize("size", SIZES)
def test_texts_are_the_per_float_texts(size):
    arrays = _special_arrays(size)
    planted = np.concatenate(arrays).view(np.uint64)
    assert set(SPECIAL_BITS.tolist()) <= set(planted.tolist())
    for a in arrays:
        grid = a.reshape(ROWS[size], -1)
        for shaped in (a, grid, grid.T):
            assert serialize._texts(shaped) == [serialize.format_float(x) for x in shaped.ravel()]


@pytest.mark.parametrize("block", [1, 2, 7, serialize.BLOCK])
@pytest.mark.parametrize("size", SIZES)
def test_special_floats_match_the_reference_emitter(monkeypatch, block, size):
    """1-D and 2-D arrays, C-ordered and transposed, of one value to several blocks."""
    monkeypatch.setattr(serialize, "BLOCK", block)
    for a in _special_arrays(size):
        grid = a.reshape(ROWS[size], -1)
        for shaped in (a, grid, grid.T, a[::-1], a[:1], grid[:1], grid[:, :1]):
            assert dumps_json(shaped) == reference_dumps_json(shaped.tolist())
        assert _matches_reference({"rows": grid, "again": grid[-1], "none": grid[:0]})


def _block_document(plain=False):
    """A document of every kind of array and the N = 3 operator records; with plain, those are a record array."""
    rng = np.random.default_rng(2)
    return {"ops": _operator_record_array(candidate_operators(3)) if plain else serialize.operator_records(3),
            "rows": rng.choice([-0.0, 0.25, np.nan], (11, 2)), "vec": rng.standard_normal(9),
            "grid": rng.standard_normal((4, 3)), "one": np.ones((1, 1)), "empty": np.zeros((2, 0)),
            "list": [np.arange(3.0), {"x": np.zeros((2, 2))}]}


@pytest.mark.parametrize("block", [1, 2, 7])
def test_any_block_size_gives_the_reference_text(tmp_path, monkeypatch, block):
    expected = reference_dumps_json(_plain(_block_document(plain=True)))
    monkeypatch.setattr(serialize, "BLOCK", block)
    assert dumps_json(_block_document()) == expected
    serialize.write_json(str(tmp_path / "doc.json"), _block_document())
    assert (tmp_path / "doc.json").read_text() == expected
    out = tmp_path / "fano.json"
    assert cli.main(["fano", "--n", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (len(doc["coefficients"]), len(doc["operators"])) == (4**4, 4**2)


def _spy_on_chunks(monkeypatch, events):
    """The chunks that _write gets, in order; each is also logged to events as "chunk"."""
    chunks = []

    def produced(texts):
        for text in texts:
            chunks.append(text)
            events.append("chunk")
            yield text

    write = serialize._write
    monkeypatch.setattr(serialize, "_write", lambda path, texts: write(path, produced(texts)))
    return chunks


# Each float of these arrays is written "0.10000000000000001", so a chunk's
# count of that text is its count of values.
TENTH = serialize.format_float(0.1)


@pytest.mark.parametrize("block", [1, 2, 7, serialize.BLOCK])
def test_write_gets_at_most_one_block_per_chunk(tmp_path, monkeypatch, block):
    """Every chunk that _write gets from write_json or write_grid_csv holds at most one block:
    at most BLOCK values, or one row where that is more. The widest row holds 20 values. The
    operator records pass through the same chunks (their blocks are counted by
    test_operator_records_stream_blocks_of_block_pieces). _write writes each chunk's bytes with
    one call, and starts before the last chunk exists."""
    monkeypatch.setattr(serialize, "BLOCK", block)
    events = _spy_on_writes(monkeypatch)  # the size of each write, and each chunk produced
    chunks = _spy_on_chunks(monkeypatch, events)
    rows, wide = np.full((300, 3), 0.1), np.full((2, 20), 0.1)

    def document():
        return {"n": 3, "rows": rows, "wide": wide, "vec": np.full(5, 0.1),
                "ops": serialize.operator_records(3), "after": "x"}

    target = tmp_path / "out"
    for write, obj, text in ((serialize.write_json, document(), dumps_json(document())),
                             (serialize.write_grid_csv, rows, _reference_grid_csv(rows)),
                             (serialize.write_grid_csv, wide, _reference_grid_csv(wide))):
        events.clear()
        chunks.clear()
        write(str(target), obj)
        assert target.read_bytes() == text.encode("utf-8") and "".join(chunks) == text
        assert max(chunk.count(TENTH) for chunk in chunks) <= max(block, 20)
        sizes = [e for e in events if e != "chunk"]
        assert sizes == [len(chunk.encode("utf-8")) for chunk in chunks]
        if len(chunks) > 1:
            assert events.index(sizes[0]) < len(events) - 1 - events[::-1].index("chunk")
        if obj is rows:
            assert len(chunks) == math.ceil(len(rows) / max(1, block // 3))


# ---------------------------------------------------------------------------
# Support records: the fano coefficients rendered from the N^2 values of a
# table that is zero off (n, m) = (t, s), checked against its dense records.


@pytest.mark.parametrize("n", range(1, 13))
def test_support_records_match_the_dense_records(monkeypatch, n):
    records = _dense_records(dense_table(candidate_values(n)))
    expected = reference_dumps_json({"c": _plain(records), "after": 0.25})
    for block in (1, 5, 64, serialize.BLOCK):
        monkeypatch.setattr(serialize, "BLOCK", block)
        assert dumps_json({"c": serialize.support_records(n), "after": 0.25}) == expected


def test_support_records_stream_one_s_slab_per_block():
    n = 5
    chunks = list(serialize.support_records(n))
    assert chunks[0] == "[" and chunks[-1] == "]" and len(chunks) == n + 2
    for s, chunk in enumerate(chunks[1:-1]):
        records = json.loads("[" + chunk.removeprefix(",") + "]")
        assert len(records) == n**3 and {r["s"] for r in records} == {s}


def test_support_records_stream_at_most_block_records_per_block(monkeypatch):
    """Below N^3 records in BLOCK, a block holds BLOCK // N^2 (s, t) slabs of one s, at least one."""
    n = 5
    for block, per_block in ((1, 1), (2 * n * n + 1, 2)):
        monkeypatch.setattr(serialize, "BLOCK", block)
        chunks = list(serialize.support_records(n))
        assert chunks[0] == "[" and chunks[-1] == "]" and len(chunks) == n * math.ceil(n / per_block) + 2
        heads = [(s, t) for s in range(n) for t in range(0, n, per_block)]
        for (s, t), chunk in zip(heads, chunks[1:-1]):
            records = json.loads("[" + chunk.removeprefix(",") + "]")
            stop = min(t + per_block, n)
            assert [(r["s"], r["t"]) for r in records[::n * n]] == [(s, k) for k in range(t, stop)]
            assert len(records) == (stop - t) * n * n


def test_support_records_hold_a_bounded_block():
    """The traced peak of streaming the N = 51 coefficients is one block of about BLOCK
    records, 2.2 MiB; one s-slab of N^3 records per block traced 16.8 MiB."""
    tracemalloc.start()
    try:
        for _ in serialize.support_records(51):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# Operator records: the fano operators rendered from one text strip per
# (i - q, p), checked against the record array the command line built before
# and against the renderer that took the complex tensor.


@pytest.mark.parametrize("n", range(1, 8))
def test_operator_records_match_the_record_array(monkeypatch, n):
    records = _operator_record_array(candidate_operators(n))
    expected = reference_dumps_json({"o": _plain(records), "after": 0.25})
    for block in (1, 4 * n * n + 1, 100, serialize.BLOCK):
        monkeypatch.setattr(serialize, "BLOCK", block)
        assert dumps_json({"o": serialize.operator_records(n), "after": 0.25}) == expected


def test_operator_records_stream_blocks_of_block_pieces(monkeypatch):
    """A record is 2 N^2 + 1 pieces: its head and its 2 N^2 floats. A block holds as many
    whole records as fit in BLOCK pieces, at least one."""
    n = 5
    for block, per_block in ((1, 1), (2 * n * n + 1, 1), (3 * (2 * n * n + 1) + 2, 3)):
        monkeypatch.setattr(serialize, "BLOCK", block)
        chunks = list(serialize.operator_records(n))
        assert chunks[0] == "[" and chunks[-1] == "]" and len(chunks) == math.ceil(n * n / per_block) + 2
        blocks = [json.loads("[" + chunk.removeprefix(",") + "]") for chunk in chunks[1:-1]]
        assert [len(records) for records in blocks[:-1]] == [per_block] * (len(blocks) - 1)
        records = [r for records in blocks for r in records]
        assert [(r["q"], r["p"]) for r in records] == [divmod(k, n) for k in range(n * n)]


def test_writing_the_fano_document_holds_a_bounded_transient(tmp_path):
    """The traced peak of writing the N = 21 artifact does not grow with N^4: it is the
    operators' O(N^3) text strips and one block of records, 1.2 MiB in all, and no text
    outlives the array or block it was formatted for."""
    doc = cli._fano_document(21)
    tracemalloc.start()
    try:
        serialize.write_json(str(tmp_path / "fano.json"), doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _assert_same_text(got, want):
    """Compared as bytes, so that a failure names the first differing byte instead of diffing megabytes."""
    got, want = np.frombuffer(got.encode(), np.uint8), np.frombuffer(want.encode(), np.uint8)
    size = min(len(got), len(want))
    first = int(np.argmax(got[:size] != want[:size])) if (got[:size] != want[:size]).any() else size
    assert first == len(got) == len(want), (first, len(got), len(want), got[first:first + 60].tobytes())


@pytest.mark.parametrize("n", range(1, 41))
def test_operator_text_is_the_tensor_renderers_text(n):
    """The records rendered from the text strips are, byte for byte, those the former
    renderer wrote from the candidate's operator tensor."""
    _assert_same_text("".join(serialize.operator_records(n)), operator_text(candidate_operators(n)))


@pytest.mark.parametrize("n", range(1, 24))
def test_fano_artifact_is_the_dense_oracles_text(tmp_path, n):
    """The whole `fano` artifact, written from plain-Python phases, is the text rendered from the
    candidate's dense N^4 table and its scattered operator tensor."""
    out = tmp_path / "fano.json"
    assert cli.main(["fano", "--n", str(n), "--out", str(out)]) == 0
    _assert_same_text(out.read_text(), fano_text(n))


@pytest.mark.parametrize("n", [40, 41, 50, 51])
def test_rendering_the_operators_traces_o_n3_text(n):
    """Building the strips and rendering every block traces under 96 N^3 bytes, under a quarter
    of the 16 N^4-byte tensor the operators were once rendered from (39 MiB at N = 40). The
    strips hold 2 N^2 doubled rows of texts: about 80 N^3 bytes at even N, where half the
    texts are floats, and 26 at odd N, where a row holds one."""
    tracemalloc.start()
    try:
        for _ in serialize.operator_records(n):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * n**3 < 4 * n**4


@pytest.mark.parametrize("a", [
    np.zeros(3, dtype=complex),
    np.zeros((2, 2), dtype=bool),
    np.array([1.0, None], dtype=object),
    np.zeros(2, dtype=[("z", complex)]),
    np.zeros(2, dtype=[("b", bool)]),
    np.zeros(2, dtype=[("v", np.int64, 3)]),
    np.zeros(2, dtype=[("v", complex, (2, 2))]),
    np.zeros((2, 2), dtype=[("x", float)]),
    np.zeros(2, dtype=[("s", np.intp), ("re", float)]),
    np.zeros(2, dtype=[("re", float, (2, 2))]),
    np.zeros(2, dtype=[("e", float, (2, 0))]),
    np.zeros(2, dtype=np.intp),
    np.array(0.5),
    np.zeros((2, 2, 2)),
    np.zeros((2, 0, 3)),
    np.zeros(3, dtype=np.float32),
    np.zeros((2, 2), dtype=np.float32),
    np.zeros((2, 2), dtype=complex),
    np.zeros(3, dtype=">f8"),
], ids=["complex", "bool", "object", "complex-field", "bool-field", "int-subarray-field",
        "complex-subarray-field", "2d-records", "int-and-float-fields", "float-subarray-field",
        "empty-subarray-field", "int", "0d", "3d", "empty-3d", "float32", "2d-float32", "2d-complex",
        "big-endian"])
def test_unsupported_arrays_raise_type_error(a):
    with pytest.raises(TypeError):
        dumps_json({"a": a})


# ---------------------------------------------------------------------------
# Texts are keyed by bit pattern, within one call and kept by none: values
# that compare equal but print differently.


def _matches_reference(doc):
    return dumps_json(doc) == reference_dumps_json(_plain(doc))


@pytest.mark.parametrize("first, later", [(-0.0, 0.0), (0.0, -0.0)])
def test_signed_zeros_in_later_arrays_keep_their_sign(first, later):
    doc = {"a": np.full((2, 3), first), "b": np.array([later, first, later])}
    assert _matches_reference(doc)
    f, x = serialize.format_float(first), serialize.format_float(later)
    assert dumps_json(doc) == f'{{"a":[[{f},{f},{f}],[{f},{f},{f}]],"b":[{x},{f},{x}]}}\n'


def test_nans_of_every_sign_and_payload_match_the_reference_emitter():
    bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF0000000000001, 0x7FF8DEADBEEF0001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    nans = bits.view(np.float64)
    assert np.isnan(nans).all()
    doc = {"a": nans, "b": nans[::-1].reshape(2, 3), "c": np.concatenate([nans, [0.0, -0.0]])}
    assert _matches_reference(doc)


def test_no_text_outlives_a_dump(tmp_path):
    assert dumps_json(np.array([0.0])) == "[0]\n"
    assert dumps_json(np.array([-0.0])) == "[-0]\n"
    assert dumps_json(np.array([0.0])) == "[0]\n"
    assert serialize._texts(np.array([0.0, 0.0])) == ["0", "0"]
    assert serialize._texts(np.array([-0.0, 0.0])) == ["-0", "0"]
    doc = {"a": np.array([0.5, -0.0]), "b": np.array([[0.5]])}
    assert dumps_json(doc) == dumps_json(doc) == '{"a":[0.5,-0],"b":[[0.5]]}\n'
    serialize.write_json(str(tmp_path / "doc.json"), doc)
    assert (tmp_path / "doc.json").read_text() == '{"a":[0.5,-0],"b":[[0.5]]}\n'


def _reference_grid_csv(values):
    lines = [",".join(serialize.format_float(x) for x in row) for row in np.asarray(values)]
    return "\n".join(lines) + "\n"


def _reference_marginal_csv(weights):
    lines = ["p0,weight"]
    lines.extend(f"{p0},{serialize.format_float(w)}" for p0, w in enumerate(weights))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block", [1, 2, 7, serialize.BLOCK])
@pytest.mark.parametrize("size", SIZES)
def test_csv_writers_match_the_per_float_join(tmp_path, monkeypatch, block, size):
    """The streamed grid and marginal writers write the whole-text references, at widths 1 and 3,
    wider than a block, and empty."""
    monkeypatch.setattr(serialize, "BLOCK", block)
    path = tmp_path / "out.csv"
    for a in _special_arrays(size):
        grids = [a.reshape(-1, 1), np.resize(a, 3 * size).reshape(-1, 3), np.resize(a, (2, block + 1)),
                 a.reshape(ROWS[size], -1), a.reshape(ROWS[size], -1).T, np.zeros((2, 0))]
        for values in grids:
            serialize.write_grid_csv(str(path), values)
            assert path.read_text() == _reference_grid_csv(values)
        for weights in (a, list(a), a[::-1]):
            serialize.write_marginal_csv(str(path), weights)
            assert path.read_text() == _reference_marginal_csv(weights)
    # A grid of no rows is an empty file, where the reference's join writes one newline.
    serialize.write_grid_csv(str(path), np.zeros((0, 3)))
    assert path.read_text() == ""
    edge = np.array(EDGE_VALUES)
    serialize.write_grid_csv(str(path), edge.reshape(2, 5))
    assert path.read_text().startswith("-0,0,nan,inf,-inf\n")
    serialize.write_marginal_csv(str(path), edge)
    assert path.read_text().splitlines()[1] == "0,-0"


def test_writing_a_csv_grid_holds_a_bounded_transient(tmp_path):
    """The traced peak of writing the N = 1001 grid of random floats is about one block of
    BLOCK values, 3.7 MiB; the whole text, built before it was written, traced 119 MiB."""
    values = np.random.default_rng(4).standard_normal((1001, 1001))
    tracemalloc.start()
    try:
        serialize.write_grid_csv(str(tmp_path / "grid.csv"), values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert (tmp_path / "grid.csv").stat().st_size > 1001 * 1001 * 18


def test_wigner_csv_companions_match_the_per_float_join(tmp_path):
    out = tmp_path / "w.csv"
    assert cli.main(["wigner", "--n", "5", "--state", "random", "--seed", "4",
                     "--format", "csv", "--out", str(out)]) == 0
    rho = cli.parse_state("random", 5, 4)
    grid = wigner.wigner_from_density(rho)
    assert out.read_text() == _reference_grid_csv(grid.values.real)
    assert (tmp_path / "w_marginal_q.csv").read_text() == _reference_marginal_csv(grid.values.real.sum(axis=1))
    assert (tmp_path / "w_marginal_p.csv").read_text() == _reference_marginal_csv(grid.values.real.sum(axis=0))
    assert not (tmp_path / "w_imag.csv").exists()


def test_write_failed_replace_leaves_target_and_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old\n")

    def fail(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(serialize.os, "replace", fail)
    with pytest.raises(OSError, match="simulated"):
        serialize._write(str(target), ["new\n"])
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_write_bounds_the_temp_name_in_bytes(tmp_path):
    """A 252-byte name of 2-byte characters: the temp name is cut by bytes,
    not characters, so it fits in NAME_MAX (255) like the target."""
    name = "\u00e9" * 125 + ".j"
    serialize._write(str(tmp_path / name), ["new\n"])
    assert os.listdir(tmp_path) == [name]
    assert (tmp_path / name).read_text() == "new\n"


def test_write_json_failing_mid_document_leaves_target_and_no_temp(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old\n")
    doc = {"rows": np.zeros((5000, 2)), "bad": np.zeros(2, dtype=complex)}
    with pytest.raises(TypeError):
        serialize.write_json(str(target), doc)
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.json"]


class _WriteSpy:
    """A binary file whose write calls record the size of their data."""

    def __init__(self, fh, sizes):
        self.fh = fh
        self.sizes = sizes

    def __enter__(self):
        self.fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def fileno(self):
        return self.fh.fileno()

    def write(self, data):
        self.sizes.append(len(data))
        return self.fh.write(data)


def _spy_on_writes(monkeypatch):
    sizes = []
    monkeypatch.setattr(serialize, "open", lambda *a, **k: _WriteSpy(open(*a, **k), sizes), raising=False)
    return sizes


def test_write_writes_the_utf8_bytes_one_chunk_at_a_time(tmp_path, monkeypatch):
    """Each write call gets the bytes of one chunk, and the file holds
    exactly the UTF-8 encoding of the chunks' text."""
    sizes = _spy_on_writes(monkeypatch)
    target = tmp_path / "a.json"
    for chunks in ([], [""], ["ab"], ["a", "", "bc"], ["x\u20acy", "\U0001f600z\n"] * 5):
        sizes.clear()
        serialize._write(str(target), iter(chunks))
        assert target.read_bytes() == "".join(chunks).encode("utf-8")
        assert sizes == [len(chunk.encode("utf-8")) for chunk in chunks]


def _umask():
    umask = os.umask(0)
    os.umask(umask)
    return umask


def _open_mode(directory):
    probe = directory / "probe"
    probe.write_text("x\n")
    mode = probe.stat().st_mode
    probe.unlink()
    return mode


def test_write_gives_the_mode_open_would(tmp_path):
    serialize._write(str(tmp_path / "a.json"), ["x\n"])
    assert (tmp_path / "a.json").stat().st_mode == _open_mode(tmp_path)


def test_write_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # The umask is process-wide: setting it per write races between threads.
    def forbidden(mask):
        raise AssertionError("_write changed the process umask")

    monkeypatch.setattr(serialize.os, "umask", forbidden)
    serialize._write(str(tmp_path / "a.json"), ["x\n"])
    assert (tmp_path / "a.json").read_text() == "x\n"


def test_concurrent_writers_leave_one_complete_payload(tmp_path):
    target = tmp_path / "out.json"
    payloads = [f"{k}:" + str(k) * 200_000 + "\n" for k in range(8)]
    errors = []
    umask = _umask()

    def writer(text):
        try:
            for _ in range(5):
                serialize._write(str(target), [text])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert target.read_text() in payloads
    assert os.listdir(tmp_path) == ["out.json"]
    assert _umask() == umask
    assert target.stat().st_mode == _open_mode(tmp_path)
