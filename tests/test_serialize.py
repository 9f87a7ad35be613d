import json
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from latwig import cli, fano, serialize, wigner
from oracles import candidate_operators, dense_table, dumps_json, operator_text, tensor_records

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
    """The document as built before arrays were passed: lists, dicts and scalars.

    The ``fano`` coefficients become the records of every entry of the dense
    candidate table, as the command line built them before it rendered
    them from the table's support, and the operators the records of the
    record array of their tensor, each entry the value of its code, as it
    built them before it rendered them from codes.
    """
    if isinstance(obj, serialize.SupportRecords):
        return _plain(_dense_records(dense_table(fano.coefficients_candidate(len(obj.re)))))
    if isinstance(obj, serialize.OperatorRecords):
        n = obj.n
        return _plain(_operator_record_array(obj.values[obj.codes(slice(0, n * n))].reshape((n,) * 4)))
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
    assert out.read_text() == reference_dumps_json(_plain(docs[0]))


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_edge_floats_match_the_reference_emitter(dtype):
    a = np.array(EDGE_VALUES, dtype=dtype)
    for shaped in (a, a.reshape(2, 5), a.reshape(5, 2).T, a.reshape(1, 2, 5)):
        assert dumps_json(shaped) == reference_dumps_json(shaped.tolist())
    doc = {"values": a, "scalar": a[0], "nested": [a, {"x": a[::-1]}]}
    assert dumps_json(doc) == reference_dumps_json(_plain(doc))
    assert dumps_json(a).startswith("[-0,0,nan,inf,-inf,")


@pytest.mark.parametrize("shape", [(), (0,), (2, 0), (0, 3), (2, 0, 3), (3, 1)])
def test_zero_dimensional_and_empty_arrays(shape):
    a = np.full(shape, -0.0)
    assert dumps_json(a) == reference_dumps_json(a.tolist())


# ---------------------------------------------------------------------------
# Rows of any shape, blocks and streaming: every block size and write chunk
# gives the reference emitter's text.

# Per float dtype: -0, quiet and signalling NaNs of both signs with payloads,
# the smallest and largest subnormals.
SPECIAL_BITS = {
    np.float64: np.array([0x8000000000000000, 0x7FF8DEADBEEF0001, 0xFFF0000000000001,
                          0x0000000000000001, 0x000FFFFFFFFFFFFF], dtype=np.uint64),
    np.float32: np.array([0x80000000, 0x7FC0BEEF, 0xFFC00001, 0xFF800001, 0x7F800001,
                          0x00000001, 0x007FFFFF], dtype=np.uint32),
}


def _special_rows(k, shape, dtype, seed=0):
    """k rows of a shape, special floats planted at the front."""
    a = np.random.default_rng(seed).choice([0.0, 1 / 3, -2.5, 1e-300], (k, *shape)).astype(dtype)
    special = SPECIAL_BITS[dtype].view(dtype)
    a.reshape(-1)[:len(special)] = special[:a.size]
    return a


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(1,), (4,), (1, 1), (3, 3), (2, 3, 2)])
def test_rows_of_special_floats_match_the_reference_emitter(dtype, shape):
    a = _special_rows(6, shape, dtype)
    assert np.isnan(a).any() and (np.signbit(a) & (a == 0)).any()
    assert _matches_reference({"rows": a, "again": a[1], "none": a[:0]})
    assert dumps_json(a[:0]) == "[]\n"


def _block_document():
    rng = np.random.default_rng(2)
    return {"ops": tensor_records(_operator_tensor(3, seed=3)),
            "rows": rng.choice([-0.0, 0.25, np.nan], (11, 2)), "f32": rng.standard_normal(11).astype(np.float32),
            "vec": rng.standard_normal(9), "grid": rng.standard_normal((4, 3)),
            "cube": rng.choice([1.0, -0.0], (3, 2, 4)), "one": np.ones((1, 1)), "empty": np.zeros((2, 0)),
            "scalar": np.array(0.5), "list": [np.arange(3.0), {"x": np.zeros((2, 2))}]}


@pytest.mark.parametrize("block", [1, 2, 7])
def test_any_block_size_gives_the_reference_text(tmp_path, monkeypatch, block):
    doc = _block_document()
    expected = reference_dumps_json(_plain(doc))
    monkeypatch.setattr(serialize, "BLOCK", block)
    monkeypatch.setattr(serialize, "OPERATOR_BLOCK", block)
    assert dumps_json(doc) == expected
    serialize.write_json(str(tmp_path / "doc.json"), doc)
    assert (tmp_path / "doc.json").read_text() == expected
    out = tmp_path / "fano.json"
    assert cli.main(["fano", "--n", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (len(doc["coefficients"]), len(doc["operators"])) == (4**4, 4**2)


def test_write_json_streams_blocks_in_chunks_smaller_than_a_block(tmp_path, monkeypatch):
    """The file equals dumps_json; no write holds more than WRITE_CHUNK
    characters, the writer is handed one block, or one record, at a time,
    and the file is written while the text is still being produced."""
    doc = _block_document()
    doc["rows"] = np.zeros((3000, 2))
    monkeypatch.setattr(serialize, "BLOCK", 7)
    monkeypatch.setattr(serialize, "OPERATOR_BLOCK", 7)
    monkeypatch.setattr(serialize, "WRITE_CHUNK", 5)
    events = _spy_on_writes(monkeypatch)  # the size of each write, and each chunk produced
    chunks = []

    def produced(texts):
        for text in texts:
            chunks.append(text)
            events.append("chunk")
            yield text

    write = serialize._write
    monkeypatch.setattr(serialize, "_write", lambda path, texts: write(path, produced(texts)))
    target = tmp_path / "doc.json"
    serialize.write_json(str(target), doc)
    text = dumps_json(doc)
    assert target.read_bytes() == text.encode("utf-8")
    sizes = [e for e in events if e != "chunk"]
    assert max(sizes) <= 5 and sum(sizes) == len(text)
    assert events.index(sizes[0]) < len(events) - 1 - events[::-1].index("chunk")
    assert "".join(chunks) == text
    # The longest is one record of "ops", its two 3 x 3 parts of 17-digit floats.
    assert max(map(len, chunks)) < 500 and len(chunks) > 3000 // 3


# ---------------------------------------------------------------------------
# Support records: the fano coefficients rendered from the N^2 values of a
# table that is zero off (n, m) = (t, s), checked against its dense records.


def _support_values(n, seed):
    """Random N x N support values with -0, NaNs and repeats planted, and the dense table they fill."""
    rng = np.random.default_rng(seed)
    values = rng.choice([0.25, -0.0, 0.0, 1 / 3], (n, n)) + 1j * rng.standard_normal((n, n))
    flat = values.reshape(-1)
    flat[:3] = [complex(-0.0, np.nan), complex(np.nan, -0.0), complex(5e-324, -np.inf)][:flat.size]
    s, t = np.indices((n, n))
    table = np.zeros((n, n, n, n), dtype=complex)
    table[s, t, t, s] = values
    return values, table


@pytest.mark.parametrize("n", range(1, 13))
def test_support_records_match_the_dense_records(monkeypatch, n):
    values, table = _support_values(n, seed=n)
    grid = serialize.SupportRecords(values.real, values.imag)
    records = _dense_records(table)
    expected = reference_dumps_json({"c": _plain(records), "after": 0.25})
    for block in (1, 5, 64, serialize.BLOCK):
        monkeypatch.setattr(serialize, "BLOCK", block)
        assert dumps_json({"c": grid, "after": 0.25}) == expected


def test_support_records_stream_one_s_slab_per_block():
    n = 5
    values = np.random.default_rng(1).standard_normal((n, n, 2)) @ [1, 1j]
    chunks = list(serialize._support_chunks(serialize.SupportRecords(values.real, values.imag), {}))
    assert chunks[0] == "[" and chunks[-1] == "]" and len(chunks) == n + 2
    for s, chunk in enumerate(chunks[1:-1]):
        records = json.loads("[" + chunk.removeprefix(",") + "]")
        assert len(records) == n**3 and {r["s"] for r in records} == {s}
    assert dumps_json(serialize.SupportRecords(np.zeros((0, 0)), np.zeros((0, 0)))) == "[]\n"
    with pytest.raises(TypeError):
        dumps_json(serialize.SupportRecords(np.zeros((2, 2)), np.zeros((2, 3))))


def test_support_records_stream_at_most_block_records_per_block(monkeypatch):
    """Below N^3 records in BLOCK, a block holds BLOCK // N^2 (s, t) slabs of one s, at least one."""
    n = 5
    values = np.random.default_rng(1).standard_normal((n, n, 2)) @ [1, 1j]
    for block, per_block in ((1, 1), (2 * n * n + 1, 2)):
        monkeypatch.setattr(serialize, "BLOCK", block)
        chunks = list(serialize._support_chunks(serialize.SupportRecords(values.real, values.imag), {}))
        assert chunks[0] == "[" and chunks[-1] == "]" and len(chunks) == n * math.ceil(n / per_block) + 2
        heads = [(s, t) for s in range(n) for t in range(0, n, per_block)]
        for (s, t), chunk in zip(heads, chunks[1:-1]):
            records = json.loads("[" + chunk.removeprefix(",") + "]")
            stop = min(t + per_block, n)
            assert [(r["s"], r["t"]) for r in records[::n * n]] == [(s, k) for k in range(t, stop)]
            assert len(records) == (stop - t) * n * n


def test_support_records_hold_a_bounded_block():
    """The traced peak of streaming the N = 51 coefficients is one block of about BLOCK
    records, 8.4 MiB; one s-slab of N^3 records per block traced 16.8 MiB."""
    n = 51
    values = np.random.default_rng(2).standard_normal((n, n, 2)) @ [1, 1j]
    grid = serialize.SupportRecords(values.real, values.imag)
    tracemalloc.start()
    try:
        for _ in serialize._support_chunks(grid, {}):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


# ---------------------------------------------------------------------------
# Operator records: the fano operators rendered from a value table and a code
# per entry, checked against the record array the command line built before
# and against the renderer that took the complex tensor.


def _operator_tensor(n, seed):
    """A random complex N^4 tensor with -0, NaNs, an infinity and repeats planted."""
    rng = np.random.default_rng(seed)
    ops = rng.choice([0.25, -0.0, 0.0, 1 / 3], (n,) * 4) + 1j * rng.standard_normal((n,) * 4)
    flat = ops.reshape(-1)
    flat[:3] = [complex(-0.0, np.nan), complex(np.nan, -0.0), complex(5e-324, -np.inf)][:flat.size]
    return ops


@pytest.mark.parametrize("n", range(1, 8))
def test_operator_records_match_the_record_array(monkeypatch, n):
    ops = _operator_tensor(n, seed=n)
    records = _operator_record_array(ops)
    expected = reference_dumps_json({"o": _plain(records), "after": 0.25})
    for block in (1, 4 * n * n + 1, 100, serialize.OPERATOR_BLOCK):
        monkeypatch.setattr(serialize, "OPERATOR_BLOCK", block)
        assert dumps_json({"o": tensor_records(ops), "after": 0.25}) == expected
    real = ops.real.copy()
    expected = reference_dumps_json(_plain(_operator_record_array(real.astype(complex))))
    assert dumps_json(tensor_records(real)) == expected


def test_operator_records_stream_blocks_of_operator_block_pieces(monkeypatch):
    """A record is 2 N^2 + 1 pieces: its head, then the 2 N^2 floats, each a text fused
    with the separator after it. A block holds as many whole records as fit in
    OPERATOR_BLOCK pieces, at least one."""
    n = 5
    ops = np.random.default_rng(1).standard_normal((n, n, n, n, 2)) @ [1, 1j]
    for block, per_block in ((1, 1), (2 * n * n + 1, 1), (3 * (2 * n * n + 1) + 2, 3)):
        monkeypatch.setattr(serialize, "OPERATOR_BLOCK", block)
        chunks = list(serialize._operator_chunks(tensor_records(ops), {}))
        assert chunks[0] == "[" and chunks[-1] == "]" and len(chunks) == math.ceil(n * n / per_block) + 2
        records = [r for chunk in chunks[1:-1] for r in json.loads("[" + chunk.rstrip(",") + "]")]
        assert [(r["q"], r["p"]) for r in records] == [divmod(k, n) for k in range(n * n)]
    assert dumps_json(tensor_records(np.zeros((0, 0, 0, 0), dtype=complex))) == "[]\n"
    with pytest.raises(TypeError):
        tensor_records(np.zeros((2, 2, 2, 3), dtype=complex))
    codes = np.zeros((4, 2, 2), dtype=np.intp).__getitem__
    for values in (np.zeros((2, 2)), np.zeros(3, dtype=np.intp), np.zeros(3, dtype=object)):
        with pytest.raises(TypeError):
            dumps_json(serialize.OperatorRecords(2, values, codes))


def test_writing_the_fano_document_holds_a_bounded_transient(tmp_path):
    """The traced peak of writing the N = 21 artifact does not grow with N^4. It is the text
    cache, at most BLOCK texts (about 10 MiB, which N = 21 fills), and one block of records;
    the operators are held as their 22 distinct values and codes, not as a 3 MiB tensor."""
    doc = cli._fano_document(21)
    tracemalloc.start()
    try:
        serialize.write_json(str(tmp_path / "fano.json"), doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("n", range(1, 41))
def test_operator_text_is_the_tensor_renderers_text(n):
    """The records rendered from the closed form's codes are, byte for byte, those the former
    renderer wrote from the candidate's operator tensor."""
    records = serialize.OperatorRecords(n, *fano.candidate_operator_codes(n))
    got, want = "".join(serialize._operator_chunks(records, {})), operator_text(candidate_operators(n))
    # Compared as bytes, so that a failure names the first differing byte instead of diffing megabytes.
    got, want = np.frombuffer(got.encode(), np.uint8), np.frombuffer(want.encode(), np.uint8)
    size = min(len(got), len(want))
    first = int(np.argmax(got[:size] != want[:size])) if (got[:size] != want[:size]).any() else size
    assert first == len(got) == len(want), (first, len(got), len(want), got[first:first + 60].tobytes())


@pytest.mark.parametrize("n", [40, 41])
def test_rendering_the_operators_traces_under_a_quarter_of_the_tensor(n):
    """Building the codes and rendering every block traces under 4 N^4 bytes: a quarter of the
    16 N^4-byte tensor the operators were rendered from, which alone took 39 MiB at N = 40."""
    tracemalloc.start()
    try:
        for _ in serialize._operator_chunks(serialize.OperatorRecords(n, *fano.candidate_operator_codes(n)), {}):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n**4


# ---------------------------------------------------------------------------
# The text cache is bounded: it is cleared when a call's new patterns would
# take it past BLOCK entries, and the texts stay the reference emitter's.


def test_text_cache_is_cleared_past_block_entries_and_keeps_the_text(monkeypatch):
    rng = np.random.default_rng(7)
    specials = np.concatenate([[0.0, -0.0], SPECIAL_BITS[np.float64].view(np.float64),
                               np.array([0x7FF8000000000000, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)])

    def planted(k):
        a = rng.standard_normal(k)
        a[rng.choice(k, len(specials), replace=False)] = specials
        return a

    ops = np.empty((4,) * 4, dtype=complex)
    ops.real = planted(256).reshape(ops.shape)
    ops.imag = planted(256).reshape(ops.shape)
    values, table = _support_values(6, seed=9)
    doc = {"a": planted(400), "ops": tensor_records(ops), "grid": planted(300).reshape(20, 15),
           "support": serialize.SupportRecords(values.real, values.imag),
           "again": ops.real.ravel()[::-1].copy(), "small": specials[::-1].copy()}
    expected = reference_dumps_json(_plain({**doc, "support": _dense_records(table)}))
    monkeypatch.setattr(serialize, "BLOCK", 16)
    sizes = []
    texts = serialize._texts

    def spy(a, cache):
        result = texts(a, cache)
        distinct = len(np.unique(np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)))
        sizes.append(len(cache))
        assert len(cache) <= max(16, distinct)
        return result

    monkeypatch.setattr(serialize, "_texts", spy)
    assert dumps_json(doc) == expected
    assert sum(later < earlier for earlier, later in zip(sizes, sizes[1:])) > 10  # cleared many times


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
], ids=["complex", "bool", "object", "complex-field", "bool-field", "int-subarray-field",
        "complex-subarray-field", "2d-records", "int-and-float-fields", "float-subarray-field",
        "empty-subarray-field", "int"])
def test_unsupported_arrays_raise_type_error(a):
    with pytest.raises(TypeError):
        dumps_json({"a": a})


# ---------------------------------------------------------------------------
# The per-dump text cache is keyed by bit pattern: values that compare equal
# but print differently, and repeats across arrays, dtypes and records.


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


def test_a_value_shared_by_float32_and_float64_arrays():
    shared = np.float32(0.1)
    doc = {"f32": np.array([shared, 1.5], dtype=np.float32),
           "f64": np.array([float(shared), 0.1, -0.0])}
    assert _matches_reference(doc)
    assert dumps_json(doc).count("0.10000000149011612") == 2


def test_a_record_field_shares_texts_with_a_plain_array():
    values = np.array([2 / 3, -0.0, np.nan, 1e-300])
    ops = np.empty((2,) * 4, dtype=complex)
    ops.real = np.resize(values[::-1], ops.shape)
    ops.imag = np.resize([0.0, 0.5, -np.inf, 2 / 3], ops.shape)
    records = tensor_records(ops)
    assert _matches_reference({"plain": values, "ops": records, "again": values.reshape(2, 2)})
    assert _matches_reference({"ops": records, "plain": values})


def test_no_text_outlives_a_dump(tmp_path, monkeypatch):
    assert dumps_json(np.array([0.0])) == "[0]\n"
    assert dumps_json(np.array([-0.0])) == "[-0]\n"
    assert dumps_json(np.array([0.0])) == "[0]\n"
    seen = []
    texts = serialize._texts

    def spy(a, cache):
        seen.append((cache, len(cache)))
        return texts(a, cache)

    monkeypatch.setattr(serialize, "_texts", spy)
    doc = {"a": np.array([0.5, -0.0]), "b": np.array([[0.5]])}
    assert dumps_json(doc) == dumps_json(doc) == '{"a":[0.5,-0],"b":[[0.5]]}\n'
    serialize.write_json(str(tmp_path / "doc.json"), doc)
    assert (tmp_path / "doc.json").read_text() == '{"a":[0.5,-0],"b":[[0.5]]}\n'
    # Each artifact starts from an empty cache of its own and shares it across arrays.
    assert [size for _, size in seen] == [0, 2, 0, 2, 0, 2]
    caches = [cache for cache, _ in seen]
    assert caches[0] is caches[1] and caches[2] is caches[3] and caches[4] is caches[5]
    assert len({id(caches[0]), id(caches[2]), id(caches[4])}) == 3


def _reference_grid_csv(values):
    lines = [",".join(serialize.format_float(x) for x in row) for row in np.asarray(values)]
    return "\n".join(lines) + "\n"


def _reference_marginal_csv(weights):
    lines = ["p0,weight"]
    lines.extend(f"{p0},{serialize.format_float(w)}" for p0, w in enumerate(weights))
    return "\n".join(lines) + "\n"


def test_csv_writers_match_the_per_float_join():
    a = np.array(EDGE_VALUES)
    rng = np.random.default_rng(5)
    for values in (a.reshape(2, 5), a.reshape(5, 2), rng.standard_normal((7, 7)), a.reshape(10, 1)):
        assert serialize.grid_csv(values) == _reference_grid_csv(values)
    for weights in (a, rng.random(11), list(a)):
        assert serialize.marginal_csv(weights) == _reference_marginal_csv(weights)
    assert serialize.grid_csv(a.reshape(2, 5)).startswith("-0,0,nan,inf,-inf\n")
    assert serialize.marginal_csv(a).splitlines()[1] == "0,-0"


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


def test_write_atomic_failed_replace_leaves_target_and_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old\n")

    def fail(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(serialize.os, "replace", fail)
    with pytest.raises(OSError, match="simulated"):
        serialize.write_atomic(str(target), "new\n")
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_write_atomic_bounds_the_temp_name_in_bytes(tmp_path):
    """A 252-byte name of 2-byte characters: the temp name is cut by bytes,
    not characters, so it fits in NAME_MAX (255) like the target."""
    name = "\u00e9" * 125 + ".j"
    serialize.write_atomic(str(tmp_path / name), "new\n")
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


def test_write_atomic_writes_the_utf8_bytes_one_chunk_at_a_time(tmp_path, monkeypatch):
    """Each write call gets the bytes of at most WRITE_CHUNK characters, and
    the file holds exactly the UTF-8 encoding of the text."""
    monkeypatch.setattr(serialize, "WRITE_CHUNK", 3)
    sizes = _spy_on_writes(monkeypatch)
    target = tmp_path / "a.json"
    for text in ("", "ab", "abc", "x\u20acy\U0001f600z\n" * 5):
        sizes.clear()
        serialize.write_atomic(str(target), text)
        assert target.read_bytes() == text.encode("utf-8")
        assert len(sizes) == -(-len(text) // 3) and max(sizes, default=0) <= 3 * 4


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


def test_write_atomic_gives_the_mode_open_would(tmp_path):
    serialize.write_atomic(str(tmp_path / "a.json"), "x\n")
    assert (tmp_path / "a.json").stat().st_mode == _open_mode(tmp_path)


def test_write_atomic_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # The umask is process-wide: setting it per write races between threads.
    def forbidden(mask):
        raise AssertionError("write_atomic changed the process umask")

    monkeypatch.setattr(serialize.os, "umask", forbidden)
    serialize.write_atomic(str(tmp_path / "a.json"), "x\n")
    assert (tmp_path / "a.json").read_text() == "x\n"


def test_concurrent_writers_leave_one_complete_payload(tmp_path):
    target = tmp_path / "out.json"
    payloads = [f"{k}:" + str(k) * 200_000 + "\n" for k in range(8)]
    errors = []
    umask = _umask()

    def writer(text):
        try:
            for _ in range(5):
                serialize.write_atomic(str(target), text)
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
