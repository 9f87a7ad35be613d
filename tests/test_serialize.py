import json
import os
import sys
import threading

import numpy as np
import pytest

from latwig import cli, fano, serialize, wigner

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


def _plain(obj):
    """The document as built before arrays were passed: lists, dicts and scalars."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.names is not None:
            return [dict(zip(obj.dtype.names, rec)) for rec in obj.tolist()]
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


CLI_DOCUMENTS = [
    *[["fano", "--n", str(n)] for n in range(1, 7)],
    # The first sizes whose operators repeat many values across arrays.
    ["fano", "--n", "9"],
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
    dumps_json = serialize.dumps_json

    def capture(obj):
        docs.append(obj)
        return dumps_json(obj)

    monkeypatch.setattr(serialize, "dumps_json", capture)
    out = tmp_path / "artifact.json"
    assert cli.main([*argv, "--out", str(out)]) in (0, 1)
    assert len(docs) == 1
    assert out.read_text() == reference_dumps_json(_plain(docs[0]))


EDGE_VALUES = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 2 / 3, 1e16, 123456.789]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_edge_floats_match_the_reference_emitter(dtype):
    a = np.array(EDGE_VALUES, dtype=dtype)
    for shaped in (a, a.reshape(2, 5), a.reshape(5, 2).T, a.reshape(1, 2, 5)):
        assert serialize.dumps_json(shaped) == reference_dumps_json(shaped.tolist())
    doc = {"values": a, "scalar": a[0], "nested": [a, {"x": a[::-1]}]}
    assert serialize.dumps_json(doc) == reference_dumps_json(_plain(doc))
    assert serialize.dumps_json(a).startswith("[-0,0,nan,inf,-inf,")


@pytest.mark.parametrize("shape", [(), (0,), (2, 0), (0, 3), (2, 0, 3), (3, 1)])
def test_zero_dimensional_and_empty_arrays(shape):
    a = np.full(shape, -0.0)
    assert serialize.dumps_json(a) == reference_dumps_json(a.tolist())


def test_structured_array_becomes_a_list_of_flat_objects():
    a = np.zeros(4, dtype=[("s", np.intp), ("k", np.uint8), ("re", float), ("im", np.float32)])
    a["s"] = [0, 1, -7, 2**40]
    a["k"] = [0, 3, 255, 9]
    a["re"] = [-0.0, np.nan, 1e-300, 2 / 3]
    a["im"] = [np.inf, -np.inf, 0.1, 5e-45]
    expected = [dict(zip(a.dtype.names, rec)) for rec in a.tolist()]
    assert serialize.dumps_json({"rows": a}) == reference_dumps_json({"rows": expected})
    assert serialize.dumps_json(a[:0]) == "[]\n"


@pytest.mark.parametrize("a", [
    np.zeros(3, dtype=complex),
    np.zeros((2, 2), dtype=bool),
    np.array([1.0, None], dtype=object),
    np.zeros(2, dtype=[("z", complex)]),
    np.zeros(2, dtype=[("b", bool)]),
    np.zeros(2, dtype=[("v", float, 3)]),
    np.zeros((2, 2), dtype=[("x", float)]),
], ids=["complex", "bool", "object", "complex-field", "bool-field", "subarray-field", "2d-records"])
def test_unsupported_arrays_raise_type_error(a):
    with pytest.raises(TypeError):
        serialize.dumps_json({"a": a})


# ---------------------------------------------------------------------------
# The per-dump text cache is keyed by bit pattern: values that compare equal
# but print differently, and repeats across arrays, dtypes and records.


def _matches_reference(doc):
    return serialize.dumps_json(doc) == reference_dumps_json(_plain(doc))


@pytest.mark.parametrize("first, later", [(-0.0, 0.0), (0.0, -0.0)])
def test_signed_zeros_in_later_arrays_keep_their_sign(first, later):
    doc = {"a": np.full((2, 3), first), "b": np.array([later, first, later])}
    assert _matches_reference(doc)
    f, x = serialize.format_float(first), serialize.format_float(later)
    assert serialize.dumps_json(doc) == f'{{"a":[[{f},{f},{f}],[{f},{f},{f}]],"b":[{x},{f},{x}]}}\n'


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
    assert serialize.dumps_json(doc).count("0.10000000149011612") == 2


def test_a_record_field_shares_texts_with_a_plain_array():
    values = np.array([2 / 3, -0.0, np.nan, 1e-300])
    rows = np.zeros(4, dtype=[("k", np.int64), ("re", float), ("im", np.float32)])
    rows["k"] = [3, -1, 0, 2**40]
    rows["re"] = values[::-1]
    rows["im"] = [0.0, 0.5, -np.inf, 2 / 3]
    assert _matches_reference({"plain": values, "rows": rows, "again": values.reshape(2, 2)})
    assert _matches_reference({"rows": rows, "plain": values})


def test_no_text_outlives_a_dump(monkeypatch):
    assert serialize.dumps_json(np.array([0.0])) == "[0]\n"
    assert serialize.dumps_json(np.array([-0.0])) == "[-0]\n"
    assert serialize.dumps_json(np.array([0.0])) == "[0]\n"
    seen = []
    texts = serialize._texts

    def spy(a, cache):
        seen.append((cache, len(cache)))
        return texts(a, cache)

    monkeypatch.setattr(serialize, "_texts", spy)
    doc = {"a": np.array([0.5, -0.0]), "b": np.array([[0.5]])}
    assert serialize.dumps_json(doc) == serialize.dumps_json(doc) == '{"a":[0.5,-0],"b":[[0.5]]}\n'
    # Each dump starts from an empty cache of its own and shares it across arrays.
    assert [size for _, size in seen] == [0, 2, 0, 2]
    assert seen[0][0] is seen[1][0] and seen[2][0] is seen[3][0] and seen[0][0] is not seen[2][0]


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
    grid = wigner.wigner_from_density(rho, fano.DisplacedParitySet(5))
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


def test_write_atomic_writes_the_utf8_bytes_one_chunk_at_a_time(tmp_path, monkeypatch):
    """Each write call gets the bytes of at most WRITE_CHUNK characters, and
    the file holds exactly the UTF-8 encoding of the text."""
    sizes = []

    class Spy:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            self.fh.__enter__()
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def fileno(self):
            return self.fh.fileno()

        def write(self, data):
            sizes.append(len(data))
            return self.fh.write(data)

    monkeypatch.setattr(serialize, "WRITE_CHUNK", 3)
    monkeypatch.setattr(serialize, "open", lambda *a, **k: Spy(open(*a, **k)), raising=False)
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
