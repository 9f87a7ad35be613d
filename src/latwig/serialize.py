"""Deterministic JSON/CSV emission for the command-line reports.

Floats are printed with 17 significant digits and dict keys keep insertion
order, so identical runs produce byte-identical artifacts. Files are
written atomically: a uniquely named temp file in the target's directory,
filled with the UTF-8 bytes of the text one chunk at a time, is renamed
onto the target, so concurrent writers never share a temp file and readers
see either the old or a complete new artifact.

Numeric data reaches the emitter as numpy arrays. A float array becomes
nested JSON lists; a 1-D structured array becomes a list of flat objects,
one per record, whose fields are ints, floats or fixed-shape float
subarrays (nested lists). The ``fano`` artifact passes no record array.
Its N^4 coefficients, of which only N^2 can be nonzero, reach the emitter
as those N^2 values, a :class:`SupportRecords`, and each record's text is
one of N^2 precomputed zero tails or a support record's, joined after an
(s, t) head. Its N^2 operators reach it as their complex N^4 tensor, an
:class:`OperatorRecords`, and are rendered as the records
``{"q","p","re","im"}`` with the real and imaginary N x N parts taken from
the tensor a block at a time. Those records and any other array are lists
of rows along the first axis, rendered as a numpy object array of text
pieces with one row of pieces per row: the value texts interleaved with a
row template of precomputed keys, separators and brackets, joined once per
block with ``"".join(pieces.ravel().tolist())``, with no Python loop per
value, row or record. The separator after an element of a nested list
depends only on the shape: ``"]" * t + "," + "[" * t``, t the number of
trailing axes at their last index. Int texts are a lookup of ``str(k)``
over the distinct values of a block.

Every float of an array, CSV grids and marginals included, is written by
:func:`_texts`, the one place ``%.17g`` is applied to array data; ``"%.17g"
% x`` writes exactly what ``format_float(x)`` writes for every double
(``-0``, ``nan``, ``inf``, subnormals). A document often repeats few distinct
floats (the ``fano`` operators at N = 17 hold 167,042 floats but only
4,742 distinct bit patterns), so each document keeps a private cache from a
float's 64-bit pattern to its text and formats each pattern once. The key
is the bit pattern, not the value: ``0.0 == -0.0`` as a dict key, so a
value-keyed cache would write ``0`` where ``-0`` belongs, and NaNs, never
equal to themselves, would each miss. The cache is bounded: it is cleared
when the new patterns of one call would take it past ``BLOCK`` entries,
since a document can also hold millions of distinct floats (FFT round-off
makes about half of the ``fano`` operator floats distinct at composite N,
2,564,960 of 4,626,882 at N = 39). The cache dies with the document; no
formatted text is kept between dumps.

Arrays are rendered in blocks of about ``BLOCK`` pieces (at least one
row), operator records in blocks of about ``OPERATOR_BLOCK`` pieces,
support records in blocks of about ``BLOCK`` records of one s, and one
emitter yields the text block by block: every JSON artifact of the
command line is written by :func:`write_json`, which streams the blocks
to the file, so the whole text never exists at once.
"""

import functools
import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

# The umask can only be read by setting it, and it is process-wide; read it
# once at import, before any writer thread exists, rather than per write.
_UMASK = os.umask(0)
os.umask(_UMASK)

# Characters encoded and written at a time by the writers.
WRITE_CHUNK = 1 << 20

# Text pieces joined into one block of an array's text.
BLOCK = 1 << 16

# Text pieces in one block of operator records. A block's float patterns,
# texts, pieces and joined text are the writer's transient, which sets most
# of `fano`'s peak RSS above the operator tensor at small N: at N = 17,
# 33.1 MiB with this block, 34.0 MiB with 1 << 15 and 35.8 MiB with BLOCK,
# 28.9 MiB of it the imported package. Smaller blocks cost time per block.
OPERATOR_BLOCK = 1 << 14

# Largest array whose float texts _texts looks up element by element.
_SMALL = 1024


def format_float(x):
    return format(float(x), ".17g")


def _texts(a, cache):
    """The ``%.17g`` texts of a real array's elements, in C order, as a 1-D object array.

    ``cache`` maps a float64 bit pattern to its text; only the patterns it
    does not hold yet are formatted, and are added to it. If that would
    take it past ``BLOCK`` entries it is cleared first, so it never holds
    more than ``BLOCK`` patterns or those of one call. A small array
    looks each element up in the cache; a large one looks up its distinct
    patterns and indexes them, since a dict lookup per element costs more
    than ``np.unique``'s sort there and less on a few elements.
    """
    # A signalling float32 NaN warns when cast; its text is ``nan`` like any NaN's.
    with np.errstate(invalid="ignore"):
        bits = np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).ravel()
    large = bits.size > _SMALL
    if large:
        keys, inverse = np.unique(bits, return_inverse=True)
        keys = keys.tolist()
    else:
        keys = bits.tolist()
    new = list(set(itertools.filterfalse(cache.__contains__, keys)))
    if cache and len(cache) + len(new) > BLOCK:
        cache.clear()
        new = list(set(keys))
    if new:
        values = np.array(new, dtype=np.uint64).view(np.float64).tolist()
        cache.update(zip(new, ["%.17g" % x for x in values]))
    texts = np.fromiter(map(cache.__getitem__, keys), dtype=object, count=len(keys))
    return texts[inverse] if large else texts


def _int_texts(a):
    """The decimal texts of an int array's elements, in C order, as a 1-D object array."""
    keys, inverse = np.unique(np.ravel(a), return_inverse=True)
    return np.array([str(k) for k in keys.tolist()], dtype=object)[inverse]


def _separators(shape):
    """The text after each element, in C order, of nested lists of a shape.

    It is ``"]" * t + "," + "[" * t``, t the number of trailing axes at
    their last index, and ``"]" * len(shape)`` after the last element.
    """
    seps = np.full(shape, ",", dtype=object)
    for t in range(1, len(shape) + 1):
        seps[(...,) + (-1,) * t] = "]" * t + "," + "[" * t
    seps[(-1,) * len(shape)] = "]" * len(shape)
    return seps.ravel().tolist()


def _empty(shape):
    """Nested lists of a shape with no elements."""
    if shape[0] == 0:
        return "[]"
    return "[" + ",".join([_empty(shape[1:])] * shape[0]) + "]"


@functools.lru_cache(maxsize=16)
def _row(dtype, shape):
    """The pieces of one row of an array whose rows have this dtype and shape,
    and its value slots: (field name or None, column of the first text, shape).

    A row's pieces are its fields' texts, each followed by its separator as
    an element of the field's shape (a scalar's is empty); a float array's
    row is one field with no key and the row's shape. The row's opening
    (``{`` for a record), each field's key and opening brackets join the
    piece before the field's first text, and the row's closing and a ``,``
    join its last piece. The array is shared between callers and read-only.
    """
    if dtype.names is None:
        if dtype.kind != "f":
            raise TypeError(f"cannot serialize an array of dtype {dtype}")
        fields, opening, closing = [(None, "", shape)], "", ""
    else:
        fields, opening, closing = [], "{", "}"
        for i, name in enumerate(dtype.names):
            field = dtype.fields[name][0]
            if field.base.kind not in "iuf" or (field.shape and field.base.kind != "f"):
                raise TypeError(f"cannot serialize field {name!r} of dtype {field}")
            fields.append((name, ("," if i else "") + json.dumps(name) + ":", field.shape))
    slots = []
    row = [opening]
    for name, key, field_shape in fields:
        if math.prod(field_shape) == 0:
            row[-1] += key + _empty(field_shape)
            continue
        row[-1] += key + "[" * len(field_shape)
        slots.append((name, len(row), field_shape))
        for sep in _separators(field_shape):
            row.extend((None, sep))
    row[-1] += closing + ","
    row = np.array(row, dtype=object)
    row.flags.writeable = False
    return row, tuple(slots)


def _array_chunks(a, cache):
    """Nested lists of a real float array, or objects of a 1-D structured array.

    Both are lists of rows along the first axis (see :func:`_row`), rendered
    a block of about ``BLOCK`` pieces at a time.
    """
    if a.dtype.names is not None and a.ndim != 1:
        raise TypeError(f"cannot serialize a {a.ndim}-d structured array")
    if a.ndim == 0 and a.dtype.kind == "f":
        yield _texts(a, cache)[0]
        return
    row, slots = _row(a.dtype, a.shape[1:])

    def texts(rows):
        for name, _, _ in slots:
            values = a[rows] if name is None else a[rows][name]
            yield _texts(values, cache) if values.dtype.kind == "f" else _int_texts(values)

    yield from _row_chunks(row, slots, len(a), max(1, BLOCK // len(row)), texts)


def _row_chunks(row, slots, count, step, texts):
    """A list of ``count`` rows of the template ``row``, rendered ``step`` rows per block.

    ``texts(rows)`` yields the texts of each slot (see :func:`_row`) in the
    slice ``rows`` of rows, in C order. The last row has no ``,``.
    """
    if count == 0:
        yield "[]"
        return
    yield "["
    for start in range(0, count, step):
        rows = slice(start, min(start + step, count))
        pieces = np.empty((rows.stop - start, len(row)), dtype=object)
        pieces[:] = row
        for (_, col, shape), slot in zip(slots, texts(rows)):
            pieces[:, col:col + 2 * math.prod(shape):2] = slot.reshape(len(pieces), -1)
        if rows.stop == count:
            pieces[-1, -1] = pieces[-1, -1][:-1]
        yield "".join(pieces.ravel().tolist())
    yield "]"


@dataclass(frozen=True)
class OperatorRecords:
    """The N^2 records ``{"q","p","re","im"}`` of N^2 complex N x N matrices.

    Records run over (q, p) in C order, and ``re`` and ``im`` are the real
    and imaginary parts of ops[q, p] as nested lists: the layout of the
    ``fano`` operators, rendered from their tensor with no record array.
    """

    ops: np.ndarray  # complex, shape (N, N, N, N), indexed [q, p, i, j]


def _operator_chunks(records, cache):
    """The records of an :class:`OperatorRecords`, about ``OPERATOR_BLOCK`` pieces per block.

    The real and imaginary parts of a block share one :func:`_texts` call.
    """
    n = len(records.ops)
    if np.shape(records.ops) != (n,) * 4:
        raise TypeError(f"operators must be an N x N x N x N array, got shape {np.shape(records.ops)}")
    parts = np.ascontiguousarray(records.ops, dtype=complex).reshape(n * n, n, n).view(float)
    ints = np.array([str(k) for k in range(n)], dtype=object)
    row, slots = _row(np.dtype([("q", np.intp), ("p", np.intp), ("re", float, (n, n)), ("im", float, (n, n))]), ())

    def texts(rows):
        q, p = divmod(np.arange(rows.start, rows.stop), n)
        values = _texts(parts[rows], cache).reshape(-1, 2)
        return ints[q], ints[p], values[:, 0], values[:, 1]

    yield from _row_chunks(row, slots, n * n, max(1, OPERATOR_BLOCK // len(row)), texts)


@dataclass(frozen=True)
class SupportRecords:
    """The N^4 records ``{"s","t","n","m","re","im"}`` of a table over [0, N)^4.

    Records run over (s, t, n, m) in C order, and every one is zero except
    at (n, m) = (t, s), where it is ``re[s, t]``, ``im[s, t]``: the layout
    of the ``fano`` coefficients, given by their N^2 support values.
    """

    re: np.ndarray  # float, shape (N, N), indexed [s, t]
    im: np.ndarray  # float, shape (N, N), indexed [s, t]


def _support_chunks(grid, cache):
    """The records of a :class:`SupportRecords`, max(1, ``BLOCK`` // N^2) (s, t) slabs of one s per block.

    The N^2 zero tails ``"n":a,"m":b,"re":0,"im":0}`` are built once; an
    (s, t) slab joins them after the head ``{"s":S,"t":T,``, with the tail
    at (a, b) = (t, s) swapped for the support record's.
    """
    n = len(grid.re)
    if np.shape(grid.re) != (n, n) or np.shape(grid.im) != (n, n):
        raise TypeError(f"support values must be two N x N arrays, got {np.shape(grid.re)}, {np.shape(grid.im)}")
    ints = [str(k) for k in range(n)]
    zero = _texts(np.zeros(1), cache)[0]
    re = _texts(grid.re, cache).reshape(n, n).tolist()
    im = _texts(grid.im, cache).reshape(n, n).tolist()
    tails = [f'"n":{a},"m":{b},"re":{zero},"im":{zero}}}' for a in ints for b in ints]
    step = max(1, BLOCK // max(n * n, 1))
    yield "["
    for s, start in itertools.product(range(n), range(0, n, step)):
        slabs = [""] if s or start else []  # the "," after the previous block
        for t in range(start, min(start + step, n)):
            head = f'{{"s":{ints[s]},"t":{ints[t]},'
            k = t * n + s
            zero_tail = tails[k]
            tails[k] = f'"n":{ints[t]},"m":{ints[s]},"re":{re[s][t]},"im":{im[s][t]}}}'
            slabs.append(head + ("," + head).join(tails))
            tails[k] = zero_tail
        yield ",".join(slabs)
    yield "]"


def _emit(obj, out, cache):
    """Append the JSON text of obj to out: strings, and for each array the
    generator of its blocks, which the consumer runs in document order."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            out.append(("," if i else "") + json.dumps(str(k)) + ":")
            _emit(v, out, cache)
        out.append("}")
    elif isinstance(obj, np.ndarray):
        out.append(_array_chunks(obj, cache))
    elif isinstance(obj, SupportRecords):
        out.append(_support_chunks(obj, cache))
    elif isinstance(obj, OperatorRecords):
        out.append(_operator_chunks(obj, cache))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out, cache)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _json_chunks(obj):
    """The JSON text of obj and a newline, in chunks, with a text cache of its own:
    each run of scalars, keys and brackets joined, then each block of an array."""
    out = []
    _emit(obj, out, {})
    out.append("\n")
    start = 0
    for i, piece in enumerate(out):
        if not isinstance(piece, str):
            yield "".join(out[start:i])
            yield from piece
            start = i + 1
    yield "".join(out[start:])


def write_json(path, obj):
    """Write the JSON text of obj to path atomically, streamed block by block."""
    _write(path, _json_chunks(obj))


def grid_csv(values):
    """Row-major comma-separated grid, no header."""
    texts = _texts(values, {}).reshape(np.shape(values))
    pieces = np.empty(texts.shape + (2,), dtype=object)
    pieces[..., 0] = texts
    pieces[..., 1] = ","
    pieces[:, -1, 1] = "\n"
    return "".join(pieces.ravel().tolist())


def marginal_csv(weights):
    """Two-column table with a `p0,weight` header."""
    texts = _texts(weights, {})
    pieces = np.empty((len(texts), 4), dtype=object)
    pieces[:, 0] = _int_texts(np.arange(len(texts)))
    pieces[:, 1] = ","
    pieces[:, 2] = texts
    pieces[:, 3] = "\n"
    return "p0,weight\n" + "".join(pieces.ravel().tolist())


def complex_matrix_dict(m):
    m = np.asarray(m, dtype=complex)
    return {"re": m.real, "im": m.imag}


def write_atomic(path, text):
    """Write text to path via a temp file and rename; no temp file survives a failure."""
    _write(path, (text,))


def _write(path, chunks):
    """Write the texts of chunks to path atomically, in order.

    Each text is encoded to UTF-8 WRITE_CHUNK characters at a time, so the
    write holds one chunk's bytes, not a second copy of the whole artifact.
    A slice never splits a code point, so the bytes are the whole text's.
    """
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        with open(fd, "wb") as fh:
            # mkstemp creates mode 0600; give the artifact the mode open() would.
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            for text in chunks:
                for start in range(0, len(text), WRITE_CHUNK):
                    fh.write(text[start:start + WRITE_CHUNK].encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
