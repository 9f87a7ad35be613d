"""Deterministic JSON/CSV emission for the command-line reports.

Floats are printed with 17 significant digits and dict keys keep insertion
order, so identical runs produce byte-identical artifacts. Files are
written atomically: a uniquely named temp file in the target's directory,
filled with the UTF-8 bytes of the text one chunk at a time, is renamed
onto the target, so concurrent writers never share a temp file and readers
see either the old or a complete new artifact.

Numeric data reaches the emitter as real float arrays of any shape, which
become nested JSON lists, and as the two record kinds of the ``fano``
artifact. Its N^4 coefficients, of which only N^2 can be nonzero, arrive
as those N^2 values, a :class:`SupportRecords`, and each record's text is
one of N^2 precomputed zero tails or a support record's, joined after an
(s, t) head. Its N^2 operators arrive as their few distinct values and a
code per entry, an :class:`OperatorRecords`, and their records
``{"q","p","re","im"}`` are taken a block at a time from the values'
texts, each formatted once. An array and the operator records are lists of
rows along the first axis, rendered as a numpy object array of text pieces
with one row of pieces per row (an array's value texts between the
precomputed brackets and separators of a row template), joined once per
block with ``"".join(pieces.ravel().tolist())``, with no Python loop per
value, row or record. The separator after an element of a nested list
depends only on the shape: ``"]" * t + "," + "[" * t``, t the number of
trailing axes at their last index. Any other array, complex, integer,
boolean, object or structured, raises :class:`TypeError`.

Every float of an array, CSV grids and marginals included, is written by
:func:`_texts`, the one place ``%.17g`` is applied to array data;
``"%.17g" % x`` writes exactly what ``format_float(x)`` writes for every
double (``-0``, ``nan``, ``inf``, subnormals). A document often repeats
few distinct floats, so each document keeps a private cache from a float's
64-bit pattern to its text and formats each pattern once. The key is the
bit pattern, not the value: ``0.0 == -0.0`` as a dict key, so a
value-keyed cache would write ``0`` where ``-0`` belongs, and NaNs, never
equal to themselves, would each miss. The cache is bounded: it is cleared
when the new patterns of one call would take it past ``BLOCK`` entries,
since a document can also hold millions of distinct floats (the grid of
``wigner --n 1001 --state random``: 2,003,903 of its 2,004,002). The cache
dies with the document; no formatted text is kept between dumps.

Arrays are rendered in blocks of about ``BLOCK`` pieces (at least one
row), operator records in blocks of about ``OPERATOR_BLOCK`` pieces,
support records in blocks of about ``BLOCK`` records of one s, and one
emitter yields the text block by block: every JSON artifact of the
command line is written by :func:`write_json`, which streams the blocks
to the file, so the whole text never exists at once.
"""

import functools
import itertools
import math
import os
import tempfile

# The C function that ``json.dumps`` applies to a str with its default
# arguments (``ensure_ascii``); importing it alone skips the ``json``
# package, about 1.8 ms of a run.
from _json import encode_basestring_ascii as _quote

import numpy as np

from ._record import record

# The umask can only be read by setting it, and it is process-wide; read it
# once at import, before any writer thread exists, rather than per write.
_UMASK = os.umask(0)
os.umask(_UMASK)

# Characters encoded and written at a time by the writers.
WRITE_CHUNK = 1 << 20

# Bytes of the target's name kept in a temp file's name: NAME_MAX (255 on
# Linux and macOS) less the ".", "." and ".tmp" around it and mkstemp's 8
# random characters.
_TEMP_NAME_ROOM = 255 - 2 - 8 - 4

# Text pieces joined into one block of an array's text.
BLOCK = 1 << 16

# Text pieces in one block of operator records: the size that minimises
# the time of the `fano --n 17` operator text, 4.3 ms against 4.4 ms with
# 1 << 13, 4.9 ms with 1 << 12 and 5.4 ms with 1 << 15 or BLOCK, which
# also hold more pieces at once (traced 0.65 MiB, 2.5 MiB with BLOCK).
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
def _row(shape):
    """The pieces of one row of nested lists of a shape, None at each value slot.

    The value slots are the odd columns, each followed by its separator as
    an element of the shape; the opening brackets are the first piece, and
    a ``,`` ends the last. A shape of no elements gives the one piece of
    its empty lists. The array is shared between callers and read-only.
    """
    if math.prod(shape) == 0:
        row = [_empty(shape)]
    else:
        row = ["[" * len(shape)]
        for sep in _separators(shape):
            row.extend((None, sep))
    row[-1] += ","
    row = np.array(row, dtype=object)
    row.flags.writeable = False
    return row


def _array_chunks(a, cache):
    """Nested lists of a real float array, a list of rows along the first axis
    (see :func:`_row`), rendered a block of about ``BLOCK`` pieces at a time."""
    if a.dtype.kind != "f":
        raise TypeError(f"cannot serialize an array of dtype {a.dtype}")
    if a.ndim == 0:
        yield _texts(a, cache)[0]
        return
    row = _row(a.shape[1:])

    def pieces(rows):
        out = np.tile(row, (rows.stop - rows.start, 1))
        out[:, 1::2] = _texts(a[rows], cache).reshape(len(out), -1)
        return out

    yield from _row_chunks(len(a), max(1, BLOCK // len(row)), pieces)


def _row_chunks(count, step, pieces):
    """A list of ``count`` rows, rendered ``step`` rows per block.

    ``pieces(rows)`` gives the text pieces of the slice ``rows`` of rows,
    one row of pieces per row, each ending in ``,``; the last row has none.
    """
    if count == 0:
        yield "[]"
        return
    yield "["
    for start in range(0, count, step):
        block = pieces(slice(start, min(start + step, count)))
        if start + len(block) == count:
            block[-1, -1] = block[-1, -1][:-1]
        yield "".join(block.ravel().tolist())
    yield "]"


@record
class OperatorRecords:
    """The N^2 records ``{"q","p","re","im"}`` of N^2 complex N x N matrices, given by codes.

    Records run over (q, p) in C order, and ``codes(rows)[r, i, j]`` indexes
    ``values`` at entry [i, j] of record r of the slice ``rows``:
    the layout of the ``fano`` operators.
    """

    n: int
    values: np.ndarray  # float or complex, shape (V,)
    codes: object  # a slice of [0, N^2) -> int array [r, i, j]


def _operator_chunks(records, cache):
    """The records of an :class:`OperatorRecords`, about ``OPERATOR_BLOCK`` pieces per block.

    A record is its head ``{"q":Q,"p":P,"re":[[`` and 2 N^2 pieces, its
    real and then imaginary parts, each a value's text and then ``,``,
    taken by one index array from the texts formatted once; a row's last
    piece ends in ``],[`` instead, ``]],"im":[[`` or ``]]},``.
    """
    n, values = records.n, records.values
    if np.ndim(values) != 1 or values.dtype.kind not in "fc":
        raise TypeError(f"cannot serialize operator values of dtype {values.dtype} and shape {values.shape}")
    texts = _texts(np.concatenate([values.real, np.imag(values)]), cache)
    heads = [f'{{"q":{q},"p":{p},"re":[[' for q in range(n) for p in range(n)]
    table = np.concatenate([texts + ",", np.array(heads, dtype=object)])
    count = n * n
    ends = np.arange(1, 2 * n + 1) * n  # each row's last piece
    seps = np.array((["],["] * (n - 1) + [']],"im":[[']) * 2, dtype=object)
    seps[-1] = "]]},"

    def pieces(rows):
        codes = np.reshape(records.codes(rows), (-1, count))
        index = np.concatenate([np.arange(rows.start, rows.stop)[:, np.newaxis] + len(texts), codes,
                                codes + len(values)], axis=1)
        out = table.take(index)
        out[:, ends] = texts.take(index[:, ends]) + seps
        return out

    yield from _row_chunks(count, max(1, OPERATOR_BLOCK // (2 * count + 1)), pieces)


@record
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
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            out.append(("," if i else "") + _quote(str(k)) + ":")
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
    pieces[:, 0] = [str(k) for k in range(len(texts))]
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
    An OSError (a name too long, a full disk, a directory that cannot be
    written) is raised again with ``filename`` set to path, after the temp
    file is removed.
    """
    directory, name = os.path.split(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(prefix=_temp_prefix(name), suffix=".tmp", dir=directory)
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
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), path) from exc


def _temp_prefix(name):
    """``.{name}.``, with name cut to at most ``_TEMP_NAME_ROOM`` bytes.

    mkstemp appends 8 random characters and the suffix ``.tmp`` to the
    prefix, so the temp file's name fits in NAME_MAX bytes whenever a
    target's name does; it stays unique and in the target's directory.
    """
    return f".{os.fsdecode(os.fsencode(name)[:_TEMP_NAME_ROOM])}."
