"""Deterministic JSON/CSV emission for the command-line reports.

Floats are printed with 17 significant digits and dict keys keep insertion
order, so identical runs produce byte-identical artifacts. Files are
written atomically: a uniquely named temp file in the target's directory,
filled with the UTF-8 bytes of the text one chunk at a time, is renamed
onto the target, so concurrent writers never share a temp file and readers
see either the old or a complete new artifact.

Numeric data reaches the emitter as 1-D and 2-D float64 arrays, which
become JSON lists and lists of rows, and as the two record kinds of the
``fano`` artifact; any other array, of another shape or dtype, raises
:class:`TypeError`. A 1-D array is one ``",".join`` of its value texts. A
2-D array is rendered a block of about ``BLOCK`` values (at least one row)
at a time, each row ``"[" + ",".join(row) + "]"``.

The ``fano`` artifact's N^4 coefficients, of which only N^2 can be
nonzero, arrive as those N^2 values, a :class:`SupportRecords`. Each
record's text is one of N^2 precomputed zero tails or a support record's,
joined after an (s, t) head, about ``BLOCK`` records of one s per block.
Its N^2 operators arrive as their few distinct values and a code per
entry, an :class:`OperatorRecords`, and their records
``{"q","p","re","im"}`` are taken a block of about ``OPERATOR_BLOCK``
pieces at a time from the values' texts, with no Python loop per value or
record.

Every float of an array, CSV grids and marginals included, is written by
:func:`_texts`, the one place ``%.17g`` is applied to array data;
``"%.17g" % x`` writes exactly what ``format_float(x)`` writes for every
double (``-0``, ``nan``, ``inf``, subnormals). It formats each distinct
64-bit pattern of one call once and keeps nothing between calls. The key
is the bit pattern, not the value: ``0.0 == -0.0`` as a dict key, so a
value-keyed table would write ``0`` where ``-0`` belongs, and NaNs, never
equal to themselves, would each miss.

Every JSON artifact of the command line is written by :func:`write_json`,
which streams the text block by block to the file, so the whole text
never exists at once.
"""

import itertools
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

# Values in one block of a 2-D array's text, and records in one block of
# support records. Against 1 << 16, it lowers the peak RSS of
# `wigner --n 1001 --state random` from 134.8 to 126.0 MiB, `tomo --n 601`
# from 81.1 to 77.6 MiB and `fano --n 51` from 40.2 to 32.6 MiB, in no more
# time (medians of 3 to 8 runs, wait4, 2-CPU VM); 1 << 13 saves 2 MiB more
# on `wigner` alone.
BLOCK = 1 << 14

# Text pieces in one block of operator records: the size that minimises
# the time of the `fano --n 17` operator text, 4.3 ms against 4.4 ms with
# 1 << 13, 4.9 ms with 1 << 12 and 5.4 ms with 1 << 15 or 1 << 16, which
# also hold more pieces at once (traced 0.65 MiB, 2.5 MiB with 1 << 16).
OPERATOR_BLOCK = 1 << 14

# Largest array whose float texts _texts looks up element by element.
_SMALL = 1024


def format_float(x):
    return format(float(x), ".17g")


def _texts(a):
    """The ``%.17g`` texts of a real array's elements, in C order, as a list.

    Each distinct float64 bit pattern is formatted once. A small array
    collects its patterns in a dict; a large one takes them from
    ``np.unique`` and indexes their texts, since a dict lookup per element
    costs more than the sort there and less on a few elements.
    """
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).ravel()
    if bits.size > _SMALL:
        keys, inverse = np.unique(bits, return_inverse=True)
        texts = np.array(["%.17g" % x for x in keys.view(np.float64).tolist()], dtype=object)
        return texts[inverse].tolist()
    keys = bits.tolist()
    texts = {k: "%.17g" % x for k, x in dict(zip(keys, bits.view(np.float64).tolist())).items()}
    return list(map(texts.__getitem__, keys))


def _array_chunks(a):
    """The nested lists of a 1-D or 2-D float64 array.

    A 1-D array is one join of its texts. A 2-D array is a list of rows,
    each ``"[" + ",".join(row) + "]"``, rendered a block of about ``BLOCK``
    values (at least one row) at a time.
    """
    if a.dtype != np.float64 or a.ndim not in (1, 2):
        raise TypeError(f"cannot serialize an array of dtype {a.dtype} and shape {a.shape}")
    if a.ndim == 1:
        yield "[" + ",".join(_texts(a)) + "]"
        return
    count, width = a.shape
    step = max(1, BLOCK // max(width, 1))
    yield "["
    for start in range(0, count, step):
        texts = _texts(a[start:start + step])
        rows = ["[" + ",".join(texts[k * width:(k + 1) * width]) + "]" for k in range(min(step, count - start))]
        if start:
            rows[0] = "," + rows[0]
        yield ",".join(rows)
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


def _operator_chunks(records):
    """The records of an :class:`OperatorRecords`, about ``OPERATOR_BLOCK`` pieces per block.

    A record is its head ``{"q":Q,"p":P,"re":[[`` and 2 N^2 pieces, its
    real and then imaginary parts, each a value's text and then ``,``; a
    row's last piece ends in ``],[`` instead, ``]],"im":[[`` or ``]]},``.
    Each distinct float pattern of the values is formatted once and held
    once with each of the four endings, in one table that a block's pieces
    are taken from by one index array; a block holds as many whole records
    as fit in ``OPERATOR_BLOCK`` pieces, at least one.
    """
    n, values = records.n, records.values
    if np.ndim(values) != 1 or values.dtype.kind not in "fc":
        raise TypeError(f"cannot serialize operator values of dtype {values.dtype} and shape {values.shape}")
    with np.errstate(invalid="ignore"):  # a signalling float32 NaN warns when cast
        parts = np.concatenate([values.real, np.imag(values)]).astype(np.float64)
    keys, inverse = np.unique(parts.view(np.uint64), return_inverse=True)
    endings = np.array([",", "],[", ']],"im":[[', "]]},"], dtype=object)
    heads = [f'{{"q":{q},"p":{p},"re":[[' for q in range(n) for p in range(n)]
    texts = np.array(_texts(keys.view(np.float64)), dtype=object)
    table = np.concatenate([(texts[:, np.newaxis] + endings).ravel(),
                            np.array(heads, dtype=object)])
    first = 4 * inverse  # the position of each part's text and "," in the table
    count = n * n
    ends = np.arange(1, 2 * n + 1) * n  # each row's last piece
    kinds = np.array(([1] * (n - 1) + [2]) * 2)  # the index in endings of each one's ending
    kinds[-1] = 3
    if count == 0:
        yield "[]"
        return
    step = max(1, OPERATOR_BLOCK // (2 * count + 1))
    yield "["
    for start in range(0, count, step):
        rows = slice(start, min(start + step, count))
        codes = np.reshape(records.codes(rows), (-1, count))
        index = np.concatenate([np.arange(rows.start, rows.stop)[:, np.newaxis] + 4 * len(keys), first[codes],
                                first[codes + len(values)]], axis=1)
        index[:, ends] += kinds
        block = table.take(index)
        if rows.stop == count:
            block[-1, -1] = block[-1, -1][:-1]  # no "," after the last record
        yield "".join(block.ravel().tolist())
    yield "]"


@record
class SupportRecords:
    """The N^4 records ``{"s","t","n","m","re","im"}`` of a table over [0, N)^4.

    Records run over (s, t, n, m) in C order, and every one is zero except
    at (n, m) = (t, s), where it is ``re[s, t]``, ``im[s, t]``: the layout
    of the ``fano`` coefficients, given by their N^2 support values.
    """

    re: np.ndarray  # float, shape (N, N), indexed [s, t]
    im: np.ndarray  # float, shape (N, N), indexed [s, t]


def _support_chunks(grid):
    """The records of a :class:`SupportRecords`, max(1, ``BLOCK`` // N^2) (s, t) slabs of one s per block.

    The N^2 zero tails ``"n":a,"m":b,"re":0,"im":0}`` are built once; an
    (s, t) slab joins them after the head ``{"s":S,"t":T,``, with the tail
    at (a, b) = (t, s) swapped for the support record's.
    """
    n = len(grid.re)
    if np.shape(grid.re) != (n, n) or np.shape(grid.im) != (n, n):
        raise TypeError(f"support values must be two N x N arrays, got {np.shape(grid.re)}, {np.shape(grid.im)}")
    ints = [str(k) for k in range(n)]
    zero = format_float(0.0)
    re, im = _texts(grid.re), _texts(grid.im)
    tails = [f'"n":{a},"m":{b},"re":{zero},"im":{zero}}}' for a in ints for b in ints]
    step = max(1, BLOCK // max(n * n, 1))
    yield "["
    for s, start in itertools.product(range(n), range(0, n, step)):
        slabs = [""] if s or start else []  # the "," after the previous block
        for t in range(start, min(start + step, n)):
            head = f'{{"s":{ints[s]},"t":{ints[t]},'
            k = t * n + s
            zero_tail = tails[k]
            tails[k] = f'"n":{ints[t]},"m":{ints[s]},"re":{re[s * n + t]},"im":{im[s * n + t]}}}'
            slabs.append(head + ("," + head).join(tails))
            tails[k] = zero_tail
        yield ",".join(slabs)
    yield "]"


def _emit(obj, out):
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
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, np.ndarray):
        out.append(_array_chunks(obj))
    elif isinstance(obj, SupportRecords):
        out.append(_support_chunks(obj))
    elif isinstance(obj, OperatorRecords):
        out.append(_operator_chunks(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _json_chunks(obj):
    """The JSON text of obj and a newline, in chunks: each run of scalars,
    keys and brackets joined, then each block of an array."""
    out = []
    _emit(obj, out)
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
    count, width = np.shape(values)
    texts = _texts(values)
    return "".join([",".join(texts[k * width:(k + 1) * width]) + "\n" for k in range(count)])


def marginal_csv(weights):
    """Two-column table with a `p0,weight` header."""
    return "p0,weight\n" + "".join([f"{k},{text}\n" for k, text in enumerate(_texts(weights))])


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
