"""Deterministic JSON/CSV emission for the command-line reports.

Floats are printed with 17 significant digits and dict keys keep insertion
order, so identical runs produce byte-identical artifacts. Every artifact
is a sequence of bounded text blocks that :func:`_write` writes atomically:
a uniquely named temp file in the target's directory, filled with the UTF-8
bytes of one block at a time, is renamed onto the target, so concurrent
writers never share a temp file, readers see either the old or a complete
new artifact, and the whole text never exists at once.

Numeric data reaches the emitter as 1-D and 2-D float64 arrays, which
become JSON lists and lists of rows, and as the two record generators of
the ``fano`` artifact; any other array, of another shape or dtype, raises
:class:`TypeError`. A 1-D array is one ``",".join`` of its value texts. A
2-D array, in JSON and in CSV alike, is rendered by :func:`_rows` a block
of about ``BLOCK`` values (at least one row) at a time, each row one join
between its brackets or before its newline.

The ``fano`` artifact is rendered from the plain-Python phases of
:mod:`latwig.phases`, and numpy is imported only where an array is
rendered, so a ``fano`` run loads none. Its N^4 coefficients, of which
only N^2 are nonzero, are rendered by :func:`support_records`: each
record's text is one of N^2 precomputed zero tails or a support record's,
joined after an (s, t) head, about ``BLOCK`` records of one s per block.
Its N^2 operators are rendered by :func:`operator_records`, each row a
slice of one pre-joined text strip per (i - q, p), a block of about
``BLOCK`` values at a time, with no Python loop per value.

Every float of an array, CSV grids and marginals included, is written by
:func:`_texts`, the one place ``%.17g`` is applied to array data;
``"%.17g" % x`` writes exactly what ``format_float(x)`` writes for every
double (``-0``, ``nan``, ``inf``, subnormals). It formats each distinct
64-bit pattern of one call once and keeps nothing between calls. The key
is the bit pattern, not the value: ``0.0 == -0.0`` as a dict key, so a
value-keyed table would write ``0`` where ``-0`` belongs, and NaNs, never
equal to themselves, would each miss.
"""

import itertools
import os
import sys
import tempfile
import types

# The C function that ``json.dumps`` applies to a str with its default
# arguments (``ensure_ascii``); importing it alone skips the ``json``
# package, about 1.8 ms of a run.
from _json import encode_basestring_ascii as _quote

from .phases import candidate_exponent, half_omega, operator_values, twist_exponent

# The umask can only be read by setting it, and it is process-wide; read it
# once at import, before any writer thread exists, rather than per write.
_UMASK = os.umask(0)
os.umask(_UMASK)

# Bytes of the target's name kept in a temp file's name: NAME_MAX (255 on
# Linux and macOS) less the ".", "." and ".tmp" around it and mkstemp's 8
# random characters.
_TEMP_NAME_ROOM = 255 - 2 - 8 - 4

# Values in one block of a 2-D array's text, records in one block of
# support records and values in one block of operator records. Against
# 1 << 16, it lowers the peak RSS of `wigner --n 1001 --state random` from
# 134.8 to 126.0 MiB and `tomo --n 601` from 81.1 to 77.6 MiB, in no more
# time (medians of 3 to 8 runs, wait4, 2-CPU VM); 1 << 13 saves 2 MiB more
# on `wigner` alone. The `fano --n 17` operator text takes the same time
# with 1 << 13 to 1 << 16 (1 << 12 is slower), and rendering the N = 50
# operators traces 9.5 MiB with it, 11.9 MiB with 1 << 16.
BLOCK = 1 << 14


def format_float(x):
    return format(float(x), ".17g")


def _texts(a):
    """The ``%.17g`` texts of a real array's elements, in C order, as a list.

    Each distinct float64 bit pattern, taken from ``np.unique``, is
    formatted once, and the texts are indexed by the inverse.
    """
    import numpy as np

    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).ravel()
    keys, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(["%.17g" % x for x in keys.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def _rows(a, left, right, sep):
    """The rows of a 2-D array, each ``left + ",".join(row) + right`` and sep
    between rows, a block of about ``BLOCK`` values (at least one row) at a time."""
    count, width = a.shape
    step = max(1, BLOCK // max(width, 1))
    for start in range(0, count, step):
        texts = _texts(a[start:start + step])
        rows = [left + ",".join(texts[k * width:(k + 1) * width]) + right for k in range(min(step, count - start))]
        yield (sep if start else "") + sep.join(rows)


def _array_chunks(a):
    """The nested lists of a 1-D or 2-D float64 array: a 1-D array is one
    join of its texts, a 2-D array its :func:`_rows` in brackets."""
    import numpy as np

    if a.dtype != np.float64 or a.ndim not in (1, 2):
        raise TypeError(f"cannot serialize an array of dtype {a.dtype} and shape {a.shape}")
    if a.ndim == 1:
        yield "[" + ",".join(_texts(a)) + "]"
        return
    yield "["
    yield from _rows(a, "[", "]", ",")
    yield "]"


def support_records(n):
    """The N^4 records ``{"s","t","n","m","re","im"}`` of the candidate table, given by its support.

    Records run over (s, t, n, m) in C order, and every one is zero except
    at (n, m) = (t, s), where the value is omega^(k/2)/N^2 at the
    :func:`~latwig.phases.candidate_exponent` k of (s, t), each part of
    omega^(k/2) times 1/N^2, as numpy divides a complex128 by N^2. Each part
    of the 2N values is formatted once.

    The N^2 zero tails ``"n":a,"m":b,"re":0,"im":0}`` are built once; an
    (s, t) slab joins them after the head ``{"s":S,"t":T,``, with the tail
    at (a, b) = (t, s) swapped for the support record's. A block holds
    max(1, ``BLOCK`` // N^2) slabs of one s.
    """
    cos, sin = half_omega(n)
    scale = 1 / n**2
    re, im = ["%.17g" % (x * scale) for x in cos], ["%.17g" % (x * scale) for x in sin]
    ints = [str(k) for k in range(n)]
    zero = format_float(0.0)
    tails = [f'"n":{a},"m":{b},"re":{zero},"im":{zero}}}' for a in ints for b in ints]
    step = max(1, BLOCK // (n * n))
    yield "["
    for s, start in itertools.product(range(n), range(0, n, step)):
        slabs = [""] if s or start else []  # the "," after the previous block
        for t in range(start, min(start + step, n)):
            head = f'{{"s":{ints[s]},"t":{ints[t]},'
            k, e = t * n + s, candidate_exponent(s, t, n)
            zero_tail = tails[k]
            tails[k] = f'"n":{ints[t]},"m":{ints[s]},"re":{re[e]},"im":{im[e]}}}'
            slabs.append(head + ("," + head).join(tails))
            tails[k] = zero_tail
        yield ",".join(slabs)
    yield "]"


def operator_records(n):
    """The N^2 records ``{"q","p","re","im"}`` of the candidate's operators D(q,p), q and p in C order.

    Entry [i, j] of D(q,p) is the :func:`~latwig.phases.operator_values`
    value at m = p*k mod N and the :func:`~latwig.phases.twist_exponent` e
    of F[k, x], k = j - i and x = j - q, or 0 where F vanishes. Row i then
    depends on (q, p) only through d = i - q and p: with x = k + d, it is the
    sequence g(k) = omega^(p*k) F[k, k + d], k = 0..N-1, read from k = -i
    on, cyclically. So each (d, p) has one strip of texts, g's N value
    texts joined with "," twice over, the real and the imaginary parts
    apart, and each row of each record is a slice of its strip: N values
    from the text of g(-i) on, which the strip's offsets locate. Each value
    is formatted once.

    A record is ``{"q":Q,"p":P,"re":[[R],...],"im":[[I],...]}``, records
    joined by ","; a block holds as many whole records as fit in ``BLOCK``
    pieces, each record 2 N^2 values and its head, at least one.
    """
    width, zero = 2 * n, format_float(0.0)
    texts = ([zero] * (n * width), [zero] * (n * width))  # re and im at m * 2N + e
    for (m, e), value in operator_values(n).items():
        for part, x in zip(texts, value):
            part[m * width + e] = "%.17g" % x
    exponents = [[twist_exponent(k, (k + d) % n, n) for k in range(n)] for d in range(n)]  # [d][k]
    strips = ([], [])  # re and im: [p][d] the strip of g, its offsets and the length of a row's text
    for p in range(n):
        bases = [p * k % n * width for k in range(n)]  # m * 2N at m = p*k mod N
        for part, part_strips in zip(texts, strips):
            part_strips.append([_strip([part[base + e] for base, e in zip(bases, row)]) for row in exponents])
    starts = [-i % n for i in range(n)]  # the k of each row's first entry, at j = 0
    step = max(1, BLOCK // (2 * n * n + 1))
    yield "["
    for start in range(0, n * n, step):
        records = []
        for q, p in map(divmod, range(start, min(start + step, n * n)), itertools.repeat(n)):
            ds = [(i - q) % n for i in range(n)]  # the strip of each row i
            re, im = [_cut_rows([part_strips[p][d] for d in ds], starts) for part_strips in strips]
            records.append(f'{{"q":{q},"p":{p},"re":[[{re}]],"im":[[{im}]]}}')
        yield ("," if start else "") + ",".join(records)
    yield "]"


def _cut_rows(row_strips, starts):
    """``R0],[R1],[...``: row i cut from its strip from the offset of its text starts[i] on."""
    return "],[".join([text[at[a]:at[a] + size] for (text, at, size), a in zip(row_strips, starts)])


def _strip(period):
    """The texts of period joined with "," twice over, the offset of each text and the length of
    N texts joined: a slice of that length from the offset of any of the first N is one cyclic
    row. The offsets are a 4-byte array, not a list of int objects; ``array`` is imported here,
    since only ``fano`` renders strips."""
    import array

    offsets = array.array("I", itertools.accumulate([len(t) + 1 for t in period], initial=0))
    return ",".join(period + period), offsets, offsets[-1] - 1


def _emit(obj, out):
    """Append the JSON text of obj to out: strings, and for each array or
    record generator the generator of its blocks, which the consumer runs
    in document order. A numpy scalar or array is one only if numpy is
    loaded, so the writer imports no numpy to tell."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):  # np.float64 too
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            out.append(("," if i else "") + _quote(str(k)) + ":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, types.GeneratorType):  # JSON text, such as support_records or operator_records
        out.append(obj)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        np = sys.modules.get("numpy")
        if np is not None and isinstance(obj, np.integer):
            out.append(str(int(obj)))
        elif np is not None and isinstance(obj, np.floating):
            out.append(format_float(obj))
        elif np is not None and isinstance(obj, np.ndarray):
            out.append(_array_chunks(obj))
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


def write_grid_csv(path, values):
    """Write a 2-D array to path as a row-major comma-separated grid, no header,
    streamed block by block."""
    _write(path, _rows(values, "", "\n", ""))


def write_marginal_csv(path, weights):
    """Write weights to path as a two-column table with a `p0,weight` header."""
    _write(path, ["p0,weight\n" + "".join([f"{k},{text}\n" for k, text in enumerate(_texts(weights))])])


def _write(path, chunks):
    """Write the texts of chunks to path atomically, in order.

    Each text is encoded to UTF-8 and written whole, so the write holds one
    chunk's bytes, not a second copy of the whole artifact: every producer
    yields at most one block per chunk. An OSError (a name too long, a full
    disk, a directory that cannot be written) is raised again with
    ``filename`` set to path, after the temp file is removed.
    """
    directory, name = os.path.split(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(prefix=_temp_prefix(name), suffix=".tmp", dir=directory)
        try:
            with open(fd, "wb") as fh:
                # mkstemp creates mode 0600; give the artifact the mode open() would.
                os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
                for text in chunks:
                    fh.write(text.encode("utf-8"))
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
