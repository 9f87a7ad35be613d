"""Deterministic JSON/CSV emission for the command-line reports.

Floats are printed with 17 significant digits and dict keys keep insertion
order, so identical runs produce byte-identical artifacts. Files are
written atomically: a uniquely named temp file in the target's directory,
filled with the UTF-8 bytes of the text one chunk at a time, is renamed
onto the target, so concurrent writers never share a temp file and readers
see either the old or a complete new artifact.

Numeric data reaches the emitter as numpy arrays. A float array becomes
nested JSON lists; a 1-D structured array becomes a list of flat objects,
one ``%`` of a record template per row (``%d`` for int fields, ``%s`` for
float fields). Every float of an array, CSV grids and marginals included,
is written by :func:`_texts`, the one place ``%.17g`` is applied to array
data; ``"%.17g" % x`` writes exactly what ``format_float(x)`` writes for
every double (``-0``, ``nan``, ``inf``, subnormals).

A document repeats few distinct floats (the ``fano`` artifact at N = 17
holds 334,084 floats but only 4,773 distinct bit patterns), so
each :func:`dumps_json` call keeps a private cache from a float's 64-bit
pattern to its text and formats each pattern once. The key is the bit
pattern, not the value: ``0.0 == -0.0`` as a dict key, so a value-keyed
cache would write ``0`` where ``-0`` belongs, and NaNs, never equal to
themselves, would each miss. The cache dies with the call; no formatted
text is kept between dumps.
"""

import json
import math
import os
import tempfile

import numpy as np

# The umask can only be read by setting it, and it is process-wide; read it
# once at import, before any writer thread exists, rather than per write.
_UMASK = os.umask(0)
os.umask(_UMASK)

# Characters encoded and written at a time by write_atomic.
WRITE_CHUNK = 1 << 20


def format_float(x):
    return format(float(x), ".17g")


def _texts(a, cache):
    """The ``%.17g`` text of every element of a real array, in C order.

    ``cache`` maps a float64 bit pattern to its text; only the patterns it
    does not hold yet are formatted, and are added to it.
    """
    keys = np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).ravel().tolist()
    new = list(set(keys).difference(cache))
    values = np.array(new, dtype=np.uint64).view(np.float64).tolist()
    cache.update(zip(new, ["%.17g" % x for x in values]))
    return [cache[k] for k in keys]


def _rows(a, cache):
    """One comma-joined text per innermost row of a real array with ndim >= 1."""
    texts = _texts(a, cache)
    k = a.shape[-1]
    return [",".join(texts[i * k:(i + 1) * k]) for i in range(math.prod(a.shape[:-1]))]


def _emit_array(a, out, cache):
    """Nested lists of a real float array, or objects of a 1-D structured array."""
    if a.dtype.names is not None:
        _emit_records(a, out, cache)
        return
    if a.dtype.kind != "f":
        raise TypeError(f"cannot serialize an array of dtype {a.dtype}")
    if a.ndim == 0:
        out.extend(_texts(a, cache))
        return
    rows = ["[" + row + "]" for row in _rows(a, cache)]
    # Group the rendered rows into lists, innermost axis first; math.prod
    # rather than len(rows) // d keeps zero-length axes right.
    shape = a.shape
    for axis in range(a.ndim - 2, -1, -1):
        d = shape[axis]
        rows = ["[" + ",".join(rows[i * d:(i + 1) * d]) + "]" for i in range(math.prod(shape[:axis]))]
    out.append(rows[0])


def _emit_records(a, out, cache):
    """One flat object per record: keys in dtype order, %d ints, cached float texts."""
    if a.ndim != 1:
        raise TypeError(f"cannot serialize a {a.ndim}-d structured array")
    fields = []
    columns = []
    for name in a.dtype.names:
        field = a.dtype.fields[name][0]
        if field.kind in "iu":
            spec = "%d"
            columns.append(a[name].tolist())
        elif field.kind == "f":
            spec = "%s"
            columns.append(_texts(a[name], cache))
        else:
            raise TypeError(f"cannot serialize field {name!r} of dtype {field}")
        fields.append(json.dumps(name).replace("%", "%%") + ":" + spec)
    template = "{" + ",".join(fields) + "}"
    # Three pieces rather than "[" + ... + "]": no second copy of the longest text.
    out.extend(("[", ",".join([template % rec for rec in zip(*columns)]), "]"))


def _emit(obj, out, cache):
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
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _emit(v, out, cache)
        out.append("}")
    elif isinstance(obj, np.ndarray):
        _emit_array(obj, out, cache)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out, cache)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_json(obj):
    out = []
    _emit(obj, out, {})
    out.append("\n")
    return "".join(out)


def grid_csv(values):
    """Row-major comma-separated grid, no header."""
    return "\n".join(_rows(np.asarray(values), {})) + "\n"


def marginal_csv(weights):
    """Two-column table with a `p0,weight` header."""
    lines = ["p0,weight"]
    lines.extend([f"{p0},{text}" for p0, text in enumerate(_texts(weights, {}))])
    return "\n".join(lines) + "\n"


def complex_matrix_dict(m):
    m = np.asarray(m, dtype=complex)
    return {"re": m.real, "im": m.imag}


def write_atomic(path, text):
    """Write text to path via a temp file and rename; no temp file survives a failure.

    The text is encoded to UTF-8 WRITE_CHUNK characters at a time, so the
    write holds one chunk's bytes, not a second copy of the whole artifact.
    A slice never splits a code point, so the bytes are the whole text's.
    """
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        with open(fd, "wb") as fh:
            # mkstemp creates mode 0600; give the artifact the mode open() would.
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            for start in range(0, len(text), WRITE_CHUNK):
                fh.write(text[start:start + WRITE_CHUNK].encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
