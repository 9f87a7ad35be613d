"""Deterministic JSON/CSV emission for the command-line reports.

Floats are printed with 17 significant digits and dict keys keep insertion
order, so identical runs produce byte-identical artifacts. Files are
written atomically: a uniquely named temp file in the target's directory is
renamed onto the target, so concurrent writers never share a temp file and
readers see either the old or a complete new artifact.

Numeric data reaches the emitter as numpy arrays. A float array becomes
nested JSON lists, and each innermost row is rendered by one ``%`` of a
row template (``"[%.17g,%.17g,...]"``) over ``row.tolist()``; a 1-D
structured array becomes a list of flat objects, one ``%`` of a record
template per row (``%d`` for int fields, ``%.17g`` for float fields). The
formatting loop thus runs in C, and ``"%.17g" % x`` writes exactly what
``format_float(x)`` writes for every double (``-0``, ``nan``, ``inf``,
subnormals). There is deliberately no cache of formatted strings keyed by
value: ``0.0 == -0.0`` as a dict key, so such a cache would write ``0``
where ``-0`` belongs.
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


_FLOAT = "%.17g"  # what format_float writes, as a %-template field


def format_float(x):
    return format(float(x), ".17g")


def _row_format(k):
    """Template of k comma-separated floats."""
    return ",".join([_FLOAT] * k)


def _emit_array(a, out):
    """Nested lists of a real float array, or objects of a 1-D structured array."""
    if a.dtype.names is not None:
        _emit_records(a, out)
        return
    if a.dtype.kind != "f":
        raise TypeError(f"cannot serialize an array of dtype {a.dtype}")
    if a.ndim == 0:
        out.append(_FLOAT % a.item())
        return
    shape = a.shape
    template = "[" + _row_format(shape[-1]) + "]"
    rows = [template % tuple(row) for row in a.reshape(math.prod(shape[:-1]), shape[-1]).tolist()]
    # Group the rendered rows into lists, innermost axis first; math.prod
    # rather than len(rows) // d keeps zero-length axes right.
    for axis in range(a.ndim - 2, -1, -1):
        d = shape[axis]
        rows = ["[" + ",".join(rows[i * d:(i + 1) * d]) + "]" for i in range(math.prod(shape[:axis]))]
    out.append(rows[0])


def _emit_records(a, out):
    """One flat object per record: keys in dtype order, %d ints, %.17g floats."""
    if a.ndim != 1:
        raise TypeError(f"cannot serialize a {a.ndim}-d structured array")
    fields = []
    for name in a.dtype.names:
        field = a.dtype.fields[name][0]
        if field.kind in "iu":
            spec = "%d"
        elif field.kind == "f":
            spec = _FLOAT
        else:
            raise TypeError(f"cannot serialize field {name!r} of dtype {field}")
        fields.append(json.dumps(name).replace("%", "%%") + ":" + spec)
    template = "{" + ",".join(fields) + "}"
    out.append("[" + ",".join([template % rec for rec in a.tolist()]) + "]")


def _emit(obj, out):
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
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, np.ndarray):
        _emit_array(obj, out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_json(obj):
    out = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


def grid_csv(values):
    """Row-major comma-separated grid, no header."""
    values = np.asarray(values)
    template = _row_format(values.shape[1])
    return "\n".join([template % tuple(row) for row in values.tolist()]) + "\n"


def marginal_csv(weights):
    """Two-column table with a `p0,weight` header."""
    template = "%d," + _FLOAT
    lines = ["p0,weight"]
    lines.extend([template % pw for pw in enumerate(np.asarray(weights).tolist())])
    return "\n".join(lines) + "\n"


def complex_matrix_dict(m):
    m = np.asarray(m, dtype=complex)
    return {"re": m.real, "im": m.imag}


def write_atomic(path, text):
    """Write text to path via a temp file and rename; no temp file survives a failure."""
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates mode 0600; give the artifact the mode open() would.
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
