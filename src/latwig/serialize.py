"""Deterministic JSON/CSV emission for the command-line reports.

Floats are printed with 17 significant digits and dict keys keep insertion
order, so identical runs produce byte-identical artifacts. Files are
written atomically: a uniquely named temp file in the target's directory is
renamed onto the target, so concurrent writers never share a temp file and
readers see either the old or a complete new artifact.
"""

import json
import os
import tempfile

import numpy as np

# The umask can only be read by setting it, and it is process-wide; read it
# once at import, before any writer thread exists, rather than per write.
_UMASK = os.umask(0)
os.umask(_UMASK)


def format_float(x):
    return format(float(x), ".17g")


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
    lines = [",".join(format_float(x) for x in row) for row in np.asarray(values)]
    return "\n".join(lines) + "\n"


def marginal_csv(weights):
    """Two-column table with a `p0,weight` header."""
    lines = ["p0,weight"]
    lines.extend(f"{p0},{format_float(w)}" for p0, w in enumerate(weights))
    return "\n".join(lines) + "\n"


def complex_matrix_dict(m):
    m = np.asarray(m)
    return {
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }


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
