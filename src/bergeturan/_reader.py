"""The ``.hg`` reader behind :func:`bergeturan.core.read_hypergraph`,
which imports this module at its first call, so that a command that reads
no host never compiles it."""

from __future__ import annotations

from operator import lt

from .core import _LARGE_HOST_EDGES, Hypergraph, _assemble, _int
from .errors import FormatError, ParamsOutOfRange

_DIGITS = b"0123456789"


def _read_bulk(text):
    """The hypergraph of ``text``, or None where :func:`_read_lines` might
    raise.  Each check runs over the whole edge block at C speed: the lines
    must hold r fields of ASCII digits between single spaces, and the
    vertex columns must rise strictly within 1..n.

    From ``_LARGE_HOST_EDGES`` edges on, the edge block becomes one JSON
    array, its spaces and newlines turned into commas, and ``json.loads``
    parses every label in one pass at C speed.  JSON refuses a label with
    a leading zero, such as 007, which the line scan reads as 7, so a block
    with a label that starts with 0 takes the per-field int() of smaller
    hosts.  Either route rejects an empty field and, as the line scan does,
    a label longer than the interpreter's integer string-conversion limit
    (``json.loads`` raises ValueError for it too; were it to accept one,
    the label would still exceed n, whose digits are within the limit, and
    fail the range check)."""
    if not text.endswith("\n"):
        return None
    if "#" in text:
        lines = [line for line in text.split("\n") if not line.startswith("#")]
        if len(lines) < 2:
            return None
        head, body = lines[0], "\n".join(lines[1:])
    else:
        head, _, body = text.partition("\n")
    parts = head.split(" ")
    if len(parts) != 3 or not head.isascii() or not all(map(str.isdigit, parts)):
        return None
    try:
        r, n, m = map(int, parts)
    except ValueError:  # an integer too long to convert
        return None
    if r < 2 or n < r or not body.isascii():
        return None
    # the bytes besides digits must be r-1 spaces and a newline per line
    # (sizes first, so that the expected layout is never larger than the text)
    holes = body.encode().translate(None, _DIGITS)
    if len(holes) != r * m or m and holes != (b" " * (r - 1) + b"\n") * m:
        return None
    if not m:  # with no edges, r is bounded by nothing in the text
        return _assemble(r, n, [])
    try:
        if m < _LARGE_HOST_EDGES or body[0] == "0" or " 0" in body or "\n0" in body:
            values = list(map(int, body.split()))
        else:
            import json  # only large reads need it

            values = json.loads("[" + body[:-1].replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:  # an empty field (JSON) or an integer too long to convert
        return None
    if len(values) != r * m:  # an empty field (split)
        return None
    columns = [values[i::r] for i in range(r)]
    if min(columns[0]) < 1 or max(columns[-1]) > n:
        return None
    for low, high in zip(columns, columns[1:]):
        if not all(map(lt, low, high)):
            return None
    return _assemble(r, n, zip(*columns), columns if m >= _LARGE_HOST_EDGES else None)


def _read_lines(text) -> Hypergraph:
    """Read ``text`` one line at a time, raising FormatError at the first
    line with a problem."""
    if not text.endswith("\n"):
        raise FormatError("missing trailing newline", max(1, text.count("\n") + 1))
    numbered = [(i + 1, line) for i, line in enumerate(text.split("\n")[:-1])]
    content = [(no, line) for no, line in numbered if not line.startswith("#")]
    if not content:
        raise FormatError("missing header", 1)
    head_no, head = content[0]
    parts = head.split(" ")
    if len(parts) != 3 or not head.isascii() or not all(p.isdigit() for p in parts):
        raise FormatError("header must be three integers 'r n m'", head_no)
    r, n, m = (_int(p, FormatError, head_no) for p in parts)
    if len(content) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(content) - 1}", head_no)
    edges = []
    for no, line in content[1:]:
        fields = line.split(" ")
        if len(fields) != r or not line.isascii() or not all(f.isdigit() for f in fields):
            raise FormatError(f"expected {r} integers", no)
        vertices = tuple(_int(f, FormatError, no) for f in fields)
        if any(a >= b for a, b in zip(vertices, vertices[1:])):
            raise FormatError("vertices must be strictly ascending", no)
        if vertices[0] < 1 or vertices[-1] > n:
            raise FormatError(f"vertex outside 1..{n}", no)
        edges.append(vertices)
    try:
        return _assemble(r, n, edges)
    except ParamsOutOfRange as exc:
        raise FormatError(str(exc), head_no) from exc
