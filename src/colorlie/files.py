"""Plain-text algebra descriptions (one document per algebra).

Generator indices are 1-based in files.  Coefficients use the scalar grammar
(INT, INT/INT, t, t^INT, sums and products).  Example::

    dim 3
    signs
    +1 -1 -1
    -1 +1 -1
    -1 -1 +1
    bracket 1 2 : 0 0 1
    param -1
    grading 1 : 1 1 0
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import ColorLieAlgebra, CommutationMatrix, GradingAssignment
from .scalars import ScalarParseError, parse_scalar

# the `param` value that keeps the symbol t, over Q(t)
GENERIC = "generic"


class AlgebraFileError(ValueError):
    pass


def parse_algebra_text(text):
    """Parse a document; returns (ColorLieAlgebra, declared parameter).

    The declared parameter is None, 'generic', or a Fraction; substitution is
    left to the caller.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    pos = 0
    dim = None
    signs = None
    brackets = {}
    gradings = {}
    param = None
    while pos < len(lines):
        line = lines[pos]
        pos += 1
        head, _, rest = line.partition(" ")
        if head == "dim":
            if dim is not None:
                raise AlgebraFileError("dim declared twice")
            dim = _int(rest, line)
            if dim < 1:
                raise AlgebraFileError("dim must be a positive integer: %r" % line)
        elif head == "signs":
            if dim is None:
                raise AlgebraFileError("signs before dim")
            if signs is not None:
                raise AlgebraFileError("signs declared twice")
            signs = []
            for _ in range(dim):
                if pos >= len(lines):
                    raise AlgebraFileError("truncated sign matrix")
                row = lines[pos].split()
                pos += 1
                if len(row) != dim:
                    raise AlgebraFileError("sign row %r must have %d entries"
                                           % (lines[pos - 1], dim))
                signs.append([_sign(tok) for tok in row])
        elif head == "bracket":
            if dim is None:
                raise AlgebraFileError("bracket before dim")
            left, _, coeffs = rest.partition(":")
            idx = left.split()
            if len(idx) != 2:
                raise AlgebraFileError("bracket needs two indices: %r" % line)
            i, j = _int(idx[0], line) - 1, _int(idx[1], line) - 1
            if (i, j) in brackets:
                raise AlgebraFileError("bracket %d %d declared twice"
                                       % (i + 1, j + 1))
            vec = coeffs.split()
            if len(vec) != dim:
                raise AlgebraFileError("bracket %r needs %d coefficients"
                                       % (line, dim))
            try:
                brackets[(i, j)] = tuple(parse_scalar(toktext) for toktext in vec)
            except ScalarParseError as exc:
                raise AlgebraFileError(str(exc)) from exc
            except ZeroDivisionError:
                raise AlgebraFileError("division by zero in %r" % line) from None
        elif head == "param":
            if param is not None:
                raise AlgebraFileError("param declared twice")
            param = _param(rest.strip())
        elif head == "grading":
            left, _, bits = rest.partition(":")
            i = _int(left.strip(), line) - 1
            if i in gradings:
                raise AlgebraFileError("grading %d declared twice" % (i + 1))
            if any(b not in ("0", "1") for b in bits.split()):
                raise AlgebraFileError("grading bits must be 0 or 1: %r" % line)
            gradings[i] = tuple(int(b) for b in bits.split())
        else:
            raise AlgebraFileError("unknown directive %r" % line)
    if dim is None or signs is None:
        raise AlgebraFileError("document must declare dim and signs")
    for (i, j) in brackets:
        if not (0 <= i < dim and 0 <= j < dim):
            raise AlgebraFileError("bracket index out of range")
        if i > j:
            raise AlgebraFileError("brackets are stored with i <= j (1-based)")
    grading = None
    if gradings:
        if sorted(gradings) != list(range(dim)):
            raise AlgebraFileError("grading must cover every generator")
        grading = GradingAssignment([gradings[i] for i in range(dim)])
    cm = CommutationMatrix(signs)
    return ColorLieAlgebra(cm, brackets, grading=grading), param


def parse_algebra_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read())


def _int(tok, line):
    try:
        return int(tok)
    except ValueError:
        raise AlgebraFileError("expected an integer in %r" % line) from None


def _param(value):
    if value == GENERIC:
        return GENERIC
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise AlgebraFileError("param must be %r or a rational number, got %r"
                               % (GENERIC, value)) from None


def _sign(tok):
    if tok in ("+1", "1", "+"):
        return 1
    if tok in ("-1", "-"):
        return -1
    raise AlgebraFileError("sign entries must be +1 or -1, got %r" % tok)
