"""Line-oriented structure-constant files.

One structure per file.  Header lines are `# key: value`; sections start
with `SECTION <NAME> [arg...]` and carry rows of indices followed by one
scalar in the cyclotomic grammar: a sum of terms `<rat>*z^<k>` where `z`
denotes the primitive root for the conductor declared in the header,
e.g. ``2*z^3 - 1`` or ``-1/2*z + 5``.  Files are deterministic: writing
the same structure twice gives byte-identical output.

A size header (`dim`, `rows`, `cols`, `base_dim`) above MAX_SIZE is a parse
error: the tables of a structure are allocated from it before any row is
checked, and the exhaustive checks could not visit that many tuples anyway.
So is a `conductor` above the conductor cap, which no scalar could be read at.

The `flags` header of a structure file is written from decided values:
`finite_dim` always, and `cosemisimple` when `hopf.integral` is not None.
On read, `finite_dim` carries nothing, and a declared `cosemisimple` whose
integral is None is a parse error at the flags line.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

from .cyclotomic import CycScalar, conductor_cap
from .hopf import HopfSC
from .linalg import Mat, Tensor3, Vec, zeros
from .cocycle import Cocycle, PreBialgebra
from .yd import YDModule


class ParseError(ValueError):
    pass


# -- scalar grammar ------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)\s*(?:(?P<rat>\d+(?:/\d+)?)\s*\*?\s*)?(?:(?P<z>z)(?:\^(?P<exp>\d+))?)?$"
)


def parse_scalar(text: str, conductor: int) -> CycScalar:
    s = text.strip()
    if not s:
        raise ParseError("empty scalar")
    # split into signed terms
    terms = re.findall(r"[+-]?[^+-]+|[+-](?=[+-])", s.replace(" ", ""))
    total = CycScalar.zero(conductor)
    for term in terms:
        if not term:
            continue
        m = _TERM_RE.match(term)
        if not m or (m.group("rat") is None and m.group("z") is None):
            raise ParseError(f"bad scalar term {term!r}")
        sign = -1 if m.group("sign") == "-" else 1
        try:
            rat = Fraction(m.group("rat")) if m.group("rat") else Fraction(1)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in scalar term {term!r}") from None
        if m.group("z"):
            exp = int(m.group("exp") or 1)
            base = CycScalar.zeta_power(conductor, exp)
        else:
            base = CycScalar.one(conductor)
        total = total + base * CycScalar.from_rational(sign * rat, 1)
    return total


def format_scalar(c: CycScalar, conductor: int) -> str:
    """c in the scalar grammar, as a polynomial in z, the primitive root at `conductor`."""
    if c.L not in (1, conductor):  # a rational reads the same at every conductor
        if conductor % c.L:
            raise ParseError(f"scalar at conductor {c.L} cannot be written at {conductor}")
        c = c.promote(conductor)
    return str(c)


# -- writing -------------------------------------------------------------------


_Formatter = Callable[[CycScalar], str]


def _formatter(conductor: int) -> _Formatter:
    """format_scalar at `conductor`, formatting each distinct value once; one
    per write call, so no text outlives the file it is written to."""
    texts: dict[tuple[int, int, tuple[int, ...]], str] = {}

    def fmt(c: CycScalar) -> str:
        key = (c.L, c.den, c.nums)
        text = texts.get(key)
        if text is None:
            text = texts[key] = format_scalar(c, conductor)
        return text
    return fmt


def _tensor_rows(t: Tensor3, fmt: _Formatter) -> list[str]:
    return [f"{i} {j} {k} {fmt(t.data[(i, j, k)])}" for (i, j, k) in sorted(t.data)]


def _vec_rows(entries: Iterable[tuple[int, CycScalar]], fmt: _Formatter) -> list[str]:
    """Rows `i scalar` of the nonzero (index, scalar) entries of a dense
    vector's ``enumerate`` or a sparse vector's sorted items."""
    return [f"{i} {fmt(c)}" for i, c in entries if c]


def _mat_rows(m: Mat, fmt: _Formatter) -> list[str]:
    cells = sorted((i, j) for j, col in enumerate(m.cols) for i in col)
    return [f"{i} {j} {fmt(m.cols[j][i])}" for i, j in cells]


def _write(path: Union[str, Path], kind: str, conductor: int,
           headers: Iterable[tuple[str, object]], sections: Iterable[tuple[str, list[str]]]) -> None:
    """The one layout of a structure file: the format, kind and conductor
    lines, each (key, value) header in the order given, a header with an
    empty value (an absent labels or reference) left out, then each (title,
    rows) section under its `SECTION title` line."""
    lines = ["# format: hopfforge-sc v1", f"# kind: {kind}", f"# conductor: {conductor}"]
    lines += [f"# {key}: {value}" for key, value in headers if value]
    for title, rows in sections:
        lines.append(f"SECTION {title}")
        lines += rows
    Path(path).write_text("\n".join(lines) + "\n")


def _bialgebra_sections(B: Union[HopfSC, PreBialgebra], fmt: _Formatter) -> list[tuple[str, list[str]]]:
    """MULT, UNIT, COMULT and COUNIT, the sections of a (pre-)bialgebra."""
    return [("MULT", _tensor_rows(B.mult, fmt)), ("UNIT", _vec_rows(enumerate(B.unit), fmt)),
            ("COMULT", _tensor_rows(B.comult, fmt)), ("COUNIT", _vec_rows(enumerate(B.counit), fmt))]


def write_hopf(H: HopfSC, path: Union[str, Path],
               kind: str = "hopf", maps: Optional[dict] = None) -> None:
    """Write an algebra/bialgebra/Hopf structure file.

    `maps` may carry {"name": (Mat, ref_path)} entries emitted as MAP
    sections referencing a second file by relative path.
    """
    fmt = _formatter(H.conductor)
    sections = _bialgebra_sections(H, fmt)
    if H.antipode is not None:
        sections.append(("ANTIPODE", _mat_rows(H.antipode, fmt)))
    sections += [(f"GROUPLIKE {name}", _vec_rows(sorted(gl.items()), fmt))
                 for name, gl in H.group_likes.items()]
    sections += [(f"CHARACTER {name}", _vec_rows(enumerate(chi), fmt))
                 for name, chi in H.characters.items()]
    sections += [(f"MAP {name} {ref}", _mat_rows(mat, fmt)) for name, (mat, ref) in (maps or {}).items()]
    flags = "finite_dim" + (" cosemisimple" if H.dual_integral is not None else "")
    _write(path, kind, H.conductor,
           [("dim", H.dim), ("labels", " ".join(H.labels)), ("flags", flags)], sections)


def write_prebialgebra(P: PreBialgebra, path: Union[str, Path], base_ref: str) -> None:
    fmt = _formatter(P.H.conductor)
    _write(path, "prebialgebra", P.H.conductor, [("dim", P.dim), ("base", base_ref)],
           _bialgebra_sections(P, fmt) + [("ACTION", _tensor_rows(P.yd.action, fmt)),
                                          ("COACTION", _tensor_rows(P.yd.coaction, fmt))])


def write_cocycle(xi: Cocycle, path: Union[str, Path], conductor: int,
                  r_ref: str = "", base_ref: str = "") -> None:
    _write(path, "cocycle", conductor,
           [("dim", xi.r_dim), ("base_dim", xi.h_dim), ("r", r_ref), ("base", base_ref)],
           [("XI", _tensor_rows(xi.xi, _formatter(conductor)))])


def write_map(m: Mat, path: Union[str, Path], conductor: int,
              domain_ref: str = "", codomain_ref: str = "") -> None:
    _write(path, "map", conductor,
           [("rows", m.nrows), ("cols", m.ncols), ("domain", domain_ref), ("codomain", codomain_ref)],
           [("MAP", _mat_rows(m, _formatter(conductor)))])


# -- reading -------------------------------------------------------------------


# header values that give a size or a conductor: positive decimal integers
_SIZE_HEADERS = ("conductor", "dim", "rows", "cols", "base_dim")
MAX_SIZE = 1024  # the largest dim, rows, cols or base_dim a file may declare


class AlgebraFile:
    """Parsed structure file: header, sections, and typed accessors."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.header: dict[str, str] = {}
        self.header_lines: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        # (name, args, rows); each row is (line number, text)
        self.sections: list[tuple[str, list[str], list[tuple[int, str]]]] = []
        self.section_lines: list[int] = []  # the SECTION line of each section
        self._scalars: dict[str, CycScalar] = {}  # scalar text -> its value, parsed once per file
        self._parse()

    def _parse(self) -> None:
        current: Optional[tuple[str, list[str], list[tuple[int, str]]]] = None
        first: dict[tuple[str, ...], int] = {}  # (name, first argument) -> its SECTION line
        for ln, raw in enumerate(self.path.read_text().splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    k, v = (part.strip() for part in body.split(":", 1))
                    if k in _SIZE_HEADERS:
                        if not (v.isascii() and v.isdigit() and int(v) > 0):
                            raise ParseError(f"{self.path}:{ln}: {k} must be a positive integer, got {v!r}")
                        if k != "conductor" and int(v) > MAX_SIZE:
                            raise ParseError(f"{self.path}:{ln}: {k} {v} is above the largest size {MAX_SIZE}")
                        if k == "conductor" and int(v) > conductor_cap():
                            raise ParseError(f"{self.path}:{ln}: conductor {v} exceeds the conductor cap "
                                             f"{conductor_cap()} (HOPFFORGE_CONDUCTOR_CAP)")
                        self.sizes[k] = int(v)
                    self.header[k] = v
                    self.header_lines[k] = ln
                continue
            if line.startswith("SECTION"):
                parts = line.split()
                if len(parts) < 2:
                    raise ParseError(f"{self.path}:{ln}: SECTION needs a name")
                key = tuple(parts[1:3])
                if key in first:
                    raise ParseError(f"{self.path}:{ln}: {' '.join(key)} repeats the section of line {first[key]}")
                first[key] = ln
                current = (parts[1], parts[2:], [])
                self.sections.append(current)
                self.section_lines.append(ln)
                continue
            if current is None:
                raise ParseError(f"{self.path}:{ln}: data before any SECTION")
            current[2].append((ln, line))

    @property
    def kind(self) -> str:
        return self.header.get("kind", "hopf")

    def _size(self, key: str) -> int:
        if key not in self.sizes:
            raise ParseError(f"{self.path}: needs a {key} header")
        return self.sizes[key]

    @property
    def conductor(self) -> int:
        return self.sizes.get("conductor", 1)

    @property
    def dim(self) -> int:
        return self._size("dim")

    def labels(self) -> Optional[list[str]]:
        raw = self.header.get("labels")
        return raw.split() if raw else None

    def section(self, name: str) -> Optional[tuple[list[str], list[tuple[int, str]]]]:
        """The first section called name; _parse rejects a repeated (name, first argument)."""
        for sec, args, rows in self.sections:
            if sec == name:
                return args, rows
        return None

    def _entries(self, name: str, rows: list[tuple[int, str]],
                 bounds: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], CycScalar]]:
        """(indices, scalar) of each row `i ... scalar` of a section.

        A malformed row, an index outside its bound, a bad scalar and an
        index tuple that an earlier row already gave are each a ParseError
        naming the file and line.  Each distinct scalar text is parsed once
        per file; a text that fails to parse is never stored, so it fails
        again, at its own line, wherever it recurs.
        """
        seen: dict[tuple[int, ...], int] = {}
        for ln, row in rows:
            parts = row.split(None, len(bounds))
            if len(parts) != len(bounds) + 1:
                raise ParseError(f"{self.path}:{ln}: bad row {row!r} in {name}")
            key = tuple(self._index(x, bound, name, ln) for x, bound in zip(parts, bounds))
            if key in seen:
                raise ParseError(f"{self.path}:{ln}: {name} repeats the indices of line {seen[key]}")
            seen[key] = ln
            c = self._scalars.get(parts[-1])
            if c is None:
                try:
                    c = self._scalars[parts[-1]] = parse_scalar(parts[-1], self.conductor)
                except ParseError as exc:
                    raise ParseError(f"{self.path}:{ln}: {exc}") from None
            yield key, c

    def _tensor(self, name: str, shape: tuple[int, int, int]) -> Tensor3:
        found = self.section(name)
        return Tensor3(shape, self._entries(name, found[1], shape) if found else None)

    def _vector(self, name: str, n: int, rows: Optional[list[tuple[int, str]]] = None) -> Vec:
        """Rows `i scalar`, by default those of the first section called name."""
        if rows is None:
            found = self.section(name)
            rows = found[1] if found else []
        v = zeros(n)
        for (i,), c in self._entries(name, rows, (n,)):
            v[i] = c
        return v

    def _matrix_rows(self, name: str, rows: list[tuple[int, str]], nrows: int, ncols: int) -> Mat:
        cols: list[dict] = [{} for _ in range(ncols)]
        for (i, j), c in self._entries(name, rows, (nrows, ncols)):
            if c:
                cols[j][i] = c
        return Mat.of_cols(nrows, cols)

    def _index(self, text: str, bound: int, name: str, ln: int) -> int:
        """A row index in range(bound); anything else is a ParseError."""
        if not text.isdecimal() or int(text) >= bound:
            raise ParseError(f"{self.path}:{ln}: index {text!r} in {name} is not in 0..{bound - 1}")
        return int(text)

    def _name(self, named: dict[tuple[str, str], int], sec: str, args: list[str],
              default: str, ln: int) -> str:
        """The name of the section of line ln: its first argument, else `default`.

        A name an earlier section of the same kind already has is a ParseError
        naming both lines (an unnamed section is named by count, so a later
        explicit name could otherwise replace it).
        """
        name = args[0] if args else default
        if (sec, name) in named:
            raise ParseError(f"{self.path}:{ln}: {sec} {name} clashes with the name of the section "
                             f"of line {named[sec, name]}")
        named[sec, name] = ln
        return name

    def _bialgebra(self, n: int) -> tuple[Tensor3, Vec, Tensor3, Vec]:
        """(mult, unit, comult, counit) of dimension n, in constructor order;
        the sections are read MULT, COMULT, UNIT, COUNIT, so a file with
        faults in several reports the first of them in that order."""
        mult = self._tensor("MULT", (n, n, n))
        comult = self._tensor("COMULT", (n, n, n))
        return mult, self._vector("UNIT", n), comult, self._vector("COUNIT", n)

    def to_hopf(self) -> HopfSC:
        n = self.dim
        bialgebra = self._bialgebra(n)  # read before ANTIPODE
        antipode = None
        found = self.section("ANTIPODE")
        if found is not None:
            antipode = self._matrix_rows("ANTIPODE", found[1], n, n)
        named: dict[tuple[str, str], int] = {}
        group_likes = {}
        characters = {}
        for (sec, args, rows), ln in zip(self.sections, self.section_lines):
            if sec == "GROUPLIKE":
                name = self._name(named, sec, args, f"g{len(group_likes)}", ln)
                group_likes[name] = {i: c for (i,), c in self._entries(sec, rows, (n,)) if c}
            elif sec == "CHARACTER":
                name = self._name(named, sec, args, f"chi{len(characters)}", ln)
                characters[name] = self._vector(sec, n, rows)
        H = HopfSC(n, *bialgebra, antipode,
                   labels=self.labels(), conductor=self.conductor,
                   group_likes=group_likes, characters=characters)
        if "cosemisimple" in self.header.get("flags", "").split() and H.dual_integral is None:
            raise ParseError(f"{self.path}:{self.header_lines['flags']}: flags declare "
                             "cosemisimple, but the integrals of the dual vanish at 1")
        return H

    def to_map(self) -> Mat:
        nrows, ncols = self._size("rows"), self._size("cols")
        found = self.section("MAP")
        return self._matrix_rows("MAP", found[1] if found else [], nrows, ncols)

    def maps(self, shape_of) -> dict[str, tuple[Mat, str]]:
        """MAP sections inside a structure file; shape_of(name) -> (nrows, ncols)."""
        named: dict[tuple[str, str], int] = {}
        out = {}
        for (sec, args, rows), ln in zip(self.sections, self.section_lines):
            if sec == "MAP":
                name = self._name(named, sec, args, f"map{len(out)}", ln)
                ref = args[1] if len(args) > 1 else ""
                nrows, ncols = shape_of(name)
                out[name] = (self._matrix_rows(sec, rows, nrows, ncols), ref)
        return out

    def to_prebialgebra(self, H: HopfSC) -> PreBialgebra:
        n = self.dim
        bialgebra = self._bialgebra(n)  # read before ACTION and COACTION
        action = self._tensor("ACTION", (H.dim, n, n))
        coaction = self._tensor("COACTION", (n, H.dim, n))
        return PreBialgebra(H, YDModule(H, n, action, coaction), *bialgebra)

    def to_cocycle(self, P: PreBialgebra) -> Cocycle:
        """The cocycle on P; its dim and base_dim must be those of R and H."""
        n = self.dim
        for key, size, of in (("dim", P.dim, "R"), ("base_dim", P.H.dim, "H")):
            if self._size(key) != size:
                raise ParseError(f"{self.path}:{self.header_lines[key]}: {key} {self._size(key)} "
                                 f"does not match dim {of} = {size}")
        return Cocycle(self._tensor("XI", (n, n, self._size("base_dim"))))

    def base_ref(self) -> Optional[str]:
        return self.header.get("base")
