"""Command-line front end and exact text formats.

Field file::

    degree 2
    poly 1 0 1          # f, constant term first, monic
    1 0 / 1             # d basis rows over the power basis: numerators / den
    0 1 / 2

Matrix file::

    pseudo 3 2          # or: bipseudo 2
    ideal hnf           # one block per row ideal (bipseudo: then col ideals)
    2 0
    1 1
    den 1
    ideal gens 1        # alternative block: generator count, then elements
    0 1 / 1
    ...
    1 0 / 1  0 1 / 1    # n matrix rows, m element groups "a1 .. ad / den"

Everything is exact integers; '#' starts a comment.  Output mirrors the input
grammar so results round-trip through the parser.

Exit codes: 0 success/PASS, 1 computation error, 2 parse error, 3 oracle FAIL.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import determinant, zlinalg
from .ideals import FractionalIdeal, IdealError
from .numberfield import FieldElement, FieldError, NumberField, build_field
from .pseudo_hnf import PseudoMatrix, canonicalize, module_hnf, pseudo_hnf, to_absolute
from .pseudo_snf import BiPseudoMatrix, DivisorChain, pseudo_snf, quotient_determinantal_ideal


class ParseError(ValueError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class _Tokens:
    def __init__(self, text: str):
        self.items: list[tuple[str, int]] = []
        for ln, raw in enumerate(text.splitlines(), 1):
            body = raw.split("#", 1)[0]
            for tok in body.split():
                self.items.append((tok, ln))
        self.pos = 0

    def peek(self):
        return self.items[self.pos][0] if self.pos < len(self.items) else None

    @property
    def line(self) -> int:
        if self.pos < len(self.items):
            return self.items[self.pos][1]
        # at the end of the file: its last token, or line 1 of an empty file
        return self.items[-1][1] if self.items else 1

    def take(self) -> str:
        if self.pos >= len(self.items):
            raise ParseError("unexpected end of file", self.line)
        tok, _ = self.items[self.pos]
        self.pos += 1
        return tok

    def expect(self, word: str) -> None:
        ln = self.line
        tok = self.take()
        if tok != word:
            raise ParseError(f"expected '{word}', found '{tok}'", ln)

    def take_int(self) -> int:
        ln = self.line
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"expected an integer, found '{tok}'", ln) from None

    def take_positive(self, what: str) -> int:
        """An integer that must be positive; a fault names the token's line."""
        ln = self.line
        value = self.take_int()
        if value < 1:
            raise ParseError(f"{what} must be positive", ln)
        return value

    def finish(self) -> None:
        """Refuse anything left after the last expected token."""
        if self.pos < len(self.items):
            raise ParseError(f"trailing content '{self.peek()}'", self.line)


# ---------------------------------------------------------------------------
# Parsing


def parse_field_text(text: str) -> NumberField:
    ts = _Tokens(text)
    ts.expect("degree")
    d = ts.take_positive("degree")
    ts.expect("poly")
    coeffs = [ts.take_int() for _ in range(d + 1)]
    basis = []
    for _ in range(d):
        nums = [ts.take_int() for _ in range(d)]
        ts.expect("/")
        den = ts.take_positive("basis row denominator")
        basis.append([Fraction(x, den) for x in nums])
    ts.finish()
    try:
        return build_field(coeffs, basis)
    except FieldError as exc:
        raise ParseError(str(exc), 1) from exc


def parse_field_file(path: str) -> NumberField:
    with open(path, encoding="utf-8") as fh:
        return parse_field_text(fh.read())


def _parse_element(ts: _Tokens, field: NumberField) -> FieldElement:
    nums = [ts.take_int() for _ in range(field.degree)]
    ts.expect("/")
    return field.element(nums, ts.take_positive("element denominator"))


def _parse_ideal(ts: _Tokens, field: NumberField) -> FractionalIdeal:
    ts.expect("ideal")
    ln = ts.line
    kind = ts.take()
    d = field.degree
    if kind == "hnf":
        rows = [[ts.take_int() for _ in range(d)] for _ in range(d)]
        ts.expect("den")
        den = ts.take_positive("denominator")
        try:
            return FractionalIdeal(field, rows, den)
        except IdealError as exc:
            raise ParseError(str(exc), ln) from exc
    if kind == "gens":
        count = ts.take_positive("generator count")
        gens_ln = ts.line
        gens = [_parse_element(ts, field) for _ in range(count)]
        if not any(gens):
            raise ParseError("at least one nonzero generator required", gens_ln)
        return FractionalIdeal.from_generators(field, gens)
    raise ParseError(f"unknown ideal kind '{kind}'", ln)


def parse_matrix_text(text: str, field: NumberField):
    ts = _Tokens(text)
    ln = ts.line
    kind = ts.take()
    if kind == "pseudo":
        n = ts.take_int()
        m = ts.take_int()
        if n < 1 or m < 1:
            raise ParseError("dimensions must be positive", ln)
        ideals = [_parse_ideal(ts, field) for _ in range(n)]
        rows = [[_parse_element(ts, field) for _ in range(m)] for _ in range(n)]
        ts.finish()
        return PseudoMatrix(field, rows, ideals)
    if kind == "bipseudo":
        n = ts.take_int()
        if n < 1:
            raise ParseError("dimension must be positive", ln)
        row_ideals = [_parse_ideal(ts, field) for _ in range(n)]
        col_ideals = [_parse_ideal(ts, field) for _ in range(n)]
        rows = [[_parse_element(ts, field) for _ in range(n)] for _ in range(n)]
        ts.finish()
        try:
            return BiPseudoMatrix(field, rows, row_ideals, col_ideals)
        except IdealError as exc:
            raise ParseError(str(exc), ln) from exc
    raise ParseError(f"unknown matrix header '{kind}'", ln)


def parse_matrix_file(path: str, field: NumberField):
    with open(path, encoding="utf-8") as fh:
        return parse_matrix_text(fh.read(), field)


# ---------------------------------------------------------------------------
# Serialization (mirrors the parser exactly)


def format_element(e: FieldElement) -> str:
    return " ".join(str(c) for c in e.coeffs) + f" / {e.den}"


def format_ideal(a: FractionalIdeal) -> str:
    lines = ["ideal hnf"]
    lines.extend(" ".join(str(x) for x in row) for row in a.num)
    lines.append(f"den {a.den}")
    return "\n".join(lines)


def format_pseudo(pm: PseudoMatrix) -> str:
    lines = [f"pseudo {pm.nrows} {pm.ncols}"]
    for a in pm.ideals:
        lines.append(format_ideal(a))
    for row in pm.rows:
        lines.append("  ".join(format_element(e) for e in row))
    return "\n".join(lines)


def format_bipseudo(bp: BiPseudoMatrix) -> str:
    lines = [f"bipseudo {bp.n}"]
    for a in bp.row_ideals:
        lines.append(format_ideal(a))
    for a in bp.col_ideals:
        lines.append(format_ideal(a))
    for row in bp.rows:
        lines.append("  ".join(format_element(e) for e in row))
    return "\n".join(lines)


def format_chain(chain: DivisorChain) -> str:
    return "\n".join(format_ideal(a) for a in chain)


def format_absolute(mat) -> str:
    lines = [f"matrix {len(mat)} {len(mat[0])}"]
    lines.extend(" ".join(str(x) for x in row) for row in mat)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Oracles for `check`


# cofactor expansion costs n! products; larger determinants are not checked
_DET_ORACLE_MAX = 6


def _det_oracle(field: NumberField, rows) -> FieldElement:
    """Cofactor expansion along the first row, independent of ``det``."""
    n = len(rows)
    if n > _DET_ORACLE_MAX:
        raise ValueError(f"det oracle limited to {_DET_ORACLE_MAX}x{_DET_ORACLE_MAX}")
    if n == 1:
        return rows[0][0]
    acc = field.zero()
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det_oracle(field, minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def check_hnf(pm: PseudoMatrix, out: PseudoMatrix) -> bool:
    m = pm.ncols
    for r in range(m):
        if out.rows[r][r] != pm.field.one():
            return False
        if any(out.rows[r][t] for t in range(r + 1, m)):
            return False
    return module_hnf(pm) == module_hnf(out)


def check_snf_d1(bp: BiPseudoMatrix, chain: DivisorChain) -> bool:
    """Integer SNF oracle: valid for degree-1 fields (all ideals principal)."""
    field = bp.field
    n = bp.n
    mat = []
    for i in range(n):
        b_i = Fraction(bp.row_ideals[i].num[0][0], bp.row_ideals[i].den)
        row = []
        for j in range(n):
            a_j = Fraction(bp.col_ideals[j].num[0][0], bp.col_ideals[j].den)
            v = Fraction(bp.rows[i][j].coeffs[0], bp.rows[i][j].den) * a_j / b_i
            if v.denominator != 1:
                return False
            row.append(int(v))
        mat.append(row)
    s = zlinalg.z_snf(mat)
    expected = sorted(abs(s[i][i]) for i in range(n))
    got = sorted(Fraction(a.num[0][0], a.den) for a in chain)
    return [Fraction(x) for x in expected] == got


def check_snf_chain(chain: DivisorChain, det_ideal) -> bool:
    """Divisor chain laws: integral ideals, each containing the one before,
    whose product is ``det_ideal``, the quotient's determinantal ideal."""
    if determinant.product_of_ideals(chain.ideals) != det_ideal:
        return False
    for i in range(1, len(chain)):
        if not chain[i - 1].is_subset(chain[i]):
            return False
    return all(a.is_integral() for a in chain)


# ---------------------------------------------------------------------------
# Command driver


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="okmod",
        description="Exact pseudo-Hermite/Smith normal forms over rings of integers")
    ap.add_argument("command",
                    choices=["hnf", "snf", "det", "detideal", "canonical",
                             "absolute", "check"])
    ap.add_argument("--field", required=True, help="field description file")
    ap.add_argument("--matrix", required=True, help="pseudo/bi-pseudo matrix file")
    ap.add_argument("--canonical", action="store_true",
                    help="canonicalize the pseudo-Hermite output")
    ap.add_argument("--check", action="store_true",
                    help="run the matching oracle after computing")
    ap.add_argument("--op", choices=["hnf", "snf", "det"], default=None,
                    help="oracle selection for the check command")
    return ap


def _run(op: str, label: str, matrix, canonical: bool, check: bool):
    """Printed result of ``op`` (hnf, snf or det) on ``matrix`` and a thunk for
    its oracle verdict.  ``label`` names the command in refusals; the det
    oracle runs before the result is returned, so an oversized one refuses
    before anything is printed."""
    field = matrix.field
    if op == "snf":
        if not isinstance(matrix, BiPseudoMatrix):
            raise ValueError(f"{label} expects a bi-pseudo matrix file")
        # one determinantal ideal serves the elimination and the product law
        det_ideal = quotient_determinantal_ideal(matrix)
        chain = pseudo_snf(matrix, det_ideal)
        return format_chain(chain), lambda: check_snf_chain(chain, det_ideal) and (
            field.degree != 1 or check_snf_d1(matrix, chain))
    if not isinstance(matrix, PseudoMatrix):
        raise ValueError(f"{label} expects a pseudo matrix file")
    if op == "hnf":
        out = pseudo_hnf(matrix)
        if canonical:
            out = canonicalize(out)
        return format_pseudo(out), lambda: check_hnf(matrix, out)
    value = determinant.det(field, matrix.rows)
    expected = _det_oracle(field, matrix.rows) if check else None
    return format_element(value), lambda: value == expected


def main(argv=None) -> int:
    # entries are exact integers of any length: lift Python's int/str digit
    # limit while the command runs, and restore it afterwards
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        field = parse_field_file(args.field)
        matrix = parse_matrix_file(args.matrix, field)
    except (ParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2

    command = args.command
    try:
        if command == "detideal":
            if not isinstance(matrix, PseudoMatrix):
                raise ValueError("detideal expects a pseudo matrix file")
            print(format_ideal(determinant.determinantal_ideal_multiple(matrix)))
            return 0
        if command == "absolute":
            if not isinstance(matrix, PseudoMatrix):
                raise ValueError("absolute expects a pseudo matrix file")
            print(format_absolute(to_absolute(matrix)))
            return 0
        if command == "check":
            op = args.op or ("snf" if isinstance(matrix, BiPseudoMatrix) else "hnf")
            _text, verdict = _run(op, f"check --op {op}", matrix, args.canonical, check=True)
        else:
            op = "hnf" if command == "canonical" else command
            text, verdict = _run(op, op, matrix, args.canonical or command == "canonical",
                                 args.check)
            print(text)
            if not args.check:
                return 0
        ok = verdict()
        print("PASS" if ok else "FAIL")
        return 0 if ok else 3
    except (ValueError, ZeroDivisionError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
