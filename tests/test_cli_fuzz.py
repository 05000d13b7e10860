"""Parser and command-line fuzzing: mutated field and matrix files.

Valid files are built from small seeded inputs, then one token or line is
mutated.  A mutation that is malformed by construction (a junk word, a cut-off
file, trailing content) must give exit code 2 and a ``line N`` message naming
the offending line; any other mutation may parse or not, but the command must
end with a documented exit code and never with a traceback.  The hypothesis
runs are derandomized and keep no example database, so every run draws the
same examples.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from okmod import BiPseudoMatrix, FractionalIdeal, PseudoMatrix, cli

from conftest import FIELD_SPECS, EXTRA_SPECS, get_field, random_element, random_ideal, seeded

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

FUZZ_FIELDS = ["Q", "Qi", "Qm5", "golden", "cubic"]

COMMANDS = [["hnf"], ["hnf", "--check"], ["canonical"], ["snf", "--check"], ["det"],
            ["detideal"], ["absolute"], ["check"]]

# words that are neither integers nor keywords of either grammar
JUNK = ["x", "1.5", "0x1f", "--", "1/2", "ideals", "hnf2"]


def field_text(name):
    poly, basis = {**FIELD_SPECS, **EXTRA_SPECS}[name]
    d = len(poly) - 1
    basis = basis or [[int(i == j) for j in range(d)] for i in range(d)]
    lines = [f"degree {d}", "poly " + " ".join(map(str, poly))]
    for row in basis:
        den = 1
        for x in row:
            den = max(den, getattr(x, "denominator", 1))
        lines.append(" ".join(str(int(x * den)) for x in row) + f" / {den}")
    return "\n".join(lines) + "\n"


def _bases():
    """(field name, field text, matrix text): a small pseudo and bi-pseudo
    matrix file per field."""
    rng = seeded("test_cli_fuzz bases")
    out = []
    for name in FUZZ_FIELDS:
        K = get_field(name)
        u = FractionalIdeal.unit(K)
        n, m = rng.randint(2, 3), 2
        rows = [[random_element(rng, K, lim=5) for _ in range(m)] for _ in range(n)]
        ideals = [random_ideal(rng, K, lim=3) if rng.random() < 0.5 else u for _ in range(n)]
        out.append((name, field_text(name), cli.format_pseudo(PseudoMatrix(K, rows, ideals))))
        diag = [[K.from_int(rng.randint(1, 6)) if i == j else K.zero() for j in range(2)]
                for i in range(2)]
        bp = BiPseudoMatrix(K, diag, [u, u], [u, random_ideal(rng, K, lim=3)])
        out.append((name, field_text(name), cli.format_bipseudo(bp)))
    return out


BASES = _bases()


def tokens(text):
    """(line number, token) pairs; the files carry no comments."""
    return [(ln, tok) for ln, line in enumerate(text.splitlines(), 1) for tok in line.split()]


def untokens(toks):
    lines = {}
    for ln, tok in toks:
        lines.setdefault(ln, []).append(tok)
    return "\n".join(" ".join(lines[ln]) for ln in sorted(lines)) + "\n"


def run(argv_head, field, matrix):
    with tempfile.TemporaryDirectory() as tmp:
        fpath, mpath = Path(tmp, "k.field"), Path(tmp, "m.matrix")
        fpath.write_text(field)
        mpath.write_text(matrix)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv_head + ["--field", str(fpath), "--matrix", str(mpath)])
    return code, out.getvalue(), err.getvalue()


def parse_error_line(err):
    match = re.fullmatch(r"parse error: line (\d+): [^\n]+\n", err)
    assert match, err
    return int(match.group(1))


def test_bases_are_valid():
    for _name, ftext, mtext in BASES:
        head = ["snf"] if mtext.startswith("bipseudo") else ["hnf"]
        code, out, err = run(head, ftext, mtext)
        assert code == 0 and out and not err


@st.composite
def malformed(draw):
    """(field text, matrix text, target, line of the fault): one fault that
    no reading of the grammar accepts."""
    _name, ftext, mtext = draw(st.sampled_from(BASES))
    target = draw(st.sampled_from(["field", "matrix"]))
    toks = tokens(ftext if target == "field" else mtext)
    kind = draw(st.sampled_from(["junk", "cut", "trailing"]))
    if kind == "junk":
        i = draw(st.integers(0, len(toks) - 1))
        line = toks[i][0]
        toks[i] = (line, draw(st.sampled_from(JUNK)))
    elif kind == "cut":
        toks = toks[:draw(st.integers(1, len(toks) - 1))]
        line = toks[-1][0]
    else:
        line = toks[-1][0] + draw(st.integers(0, 1))
        toks.append((line, draw(st.sampled_from(JUNK + ["0", "7", "ideal", "/"]))))
    text = untokens(toks)
    if target == "field":
        return text, mtext, target, line
    return ftext, text, target, line


@FUZZ
@given(case=malformed(), head=st.sampled_from(COMMANDS))
def test_malformed_input_exits_2_naming_the_line(case, head):
    ftext, mtext, _target, line = case
    code, out, err = run(head, ftext, mtext)
    assert code == 2 and out == ""
    assert parse_error_line(err) == line


@st.composite
def mutated(draw):
    """(field text, matrix text): one token replaced by a small integer or a
    keyword, deleted, duplicated or swapped, or one line deleted or
    duplicated; the result may or may not be valid."""
    _name, ftext, mtext = draw(st.sampled_from(BASES))
    target = draw(st.sampled_from(["field", "matrix"]))
    toks = tokens(ftext if target == "field" else mtext)
    i = draw(st.integers(0, len(toks) - 1))
    kind = draw(st.sampled_from(["int", "word", "delete", "duplicate", "swap",
                                 "drop line", "repeat line"]))
    if kind == "int":
        toks[i] = (toks[i][0], str(draw(st.integers(-12, 12))))
    elif kind == "word":
        toks[i] = (toks[i][0], draw(st.sampled_from(
            ["ideal", "hnf", "gens", "den", "/", "pseudo", "bipseudo", "degree", "poly"])))
    elif kind == "delete":
        del toks[i]
    elif kind == "duplicate":
        toks.insert(i, toks[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(toks) - 1))
        toks[i], toks[j] = (toks[i][0], toks[j][1]), (toks[j][0], toks[i][1])
    else:
        ln = toks[i][0]
        line = [(ln, tok) for l2, tok in toks if l2 == ln]
        rest = [t for t in toks if t[0] != ln]
        if kind == "drop line":
            toks = rest
        else:
            # the copy goes right after the line, renumbering what follows
            toks = ([t for t in rest if t[0] < ln] + line + [(ln + 1, tok) for _, tok in line]
                    + [(l2 + 1, tok) for l2, tok in rest if l2 > ln])
    text = untokens(toks) if toks else ""
    return (text, mtext) if target == "field" else (ftext, text)


@FUZZ
@given(case=mutated(), head=st.sampled_from(COMMANDS))
def test_mutated_input_ends_with_a_documented_exit_code(case, head):
    ftext, mtext = case
    code, out, err = run(head, ftext, mtext)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        n_lines = max(len(ftext.splitlines()), len(mtext.splitlines()), 1)
        assert 1 <= parse_error_line(err) <= n_lines
    elif code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""


def test_empty_files_name_a_line():
    _name, ftext, mtext = BASES[0]
    for field, matrix in (("", mtext), (ftext, ""), ("\n\n", mtext)):
        code, out, err = run(["hnf"], field, matrix)
        assert code == 2 and out == ""
        assert parse_error_line(err) >= 1
