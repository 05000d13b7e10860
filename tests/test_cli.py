"""Front-end formats, commands, exit codes, fault injection."""

import importlib
import io
import sys

import pytest

from okmod import (BiPseudoMatrix, DivisorChain, FractionalIdeal, PseudoMatrix,
                   determinantal_ideal)
from okmod import cli

from conftest import QM5_OBSTRUCTION_IN_MODULUS, get_field, random_element, random_ideal, seeded


GAUSS_FIELD = """\
degree 2
poly 1 0 1
1 0 / 1
0 1 / 1
"""

RAT_FIELD = """\
degree 1
poly 0 1
1 / 1
"""

GOLDEN_FIELD = """\
degree 2
poly -5 0 1
1 0 / 1
1 1 / 2
"""

PSEUDO_FILE = """\
pseudo 3 2
ideal hnf
1 0
0 1
den 1
ideal gens 1
1 1 / 1
ideal hnf
1 0
0 1
den 1
1 1 / 1  0 0 / 1
0 1 / 1  2 0 / 1
1 0 / 1  1 1 / 1
"""

BIPSEUDO_FILE = """\
bipseudo 2
ideal hnf
1
den 1
ideal hnf
1
den 1
ideal hnf
1
den 1
ideal hnf
1
den 1
2 / 1  0 / 1
0 / 1  6 / 1
"""


def run_cli(args):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(args)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_field_examples():
    K = cli.parse_field_text(GAUSS_FIELD)
    assert K.degree == 2 and K.disc == -4
    Q = cli.parse_field_text(RAT_FIELD)
    assert Q.degree == 1
    K5 = cli.parse_field_text(GOLDEN_FIELD)
    assert K5.disc == 5 and K5.index == 2


def test_parse_field_errors_report_line():
    with pytest.raises(cli.ParseError) as err:
        cli.parse_field_text("degree 2\npoly 1 0 2\n1 0 / 1\n0 1 / 1\n")
    assert "monic" in str(err.value)
    with pytest.raises(cli.ParseError) as err:
        cli.parse_field_text("degree 2\npoly 1 0 1\n1 0 / 0\n0 1 / 1\n")
    assert "line 3" in str(err.value)


def test_parse_matrix_and_roundtrip():
    K = cli.parse_field_text(GAUSS_FIELD)
    pm = cli.parse_matrix_text(PSEUDO_FILE, K)
    assert isinstance(pm, PseudoMatrix)
    assert pm.nrows == 3 and pm.ncols == 2
    again = cli.parse_matrix_text(cli.format_pseudo(pm), K)
    assert again.rows == pm.rows and again.ideals == pm.ideals


def test_parse_bipseudo_and_roundtrip():
    Q = cli.parse_field_text(RAT_FIELD)
    bp = cli.parse_matrix_text(BIPSEUDO_FILE, Q)
    assert isinstance(bp, BiPseudoMatrix)
    again = cli.parse_matrix_text(cli.format_bipseudo(bp), Q)
    assert again.rows == bp.rows


def test_bipseudo_integrality_rejected_with_location():
    K = cli.parse_field_text(GAUSS_FIELD)
    bad = """\
bipseudo 1
ideal gens 1
2 0 / 1
ideal hnf
1 0
0 1
den 1
1 0 / 1
"""
    with pytest.raises(cli.ParseError) as err:
        cli.parse_matrix_text(bad, K)
    assert err.value.line == 1 and "(0, 0)" in str(err.value)


def test_roundtrip_random(field):
    rng = seeded("test_cli::test_roundtrip_random")
    u = FractionalIdeal.unit(field)
    for _ in range(5):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[random_element(rng, field, max_den=4) for _ in range(m)] for _ in range(n)]
        ideals = [random_ideal(rng, field, fractional=True) if rng.random() < 0.5 else u
                  for _ in range(n)]
        pm = PseudoMatrix(field, rows, ideals)
        text = cli.format_pseudo(pm)
        again = cli.parse_matrix_text(text, field)
        assert again.rows == pm.rows and again.ideals == pm.ideals
        assert cli.format_pseudo(again) == text


def test_hnf_command(tmp_path):
    f = write(tmp_path, "g.field", GAUSS_FIELD)
    m = write(tmp_path, "m.pm", PSEUDO_FILE)
    code, out = run_cli(["hnf", "--field", f, "--matrix", m, "--check"])
    assert code == 0
    assert out.strip().endswith("PASS")


def test_canonical_hnf_deterministic(tmp_path):
    f = write(tmp_path, "g.field", GAUSS_FIELD)
    m = write(tmp_path, "m.pm", PSEUDO_FILE)
    code1, out1 = run_cli(["hnf", "--field", f, "--matrix", m, "--canonical"])
    code2, out2 = run_cli(["canonical", "--field", f, "--matrix", m])
    assert code1 == code2 == 0
    assert out1 == out2


def test_snf_command(tmp_path):
    f = write(tmp_path, "r.field", RAT_FIELD)
    m = write(tmp_path, "b.bpm", BIPSEUDO_FILE)
    code, out = run_cli(["snf", "--field", f, "--matrix", m, "--check"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[-1] == "PASS"
    assert "6" in out and "2" in out


def test_snf_check_passes_when_the_obstruction_lies_in_the_modulus(tmp_path, capsys):
    f = write(tmp_path, "qm5.field", "degree 2\npoly 5 0 1\n1 0 / 1\n0 1 / 1\n")
    m = write(tmp_path, "b.bpm", QM5_OBSTRUCTION_IN_MODULUS)
    code, out = run_cli(["snf", "--field", f, "--matrix", m, "--check"])
    assert code == 0 and capsys.readouterr().err == ""
    assert out.splitlines()[-1] == "PASS"
    assert out.count("ideal hnf") == 4


def test_snf_check_computes_the_determinantal_ideal_once(tmp_path, monkeypatch):
    # the package's name pseudo_snf is the function; this is its module
    snf_module = importlib.import_module("okmod.pseudo_snf")
    calls = []
    real = snf_module.quotient_determinantal_ideal

    def counted(bp):
        calls.append(bp)
        return real(bp)

    monkeypatch.setattr(snf_module, "quotient_determinantal_ideal", counted)
    monkeypatch.setattr(cli, "quotient_determinantal_ideal", counted)
    f = write(tmp_path, "qm5.field", "degree 2\npoly 5 0 1\n1 0 / 1\n0 1 / 1\n")
    m = write(tmp_path, "b.bpm", QM5_OBSTRUCTION_IN_MODULUS)
    code, out = run_cli(["snf", "--field", f, "--matrix", m, "--check"])
    assert code == 0 and out.splitlines()[-1] == "PASS"
    assert len(calls) == 1

    # a chain whose product is off by the factor 2 still satisfies the chain
    # laws, so only the product law against that one ideal can refuse it
    real_snf = cli.pseudo_snf

    def corrupted(bp, det_ideal=None):
        chain = real_snf(bp, det_ideal)
        two = bp.field.from_int(2)
        return DivisorChain([chain[0].elt_mul(two), *chain.ideals[1:]])

    monkeypatch.setattr(cli, "pseudo_snf", corrupted)
    calls.clear()
    code, out = run_cli(["snf", "--field", f, "--matrix", m, "--check"])
    assert code == 3 and out.splitlines()[-1] == "FAIL"
    assert len(calls) == 1


def test_det_command(tmp_path):
    f = write(tmp_path, "g.field", GAUSS_FIELD)
    sq = """\
pseudo 2 2
ideal hnf
1 0
0 1
den 1
ideal hnf
1 0
0 1
den 1
1 1 / 1  2 0 / 1
0 0 / 1  3 0 / 1
"""
    m = write(tmp_path, "sq.pm", sq)
    code, out = run_cli(["det", "--field", f, "--matrix", m, "--check"])
    assert code == 0
    assert out.splitlines()[0] == "3 3 / 1"


def test_absolute_command(tmp_path):
    f = write(tmp_path, "g.field", GAUSS_FIELD)
    single = """\
pseudo 1 1
ideal gens 1
1 1 / 1
1 0 / 1
"""
    m = write(tmp_path, "one.pm", single)
    code, out = run_cli(["absolute", "--field", f, "--matrix", m])
    assert code == 0
    assert out.splitlines()[0] == "matrix 2 2"


def test_detideal_command(tmp_path):
    f = write(tmp_path, "g.field", GAUSS_FIELD)
    m = write(tmp_path, "m.pm", PSEUDO_FILE)
    code, out = run_cli(["detideal", "--field", f, "--matrix", m])
    assert code == 0
    assert out.startswith("ideal hnf")


# over Q(i) the rows [2, 0], [1+i, 3] span a module of index 36 in Z[i]^2
INDEX_36_FILE = """\
pseudo 2 2
ideal hnf
1 0
0 1
den 1
ideal hnf
1 0
0 1
den 1
2 0 / 1  0 0 / 1
1 1 / 1  3 0 / 1
"""


def test_detideal_command_on_square_input_prints_the_determinantal_ideal(tmp_path):
    K = get_field("Qi")
    f = write(tmp_path, "g.field", GAUSS_FIELD)
    m = write(tmp_path, "m.pm", INDEX_36_FILE)
    code, out = run_cli(["detideal", "--field", f, "--matrix", m])
    pm = cli.parse_matrix_text(INDEX_36_FILE, K)
    assert code == 0
    assert out == cli.format_ideal(determinantal_ideal(pm)) + "\n"
    assert determinantal_ideal(pm) == FractionalIdeal.from_rational(K, 6)


@pytest.mark.parametrize("command", ["hnf", "snf", "check"])
def test_detideal_option_is_refused(tmp_path, capsys, command):
    # okmod computes the multiple of the determinantal ideal itself; a
    # supplied O_K, which is no multiple of (6), once gave the identity
    # form and the chain (1), (1) with exit code 0
    f = write(tmp_path, "g.field", GAUSS_FIELD)
    m = write(tmp_path, "m.pm", INDEX_36_FILE)
    unit = write(tmp_path, "unit.ideal", ideal_text(UNIT_ROWS))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--field", f, "--matrix", m, "--detideal", unit])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--detideal" in captured.err


def test_singular_square_input_is_refused(tmp_path, capsys):
    f = write(tmp_path, "g.field", GAUSS_FIELD)
    m = write(tmp_path, "m.pm", INDEX_36_FILE.replace("1 1 / 1  3 0 / 1", "2 0 / 1  0 0 / 1"))
    code, out = run_cli(["hnf", "--field", f, "--matrix", m])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: pseudo-matrix is singular\n"


def test_parse_error_exit_code(tmp_path):
    f = write(tmp_path, "bad.field", "degree 2\npoly 1 0\n")
    m = write(tmp_path, "m.pm", PSEUDO_FILE)
    code, _ = run_cli(["hnf", "--field", f, "--matrix", m])
    assert code == 2


def test_computation_error_exit_code(tmp_path):
    f = write(tmp_path, "r.field", RAT_FIELD)
    singular = """\
pseudo 2 1
ideal hnf
1
den 1
ideal hnf
1
den 1
0 / 1
0 / 1
"""
    m = write(tmp_path, "s.pm", singular)
    code, _ = run_cli(["hnf", "--field", f, "--matrix", m])
    assert code == 1


def test_check_fault_injection(tmp_path):
    # perturbing one entry of a claimed result must flip the oracle to FAIL;
    # we simulate by checking hnf of a module against a perturbed input
    Q = get_field("Q")
    u = FractionalIdeal.unit(Q)
    pm = PseudoMatrix(Q, [[Q.from_int(2), Q.zero()], [Q.one(), Q.one()]], [u, u])
    from okmod import pseudo_hnf
    out = pseudo_hnf(pm, None)
    assert cli.check_hnf(pm, out)
    bad_rows = [r[:] for r in out.rows]
    bad_rows[0][0] = bad_rows[0][0] + Q.from_int(0)
    bad_rows[1][0] = bad_rows[1][0] + Q.from_int(1)
    bad = PseudoMatrix(Q, bad_rows, out.ideals)
    assert not cli.check_hnf(pm, bad)


def test_check_command_default_op(tmp_path):
    f = write(tmp_path, "r.field", RAT_FIELD)
    m = write(tmp_path, "b.bpm", BIPSEUDO_FILE)
    code, out = run_cli(["check", "--field", f, "--matrix", m])
    assert code == 0 and out.strip() == "PASS"


@pytest.mark.parametrize("op, matrix_text, kind", [
    ("hnf", BIPSEUDO_FILE, "pseudo"),
    ("det", BIPSEUDO_FILE, "pseudo"),
    ("snf", PSEUDO_FILE, "bi-pseudo"),
], ids=["hnf-on-bipseudo", "det-on-bipseudo", "snf-on-pseudo"])
def test_check_op_wrong_matrix_kind(tmp_path, capsys, op, matrix_text, kind):
    field_text = RAT_FIELD if matrix_text is BIPSEUDO_FILE else GAUSS_FIELD
    f = write(tmp_path, "k.field", field_text)
    m = write(tmp_path, "m.matrix", matrix_text)
    code, out = run_cli(["check", "--op", op, "--field", f, "--matrix", m])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: check --op {op} expects a {kind} matrix file\n"


def test_det_check_refuses_large_matrix(tmp_path, capsys):
    # I + v v^t with v = (0, 1, ..., 6): determinant 1 + |v|^2 = 92
    n = 7
    lines = [f"pseudo {n} {n}"] + ["ideal hnf\n1\nden 1"] * n
    lines += ["  ".join(f"{int(i == j) + i * j} / 1" for j in range(n)) for i in range(n)]
    f = write(tmp_path, "r.field", RAT_FIELD)
    m = write(tmp_path, "big.pm", "\n".join(lines) + "\n")
    code, out = run_cli(["det", "--field", f, "--matrix", m, "--check"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: det oracle limited to 6x6\n"
    code, out = run_cli(["det", "--field", f, "--matrix", m])
    assert code == 0 and out.splitlines()[0] == "92 / 1"


HALF_ENTRY_FILE = """\
pseudo 2 2
ideal hnf
1 0
0 1
den 1
ideal hnf
1 0
0 1
den 1
1 0 / 2  0 0 / 1
0 0 / 1  1 0 / 1
"""


@pytest.mark.parametrize("argv", [["hnf", "--check"], ["check", "--op", "hnf"]],
                         ids=["hnf-check", "check-op-hnf"])
def test_module_outside_ring_power_refused_up_front(tmp_path, capsys, argv):
    f = write(tmp_path, "g.field", GAUSS_FIELD)
    m = write(tmp_path, "half.pm", HALF_ENTRY_FILE)
    code, out = run_cli([*argv, "--field", f, "--matrix", m])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        "error: module is not contained in O_K^m; scale the rows first\n")


QM5_FIELD = """\
degree 2
poly 5 0 1
1 0 / 1
0 1 / 1
"""


def ideal_text(rows):
    return "ideal hnf\n" + "".join(f"{a} {b}\n" for a, b in rows) + "den 1\n"


UNIT_ROWS = [(1, 0), (0, 1)]


@pytest.mark.parametrize("rows", [[(2, 0), (5, 1)], [(2, 0), (0, 1)]],
                         ids=["unreduced-hermite-basis", "not-an-ideal"])
@pytest.mark.parametrize("kind", ["pseudo", "bipseudo"])
def test_non_canonical_ideal_block_refused(tmp_path, capsys, kind, rows):
    # over Q(sqrt-5): [[2,0],[5,1]] spans the ideal (2, 1+sqrt-5), whose
    # Hermite basis is [[2,0],[1,1]]; 2Z + sqrt-5 Z is not an ideal at all
    if kind == "pseudo":
        text, line = "pseudo 1 1\n" + ideal_text(rows) + "1 0 / 1\n", 2
    else:
        text = "bipseudo 1\n" + ideal_text(UNIT_ROWS) + ideal_text(rows) + "2 0 / 1\n"
        line = 6
    f = write(tmp_path, "k.field", QM5_FIELD)
    m = write(tmp_path, "m.matrix", text)
    code, out = run_cli(["absolute" if kind == "pseudo" else "snf",
                         "--field", f, "--matrix", m])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        f"parse error: line {line}: ideal hnf block is not the Hermite basis of an ideal\n")


@pytest.mark.parametrize("block, line, message", [
    ("ideal hnf\n1 0\n0 1\nden 0\n", 5, "denominator must be positive"),
    ("ideal gens 1\n0 0 / 1\n", 3, "at least one nonzero generator required"),
], ids=["hnf-den-0", "zero-generator"])
def test_ideal_block_fault_names_its_own_line(tmp_path, capsys, block, line, message):
    # the faulty token's line, not the block's 'ideal' line (line 2)
    f = write(tmp_path, "g.field", GAUSS_FIELD)
    m = write(tmp_path, "m.pm", "pseudo 1 1\n" + block + "1 0 / 1\n")
    code, out = run_cli(["hnf", "--field", f, "--matrix", m])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"parse error: line {line}: {message}\n"


def test_canonical_ideal_block_accepted():
    K = cli.parse_field_text(QM5_FIELD)
    pm = cli.parse_matrix_text("pseudo 1 1\n" + ideal_text([(2, 0), (1, 1)]) + "1 0 / 1\n", K)
    two = FractionalIdeal.from_generators(K, [K.from_int(2)])
    assert pm.ideals[0] == FractionalIdeal.from_generators(K, [K.from_int(2), K.element([1, 1])])
    assert two.is_subset(pm.ideals[0])


def test_integers_of_any_length_round_trip(tmp_path):
    # 5000 digits, past Python's default int/str limit of 4300, which this
    # test sets and expects back after the command: the number stays a string
    big = "9" * 2500 + "7" * 2500
    f = write(tmp_path, "g.field", GAUSS_FIELD)
    m = write(tmp_path, "big.pm", "pseudo 1 1\n" + ideal_text(UNIT_ROWS) + f"{big} 0 / 1\n")
    has_limit = hasattr(sys, "set_int_max_str_digits")   # Python >= 3.10.7
    if has_limit:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
    try:
        code, out = run_cli(["absolute", "--field", f, "--matrix", m])
        assert not has_limit or sys.get_int_max_str_digits() == 4300
    finally:
        if has_limit:
            sys.set_int_max_str_digits(saved)
    assert code == 0
    assert out.split("\n")[1:3] == [f"{big} 0", f"0 {big}"]
