"""The benchmark's workloads: set-up, one pass over the corpus, output size
and the independent output checks.

A workload is an object with
  ``setup(seed, workdir)``  fields, corpus and (cli) input files;
  ``ops``                   the operations of one pass, in order, each a
                            tuple (kind, field name, ...);
  ``run(op)``               one operation, the only code inside the timer;
  ``plain(op, result)``     the result as plain data, for comparisons;
  ``entry_bits(op, result)`` the largest entry bit size of the main call;
  ``check(op, result)``     raises oracle.CheckFailed on a wrong result.
"""

from __future__ import annotations

import contextlib
import io
import os

import corpus

import okmod
import okmod.cli


def element_data(e):
    return (list(e.coeffs), e.den)


def ideal_data(a):
    return ([list(r) for r in a.num], a.den)


def pseudo_data(pm):
    return ([[element_data(e) for e in row] for row in pm.rows],
            [ideal_data(a) for a in pm.ideals])


def element_bits(coeffs, den):
    """Bit size of an entry: largest coefficient numerator plus denominator."""
    return max(abs(c).bit_length() for c in coeffs) + den.bit_length()


def _oracle_field(name):
    import oracle
    return oracle.Field(corpus.FIELD_POLYS[name])


class HnfWorkload:
    """canonicalize(pseudo_hnf(pm)); the multiple of the determinantal ideal
    is computed inside pseudo_hnf."""

    name = "hnf"

    def setup(self, seed, workdir):
        fields = corpus.build_fields(sorted({s[0] for s in corpus.HNF_SHAPES}))
        self.ops = [("hnf", name, pm) for name, pm in corpus.hnf_corpus(fields, seed)]

    @staticmethod
    def run(op):
        raw = okmod.pseudo_hnf(op[2])
        return raw, okmod.canonicalize(raw)

    @staticmethod
    def plain(op, result):
        return pseudo_data(result[1])

    @staticmethod
    def entry_bits(op, result):
        return max(element_bits(e.coeffs, e.den) for row in result[0].rows for e in row)

    @staticmethod
    def check(op, result):
        import oracle
        _kind, name, pm = op
        oracle.check_hnf_output(_oracle_field(name), pseudo_data(pm), pseudo_data(result[1]))


class DetWorkload:
    """det(K, rows) on square matrices and determinantal_ideal_multiple on
    tall pseudo-matrices."""

    name = "det"

    def setup(self, seed, workdir):
        fields = corpus.build_fields(sorted({op[1] for op in corpus.DET_OPS}))
        self.ops = [(kind, name, fields[name], x)
                    for kind, name, x in corpus.det_corpus(fields, seed)]

    @staticmethod
    def run(op):
        kind, _name, K, x = op
        if kind == "det":
            return okmod.det(K, x)
        return okmod.determinantal_ideal_multiple(x)

    @staticmethod
    def plain(op, result):
        return element_data(result) if op[0] == "det" else ideal_data(result)

    @staticmethod
    def entry_bits(op, result):
        if op[0] == "det":
            return element_bits(result.coeffs, result.den)
        return max(abs(x).bit_length() for r in result.num for x in r) + result.den.bit_length()

    @staticmethod
    def check(op, result):
        import oracle
        kind, name, _K, x = op
        F = _oracle_field(name)
        if kind == "det":
            oracle.check_det(F, [[element_data(e) for e in row] for row in x],
                             element_data(result))
        else:
            oracle.check_detideal(F, pseudo_data(x), ideal_data(result))


class CliWorkload:
    """okmod.cli.main over text files: ``hnf --canonical --check`` and
    ``snf --check`` alternately, stdout captured.  Every call parses the
    field file and builds the field cold."""

    name = "cli"

    def setup(self, seed, workdir):
        fields = corpus.build_fields(sorted({op[1] for op in corpus.CLI_OPS}))
        self.fields = fields
        os.makedirs(workdir, exist_ok=True)
        self.ops = []
        for idx, (kind, name, mat) in enumerate(corpus.cli_corpus(fields, seed)):
            fpath = os.path.join(workdir, f"{name}.field")
            if not os.path.exists(fpath):
                with open(fpath, "w", encoding="utf-8") as fh:
                    fh.write(corpus.field_text(name))
            mpath = os.path.join(workdir, f"{idx:02d}-{kind}-{name}.matrix")
            text = (okmod.cli.format_pseudo(mat) if kind == "hnf"
                    else okmod.cli.format_bipseudo(mat))
            with open(mpath, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            flags = ["--canonical", "--check"] if kind == "hnf" else ["--check"]
            argv = [kind, "--field", fpath, "--matrix", mpath] + flags
            self.ops.append((kind, name, mat, argv))

    @staticmethod
    def run(op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = okmod.cli.main(op[3])
        if code not in (0, 3):     # 3 is an oracle FAIL, which the check reports
            raise RuntimeError(f"okmod {op[0]} exited with code {code}")
        return code, buf.getvalue()

    @staticmethod
    def plain(op, result):
        return result

    def _parsed(self, op, result):
        """(body, verdict): the printed result as plain data, and the last line."""
        kind, name = op[0], op[1]
        lines = result[1].rstrip("\n").split("\n")
        body, verdict = "\n".join(lines[:-1]), lines[-1]
        if kind == "hnf":
            return pseudo_data(okmod.cli.parse_matrix_text(body, self.fields[name])), verdict
        return _parse_chain(body), verdict

    def entry_bits(self, op, result):
        body, _ = self._parsed(op, result)
        if op[0] == "hnf":
            return max(element_bits(c, k) for row in body[0] for c, k in row)
        return max(max(abs(x).bit_length() for r in num for x in r) + den.bit_length()
                   for num, den in body)

    def check(self, op, result):
        import oracle
        kind, name, mat, _argv = op
        body, verdict = self._parsed(op, result)
        if result[0] != 0 or verdict != "PASS":
            raise oracle.CheckFailed(f"okmod --check exited {result[0]}, printed {verdict!r}")
        F = _oracle_field(name)
        if kind == "hnf":
            oracle.check_hnf_output(F, pseudo_data(mat), body)
        else:
            bp = ([[element_data(e) for e in row] for row in mat.rows],
                  [ideal_data(a) for a in mat.row_ideals],
                  [ideal_data(a) for a in mat.col_ideals])
            oracle.check_snf_chain(F, bp, body)


def _parse_chain(text):
    """Ideals printed as ``ideal hnf`` / d numerator rows / ``den k`` blocks."""
    chain = []
    num = None
    for line in text.split("\n"):
        words = line.split()
        if words == ["ideal", "hnf"]:
            num = []
        elif words and words[0] == "den":
            chain.append((num, int(words[1])))
        elif words:
            num.append([int(w) for w in words])
    return chain


WORKLOADS = {w.name: w for w in (HnfWorkload, DetWorkload, CliWorkload)}
