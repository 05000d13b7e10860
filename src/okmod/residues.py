"""Word-size prime residue machinery: splitting, projections, two-stage CRT.

Polynomials over F_p are coefficient tuples, constant term first, with no
trailing zeros.  Prime plans take the primes just below 2^62, so a
determinant needs a handful of them.  Factorization is fully deterministic:
distinct-degree splitting first, then equal-degree splitting of g by a kernel
vector v of the Frobenius endomorphism (Berlekamp), through
gcd((v + s)^((p-1)/2) - 1, g) for s = 0, 1, 2, ...: two distinct values of v
modulo the irreducible factors differ in quadratic character for (p-1)/2 of
the shifts s, so the scan stops after about two of them.  The powers behind
both steps (x^p for the distinct degrees, (v + s)^((p-1)/2) for the split)
square and multiply on dense coefficient lists, and each product is reduced
once against the modulus made monic, x^k = -low, with no trimming between
steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numberfield import FieldElement, FieldError, NumberField

Poly = tuple[int, ...]


class ResidueError(ValueError):
    pass


# ---------------------------------------------------------------------------
# F_p[x] arithmetic


def poly_trim(c: list[int], p: int) -> Poly:
    c = [x % p for x in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)], p)


def poly_sub(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                      for i in range(n)], p)


def poly_mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out, p)


def poly_divmod(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = [x % p for x in a]
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    for k in range(len(r) - len(b), -1, -1):
        c = (r[k + len(b) - 1] * inv_lead) % p
        if c:
            q[k] = c
            for j, y in enumerate(b):
                r[k + j] = (r[k + j] - c * y) % p
    return poly_trim(q, p), poly_trim(r, p)


def poly_mod(a: Poly, b: Poly, p: int) -> Poly:
    return poly_divmod(a, b, p)[1]


def poly_gcd(a: Poly, b: Poly, p: int) -> Poly:
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = poly_trim([x * inv for x in a], p)
    return a


def poly_pow_mod(a: Poly, e: int, mod: Poly, p: int) -> Poly:
    """a^e mod (mod, p) for mod of degree k >= 1, by square-and-multiply.

    Residues are dense lists of k coefficients.  A product is formed on
    unreduced integers and reduced once: its coefficients from the top down
    fold through x^k = -low, where low is mod made monic without its leading
    term, and a single pass mod p ends it.
    """
    k = len(mod) - 1
    if e == 0:
        return (1,)
    inv_lead = pow(mod[-1], -1, p)
    neg_low = [(-c * inv_lead) % p for c in mod[:-1]]

    def mul(x: list[int], y: list[int]) -> list[int]:
        prod = [0] * (2 * k - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    prod[i + j] += xi * yj
        for t in range(2 * k - 2, k - 1, -1):
            c = prod[t] % p
            if c:
                for j, n in enumerate(neg_low, t - k):
                    prod[j] += c * n
        return [c % p for c in prod[:k]]

    base = list(poly_mod(a, mod, p))
    base += [0] * (k - len(base))
    result = None
    while True:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if not e:
            return poly_trim(result, p)
        base = mul(base, base)


def poly_inverse_mod(a: Poly, mod: Poly, p: int) -> Poly:
    """Inverse of a modulo an irreducible polynomial (extended Euclid)."""
    if len(a) == 1 and a[0] % p:
        return (pow(a[0], -1, p),)
    r0, r1 = mod, poly_mod(a, mod, p)
    t0, t1 = (), (1,)
    while r1:
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    inv = pow(r0[0], -1, p)
    return poly_trim([x * inv for x in t0], p)


# ---------------------------------------------------------------------------
# Deterministic factorization of squarefree monic polynomials


def _frobenius_kernel(g: Poly, p: int) -> list[Poly]:
    """Basis of the kernel of (Frobenius - id) on F_p[x]/(g)."""
    n = len(g) - 1
    rows = []
    xp = poly_pow_mod((0, 1), p, g, p)
    cur: Poly = (1,)
    for i in range(n):
        row = list(cur) + [0] * (n - len(cur))
        row[i] = (row[i] - 1) % p
        rows.append(row)
        cur = poly_mod(poly_mul(cur, xp, p), g, p)
    # kernel of the matrix acting on row vectors: v * Q = 0
    mat = [rows[i][:] for i in range(n)]
    # transpose so we solve M y = 0 with y the coefficient column
    m = [[mat[i][j] for i in range(n)] for j in range(n)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-m[i][fc]) % p
        basis.append(poly_trim(v, p))
    return basis


def _split_equal_degree(g: Poly, p: int) -> list[Poly]:
    """All monic irreducible factors of a squarefree g (deterministic)."""
    if len(g) <= 2:
        return [g]
    kernel = _frobenius_kernel(g, p)
    if len(kernel) <= 1:
        return [g]
    for v in kernel:
        if len(v) <= 1:
            continue
        for s in range(p):
            w = poly_add(v, (s,), p)
            if p > 2:
                w = poly_sub(poly_pow_mod(w, (p - 1) // 2, g, p), (1,), p)
            h = poly_gcd(w, g, p)
            if 1 < len(h) < len(g):
                rest = poly_divmod(g, h, p)[0]
                return _split_equal_degree(h, p) + _split_equal_degree(rest, p)
    raise ResidueError("equal-degree splitting failed on reducible input")


def factor_squarefree(f: Poly, p: int) -> list[Poly]:
    """Monic irreducible factors of a squarefree monic polynomial mod p."""
    out: list[Poly] = []
    rest = f
    e = 1
    x = (0, 1)
    xq = x
    while len(rest) - 1 >= 2 * e:
        xq = poly_pow_mod(xq, p, rest, p)
        g = poly_gcd(poly_sub(xq, x, p), rest, p)
        if len(g) > 1:
            if len(g) - 1 == e:
                out.append(g)
            else:
                out.extend(_split_equal_degree(g, p))
            rest = poly_divmod(rest, g, p)[0]
            xq = poly_mod(xq, rest, p)
        e += 1
    if len(rest) > 1:
        out.append(rest)
    out.sort(key=lambda q: (len(q), q))
    return out


# ---------------------------------------------------------------------------
# Residue systems and prime plans


@dataclass(frozen=True)
class ResidueSystem:
    """Split structure of one unramified rational prime."""

    field: NumberField
    p: int
    fbar: Poly
    factors: tuple[Poly, ...]
    # [factor][t][j]: coefficient of x^t in basis element j mod the factor
    proj_mats: tuple[tuple[tuple[int, ...], ...], ...]
    crt_mults: tuple[Poly, ...]  # u_i * (fbar / fbar_i) mod fbar


def split_prime(field: NumberField, p: int) -> ResidueSystem:
    """Dedekind-Kummer splitting; requires p coprime to disc(f)."""
    if field.disc_f % p == 0:
        raise ResidueError(f"prime {p} divides disc(f)")
    fbar = poly_trim(list(field.poly), p)
    if len(fbar) != field.degree + 1:
        raise ResidueError("defining polynomial degenerates mod p")
    factors = tuple(factor_squarefree(fbar, p))
    if sum(len(g) - 1 for g in factors) != field.degree:
        raise ResidueError("factorization degrees do not sum to the field degree")
    # the basis over the power basis: its denominators divide the index, so
    # they are units mod p
    cols = [poly_trim([q.numerator * pow(q.denominator, -1, p) for q in row], p)
            for row in field.basis_pow]
    proj, mults = [], []
    for g in factors:
        images = [poly_mod(c, g, p) for c in cols]
        proj.append(tuple(tuple(c[t] if t < len(c) else 0 for c in images)
                          for t in range(len(g) - 1)))
        rest = poly_divmod(fbar, g, p)[0]
        mults.append(poly_mod(poly_mul(poly_inverse_mod(rest, g, p), rest, p), fbar, p))
    return ResidueSystem(field, p, fbar, factors, tuple(proj), tuple(mults))


def project_element(beta: FieldElement, sys: ResidueSystem) -> list[Poly]:
    """Images of an integral element in each residue field F_p[x]/(fbar_i)."""
    if beta.den != 1:
        raise FieldError("projection requires an integral element")
    coeffs = beta.coeffs
    return [poly_trim([sum(x * c for x, c in zip(row, coeffs)) for row in mat], sys.p)
            for mat in sys.proj_mats]


def crt_combine_factors(values: list[Poly], sys: ResidueSystem) -> Poly:
    """Unique preimage in F_p[x]/(fbar) of one residue per factor."""
    if len(values) != len(sys.factors):
        raise ResidueError("one value per factor required")
    p = sys.p
    acc: Poly = ()
    for v, mult in zip(values, sys.crt_mults):
        acc = poly_add(acc, poly_mul(v, mult, p), p)
    acc = poly_mod(acc, sys.fbar, p)
    for v, g in zip(values, sys.factors):
        if poly_mod(acc, g, p) != poly_mod(v, g, p):
            raise ResidueError("internal error: factor recombination mismatch")
    return acc


@dataclass(frozen=True)
class PrimePlan:
    """Ordered admissible primes whose product exceeds the recovery bound."""

    log_bound: Fraction
    primes: tuple[int, ...]
    modulus: int


def plan_primes(field: NumberField, log_bound) -> PrimePlan:
    """First primes below 2^62 coprime to disc(f) with product > 2^(log_bound + 1)."""
    log_bound = Fraction(log_bound)
    if log_bound <= 0:
        raise ResidueError("bound must be positive")
    ceiling = log_bound.numerator // log_bound.denominator
    if ceiling < log_bound:
        ceiling += 1
    target = 1 << (ceiling + 1)
    # the admissible primes found so far are kept on the field, in order,
    # and extended only when a plan needs more of them
    known = field.admissible_primes
    count = 0
    n_prod = 1
    while n_prod <= target:
        if count == len(known):
            cand = known[-1] - 2 if known else (1 << 62) - 1
            while not (field.disc_f % cand and _is_prime(cand)):
                cand -= 2
            known.append(cand)
        n_prod *= known[count]
        count += 1
    return PrimePlan(log_bound, tuple(known[:count]), n_prod)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases above: exact for odd 37 < n < 3.18 * 10^23."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def symmetric_lift(x: int, n: int) -> int:
    r = x % n
    return r - n if 2 * r > n else r


def crt_combine_primes(per_prime: list[Poly], plan: PrimePlan, degree: int) -> list[int]:
    """Coefficientwise integer CRT with a symmetric lift into (-N/2, N/2]."""
    if len(per_prime) != len(plan.primes):
        raise ResidueError("one polynomial per plan prime required")
    coeffs = []
    for t in range(degree):
        val, mod = 0, 1
        for poly, p in zip(per_prime, plan.primes):
            c = poly[t] if t < len(poly) else 0
            # incremental CRT
            inv = pow(mod % p, -1, p)
            val = val + mod * (((c - val) * inv) % p)
            mod *= p
        coeffs.append(symmetric_lift(val, plan.modulus))
    return coeffs


def lift_to_field(coeffs: list[int], field: NumberField, modulus: int) -> FieldElement:
    """Preimage of a power-basis polynomial mod (f, N) on the integral basis.

    Valid when the true element's coefficients are below N/2 in absolute
    value; the caller guarantees this via the recovery bound.
    """
    d = field.degree
    out = []
    for i in range(d):
        acc = sum(field.power_to_basis[i][j] * coeffs[j] for j in range(min(d, len(coeffs))))
        out.append(symmetric_lift(acc, modulus))
    return field.element(out)
