"""Word-size prime residue machinery: splitting, projections, two-stage CRT.

Polynomials over F_p are coefficient tuples, constant term first, with no
trailing zeros.  Prime plans take the primes just below 2^62, so a
determinant needs a handful of them; the first 32 of these are a table, and
only a plan that needs more searches for them.  Factorization is fully
deterministic: distinct-degree splitting first, then equal-degree splitting
of g by a kernel vector v of the Frobenius endomorphism (Berlekamp), through
gcd((v + s)^((p-1)/2) - 1, g) for s = 0, 1, 2, ...: two distinct values of v
modulo the irreducible factors differ in quadratic character for (p-1)/2 of
the shifts s, so the scan stops after about two of them.  x^p mod f is
computed once per prime, and with it the rows x^(i*p) mod f of Frobenius on
F_p[x]/(f): the distinct-degree loop takes x^(p^e) from them by one
vector-matrix product per degree, and the Berlekamp matrix of every factor
g is those rows reduced mod g, which are x^(i*p) mod g since g divides f.
The powers (x^p, and (v + s)^((p-1)/2) for the split) take a 4-bit sliding
window on residues packed one per integer: a product is one integer
multiplication, whose top slots fold through the packed rows x^t mod the
modulus.  Besides the two-stage CRT of one element, many elements at once
go through their integral-basis coordinates: one linear map per prime takes
their residues at its factors to coordinates mod p, and one CRT over the
primes lifts them (``basis_coordinates``, ``lift_coordinates``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

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
    """a^e mod (mod, p) for mod of degree k >= 1, by a 4-bit sliding window.

    A residue is packed into one integer, its k coefficients in slots of s
    bits, so a product is one integer multiplication.  Slots k .. 2k-2 of
    the product fold back through the packed rows x^t mod ``mod``, and each
    of the k slots left is reduced mod p.  s leaves room for the slot sums
    below (2k - 1) * p^2 on the way.  The window takes the odd powers
    a^1, a^3, ..., a^15 once, and then about one product per four exponent
    bits besides the squarings.
    """
    k = len(mod) - 1
    if e == 0:
        return (1,)
    s = (2 * k * (p - 1) ** 2).bit_length()
    mask = (1 << s) - 1
    shifts = range(0, k * s, s)
    low_mask = (1 << (k * s)) - 1

    def pack(c) -> int:
        x = 0
        for v in reversed(c):
            x = (x << s) | v
        return x

    # rows[i] is x^(k+i) mod ``mod``, packed
    inv_lead = pow(mod[-1], -1, p)
    neg_low = [(-c * inv_lead) % p for c in mod[:-1]]
    row, rows = neg_low, []
    for _ in range(k - 1):
        rows.append(pack(row))
        top = row[-1]
        row = [top * neg_low[0] % p] + [(r + top * n) % p for r, n in zip(row, neg_low[1:])]

    def mul(x: int, y: int) -> int:
        prod = x * y
        low = prod & low_mask
        prod >>= k * s
        for r in rows:
            low += (prod & mask) % p * r
            prod >>= s
        out = 0
        for t in shifts:
            out |= ((low >> t) & mask) % p << t
        return out

    # odd[i] is a^(2i+1)
    base = pack(poly_mod(a, mod, p))
    odd = [base]
    square = mul(base, base)
    for _ in range(7):
        odd.append(mul(odd[-1], square))
    bits = bin(e)[2:]
    result, i = None, 0
    while i < len(bits):
        if bits[i] == "0":
            result = mul(result, result)
            i += 1
            continue
        # the longest window of at most 4 bits that ends in a one
        j = min(i + 4, len(bits))
        while bits[j - 1] == "0":
            j -= 1
        if result is not None:
            for _ in range(j - i):
                result = mul(result, result)
        w = odd[int(bits[i:j], 2) >> 1]
        result = w if result is None else mul(result, w)
        i = j
    return poly_trim([(result >> t) & mask for t in shifts], p)


def poly_inverse_mod(a, mod: Poly, p: int) -> Poly:
    """Inverse of a modulo an irreducible polynomial, by extended Euclid.

    a may be any coefficient sequence, trailing zeros allowed.  The
    remainders r and their cofactors t (t * a = r mod ``mod``) are dense
    lists of residues.  A step cancels the top of r0 by x^s * r1 without
    dividing: r0 <- lead(r1) * r0 - lead(r0) * x^s * r1, and t0 likewise.
    The run stops at a constant remainder, so one modular inverse ends it,
    and every cofactor it forms has degree below k = deg(mod): the
    cofactors are lists of k coefficients.
    """
    r0, r1 = [c % p for c in mod], [c % p for c in a]
    while r1 and not r1[-1]:
        r1.pop()
    k = len(r0) - 1
    t0, t1 = [0] * k, [1] + [0] * (k - 1)
    while len(r1) > 1:
        lead = r1[-1]
        while len(r0) >= len(r1):
            s = len(r0) - len(r1)
            c = r0[-1]
            r0 = [lead * x % p for x in r0[:s]] + [(lead * x - c * y) % p
                                                   for x, y in zip(r0[s:], r1)]
            t0 = [lead * x % p for x in t0[:s]] + [(lead * x - c * y) % p
                                                   for x, y in zip(t0[s:], t1)]
            while r0 and not r0[-1]:
                r0.pop()
        r0, r1, t0, t1 = r1, r0, t1, t0
    if not r1:
        raise ZeroDivisionError("element is not invertible")
    inv = pow(r1[0], -1, p)
    return poly_trim([x * inv for x in t1], p)


# ---------------------------------------------------------------------------
# Deterministic factorization of squarefree monic polynomials


def _frobenius_kernel(g: Poly, p: int, frob: list[Poly]) -> list[Poly]:
    """Basis of the kernel of (Frobenius - id) on F_p[x]/(g).

    frob[i] is x^(i*p) modulo a multiple f of g, for i < deg f; reduced
    mod g, these are the rows of Frobenius on F_p[x]/(g).
    """
    n = len(g) - 1
    rows = []
    for i in range(n):
        cur = poly_mod(frob[i], g, p)
        row = list(cur) + [0] * (n - len(cur))
        row[i] = (row[i] - 1) % p
        rows.append(row)
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


def _split_equal_degree(g: Poly, p: int, frob: list[Poly]) -> list[Poly]:
    """All monic irreducible factors of a squarefree g (deterministic);
    frob as for ``_frobenius_kernel``."""
    if len(g) <= 2:
        return [g]
    kernel = _frobenius_kernel(g, p, frob)
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
                return _split_equal_degree(h, p, frob) + _split_equal_degree(rest, p, frob)
    raise ResidueError("equal-degree splitting failed on reducible input")


def factor_squarefree(f: Poly, p: int) -> list[Poly]:
    """Monic irreducible factors of a squarefree monic polynomial mod p.

    x^p mod f is the one power taken.  Frobenius, h -> h^p, is linear on
    F_p[x]/(f) with rows x^(i*p) mod f, so x^(p^e) is one vector-matrix
    product from x^(p^(e-1)); values are kept mod f, which leaves the gcd
    with every divisor of f unchanged.  The same rows, reduced mod each
    factor, give Berlekamp's matrices.
    """
    out: list[Poly] = []
    rest = f
    n = len(f) - 1
    x = (0, 1)
    if n >= 2:
        xp = poly_pow_mod(x, p, f, p)
        frob = [(1,)]
        for _ in range(n - 1):
            frob.append(poly_mod(poly_mul(frob[-1], xp, p), f, p))
    e = 1
    xq = x
    while len(rest) - 1 >= 2 * e:
        acc = [0] * n
        for c, row in zip(xq, frob):
            for t, y in enumerate(row):
                acc[t] += c * y
        xq = poly_trim(acc, p)
        g = poly_gcd(poly_sub(xq, x, p), rest, p)
        if len(g) > 1:
            if len(g) - 1 == e:
                out.append(g)
            else:
                out.extend(_split_equal_degree(g, p, frob))
            rest = poly_divmod(rest, g, p)[0]
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


# the first 32 primes below 2^62, as 2^62 - c; a plan reads them before it
# searches further down
_TOP_PRIMES = tuple((1 << 62) - c for c in (
    57, 87, 117, 143, 153, 167, 171, 195, 203, 273, 287, 317, 443, 483, 495, 575,
    581, 603, 633, 663, 765, 773, 777, 791, 813, 831, 923, 981, 993, 1001, 1007, 1017))


def plan_primes(field: NumberField, log_bound) -> PrimePlan:
    """First primes below 2^62 coprime to disc(f) with product > 2^(log_bound + 1)."""
    return plan_usable_primes(field, log_bound, None)


def plan_usable_primes(field: NumberField, log_bound, usable) -> PrimePlan:
    """``plan_primes`` over the primes that ``usable`` accepts.

    ``usable`` (None accepts every prime) is asked once per prime, in plan
    order; a prime it rejects stays out of the plan and its product, and the
    plan goes on to the next one.
    """
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
    chosen = []
    count = 0
    n_prod = 1
    while n_prod <= target:
        if count == len(known):
            known.append(_next_admissible(field, known[-1] if known else 1 << 62))
        q = known[count]
        count += 1
        if usable is None or usable(q):
            chosen.append(q)
            n_prod *= q
    return PrimePlan(log_bound, tuple(chosen), n_prod)


def _next_admissible(field: NumberField, above: int) -> int:
    """Largest prime below ``above`` that does not divide disc(f): from the
    table while it lasts, then by search."""
    for q in _TOP_PRIMES:
        if q < above and field.disc_f % q:
            return q
    cand = min(above, _TOP_PRIMES[-1]) - 2
    while not (field.disc_f % cand and _is_prime(cand)):
        cand -= 2
    return cand


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the product of the odd primes below 100
_ODD_PRIMORIAL_100 = 1152783981972759212376551073665878035


def _is_prime(n: int) -> bool:
    """Exact for odd 97 < n < 3.18 * 10^23.

    One gcd with the odd primes below 100 rejects most composites; the rest
    go to Miller-Rabin with the bases above.
    """
    if gcd(n, _ODD_PRIMORIAL_100) != 1:
        return False
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


def basis_coordinates(sys: ResidueSystem, values) -> list[list[int]]:
    """Integral-basis coordinates mod p of integral elements given by their
    residues: values[j][v] holds the k coefficients of element v in the
    residue field F_p[x]/(g_j) of factor j.

    One linear map serves every element.  Its column (j, t) is the image of
    the residue x^t at factor j and zero at the others: x^t times the CRT
    multiplier of factor j, modulo fbar, on the integral basis.
    """
    p = sys.p
    power_to_basis = sys.field.power_to_basis
    cols = []
    for g, mult in zip(sys.factors, sys.crt_mults):
        for t in range(len(g) - 1):
            c = poly_mod((0,) * t + tuple(mult), sys.fbar, p)
            cols.append([sum(map(mul, row, c)) % p for row in power_to_basis])
    to_basis = list(zip(*cols))
    return [[sum(map(mul, row, stacked)) % p for row in to_basis]
            for stacked in (sum(v, []) for v in zip(*values))]


def lift_coordinates(per_prime, plan: PrimePlan, field: NumberField) -> list[FieldElement]:
    """The elements whose integral-basis coordinates modulo the i-th plan
    prime are per_prime[i][v]: CRT, then the symmetric lift into
    (-N/2, N/2], exact when every true coordinate lies there."""
    big = plan.modulus
    crt = [big // q * pow(big // q, -1, q) for q in plan.primes]
    return [field.element([symmetric_lift(sum(map(mul, crt, cs)), big) for cs in zip(*v)])
            for v in zip(*per_prime)]
