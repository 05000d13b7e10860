"""Field construction and exact element arithmetic."""

from fractions import Fraction
from math import lcm

import mpmath as mp
import pytest

from okmod import FieldElement, FieldError, build_field, numberfield, numeric

from conftest import (ALL_FIELDS, PINNED_FIELDS, SPECS, abs_sq, abs_sq_center, abs_sq_ub,
                      abs_ub, fraction_det, get_field, growth_constant, norm_sq_bounds,
                      random_element, reference_disc_f, reference_horner, seeded,
                      to_power_coords)


def test_build_gaussian_integers():
    K = get_field("Qi")
    assert K.degree == 2
    assert K.disc == -4
    assert max(abs(x) for row in K.struct for s in row for x in s) == 1
    # omega_2 * omega_2 = -omega_1
    assert K.struct[1][1] == (-1, 0)


def test_build_rationals():
    Q = get_field("Q")
    assert Q.degree == 1
    assert Q.disc == 1
    assert growth_constant(Q) == 0


def test_build_golden_ratio_order():
    K = build_field([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])
    assert K.disc_f == 20
    assert K.index == 2
    assert K.disc == 5


def test_build_field_errors():
    with pytest.raises(FieldError):
        build_field([1, 0, 2])  # not monic
    with pytest.raises(FieldError):
        build_field([0, 0, 1])  # x^2, not squarefree
    with pytest.raises(FieldError):
        build_field([1, 0, 1], [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]])
    with pytest.raises(FieldError):
        build_field([1, 0, 1], [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 3)]])


def test_a_zero_divisor_has_no_inverse():
    # x^2 - 1 is squarefree but reducible, so build_field accepts it, and
    # x - 1 is a nonzero zero divisor: both inverses refuse it rather than
    # return an element with denominator 0
    K = build_field([-1, 0, 1])
    a = K.element([-1, 1])
    assert K.norm(a) == 0
    for invert in (K.inv, K.inv_and_norm):
        with pytest.raises(FieldError, match="defining polynomial must be irreducible"):
            invert(a)


@pytest.mark.parametrize("name", PINNED_FIELDS)
def test_discriminants_equal_the_resultant_reference(name):
    # build_field reads disc(O) off the trace form and sets disc(f) =
    # index^2 disc(O); the references are the Sylvester resultant of f and
    # f' and the index 1 / |det B| of the basis matrix B
    poly, basis = SPECS[name]
    K = get_field(name)
    index = 1 if basis is None else 1 / abs(fraction_det(basis))
    assert K.disc_f == reference_disc_f(poly)
    assert (K.index, K.disc) == (index, reference_disc_f(poly) / index ** 2)


def test_discriminants_of_random_polynomials_equal_the_resultant_reference():
    rng = seeded("test_numberfield::test_discriminants_of_random_polynomials_equal_the_resultant_reference")
    built = 0
    while built < 50:
        poly = [rng.randint(-20, 20) for _ in range(2 + built % 7)] + [1]
        disc_f = reference_disc_f(poly)
        if not disc_f:
            continue
        K = build_field(poly)
        assert (K.disc_f, K.disc, K.index) == (disc_f, disc_f, 1), poly
        built += 1


@pytest.mark.parametrize("poly, basis", [
    ([0, 0, 1], None),
    ([2, -3, 0, 1], None),  # (x - 1)^2 (x + 2)
    ([1, 0, 2, 0, 1], None),  # (x^2 + 1)^2
    ([0, 0, 1], [[1, 0], [0, Fraction(1, 2)]]),
])
def test_a_singular_trace_form_is_not_squarefree(poly, basis):
    assert reference_disc_f(poly) == 0
    with pytest.raises(FieldError, match="not squarefree"):
        build_field(poly, basis)


def test_element_examples():
    K = get_field("Qi")
    one = K.one()
    i = K.element([0, 1])
    half_plus = K.element([1, 1], 2)
    half_minus = K.element([1, -1], 2)
    assert half_plus + half_minus == one
    assert 3 * K.element([1, 1], 3) == one + i
    assert (one + i) * (one - i) == K.from_int(2)
    assert (one + i) * (one + i) == 2 * i
    assert K.inv(K.from_int(2)) == K.element([1, 0], 2)
    assert K.inv(one + i) == half_minus
    assert K.norm(one + i) == 2
    assert K.trace(i) == 0


def test_regular_representation():
    K = get_field("Qi")
    assert K.regular_representation(K.one()) == [[1, 0], [0, 1]]
    assert K.regular_representation(K.element([0, 1])) == [[0, 1], [-1, 0]]


def test_regular_representation_matches_symbolic_multiplication(field):
    rng = seeded("test_numberfield::test_regular_representation_matches_symbolic_multiplication")
    for _ in range(20):
        g = random_element(rng, field)
        m = field.regular_representation(g)
        for i in range(field.degree):
            w = field.element([1 if t == i else 0 for t in range(field.degree)])
            assert list((g * w).coeffs) == m[i] and (g * w).den == 1


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_compiled_product_equals_the_structure_constant_definition(name):
    # coeff_mul is compiled per field; its reference is the definition
    # (u * v)_k = sum_ij u_i v_j struct[i][j][k], on random vectors with
    # entries up to 2^64, zero entries among them, and the basis vectors
    K = get_field(name)
    d = K.degree
    rng = seeded(f"test_numberfield::test_compiled_product_equals_the_structure_constant_"
                 f"definition[{name}]")

    def vector():
        return [rng.choice([0, rng.randint(-2 ** 64, 2 ** 64)]) for _ in range(d)]

    basis = [[1 if t == i else 0 for t in range(d)] for i in range(d)]
    vectors = basis + [vector() for _ in range(40)]
    for u in vectors:
        for v in vectors[:d] + [vector() for _ in range(4)]:
            expect = [sum(u[i] * v[j] * K.struct[i][j][k] for i in range(d) for j in range(d))
                      for k in range(d)]
            assert K.coeff_mul(u, v) == K.coeff_mul(tuple(v), tuple(u)) == expect


def test_regular_representation_requires_integral():
    K = get_field("Qi")
    with pytest.raises(FieldError):
        K.regular_representation(K.element([1, 0], 2))


def test_mul_matches_power_basis_polynomials(field):
    rng = seeded("test_numberfield::test_mul_matches_power_basis_polynomials")
    d = field.degree
    poly = [Fraction(c) for c in field.poly]

    def polymul_mod(a, b):
        res = [Fraction(0)] * (2 * d)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                res[i + j] += x * y
        for k in range(len(res) - 1, d - 1, -1):
            c = res[k]
            if c:
                for j in range(d + 1):
                    res[k - d + j] -= c * poly[j]
        return res[:d]

    for _ in range(20):
        a = random_element(rng, field, max_den=3)
        b = random_element(rng, field, max_den=3)
        direct = to_power_coords(field, a * b)
        via_poly = polymul_mod(to_power_coords(field, a), to_power_coords(field, b))
        assert direct == via_poly


def test_ring_axioms(field):
    rng = seeded("test_numberfield::test_ring_axioms")
    for _ in range(15):
        a = random_element(rng, field, max_den=4)
        b = random_element(rng, field, max_den=4)
        c = random_element(rng, field, max_den=4)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_inverse_and_canonicality(field):
    rng = seeded("test_numberfield::test_inverse_and_canonicality")
    for _ in range(25):
        a = random_element(rng, field, max_den=5)
        assert a * field.inv(a) == field.one()
        from math import gcd
        g = a.den
        for coeff in a.coeffs:
            g = gcd(g, coeff)
        assert g == 1


def test_norm_multiplicativity(field):
    rng = seeded("test_numberfield::test_norm_multiplicativity")
    for _ in range(20):
        a = random_element(rng, field, max_den=3)
        b = random_element(rng, field, max_den=3)
        assert field.norm(a) * field.norm(b) == field.norm(a * b)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_rational_norms_take_no_characteristic_polynomial(name, monkeypatch):
    # N(c/q) = (c/q)^d, read off the element like its inverse
    K = get_field(name)
    rng = seeded(f"test_numberfield::test_rational_norms_take_no_characteristic_polynomial"
                 f"[{name}]")
    calls = []
    char_poly = numberfield._char_poly

    def spy(field, u):
        calls.append(u)
        return char_poly(field, u)

    monkeypatch.setattr(numberfield, "_char_poly", spy)
    for _ in range(20):
        x = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        assert K.norm(K.from_int(x.numerator) / x.denominator) == x ** K.degree
    assert calls == []


def test_norm_bounded_by_t2_power(field):
    # |N(alpha)| <= |alpha|^d / d^(d/2) on integral elements
    rng = seeded("test_numberfield::test_norm_bounded_by_t2_power")
    d = field.degree
    for _ in range(20):
        a = random_element(rng, field, lim=20)
        _, ub = norm_sq_bounds(field, a)
        lhs = abs(field.norm(a)) ** 2 * Fraction(d) ** d
        assert lhs <= ub ** d


def test_size_growth_inequalities(field):
    # multiplication grows by at most the field constant; inversion by the
    # derivation actually carried out needs (2d-1)*S, not d*S: the numerator
    # of the inverse has coefficients of the order |alpha|^(d-1), an
    # S-contribution of (d-1)*S(alpha) on top of the denominator's d*S(alpha)
    rng = seeded("test_numberfield::test_size_growth_inequalities")
    c = growth_constant(field)
    d = field.degree
    for _ in range(20):
        a = random_element(rng, field, lim=30, max_den=6)
        b = random_element(rng, field, lim=30, max_den=6)
        assert field.size(a * b) <= field.size(a) + field.size(b) + c
        assert field.size(field.inv(a)) <= (2 * d - 1) * field.size(a) + c
        assert field.size(a + b) <= 2 * (field.size(a) + field.size(b))
    assert field.size(field.zero()) == 0


# embed_bound_sq and coeff_bound from the enclosures of the one root solve
# (at the Gram precision of the default lattice context, plus 32 guard bits),
# with C1 from the ball values of the basis elements at the roots and C2 from
# V^t T^-1 (``numberfield._conversion_constants``); and the size lemma's
# constant C (``conftest.growth_constant``), read off both and the structure
# constants
FIELD_CONSTANTS = {
    "Q": ("1", "1", "0"),
    "Qi": ("8", "26087635650665564425/36893488147419103232", "196609/32768"),
    "Qm5": ("425352958651173079329218259289710264321/10633823966279326983230456482242756608",
            "26087635650665564425/36893488147419103232", "174389/16384"),
    "cubic": ("3230426911267120162261020541104831551739/85070591730234615865843651857942052864",
              "7159275454714133817411390961/9903520314283042199192993792", "3094767/131072"),
    "golden": ("510423550381407695195061911147652317185/42535295865117307932921825928971026432",
               "30684935396836052562870278197/39614081257132168796771975168", "234945/32768"),
    "dedekind": ("5788661816740921550501258087792244823509/21267647932558653966460912964485513216",
                 "48506666222222153324867943871/79228162514264337593543950336", "1192689/32768"),
    "quartic": ("539777015228352638228203618595384956625/5316911983139663491615228241121378304",
                "102162236964824091165319555365/158456325028528675187087900672", "436839/8192"),
    "zeta5": ("340282366920938463463374607431768211457/5316911983139663491615228241121378304",
              "25054144837504793118641380157/39614081257132168796771975168", "393217/8192"),
    "quintic": ("8729876357021226759585943791009960802075/42535295865117307932921825928971026432",
                "49926901430275121195903164631/79228162514264337593543950336", "12584825/131072"),
    "sextic": ("61114483348636907612867139172386274995/166153499473114484112975882535043072",
               "93175490724734783752772244245/158456325028528675187087900672", "2513493/16384"),
    "octic": ("301205782028128224547424428655867425383/332306998946228968225951765070086144",
              "21931836021232098586254886717/39614081257132168796771975168", "643827/2048"),
}


@pytest.mark.parametrize("name", PINNED_FIELDS)
def test_field_constants_unchanged(name):
    K = get_field(name)
    c1_sq, c2, growth = (Fraction(x) for x in FIELD_CONSTANTS[name])
    assert (K.embed_bound_sq, K.coeff_bound, growth_constant(K)) == (c1_sq, c2, growth)


# the lattice context of each field (exponent e, integer embedding r_e,
# c_quality, quality_sq): e and r_e as first derived, which the root
# enclosures behind them may not move; c_quality and quality_sq from the
# residual of r_e r_e^t against the Gram enclosure (``lattice._try_build``)
LATTICE_CONTEXTS = {
    "Q": (68, [
        [295147905179352825856],
    ], "1",
        "1000000/738999"),
    "Qi": (74, [
        [26713738906281537970892, 0],
        [0, 26713738906281537970892],
    ], "79228162514264337593544823955/79228162514264337593543950336",
        "53605053940711920850736905471/39614081257132168796771975168"),
    "Qm5": (78, [
        [427419822500504607534271, 0],
        [0, 955739778042022442575126],
    ], "19807040628566084398482824523/19807040628566084398385987584",
        "53605053940711920851782845011/39614081257132168796771975168"),
    "cubic": (80, [
        [2093920942154385339393396, 0, 0],
        [0, 2184322886604249250567811, 0],
        [1395947294769590226262264, 886351315269453367092022, 1852617493930395641717048],
    ], "19807040628566084398453477125/19807040628566084398385987584",
        "107210107881423841702199687231/79228162514264337593543950336"),
    "golden": (74, [
        [26713738906281537970892, 0],
        [13356869453140768985446, 29866868063813201330473],
    ], "79228162514264337594414201231/79228162514264337593543950336",
        "107210107881423841706179512985/79228162514264337593543950336"),
    "dedekind": (88, [
        [536043761191522646884709421, 0, 0],
        [178681253730507548961569807, 1120429027436013686495202616, 0],
        [536043761191522646884709421, 1176443776128022232939531798, 1106925137994827162273205485],
    ], "19807040628566084398392060577/19807040628566084398385987584",
        "53605053940711920850767412595/39614081257132168796771975168"),
    "quartic": (90, [
        [2475880078570760549798248448, 0, 0, 0],
        [0, 2560015586369935975229801607, 0, 0],
        [0, 525469101537662341426466233, 2732730141334259473987605299, 0],
        [1856910058928070412348686336, 130382579288971326886752759, 1027494399312996017008840640,
         2280986394968720678090362116],
    ], "19807040628566084398393776521/19807040628566084398385987584",
        "53605053940711920850762647401/39614081257132168796771975168"),
    "zeta5": (86, [
        [154742504910672534362390528, 0, 0, 0],
        [-38685626227668133590597632, 149828786117363537904640030, 0, 0],
        [-38685626227668133590597632, -49942928705787845968213343, 141259934240715478171599016, 0],
        [-38685626227668133590597632, -49942928705787845968213343, -70629967120357739085799508,
         122334691589378872649616114],
    ], "79228162514264337593593518991/79228162514264337593543950336",
        "53605053940711920850779258075/39614081257132168796771975168"),
    "quintic": (98, [
        [708638228457182841184406864643, 0, 0, 0, 0],
        [0, 722447602180767831698574548221, 0, 0, 0],
        [0, 131137777964170357916588435381, 750566968091113072144219580353, 0, 0],
        [0, -34548824353192201769271999653, 263816533248765958451389924978,
         780309273544377693574375281100, 0],
        [566910582765746272947525491714, 56740207768387784362353153053,
         -55226061248897809272416555997, 413225878501419797985709185969,
         571052454356102910894688169619],
    ], "39614081257132168796774560883/39614081257132168796771975168",
        "53605053940711920850738040083/39614081257132168796771975168"),
    "sextic": (108, [
        [794904868529148662797917258924875, 0, 0, 0, 0, 0],
        [0, 807020046156666965054037202957711, 0, 0, 0, 0],
        [0, 117433535759319380819127635689444, 831840163323089397727200082025308, 0, 0, 0],
        [0, -24015874819667301287570499151496, 232121682833308263945538384998554,
         859478385192861309327444182491404, 0, 0],
        [0, -2412095178697238336637064989819, -29778807680763841088600455413419,
         351504561186063194504325764846324, 889170896015299337435899831547051, 0],
        [662420723774290552331597715770729, 47466205721884190606445466423801,
         -18514018553016582141775105413405, -16042913544168789808774349724215,
         475400729187643403933851396159681, 639012620138778130553323099364945],
    ], "79228162514264337593545313189/79228162514264337593543950336",
        "1675157935647247526585477463/1237940039285380274899124224"),
    "octic": (130, [
        [3849855506688072184720540359642000910834, 0, 0, 0, 0, 0, 0, 0],
        [0, 3883913704026568459226783952976996496476, 0, 0, 0, 0, 0, 0],
        [0, 433077194219650185232898658103014259214, 3954584018407072908276762838252519541730, 0,
         0, 0, 0, 0],
        [0, -120604711301660108131102096566900988704, 851485689122338293438653219542495444845,
         4032902004070359348588028396575499625280, 0, 0, 0, 0],
        [0, 38729956919146773999235824374469995183, -188824159857601093179796615790998664682,
         1279370226185554202358655566897232256601, 4115103747086652840338737087937385862255, 0, 0,
         0],
        [0, -1005234682664588260401816841865574924, 48768179196184696904401105950282141834,
         -213731876334823102724912639999535272605, 1721012739747558698868495893621551841815,
         4200526221433918511287138864575698400450, 0, 0],
        [0, -38800877147811180816139112465190163624, 13908745709575620579937368980730862593,
         36722310743400102120926171395573056016, -193961681970890754563345558084344701431,
         2177198823226002577646919389718774195482, 4289357148586162721805106796904347258887, 0],
        [3368623568352063161630472814686750796980, 190265064894302209636891292657296863416,
         -101034266209259249115813686611320736551, 50865282696799778269765875799605237193,
         378334849384498122532045869358796592, -123912516526696742591703577541264958523,
         2648055526710789440284690974879236433218, 2795451831241682300753619703135877555576],
    ], "79228162514264337593543970219/79228162514264337593543950336",
        "13401263485177980212683637207/9903520314283042199192993792"),
}


@pytest.mark.parametrize("name", PINNED_FIELDS)
def test_lattice_context_unchanged(name):
    ctx = get_field(name).lattice_context
    e, r_e, c_quality, quality_sq = LATTICE_CONTEXTS[name]
    assert (ctx.e, ctx.r_e, ctx.c_quality, ctx.quality_sq) == (
        e, r_e, Fraction(c_quality), Fraction(quality_sq))


def reference_complex_inverse(mat):
    """Gauss-Jordan inverse of a complex rational matrix of (re, im) pairs on
    Fractions; ZeroDivisionError if it is singular."""
    n = len(mat)
    work = [[(Fraction(re), Fraction(im)) for re, im in row]
            + [(Fraction(1 if i == j else 0), Fraction(0)) for j in range(n)]
            for i, row in enumerate(mat)]

    def cmul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def csub(a, b):
        return (a[0] - b[0], a[1] - b[1])

    def cinv(a):
        q = a[0] * a[0] + a[1] * a[1]
        if q == 0:
            raise ZeroDivisionError
        return (a[0] / q, -a[1] / q)

    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != (0, 0)), None)
        if piv is None:
            raise ZeroDivisionError
        work[col], work[piv] = work[piv], work[col]
        inv = cinv(work[col][col])
        work[col] = [cmul(x, inv) for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != (0, 0):
                f = work[r][col]
                work[r] = [csub(x, cmul(f, y)) for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_integer_constants_match_the_fraction_loops(name):
    # C1 is the Fraction row sum of squared modulus bounds on the enclosures
    # of the first solve.  C1, C2 and c_quality against references from roots
    # at four times the Gram precision: C1 lies between d^2 max_i sum_j of
    # lower and upper bounds on |omega_i(z_j)|^2, within a relative 2^-40; C2
    # bounds the column norms of the Fraction Gauss-Jordan inverse of the
    # basis values, within a relative 2^-40; and c_quality^2 bounds the
    # largest eigenvalue of 4^e G M^-1 with M = r_e r_e^t
    K = fresh_field(name)
    d = K.degree
    first = numeric.basis_values(K.basis_num, K.basis_den, K.roots())
    assert K.embed_bound_sq == max(numeric.frac_up(sum(abs_sq_ub(v) for v in row), 128)
                                   for row in first) * d * d
    ctx = K.lattice_context
    e = ctx.e
    prec = 4 * (e + 64)
    vals = numeric.basis_values(K.basis_num, K.basis_den, K.roots(prec))
    # |v| >= |center| - r, so |v|^2 >= |center|^2 - 2 |center| r
    c1_lo = max(sum(abs_sq_center(v) - 2 * abs_ub(v) * v.r for v in row) for row in vals) * d * d
    c1_hi = max(sum(abs_sq_ub(v) for v in row) for row in vals) * d * d
    assert c1_lo <= K.embed_bound_sq <= c1_hi * (1 + Fraction(1, 1 << 40))
    y = reference_complex_inverse([[(b.re, b.im) for b in row] for row in vals])
    col_sq = max(sum(abs_sq(y[j][k]) for j in range(d)) for k in range(d))
    assert col_sq <= K.coeff_bound ** 2 <= col_sq * (1 + Fraction(1, 1 << 40)) ** 2
    with mp.workprec(prec):
        def mpf(x):
            return mp.mpf(x.numerator) / x.denominator

        gram = mp.matrix([[mpf(sum(u.re * v.re + u.im * v.im for u, v in zip(vals[i], vals[k])))
                           for k in range(d)] for i in range(d)])
        r_inv = mp.inverse(mp.matrix(ctx.r_e))
        eigs, _ = mp.eigsy(r_inv * gram * r_inv.T * mp.ldexp(1, 2 * e))
        assert max(eigs) <= mpf(ctx.c_quality ** 2)


def test_scalar_errors():
    K = get_field("Qi")
    with pytest.raises(ZeroDivisionError):
        K.scalar_div(K.one(), 0)
    with pytest.raises(ZeroDivisionError):
        K.inv(K.zero())


# -- the arithmetic's results against validated elements --------------------


def rational(e):
    return [Fraction(c, e.den) for c in e.coeffs]


def from_rational(K, vals):
    """The validating constructor on rational coordinates."""
    den = lcm(*(q.denominator for q in vals))
    return FieldElement(K, [int(q * den) for q in vals], den)


def rational_product(K, u, v):
    """Product of rational coordinate vectors by the structure constants."""
    d = K.degree
    out = [Fraction(0)] * d
    for i in range(d):
        for j in range(d):
            for k, c in enumerate(K.struct[i][j]):
                out[k] += u[i] * v[j] * c
    return out


def operands(rng, K):
    """Zero, integral and fractional elements with mixed denominators."""
    elts = [K.zero(), K.one(), -K.one()]
    elts += [random_element(rng, K, lim=30, max_den=12) for _ in range(5)]
    elts += [random_element(rng, K, lim=10**20, max_den=10**6) for _ in range(2)]
    return elts


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_arithmetic_equals_the_validating_constructor(name):
    K = get_field(name)
    rng = seeded(f"test_numberfield::test_arithmetic_equals_the_validating_constructor[{name}]")
    elts = operands(rng, K)
    for a in elts:
        ra = rational(a)
        assert -a == from_rational(K, [-q for q in ra])
        for m in (0, 1, -1, 6, -15, 10**12):
            assert K.scalar_mul(m, a) == from_rational(K, [m * q for q in ra])
            if m:
                assert K.scalar_div(a, m) == from_rational(K, [q / m for q in ra])
        for b in elts:
            rb = rational(b)
            assert K.add(a, b) == a + b == from_rational(K, [x + y for x, y in zip(ra, rb)])
            assert K.sub(a, b) == a - b == from_rational(K, [x - y for x, y in zip(ra, rb)])
            assert K.mul(a, b) == a * b == from_rational(K, rational_product(K, ra, rb))


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_lincomb_equals_its_two_products_and_sum(name):
    K = get_field(name)
    rng = seeded(f"test_numberfield::test_lincomb_equals_its_two_products_and_sum[{name}]")
    elts = operands(rng, K)
    for _ in range(150):
        a, x, b, y = (rng.choice(elts) for _ in range(4))
        got = K.lincomb(a, x, b, y)
        expect = [s + t for s, t in zip(rational_product(K, rational(a), rational(x)),
                                        rational_product(K, rational(b), rational(y)))]
        assert got == a * x + b * y == from_rational(K, expect)
        assert hash(got) == hash(from_rational(K, expect))
        assert all(type(c) is int for c in got.coeffs) and got.den > 0


def test_validating_constructor_refuses_bad_input():
    K = get_field("cubic")
    with pytest.raises(FieldError):
        FieldElement(K, [1, 2])
    with pytest.raises(FieldError):
        FieldElement(K, [1, 2, 3, 4])
    with pytest.raises(ZeroDivisionError):
        FieldElement(K, [1, 2, 3], 0)
    # a negative denominator moves its sign, and the value is put in lowest terms
    e = FieldElement(K, [2, -4, 6], -4)
    assert (e.coeffs, e.den) == ((-1, 2, -3), 2)


def test_validating_constructor_refuses_non_integers():
    # int() would truncate each of these to a different element
    K = get_field("Qm5")
    for coeffs, den in (([0.5, 1], 1), ([Fraction(7, 2), 0], 1), ([1, 0], 2.9)):
        with pytest.raises(TypeError):
            K.element(coeffs, den)
        with pytest.raises(TypeError):
            FieldElement(K, coeffs, den)


# -- root enclosures: one solve per precision --------------------------------


def fresh_field(name):
    poly, basis = SPECS[name]
    return build_field(poly, basis)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_a_higher_precision_solve_lies_inside_the_first_solves_disks(name):
    # a request above the cached precision solves again from scratch; its
    # disks enclose the same roots, each inside the disk of the first solve
    K = fresh_field(name)
    coarse = K.roots()
    prec = 400
    fine = K.roots(prec)
    assert len(fine) == len(coarse) == K.degree
    for i, (f, c) in enumerate(zip(fine, coarse)):
        assert f.r < Fraction(1, 1 << prec)
        assert c.r - f.r >= 0
        assert (f.re - c.re) ** 2 + (f.im - c.im) ** 2 <= (c.r - f.r) ** 2
        for g in fine[i + 1:]:
            assert (f.re - g.re) ** 2 + (f.im - g.im) ** 2 > (f.r + g.r) ** 2
    # an independent solve, good to far below 2^-prec, puts one root in each
    # disk (up to its own error, for the exact disks of radius 0)
    with mp.workprec(3 * prec):
        approx = mp.polyroots(list(reversed(K.poly)), maxsteps=400, extraprec=3 * prec)
        for f in fine:
            center = mp.mpc(mp.mpf(f.re.numerator) / f.re.denominator,
                            mp.mpf(f.im.numerator) / f.im.denominator)
            radius = mp.mpf(f.r.numerator) / f.r.denominator + mp.ldexp(1, -2 * prec)
            assert sum(abs(mp.mpc(z) - center) <= radius for z in approx) == 1


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_roots_meet_every_requested_precision(name):
    # including requests just above what the first solve asked for, which a
    # cache keyed on the solve precision would answer with coarser disks
    K = fresh_field(name)
    for prec in range(64, 260):
        assert all(b.r < Fraction(1, 1 << prec) for b in K.roots(prec))
    assert all(b.r < Fraction(1, 1 << 300) for b in K.roots(300))


@pytest.mark.parametrize("name", PINNED_FIELDS)
def test_one_plain_root_solve_per_cold_build(name, monkeypatch):
    # the first solve runs at the Gram precision of the lattice context, at
    # 32 guard bits, so C1, C2 and the Gram enclosure read the same disks
    solve = numeric.certified_roots
    calls = []

    def spy(coeffs, prec):
        calls.append(prec)
        return solve(coeffs, prec)

    monkeypatch.setattr(numeric, "certified_roots", spy)
    fresh_field(name).lattice_context
    assert len(calls) == 1


def test_integer_horner_matches_rational_horner():
    # the Horner rule that the root iteration and its certificate share, on
    # Gaussian integers at scale 2^prec: f(z) 2^(deg prec) at z = x / 2^prec
    local = seeded("test_numberfield horner", 1)
    for _ in range(200):
        n = local.randint(1, 8)
        coeffs = [local.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
        prec = local.randint(0, 80)
        x = [local.randint(-2 ** 70, 2 ** 70) for _ in range(2)]
        re, im = numeric._value_at(numeric._scaled_coeffs(coeffs, prec), *x)
        scale = 1 << (n - 1) * prec
        z = tuple(Fraction(t, 1 << prec) for t in x)
        assert (Fraction(re, scale), Fraction(im, scale)) == reference_horner(coeffs, z)
