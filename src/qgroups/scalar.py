"""Exact arithmetic in Q(v), the field of rational functions in v over Q.

The deformation parameter is q = v^2.  Working with the square root v keeps
every structure constant of the algebras built on top of this module a
Laurent polynomial with integer exponents: a Cartan generator acts on a
weight-mu vector by v^(mu, alpha_i), and (mu, alpha_i) is an integer under
the normalization (alpha_i, alpha_i) = 2 d_i.

A LaurentPoly is a sparse map {exponent: Fraction}.  It is the exchange
format at the boundary: construction from coefficients, the canonical text
form and specialization.

A RationalFunction is stored as  c * v^s * N(v) / D(v)  where

  * c = cn / cd is the rational content, a pair of ints with cd > 0 and
    gcd(cn, cd) = 1; c is nonzero except for zero itself, stored as
    0 * v^0 * 1 / 1;
  * s is an integer exponent;
  * N and D are tuples of integer coefficients, constant term first, of
    ordinary polynomials that are primitive, have a positive leading
    coefficient and a nonzero constant term;
  * gcd(N, D) = 1.

This form is unique, so equality and hashing compare (cn, cd, s, N, D).  The
arithmetic runs on Python ints only.  A sum cancels by Henrici's rule: after
g = gcd(D1, D2), only gcd(numerator, g) can remain.  A product cancels the
two cross gcds.  The inverse swaps N and D, and v -> 1/v reverses both
coefficient tuples, so neither needs a gcd.  Gcds come from the heuristic
GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989) with the
primitive PRS as the fallback; both return the two cofactors with the gcd.
``poly_gcd`` is the same gcd for LaurentPolys, made monic.  Since q_i =
v^(2 d_i), most operands are polynomials in v^g for a power of two g > 1:
the gcd and the product run on A, B where a = A(v^g), b = B(v^g), and the
results are inflated back; gcd(A(v^g), B(v^g)) = gcd(A, B)(v^g) over Z[v].

The same operand pairs recur across a computation, so the arithmetic reaches
the gcd and the products of two non-constant polynomials through bounded
memos (``_GCD_MEMO``, ``_PROD_MEMO``).  ``Memo`` is the one memo policy of
the package: a memo takes new entries until it holds ``MEMO_MAX`` of them and
is then left as it is.  The raw ``_dense_gcd`` and ``_pmul`` stay unmemoized.

``num`` and ``den`` are LaurentPoly views, built on first use, in the
classical normal form: a monic denominator with lowest exponent 0 and
gcd(num, den) = 1, with Fraction coefficients.  The text form and
specialization read them, so they do not depend on the stored form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd as _igcd, lcm as _ilcm
from operator import add as _add, mul as _mul


class LaurentPoly:
    """Sparse Laurent polynomial over Q; ``terms`` maps exponent -> Fraction.

    Invariant: no stored coefficient is zero.  Instances are immutable.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[int(e)] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def const(cls, c):
        return cls({0: Fraction(c)})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def lowest(self):
        return min(self.terms)

    def degree(self):
        return max(self.terms)

    def leading_coeff(self):
        return self.terms[self.degree()]

    def evaluate(self, v0):
        """Exact value at a nonzero rational point v = v0."""
        v0 = Fraction(v0)
        if v0 == 0:
            raise ZeroDivisionError("cannot evaluate a Laurent polynomial at v = 0")
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * v0 ** e
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                bits.append(str(c))
            elif e == 1:
                bits.append(f"{c}*v" if c != 1 else "v")
            else:
                bits.append(f"{c}*v^{e}" if c != 1 else f"v^{e}")
        return " + ".join(bits)

    __repr__ = __str__


LP_ZERO = LaurentPoly()
LP_ONE = LaurentPoly.const(1)


def _lp(terms):
    """LaurentPoly over an already clean {exponent: nonzero Fraction} map."""
    p = object.__new__(LaurentPoly)
    p.terms = terms
    p._hash = None
    return p


# --- dense integer polynomials ------------------------------------------------
#
# Tuples of ints, constant term first, with a nonzero last entry.

_ONE = (1,)

# bound of every Memo
MEMO_MAX = 1 << 16


class Memo(dict):
    """A dict that fills itself: on a miss, ``memo[key]`` computes
    ``make(key)`` and stores it while the memo holds fewer than ``MEMO_MAX``
    entries.  A full memo keeps its entries and takes no new ones, so past
    the bound a missing value is rebuilt on every lookup.  Nothing is ever
    evicted: every stored value stays the object handed out for its key.
    """

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self.make(key)
        if len(self) < MEMO_MAX:
            self[key] = value
        return value


# memoized _dense_gcd and _pmul; each maker looks its function up as a module
# global on a miss, so that a function rebound to that name sees only misses
_GCD_MEMO = Memo(lambda k: _dense_gcd(*k))
_PROD_MEMO = Memo(lambda k: _pmul(*k))

# heuristic gcd evaluation points tried before the PRS fallback
_HEU_TRIES = 6


def _pack(a, k):
    """The value a(2^k)."""
    v = 0
    for c in reversed(a):
        v = (v << k) + c
    return v


def _unpack(v, k):
    """Balanced base-2^k digits of v, lowest first: the polynomial p with
    p(2^k) = v and every coefficient in [-2^(k-1), 2^(k-1))."""
    out = []
    mask = (1 << k) - 1
    half = 1 << (k - 1)
    full = 1 << k
    while v:
        d = v & mask
        v >>= k
        if d >= half:
            d -= full
            v += 1
        out.append(d)
    return out


def _stride(a, b):
    """The largest power of two g with a and b (of length > 1) polynomials in v^g."""
    g = 1
    while not any(a[g::2 * g]) and not any(b[g::2 * g]):
        g *= 2
    return g


def _inflate(p, g):
    """p(v^g) as a tuple."""
    out = [0] * ((len(p) - 1) * g + 1)
    out[::g] = p
    return tuple(out)


def _pmul(a, b):
    """Product of two dense integer polynomials, formed on the deflated ones."""
    la, lb = len(a), len(b)
    if la < lb:
        a, b, la, lb = b, a, lb, la
    if lb == 1:
        y = b[0]
        return a if y == 1 else tuple(map(_mul, a, repeat(y)))
    g = _stride(a, b)
    if g > 1:
        return _inflate(_pmul(a[::g], b[::g]), g)
    out = [0] * (la + lb - 1)
    for j, y in enumerate(b):
        if y:
            out[j:j + la] = map(_add, out[j:j + la], map(_mul, a, repeat(y)))
    return tuple(out)


def _prod(a, b):
    """Memoized product of two normalized polynomials; a length-1 factor is 1."""
    if len(a) == 1:
        return b
    if len(b) == 1:
        return a
    return _PROD_MEMO[a, b]


def _primitive(a):
    """(k, p) with a = k * p and p primitive with a positive leading coefficient."""
    k = _igcd(*a)
    if a[-1] < 0:
        k = -k
    return k, tuple(a) if k == 1 else tuple(c // k for c in a)


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _pseudo_rem(a, b):
    """Pseudo-remainder of integer coefficient lists (b nonzero)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    for i in range(len(a) - 1, db - 1, -1):
        head = a[i]
        if not head:
            continue
        # replace a by lb*a - head*x^(i-db)*b; position i cancels exactly
        for j in range(i):
            a[j] *= lb
        a[i] = 0
        for j in range(db):
            a[i - db + j] -= head * b[j]
    return _trim(a)


def _exact_quo(a, b):
    """Quotient a / b of integer polynomials; raises unless b divides a."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        f, r = divmod(a[i], lb)
        if r:
            raise ArithmeticError("inexact polynomial division")
        if f:
            q[i - db] = f
            a[i - db:i + 1] = map(_add, a[i - db:i + 1], map(_mul, b, repeat(-f)))
    if any(a[:db]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(q)


def _prs_gcd(a, b):
    """(gcd, a / gcd, b / gcd) by the primitive PRS (Collins 1967)."""
    g, ib = a, b
    while ib:
        r = _pseudo_rem(g, ib)
        g, ib = ib, _primitive(r)[1] if r else ()
    if len(g) == 1:
        return _ONE, a, b
    return g, _exact_quo(a, g), _exact_quo(b, g)


def _dense_gcd(a, b):
    """(gcd, a / gcd, b / gcd) of primitive polynomials with positive leading
    coefficients; every result is primitive with a positive leading coefficient.
    It is computed on the deflated operands and inflated back."""
    if len(a) == 1 or len(b) == 1:
        return _ONE, a, b
    if a == b:
        return a, _ONE, _ONE
    g = _stride(a, b)
    if g == 1:
        return _heu_gcd(a, b)
    return tuple(_inflate(p, g) for p in _heu_gcd(a[::g], b[::g]))


def _heu_gcd(a, b):
    """``_dense_gcd`` of two different polynomials of length > 1 by GCDHEU:
    evaluate at 2^k, take the integer gcd, read its balanced digits back as a
    polynomial and keep the primitive part if it divides both.  For 2^k >
    2 min(|a|, |b|) + 2 (max-norms) such a divisor is the gcd: the roots of
    the gcd lie below 2^(k-1), so any missing factor t would have
    |t(2^k)| > 2^(k-1) and could not divide the candidate's content.
    """
    k = (2 * min(max(map(abs, a)), max(map(abs, b))) + 2).bit_length() + 1
    for _ in range(_HEU_TRIES):
        va, vb = _pack(a, k), _pack(b, k)
        h = _igcd(va, vb)
        g = _unpack(h, k)
        if len(g) == 1:
            return _ONE, a, b
        cont = _igcd(*g)
        if cont != 1:
            g = [c // cont for c in g]
            h //= cont
        qa, ra = divmod(va, h)
        qb, rb = divmod(vb, h)
        # a zero value (2^k a root of a or b) leaves no cofactor to check
        if qa and qb and not ra and not rb:
            g = tuple(g)
            ca = tuple(_unpack(qa, k))
            cb = tuple(_unpack(qb, k))
            if _pmul(g, ca) == a and _pmul(g, cb) == b:
                return g, ca, cb
        k += k // 2 + 7
    return _prs_gcd(a, b)


# --- rational functions -------------------------------------------------------


def _rf(cn, cd, s, n, d):
    f = object.__new__(RationalFunction)
    f._cn = cn
    f._cd = cd
    f._s = s
    f._n = n
    f._d = d
    return f


def _lp_parts(p):
    """(k, m, s, N) with p = (k / m) * v^s * N, for a nonzero LaurentPoly p."""
    terms = p.terms
    low = min(terms)
    m = _ilcm(*(c.denominator for c in terms.values()))
    out = [0] * (max(terms) - low + 1)
    for e, c in terms.items():
        out[e - low] = c.numerator * (m // c.denominator)
    k, n = _primitive(out)
    return k, m, low, n


def _monic_lp(a):
    """The LaurentPoly a / lc(a) of a dense integer polynomial a."""
    lc = a[-1]
    return _lp({i: Fraction(x, lc) for i, x in enumerate(a) if x})


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of the underlying ordinary polynomials (v-shifts dropped)."""
    if a.is_zero() and b.is_zero():
        return LP_ZERO
    if a.is_zero() or b.is_zero():
        g = _lp_parts(b if a.is_zero() else a)[3]
    else:
        g = _dense_gcd(_lp_parts(a)[3], _lp_parts(b)[3])[0]
    return _monic_lp(g)


def _sum(x, y, ycn):
    """x + y', where y' is y with content numerator ycn (both nonzero)."""
    xd, yd = x._d, y._d
    if xd == yd:
        g, d1, xn, yn = xd, _ONE, x._n, y._n
    else:
        # the sum has denominator d1 * g = lcm(xd, yd)
        g, xd1, yd1 = _GCD_MEMO[xd, yd]
        d1 = _prod(xd1, yd1)
        xn, yn = _prod(x._n, yd1), _prod(y._n, xd1)
    xcd, ycd = x._cd, y._cd
    if xcd == ycd:
        m, fx, fy = xcd, x._cn, ycn
    else:
        t = _igcd(xcd, ycd)
        m = xcd // t * ycd
        fx, fy = x._cn * (ycd // t), ycn * (xcd // t)
    xs, ys = x._s, y._s
    if xs > ys:
        xn, yn, fx, fy, xs, ys = yn, xn, fy, fx, ys, xs
    off = ys - xs
    lx, ly = len(xn), len(yn)
    out = list(xn) if fx == 1 else list(map(_mul, xn, repeat(fx)))
    if lx < off + ly:
        out.extend(repeat(0, off + ly - lx))
    out[off:off + ly] = map(_add, out[off:off + ly], map(_mul, yn, repeat(fy)))
    _trim(out)
    if not out:
        return RF_ZERO
    if not out[0]:
        i = 1
        while not out[i]:
            i += 1
        del out[:i]
        xs += i
    k, n = _primitive(out)
    t = _igcd(k, m)
    if len(g) > 1:
        # Henrici: n is prime to xd1 and to yd1, so only gcd(n, g) can remain
        _, n, g = _GCD_MEMO[n, g]
    return _rf(k // t, m // t, xs, n, _prod(d1, g))


class RationalFunction:
    """Element of Q(v) in normal form; see the module docstring."""

    __slots__ = ("_cn", "_cd", "_s", "_n", "_d", "_hash", "_num", "_den")

    def __init__(self, num, den=None):
        """The quotient num / den of two LaurentPolys; den defaults to 1."""
        if den is None:
            den = LP_ONE
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            cn, cd, s, n, d = 0, 1, 0, _ONE, _ONE
        else:
            kn, mn, sn, n = _lp_parts(num)
            kd, md, sd, d = _lp_parts(den)
            cn, cd, s = kn * md, mn * kd, sn - sd
            if cd < 0:
                cn, cd = -cn, -cd
            t = _igcd(cn, cd)
            cn, cd = cn // t, cd // t
            _, n, d = _GCD_MEMO[n, d]
        self._cn = cn
        self._cd = cd
        self._s = s
        self._n = n
        self._d = d

    @classmethod
    def const(cls, c):
        return cls.v_power(0, c)

    @classmethod
    def v_power(cls, e, c=1):
        c = Fraction(c)
        if not c:
            return _rf(0, 1, 0, _ONE, _ONE)
        return _rf(c.numerator, c.denominator, e, _ONE, _ONE)

    @classmethod
    def of_poly(cls, p: LaurentPoly):
        return cls(p)

    @property
    def num(self) -> LaurentPoly:
        """Numerator of the classical normal form (the denominator is monic)."""
        try:
            return self._num
        except AttributeError:
            pass
        if not self._cn:
            p = LP_ZERO
        else:
            cn, cd, s = self._cn, self._cd * self._d[-1], self._s
            p = _lp({i + s: Fraction(x * cn, cd) for i, x in enumerate(self._n) if x})
        self._num = p
        return p

    @property
    def den(self) -> LaurentPoly:
        """Denominator of the classical normal form: monic, lowest exponent 0."""
        try:
            return self._den
        except AttributeError:
            pass
        d = self._d
        p = LP_ONE if len(d) == 1 else _monic_lp(d)
        self._den = p
        return p

    def is_zero(self):
        return not self._cn

    def __bool__(self):
        return self._cn != 0

    def is_one(self):
        return (self._cn == 1 and self._cd == 1 and not self._s
                and len(self._n) == 1 and len(self._d) == 1)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self._cn == other._cn and self._s == other._s
                and self._cd == other._cd and self._n == other._n
                and self._d == other._d)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        h = self._hash = hash((self._cn, self._cd, self._s, self._n, self._d))
        return h

    def __add__(self, other):
        if not self._cn:
            return other
        if not other._cn:
            return self
        return _sum(self, other, other._cn)

    def __neg__(self):
        if not self._cn:
            return self
        return _rf(-self._cn, self._cd, self._s, self._n, self._d)

    def __sub__(self, other):
        if not other._cn:
            return self
        if not self._cn:
            return -other
        return _sum(self, other, -other._cn)

    def __mul__(self, other):
        xcn, ycn = self._cn, other._cn
        if not xcn or not ycn:
            return RF_ZERO
        xcd, ycd = self._cd, other._cd
        if xcd == 1 and ycd == 1:
            cn, cd = xcn * ycn, 1
        else:
            t1, t2 = _igcd(xcn, ycd), _igcd(ycn, xcd)
            cn, cd = (xcn // t1) * (ycn // t2), (xcd // t2) * (ycd // t1)
        xn, xd, yn, yd = self._n, self._d, other._n, other._d
        # a monomial c * v^s has N = D = (1,): nothing to cancel or multiply
        if len(xn) == 1 and len(xd) == 1:
            return _rf(cn, cd, self._s + other._s, yn, yd)
        if len(yn) == 1 and len(yd) == 1:
            return _rf(cn, cd, self._s + other._s, xn, xd)
        if len(yd) > 1 and len(xn) > 1:
            _, xn, yd = _GCD_MEMO[xn, yd]
        if len(xd) > 1 and len(yn) > 1:
            _, yn, xd = _GCD_MEMO[yn, xd]
        return _rf(cn, cd, self._s + other._s, _prod(xn, yn), _prod(xd, yd))

    def __truediv__(self, other):
        if not other._cn:
            raise ZeroDivisionError("division by the zero rational function")
        return self * other.inv()

    def inv(self):
        cn = self._cn
        if not cn:
            raise ZeroDivisionError("inverse of the zero rational function")
        if cn < 0:
            return _rf(-self._cd, -cn, -self._s, self._d, self._n)
        return _rf(self._cd, cn, -self._s, self._d, self._n)

    def bar(self):
        """The field automorphism v -> 1/v."""
        cn = self._cn
        if not cn:
            return self
        n, d = self._n[::-1], self._d[::-1]
        if n[-1] < 0:
            n, cn = tuple(-c for c in n), -cn
        if d[-1] < 0:
            d, cn = tuple(-c for c in d), -cn
        return _rf(cn, self._cd, len(d) - len(n) - self._s, n, d)

    def __str__(self):
        if len(self._d) == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


RF_ZERO = RationalFunction.const(0)
RF_ONE = RationalFunction.const(1)


class NumericValue:
    """Result of a specialization; exact Fraction unless floats crept in."""

    __slots__ = ("value", "flavor")

    def __init__(self, value, flavor="exact"):
        self.value = value
        self.flavor = flavor

    def __eq__(self, other):
        if isinstance(other, NumericValue):
            return self.value == other.value
        return self.value == other

    def __repr__(self):
        return f"NumericValue({self.value}, {self.flavor})"


def rf_arith(a: RationalFunction, b: RationalFunction, op: str) -> RationalFunction:
    """Field arithmetic entry point; op is one of add, sub, mul, div."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def q_integer(n: int, d: int = 1) -> RationalFunction:
    """Balanced quantum integer [n] in q_i = v^(2d).

    [n] = (q_i^n - q_i^-n) / (q_i - q_i^-1), a Laurent polynomial fixed by
    v -> 1/v, with [-n] = -[n] and [0] = 0.
    """
    if d <= 0:
        raise ValueError("d must be a positive integer")
    if n == 0:
        return RF_ZERO
    sign = 1
    if n < 0:
        sign, n = -1, -n
    # v^(-2d(n-1)) * (1 + v^(4d) + ... + v^(4d(n-1)))
    coeffs = [0] * (4 * d * (n - 1) + 1)
    coeffs[::4 * d] = repeat(1, n)
    return _rf(sign, 1, -2 * d * (n - 1), tuple(coeffs), _ONE)


def gauss_binomial(m: int, t: int, d: int = 1) -> RationalFunction:
    """Balanced Gauss polynomial [m choose t] in q_i = v^(2d)."""
    if t < 0 or t > m:
        raise ValueError(f"binomial index t={t} outside 0..{m}")
    out = RF_ONE
    for k in range(1, t + 1):
        out = out * q_integer(m - t + k, d) / q_integer(k, d)
    return out


def check_v0(v0) -> Fraction:
    """v0 as a Fraction, or ValueError unless v0 > 0 and v0 != 1."""
    v0 = Fraction(v0)
    if v0 <= 0 or v0 == 1:
        raise ValueError("specialization point v0 must be positive and differ from 1")
    return v0


def specialize(f: RationalFunction, v0) -> NumericValue:
    """Exact evaluation at a rational point v0 > 0, v0 != 1."""
    v0 = check_v0(v0)
    den = f.den.evaluate(v0)
    if den == 0:
        raise ZeroDivisionError(f"pole at v = {v0}")
    return NumericValue(f.num.evaluate(v0) / den, "exact")


# --- canonical text form ----------------------------------------------------
#
# "c1*v^e1 + ... / d1*v^f1 + ..." with exponents ascending and coefficients
# as Fractions in lowest terms.  The numerator/denominator separator is the
# three-character " / "; coefficient slashes carry no spaces, so the split is
# unambiguous.  Round-trips are bit exact.


def _poly_canonical(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    return " + ".join(f"{p.terms[e]}*v^{e}" for e in sorted(p.terms))


def _poly_parse(text: str) -> LaurentPoly:
    text = text.strip()
    if text == "0":
        return LP_ZERO
    terms = {}
    for bit in text.split(" + "):
        coeff, _, power = bit.partition("*v^")
        terms[int(power)] = Fraction(coeff)
    return LaurentPoly(terms)


def rf_to_text(f: RationalFunction) -> str:
    return f"{_poly_canonical(f.num)} / {_poly_canonical(f.den)}"


def rf_from_text(text: str) -> RationalFunction:
    num_text, sep, den_text = text.partition(" / ")
    if not sep:
        raise ValueError(f"malformed rational function text: {text!r}")
    num = _poly_parse(num_text)
    den = _poly_parse(den_text)
    return RationalFunction(num, den)
