"""Frozen copy of the Fraction-based Q(v) kernel that ``qgroups.scalar`` replaced.

Kept as the reference for the differential tests of the integer kernel: a
RationalFunction here is a pair of Fraction-coefficient Laurent polynomials,
normalized through a full gcd after every operation.  Do not optimize it.
"""
from __future__ import annotations

from fractions import Fraction


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

    @classmethod
    def v_power(cls, e, c=1):
        return cls({e: Fraction(c)})

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

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return LaurentPoly()
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly(out)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return LaurentPoly()
        return LaurentPoly({e: k * c for e, k in self.terms.items()})

    def shift(self, n):
        """Multiply by v^n."""
        return LaurentPoly({e + n: c for e, c in self.terms.items()})

    def bar(self):
        """The substitution v -> 1/v."""
        return LaurentPoly({-e: c for e, c in self.terms.items()})

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

    def dense(self):
        """Coefficient list c[0..deg] after shifting the lowest exponent to 0."""
        if not self.terms:
            return [], 0
        low = self.lowest()
        deg = self.degree() - low
        out = [Fraction(0)] * (deg + 1)
        for e, c in self.terms.items():
            out[e - low] = c
        return out, low

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


def _dense_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _dense_divmod(a, b):
    """Quotient and remainder of dense Fraction coefficient lists."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            f = a[i] / lb
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] -= f * b[j]
    return _dense_trim(q), _dense_trim(a[:db])


def _int_primitive(a):
    """Strip integer content; normalize the leading coefficient positive."""
    from math import gcd as igcd

    g = 0
    for c in a:
        g = igcd(g, c)
        if g == 1:
            break
    if g == 0:
        return []
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _int_pseudo_rem(a, b):
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
    return _dense_trim(a)


def _to_int_list(a):
    lcm = 1
    for c in a:
        d = c.denominator
        if d != 1:
            from math import gcd as igcd

            lcm = lcm // igcd(lcm, d) * d
    return [int(c * lcm) for c in a]


def _dense_gcd(a, b):
    """Monic gcd of dense Fraction coefficient lists, via primitive integer PRS."""
    a = _dense_trim(list(a))
    b = _dense_trim(list(b))
    if not a or not b:
        g = a or b
        if g:
            lc = g[-1]
            return [c / lc for c in g]
        return []
    ia = _int_primitive(_to_int_list(a))
    ib = _int_primitive(_to_int_list(b))
    while ib:
        r = _int_pseudo_rem(ia, ib)
        ia, ib = ib, _int_primitive(r)
    lc = Fraction(ia[-1])
    return [Fraction(c) / lc for c in ia]


_GCD_CACHE = {}
_GCD_CACHE_MAX = 1 << 15


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of the underlying ordinary polynomials (v-shifts dropped)."""
    if a.is_zero() or b.is_zero():
        p = b if a.is_zero() else a
        d, _ = p.dense()
        if d:
            lc = d[-1]
            d = [c / lc for c in d]
        return LaurentPoly({i: c for i, c in enumerate(d)})
    key = (a, b)
    hit = _GCD_CACHE.get(key)
    if hit is not None:
        return hit
    da, _ = a.dense()
    db, _ = b.dense()
    g = _dense_gcd(da, db)
    out = LaurentPoly({i: c for i, c in enumerate(g)})
    if len(_GCD_CACHE) < _GCD_CACHE_MAX:
        _GCD_CACHE[key] = out
    return out


def poly_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division a / b; raises if the division leaves a remainder."""
    if a.is_zero():
        return LP_ZERO
    da, sa = a.dense()
    db, sb = b.dense()
    q, r = _dense_divmod(da, db)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return LaurentPoly({i + sa - sb: c for i, c in enumerate(q)})


class RationalFunction:
    """Element of Q(v) in normal form; see the module docstring."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _normalized=False):
        if den is None:
            den = LP_ONE
        if not _normalized:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        if not c:
            return cls(LP_ZERO, LP_ONE, _normalized=True)
        return cls(LaurentPoly.const(c), LP_ONE, _normalized=True)

    @classmethod
    def v_power(cls, e, c=1):
        c = Fraction(c)
        if not c:
            return cls(LP_ZERO, LP_ONE, _normalized=True)
        return cls(LaurentPoly.v_power(e, c), LP_ONE, _normalized=True)

    @classmethod
    def of_poly(cls, p: LaurentPoly):
        return cls(p, LP_ONE, _normalized=True)

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.num == LP_ONE and self.den == LP_ONE

    def is_poly(self):
        return self.den == LP_ONE

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __add__(self, other):
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == LP_ONE and other.den == LP_ONE:
            return RationalFunction(self.num + other.num, LP_ONE, _normalized=True)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.num.is_zero() or other.num.is_zero():
            return RF_ZERO
        if self.den == LP_ONE and other.den == LP_ONE:
            return RationalFunction(self.num * other.num, LP_ONE, _normalized=True)
        # cross-cancel, after which numerator and denominator stay coprime;
        # the denominator product is monic with nonzero constant term, so the
        # result is already in normal form
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1 == LP_ONE else poly_exact_div(self.num, g1)
        d2 = other.den if g1 == LP_ONE else poly_exact_div(other.den, g1)
        n2 = other.num if g2 == LP_ONE else poly_exact_div(other.num, g2)
        d1 = self.den if g2 == LP_ONE else poly_exact_div(self.den, g2)
        return RationalFunction(n1 * n2, d1 * d2, _normalized=True)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * RationalFunction(other.den, other.num)

    def inv(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunction(self.den, self.num)

    def bar(self):
        """The field automorphism v -> 1/v."""
        return RationalFunction(self.num.bar(), self.den.bar())

    def __str__(self):
        if self.den == LP_ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def _normalize(num: LaurentPoly, den: LaurentPoly):
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return LP_ZERO, LP_ONE
    dn, shift_n = num.dense()
    dd, shift_d = den.dense()
    g = _dense_gcd(dn, dd)
    if len(g) > 1:
        dn, _ = _dense_divmod(dn, g)
        dd, _ = _dense_divmod(dd, g)
    lc = dd[-1]
    shift = shift_n - shift_d
    num = LaurentPoly({i + shift: c / lc for i, c in enumerate(dn)})
    den = LaurentPoly({i: c / lc for i, c in enumerate(dd)})
    return num, den


RF_ZERO = RationalFunction.const(0)
RF_ONE = RationalFunction.const(1)

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
