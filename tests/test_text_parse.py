"""``rf_from_text`` reading coefficients as ints, against the Fraction parser
it replaced (``retired_helpers.fraction_rf_from_text``).

On every text the old parser reads, the new one gives an equal value, or,
only for text outside the n*v^e / n/d*v^e term form (a decimal point, a
plus sign, an underscore, a stray space, a non-ASCII digit), a ValueError.
Where the old parser raised, the new one raises too, a ValueError wherever
the old one did.  The texts are canonical forms of random rational
functions, forms that are valid but not canonical (unreduced coefficients,
zero and repeated terms, exponents out of order, numerator and denominator
not reduced), and
random one-character edits of both.  Every rational-function entry of a
warm A1 (60) cache payload reads back equal, and prints as it was stored.
"""

import json
import random
from fractions import Fraction

from qgroups.cli import main
from qgroups.scalar import LaurentPoly, RationalFunction, rf_from_text, rf_to_text
from retired_helpers import fraction_rf_from_text


def outcome(parse, text):
    try:
        return parse(text), None
    except (ValueError, ZeroDivisionError) as exc:
        return None, type(exc)


def is_signed_ascii_int(text):
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def in_term_form(text):
    """Whether every term of both sides is n*v^e or n/d*v^e, spelled out with
    str methods (no shared regex)."""
    for side in text.split(" / ", 1):
        side = side.strip()
        if side == "0":
            continue
        for bit in side.split(" + "):
            coeff, sep, power = bit.partition("*v^")
            num, slash, den = coeff.partition("/")
            if not (sep and is_signed_ascii_int(power) and is_signed_ascii_int(num)
                    and (not slash or (den.isascii() and den.isdigit()))):
                return False
    return True


def random_poly(rng, terms=4):
    return LaurentPoly({rng.randint(-6, 6): Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                        for _ in range(rng.randint(1, terms))})


def loose_poly_text(rng, p):
    """A valid, non-canonical spelling of p: unreduced, shuffled, padded."""
    bits = []
    for e, c in p.terms.items():
        k = rng.randint(1, 4)
        bits.append(f"{c.numerator * k}/{c.denominator * k}*v^{e}")
    if rng.random() < 0.5:
        bits.append(f"0*v^{rng.randint(-6, 6)}")
    if p.terms and rng.random() < 0.3:
        e = rng.choice(list(p.terms))
        bits.insert(0, f"{rng.randint(-9, 9)}*v^{e}")   # overwritten by the later term
    rng.shuffle(bits)
    return " + ".join(bits) if bits else "0"


def edit(rng, text):
    n = rng.randrange(len(text) + 1)
    choice = rng.random()
    if choice < 0.4:
        return text[:n] + rng.choice("0123456789v^*/+- ._e٣") + text[n:]
    if choice < 0.7:
        return text[:n] + text[n + 1:]
    return text[:n] + rng.choice("0123456789-/ +") + text[n + 1:]


def texts(rng, count):
    out = []
    for _ in range(count):
        num, den = random_poly(rng), random_poly(rng)
        if not den:
            continue
        f = RationalFunction(num, den)
        canonical = rf_to_text(f)
        loose = f"{loose_poly_text(rng, num)} / {loose_poly_text(rng, den)}"
        out += [canonical, loose, edit(rng, canonical), edit(rng, loose),
                edit(rng, edit(rng, canonical))]
    return out + ["0 / 1*v^0", "0 / 0", "1*v^0 / 0", "1/0*v^0 / 1*v^0", " 1*v^0 / 1*v^0 ",
                  "1*v^0", "", " / ", "1*v^0 / 2*v^0 / 3*v^0", "1.5*v^0 / 1*v^0",
                  "+1*v^0 / 1*v^0", "1*v^+2 / 1*v^0", "1_0*v^0 / 1*v^0", "1*v^ 2 / 1*v^0",
                  "1*v^2 + 0*v^2 / 1*v^0", "٣*v^0 / 1*v^0", "1/-2*v^0 / 1*v^0"]


def test_parser_matches_the_fraction_parser_on_random_texts():
    seen = {"equal": 0, "stricter": 0, "both_raise": 0}
    for text in texts(random.Random(5), 1500):
        old, old_exc = outcome(fraction_rf_from_text, text)
        new, new_exc = outcome(rf_from_text, text)
        if old_exc is None:
            if new_exc is None:
                assert new == old, text
                assert rf_to_text(new) == rf_to_text(old), text
                seen["equal"] += 1
            else:
                assert new_exc is ValueError and not in_term_form(text), text
                seen["stricter"] += 1
        else:
            assert new_exc is not None, text
            if old_exc is ValueError:
                assert new_exc is ValueError, text
            seen["both_raise"] += 1
    assert min(seen.values()) > 100, seen


def test_every_entry_of_a_warm_payload_reads_as_before(tmp_path, capsys):
    args = ["irrep", "--algebra", "A1", "--weight", "60", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    assert main(args) == 0
    capsys.readouterr()
    (entry,) = tmp_path.glob("*.json")
    payload = json.loads(entry.read_text())["payload"]

    def strings(obj):
        if isinstance(obj, str):
            yield obj
        elif isinstance(obj, dict):
            for x in obj.values():
                yield from strings(x)
        elif isinstance(obj, list):
            for x in obj:
                yield from strings(x)

    entries = [s for s in strings(payload) if " / " in s]
    assert len(entries) == 60 + 60 + 60   # E_1, F_1, constructions
    for text in entries:
        new = rf_from_text(text)
        assert new == fraction_rf_from_text(text)
        assert rf_to_text(new) == text
