"""Right LCM monoids behind oracles, left inverse hull arithmetic, foundation
sets, Zappa-Szep products and the relation generators for their hulls.

Monoid elements are plain hashable Python values (strings for free monoids,
integer tuples otherwise).  Every right LCM oracle is exact, with no search
over multiples; the universally quantified checks are bounded by a grade
and say so in their verdicts.
"""

from __future__ import annotations

import json
from itertools import product as iproduct
from math import comb, gcd, inf
from typing import NamedTuple

from .semilattice import BudgetExceeded, LawViolation, _at_least, _json_text, _Memo


# nothing in the package raises this any more; perfbench/make_reference.py still names it
class UndecidedError(Exception):
    """A bounded oracle search ran out of depth."""

    def __init__(self, message: str, depth: int):
        super().__init__(f"{message} (searched to depth {depth})")
        self.depth = depth


# ---------------------------------------------------------------------------
# builtin monoids

class FreeMonoid:
    """Free monoid on a finite alphabet; elements are strings, ideals are
    prefix sets.  The letters are distinct, and none is whitespace or one of
    ``e.,[]``, which the notation for the identity and hull elements uses."""

    def __init__(self, alphabet: str = "ab"):
        if type(alphabet) is not str or not alphabet:
            raise LawViolation(f"alphabet {alphabet!r} must be a nonempty string of letters")
        for i, ch in enumerate(alphabet):
            if ch in "e.,[]" or ch.isspace() or ch in alphabet[:i]:
                raise LawViolation(f"letter {ch!r} of alphabet {alphabet!r} is reserved or repeated")
        self.alphabet = alphabet
        self.identity = ""

    def __repr__(self):
        return f"FreeMonoid({self.alphabet!r})"

    def multiply(self, p: str, q: str) -> str:
        return p + q

    def grade(self, p: str) -> int:
        return len(p)

    def elements_up_to(self, depth: int) -> list[str]:
        out = [""]
        for length in range(1, depth + 1):
            out.extend("".join(w) for w in iproduct(self.alphabet, repeat=length))
        return out

    def count_up_to(self, depth: int) -> int:
        k = len(self.alphabet)
        return depth + 1 if k == 1 else (k ** (depth + 1) - 1) // (k - 1)

    def right_lcm(self, p: str, q: str) -> str | None:
        if p.startswith(q):
            return p
        if q.startswith(p):
            return q
        return None

    def left_divide(self, p: str, r: str) -> str | None:
        return r[len(p):] if r.startswith(p) else None

    def foundation_verdict(self, F) -> "FoundationVerdict":
        """Exact decision: a nonempty set is a foundation set when every word
        of the maximal member length extends some member.

        A walk over the prefix tree of F, a child numbered after its parent.
        A prefix is covered (each long enough extension extends a member)
        when it is a member or each one-letter extension is a covered
        prefix.  The witness, the first uncovered word of the maximal length
        in alphabet order, follows the first uncovered extension down to one
        that no member starts with, padded with the first letter.
        """
        kids, member = [{}], [False]
        for f in set(F):
            node = 0
            for c in f:
                node = kids[node].setdefault(c, len(kids))
                if node == len(kids):
                    kids.append({})
                    member.append(False)
            member[node] = True
        covered = member + [False]  # covered[-1], past the nodes, stands for a missing child
        for node in reversed(range(len(kids))):
            covered[node] = member[node] or all(covered[kids[node].get(c, -1)] for c in self.alphabet)
        if covered[0]:
            return FoundationVerdict("yes", None, None)
        word, node = [], 0
        while node >= 0:
            word.append(next(c for c in self.alphabet if not covered[kids[node].get(c, -1)]))
            node = kids[node].get(word[-1], -1)
        return FoundationVerdict("no", "".join(word).ljust(max(map(len, F)), self.alphabet[0]), None)

    def format(self, p: str) -> str:
        return p if p else "e"

    def parse(self, text: str) -> str:
        text = text.strip()
        if text == "e":
            return ""
        for ch in text:
            if ch not in self.alphabet:
                raise LawViolation(f"letter {ch!r} is not in alphabet {self.alphabet!r}")
        return text


def _natural(text: str, what: str) -> int:
    """A natural number in ASCII digits only: ``int`` would also take a sign,
    underscores, surrounding spaces and other scripts' digits, which would
    print back differently."""
    if not (text.isascii() and text.isdigit()):
        raise LawViolation(f"{what} must be written in the digits 0-9, got {text!r}")
    return int(text)


class NatPow:
    """The monoid of k-tuples of naturals under addition; any two ideals meet."""

    def __init__(self, k: int):
        if k < 1:
            raise LawViolation("need at least one coordinate")
        self.k = k
        self.identity = (0,) * k

    def __repr__(self):
        return f"NatPow({self.k})"

    def multiply(self, p, q):
        return tuple(a + b for a, b in zip(p, q))

    def grade(self, p) -> int:
        return sum(p)

    def elements_up_to(self, depth: int) -> list[tuple[int, ...]]:
        out = [()]
        for _ in range(self.k):
            out = [t + (v,) for t in out for v in range(depth - sum(t) + 1)]
        return sorted(out, key=lambda t: (sum(t), t))

    def count_up_to(self, depth: int) -> int:
        return comb(depth + self.k, self.k)

    def right_lcm(self, p, q):
        return tuple(max(a, b) for a, b in zip(p, q))

    def left_divide(self, p, r):
        if all(a <= b for a, b in zip(p, r)):
            return tuple(b - a for a, b in zip(p, r))
        return None

    def foundation_verdict(self, F) -> "FoundationVerdict":
        return FoundationVerdict("yes", None, None)  # F is nonempty, and any two ideals meet

    def format(self, p) -> str:
        return ".".join(str(v) for v in p)

    def parse(self, text: str):
        parts = text.strip().split(".")
        if len(parts) != self.k:
            raise LawViolation(f"need {self.k} dot-separated coordinates, got {text!r}")
        return tuple(_natural(v, f"coordinate in {text!r}") for v in parts)


class NRtimesNx:
    """Naturals acted on by multiplication: (m,p)(n,q) = (m+pn, pq), p,q >= 1.

    Principal right ideals are arithmetic progressions; two of them meet
    exactly when the offsets agree modulo the gcd of the steps.
    """

    def __init__(self):
        self.identity = (0, 1)

    def __repr__(self):
        return "NRtimesNx()"

    def multiply(self, p, q):
        (m, a), (n, b) = p, q
        return (m + a * n, a * b)

    def grade(self, p) -> int:
        return p[0] + p[1] - 1

    def elements_up_to(self, depth: int) -> list[tuple[int, int]]:
        out = [
            (m, p)
            for p in range(1, depth + 2)
            for m in range(0, depth - p + 2)
            if m + p - 1 <= depth
        ]
        return sorted(out, key=lambda t: (self.grade(t), t))

    def count_up_to(self, depth: int) -> int:
        return (depth + 1) * (depth + 2) // 2

    def right_lcm(self, x, y):
        (m, p), (n, q) = x, y
        g = gcd(p, q)
        if (m - n) % g != 0:
            return None
        step = p * q // g
        lo = max(m, n)
        for r0 in range(lo, lo + step):
            if (r0 - m) % p == 0 and (r0 - n) % q == 0:
                return (r0, step)
        raise AssertionError("congruence solvable but no solution found")

    def left_divide(self, x, r):
        (m, p), (v, w) = x, r
        if w % p != 0 or (v - m) % p != 0 or v < m:
            return None
        return ((v - m) // p, w // p)

    def foundation_verdict(self, F):
        return None  # no exact rule; callers fall back to bounded search

    def format(self, p) -> str:
        return f"{p[0]}.{p[1]}"

    def parse(self, text: str):
        parts = text.strip().split(".")
        if len(parts) != 2:
            raise LawViolation(f"need offset.step, got {text!r}")
        m, p = (_natural(v, f"offset and step in {text!r}") for v in parts)
        if p < 1:
            raise LawViolation(f"step must be >= 1 in {text!r}")
        return (m, p)


# ---------------------------------------------------------------------------
# hull elements

class HullElement(NamedTuple):
    """A class [p, q] of the left inverse hull, or the adjoined zero."""

    p: object
    q: object

    @property
    def is_zero(self) -> bool:
        return self.p is None

    def format(self, P) -> str:
        if self.is_zero:
            return "0"
        return f"[{P.format(self.p)},{P.format(self.q)}]"


HULL_ZERO = HullElement(None, None)


def _cofactors(P, b, c) -> tuple | None:
    """(b\\r, c\\r) for r the right LCM of b and c, or None when their
    ideals miss; ``LawViolation`` when the oracles disagree."""
    r = P.right_lcm(b, c)
    if r is None:
        return None
    b1, c1 = P.left_divide(b, r), P.left_divide(c, r)
    if b1 is None or c1 is None:
        raise LawViolation(f"oracle inconsistency: lcm {P.format(r)} not divisible by its arguments")
    return b1, c1


def hull_mul(P, x: HullElement, y: HullElement) -> HullElement:
    """[a,b][c,d] = [a(b\\r), d(c\\r)] with r the right LCM of b and c;
    zero when the ideals miss."""
    cof = None if x.is_zero or y.is_zero else _cofactors(P, x.q, y.p)
    return HULL_ZERO if cof is None else HullElement(P.multiply(x.p, cof[0]), P.multiply(y.q, cof[1]))


def hull_inv(x: HullElement) -> HullElement:
    return HullElement(x.q, x.p)  # the zero (None, None) is its own inverse


def fragment_law_failure(P, depth: int) -> str | None:
    """The first failure of the inverse semigroup laws on a hull fragment,
    naming its witness, or None when the laws hold.

    The fragment is the zero and every [p,q] with p and q among
    ``P.elements_up_to(depth)``.  The check is exact over the same
    quantifiers as the definition, in the same order: (xy)z = x(yz) for all
    x, y, z in the fragment, then x x* x = x for all x (x* by ``hull_inv``),
    then ef = fe for the idempotents [p,p].  It runs on ints: monoid
    elements are numbered in fragment order, and hull elements are codes,
    0 the zero and 1 + p*n + q the fragment's [p,q], with elements reached
    later numbered next.  The cofactor pair of ``hull_mul`` is memoised per
    pair of numbers and ``P.multiply`` per argument pair, so each oracle is
    asked once per distinct argument pair.

    Associativity is checked once per middle m = (b,c,d,e), not once per
    triple.  A zero factor makes both sides zero, so let x=[a,b], y=[c,d]
    and z=[e,f].  By the formula of ``hull_mul``, with (b',c') the cofactor
    pair of (b,c), (g,e') that of (dc',e), (h,e'') that of (d,e) and
    (k,c'') that of (b,ch),

        (xy)z = [(ab')g, fe']    and    x(yz) = [ak, (fe'')c''],

    a side being zero when one of its two cofactor pairs is missing.  Which
    side is zero, and every cofactor, depends on m alone, and a and f each
    enter one component.  So the law fails at (a,m,f) exactly when one
    side alone is zero, or a is in A_m, the a with (ab')g != ak, or f is in
    F_m, the f with fe' != (fe'')c''.  A_m and F_m come from comparing two
    columns over the fragment each, memoised per argument.

    The witness is the first failing (a,b,c,d,e,f) in the order of the
    triple loop, a and f being numbers.  At a failing m the first a is
    a_m = 0 when one side alone is zero or F_m is nonempty (every (0,m,f),
    f in F_m, fails), and min A_m otherwise; the first f at a_m is f_m = 0
    when one side alone is zero or a_m is in A_m, and min F_m otherwise.
    The witness is the least (a_m, m, f_m); middles are taken in order, so
    the first with a_m = 0 ends the search.

    The oracles are asked in the triple loop's order too, so an
    inconsistency is raised where that loop raises it.  The fragment's own
    pairs come first: the loop asks for every (d,e) while x is the zero,
    where nothing fails.  The pairs a middle reaches, (dc',e) and then
    (b,ch), are asked at that middle, as the loop asks them at (0,m,0),
    after every failure at a = 0 with an earlier middle and before every
    one with a later.
    """
    frag = P.elements_up_to(depth)
    n, N = len(frag), len(frag) ** 2 + 1
    mon, pairs = list(frag), [None] + [(p, q) for p in range(n) for q in range(n)]
    number, code = _numbering(mon), _numbering(pairs)

    def cofactor(bc):
        cof = _cofactors(P, mon[bc[0]], mon[bc[1]])
        return None if cof is None else (number[cof[0]], number[cof[1]])

    cofactor_of = _Memo(cofactor)
    times = _Memo(lambda ab: number[P.multiply(mon[ab[0]], mon[ab[1]])])
    col = _Memo(lambda u: tuple(times[a, u] for a in range(n)))  # au for each a
    col2 = _Memo(lambda uv: tuple(times[w, uv[1]] for w in col[uv[0]]))  # (au)v for each a

    def mul(x: int, y: int) -> int:
        if not (x and y):
            return 0
        (a, b), (c, d) = pairs[x], pairs[y]
        cof = cofactor_of[b, c]
        return 0 if cof is None else code[times[a, cof[0]], times[d, cof[1]]]

    def element(i: int) -> HullElement:
        return HullElement(mon[pairs[i][0]], mon[pairs[i][1]]) if i else HULL_ZERO

    def failure(law: str, **named: int) -> str:
        where = " ".join(f"{k}={element(i).format(P)}" for k, i in named.items())
        return f"{P!r}: {law} at {where}"

    def first_difference(s: tuple, t: tuple) -> int | None:
        return None if s == t else next(i for i, (u, v) in enumerate(zip(s, t)) if u != v)

    # the fragment's own pairs first, in the order the triple loop asks them
    cof = [[cofactor_of[p, q] for q in range(n)] for p in range(n)]

    witness = None
    for b, c, d, e in iproduct(range(n), repeat=4):
        bc, de = cof[b][c], cof[d][e]
        ge = bc and cofactor_of[times[d, bc[1]], e]
        kc = de and cofactor_of[b, times[c, de[0]]]
        if ge and kc:
            a_miss = first_difference(col2[bc[0], ge[0]], col[kc[0]])
            f_miss = first_difference(col[ge[1]], col2[de[1], kc[1]])
        else:  # one side alone zero fails at every (a, f), both at none
            a_miss = f_miss = 0 if ge or kc else None
        if a_miss is None and f_miss is None:
            continue
        a_m = a_miss if f_miss is None else 0
        miss = a_m, b, c, d, e, 0 if a_miss == a_m else f_miss
        witness = min(witness or miss, miss)
        if a_m == 0:
            break
    if witness:
        a, b, c, d, e, f = witness
        return failure("associativity fails", x=1 + a * n + b, y=1 + c * n + d, z=1 + e * n + f)
    for x in range(N):
        inv = hull_inv(element(x))
        if mul(mul(x, 0 if inv.is_zero else code[number[inv.p], number[inv.q]]), x) != x:
            return failure("inverse law fails", x=x)
    for e, f in iproduct([1 + a * n + a for a in range(n)], repeat=2):
        if mul(e, f) != mul(f, e):
            return failure("idempotents do not commute", e=e, f=f)
    return None


def _numbering(items: list) -> _Memo:
    """The index of each item in ``items``; a new item is appended."""
    index = _Memo(lambda item: items.append(item) or len(items) - 1)
    index.update((item, i) for i, item in enumerate(items))
    return index


def parse_hull(P, text: str) -> HullElement:
    text = text.strip()
    if text == "0":
        return HULL_ZERO
    if not (text.startswith("[") and text.endswith("]")):
        raise LawViolation(f"hull element must look like [p,q], got {text!r}")
    body = text[1:-1]
    parts = body.split(",")
    if len(parts) != 2:
        raise LawViolation(f"hull element needs two components, got {text!r}")
    return HullElement(P.parse(parts[0]), P.parse(parts[1]))


# ---------------------------------------------------------------------------
# foundation sets

# elements a foundation scan or lemma check may list; free:3 has 88,573 up to
# depth 10, listed and checked in about 0.6 s
ELEMENT_BUDGET = 100_000


def _refuse_over_budget(what: str, depth: int, count, unit: str, budget: int) -> None:
    """``BudgetExceeded`` when ``count(depth)``, which grows with the depth,
    is over the budget.  The counts grow up to doubly exponentially, so this
    finds the first depth over budget rather than computing the count at a
    much deeper one."""
    over = next((d for d in range(depth + 1) if count(d) > budget), None)
    if over is not None:
        n = f"{count(over):,} {unit}"
        if over < depth:
            n = f"more than the {n} of depth {over}"
        raise BudgetExceeded(f"{what} at depth {depth} would enumerate {n}, over the budget of {budget:,}")


def elements_up_to(P, depth: int) -> list:
    """``P.elements_up_to(depth)``, refused with ``BudgetExceeded`` before
    listing when ``P.count_up_to`` forecasts over ``ELEMENT_BUDGET``."""
    _refuse_over_budget(f"listing the elements of {P!r}", depth, P.count_up_to, "elements", ELEMENT_BUDGET)
    return P.elements_up_to(depth)


class FoundationVerdict(NamedTuple):
    kind: str                  # "yes" | "no" | "unknown"
    witness: object = None
    depth: int | None = None


def is_foundation_set(P, F, depth: int = 4) -> FoundationVerdict:
    """Decide whether every principal right ideal meets one from the set.

    Exact for monoids exposing a decision rule (``P.foundation_verdict``,
    asked only about nonempty sets); elsewhere a bounded scan
    that can refute with a concrete witness but only answer Unknown
    positively.  A negative depth raises ``LawViolation``, and a scan over
    ``ELEMENT_BUDGET`` elements ``BudgetExceeded``.
    """
    _at_least("depth", depth, 0)
    F = list(F)
    if not F:
        return FoundationVerdict("no", P.identity, None)
    exact = P.foundation_verdict(F)
    if exact is not None:
        return exact
    for p in elements_up_to(P, depth):
        if all(P.right_lcm(f, p) is None for f in F):
            return FoundationVerdict("no", p, None)
    return FoundationVerdict("unknown", None, depth)


def lemma_found_check(P, F, depth: int = 4) -> bool:
    """Foundation decision against the cover condition in the hull.

    The cover side asks every bounded idempotent [p,p] to meet some [f,f]
    under the hull product; the two sides must agree wherever the
    foundation decision is exact; ``is_foundation_set`` refuses a negative
    depth, and a listing over ``ELEMENT_BUDGET`` elements is refused.
    """
    F = list(F)
    verdict = is_foundation_set(P, F, depth)

    def covered(p) -> bool:
        e = HullElement(p, p)
        return any(not hull_mul(P, e, HullElement(f, f)).is_zero for f in F)

    if verdict.kind == "no":
        # the hull product must refute the cover at the same witness
        return verdict.witness is not None and not covered(verdict.witness)
    return all(covered(p) for p in elements_up_to(P, depth))


# ---------------------------------------------------------------------------
# Zappa-Szep products of free monoids

class ZappaSzepData(NamedTuple):
    """Action and restriction letter tables for a product of free monoids.

    ``act_letter[a][u]`` is the letter the generator a sends u to, and
    ``res_letter[a][u]`` the word of the restricted generator.
    """

    u_alphabet: str
    a_alphabet: str
    act_letter: tuple[tuple[str, str, str], ...]
    res_letter: tuple[tuple[str, str, str], ...]

    @classmethod
    def from_tables(cls, u_alphabet, a_alphabet, action, restriction) -> "ZappaSzepData":
        for alphabet in (u_alphabet, a_alphabet):
            FreeMonoid(alphabet)  # refuses all but a string of letters the notation leaves free
        act, res = [], []
        for a in a_alphabet:
            act_row, res_row = _table_row(action, "action", a), _table_row(restriction, "restriction", a)
            for u in u_alphabet:
                try:
                    av = act_row[u]
                    rv = res_row[u]
                except KeyError:
                    raise LawViolation(f"missing table entry for ({a!r},{u!r})") from None
                if type(av) is not str or len(av) != 1 or av not in u_alphabet:
                    raise LawViolation(f"action of {a!r} on {u!r} must be a single letter")
                if type(rv) is not str:
                    raise LawViolation(f"restriction of {a!r} at {u!r} must be a word, got {rv!r}")
                for ch in rv:
                    if ch not in a_alphabet:
                        raise LawViolation(f"restriction of {a!r} at {u!r} uses letter {ch!r}")
                act.append((a, u, av))
                res.append((a, u, rv))
        return cls(u_alphabet, a_alphabet, tuple(act), tuple(res))


def _table_row(table, name: str, a: str) -> dict:
    """The entries of an action or restriction table for the A-letter a."""
    row = table.get(a) if isinstance(table, dict) else None
    if not isinstance(row, dict):
        raise LawViolation(f"{name} of {a!r} must be an object over the U-letters, got {row!r}")
    return row


def adding_machine() -> ZappaSzepData:
    """Binary odometer: one A-generator adds 1 with carry to words over 0,1."""
    return ZappaSzepData.from_tables(
        "01", "g",
        action={"g": {"0": "1", "1": "0"}},
        restriction={"g": {"0": "", "1": "g"}},
    )


def zappa_data_from_json(text: str) -> ZappaSzepData:
    """Load generator action and restriction tables; words close them."""
    doc = json.loads(text)
    try:
        tables = doc["u_letters"], doc["a_letters"], doc["action"], doc["restriction"]
    except (KeyError, TypeError):
        raise LawViolation(
            "product JSON needs 'u_letters', 'a_letters', 'action' and 'restriction'"
        ) from None
    return ZappaSzepData.from_tables(*tables)


class ZappaSzepProduct:
    """Product on pairs (u, a) with multiplication through action and
    restriction; division and the right LCM invert the action letter by
    letter, with no search."""

    def __init__(self, data: ZappaSzepData):
        self.data = data
        self.u_monoid = FreeMonoid(data.u_alphabet)
        self.a_monoid = FreeMonoid(data.a_alphabet)
        self.identity = ("", "")
        act1 = {(a, u): v for a, u, v in data.act_letter}
        # (a, x) -> (act(a, x), res(a, x)) for a word a and a letter x
        self._step = {(a, u): (act1[a, u], w) for a, u, w in data.res_letter}
        self._walks: dict[tuple[str, str], tuple[str, str]] = {}
        self._act_inv: dict[tuple[str, str], str | None] = {}

    def __repr__(self):
        return f"ZappaSzepProduct({self.data.u_alphabet!r}, {self.data.a_alphabet!r})"

    # --- action and restriction, closed under the matched-pair laws --------

    def _letter(self, a: str, x: str) -> tuple[str, str]:
        """(act(a, x), res(a, x)) for a word a and a letter x.  The letters
        of a act right to left, each on a single letter, by
        act(bc, x) = act(b, act(c, x)) and res(bc, x) = res(b, act(c, x)) res(c, x)."""
        got = self._step.get((a, x))
        if got is None:
            v, parts = x, []
            for c in reversed(a):
                v, r = self._step[c, v]
                parts.append(r)
            got = self._step[a, x] = (v, "".join(reversed(parts)))
        return got

    def _walk(self, a: str, u: str) -> tuple[str, str]:
        """(act(a, u), res(a, u)), walking u one letter at a time by
        act(a, xw) = act(a, x) act(res(a, x), w) and res(a, xw) = res(res(a, x), w)."""
        got = self._walks.get((a, u))
        if got is None:
            out, state = [], a
            for x in u:
                v, state = self._letter(state, x)
                out.append(v)
            got = self._walks[a, u] = ("".join(out), state)
        return got

    def act(self, a: str, u: str) -> str:
        return self._walk(a, u)[0]

    def res(self, a: str, u: str) -> str:
        return self._walk(a, u)[1]

    # --- monoid interface ---------------------------------------------------

    def multiply(self, x, y):
        (u, a), (v, b) = x, y
        w, r = self._walk(a, v)
        return (u + w, r + b)

    def grade(self, x) -> int:
        return len(x[0]) + len(x[1])

    def elements_up_to(self, depth: int) -> list[tuple[str, str]]:
        out = [(u, a) for u in self.u_monoid.elements_up_to(depth)
               for a in self.a_monoid.elements_up_to(depth - len(u))]
        return sorted(out, key=lambda x: (self.grade(x), x))

    def count_up_to(self, depth: int) -> int:
        k = len(self.data.u_alphabet)
        return sum(k ** ell * self.a_monoid.count_up_to(depth - ell) for ell in range(depth + 1))

    def act_inverse(self, a: str, w: str) -> str | None:
        """The word v with act(a, v) = w, inverted letter by letter (the
        first letter of the alphabet that a sends to the next letter of w),
        or None when some letter has no preimage."""
        key = (a, w)
        got = self._act_inv.get(key, False)
        if got is False:
            out, state, got = [], a, None
            for y in w:
                c = next((c for c in self.data.u_alphabet if self._letter(state, c)[0] == y), None)
                if c is None:
                    break
                out.append(c)
                state = self._letter(state, c)[1]
            else:
                got = "".join(out)
            self._act_inv[key] = got
        return got

    def left_divide(self, x, r):
        """The unique cofactor, through the inverse of the action."""
        (u1, a1), (u2, a2) = x, r
        if not u2.startswith(u1):
            return None
        v = self.act_inverse(a1, u2[len(u1):])
        if v is None:
            return None
        rest = self.a_monoid.left_divide(self.res(a1, v), a2)
        if rest is None:
            return None
        return (v, rest)

    def right_lcm(self, x, y):
        """The least common right multiple of x and y, or None when their
        ideals miss, in closed form.  Order the pair so that u1 is a prefix of
        u2 (if neither is, every multiple keeps its u-prefix and the ideals
        miss) and let v = act_inverse(a1, u2[len(u1):]).  As act(a, st)
        starts with act(a, s) and, under C3, each a acts injectively on the
        words of each length, the cofactor of every common multiple starts
        with v: all lie in the ideal of x (v, e) = (u2, res(a1, v)), and none
        exist without v.  Under C2 one of res(a1, v) and a2 is a prefix of the
        other, so with m the longer, (u2, m) is x (v, e) or y and a multiple of
        the other: the least common multiple.  ``zappa_szep`` checks C2 and C3
        on letters, which imply every length.
        """
        (u1, a1), (u2, a2) = x, y
        if not u2.startswith(u1):
            if not u1.startswith(u2):
                return None
            (u1, a1), (u2, a2) = y, x
        v = self.act_inverse(a1, u2[len(u1):])
        if v is None:
            return None
        m = self.a_monoid.right_lcm(self.res(a1, v), a2)
        return None if m is None else (u2, m)

    def foundation_verdict(self, F):
        return None

    def format(self, x) -> str:
        u, a = x
        return f"{u or 'e'}.{a or 'e'}"

    def parse(self, text: str):
        parts = text.strip().split(".")
        if len(parts) != 2:
            raise LawViolation(f"need u.a, got {text!r}")
        return (self.u_monoid.parse(parts[0]), self.a_monoid.parse(parts[1]))


def _check_lcm_oracle(M, depth: int, cofactor_depth: int) -> None:
    """Right LCM answers against brute-force ideal intersections on a fragment.
    Each ideal is listed in cofactor order, and the multiples of each divisor
    among all listed elements are found once, so a failure names the first
    witness of p's ideal in that order, whatever the hash seed."""
    frag = M.elements_up_to(depth)
    cof = M.elements_up_to(cofactor_depth)
    ideals = {p: list(dict.fromkeys(M.multiply(p, z) for z in cof)) for p in frag}
    listed = set().union(*ideals.values())
    multiples = _Memo(lambda u: {t for t in listed if M.left_divide(u, t) is not None})
    for p in frag:
        for q in frag:
            inter = [t for t in ideals[p] if t in multiples[q]]
            r = M.right_lcm(p, q)
            if r is None:
                if inter:
                    raise LawViolation(
                        f"oracle says ideals of {M.format(p)} and {M.format(q)} miss, "
                        f"but {M.format(inter[0])} lies in both"
                    )
                continue
            if M.left_divide(p, r) is None or M.left_divide(q, r) is None:
                raise LawViolation(
                    f"lcm {M.format(r)} of {M.format(p)},{M.format(q)} not divisible by both"
                )
            for t in inter:
                if t not in multiples[r]:
                    raise LawViolation(
                        f"lcm {M.format(r)} misses {M.format(t)} in the intersection of "
                        f"{M.format(p)} and {M.format(q)}"
                    )


def zappa_szep(data: ZappaSzepData) -> ZappaSzepProduct:
    """Build the product, checking on letters the two conditions that make
    ``right_lcm`` exact: C2, one A-letter, as the ideals of two letters are
    incomparable; C3, each A-letter permuting the U-letters, which gives a
    bijection on each length by act(a, cw) = act(a, c) act(res(a, c), w).
    The rest holds for any tables ``from_tables`` accepts:

    * act(a, uv) = act(a, u) act(res(a, u), v), res(a, uv) = res(res(a, u), v):
      ``_walk`` is a left fold over u with the running restriction as state.
    * act(ab, u) = act(a, act(b, u)), res(ab, u) = res(a, act(b, u)) res(b, u):
      for a letter u as ``_letter`` reads ab right to left; for u = xw both
      sides expand by the laws above into these laws for the pair
      res(a, act(b, x)), res(b, x) on w, so by induction on |u|.
    * C1: a common multiple of two words has both as prefixes, so their
      ideals meet exactly when one is a prefix of the other, and the longer
      is then the right LCM, which ``FreeMonoid.right_lcm`` answers.
    """
    P = ZappaSzepProduct(data)
    if len(data.a_alphabet) > 1:
        a, b = data.a_alphabet[:2]
        raise LawViolation(f"C2 fails: ideals of {a!r} and {b!r} are incomparable")
    letters = set(data.u_alphabet)
    for a in data.a_alphabet:
        image = {P.act(a, c) for c in letters}
        if image != letters:
            raise LawViolation(
                f"C3 fails: action of {a!r} on length-1 words is not a "
                f"bijection ({sorted(letters - image)[0]!r} is not hit)"
            )
    return P


# ---------------------------------------------------------------------------
# relation generators for the hull

class HullRelation(NamedTuple):
    e: HullElement
    parts: frozenset[HullElement]


def gen_xa(P: ZappaSzepProduct, depth: int) -> frozenset[HullRelation]:
    """Pairs identifying [a,a] with [b,b] whenever b extends a inside the
    second factor, up to the grade bound, which cannot be negative.
    Raises ``BudgetExceeded`` before enumerating when ``xa_relation_count``
    is over ``XU_RELATION_BUDGET``, or ``xa_letter_count`` over
    ``XA_LETTER_BUDGET``."""
    _at_least("depth", depth, 0)
    k = len(P.data.a_alphabet)
    _refuse_over_budget(
        "xa relation generation", depth, lambda d: xa_relation_count(k, d), "relations", XU_RELATION_BUDGET,
    )
    _refuse_over_budget(
        "xa relation generation", depth, lambda d: xa_letter_count(k, d), "letters", XA_LETTER_BUDGET,
    )
    A = P.a_monoid
    words = A.elements_up_to(depth)
    idems = [HullElement(("", a), ("", a)) for a in words]
    singles = [frozenset((e,)) for e in idems]
    return frozenset(
        HullRelation(ea, one)
        for a, ea in zip(words, idems)
        for b, one in zip(words, singles)
        if A.left_divide(a, b) is not None
    )


# relations gen_xu or gen_xa may enumerate; gen_xu's 459,892 at depth 5
# took about 130 s
XU_RELATION_BUDGET = 100_000

# letters of the words a and b summed over the relations gen_xa emits; its
# 13,635,300 at depth 300 are written as about 30 MB of JSON in about 0.5 s
XA_LETTER_BUDGET = 20_000_000


def xa_relation_count(k: int, depth: int) -> int:
    """How many relations gen_xa enumerates over k A-letters: each of the
    k^j words of each length j extends its j + 1 prefixes."""
    return sum((j + 1) * k ** j for j in range(depth + 1))


def xa_letter_count(k: int, depth: int) -> int:
    """The letters of a and b summed over the relations gen_xa enumerates
    over k A-letters: a word b of length j and its prefixes of lengths
    0..j hold j(j+1) + j(j+1)/2 letters."""
    return sum(k ** j * 3 * j * (j + 1) // 2 for j in range(depth + 1))


def prefix_code_count(k: int, maxlen: int) -> int:
    """How many complete prefix codes over k letters have words up to the
    given length: c(0) = 1 and c(d) = 1 + c(d-1)^k (A003095 for k = 2)."""
    c = 1
    for _ in range(maxlen):
        c = 1 + c ** k
    return c


def xu_relation_count(k: int, depth: int) -> int:
    """How many relations gen_xu enumerates over k letters, whatever
    max_parts is: the k^ell words s of each length ell, times c(depth - ell)."""
    return sum(k ** ell * prefix_code_count(k, depth - ell) for ell in range(depth + 1))


def gen_xu(P: ZappaSzepProduct, depth: int, max_parts: int | None = None) -> frozenset[HullRelation]:
    """Covers of [s,s] by minimal families [s u_i, s u_i] inside the first factor.

    A family works exactly when the words u_i form a foundation set of the
    free factor; the minimal ones are the complete prefix codes.  Raises
    ``BudgetExceeded`` before enumerating when ``xu_relation_count`` is over
    ``XU_RELATION_BUDGET``, and ``LawViolation`` on a negative depth or on
    ``max_parts`` below 1, which no cover meets.

    One pass over the prefix tree, from the leaves up.  The complete prefix
    codes with words up to length m are C(0) = {{e}} and
    C(m) = {{e}} U {U_x x.c_x : c_x in C(m - 1) for each letter x}, since a
    code other than {e} splits by first letter into one code per letter.
    Rooted at s, with m = depth - |s|, the codes of s are {[s,s]} and the
    unions of one code of each child sx, whose words are all longer than
    s.  ``elements_up_to`` lists each word after all its prefixes, so
    walked in reverse each word comes after all its children, whose codes
    are then final; each idempotent [s,s] is made once.  The parts of the
    children are disjoint, so a union has as many parts as its members
    together, at least as many as any one of them: a code over
    ``max_parts`` at a child is in no code within it at the parent, and
    dropping it there leaves every node's codes exactly those it emits.
    """
    _at_least("depth", depth, 0)
    if max_parts is not None:
        _at_least("max_parts", max_parts, 1)
    alphabet = P.data.u_alphabet
    _refuse_over_budget(
        "xu relation generation", depth, lambda d: xu_relation_count(len(alphabet), d),
        "relations", XU_RELATION_BUDGET,
    )
    cap = inf if max_parts is None else max_parts
    codes, out = {}, []
    for s in reversed(P.u_monoid.elements_up_to(depth)):
        e = HullElement((s, ""), (s, ""))
        mine = codes[s] = [frozenset((e,))]
        if len(s) < depth:
            mine.extend(c for combo in iproduct(*(codes[s + x] for x in alphabet))
                        if len(c := frozenset().union(*combo)) <= cap)
        out.extend(HullRelation(e, c) for c in mine)
    return frozenset(out)


def hull_relations_to_json(P, relations) -> str:
    """The relations as JSON, in one order whatever order they come in: by
    formatted e, then number of parts, then sorted formatted parts.  Each
    distinct element is formatted once."""
    fmt = _Memo(lambda x: x.format(P))
    doc = [{"e": fmt[r.e], "parts": sorted(map(fmt.__getitem__, r.parts))} for r in relations]
    doc.sort(key=lambda d: (d["e"], len(d["parts"]), d["parts"]))
    return _json_text(doc)


# ---------------------------------------------------------------------------
# monoid lookup for the command line

def monoid_from_spec(spec: str):
    """Parse a monoid description: free:K, free:<letters>, nat:K, nx, adding,
    or zs:<path to a product JSON file>."""
    if spec.startswith("free:"):
        arg = spec[5:]
        if arg.isascii() and arg.isdigit():
            k = int(arg)
            if not 1 <= k <= 25:
                raise LawViolation(f"free rank {k} out of range 1..25")
            return FreeMonoid("abcdfghijklmnopqrstuvwxyz"[:k])  # e is the identity
        return FreeMonoid(arg)
    if spec.startswith("nat:"):
        return NatPow(_natural(spec[4:], "nat:K rank"))
    if spec == "nx":
        return NRtimesNx()
    if spec == "adding":
        return zappa_szep(adding_machine())
    if spec.startswith("zs:"):
        from pathlib import Path

        return zappa_szep(zappa_data_from_json(Path(spec[3:]).read_text()))
    raise LawViolation(f"unknown monoid spec {spec!r}")
