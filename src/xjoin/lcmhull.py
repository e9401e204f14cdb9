"""Right LCM monoids behind oracles, left inverse hull arithmetic, foundation
sets, Zappa-Szep products and the relation generators for their hulls.

Monoid elements are plain hashable Python values (strings for free monoids,
integer tuples otherwise).  Every right LCM oracle is exact, with no search
over multiples; the universally quantified checks are bounded by a grade
and say so in their verdicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product as iproduct
from math import gcd

from .semilattice import BudgetExceeded, LawViolation


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
    prefix sets."""

    def __init__(self, alphabet: str = "ab"):
        if len(set(alphabet)) != len(alphabet) or not alphabet:
            raise LawViolation(f"alphabet {alphabet!r} must be nonempty distinct letters")
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
        of the maximal member length extends some member."""
        F = sorted(set(F))
        top = max(len(f) for f in F)
        for w in iproduct(self.alphabet, repeat=top):
            word = "".join(w)
            if not any(word.startswith(f) for f in F):
                return FoundationVerdict("no", word, None)
        return FoundationVerdict("yes", None, None)

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
        out = []

        def rec(prefix, left):
            if len(prefix) == self.k:
                out.append(tuple(prefix))
                return
            for v in range(left + 1):
                rec(prefix + [v], left - v)

        rec([], depth)
        return sorted(out, key=lambda t: (sum(t), t))

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
        vals = tuple(int(v) for v in parts)
        if any(v < 0 for v in vals):
            raise LawViolation(f"coordinates must be nonnegative in {text!r}")
        return vals


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
        m, p = int(parts[0]), int(parts[1])
        if m < 0 or p < 1:
            raise LawViolation(f"offset must be >= 0 and step >= 1 in {text!r}")
        return (m, p)


# ---------------------------------------------------------------------------
# hull elements

@dataclass(frozen=True)
class HullElement:
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


def hull_element(P, p, q) -> HullElement:
    return HullElement(p, q)


def hull_identity(P) -> HullElement:
    return hull_element(P, P.identity, P.identity)


def hull_mul(P, x: HullElement, y: HullElement) -> HullElement:
    """[a,b][c,d] via the right LCM of b and c; zero when the ideals miss."""
    if x.is_zero or y.is_zero:
        return HULL_ZERO
    a, b = x.p, x.q
    c, d = y.p, y.q
    r = P.right_lcm(b, c)
    if r is None:
        return HULL_ZERO
    b1 = P.left_divide(b, r)
    c1 = P.left_divide(c, r)
    if b1 is None or c1 is None:
        raise LawViolation(
            f"oracle inconsistency: lcm {P.format(r)} not divisible by its arguments"
        )
    return HullElement(P.multiply(a, b1), P.multiply(d, c1))


def hull_inv(x: HullElement) -> HullElement:
    return HullElement(x.q, x.p)  # the zero (None, None) is its own inverse


def fragment_law_failure(P, depth: int) -> str | None:
    """The first failure of the inverse semigroup laws on a hull fragment,
    naming its witness, or None when the laws hold.

    The fragment is the zero and every [p,q] with p and q among
    ``P.elements_up_to(depth)``.  The check is exact over the same
    quantifiers as the definition, in the same order: (xy)z = x(yz) for all
    x, y, z in the fragment, then x x* x = x for all x, then ef = fe for the
    idempotents [p,p].  Products leave the fragment, so every element
    reached gets an int index; the row u*z over the fragment is built once
    per element u, and each pair (x, y) compares row(xy) with x times
    row(y).  The products x*v are memoised for the current x only, which
    keeps the memory at one row per element.
    """
    frag = P.elements_up_to(depth)
    els = [HULL_ZERO] + [HullElement(p, q) for p in frag for q in frag]
    reached = list(els)
    index = {u: i for i, u in enumerate(reached)}
    rows: dict[int, list[int]] = {}

    def intern(u: HullElement) -> int:
        i = index.get(u)
        if i is None:
            i = index[u] = len(reached)
            reached.append(u)
        return i

    def row(i: int) -> list[int]:
        r = rows.get(i)
        if r is None:
            u = reached[i]
            r = rows[i] = [intern(hull_mul(P, u, z)) for z in els]
        return r

    def failure(law: str, **named: int) -> str:
        where = " ".join(f"{k}={reached[i].format(P)}" for k, i in named.items())
        return f"{P!r}: {law} at {where}"

    for x, ux in enumerate(els):
        memo = dict(enumerate(row(x)))  # x*v for v in the fragment is row(x)[v]
        for y, xy in enumerate(row(x)):
            rhs = []
            for v in row(y):
                xv = memo.get(v)
                if xv is None:
                    xv = memo[v] = intern(hull_mul(P, ux, reached[v]))
                rhs.append(xv)
            lhs = row(xy)
            if lhs != rhs:
                z = next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                return failure("associativity fails", x=x, y=y, z=z)
    for x, ux in enumerate(els):
        if hull_mul(P, hull_mul(P, ux, hull_inv(ux)), ux) != ux:
            return failure("inverse law fails", x=x)
    idems = [1 + a * len(frag) + a for a in range(len(frag))]
    for e in idems:
        for f in idems:
            if row(e)[f] != row(f)[e]:
                return failure("idempotents do not commute", e=e, f=f)
    return None


def hull_idem_leq(P, p, q) -> bool:
    """[p,p] <= [q,q], i.e. the ideal of p sits inside the ideal of q."""
    return P.left_divide(q, p) is not None


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
    return hull_element(P, P.parse(parts[0]), P.parse(parts[1]))


# ---------------------------------------------------------------------------
# foundation sets

@dataclass(frozen=True)
class FoundationVerdict:
    kind: str                  # "yes" | "no" | "unknown"
    witness: object = None
    depth: int | None = None

    def __bool__(self) -> bool:
        return self.kind == "yes"


def is_foundation_set(P, F, depth: int = 4) -> FoundationVerdict:
    """Decide whether every principal right ideal meets one from the set.

    Exact for monoids exposing a decision rule (``P.foundation_verdict``,
    asked only about nonempty sets); elsewhere a bounded scan
    that can refute with a concrete witness but only answer Unknown
    positively.
    """
    F = list(F)
    if not F:
        return FoundationVerdict("no", P.identity, None)
    exact = P.foundation_verdict(F)
    if exact is not None:
        return exact
    for p in P.elements_up_to(depth):
        if all(P.right_lcm(f, p) is None for f in F):
            return FoundationVerdict("no", p, None)
    return FoundationVerdict("unknown", None, depth)


def lemma_found_check(P, F, depth: int = 4) -> bool:
    """Foundation decision against the cover condition in the hull.

    The cover side asks every bounded idempotent [p,p] to meet some [f,f]
    under the hull product; the two sides must agree wherever the
    foundation decision is exact.
    """
    F = list(F)
    verdict = is_foundation_set(P, F, depth)

    def covered(p) -> bool:
        e = hull_element(P, p, p)
        return any(not hull_mul(P, e, hull_element(P, f, f)).is_zero for f in F)

    if verdict.kind == "no":
        # the hull product must refute the cover at the same witness
        return verdict.witness is not None and not covered(verdict.witness)
    return all(covered(p) for p in P.elements_up_to(depth))


# ---------------------------------------------------------------------------
# Zappa-Szep products of free monoids

@dataclass(frozen=True)
class ZappaSzepData:
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
        act, res = [], []
        for a in a_alphabet:
            for u in u_alphabet:
                try:
                    av = action[a][u]
                    rv = restriction[a][u]
                except KeyError:
                    raise LawViolation(f"missing table entry for ({a!r},{u!r})") from None
                if av not in u_alphabet or len(av) != 1:
                    raise LawViolation(f"action of {a!r} on {u!r} must be a single letter")
                for ch in rv:
                    if ch not in a_alphabet:
                        raise LawViolation(f"restriction of {a!r} at {u!r} uses letter {ch!r}")
                act.append((a, u, av))
                res.append((a, u, rv))
        return cls(u_alphabet, a_alphabet, tuple(act), tuple(res))


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
        return ZappaSzepData.from_tables(
            doc["u_letters"], doc["a_letters"], doc["action"], doc["restriction"]
        )
    except (KeyError, TypeError):
        raise LawViolation(
            "product JSON needs 'u_letters', 'a_letters', 'action' and 'restriction'"
        ) from None


def zappa_data_to_json(data: ZappaSzepData) -> str:
    action: dict[str, dict[str, str]] = {}
    restriction: dict[str, dict[str, str]] = {}
    for a, u, v in data.act_letter:
        action.setdefault(a, {})[u] = v
    for a, u, w in data.res_letter:
        restriction.setdefault(a, {})[u] = w
    doc = {
        "u_letters": data.u_alphabet,
        "a_letters": data.a_alphabet,
        "action": action,
        "restriction": restriction,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


@dataclass(frozen=True)
class ZappaReport:
    depth: int
    checks: tuple[str, ...]


class ZappaSzepProduct:
    """Product on pairs (u, a) with multiplication through action and
    restriction; division and the right LCM invert the action letter by
    letter, with no search."""

    def __init__(self, data: ZappaSzepData):
        self.data = data
        self.u_monoid = FreeMonoid(data.u_alphabet)
        self.a_monoid = FreeMonoid(data.a_alphabet)
        self.identity = ("", "")
        self._act1 = {(a, u): v for a, u, v in data.act_letter}
        self._res1 = {(a, u): w for a, u, w in data.res_letter}
        self._act: dict[tuple[str, str], str] = {}
        self._res: dict[tuple[str, str], str] = {}
        self._act_inv: dict[tuple[str, str], str | None] = {}
        self.report: ZappaReport | None = None

    def __repr__(self):
        return f"ZappaSzepProduct({self.data.u_alphabet!r}, {self.data.a_alphabet!r})"

    # --- action and restriction, closed under the matched-pair laws --------

    def act(self, a: str, u: str) -> str:
        if not a or not u:
            return u
        key = (a, u)
        got = self._act.get(key)
        if got is not None:
            return got
        if len(a) > 1:
            got = self.act(a[0], self.act(a[1:], u))
        else:
            head = self._act1[(a, u[0])]
            got = head + self.act(self._res1[(a, u[0])], u[1:])
        self._act[key] = got
        return got

    def res(self, a: str, u: str) -> str:
        if not a or not u:
            return a
        key = (a, u)
        got = self._res.get(key)
        if got is not None:
            return got
        if len(a) > 1:
            got = self.res(a[0], self.act(a[1:], u)) + self.res(a[1:], u)
        else:
            got = self.res(self._res1[(a, u[0])], u[1:])
        self._res[key] = got
        return got

    # --- monoid interface ---------------------------------------------------

    def multiply(self, x, y):
        (u, a), (v, b) = x, y
        return (u + self.act(a, v), self.res(a, v) + b)

    def grade(self, x) -> int:
        return len(x[0]) + len(x[1])

    def elements_up_to(self, depth: int) -> list[tuple[str, str]]:
        us = self.u_monoid.elements_up_to(depth)
        out = []
        for u in us:
            for a in self.a_monoid.elements_up_to(depth - len(u)):
                out.append((u, a))
        return sorted(out, key=lambda x: (self.grade(x), x))

    def act_inverse(self, a: str, w: str) -> str | None:
        """The word v with act(a, v) = w, inverted letter by letter (the
        first letter of the alphabet that a sends to the next letter of w),
        or None when some letter has no preimage."""
        if not w:
            return w
        key = (a, w)
        got = self._act_inv.get(key, False)
        if got is not False:
            return got
        got = None
        c = next((c for c in self.data.u_alphabet if self.act(a, c) == w[0]), None)
        if c is not None:
            rest = self.act_inverse(self.res(a, c), w[1:])
            if rest is not None:
                got = c + rest
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
        u = self.u_monoid.parse(parts[0])
        a = self.a_monoid.parse(parts[1])
        return (u, a)


def _check_lcm_oracle(M, depth: int, cofactor_depth: int) -> None:
    """Right LCM answers against brute-force ideal intersections on a fragment."""
    frag = M.elements_up_to(depth)
    cof = M.elements_up_to(cofactor_depth)
    for p in frag:
        ideal_p = {M.multiply(p, z) for z in cof}
        for q in frag:
            inter = [t for t in ideal_p if M.left_divide(q, t) is not None]
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
                if M.left_divide(r, t) is None:
                    raise LawViolation(
                        f"lcm {M.format(r)} misses {M.format(t)} in the intersection of "
                        f"{M.format(p)} and {M.format(q)}"
                    )


def zappa_szep(data: ZappaSzepData, depth: int = 4) -> ZappaSzepProduct:
    """Build the product, validate the matched-pair laws and C1 on fragments
    to the given depth (at least 1, or the law loops check nothing), and C2
    and C3 on letters, which is what makes ``right_lcm`` exact."""
    if depth < 1:
        raise LawViolation(f"validation depth must be at least 1, got {depth}")
    P = ZappaSzepProduct(data)
    checks = []
    U, A = P.u_monoid, P.a_monoid
    a_frag = A.elements_up_to(depth)
    u_frag = U.elements_up_to(depth)

    for a in a_frag:
        for u in u_frag:
            for v in u_frag:
                if len(u) + len(v) > depth:
                    continue
                if P.act(a, u + v) != P.act(a, u) + P.act(P.res(a, u), v):
                    raise LawViolation(f"action law fails at ({a!r},{u!r},{v!r})")
                if P.res(a, u + v) != P.res(P.res(a, u), v):
                    raise LawViolation(f"restriction law fails at ({a!r},{u!r},{v!r})")
    for a in a_frag:
        for b in a_frag:
            if len(a) + len(b) > depth:
                continue
            for u in u_frag:
                if P.act(a + b, u) != P.act(a, P.act(b, u)):
                    raise LawViolation(f"composite action fails at ({a!r},{b!r},{u!r})")
                if P.res(a + b, u) != P.res(a, P.act(b, u)) + P.res(b, u):
                    raise LawViolation(f"composite restriction fails at ({a!r},{b!r},{u!r})")
    checks.append("matched-pair laws")

    _check_lcm_oracle(U, min(depth, 3), min(depth, 3))
    _check_lcm_oracle(A, min(depth, 3), min(depth, 3))
    checks.append("C1: factors are right LCM on fragments")

    # in a free monoid the ideals of two distinct letters are incomparable
    if len(data.a_alphabet) > 1:
        a, b = data.a_alphabet[:2]
        raise LawViolation(f"C2 fails: ideals of {a!r} and {b!r} are incomparable")
    checks.append("C2: ideals of the second factor form a chain")

    # a bijection on letters for every letter gives one on each length, by
    # act(a, cw) = act(a, c) act(res(a, c), w)
    letters = set(data.u_alphabet)
    for a in data.a_alphabet:
        image = {P.act(a, c) for c in letters}
        if image != letters:
            raise LawViolation(
                f"C3 fails: action of {a!r} on length-1 words is not a "
                f"bijection ({sorted(letters - image)[0]!r} is not hit)"
            )
    checks.append("C3: the action is bijective per length")

    P.report = ZappaReport(depth, tuple(checks))
    return P


# ---------------------------------------------------------------------------
# relation generators for the hull

@dataclass(frozen=True)
class HullRelation:
    e: HullElement
    parts: frozenset[HullElement]


def hull_relation_sort_key(P, rel: HullRelation):
    return (rel.e.format(P), len(rel.parts), sorted(p.format(P) for p in rel.parts))


def gen_xa(P: ZappaSzepProduct, depth: int) -> tuple[HullRelation, ...]:
    """Pairs identifying [a,a] with [b,b] whenever b extends a inside the
    second factor, up to the grade bound."""
    A = P.a_monoid
    out = []
    for a in A.elements_up_to(depth):
        ea = hull_element(P, ("", a), ("", a))
        for b in A.elements_up_to(depth):
            if A.left_divide(a, b) is not None:
                eb = hull_element(P, ("", b), ("", b))
                out.append(HullRelation(ea, frozenset((eb,))))
    return tuple(sorted(out, key=lambda r: hull_relation_sort_key(P, r)))


def prefix_codes(alphabet: str, maxlen: int) -> list[frozenset[str]]:
    """All finite complete prefix codes with words up to the given length."""
    if maxlen <= 0:
        return [frozenset(("",))]
    sub = prefix_codes(alphabet, maxlen - 1)
    out = [frozenset(("",))]
    for combo in iproduct(sub, repeat=len(alphabet)):
        out.append(
            frozenset(letter + w for letter, code in zip(alphabet, combo) for w in code)
        )
    return out


# relations gen_xu may enumerate; 459,892 at depth 5 took about 130 s
XU_RELATION_BUDGET = 100_000


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


def gen_xu(P: ZappaSzepProduct, depth: int, max_parts: int | None = None) -> tuple[HullRelation, ...]:
    """Covers of [s,s] by minimal families [s u_i, s u_i] inside the first factor.

    A family works exactly when the words u_i form a foundation set of the
    free factor; the minimal ones are the complete prefix codes.  Raises
    ``BudgetExceeded`` before enumerating when ``xu_relation_count`` is over
    ``XU_RELATION_BUDGET``.
    """
    k = len(P.data.u_alphabet)
    # the count grows doubly exponentially with the depth, so find the first
    # depth over budget before computing the count at a much deeper one
    over = next(
        (d for d in range(depth + 1) if xu_relation_count(k, d) > XU_RELATION_BUDGET), None
    )
    if over is not None:
        count = f"{xu_relation_count(k, over):,} relations"
        if over < depth:
            count = f"more than the {count} of depth {over}"
        raise BudgetExceeded(
            f"xu relation generation at depth {depth} would enumerate {count}, "
            f"over the budget of {XU_RELATION_BUDGET:,}"
        )
    U = P.u_monoid
    out = []
    for s in U.elements_up_to(depth):
        for code in prefix_codes(P.data.u_alphabet, depth - len(s)):
            if max_parts is not None and len(code) > max_parts:
                continue
            parts = frozenset(
                hull_element(P, (s + u, ""), (s + u, "")) for u in code
            )
            out.append(
                HullRelation(hull_element(P, (s, ""), (s, "")), parts)
            )
    return tuple(sorted(out, key=lambda r: hull_relation_sort_key(P, r)))


def hull_relations_to_json(P, relations) -> str:
    doc = [
        {"e": r.e.format(P), "parts": sorted(p.format(P) for p in r.parts)}
        for r in sorted(relations, key=lambda r: hull_relation_sort_key(P, r))
    ]
    return json.dumps(doc, indent=2, sort_keys=True)


def hull_relations_from_json(P, text: str) -> tuple[HullRelation, ...]:
    doc = json.loads(text)
    out = []
    for item in doc:
        e = parse_hull(P, item["e"])
        parts = frozenset(parse_hull(P, p) for p in item["parts"])
        out.append(HullRelation(e, parts))
    return tuple(sorted(out, key=lambda r: hull_relation_sort_key(P, r)))


# ---------------------------------------------------------------------------
# monoid lookup for the command line

def monoid_from_spec(spec: str):
    """Parse a monoid description: free:K, free:<letters>, nat:K, nx, adding,
    or zs:<path to a product JSON file>."""
    if spec.startswith("free:"):
        arg = spec[5:]
        if arg.isdigit():
            k = int(arg)
            if not 1 <= k <= 26:
                raise LawViolation(f"free rank {k} out of range 1..26")
            return FreeMonoid("abcdefghijklmnopqrstuvwxyz"[:k])
        return FreeMonoid(arg)
    if spec.startswith("nat:"):
        return NatPow(int(spec[4:]))
    if spec == "nx":
        return NRtimesNx()
    if spec == "adding":
        return zappa_szep(adding_machine())
    if spec.startswith("zs:"):
        from pathlib import Path

        return zappa_szep(zappa_data_from_json(Path(spec[3:]).read_text()))
    raise LawViolation(f"unknown monoid spec {spec!r}")
