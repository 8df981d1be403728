"""The three benchmark workloads: seeded inputs, one op each, outputs and oracles.

Every workload is a class with the same small interface:

* ``generate(rng)`` builds the deck, the list of op inputs, from a seeded
  ``random.Random``.  Decks are laid out in rounds: each round holds one
  input from every stratum of the mix, shuffled within the round, so any
  prefix of the deck has nearly the mix of the whole.
* ``warmup(deck)`` picks a few cheap inputs that touch every code path.
* ``run(x)`` is the op, the only timed code.  It reaches the library
  through module attributes (``cli.parse_recipe``, ``dec.decide_...``) so
  that the traced run, which rebinds those names, sees every call.
* ``canonical(x, out)`` renders the op's output as a deterministic string
  for the output digest.
* ``check(x, out)`` is the oracle for one op: a list of violated laws,
  empty when the output is right.  ``keep(out)`` picks what deck-level
  checks need, and ``finish(deck, kept)`` runs those checks once the
  measured loop is over; ``kept`` maps deck positions to kept parts.

Oracles never run inside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import gcd

from so3five import charclass, cli, constructors, decide, fgab, topology


# ---------------------------------------------------------------------------
# small exact helpers shared by generators and oracles (library-independent)
# ---------------------------------------------------------------------------


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_chain(orders) -> list[int]:
    """Invariant factors of a direct sum of cyclic groups of the given orders
    (all >= 2), via prime-power components."""
    powers: dict[int, list[int]] = {}
    for d in orders:
        for p, e in _factor(d).items():
            powers.setdefault(p, []).append(p**e)
    for v in powers.values():
        v.sort(reverse=True)
    depth = max((len(v) for v in powers.values()), default=0)
    out = []
    for i in range(depth):
        f = 1
        for v in powers.values():
            if i < len(v):
                f *= v[i]
        out.append(f)
    return sorted(out)


def _group(free: int = 0, torsion=()) -> dict:
    return {"free": free, "torsion": list(torsion)}


def _bareiss(rows) -> tuple[int, int | None]:
    """Rank of an integer matrix and, when it is square of full rank, its
    determinant; fraction-free elimination with row pivoting."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank, prev, sign, r = 0, 1, 1, 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        rank += 1
    det = sign * prev if m == n and rank == n else None
    return rank, det


# Mersenne primes for modular determinants of large unimodular witnesses.
_PRIMES = (2**61 - 1, 2**89 - 1, 2**127 - 1)


def _det_mod(rows, p: int) -> int:
    a = [[x % p for x in r] for r in rows]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            if f:
                ai, ac = a[i], a[c]
                for j in range(c, n):
                    ai[j] = (ai[j] - f * ac[j]) % p
    return det % p


def _is_unimodular(rows) -> bool:
    """det = +1 or det = -1, the same sign modulo three large primes."""
    signs = set()
    for p in _PRIMES:
        d = _det_mod(rows, p)
        if d == 1:
            signs.add(1)
        elif d == p - 1:
            signs.add(-1)
        else:
            return False
    return len(signs) == 1


def _matvec(rows, v) -> list[int]:
    return [sum(a * b for a, b in zip(r, v)) for r in rows]


def _content(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def _charpoly(rows) -> list[Fraction]:
    """Characteristic polynomial coefficients c_n..c_0 of a small square
    matrix (Faddeev-LeVerrier, exact)."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    c = Fraction(1)
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += c
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
        m = am
    return coeffs


def _sign_changes(seq) -> int:
    signs = [x > 0 for x in seq if x != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def form_signature_det(q_rows) -> tuple[int, int]:
    """Signature and determinant of a symmetric block-diagonal integer form.

    Independent of the library's elimination: the form is split into the
    connected components of its nonzero pattern, and each component's
    signature is read off its characteristic polynomial by Descartes' rule
    of signs, which is exact for the real-rooted polynomials of symmetric
    matrices.
    """
    n = len(q_rows)
    nbrs = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(q_rows)]
    seen = [False] * n
    sig, det = 0, 1
    known: dict[tuple, tuple[int, int]] = {}
    for s in range(n):
        if seen[s]:
            continue
        comp, stack = [], [s]
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in nbrs[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comp.sort()
        block = tuple(tuple(q_rows[i][j] for j in comp) for i in comp)
        if block not in known:
            poly = _charpoly(block)
            k = len(poly) - 1
            positive = _sign_changes(poly)
            negative = _sign_changes([c * (-1) ** (k - i) for i, c in enumerate(poly)])
            known[block] = (positive - negative, int(poly[-1]) * (-1) ** k)
        block_sig, block_det = known[block]
        sig += block_sig
        det *= block_det
    return sig, det


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _round_robin(rng: random.Random, strata, rounds: int) -> list:
    """rounds x (one input per stratum), shuffled within each round."""
    deck = []
    for r in range(rounds):
        batch = [make(rng, r) for make in strata]
        rng.shuffle(batch)
        deck.extend(batch)
    return deck


# ---------------------------------------------------------------------------
# census: recipes evaluated the way the CLI does it
# ---------------------------------------------------------------------------


_RAW_TORSION = (2, 3, 4, 5, 6, 8, 9)
_CATALOG_KERVAIRE = {"s5": 1, "wu": 1, "s3xs2": 0, "s3~xs2": 0}
_THEOREMS = frozenset(
    {
        "Cor 1.5(a)/Thm 1.4(a)",
        "Thm 1.4(a)",
        "Cor 1.5(b)/Thm 1.4(b)",
        "Thm 1.4(b)",
        "Prop 2.4",
        "Remark 4.4",
        "Thm 1.3",
        "Cor 1.2",
        "Remark 1.9/Thm 1.3",
        "Thm 4.2",
    }
)


def _hypersurface_b2(d: int) -> int:
    return (6 - 4 * d + d * d) * d - 2


def _raw_simply_connected(rng: random.Random, _round: int = 0) -> dict:
    """Simply connected profiles with torsion in H_2, realizable ones only:
    H_2 = Z^b + T + T for spin (Smale), with an extra Z/2 allowed when not
    spin (Barden's classification)."""
    b2 = rng.randrange(6)
    t = [rng.choice(_RAW_TORSION) for _ in range(rng.randint(1, 2))]
    spin = rng.random() < 0.5
    extra = [] if spin or rng.random() < 0.5 else [2]
    if not spin and b2 == 0 and all(d % 2 for d in t):
        extra = [2]  # w2 needs H^2(M;Z2) != 0
    return {
        "name": "raw-sc",
        "homology": [
            _group(1), _group(), _group(b2, invariant_chain(t + t + extra)), _group(b2), _group(), _group(1)
        ],
        "spin": spin,
        "w4_zero": True,
        "p1": {"free": [], "torsion": []},
        "mod2_fragment": None,
    }


def _raw_torsion_h1(rng: random.Random, _round: int = 0) -> dict:
    """Profiles with torsion in H_1 = torsion of H_3; these reach the
    non-simply-connected theorems, Prop 2.4 and Remark 4.4.

    Spin profiles get H_2 torsion of the form T + T: by Lusztig-Milnor-
    Peterson the Kervaire and mod-2 semicharacteristics differ by
    w2 w3 [M], so on a spin manifold they agree, which needs an even count
    of even-order factors in H_2."""
    r = rng.randrange(2)
    t1 = invariant_chain([rng.choice((2, 3, 4, 5, 8)) for _ in range(rng.randint(1, 2))])
    b = rng.randrange(3)
    t = [rng.choice((2, 3, 4)) for _ in range(rng.randrange(2))]
    spin = rng.random() < 0.35
    t2 = invariant_chain(t + t if spin else t)
    h2_mod2 = b + sum(1 for d in t2 if d % 2 == 0) + sum(1 for d in t1 if d % 2 == 0)
    spin = spin or h2_mod2 == 0
    h4_mod2 = r + sum(1 for d in t1 if d % 2 == 0)
    w4_zero = spin or h4_mod2 == 0 or rng.random() < 0.6
    free = [5 * rng.randint(-3, 3) if rng.random() < 0.7 else rng.randint(-9, 9) for _ in range(r)]
    return {
        "name": "raw-torsion",
        "homology": [_group(1), _group(r, t1), _group(b, t2), _group(b, t1), _group(r), _group(1)],
        "spin": spin,
        "w4_zero": w4_zero,
        "p1": {"free": free, "torsion": [rng.randrange(d) for d in t1]},
        "mod2_fragment": None,
    }


def _product(rng: random.Random, _round: int = 0) -> dict:
    r = rng.randrange(3)
    tors = invariant_chain([rng.choice((2, 3, 4, 5, 9)) for _ in range(rng.randrange(3))])
    return {
        "construction": "product_3x2",
        "n3_homology": [_group(1), _group(r, tors), _group(r), _group(1)],
        "genus": rng.randrange(5),
    }


def _circle(rng: random.Random, _round: int = 0) -> dict:
    d = rng.choice((1, 2, 3, 3))
    if d == 1:
        c = [rng.randint(1, 6)]
    elif d == 2:
        c = [0, 0]
        while not any(c):
            c = [rng.randint(-6, 6) for _ in range(2)]
    elif rng.random() < 0.15:
        c = [3, -3, -3, 0, 0, 0, 0]
    else:
        g = rng.choice((1, 1, 2, 3, 4, 5, 6))
        v = [rng.randint(-1, 1) for _ in range(7)]
        v[rng.randrange(7)] = rng.choice((-1, 1))
        c = [g * x for x in v]
    return {
        "construction": "circle_bundle",
        "base": {"construction": "hypersurface", "degree": d},
        "euler_class": c,
    }


def _catalog(rng: random.Random, _round: int = 0) -> dict:
    return {"construction": "catalog", "name": rng.choice(sorted(_CATALOG_KERVAIRE))}


_PART_MAKERS = (_raw_simply_connected, _raw_torsion_h1, _catalog, _product, _circle)


def _connected_sum(rng: random.Random, _round: int = 0) -> dict:
    parts = [rng.choice(_PART_MAKERS)(rng) for _ in range(rng.randint(2, 7))]
    return {"construction": "connected_sum", "parts": parts}


def kervaire_of_recipe(recipe: dict) -> int:
    """Kervaire semicharacteristic (b0 + b2 + b4) mod 2 from the recipe alone."""
    kind = recipe.get("construction")
    if kind is None:
        h = recipe["homology"]
        return (h[0]["free"] + h[2]["free"] + h[4]["free"]) % 2
    if kind == "catalog":
        return _CATALOG_KERVAIRE[recipe["name"]]
    if kind == "product_3x2":
        # b2 = 2 r g + r + 1 and b4 = 2 g + r for N x Sigma_g with b1(N) = r
        return 0
    if kind == "circle_bundle":
        # b2 = b2(base) - 1 and b4 = 0 by the Gysin sequence
        return _hypersurface_b2(recipe["base"]["degree"]) % 2
    parts = recipe["parts"]
    return (sum(kervaire_of_recipe(p) for p in parts) + len(parts) - 1) % 2


class Census:
    name = "census"
    rounds = 125

    def generate(self, rng: random.Random) -> list:
        strata = (
            _raw_simply_connected,
            _raw_simply_connected,
            _raw_torsion_h1,
            _product,
            _connected_sum,
            _connected_sum,
            _circle,
            _catalog,
        )
        return _round_robin(rng, strata, self.rounds)

    def warmup(self, deck: list) -> list:
        return deck[:16]

    def run(self, recipe: dict) -> dict:
        profile = cli.parse_recipe(recipe)
        topology.require_valid(profile)
        report = {
            "profile": topology.profile_to_dict(profile),
            "semicharacteristic": topology.semicharacteristic(profile),
            "kervaire_semicharacteristic": topology.kervaire_semicharacteristic(profile),
            "cohomology": {
                ring.value: [str(topology.cohomology(profile, i, ring)) for i in range(6)]
                for ring in topology.CoefficientRing
            },
        }
        out = {
            "profile": profile,
            "report": report,
            "irreducible": decide.decide_irreducible_so3(profile),
            "atiyah": decide.decide_two_field(profile, "atiyah"),
            "thomas": decide.decide_two_field(profile, "thomas") if profile.spin else None,
            "standard": decide.decide_standard_so3(profile),
        }
        frag = profile.mod2_fragment
        if frag is not None:
            tangent = charclass.tangent_bundle_classes(profile)
            out["tangent"] = tangent
            out["rank5"] = decide.rank5_relation_holds(profile, tangent)
            out["obstruction"] = charclass.obstruction_report(tangent)
            p_class = fgab.solve_divisibility(profile.p1, 5)
            if profile.w4_is_zero and p_class is not None:
                w2 = frag.w2_class
                out["rank3"] = decide.rank3_bundle_exists(profile, w2, p_class)
                eta = charclass.Bundle3Data(
                    base=profile, w2_zero=not any(w2), p1=p_class, w2_class=w2
                )
                out["sym0"] = charclass.sym0_classes(eta)
        return out

    def canonical(self, recipe: dict, out: dict) -> str:
        doc = {"report": out["report"]}
        for key in ("irreducible", "atiyah", "thomas", "standard", "rank3"):
            if out.get(key) is not None:
                doc[key] = out[key].to_dict()
        for key in ("tangent", "obstruction", "sym0"):
            if key in out:
                doc[key] = out[key].to_dict()
        if "rank5" in out:
            doc["rank5"] = out["rank5"]
        return _dump(doc)

    def check(self, recipe: dict, out: dict) -> list[str]:
        bad = []
        profile = out["profile"]
        irreducible = out["irreducible"].verdict
        h = profile.homology
        if h[1].is_trivial():
            if profile.spin:
                dim2 = h[2].free_rank + sum(1 for d in h[2].torsion if d % 2 == 0)
                want = decide.Verdict.YES if dim2 % 2 else decide.Verdict.NO
            else:
                want = decide.Verdict.YES
            if irreducible is not want:
                bad.append("parity law")
        if out["standard"].verdict is not out["atiyah"].verdict:
            bad.append("standard verdict differs from the atiyah verdict")
        if not all(
            line.satisfied
            for line in out["standard"].trace
            if line.condition.startswith("Cor 1.6 cross-check")
        ):
            bad.append("Cor 1.6 cross-check")
        if "tangent" in out and out["rank5"] is not True:
            bad.append("rank-5 relation fails for the tangent bundle")
        if "rank3" in out:
            if out["rank3"].verdict is not decide.Verdict.YES:
                bad.append("rank-3 reconstruction verdict")
            if out["sym0"] != out["tangent"]:
                bad.append("sym0_classes does not give back the tangent record")
        kind = recipe.get("construction")
        if kind == "connected_sum":
            if out["report"]["kervaire_semicharacteristic"] != kervaire_of_recipe(recipe):
                bad.append("Kervaire sum formula")
        if kind == "product_3x2" and irreducible is not decide.Verdict.YES:
            bad.append("product_3x2 verdict is not Yes")
        return bad

    def finish(self, deck: list, kept: dict) -> list[str]:
        seen = frozenset().union(*kept.values())
        missing = sorted(_THEOREMS - seen)
        return [f"theorem tags never reached: {missing}"] if missing else []

    def keep(self, out: dict) -> frozenset:
        """The theorem tags of the op's verdicts."""
        keys = ("irreducible", "atiyah", "thomas", "standard", "rank3")
        return frozenset(out[k].theorem for k in keys if out.get(k) is not None)


# ---------------------------------------------------------------------------
# bases: hypersurface form checks and Euler-class searches
# ---------------------------------------------------------------------------


_CUBIC_U = (3, -1, -1, -1, -1, -1, -1)
_CUBIC_PAPER_C = (3, -3, -3, 0, 0, 0, 0)


def _diagonal_base(rng: random.Random, b2: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) for _ in range(b2))


def _diagonal_hit(rng: random.Random, _round: int = 0) -> tuple:
    """Target 1 on a random diagonal base: a hit, found early."""
    b2 = rng.randint(2, 5)
    u = [0] * b2
    while not any(u):
        u = [rng.randint(-3, 3) for _ in range(b2)]
    return ("euler", _diagonal_base(rng, b2), tuple(u), 1, rng.randint(2, 3))


def _diagonal_miss(rng: random.Random, _round: int = 0) -> tuple:
    """An even target on a rank-5 diagonal base with u = (+-1, +-3, +-1, +-1,
    +-1): a miss that scans the whole box.  An even content needs w = u
    mod 2, and then Q(u, w) = sum of u_i^2 = 1 mod 2 != 0.  Flipping signs
    permutes the box, so every such task costs the same."""
    u = tuple(rng.choice((1, -1)) * a for a in (1, 3, 1, 1, 1))
    return ("euler", _diagonal_base(rng, 5), u, rng.choice((2, 4, 6)), 3)


def _hyp(d: int):
    return lambda rng, r: ("hyp", d)


def _cubic(target: int, bound: int):
    return lambda rng, r: ("euler", None, _CUBIC_U, target, bound)


class Bases:
    name = "bases"
    rounds = 1

    def generate(self, rng: random.Random) -> list:
        # No op lasts much over 0.2 s, so that every deck position runs
        # dozens of times in a measured run: hypersurface(10) (1 s) and a
        # cubic miss at bound 3 (0.5 s) spread too widely from run to run
        # on a shared host.
        strata = [_hyp(d) for d in range(4, 10)]
        strata += [
            _cubic(1, 2),
            _cubic(1, 3),
            _cubic(3, 2),
            _cubic(3, 3),
            _cubic(5, 2),  # misses: no w in the box reaches content 5 or 7
            _cubic(7, 2),
        ]
        strata += [_diagonal_hit] * 5 + [_diagonal_miss] * 10
        return _round_robin(rng, strata, self.rounds)

    def warmup(self, deck: list) -> list:
        cheap = [x for x in deck if x == ("hyp", 4)][:1]
        cheap += [x for x in deck if x[0] == "euler" and x[3] == 1 and x[4] == 2][:2]
        return cheap

    @staticmethod
    def _base(x: tuple):
        diag = x[1]
        if diag is None:
            return constructors.hypersurface(3)
        b2, sig = len(diag), sum(diag)
        return constructors.FourManifoldProfile(
            b2=b2,
            Q=fgab.IntegerMatrix.diagonal(diag),
            w2_vector=(1,) * b2,
            euler_char=b2 + 2,
            p1_eval=3 * sig,
            signature=sig,
        )

    def run(self, x: tuple) -> dict:
        if x[0] == "hyp":
            return {"form": constructors.hypersurface(x[1])}
        _, _, u, t, bound = x
        base = self._base(x)
        found = constructors.find_euler_class(base, u, t, bound)
        out = {"base": base, "found": found}
        if found is not None:
            total = constructors.circle_bundle(constructors.CircleBundleSpec(base, found[0]))
            out["total"] = total
            out["decision"] = decide.decide_irreducible_so3(total)
        return out

    def canonical(self, x: tuple, out: dict) -> str:
        if x[0] == "hyp":
            f = out["form"]
            return _dump(
                {
                    "b2": f.b2,
                    "signature": f.signature,
                    "euler": f.euler_char,
                    "p1": f.p1_eval,
                    "w2": list(f.w2_vector),
                    "Q": _sha(repr(f.Q.entries)),
                }
            )
        doc = {"found": out["found"]}
        if "total" in out:
            doc["total"] = topology.profile_to_dict(out["total"])
            doc["decision"] = out["decision"].to_dict()
        return _dump(doc)

    def check(self, x: tuple, out: dict) -> list[str]:
        if x[0] == "hyp":
            return self._check_hypersurface(x[1], out["form"])
        return self._check_search(x, out)

    @staticmethod
    def _check_hypersurface(d: int, f) -> list[str]:
        bad = []
        b2 = _hypersurface_b2(d)
        want_sig = (4 - d * d) * d // 3
        q = f.Q.entries
        sig, det = form_signature_det(q)
        if (f.b2, len(q)) != (b2, b2):
            bad.append("b2")
        if sig != want_sig or f.signature != want_sig:
            bad.append(f"signature: counted {sig}, reported {f.signature}, expected {want_sig}")
        if abs(det) != 1:
            bad.append("form is not unimodular")
        if any(q[i][j] != q[j][i] for i in range(len(q)) for j in range(i)):
            bad.append("form is not symmetric")
        if f.p1_eval != 3 * want_sig or f.euler_char != b2 + 2:
            bad.append("p1 or Euler characteristic")
        if f.spin != (d % 2 == 0):
            bad.append("spin iff d even")
        w = f.w2_vector
        qw = _matvec(q, w)
        if any((qw[i] - q[i][i]) % 2 for i in range(len(q))):
            bad.append("w2 is not characteristic")
        return bad

    def _check_search(self, x: tuple, out: dict) -> list[str]:
        _, diag, u, t, bound = x
        q = out["base"].Q.entries
        first = _first_euler_hit(q, u, t, bound)
        bad = []
        found = out["found"]
        if found is None:
            if first is not None:
                bad.append(f"search missed {first}")
            return bad
        c, w = found
        if any(abs(a) > bound for a in w) or tuple(w) == tuple(u):
            bad.append("w outside the box or equal to u")
        if sum(a * b for a, b in zip(_matvec(q, u), w)) != 0:
            bad.append("Q(u, w) != 0")
        if tuple(c) != tuple(a + b for a, b in zip(u, w)):
            bad.append("c != u + w")
        if _content(_matvec(q, c)) != t:
            bad.append("content(Q c) != target")
        if first is not None and tuple(first) != tuple(w):
            bad.append(f"not the lexicographically first hit {first}")
        if diag is None and t == 3:
            if tuple(c) != _CUBIC_PAPER_C:
                bad.append("cubic Euler class is not (3, -3, -3, 0, 0, 0, 0)")
            if (out["decision"].verdict, out["decision"].theorem) != (
                decide.Verdict.YES,
                "Thm 1.4(b)",
            ):
                bad.append("cubic bundle verdict")
        total = out["total"]
        if topology.cohomology(total, 4) != fgab.FgAbGroup(0, (t,) if t > 1 else ()):
            bad.append("H^4 of the total space")
        return bad

    def finish(self, deck: list, kept: dict) -> list[str]:
        return []

    def keep(self, out: dict) -> dict:
        return {}


def _first_euler_hit(q, u, t: int, bound: int):
    """Lexicographically first w in the box with Q(u, w) = 0, w != u and
    content(Q (u + w)) = t, or None; None is also returned for t < 2 when
    the box is too large to scan (the hit is then checked by its laws).

    For t >= 2 every hit has u + w = 0 mod t, so each coordinate of w
    runs only through the residue class of -u_i mod t."""
    n = len(u)
    box = range(-bound, bound + 1)
    if t >= 2:
        choices = [[a for a in box if (a + ui) % t == 0] for ui in u]
    elif (2 * bound + 1) ** n <= 5000:
        choices = [list(box)] * n
    else:
        return None
    phi = _matvec(q, u)
    for w in product(*choices):
        if w == tuple(u) or sum(a * b for a, b in zip(phi, w)):
            continue
        if _content(_matvec(q, [a + b for a, b in zip(u, w)])) == t:
            return w
    return None


# ---------------------------------------------------------------------------
# presentations: cokernels and Smith normal forms of integer matrices
# ---------------------------------------------------------------------------


# matrix size of each of the 20 slots of a round
_SIZES = (2, 3, 4, 5, 6, 7, 8, 3, 5, 7, 10, 12, 14, 16, 18, 20, 15, 24, 30, 36)


_ENTRIES = range(-20, 21)


def _dense(rng: random.Random, rows: int, cols: int) -> tuple:
    return tuple(tuple(rng.choices(_ENTRIES, k=cols)) for _ in range(rows))


def _two(rng: random.Random, n: int) -> tuple[int, int]:
    i = rng.randrange(n)
    return i, (i + 1 + rng.randrange(n - 1)) % n


def _disguised(rng: random.Random, rows: int, cols: int) -> tuple[tuple, tuple]:
    """P * diag(d) * Q with random unimodular P, Q; returns (matrix, known
    invariant factors >= 2 and free rank of the cokernel)."""
    k = min(rows, cols)
    rank = k - (1 if rng.random() < 0.25 else 0)
    factors = []
    f = 1
    for _ in range(rng.randint(1, min(4, rank))):
        f *= rng.choice((2, 3, 4, 5, 6, 7, 9, 10, 12))
        factors.append(f)
    diag = [1] * (rank - len(factors)) + factors + [0] * (k - rank)
    a = [[diag[i] if i == j and i < k else 0 for j in range(cols)] for i in range(rows)]
    for _ in range(2 * rows):
        i, j = _two(rng, rows)
        q = rng.choice((-2, -1, 1, 2))
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
    for _ in range(2 * cols):
        i, j = _two(rng, cols)
        q = rng.choice((-2, -1, 1, 2))
        for row in a:
            row[i] += q * row[j]
    rng.shuffle(a)
    known = (rows - rank, tuple(d for d in factors if d >= 2))
    return tuple(tuple(r) for r in a), known


_MODES = ("inv", "snf", "inv", "proj")


def _matrix_task(slot: int):
    """Slot ``slot`` of a round: its size is fixed and odd slots are
    rectangular (two more rows or columns).  With v = slot + round, the op
    is ``_MODES[v % 4]`` and the matrix is dense when (v // 4) is odd and
    a disguised diagonal when it is even, so any eight rounds give every
    slot each (op, matrix kind) pair once."""
    n = _SIZES[slot]

    def make(rng: random.Random, r: int) -> tuple:
        rows, cols = n, n
        if slot % 2:
            rows, cols = (n + 2, n) if rng.random() < 0.5 else (n, n + 2)
        v = slot + r
        mode = _MODES[v % 4]
        if (v // 4) % 2:
            a, known = _dense(rng, rows, cols), None
        else:
            a, known = _disguised(rng, rows, cols)
        vectors = tuple(tuple(rng.choices(_ENTRIES, k=rows)) for _ in range(3)) if mode == "proj" else ()
        return (mode, a, known, vectors)

    return make


class Presentations:
    name = "presentations"
    # The seed draws the entries, so the ops near the 90th percentile cost
    # more under some seeds than others; over ten seeds the quartiles of
    # p90 lay 8-12% apart with 8 rounds and 4% with 24.
    rounds = 24

    def generate(self, rng: random.Random) -> list:
        return _round_robin(rng, [_matrix_task(i) for i in range(len(_SIZES))], self.rounds)

    def warmup(self, deck: list) -> list:
        small = [x for x in deck if len(x[1]) <= 8]
        return [next(x for x in small if x[0] == mode) for mode in ("inv", "snf", "proj")]

    def run(self, x: tuple):
        mode, rows, _known, vectors = x
        a = fgab.IntegerMatrix.from_rows(rows)
        if mode == "inv":
            return fgab.cokernel(a)
        if mode == "snf":
            return fgab.smith_normal_form(a)
        group, project = fgab.cokernel_with_projection(a)
        return group, project, [project(v) for v in vectors]

    def canonical(self, x: tuple, out) -> str:
        mode = x[0]
        if mode == "inv":
            return _dump([out.free_rank, list(out.torsion)])
        if mode == "snf":
            return _dump([out.U.entries, out.D.entries, out.V.entries])
        group, _, images = out
        return _dump([[group.free_rank, list(group.torsion)], [[e.free, e.torsion] for e in images]])

    def check(self, x: tuple, out) -> list[str]:
        mode, rows, known, vectors = x
        if mode == "snf":
            return _check_snf(rows, out, known)
        group = out if mode == "inv" else out[0]
        bad = _check_group(rows, group, known)
        if mode == "proj":
            _, project, images = out
            cols = len(rows[0])
            for j in range(cols):
                if not project([r[j] for r in rows]).is_zero():
                    bad.append("a column of A does not project to 0")
                    break
            total = project([a + b for a, b in zip(vectors[0], vectors[1])])
            if total != images[0] + images[1]:
                bad.append("projection is not additive")
        return bad

    def finish(self, deck: list, kept: dict) -> list[str]:
        """Invariants-only results against sympy's Smith normal form."""
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import smith_normal_form

        sample = sympy_sample(deck, kept)
        if not sample:
            return ["no invariants-only dense result to compare with sympy"]
        bad = []
        for rows, group in sample:
            d = smith_normal_form(Matrix(rows), domain=ZZ)
            diag = [abs(int(d[i, i])) for i in range(min(d.shape))]
            nonzero = [v for v in diag if v]
            want = (len(rows) - len(nonzero), tuple(sorted(v for v in nonzero if v > 1)))
            if (group.free_rank, group.torsion) != want:
                bad.append(f"cokernel {group} differs from sympy {want}")
        return bad

    def keep(self, out):
        return out if isinstance(out, fgab.FgAbGroup) else None


def sympy_sample(deck: list, kept: dict) -> list:
    """(matrix, cokernel) of up to 40 kept invariants-only results on dense
    matrices of at most 12 rows and columns; larger ones take sympy seconds
    each."""
    sample = []
    for i, group in sorted(kept.items()):
        _, rows, known, _ = deck[i]
        if group is not None and known is None and max(len(rows), len(rows[0])) <= 12:
            sample.append((rows, group))
    return sample[:40]


def _check_group(rows, group, known) -> list[str]:
    if known is not None:
        return [] if (group.free_rank, group.torsion) == known else [f"cokernel {group} != {known}"]
    m = len(rows)
    rank, det = _bareiss(rows)
    bad = []
    if group.free_rank != m - rank or len(group.torsion) > rank:
        bad.append("free rank of the cokernel")
    g = _content(x for r in rows for x in r)
    if g > 1 and (len(group.torsion) != rank or group.torsion[0] != g):
        bad.append("first invariant factor != gcd of the entries")
    if det is not None:
        prod = 1
        for d in group.torsion:
            prod *= d
        if prod != abs(det):
            bad.append("product of invariant factors != |det A|")
    return bad


def _check_snf(rows, snf, known) -> list[str]:
    """U A V = D (two exact random products), D a diagonal divisibility
    chain, U and V unimodular."""
    bad = []
    m, n = len(rows), len(rows[0])
    d = snf.D.entries
    diag = [d[i][i] for i in range(min(m, n))]
    if any(d[i][j] for i in range(m) for j in range(n) if i != j) or any(v < 0 for v in diag):
        bad.append("D is not a nonnegative diagonal")
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a and b % a):
            bad.append("diagonal is not a divisibility chain")
            break
    rng = random.Random(m * 1000 + n)
    for _ in range(2):
        x = [rng.randint(-(2**20), 2**20) for _ in range(n)]
        lhs = _matvec(snf.U.entries, _matvec(rows, _matvec(snf.V.entries, x)))
        if lhs != _matvec(d, x):
            bad.append("U A V != D")
            break
    if not (_is_unimodular(snf.U.entries) and _is_unimodular(snf.V.entries)):
        bad.append("U or V is not unimodular")
    if known is not None:
        nonzero = [v for v in diag if v]
        if (m - len(nonzero), tuple(v for v in nonzero if v > 1)) != known:
            bad.append("diagonal differs from the known invariant factors")
    return bad


WORKLOADS = {w.name: w for w in (Census(), Bases(), Presentations())}
