"""Command-line front end.

Subcommands: ``invariants`` (homology table, semi-characteristics and
cohomology of a profile), ``decide`` (the decision procedures with
their traces), ``bundle rank3`` (existence of a rank-3 bundle with
prescribed classes), ``catalog`` (the built-in profiles), and
``reproduce`` (golden pipelines checked against stored expectations).

Profiles come either from ``--catalog NAME`` or from a JSON file
holding a recipe (see :func:`parse_recipe`) or a raw profile object.
Exit codes: 0 when a verdict or report was produced (including No and
Unknown verdicts), 1 for usage, parse or applicability errors, 2 for
profiles rejected by the validator.  Output is deterministic; ``--json``
emits machine-readable reports with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from operator import mul
from pathlib import Path

from .constructors import (
    DEFAULT_SEARCH_BOUND,
    CircleBundleSpec,
    FourManifoldProfile,
    catalog,
    catalog_names,
    circle_bundle,
    connected_sum,
    find_euler_class,
    hyperplane_class,
    hypersurface,
    product_3x2,
)
from .decide import (
    Decision,
    decide_irreducible_so3,
    decide_standard_so3,
    decide_two_field,
    rank3_bundle_exists,
)
from .fgab import FgAbGroup, has_element_of_order, vector_content
from .topology import (
    CoefficientRing,
    ManifoldProfile,
    ProfileValidationError,
    cohomology,
    group_from_dict,
    json_int,
    kervaire_semicharacteristic,
    profile_from_dict,
    profile_to_dict,
    semicharacteristic,
)


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


# ---------------------------------------------------------------------------
# recipe parsing
# ---------------------------------------------------------------------------


def _parse_hypersurface_base(data: object) -> FourManifoldProfile:
    if not isinstance(data, dict) or data.get("construction") != "hypersurface":
        raise ValueError('circle_bundle base must be {"construction": "hypersurface", "degree": d}')
    return hypersurface(json_int(data["degree"], "degree"))


def parse_recipe(data: object) -> ManifoldProfile:
    """Evaluate a recipe JSON object into a validated profile.

    A recipe is a JSON object with a "construction" field naming one of
    catalog, connected_sum, product_3x2 or circle_bundle; parts of a
    connected sum are themselves recipes.  An object without a
    "construction" field is read as a raw serialized profile.
    """
    if not isinstance(data, dict):
        raise ValueError("recipe must be a JSON object")
    if "construction" not in data:
        return profile_from_dict(data)
    kind = data["construction"]
    try:
        if kind == "catalog":
            return catalog(str(data["name"]))
        if kind == "connected_sum":
            parts = data["parts"]
            if not isinstance(parts, list) or len(parts) < 2:
                raise ValueError("connected_sum needs a list of at least two parts")
            return connected_sum(*map(parse_recipe, parts))
        if kind == "product_3x2":
            groups = tuple(group_from_dict(g) for g in data["n3_homology"])
            return product_3x2(groups, json_int(data["genus"], "genus"))
        if kind == "circle_bundle":
            base = _parse_hypersurface_base(data["base"])
            euler = tuple(json_int(x, "euler_class entry") for x in data["euler_class"])
            return circle_bundle(CircleBundleSpec(base, euler))
    except KeyError as exc:
        raise ValueError(f"recipe for {kind!r} is missing field {exc}") from exc
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed recipe for {kind!r}: {exc}") from exc
    raise ValueError(f"unknown construction {kind!r}")


def _load_profile(args: argparse.Namespace) -> ManifoldProfile:
    if args.catalog is not None and args.file is not None:
        raise ValueError("provide either a file or --catalog, not both")
    if args.catalog is not None:
        return catalog(args.catalog)
    if args.file is None:
        raise ValueError("provide a profile file or --catalog NAME")
    try:
        return parse_recipe(json.loads(Path(args.file).read_text()))
    except RecursionError:
        raise ValueError(f"{args.file}: input is nested too deeply to read") from None


# a decimal integer literal as int() reads it (\d is any Unicode decimal digit)
_INTEGER_FIELD = re.compile(r"[+-]?\d+(?:_\d+)*")


def _parse_int_csv(text: str, flag: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty argument is the empty vector,
    and an empty or non-integer field in a nonempty one is refused.  An
    integer field past the interpreter's limit on the digits int() reads
    is refused as too long, echoing only its first digits."""
    if not text.strip():
        return ()
    items = [tok.strip() for tok in text.split(",")]
    if "" in items:
        raise ValueError(f"{flag} has an empty field: {text!r}")
    out = []
    for tok in items:
        try:
            out.append(int(tok))
        except ValueError:
            if _INTEGER_FIELD.fullmatch(tok) is None:
                raise ValueError(f"{flag} has a non-integer field: {text!r}") from None
            digits = sum(c.isdecimal() for c in tok)
            raise ValueError(
                f"{flag} has a field of {digits} digits, too many to read as an integer: "
                f"{tok[:10]!r}..."
            ) from None
    return tuple(out)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _print_profile_report(profile: ManifoldProfile, as_json: bool) -> None:
    chi = semicharacteristic(profile)
    k = kervaire_semicharacteristic(profile)
    coh = {
        ring.value: [str(cohomology(profile, i, ring)) for i in range(6)]
        for ring in CoefficientRing
    }
    if as_json:
        payload = {
            "profile": profile_to_dict(profile),
            "semicharacteristic": chi,
            "kervaire_semicharacteristic": k,
            "cohomology": coh,
        }
        print(json.dumps(payload, sort_keys=True))
        return
    print(f"profile: {profile.name}")
    for i, group in enumerate(profile.homology):
        print(f"  H_{i} = {group}")
    print(f"spin (w2 = 0): {'true' if profile.spin else 'false'}")
    print(f"w4 = 0: {'true' if profile.w4_is_zero else 'false'}")
    print(f"p1 = {profile.p1} in H^4(M;Z) = {profile.p1.group}")
    print(f"semicharacteristic chi-hat(M) mod 2: {chi}")
    print(f"Kervaire semicharacteristic k(M) mod 2: {k}")
    print("cohomology:")
    for ring in CoefficientRing:
        row = ", ".join(f"H^{i}={name}" for i, name in enumerate(coh[ring.value]))
        print(f"  {ring.value}: {row}")
    if profile.mod2_fragment is not None:
        print(f"mod-2 fragment: dim H^2(M;Z_2) = {profile.mod2_fragment.h2_dim}")
    else:
        print("mod-2 fragment: absent")


def _print_decision(decision: Decision, as_json: bool) -> None:
    if as_json:
        print(json.dumps(decision.to_dict(), sort_keys=True))
        return
    print(f"verdict: {decision.verdict.value}")
    print(f"theorem: {decision.theorem}")
    print("trace:")
    for line in decision.trace:
        mark = "ok" if line.satisfied else "!!"
        print(f"  [{mark}] {line.condition}: {line.value}")


def _run_checks(title: str, checks: list[tuple[str, object, object]], as_json: bool) -> int:
    ok_all = all(got == expected for _, got, expected in checks)
    if as_json:
        payload = {
            "suite": title,
            "ok": ok_all,
            "checks": [
                {"name": name, "got": str(got), "expected": str(expected), "ok": got == expected}
                for name, got, expected in checks
            ],
        }
        print(json.dumps(payload, sort_keys=True))
        return 0 if ok_all else 1
    for name, got, expected in checks:
        if got == expected:
            print(f"[ok] {name}: {got}")
        else:
            print(f"[FAIL] {name}: expected {expected}, got {got}")
    print(f"{title}: {'ok' if ok_all else 'FAIL'}")
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------
# reproduction suites
# ---------------------------------------------------------------------------


_PROP17_C_LAWS = "c = u + w with Q(u, w) = 0, content(c) = 3, w in the box and w != u"


def _prop17_checks() -> list[tuple[str, object, object]]:
    base, u = hypersurface(3), hyperplane_class(3)
    checks: list[tuple[str, object, object]] = [
        ("hypersurface(3) b2", base.b2, 7),
        ("hypersurface(3) euler characteristic", base.euler_char, 9),
        ("hypersurface(3) signature", base.signature, -5),
        ("hypersurface(3) p1 evaluation", base.p1_eval, -15),
        ("hypersurface(3) spin", base.spin, False),
    ]
    found = find_euler_class(base, u, 3, DEFAULT_SEARCH_BOUND)
    checks.append(("euler-class search succeeded", found is not None, True))
    if found is None:
        return checks
    c, w = found
    # c is checked against the laws the search promises, not pinned
    # coordinates; the lines below check the bundle it gives.
    lawful = (
        c == tuple(a + b for a, b in zip(u, w))
        and sum(map(mul, base.Q.apply(u), w)) == 0
        and vector_content(c) == 3
        and max(map(abs, w)) <= DEFAULT_SEARCH_BOUND
        and w != u
    )
    checks.append(("euler class c", c, c if lawful else _PROP17_C_LAWS))
    total = circle_bundle(CircleBundleSpec(base, c))
    h4 = total.p1.group
    decision = decide_irreducible_so3(total)
    checks.extend(
        [
            ("total space spin", total.spin, False),
            ("w4(M) = 0", total.w4_is_zero, True),
            ("H^4(M;Z)", str(h4), "Z/3"),
            ("p1(M) = 0", total.p1.is_zero(), True),
            ("H^4(M;Z) has an order-4 element", has_element_of_order(h4, 4), False),
            ("semicharacteristic chi-hat(M)", semicharacteristic(total), 1),
            ("Kervaire semicharacteristic k(M)", kervaire_semicharacteristic(total), 1),
            ("irreducible verdict", decision.verdict.value, "Yes"),
            ("irreducible theorem", decision.theorem, "Thm 1.4(b)"),
        ]
    )
    return checks


_S3 = (FgAbGroup(1), FgAbGroup.trivial(), FgAbGroup.trivial(), FgAbGroup(1))
_T3 = (FgAbGroup(1), FgAbGroup(3), FgAbGroup(3), FgAbGroup(1))
_RP3 = (FgAbGroup(1), FgAbGroup(0, (2,)), FgAbGroup.trivial(), FgAbGroup(1))


def _sec5_checks() -> list[tuple[str, object, object]]:
    checks: list[tuple[str, object, object]] = []

    wu = catalog("wu")
    wu_irr = decide_irreducible_so3(wu)
    wu_two = decide_two_field(wu, "atiyah")
    checks.extend(
        [
            ("wu irreducible verdict", wu_irr.verdict.value, "Yes"),
            ("wu irreducible theorem", wu_irr.theorem, "Cor 1.5(b)/Thm 1.4(b)"),
            ("wu two-field verdict", wu_two.verdict.value, "No"),
            ("wu k(M)", kervaire_semicharacteristic(wu), 1),
            ("wu chi-hat(M)", semicharacteristic(wu), 0),
        ]
    )

    checks.extend(_prop17_checks())

    products = [
        ("S3 x S2", product_3x2(_S3, 0)),
        ("S3 x T2", product_3x2(_S3, 1)),
        ("S3 x Sigma_2", product_3x2(_S3, 2)),
        ("T3 x T2", product_3x2(_T3, 1)),
        ("RP3-homology x Sigma_2", product_3x2(_RP3, 2)),
    ]
    for label, profile in products:
        checks.append((f"{label} chi-hat", semicharacteristic(profile), 0))
        checks.append(
            (f"{label} verdict", decide_irreducible_so3(profile).verdict.value, "Yes")
        )
    triple = connected_sum(products[0][1], products[1][1], products[3][1])
    checks.append(
        ("triple product sum verdict", decide_irreducible_so3(triple).verdict.value, "Yes")
    )

    trivial_bundle = catalog("s3xs2")
    twisted_bundle = catalog("s3~xs2")
    d_trivial = decide_irreducible_so3(trivial_bundle)
    d_twisted = decide_irreducible_so3(twisted_bundle)
    checks.extend(
        [
            ("s3xs2 irreducible verdict", d_trivial.verdict.value, "Yes"),
            ("s3xs2 theorem", d_trivial.theorem, "Cor 1.5(a)/Thm 1.4(a)"),
            ("s3~xs2 irreducible verdict", d_twisted.verdict.value, "Yes"),
            ("s3~xs2 theorem", d_twisted.theorem, "Cor 1.5(b)/Thm 1.4(b)"),
        ]
    )

    pair = connected_sum(trivial_bundle, trivial_bundle)
    triple_sum = connected_sum(trivial_bundle, trivial_bundle, trivial_bundle)
    checks.extend(
        [
            ("pair sum k(M)", kervaire_semicharacteristic(pair), 1),
            ("pair sum two-field verdict", decide_two_field(pair).verdict.value, "No"),
            ("triple sum k(M)", kervaire_semicharacteristic(triple_sum), 0),
            (
                "triple sum two-field verdict",
                decide_two_field(triple_sum).verdict.value,
                "Yes",
            ),
            (
                "triple sum irreducible verdict",
                decide_irreducible_so3(triple_sum).verdict.value,
                "Yes",
            ),
        ]
    )
    return checks


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _cmd_invariants(args: argparse.Namespace) -> int:
    _print_profile_report(_load_profile(args), args.json)
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    profile = _load_profile(args)
    if args.kind == "irreducible-so3":
        decision = decide_irreducible_so3(profile)
    elif args.kind == "two-field":
        decision = decide_two_field(profile, args.criterion)
    else:
        decision = decide_standard_so3(profile)
    _print_decision(decision, args.json)
    return 0


def _cmd_bundle(args: argparse.Namespace) -> int:
    profile = _load_profile(args)
    fragment = profile.mod2_fragment
    if args.w2 is None:
        w2 = (0,) * (fragment.h2_dim if fragment is not None else 0)
    else:
        w2 = _parse_int_csv(args.w2, "--w2")
    h4 = profile.p1.group
    if args.p1 is None:
        p1 = h4.zero()
    else:
        coords = _parse_int_csv(args.p1, "--p1")
        need = h4.free_rank + len(h4.torsion)
        if len(coords) != need:
            raise ValueError(
                f"p1 needs {need} coordinates for H^4(M;Z) = {h4} (free then torsion)"
            )
        p1 = h4.element(coords[: h4.free_rank], coords[h4.free_rank :])
    decision = rank3_bundle_exists(profile, w2, p1)
    _print_decision(decision, args.json)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        if args.json:
            print(json.dumps({"catalog": list(catalog_names())}, sort_keys=True))
        else:
            for name in catalog_names():
                print(name)
        return 0
    profile = catalog(args.name)
    if args.json:
        print(json.dumps(profile_to_dict(profile), sort_keys=True))
    else:
        _print_profile_report(profile, as_json=False)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    if args.target == "prop1.7":
        return _run_checks("reproduce prop1.7", _prop17_checks(), args.json)
    return _run_checks("reproduce sec5", _sec5_checks(), args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="so3five",
        description="Invariant profiles and structure decisions for closed oriented 5-manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_profile_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", nargs="?", help="profile or recipe JSON file")
        p.add_argument("--catalog", metavar="NAME", help="built-in profile instead of a file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    inv = sub.add_parser("invariants", help="homology, semi-characteristics, cohomology")
    add_profile_source(inv)

    dec = sub.add_parser("decide", help="run a decision procedure")
    dec.add_argument("kind", choices=["irreducible-so3", "two-field", "standard-so3"])
    add_profile_source(dec)
    dec.add_argument(
        "--criterion",
        choices=["atiyah", "thomas"],
        default="atiyah",
        help="two-field criterion (thomas needs a spin profile)",
    )

    bun = sub.add_parser("bundle", help="bundle-existence checks")
    bun.add_argument("kind", choices=["rank3"])
    add_profile_source(bun)
    bun.add_argument("--w2", help="0/1 coordinates of W in the fragment basis, comma-separated")
    bun.add_argument("--p1", help="coordinates of P in H^4(M;Z), free then torsion, comma-separated")

    cat = sub.add_parser("catalog", help="built-in profiles")
    catsub = cat.add_subparsers(dest="action", required=True)
    cat_list = catsub.add_parser("list")
    cat_list.add_argument("--json", action="store_true")
    cat_show = catsub.add_parser("show")
    cat_show.add_argument("name")
    cat_show.add_argument("--json", action="store_true")

    rep = sub.add_parser("reproduce", help="golden reproduction suites")
    rep.add_argument("target", choices=["prop1.7", "sec5"])
    rep.add_argument("--json", action="store_true")
    return parser


_HANDLERS = {
    "invariants": _cmd_invariants,
    "decide": _cmd_decide,
    "bundle": _cmd_bundle,
    "catalog": _cmd_catalog,
    "reproduce": _cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ProfileValidationError as exc:
        print("invalid profile:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
