"""Command-line interface: exit codes, output shapes, recipes."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from so3five import cli
from so3five.cli import main, parse_recipe
from so3five.constructors import CircleBundleSpec, catalog, circle_bundle, hypersurface
from so3five.topology import profile_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """The CLI as a fresh process, capped at 10 s and 2 GB of address space."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-m", "so3five.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=cap_memory,
    )
    return result.returncode, result.stdout, result.stderr


class TestExitCodes:
    def test_verdict_no_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "decide", "irreducible-so3", "--catalog", "s5")
        assert code == 0
        assert "verdict: No" in out

    def test_obstructed_verdict_exits_zero(self, capsys, tmp_path):
        recipe = {
            "construction": "circle_bundle",
            "base": {"construction": "hypersurface", "degree": 1},
            "euler_class": [4],
        }
        f = tmp_path / "m.json"
        f.write_text(json.dumps(recipe))
        code, out, _ = run(capsys, "decide", "irreducible-so3", str(f))
        assert code == 0
        assert "verdict: No" in out  # Prop 2.4 rejection

    def test_verdict_unknown_exits_zero(self, capsys, tmp_path):
        profile = {
            "name": "bare",
            "homology": [
                {"free": 1, "torsion": []},
                {"free": 0, "torsion": [4]},
                {"free": 1, "torsion": []},
                {"free": 1, "torsion": [4]},
                {"free": 0, "torsion": []},
                {"free": 1, "torsion": []},
            ],
            "spin": False,
            "w4_zero": True,
            "p1": {"free": [], "torsion": [0]},
            "mod2_fragment": None,
        }
        f = tmp_path / "bare.json"
        f.write_text(json.dumps(profile))
        code, out, _ = run(capsys, "decide", "irreducible-so3", str(f))
        assert code == 0
        assert "verdict: Unknown" in out
        assert "Remark 4.4" in out

    def test_inapplicable_criterion_exits_one(self, capsys):
        code, _, err = run(
            capsys, "decide", "two-field", "--catalog", "wu", "--criterion", "thomas"
        )
        assert code == 1
        assert "criterion inapplicable" in err

    def test_invalid_profile_exits_two(self, capsys, tmp_path):
        bad = {
            "name": "bad",
            "homology": [
                {"free": 1, "torsion": []},
                {"free": 0, "torsion": []},
                {"free": 0, "torsion": []},
                {"free": 0, "torsion": []},
                {"free": 0, "torsion": [3]},
                {"free": 1, "torsion": []},
            ],
            "spin": True,
            "w4_zero": True,
            "p1": {"free": [], "torsion": []},
            "mod2_fragment": None,
        }
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(bad))
        code, _, err = run(capsys, "invariants", str(f))
        assert code == 2
        assert "H4 must be torsion-free" in err

    def test_non_spin_profile_without_mod2_h2_exits_two(self, capsys, tmp_path):
        # S^5's homology with the spin flag cleared: w2 has nowhere to live
        data = profile_to_dict(catalog("s5"))
        data["spin"] = False
        data["mod2_fragment"] = None
        f = tmp_path / "nonspin-s5.json"
        f.write_text(json.dumps(data))
        code, out, err = run(capsys, "decide", "irreducible-so3", str(f))
        assert code == 2
        assert out == ""
        assert "w2 lives in H^2(M;Z2) = 0, so the spin flag must be set" in err

    def test_spin_profile_with_odd_even_torsion_count_exits_two(self, capsys, tmp_path):
        # spin with H_2 = Z/2: chi-hat = 0 but k = 1, against the spin parity law
        data = {
            "homology": [
                {"free": 1}, {"free": 0}, {"free": 0, "torsion": [2]},
                {"free": 0}, {"free": 0}, {"free": 1},
            ],
            "spin": True,
            "w4_zero": True,
        }
        f = tmp_path / "odd-spin.json"
        f.write_text(json.dumps(data))
        code, out, err = run(capsys, "decide", "standard-so3", str(f))
        assert code == 2
        assert out == ""
        assert "even number of even torsion coefficients in H2" in err
        assert "Lusztig-Milnor-Peterson" in err

    def test_w4_flag_against_w2_squared_exits_two(self, capsys, tmp_path):
        # w4 claimed nonzero while the fragment gives w2 cup w2 = 0
        data = {
            "homology": [
                {"free": 1}, {"free": 1, "torsion": [2]}, {"free": 0},
                {"free": 0, "torsion": [2]}, {"free": 1}, {"free": 1},
            ],
            "spin": False,
            "w4_zero": False,
            "p1": {"free": [0], "torsion": [0]},
            "mod2_fragment": {
                "h2_dim": 1, "cup22": [[[0, 0]]], "psquare": [[0, 0]], "w2_class": [1],
            },
        }
        f = tmp_path / "wu-violation.json"
        f.write_text(json.dumps(data))
        code, out, err = run(capsys, "decide", "irreducible-so3", str(f))
        assert code == 2
        assert out == ""
        assert "w4 must equal w2 cup w2 (Wu formula)" in err

    def test_malformed_json_exits_one(self, capsys, tmp_path):
        f = tmp_path / "mal.json"
        f.write_text("{broken")
        code, _, err = run(capsys, "invariants", str(f))
        assert code == 1
        assert "error:" in err

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "invariants", str(tmp_path / "absent.json"))
        assert code == 1

    def test_unknown_catalog_exits_one(self, capsys):
        code, _, err = run(capsys, "invariants", "--catalog", "nope")
        assert code == 1
        assert "unknown catalog name" in err

    def test_no_source_exits_one(self, capsys):
        code, _, err = run(capsys, "invariants")
        assert code == 1
        assert "--catalog" in err

    def test_both_sources_exit_one(self, capsys, tmp_path):
        f = tmp_path / "p.json"
        f.write_text("{}")
        code, _, err = run(capsys, "invariants", str(f), "--catalog", "s5")
        assert code == 1

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["decide", "wrongkind", "--catalog", "s5"])
        assert exc_info.value.code == 1

    def test_no_arguments_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 1


class TestInvariantsOutput:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "invariants", "--catalog", "wu")
        assert code == 0
        assert "H_2 = Z/2" in out
        assert "spin (w2 = 0): false" in out
        assert "semicharacteristic chi-hat(M) mod 2: 0" in out
        assert "Kervaire semicharacteristic k(M) mod 2: 1" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "invariants", "--catalog", "wu", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["semicharacteristic"] == 0
        assert payload["kervaire_semicharacteristic"] == 1
        assert payload["profile"]["name"] == "SU(3)/SO(3)"
        assert payload["cohomology"]["Z"][3] == "Z/2"
        assert len(payload["cohomology"]) == 6

    def test_json_deterministic(self, capsys):
        _, first, _ = run(capsys, "invariants", "--catalog", "s3xs2", "--json")
        _, second, _ = run(capsys, "invariants", "--catalog", "s3xs2", "--json")
        assert first == second


class TestDecideOutput:
    def test_trace_lines_marked(self, capsys):
        code, out, _ = run(capsys, "decide", "irreducible-so3", "--catalog", "s5")
        assert code == 0
        assert "theorem: Cor 1.5(a)/Thm 1.4(a)" in out
        assert "[ok]" in out and "[!!]" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "decide", "irreducible-so3", "--catalog", "wu", "--json"
        )
        payload = json.loads(out)
        assert payload["verdict"] == "Yes"
        assert payload["theorem"] == "Cor 1.5(b)/Thm 1.4(b)"
        assert all(set(line) == {"condition", "value", "ok"} for line in payload["trace"])

    def test_standard_so3(self, capsys):
        code, out, _ = run(capsys, "decide", "standard-so3", "--catalog", "s3xs2")
        assert code == 0
        assert "Remark 1.9/Thm 1.3" in out


class TestBundleCommand:
    def test_rank3_defaults(self, capsys):
        code, out, _ = run(capsys, "bundle", "rank3", "--catalog", "wu", "--w2", "1")
        assert code == 0
        assert "verdict: Yes" in out
        assert "Thm 4.2" in out

    def test_rank3_explicit_classes(self, capsys, tmp_path):
        recipe = {
            "construction": "circle_bundle",
            "base": {"construction": "hypersurface", "degree": 1},
            "euler_class": [4],
        }
        f = tmp_path / "lens.json"
        f.write_text(json.dumps(recipe))
        code, out, _ = run(capsys, "bundle", "rank3", str(f), "--w2", "1", "--p1", "3")
        assert code == 0
        assert "verdict: No" in out
        code, out, _ = run(capsys, "bundle", "rank3", str(f), "--w2", "1", "--p1", "1")
        assert code == 0
        assert "verdict: Yes" in out

    def test_rank3_wrong_arity_exits_one(self, capsys):
        code, _, err = run(
            capsys, "bundle", "rank3", "--catalog", "wu", "--w2", "1", "--p1", "1,2"
        )
        assert code == 1
        assert "coordinates" in err

    def test_rank3_without_fragment_exits_one(self, capsys, tmp_path):
        profile = profile_to_dict(catalog("wu"))
        profile["mod2_fragment"] = None
        f = tmp_path / "bare.json"
        f.write_text(json.dumps(profile))
        code, _, err = run(capsys, "bundle", "rank3", str(f))
        assert code == 1
        assert "fragment" in err


    def test_empty_w2_field_exits_one(self, capsys):
        code, out, err = run(capsys, "bundle", "rank3", "--catalog", "s3xs2", "--w2", "1,,")
        assert code == 1 and out == ""
        assert err == "error: --w2 has an empty field: '1,,'\n"
        # a wholly empty argument is the empty vector: dim H^2(S^5;Z2) = 0
        code, out, _ = run(capsys, "bundle", "rank3", "--catalog", "s5", "--w2", "")
        assert code == 0 and "verdict: Yes" in out

    def test_empty_p1_field_exits_one(self, capsys):
        code, out, err = run(capsys, "bundle", "rank3", "--catalog", "wu", "--p1", ",,")
        assert code == 1 and out == ""
        assert err == "error: --p1 has an empty field: ',,'\n"
        code, out, _ = run(capsys, "bundle", "rank3", "--catalog", "wu", "--p1", "")
        assert code == 0 and "verdict: Yes" in out

    def test_non_integer_p1_field_exits_one(self, capsys):
        code, out, err = run(capsys, "bundle", "rank3", "--catalog", "wu", "--p1", "1.5")
        assert code == 1 and out == ""
        assert err == "error: --p1 has a non-integer field: '1.5'\n"

    def test_p1_field_past_the_digit_limit_exits_one(self, capsys):
        # int() refuses a decimal string of more than 4300 digits; the field
        # is an integer, so it is called too long and only its start is echoed
        code, out, err = run(capsys, "bundle", "rank3", "--catalog", "wu", "--p1", "1" * 5000)
        assert code == 1 and out == ""
        assert err == (
            "error: --p1 has a field of 5000 digits, too many to read as an integer: "
            "'1111111111'...\n"
        )
        code, _, err = run(capsys, "bundle", "rank3", "--catalog", "wu", "--p1", "-" + "2" * 5000)
        assert code == 1 and err.startswith("error: --p1 has a field of 5000 digits") and len(err) < 100


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert out.split() == ["s3xs2", "s3~xs2", "s5", "wu"]

    def test_list_json(self, capsys):
        code, out, _ = run(capsys, "catalog", "list", "--json")
        assert json.loads(out) == {"catalog": ["s3xs2", "s3~xs2", "s5", "wu"]}

    def test_show_emits_parseable_profile(self, capsys, tmp_path):
        code, out, _ = run(capsys, "catalog", "show", "wu", "--json")
        assert code == 0
        parsed = parse_recipe(json.loads(out))
        assert parsed == catalog("wu")

    def test_show_unknown_exits_one(self, capsys):
        code, _, err = run(capsys, "catalog", "show", "nothere")
        assert code == 1


class TestRecipes:
    def test_nested_connected_sum(self, capsys, tmp_path):
        product_part = {
            "construction": "product_3x2",
            "n3_homology": [
                {"free": 1, "torsion": []},
                {"free": 0, "torsion": [2]},
                {"free": 0, "torsion": []},
                {"free": 1, "torsion": []},
            ],
            "genus": 1,
        }
        pair = {
            "construction": "connected_sum",
            "parts": [{"construction": "catalog", "name": "s3xs2"}, product_part],
        }
        f = tmp_path / "sum.json"
        f.write_text(json.dumps(pair))
        code, out, _ = run(capsys, "decide", "irreducible-so3", str(f), "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "No"  # two summands flip the parity
        triple = {
            "construction": "connected_sum",
            "parts": pair["parts"] + [{"construction": "catalog", "name": "s3xs2"}],
        }
        f.write_text(json.dumps(triple))
        code, out, _ = run(capsys, "decide", "irreducible-so3", str(f), "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "Yes"

    def test_raw_profile_round_trip(self):
        lens = circle_bundle(CircleBundleSpec(hypersurface(1), (4,)))
        assert parse_recipe(profile_to_dict(lens)) == lens

    def test_single_part_sum_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            parse_recipe(
                {
                    "construction": "connected_sum",
                    "parts": [{"construction": "catalog", "name": "s5"}],
                }
            )

    def test_unknown_construction(self):
        with pytest.raises(ValueError, match="unknown construction"):
            parse_recipe({"construction": "mystery"})

    def test_missing_field_reported(self):
        with pytest.raises(ValueError, match="missing field"):
            parse_recipe({"construction": "circle_bundle", "euler_class": [1]})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_recipe([1, 2, 3])

    def test_invalid_raw_profile_fails_validation(self, capsys, tmp_path):
        profile = profile_to_dict(catalog("s5"))
        profile["homology"][4] = {"free": 0, "torsion": [2]}
        f = tmp_path / "broken.json"
        f.write_text(json.dumps(profile))
        code, _, err = run(capsys, "decide", "irreducible-so3", str(f))
        assert code == 2


def _bundle_recipe(degree, euler_class):
    return {
        "construction": "circle_bundle",
        "base": {"construction": "hypersurface", "degree": degree},
        "euler_class": euler_class,
    }


def _product_recipe(torsion, genus):
    return {
        "construction": "product_3x2",
        "n3_homology": [
            {"free": 1, "torsion": []},
            {"free": 0, "torsion": torsion},
            {"free": 0, "torsion": []},
            {"free": 1, "torsion": []},
        ],
        "genus": genus,
    }


def _s5_raw(**changes):
    return {**profile_to_dict(catalog("s5")), **changes}


def _raw_profile(name, h1_torsion=(), b2=0):
    """A spin raw profile with torsion H_1, b_2 = b_3 = b2 and p1 = 0."""
    z, zero = {"free": 1, "torsion": []}, {"free": 0, "torsion": []}
    torsion = {"free": 0, "torsion": list(h1_torsion)}
    return {
        "name": name,
        "homology": [z, torsion, {"free": b2, "torsion": []},
                     {"free": b2, "torsion": list(h1_torsion)}, zero, z],
        "spin": True,
        "w4_zero": True,
        "p1": {"free": [], "torsion": [0] * len(h1_torsion)},
    }


class TestStrictJsonTypes:
    """Numbers must be JSON integers, flags JSON booleans and lists lists:
    anything else exits 1 instead of being truncated, coerced or raised."""

    @pytest.mark.parametrize(
        "data, message",
        [
            (_bundle_recipe(3.9, [3, -3, -3, 0, 0, 0, 0]), "degree must be an integer, got 3.9"),
            (_bundle_recipe(3, [3.7, -3, -3, 0, 0, 0, 0]), "euler_class entry must be an integer, got 3.7"),
            (_bundle_recipe(3, 5), "malformed recipe for 'circle_bundle': 'int' object is not iterable"),
            (_product_recipe([2.5], 1), "torsion coefficient must be an integer, got 2.5"),
            (_product_recipe([2], True), "genus must be an integer, got True"),
            (_s5_raw(spin="false"), "spin must be true or false, got 'false'"),
            (_s5_raw(w4_zero=1), "w4_zero must be true or false, got 1"),
            (
                _s5_raw(p1={"free": [], "torsion": [False]}),
                "p1 coordinate must be an integer, got False",
            ),
            (_s5_raw(p1=None), "malformed profile data: p1 must be an object, got None"),
            (_s5_raw(p1=5), "malformed profile data: p1 must be an object, got 5"),
            (_s5_raw(p1=[1]), "malformed profile data: p1 must be an object, got [1]"),
        ],
    )
    def test_wrong_json_type_exits_one(self, capsys, tmp_path, data, message):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(data))
        code, out, err = run(capsys, "invariants", str(f))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


class TestOversizedInputs:
    """Inputs too large to evaluate fail fast with exit 1, not a hang."""

    def test_hypersurface_degree_above_range(self, tmp_path):
        recipe = {
            "construction": "circle_bundle",
            "base": {"construction": "hypersurface", "degree": 300},
            "euler_class": [1],
        }
        f = tmp_path / "m.json"
        f.write_text(json.dumps(recipe))
        code, out, err = run_process("decide", "irreducible-so3", str(f))
        assert code == 1 and out == ""
        assert err == "error: hypersurface degree 300 is too large: the supported range is 1..12\n"

    def test_connected_sum_with_unfactorable_torsion(self, tmp_path):
        big = 2**61 - 1  # prime, far past the trial-division limit
        torsion = {"free": 0, "torsion": [big]}
        raw = {
            "name": "big",
            "homology": [{"free": 1, "torsion": []}, torsion, {"free": 0, "torsion": []},
                         torsion, {"free": 0, "torsion": []}, {"free": 1, "torsion": []}],
            "spin": True,
            "w4_zero": True,
            "p1": {"free": [], "torsion": [0]},
        }
        recipe = {"construction": "connected_sum",
                  "parts": [raw, {"construction": "catalog", "name": "s5"}]}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(recipe))
        code, out, err = run_process("decide", "irreducible-so3", str(f))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot factor the torsion coefficient {big}")
        assert "Traceback" not in err

    def test_product_genus_above_range(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(_product_recipe([2], 10**8)))
        code, out, err = run_process("decide", "irreducible-so3", str(f))
        assert code == 1 and out == ""
        assert err == "error: genus 100000000 is too large: the supported range is 0..100\n"

    def test_sum_of_parts_with_large_prime_torsion(self, tmp_path):
        # each H_1 factors by trial division, but the product of two of
        # them, 4000064000087, would not: the sum must merge all parts at once
        parts = [_raw_profile(f"L{p}", [p]) for p in (2000003, 2000029, 2000039)]
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"construction": "connected_sum", "parts": parts}))
        code, out, err = run_process("decide", "irreducible-so3", str(f))
        assert code == 0 and err == ""
        assert out.startswith("verdict: ")

    def test_invariants_of_a_large_free_rank(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(_raw_profile("big b2", b2=100000)))
        code, out, err = run_process("invariants", str(f))
        assert code == 0 and err == ""
        z2 = " + ".join(["Z/2"] * 100000)
        assert f"  Z2: H^0=Z/2, H^1=0, H^2={z2}, H^3={z2}, H^4=0, H^5=Z/2\n" in out

    def test_invariants_of_a_large_two_torsion(self, tmp_path):
        # (Z/2)^5000 is a divisibility chain: canonicalising it is linear
        f = tmp_path / "m.json"
        f.write_text(json.dumps(_raw_profile("big H1", h1_torsion=[2] * 5000)))
        code, out, err = run_process("invariants", str(f))
        assert code == 0 and err == ""
        z2 = " + ".join(["Z/2"] * 5000)
        assert f"  Z: H^0=Z, H^1=0, H^2={z2}, H^3=0, H^4={z2}, H^5=Z\n" in out
        assert f"  Z2: H^0=Z/2, H^1={z2}, H^2={z2}, H^3={z2}, H^4={z2}, H^5=Z/2\n" in out

    def test_deeply_nested_json_is_refused(self, tmp_path):
        s5 = '{"construction": "catalog", "name": "s5"}'
        brackets = tmp_path / "brackets.json"
        brackets.write_text("[" * 2000)
        sums = tmp_path / "sums.json"
        sums.write_text(
            '{"construction": "connected_sum", "parts": [' * 1500
            + s5
            + f", {s5}]}}" * 1500
        )
        for f in (brackets, sums):
            code, out, err = run_process("invariants", str(f))
            assert code == 1 and out == ""
            assert err == f"error: {f}: input is nested too deeply to read\n"


class TestReproduce:
    def test_prop17(self, capsys):
        code, out, _ = run(capsys, "reproduce", "prop1.7")
        assert code == 0
        assert "[ok] euler class c: (3, -3, -3, 0, 0, 0, 0)" in out
        assert "reproduce prop1.7: ok" in out
        assert "[FAIL]" not in out

    def test_sec5(self, capsys):
        code, out, _ = run(capsys, "reproduce", "sec5")
        assert code == 0
        assert "reproduce sec5: ok" in out
        assert "[FAIL]" not in out

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "reproduce", "prop1.7", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["suite"] == "reproduce prop1.7"
        assert all(c["ok"] for c in payload["checks"])

    def test_search_bound_env_is_ignored(self, capsys, monkeypatch):
        # the search box is fixed at [-3, 3]^7; the environment cannot change it
        code, expected, _ = run(capsys, "reproduce", "prop1.7")
        monkeypatch.setenv("SO3FIVE_SEARCH_BOUND", "0")
        assert run(capsys, "reproduce", "prop1.7") == (code, expected, "")

    @pytest.mark.parametrize(
        "found",
        [
            ((0, -3, -3, 0, 3, 3, 3), (0, -2, -2, 1, 1, 1, 1)),  # c != u + w
            ((3, 0, 0, 0, 0, 0, 0), (0, 1, 1, 1, 1, 1, 1)),  # Q(u, w) = 6
            ((4, -1, -1, -1, -1, -1, -4), (1, 0, 0, 0, 0, 0, -3)),  # content 1
            ((0, -3, -3, 0, 3, 3, 3), (-3, -2, -2, 1, 4, 4, 4)),  # w outside the box
        ],
    )
    def test_prop17_rejects_a_class_breaking_the_laws(self, capsys, monkeypatch, found):
        monkeypatch.setattr(cli, "find_euler_class", lambda *args: found)
        code, out, _ = run(capsys, "reproduce", "prop1.7")
        assert code == 1
        assert "[FAIL] euler class c: expected c = u + w with Q(u, w) = 0" in out
