"""The README's library example and command lines run and print what it says."""

import json
import re
import shlex
from pathlib import Path

import pytest

from so3five.cli import main, parse_recipe

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_its_comments(capsys):
    code = library_example()
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["1", "Yes Thm 1.4(b)"]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def section(title: str) -> str:
    return README.read_text().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def fenced_blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.DOTALL)


def command_lines() -> list[list[str]]:
    """Argument lists of the `so3five ...` lines in the Command line section."""
    out = []
    for block in fenced_blocks(section("Command line"), "sh"):
        for line in block.splitlines():
            words = shlex.split(line.split("#", 1)[0])
            if words[:1] == ["so3five"]:
                out.append(words[1:])
    return out


def test_every_command_line_exits_zero(capsys):
    commands = command_lines()
    assert len(commands) >= 9
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_typical_decision_output_is_what_the_command_prints(capsys):
    argv = ["decide", "irreducible-so3", "--catalog", "s3xs2"]
    assert argv in command_lines()
    text = section("Command line").split("Typical decision output:", 1)[1]
    expected = fenced_blocks(text, "")[0]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_recipe_example_parses():
    recipe = json.loads(fenced_blocks(section("Command line"), "json")[0])
    profile = parse_recipe(recipe)
    assert profile.name.startswith("S1-bundle")


def test_recipe_paragraph_names_only_constructions_the_cli_parses():
    text = section("Command line")
    paragraph = text[text.index("Recipes compose:"):].split("\n\n", 1)[0]
    fields = set()
    for group in re.findall(r"fields?\s((?:`\w+`(?:,\s)?)+)", paragraph):
        fields.update(re.findall(r"`(\w+)`", group))
    kinds = set(re.findall(r"`(\w+)`", paragraph)) - fields
    assert kinds == {"catalog", "connected_sum", "product_3x2", "circle_bundle", "hypersurface"}
    for kind in kinds:
        # a recipe kind the CLI knows fails only on its missing fields
        expected = "unknown construction" if re.search(
            rf"`{kind}`[^.]*base only", paragraph
        ) else "missing field"
        with pytest.raises(ValueError, match=expected):
            parse_recipe({"construction": kind})
