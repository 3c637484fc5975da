"""Every code name README.md gives in backticks resolves in the package: each
`module.name` of a tabrep module, and each `Class.name` of the classes it
documents. A name the code no longer has fails here, so the README cannot
keep describing a function that was deleted or renamed."""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cli", "dynamics", "embed", "encode", "errors", "eval", "interpret", "model",
           "numeric", "prep", "table", "workers")
CLASSES = {"CustomerEncoder": "model", "BigTable": "table", "TableProfile": "prep",
           "FeatureSchema": "prep", "Vocabulary": "prep", "Columns": "table",
           "CellPool": "table"}
# where the README's `table` is a `BigTable`, not the module
VARIABLES = {"table.records": "table.BigTable.records"}

# a module or class name, not a file name such as `model.py`
NAME = re.compile(r"(?<![\w.])((?:%s)\.(?!py\b)\w+(?:\.\w+)?)" % "|".join(MODULES + tuple(CLASSES)))


def readme_names(text: str) -> list[str]:
    """The `module.name` and `Class.name` words of the inline code spans of
    `text` (fenced blocks left out), each once, in order."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    names = [name for span in re.findall(r"`([^`\n]+)`", text) for name in NAME.findall(span)]
    return list(dict.fromkeys(names))


def resolves(name: str) -> bool:
    """Whether `name` is an attribute path of a tabrep module; a class
    name stands for its module's class, and a dataclass field counts as an
    attribute of its class."""
    name = VARIABLES.get(name, name)
    head, *path = name.split(".")
    if head in CLASSES:
        head, path = CLASSES[head], [head, *path]
    obj = importlib.import_module(f"tabrep.{head}")
    for attr in path:
        fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
        if attr in fields and not hasattr(obj, attr):
            return True
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


NAMES = readme_names(README.read_text(encoding="utf-8"))


def test_the_readme_names_code():
    assert len(NAMES) >= 20, NAMES


@pytest.mark.parametrize("name", NAMES)
def test_each_readme_name_resolves(name):
    assert resolves(name), f"README.md names `{name}`, which tabrep does not have"


def test_the_scan_finds_stale_names():
    text = ("See `model.gone` and `x = table.parse_text(s)`, not `modelx.y`, `cli.py` or\n"
            "```python\nmodel.represent(table)\n```\n`CustomerEncoder.forward`")
    assert readme_names(text) == ["model.gone", "table.parse_text", "CustomerEncoder.forward"]
    assert [resolves(n) for n in readme_names(text)] == [False, True, True]
    assert resolves("table.records") and not resolves("BigTable.nothing")
