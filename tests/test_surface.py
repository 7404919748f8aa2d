"""The package's top level is the surface its callers read.

The callers are the README's code, the demos and the benchmark under
`bench/`, read here as text. Every other name is imported from its
module; only the four error types are at the top level without a reader.
"""

import ast
import pkgutil
import re
import types
from pathlib import Path

import nfbeam
from nfbeam import errors

ROOT = Path(__file__).resolve().parents[1]
# `nfbeam.X` or `nf.X` (the benchmark's name for the package), and
# `setattr(nfbeam, "X", ...)` in the benchmark's tests
READ = re.compile(r"\b(?:nfbeam|nf)\.([A-Za-z]\w*)|setattr\((?:nfbeam|nf), \"(\w+)\"")


def caller_sources():
    """Python source of the README's code blocks, the demos and bench/."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    yield from re.findall(r"```python\n(.*?)```", readme, re.S)
    for path in [*ROOT.glob("demos/*.py"), *ROOT.glob("bench/**/*.py")]:
        yield path.read_text(encoding="utf-8")


def test_the_top_level_holds_what_the_readme_the_demos_and_bench_read():
    read = set()
    for text in caller_sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module == "nfbeam":
                read.update(alias.name for alias in node.names)
        read.update(m[1] or m[2] for m in READ.finditer(text))
    modules = {info.name for info in pkgutil.iter_modules(nfbeam.__path__)}
    error_types = {n for n, v in vars(errors).items()
                   if isinstance(v, type) and issubclass(v, Exception)}
    public = {n for n, v in vars(nfbeam).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert len(error_types) == 4
    assert public == (read - modules) | error_types
    # the README and the demos read the package through its top level only
    for path in [ROOT / "README.md", *ROOT.glob("demos/*.py")]:
        assert not re.search(r"from nfbeam\.\w+ import", path.read_text(encoding="utf-8")), path
