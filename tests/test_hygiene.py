"""Source hygiene: no module imports a name it never uses, no private
module-level name of the package goes unread, no public one, nor any public
method or property of a package class, is read by tests alone, only a known
few are read by perfbench alone, every public name of the test oracle is
read by some test module, the package root exports each public name from
its home module and imports that module on first read, and importing the CLI
loads no scipy and no lab module."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import plotkin_pke

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/plotkin_pke"
SCANNED = (PACKAGE, "tests", "scripts")
READERS = ("src", "tests", "scripts", "perfbench")
MODULES = {path.stem for path in (ROOT / PACKAGE).glob("*.py")} - {"__init__"}


def _exported(tree: ast.Module) -> set[str]:
    """String entries of a module-level ``__all__`` list or tuple literal; a
    computed ``__all__`` exports no imported name."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_detected():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom json import dumps, loads as parse\n"
        "__all__ = ['dumps']\n"
        "print(os.path.sep)\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "parse")]
    # a computed __all__ reads no imported name
    assert unused_imports("from json import dumps\n__all__ = list({'dumps': 0})\n") == [
        (1, "dumps")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for folder in SCANNED
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def _defined_names(stmt: ast.stmt) -> list[str]:
    """Names, dunders left out, that a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        return []
    return [n for n in names if not n.startswith("__")]


def _reads(node: ast.AST) -> set[str]:
    """Names a syntax tree reads: loaded names, attributes, imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out |= {a.name for a in n.names}
    return out


def dead_names(source: str, elsewhere: set[str], private: bool = True) -> list[tuple[int, str]]:
    """(line, name) for each private (or, with ``private=False``, public)
    module-level name of ``source`` that no other statement of it reads and
    that is not in ``elsewhere``."""
    body = ast.parse(source).body
    reads = [_reads(stmt) for stmt in body]
    return [
        (stmt.lineno, name)
        for i, stmt in enumerate(body)
        for name in _defined_names(stmt)
        if name.startswith("_") == private
        and name not in elsewhere
        and not any(name in r for j, r in enumerate(reads) if j != i)
    ]


def test_dead_private_names_detected():
    source = (
        "_USED = 1\n_UNUSED, _PAIR = 2, 3\n__version__ = '1'\n"
        "def _recursive(n):\n    return _recursive(n - 1) + _USED\n"
        "class _Read:\n    pass\n"
        "def _kept():\n    pass\n"
        "def public():\n    return _Read\n"
    )
    assert dead_names(source, {"_kept", "_PAIR"}) == [(2, "_UNUSED"), (4, "_recursive")]


def test_no_dead_private_names():
    reads = {
        path: _reads(ast.parse(path.read_text()))
        for folder in READERS
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    found = []
    for path in sorted((ROOT / PACKAGE).rglob("*.py")):
        elsewhere = set().union(*(names for p, names in reads.items() if p != path))
        found += [f"{path.relative_to(ROOT)}:{line} {name}"
                  for line, name in dead_names(path.read_text(), elsewhere)]
    assert found == []


def test_dead_public_names_detected():
    source = (
        "USED = 1\nONLY_TESTS, _HIDDEN = 2, 3\n__version__ = '1'\n"
        "def helper():\n    return USED\n"
        "class Kept:\n    pass\n"
    )
    assert dead_names(source, {"Kept"}, private=False) == [(2, "ONLY_TESTS"), (4, "helper")]


def dead_methods(source: str, elsewhere: set[str]) -> list[tuple[int, str]]:
    """(line, Class.name) for each public method or property of a
    module-level class of ``source`` that no other statement of it reads and
    that is not in ``elsewhere``.  Dataclass fields are not methods."""
    body = ast.parse(source).body
    found = []
    for cls in body:
        if not isinstance(cls, ast.ClassDef):
            continue
        others = set().union(*(_reads(stmt) for stmt in body if stmt is not cls))
        for fn in cls.body:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.startswith("_") and fn.name not in elsewhere | others
                    and not any(fn.name in _reads(stmt) for stmt in cls.body if stmt is not fn)):
                found.append((fn.lineno, f"{cls.name}.{fn.name}"))
    return found


def test_dead_methods_detected():
    source = (
        "class Stream:\n"
        "    size: int = 0\n"
        "    def used(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 1\n"
        "    def only_tests(self):\n        return self.only_tests()\n"
        "    @property\n    def width(self):\n        return 8\n"
        "    def kept(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
        "def run(s):\n    return s.used()\n"
    )
    assert dead_methods(source, {"kept"}) == [(7, "Stream.only_tests"), (10, "Stream.width")]


def unread_public(package: dict[Path, str], readers: dict[Path, str]) -> list[tuple[Path, int, str]]:
    """(path, line, name) for each public module-level name, method or
    property of a ``package`` module that neither its own module nor any
    other of ``readers`` reads."""
    reads = {path: _reads(ast.parse(source)) for path, source in readers.items()}
    found = []
    for path, source in package.items():
        elsewhere = set().union(*(names for p, names in reads.items() if p != path))
        found += [(path, line, name)
                  for line, name in (*dead_names(source, elsewhere, private=False),
                                     *dead_methods(source, elsewhere))]
    return found


def _sources(*folders: str) -> dict[Path, str]:
    # re-exports in __init__ and perfbench's own tests do not count as reads
    skipped = ("__init__.py", "test_perfbench.py")
    return {path: path.read_text()
            for folder in folders
            for path in sorted((ROOT / folder).rglob("*.py"))
            if path.name not in skipped}


def test_no_public_names_only_tests_read():
    found = unread_public(_sources(PACKAGE), _sources("src", "scripts", "perfbench"))
    assert [f"{path.relative_to(ROOT)}:{line} {name}" for path, line, name in found] == []


def test_perfbench_only_names_detected():
    package = {Path("m.py"): (
        "def run():\n    pass\n"
        "def probe_only():\n    pass\n"
        "class Key:\n"
        "    def load(self):\n        pass\n"
        "    def timed(self):\n        pass\n"
    )}
    cli = {Path("cli.py"): "from m import Key, run\nKey().load()\n"}
    bench = {Path("bench.py"): "from m import probe_only\nKey().timed()\n"}
    assert unread_public(package, {**package, **cli, **bench}) == []
    assert unread_public(package, {**package, **cli}) == [
        (Path("m.py"), 3, "probe_only"), (Path("m.py"), 8, "Key.timed")]


def test_perfbench_alone_keeps_only_known_names():
    # what only a perfbench probe still reads: these go once the benchmark
    # drops their probes, and no other name may be kept alive that way
    found = unread_public(_sources(PACKAGE), _sources("src", "scripts"))
    assert {f"{path.stem}.{name}" for path, _, name in found} == {
        "bitflip.upc_profile", "dense.systematic_form", "qc.encode"}


def unread_oracle(oracle: str, tests: list[str]) -> list[tuple[int, str]]:
    """(line, name) for each public module-level name of the test oracle
    source ``oracle`` that neither the oracle itself nor any of ``tests``
    reads."""
    reads = set().union(*(_reads(ast.parse(source)) for source in tests))
    return dead_names(oracle, reads, private=False)


def test_unread_oracle_names_detected():
    oracle = (
        "def rank(a):\n    return a\n"
        "def inverse(a):\n    return rank(a)\n"
        "def retired(a):\n    return a\n"
        "def _helper(a):\n    return a\n"
    )
    tests = ["import oracle\nassert oracle.inverse(1)\n", "def test_x():\n    retired = 2\n"]
    assert unread_oracle(oracle, tests) == [(5, "retired")]


def test_no_oracle_names_tests_leave_unread():
    tests = [path.read_text() for path in sorted((ROOT / "tests").glob("*.py"))
             if path.name != "oracle.py"]
    assert unread_oracle((ROOT / "tests/oracle.py").read_text(), tests) == []


def _fresh(code: str):
    """What ``code``, run in a fresh interpreter that imports the package from
    ``src/``, prints as JSON."""
    prelude = f"import json, sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
    out = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                         text=True, check=True, timeout=60)
    return json.loads(out.stdout)


LOADED = "sorted(m.split('.')[1] for m in sys.modules if m.startswith('plotkin_pke.'))"


def test_cli_import_loads_no_scipy():
    # scipy.stats alone once took about 1.1 s of every cold CLI command
    assert _fresh(
        "import plotkin_pke.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    ) == []


def test_imports_load_only_what_they_read():
    # the root imports nothing until a name is read, and a scheme command
    # loads no lab module (attack, dense, dfr, isd, stern)
    assert _fresh(
        f"import plotkin_pke\nbare = {LOADED}\n"
        "for name in plotkin_pke.__all__:\n    getattr(plotkin_pke, name)\n"
        f"print(json.dumps([bare, {LOADED}]))"
    ) == [[], sorted(MODULES - {"cli", "wire"})]
    assert _fresh(f"import plotkin_pke.cli\nprint(json.dumps({LOADED}))") == [
        "bitflip", "cli", "gf2", "presets", "qc", "rng", "scheme", "wire"]


# each public name of the package root, under the module it lives in
EXPORTS = {
    "rng": ["RandomStream", "derive_substream_seed", "substream"],
    "gf2": ["BitVector", "BlockMatrix", "CirculantBlock", "NotInvertibleError"],
    "qc": ["GenerationError", "QcParams", "QcParityCheck"],
    "bitflip": ["DecodeOutcome", "DecoderConfig", "backflip_config", "classic_bf_config",
                "decode"],
    "dfr": ["DfrReport", "SelectionError", "clopper_pearson", "estimate_dfr",
            "select_t_for_dfr"],
    "scheme": ["Ciphertext", "DecryptionFailure", "PublicKey", "SchemeParams", "SecretKey",
               "cca2_variant_public_bits", "decrypt", "encrypt", "hash_mask", "keygen",
               "public_key_bits"],
    "isd": ["IsdCostReport", "isd_cost", "keyrec_workfactor", "msgrec_workfactor"],
    "stern": ["SternResult", "stern_search"],
    "attack": ["AttackReport", "RecoveredDual", "recover_dual_structure",
               "weak_key_attack_demo"],
    "presets": ["PRESETS", "preset"],
}


def test_export_table():
    assert sorted(plotkin_pke.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"plotkin_pke.{module}")
        for name in names:
            assert getattr(plotkin_pke, name) is getattr(home, name)
    assert not set(plotkin_pke.__all__) & MODULES  # no export hides a submodule
    with pytest.raises(AttributeError, match="no_such_name"):
        plotkin_pke.no_such_name
    # dir lists every export before any is read; a name the table lacks falls
    # through to its submodule; a star import binds exactly __all__
    assert _fresh(
        "import plotkin_pke\nlisted = set(plotkin_pke.__all__) <= set(dir(plotkin_pke))\n"
        "from plotkin_pke import wire, cli, dense\n"
        "star = {}\nexec('from plotkin_pke import *', star)\n"
        "print(json.dumps([listed, [m.__name__ for m in (wire, cli, dense)],\n"
        "                  sorted(star.keys() - {'__builtins__'})]))"
    ) == [True, ["plotkin_pke.wire", "plotkin_pke.cli", "plotkin_pke.dense"],
          sorted(plotkin_pke.__all__)]
