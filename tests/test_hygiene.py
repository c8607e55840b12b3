import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sd40
from sd40.constructions import printed_de_matrix, printed_se_matrix
from sd40.projection import parse_array_text

SRC = Path(sd40.__file__).parent
FIXTURES = Path(__file__).parent / "fixtures"


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_invariant_vanishes_under_optimize():
    # `python -O` strips assert statements, and AssertionError reads as a
    # failed test rather than a broken invariant: checks in the package
    # raise ValueError or InternalInvariantError.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and node.exc is not None
                and _raises_assertion_error(node)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.rglob("*.py"))) >= 8
    assert not found, found


def _unused_imports(path):
    """Names bound by module-level imports that the module never reads,
    except `__future__` features and names on a `# noqa: F401` line."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


def test_no_unused_module_imports():
    # The package re-exports its API from __init__.py; every other module
    # imports only what it uses.
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 7
    unused = [name for path in modules for name in _unused_imports(path)]
    assert not unused, unused


def test_unused_import_check_sees_an_unused_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\n"
                      "from dataclasses import dataclass, field\n"
                      "from itertools import chain  # noqa: F401\n"
                      "\n"
                      "@dataclass\n"
                      "class A:\n"
                      "    x: int = os.sep\n")
    assert _unused_imports(module) == ["m.py:3 field"]


def _bound_names(stmt):
    """Names a module-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _unread_private_names(paths):
    """Private module-level names (one leading underscore, no dunders)
    that no module in paths reads as a name or an attribute."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    return [f"{path.name}:{stmt.lineno} {name}"
            for path, tree in trees.items() for stmt in tree.body for name in _bound_names(stmt)
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_every_private_module_name_is_read():
    # A private helper or table that nothing in the package reads is dead
    # code, even when a test still reads it.
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) >= 8
    unread = _unread_private_names(paths)
    assert not unread, unread


def test_private_name_check_sees_an_unread_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\n"
                      "_TABLE, _SIZE = (1, 2), 2\n"
                      "__all__: list = []\n"
                      "def _helper():\n"
                      "    return _SIZE\n"
                      "class _Orphan:\n"
                      "    _x = os.sep\n"
                      "def size():\n"
                      "    return _helper()\n")
    assert _unread_private_names([module]) == ["m.py:2 _TABLE", "m.py:6 _Orphan"]


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _foreign_private_reads(paths):
    """Reads, in the modules in paths, of another module's private name:
    `from .m import _x`, or `m._x` where m is a module the reader imports."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        modules, reads = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and not node.module:
                modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                reads += [(node.lineno, f"{node.module}.{alias.name}")
                          for alias in node.names if _is_private(alias.name)]
        reads += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _is_private(node.attr)]
        found += [f"{path.name}:{line} {name}" for line, name in sorted(reads)]
    return found


def test_no_module_reads_another_modules_private_name():
    # A private name is its module's own: a caller that needs it needs a
    # public name, or the value built where it is used.
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) >= 8
    found = _foreign_private_reads(paths)
    assert not found, found


def test_foreign_private_check_sees_a_reader(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\n"
                      "from . import decoders as dc\n"
                      "from .gf4 import _MASK, packed\n"
                      "from __future__ import annotations\n"
                      "class A:\n"
                      "    def f(self, table):\n"
                      "        return self._x, table._y, dc.ok, dc.__doc__, packed\n"
                      "def g():\n"
                      "    return dc._failure(), os._exit\n")
    assert _foreign_private_reads([module]) == [
        "m.py:3 gf4._MASK", "m.py:9 dc._failure", "m.py:9 os._exit"]


# The searches and the lift check none of their arguments: a decode
# checks its code and its word once, in _decode, which alone may call them.
DECODE_STAGES = ("find_closest_in_e10", "solve_syndrome", "lift")


def _stage_readers(paths):
    """Reads of a decode stage in the modules in paths, as a name, an
    attribute or an imported name, other than those in decoders.py's
    imports and in its _decode."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "decoders.py":
            allowed = {id(node) for stmt in tree.body for node in ast.walk(stmt)
                       if isinstance(stmt, ast.ImportFrom)
                       or isinstance(stmt, ast.FunctionDef) and stmt.name == "_decode"}
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [
                getattr(node, "id", getattr(node, "attr", None))]
            found += [(path.name, node.lineno, name) for name in names
                      if name in DECODE_STAGES and id(node) not in allowed]
    return [f"{name}:{line} {stage}" for name, line, stage in sorted(found)]


def test_only_decode_calls_the_unchecked_stages():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) >= 8
    found = _stage_readers(paths)
    assert not found, found


def test_stage_check_sees_a_caller(tmp_path):
    decoders = tmp_path / "decoders.py"
    decoders.write_text("from .projection import lift\n"
                        "def _decode(v, y, erasures):\n"
                        "    return v ^ lift(find_closest_in_e10(y, ()), erasures, 0)\n"
                        "def checked(v, erasures):\n"
                        "    return v ^ lift(0, erasures, 0)\n")
    module = tmp_path / "m.py"
    module.write_text("from . import decoders as dc\n"
                      "from .decoders import solve_syndrome\n"
                      "def f(y):\n"
                      "    return dc.find_closest_in_e10(y, ()), solve_syndrome  # lift\n"
                      "NOTE = 'lift in a string'\n")
    assert _stage_readers([module, decoders]) == [
        "decoders.py:5 lift", "m.py:2 solve_syndrome", "m.py:4 find_closest_in_e10",
        "m.py:4 solve_syndrome"]


# _decode reads the received word v for its case and its projection
# (through classify_case and proj_bits for the representation search, or
# one read_columns for the syndrome search) and its top-row parity, and
# once more to apply the flips; the searches and the lift get only what
# those reads give.
DECODE_READS_OF_V = ("classify_case(v)", "proj_bits(v)", "read_columns(v)", "v & TOP_ROW_MASK",
                     "v ^ flips")


def _reads_of_v(path):
    """The source of each expression or statement in path's _decode that
    holds the name v, sorted."""
    tree = ast.parse(path.read_text(), str(path))
    decode = next(stmt for stmt in tree.body
                  if isinstance(stmt, ast.FunctionDef) and stmt.name == "_decode")
    return sorted(ast.unparse(node) for node in ast.walk(decode)
                  for child in ast.iter_child_nodes(node)
                  if isinstance(child, ast.Name) and child.id == "v")


def test_decode_reads_the_received_word_only_where_listed():
    assert _reads_of_v(SRC / "decoders.py") == sorted(DECODE_READS_OF_V)


def test_read_check_sees_another_read(tmp_path):
    decoders = tmp_path / "decoders.py"
    decoders.write_text("def _decode(v, code):\n"
                        "    case, y = classify_case(v), proj_bits(v)\n"
                        "    columns = read_columns(v)\n"
                        "    off = (v & TOP_ROW_MASK).bit_count()\n"
                        "    flips = lift(v, y, case, off)\n"
                        "    return v ^ flips\n"
                        "def other(v):\n"
                        "    return v\n")
    assert _reads_of_v(decoders) == sorted([*DECODE_READS_OF_V, "lift(v, y, case, off)"])


def _unread_public_names(paths):
    """Public functions, classes and module-level constants of the modules
    in paths, and public methods of their classes (as Class.method), whose
    name no module in paths reads as a name or an attribute; __init__.py
    only re-exports."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for stmt in tree.body:
            if not isinstance(stmt, defs):
                found += [f"{path.name}:{stmt.lineno} {name}" for name in _bound_names(stmt)
                          if not name.startswith("_") and name not in read]
                continue
            members = stmt.body if isinstance(stmt, ast.ClassDef) else []
            for node, name in [(stmt, stmt.name)] + [
                    (fn, f"{stmt.name}.{fn.name}") for fn in members if isinstance(fn, defs)]:
                if not node.name.startswith("_") and node.name not in read:
                    found.append(f"{path.name}:{node.lineno} {name}")
    return found


# Public names that no module in the package reads, each with what it
# serves.  Any other such name is a capability without a caller.
UNREAD_PUBLIC_ALLOWED = {
    "BinaryGeneratorMatrix.contains": "the one membership test of a binary code",
    "rho_a": "the paper's construction A, which test_constructions holds to its weight-4 words",
    "trace_inner": "the paper's trace inner product, checked against its definition",
    "oracle_decode": "the information-set search, the trust anchor of the benchmark's gate and tests",
    "has_projection_o": "the paper's projection O, acceptance criterion 9",
    "has_projection_e": "the paper's projection E, acceptance criterion 9",
    "parse_array_text": "the 4x10 array reader of the worked-example fixtures",
    "classify_type": "the paper's eight orbit types of E10 codewords",
    "ZERO": "GF(4)'s element 0 by name, which test_gf4 reads",
    "ONE": "GF(4)'s element 1 by name, which test_gf4 reads",
    "OMEGA": "GF(4)'s element w by name, which test_gf4 reads",
    "OMEGA_BAR": "GF(4)'s element W = w^2 by name, which test_gf4 reads",
}


def test_every_public_name_is_read():
    # A public function, class, method or constant that nothing in the
    # package reads is code kept for its tests alone, unless it is listed
    # above.
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) >= 8
    found = _unread_public_names(paths)
    assert sorted(entry.split()[1] for entry in found) == sorted(UNREAD_PUBLIC_ALLOWED), found


def test_public_name_check_sees_an_unread_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\n"
                      "WIDTH, DEPTH = 4, 2\n"
                      "def used():\n"
                      "    return Box().size + WIDTH\n"
                      "def orphan():\n"
                      "    return used()\n"
                      "def _private():\n"
                      "    return os.sep\n"
                      "class Box:\n"
                      "    size = 1\n"
                      "    def __len__(self):\n"
                      "        return 0\n"
                      "    def grow(self):\n"
                      "        return self.size\n"
                      "class Lone:\n"
                      "    pass\n")
    (tmp_path / "__init__.py").write_text("from .m import Lone, orphan\n")
    paths = [tmp_path / "__init__.py", module]
    assert _unread_public_names(paths) == [
        "m.py:2 DEPTH", "m.py:5 orphan", "m.py:13 Box.grow", "m.py:15 Lone"]


def _is_dataclass_decorator(node):
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def _unread_dataclass_fields(paths):
    """Fields of module-level dataclasses in paths that no module in paths
    reads as an attribute."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{stmt.lineno} {cls.name}.{stmt.target.id}"
            for path, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass_decorator, cls.decorator_list))
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read]


def test_every_dataclass_field_is_read():
    # A field that nothing in the package reads is a fact stored and never
    # used, or a check that was meant to be made and is not.
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) >= 8
    unread = _unread_dataclass_fields(paths)
    assert not unread, unread


def test_dataclass_field_check_sees_an_unread_field(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import dataclasses\n"
                      "from dataclasses import dataclass\n"
                      "@dataclass(frozen=True)\n"
                      "class A:\n"
                      "    x: int\n"
                      "    y: int\n"
                      "@dataclasses.dataclass\n"
                      "class B:\n"
                      "    z: int\n"
                      "class C:\n"
                      "    w: int\n"
                      "def f(a):\n"
                      "    a.y = a.w\n"
                      "    return a.x\n")
    assert _unread_dataclass_fields([module]) == ["m.py:6 A.y", "m.py:9 B.z"]


# SimpleNamespace's C __init__ builds an outcome from any keywords, so
# this check stands in for the arity check of a generated __init__.
OUTCOME_FIELDS = tuple(f.name for f in dataclasses.fields(sd40.DecodeOutcome))


def _outcome_builds(paths):
    """Each DecodeOutcome(...) call in paths, as "module:line", and its
    positional count and sorted keywords ("**" for a mapping)."""
    return [(f"{path.name}:{node.lineno}", len(node.args),
             sorted(kw.arg or "**" for kw in node.keywords))
            for path in paths for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "DecodeOutcome"]


def _bad_outcome_builds(paths):
    return [where for where, count, keywords in _outcome_builds(paths)
            if count or keywords != sorted(OUTCOME_FIELDS)]


def test_every_outcome_is_built_from_its_four_fields_by_keyword():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) >= 8
    assert len(_outcome_builds(paths)) >= 3  # _decode, _failure and the CLI's oracle
    found = _bad_outcome_builds(paths)
    assert not found, found


def test_outcome_build_check_sees_a_misspelled_field(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from . import decoders as dc\n"
                      "def f(v, case):\n"
                      "    good = dc.DecodeOutcome(algorithm='x', codeword=v, flips=0, case=case)\n"
                      "    return good, dc.DecodeOutcome(algorithm='x', codeword=v, flip=0, case=case)\n")
    assert _bad_outcome_builds([module]) == ["m.py:4"]


def _unpassed_defaults(paths):
    """Defaulted parameters of the defs in paths that no call in paths
    passes, by keyword or by position.  A call is matched to a def by
    name alone (`f(...)` or `x.f(...)`), and a call to a method other than
    a staticmethod passes its first parameter implicitly."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    calls = {}  # name -> [(positional count, keywords)]
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(
                    (len(node.args), {kw.arg for kw in node.keywords}))
    unpassed = []
    for path, tree in trees.items():
        methods = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = methods.get(id(fn))
            implicit = int(owner is not None and not any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list))
            positional = fn.args.posonlyargs + fn.args.args
            # The slot is the index of the argument in a call's own list.
            defaulted = [(i - implicit, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(fn.args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            for slot, arg in defaulted:
                if not any(arg in keywords or slot is not None and count > slot
                           for count, keywords in calls.get(fn.name, [])):
                    qualname = f"{owner}.{fn.name}" if owner else fn.name
                    unpassed.append(f"{path.name}:{fn.lineno} {qualname}.{arg}")
    return unpassed


# Defaulted parameters that no call in the package passes, each with the
# reason it stays.
UNPASSED_DEFAULTS_ALLOWED = {
    "represent_decode.members": "the benchmark's gate test passes it (ROADMAP.md item 1)",
    "main.argv": "None makes argparse read sys.argv; tests and the benchmark pass a list",
}


def test_every_default_is_passed_somewhere():
    # A default that no call overrides is a constant dressed as an option.
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) >= 8
    found = _unpassed_defaults(paths)
    assert sorted(entry.split()[1] for entry in found) == sorted(UNPASSED_DEFAULTS_ALLOWED), found


def test_default_check_sees_an_unpassed_default(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(a, b=1, *, c=2, d=3):\n"
                      "    return a\n"
                      "class K:\n"
                      "    def m(self, x, y=0, z=0):\n"
                      "        return f(x, 5, d=y)\n"
                      "    @staticmethod\n"
                      "    def s(x=0, y=0):\n"
                      "        return K().m(1, 2) + K.s(1)\n")
    assert _unpassed_defaults([module]) == ["m.py:1 f.c", "m.py:4 K.m.z", "m.py:7 K.s.y"]


# The package pays for each feature with deletions.  A change that grows
# src/sd40 raises this constant and says in CHANGES.md why it must.
SRC_LINE_BUDGET = 1_494


def test_package_stays_within_its_line_budget():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 8
    lines = sum(len(path.read_text().splitlines()) for path in paths)
    assert lines <= SRC_LINE_BUDGET, f"src/sd40 has {lines} lines, budget {SRC_LINE_BUDGET}"


# Modules a decode has no use for: numpy, and hashlib with the OpenSSL
# binding _hashlib, whose import alone raises a process's peak memory.
HEAVY = ("numpy", "hashlib", "_hashlib")

# Runs a statement in a fresh interpreter, runs the CLI on the remaining
# arguments if there are any, and prints the exit code (or the statement's
# `code`) and the HEAVY modules that got loaded.
_IMPORT_PROBE = f"""\
import contextlib, io, sys
code = None
exec(sys.argv[1])
if sys.argv[2:]:
    from sd40 import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[2:])
print(code, *(name for name in {HEAVY!r} if name in sys.modules))
"""


def _run_fresh(script, *args):
    """The stdout of a script run in a fresh interpreter that imports
    this package."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return done.stdout


def _probe_imports(*args):
    code, *loaded = _run_fresh(_IMPORT_PROBE, *args).split()
    return code, loaded


def _noisy_hex(matrix):
    return format(matrix.encode(0xABCDE) ^ 0b101 << 9, "010x")


NUMPY_FREE = {
    "import-sd40": ("import sd40",),
    "import-cli": ("import sd40.cli",),
    **{f"decode-{alg}-{code}": ("import sd40.cli", "decode", _noisy_hex(matrix), "--algorithm", alg,
                                "--code", code, "--verbose")
       for code, matrix in (("DE", printed_de_matrix()), ("SE", printed_se_matrix()))
       for alg in ("repr", "synd", "oracle")},
    "fuzz": ("import sd40.cli", "fuzz", "--trials", "200"),
    "encode": ("import sd40.cli", "encode", "0" * 20),
    "corrupt": ("import sd40.cli", "corrupt", "0" * 10),
    "tables": ("import sd40.cli", "tables"),
    "census": ("import sd40.cli", "census"),
    "certify": ("import sd40.cli", "certify", str(FIXTURES / "g40_de.txt")),
    # The information-set search, on a word two flips from a codeword:
    # code is 0 when it decodes back.
    "oracle_decode": ("from sd40 import build_oracle, oracle_decode, printed_de_matrix\n"
                      f"code = oracle_decode(0x{_noisy_hex(printed_de_matrix())}, "
                      "build_oracle(printed_de_matrix())) ^ "
                      f"{printed_de_matrix().encode(0xABCDE)}",),
}


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_decoding_loads_no_numpy(name):
    # No table the decoders, the oracle and the CLI read is larger than
    # the 10,701 coset leaders, and certify counts its 2^20 codewords from
    # two list spans of 2^10; nothing hashes.
    code, loaded = _probe_imports(*NUMPY_FREE[name])
    assert code in ("None", "0"), code
    assert loaded == []


def test_probe_sees_numpy_and_hashlib(tmp_path):
    # The control: a probe that could not see these modules would pass the
    # test above vacuously.  An empty module of numpy's name stands in for
    # numpy, which need not be installed.
    (tmp_path / "numpy.py").write_text("")
    statement = f"sys.path.insert(0, {str(tmp_path)!r})\nimport hashlib, numpy"
    assert _probe_imports(statement) == ("None", list(HEAVY))


# Decodes each CODE:HEX argument with represent_decode, prints whether each
# decode succeeded, then how many entries each syndrome-path cache holds.
_SYNDROME_PROBE = """\
import sys
from sd40 import decoders as dc
print(*(dc.represent_decode(int(v, 16), code).ok
        for code, v in (arg.split(":") for arg in sys.argv[1:])))
print(*(getattr(dc, name).cache_info().currsize
        for name in ("_syndrome_bytes", "_syndrome_table")))
"""


def test_representation_decoding_builds_no_syndrome_table():
    # The paper's two algorithms stay two: representation decoding matches
    # codeword patterns and never computes a syndrome.  The worked examples
    # are DE words, and they and the two codewords must decode.
    examples = [parse_array_text((FIXTURES / f"example{k}_received.txt").read_text())
                for k in range(1, 5)]
    codewords = [(code, matrix.encode(0xABCDE))
                 for code, matrix in (("DE", printed_de_matrix()), ("SE", printed_se_matrix()))]
    words = [("DE", v) for v in examples] + codewords + [("SE", v) for v in examples]
    args = [f"{code}:{v:010x}" for code, v in words]
    verdicts, sizes = _run_fresh(_SYNDROME_PROBE, *args).splitlines()
    assert verdicts.split()[:6] == ["True"] * 6
    assert sizes.split() == ["0", "0"]
