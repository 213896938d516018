"""Checks on the package source itself."""

import ast
import importlib
import inspect
import re
import typing
from collections import Counter
from functools import cached_property
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "homkit"


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so a check written as one silently passes.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SRC.is_dir() and not offenders, offenders


def _annotated_callables():
    """Every function, class and method defined in a homkit module, by name."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"homkit.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            obj = inspect.unwrap(obj)  # lru_cache wrappers are not functions
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, cached_property):
                        member = member.func
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_annotations_resolve():
    # With postponed evaluation, an annotation naming a dropped import only
    # fails when someone resolves it; resolve them all here.
    failures, seen = [], 0
    for qualname, obj in _annotated_callables():
        seen += 1
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # NameError, or a TypeError on a bad subscript
            failures.append(f"{qualname}: {exc!r}")
    assert seen > 100 and not failures, failures


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports (at any depth) but never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}: {name}" for name in _unused_imports(tree)]
    assert SRC.is_dir() and not offenders, offenders


def _dict_stores(tree: ast.Module) -> list[int]:
    """Lines that store into a `__dict__` subscript, as `x.__dict__[k] = v`."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Attribute) and node.value.attr == "__dict__"]


def test_no_injected_caches():
    # Filling another object's cached_property through its __dict__ hands
    # it a value it did not compute: an object is built with what it needs,
    # or computes it itself.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{line}" for line in _dict_stores(tree)]
    assert SRC.is_dir() and not offenders, offenders


def _held_groups(tree: ast.Module) -> list[int]:
    """Lines that store a new FgAbGroup or SubquotientGroup in an attribute
    of `self`."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id in ("FgAbGroup", "SubquotientGroup")
            and any(isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                    and t.value.id == "self" for t in node.targets)]


def test_a_class_is_its_group_not_a_holder_of_one():
    # An object that describes a group subclasses FgAbGroup (or
    # SubquotientGroup) and is built with its presentation, so callers read
    # the group off the object instead of off an attribute of it.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{line}" for line in _held_groups(tree)]
    assert SRC.is_dir() and not offenders, offenders


def _is_memo(decorator: ast.expr) -> bool:
    """True for lru_cache or cache, bare or called, by name or off functools."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return (isinstance(decorator.value, ast.Name) and decorator.value.id == "functools"
                and decorator.attr in ("lru_cache", "cache"))
    return isinstance(decorator, ast.Name) and decorator.id in ("lru_cache", "cache")


def test_no_memo_keyed_on_arguments():
    # A memo keyed on arguments lives as long as the process, so the work
    # one job does would depend on the jobs run before it.  A function of
    # no arguments (a value built once per process) is fine.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            takes_args = (args.posonlyargs or args.args or args.vararg
                          or args.kwonlyargs or args.kwarg)
            if takes_args and any(_is_memo(d) for d in node.decorator_list):
                offenders.append(f"{path.name}:{node.lineno} {node.name}")
    assert SRC.is_dir() and not offenders, offenders


# Routines that factor their first argument (or solve against it).
_FACTORING = {"snf", "kernel_basis", "lattice_basis", "cokernel_invariants", "lattice_contains",
              "solve", "solve_matrix", "preimage_gens"}


def _scoped_nodes(tree: ast.Module):
    """Each node of `tree` with its enclosing Class.function ("" at module
    level)."""
    def visit(node: ast.AST, scope: tuple[str, ...]):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        yield node, ".".join(scope)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(tree, ())


def _presentation_factorings(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, enclosing Class.function) of each call that hands a name or
    attribute `presentation` to one of the _FACTORING routines."""
    found = []
    for node, scope in _scoped_nodes(tree):
        if isinstance(node, ast.Call) and node.args:
            func, first = node.func, node.args[0]
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name) and func.value.id == "intlinalg" else None)
            arg = first.id if isinstance(first, ast.Name) else (
                first.attr if isinstance(first, ast.Attribute) else None)
            if name in _FACTORING and arg == "presentation":
                found.append((node.lineno, scope))
    return found


def test_presentations_are_factored_only_by_their_group():
    # A group's presentation is factored once, in FgAbGroup.smith; every
    # other question about it (zero tests, relation basis, kernels) reads
    # that decomposition instead of factoring the matrix again.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{line} in {scope}"
                      for line, scope in _presentation_factorings(tree)
                      if scope != "FgAbGroup.smith"]
    assert SRC.is_dir() and not offenders, offenders


def test_integers_are_parsed_only_by_parse_bigint():
    # One parser reads every integer of a document (matrix entries, torsion
    # coefficients, ring polynomials), so the accepted forms and the error
    # messages are written once.
    path = SRC / "jsonio.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = [(node.lineno, scope) for node, scope in _scoped_nodes(tree)
             if isinstance(node, ast.Name) and node.id == "_DECIMAL"
             and isinstance(node.ctx, ast.Load)]
    offenders = [f"jsonio.py:{line} in {scope or 'module'}"
                 for line, scope in reads if scope != "_parse_bigint"]
    assert reads and not offenders, offenders


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the string constants that are module, class or function docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _names_read(tree: ast.Module) -> set[str]:
    """Identifiers, attribute names, and the dotted parts of every string
    literal that is not a docstring (such as "HomotopyClasses.class_of")."""
    docstrings = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.update(node.value.split("."))
    return names


def _qualified_reads(tree: ast.Module, module: object = None) -> set[str]:
    """"Class.name" pairs that name the class they read: attribute reads
    on a name (`IntMatrix.zero(...)`), dotted string literals that are not
    docstrings ("HomotopyClasses.generators"), and, inside a class of
    `module`, `self.name` and `cls.name` resolved along the class's MRO to
    the class that defines the name."""
    docstrings = _docstrings(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            found.update(re.findall(r"[A-Za-z_]\w*\.[A-Za-z_]\w*", node.value))
    for node in tree.body:
        cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
        if not inspect.isclass(cls):
            continue
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id in ("self", "cls")):
                owner = next((k for k in cls.__mro__ if sub.attr in vars(k)), None)
                if owner is not None:
                    found.add(f"{owner.__name__}.{sub.attr}")
    return found


def _public_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each public module-level function and class
    and each public method."""
    defs = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        defs.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{m.name}", m.name) for m in node.body
                     if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return defs


# Methods whose name several classes define, which the package reads only
# through instances, so that no reader names the class; each comment names
# the readers.
_READ_THROUGH_INSTANCES = {
    "ChainMap.compose",  # relhom.is_i_exact
    "GroupHom.compose",  # repmod.hochschild
    "GroupElement.is_zero",  # cli._cmd_kappa, GroupElement.__eq__
    "GroupHom.is_zero",  # relhom.kappa, GradedGroupHom.is_zero
    "IntMatrix.is_zero",  # PeriodicComplex.__post_init__
    "GradedGroupHom.is_zero",  # relhom.classify
    "GradedGroupHom.is_injective",  # relhom.classify
    "GradedGroupHom.is_surjective",  # relhom.classify
}


def test_every_public_name_has_a_reader_outside_the_tests():
    # Library code that only tests call is a second copy of what the tests
    # could build themselves.  Each public name must be read by the package
    # or the benchmark, or be part of the surface README.md documents.
    # Where several classes define a method name, a read of the bare name
    # does not tell which one it reads, so each such method needs a reader
    # that names its class, or an entry in _READ_THROUGH_INSTANCES.
    # randgen is exempt: its docstring makes it test support.
    read, qualified = set(), set()
    for path in sorted(SRC.rglob("*.py")) + sorted((REPO / "bench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        module = importlib.import_module(f"homkit.{path.stem}") if path.parent == SRC else None
        read |= _names_read(tree)
        qualified |= _qualified_reads(tree, module)
    readme = re.sub(r"```.*?```", "", (REPO / "README.md").read_text(encoding="utf-8"),
                    flags=re.DOTALL)
    for span in re.findall(r"`([^`\n]+)`", readme):
        read.update(re.findall(r"[A-Za-z_]\w*", span))
        qualified.update(re.findall(r"[A-Za-z_]\w*\.[A-Za-z_]\w*", span))
    defs = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "randgen":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            defs += [(path.stem, qualname, name) for qualname, name in _public_definitions(tree)]
    counts = Counter(name for _, qualname, name in defs if qualname != name)
    shared = {qualname for _, qualname, name in defs if qualname != name and counts[name] > 1}
    qualified |= _READ_THROUGH_INSTANCES
    unread = [f"{stem}.{qualname}" for stem, qualname, name in defs
              if (qualname not in qualified if qualname in shared else name not in read)]
    stale = sorted(_READ_THROUGH_INSTANCES - shared)
    assert SRC.is_dir() and not unread and not stale, (unread, stale)


# A decomposition's elimination steps, and a subquotient's decomposition of
# its basis, which only intlinalg's constructors build on.
_SMITH_INTERNALS = {"row_ops", "col_ops", "basis_smith"}


def test_only_intlinalg_reads_smith_operations():
    # Every decomposition derived from another (of a lattice, kernel or
    # reduced basis) is built in intlinalg, so no other module needs the
    # operations or a subquotient's basis decomposition.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "intlinalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno} {node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in _SMITH_INTERNALS]
    assert SRC.is_dir() and not offenders, offenders


# Calls that build a solution, or None when there is none.
_SOLVING = {"relation_coords", "solve", "solve_matrix"}


def _is_none_test(node: ast.AST) -> bool:
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None)


def _is_solving_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.attr if isinstance(func, ast.Attribute) else
            func.id if isinstance(func, ast.Name) else None) in _SOLVING


def _solutions_only_tested_for_none(tree: ast.Module) -> list[int]:
    """Lines where a solve's result is only compared with None: the call
    itself, or a name bound to it that every later read compares with None."""
    found = [node.lineno for node in ast.walk(tree)
             if _is_none_test(node) and _is_solving_call(node.left)]
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {node.targets[0].id: node.lineno for node in ast.walk(func)
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and isinstance(node.targets[0], ast.Name) and _is_solving_call(node.value)}
        tested = {id(node.left) for node in ast.walk(func) if _is_none_test(node)}
        for name, line in bound.items():
            reads = [node for node in ast.walk(func) if isinstance(node, ast.Name)
                     and node.id == name and isinstance(node.ctx, ast.Load)]
            if all(id(node) in tested for node in reads):
                found.append(line)
    return found


def test_yes_no_lattice_questions_build_no_solution():
    # Whether a system is solvable is the divide step of the Smith form
    # alone (`SmithDecomposition.contains`, `FgAbGroup.columns_are_zero`);
    # building X = V Y only to compare it with None replays V for nothing.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{line}" for line in _solutions_only_tested_for_none(tree)]
    assert SRC.is_dir() and not offenders, offenders
