"""Static checks on the package source, standard library ``ast`` only.

* Every import in ``src/ontoenrich`` is used.
* Every public top-level function and class in ``src/ontoenrich`` is used
  outside its own definition by the package, the scripts or the benchmark.
  Tests are not users: a name only a test calls is dead code.
* Every method in ``src/ontoenrich`` whose name no other function there
  has is used by those same files outside its own definition. A name that
  several functions share is out of scope: without types an attribute
  cannot be tied to one class. So are dunder methods, which Python calls.
* Every class method and static method is referenced as ``Class.method``
  (or ``module.Class.method``) by those same files, whatever other
  functions share its name. A ``NamedTuple`` record's ``_make`` counts as
  used: the ``_replace`` that ``NamedTuple`` gives every record calls it.
* Every ``NamedTuple`` record that checks its values in ``__new__`` also
  defines ``_make``, so ``_replace``, which builds through ``_make``,
  checks them too.
* Every record field is read as an attribute by those same files. A
  record is a ``NamedTuple`` class, a subclass of a ``NamedTuple(...)``
  call, a class with ``__slots__`` or a dataclass. Like the method rule,
  this goes by name: a field is read when some attribute of that name is
  loaded. So a field that shares its name with a field of another record
  passes once either is read; the names that more than one record declares
  are pinned, and a new one fails until the reads of each of its fields are
  checked by hand.
* Every private top-level function in ``src/ontoenrich`` is used by the
  package outside its own definition.
* Every top-level constant in ``src/ontoenrich``, a name that a top-level
  assignment binds, is read (loaded as a name or an attribute) by those
  same files; a private one by the package itself. Dunder names, which
  Python reads, are out of scope.
* Every parameter of every function in ``src/ontoenrich`` is read in the
  function's body, ``self`` and ``cls`` aside. A stub whose body is ``...``,
  as a Protocol method's is, is out of scope.
* Only ``ontology.records`` splits text into lines: every line-based format
  is read through it.
* Only ``ontology.RELATION_NAMES`` loads a ``.value`` attribute: every
  relation's output string is read from it, not from ``Enum.value``.
* Only ``textpipe`` loads a ``phrases``, ``postings``, ``texts`` or
  ``surfaces`` attribute: every other module asks the phrase table through
  ``PhraseTable.documents``, so one function maps query text to documents.
* ``scripts/loc.py``, the line census, puts each line of every module in
  exactly one of its four classes.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ontoenrich"
USERS = (
    sorted((ROOT / "src").rglob("*.py"))
    + sorted((ROOT / "scripts").glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def node_names(node: ast.AST) -> list[str]:
    """The name, attribute name or imported names one node uses."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def names_used_outside_own_definition(node: ast.AST) -> set[str]:
    """Names, attribute names and imported names used anywhere in the tree,
    except that a function or class does not use its own name from inside
    its definition."""
    names = set(node_names(node))
    for child in ast.iter_child_nodes(node):
        names |= names_used_outside_own_definition(child)
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names.discard(node.name)
    return names


def test_no_unused_imports():
    # Every import counts, also one nested in a ``try`` fallback chain.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        imported, used = [], set()
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.module != "__future__":
                    imported += [alias.asname or alias.name for alias in node.names]
            else:
                used |= set(node_names(node))
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []


def unused_definitions(defined: dict[str, str], users) -> list[str]:
    """The definitions, named as ``defined`` maps them, whose name no user
    file references outside the definition itself."""
    used = set()
    for path in users:
        used |= names_used_outside_own_definition(parse(path))
    return sorted(label for name, label in defined.items() if name not in used)


def top_level(is_checked) -> dict[str, str]:
    return {
        node.name: f"{path.name}: {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in parse(path).body
        if is_checked(node)
    }


def test_public_definitions_have_users():
    def public(node):
        return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")

    assert unused_definitions(top_level(public), USERS) == []


def test_private_functions_have_callers():
    def private(node):
        return isinstance(node, ast.FunctionDef) and node.name.startswith("_")

    assert unused_definitions(top_level(private), sorted(PACKAGE.glob("*.py"))) == []


def constants(private: bool) -> list[tuple[str, str]]:
    """(name, ``module: name``) of each public or private top-level constant."""
    return [
        (target.id, f"{path.name}: {target.id}")
        for path in sorted(PACKAGE.glob("*.py"))
        for node in parse(path).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and not target.id.startswith("__")
        and target.id.startswith("_") == private
    ]


def loaded_names(users) -> set[str]:
    """The names and attribute names that the files load."""
    return {
        name
        for path in users
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        for name in node_names(node)
    }


def test_constants_are_read():
    users, package = loaded_names(USERS), loaded_names(sorted(PACKAGE.glob("*.py")))
    unread = [label for name, label in constants(private=False) if name not in users]
    unread += [label for name, label in constants(private=True) if name not in package]
    assert unread == []


def test_methods_have_users():
    functions = Counter()
    methods = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.FunctionDef):
                functions[node.name] += 1
            elif isinstance(node, ast.ClassDef):
                methods.update(
                    (item.name, f"{path.name}: {node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    unique = {name: label for name, label in methods.items() if functions[name] == 1}
    assert unused_definitions(unique, USERS) == []


def decorator_names(node: ast.FunctionDef | ast.ClassDef) -> set[str]:
    """Names of the decorators, called (``@dataclass(frozen=True)``) or not."""
    return {
        name
        for decorator in node.decorator_list
        for name in node_names(decorator.func if isinstance(decorator, ast.Call) else decorator)
    }


def package_classes() -> list[tuple[str, ast.ClassDef]]:
    return [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ClassDef)
    ]


def is_named_tuple(cls: ast.ClassDef) -> bool:
    """A ``NamedTuple`` class, or a subclass of a ``NamedTuple(...)`` call."""
    return any("NamedTuple" in node_names(base.func if isinstance(base, ast.Call) else base)
               for base in cls.bases)


def test_class_and_static_methods_have_users():
    defined = {
        (cls.name, item.name): f"{module}: {cls.name}.{item.name}"
        for module, cls in package_classes()
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and decorator_names(item) & {"classmethod", "staticmethod"}
    }
    used = {
        (owner, node.attr)
        for path in USERS
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute)
        for owner in node_names(node.value)
    }
    used |= {(cls.name, "_make") for _, cls in package_classes() if is_named_tuple(cls)}
    assert sorted(label for key, label in defined.items() if key not in used) == []


def test_checked_records_check_in_make_too():
    checked, unchecked = [], []
    for module, cls in package_classes():
        methods = {item.name for item in cls.body if isinstance(item, ast.FunctionDef)}
        if is_named_tuple(cls) and "__new__" in methods:
            checked.append(cls.name)
            if "_make" not in methods:
                unchecked.append(f"{module}: {cls.name}")
    assert checked and unchecked == []


def field_names(cls: ast.ClassDef) -> list[str]:
    """The fields of a record class: the annotated names in the body of a
    dataclass or ``NamedTuple`` class, the names a ``NamedTuple(name,
    [(field, type), ...])`` base lists, and the names ``__slots__`` holds."""
    names = []
    if "dataclass" in decorator_names(cls) or any(
            "NamedTuple" in node_names(base) for base in cls.bases):
        names += [item.target.id for item in cls.body
                  if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    for base in cls.bases:
        if isinstance(base, ast.Call) and "NamedTuple" in node_names(base.func):
            names += [field.elts[0].value for field in base.args[1].elts]
    for item in cls.body:
        if isinstance(item, ast.Assign) and "__slots__" in node_names(item.targets[0]):
            slots = item.value
            names += [slots.value] if isinstance(slots, ast.Constant) else [
                element.value for element in slots.elts]
    return names


def record_fields() -> list[tuple[str, str]]:
    """(field name, ``module: Class.field``) of every package record field."""
    return [
        (name, f"{module}: {cls.name}.{name}")
        for module, cls in package_classes()
        for name in field_names(cls)
    ]


def test_record_fields_are_read():
    fields = record_fields()
    read = {
        node.attr
        for path in USERS
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(label for name, label in fields if name not in read) == []


# Field names that several records declare. The reads of each such field
# were checked by hand; a name added here needs the same check.
SHARED_FIELD_NAMES = ["hits", "id", "label", "relation", "senses", "suggestion"]


def test_shared_record_field_names_are_pinned():
    names = Counter(name for name, _ in record_fields())
    assert sorted(name for name, count in names.items() if count > 1) == SHARED_FIELD_NAMES


def is_stub(function: ast.FunctionDef) -> bool:
    """A body of ``...`` alone, as a Protocol method has."""
    statement, *rest = function.body
    return (not rest and isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant) and statement.value.value is Ellipsis)


def test_parameters_are_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function in ast.walk(parse(path)):
            if not isinstance(function, ast.FunctionDef) or is_stub(function):
                continue
            arguments = function.args
            parameters = [arg.arg for arg in (
                *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                *filter(None, (arguments.vararg, arguments.kwarg)),
            )]
            read = {node.id for statement in function.body for node in ast.walk(statement)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}: {function.name}({parameter})" for parameter in parameters
                       if parameter not in ("self", "cls", *read)]
    assert unread == []


def nodes_inside_and_outside(is_counted, module: str, name: str) -> tuple[list[str], list[str]]:
    """``module:line`` of each package node ``is_counted`` accepts, split by
    whether it lies in the top-level function or assignment ``name`` of
    ``module`` or elsewhere."""
    def defines(node):
        if isinstance(node, ast.FunctionDef):
            return node.name == name
        return isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets)

    inside, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        owner = [node for node in tree.body if path.name == module and defines(node)]
        allowed = {id(node) for top in owner for node in ast.walk(top)}
        for node in ast.walk(tree):
            if is_counted(node):
                (inside if id(node) in allowed else outside).append(f"{path.name}:{node.lineno}")
    return inside, outside


def test_only_records_splits_lines():
    def splits_lines(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "splitlines")

    inside, outside = nodes_inside_and_outside(splits_lines, "ontology.py", "records")
    assert outside == []
    assert len(inside) == 1


def test_only_relation_names_reads_enum_value():
    def loads_value(node):
        return (isinstance(node, ast.Attribute) and node.attr == "value"
                and isinstance(node.ctx, ast.Load))

    inside, outside = nodes_inside_and_outside(loads_value, "ontology.py", "RELATION_NAMES")
    assert outside == []
    assert len(inside) == 1


def test_only_textpipe_reads_the_phrase_table():
    fields = {"phrases", "postings", "texts", "surfaces"}
    inside, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if (isinstance(node, ast.Attribute) and node.attr in fields
                    and isinstance(node.ctx, ast.Load)):
                (inside if path.name == "textpipe.py" else outside).append(
                    f"{path.name}:{node.lineno}")
    assert outside == []
    assert inside


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOC_SAMPLE = '''"""Module docstring.

second paragraph"""
# a comment line
x = 1  # a comment after code

def f():
    """One line."""
    text = """a string that
# looks like a comment
"""
'''


def test_line_census_counts_each_line_once():
    loc = load_script("loc")
    assert loc.census(LOC_SAMPLE) == {"code": 5, "docstring": 4, "comment": 1, "blank": 1}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts = loc.census(text)
        assert list(counts) == list(loc.KINDS)
        assert sum(counts.values()) == text.count("\n"), path.name
