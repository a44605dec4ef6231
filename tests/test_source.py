"""Properties of the package source itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# public functions that only tests call, each with its reason
TEST_ONLY = {
    # paper criteria 7 and 11 and the theta identities, which run in
    # tests/test_acceptance.py and tests/test_theta.py until they are checks
    "curvefamily.elastica_constants": "criterion 7",
    "curvefamily.hyperbolic_standardize": "criterion 7",
    "curvefamily.hyperbolic_speed": "criterion 7",
    "elliptic.g2g3": "criterion 11",
    "theta.quasiperiodicity_residual": "theta identity",
    "theta.rhombic_conjugation_residual": "theta identity",
    "theta.addition_formula_residual": "theta identity",
    # reference implementations that tests compare the fast paths against
    "reparam.s_of_w": "reference for the spherical construction's s(w)",
}


def _is_command(fn):
    """Whether fn is a click command or group: click calls it."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in fn.decorator_list)


def test_every_public_function_has_a_caller():
    """Each public function or method of src/isoforge is named somewhere in
    src/ or perfbench/ outside its own definition, or is in TEST_ONLY: code
    that only tests call does not grow in the package unnoticed."""
    sources = sorted((ROOT / "src" / "isoforge").glob("*.py"))
    defined = {}
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in body:
                if (isinstance(fn, ast.FunctionDef)
                        and not fn.name.startswith("_")
                        and not _is_command(fn)):
                    owner = f"{node.name}." if fn is not node else ""
                    defined[f"{path.stem}.{owner}{fn.name}"] = fn.name
    named = set()
    for path in sources + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    uncalled = {key for key, name in defined.items() if name not in named}
    assert uncalled == set(TEST_ONLY)


# annotated class fields that nothing in src/ or perfbench/ reads, by class
# or by field, each with its reason
UNREAD_FIELDS = {
    # read by tests/test_acceptance.py until criterion 7 is a check
    "curvefamily.ElasticaConstants": "criterion 7",
}


def test_every_field_is_read():
    """Each annotated field of a class of src/isoforge is read as an
    attribute (obj.field) somewhere in src/ or perfbench/, or it or its
    class is in UNREAD_FIELDS: setting a field by a constructor keyword
    does not count, so a field that only tests read does not grow in the
    package unnoticed."""
    sources = sorted((ROOT / "src" / "isoforge").glob("*.py"))
    fields = {}
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)):
                        key = f"{path.stem}.{node.name}.{stmt.target.id}"
                        fields[key] = stmt.target.id
    read = set()
    for path in sources + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
    unread = {key for key, name in fields.items() if name not in read}
    # (field, entry) pairs: an entry names a field, or a class for all of
    # its fields
    pairs = {(key, entry) for key in unread for entry in UNREAD_FIELDS
             if f"{key}.".startswith(f"{entry}.")}
    assert {key for key, _ in pairs} == unread
    assert {entry for _, entry in pairs} == set(UNREAD_FIELDS)


def test_only_the_cli_sets_the_allocator_policy():
    """ctypes and mallopt appear in src/isoforge/cli.py alone: a command
    may set a process-wide malloc policy, importing a library module sets
    none."""
    sources = sorted((ROOT / "src" / "isoforge").glob("*.py"))
    naming = {path.name for path in sources for word in ("ctypes", "mallopt")
              if word in path.read_text()}
    assert naming == {"cli.py"}
