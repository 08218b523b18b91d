"""No helper of ``qgroups`` loses its last caller unnoticed.

The test reads every module of the package with ``ast`` and collects the
top-level functions and the methods of top-level classes (dunder methods
aside, which Python calls implicitly).  A name counts as used when some
module of the package reads it, as a plain name or as an attribute.  The
names nothing reads must be exactly ``ALLOWED``.  A helper that a change
leaves without a caller then fails here, and must either go (to
``tests/retired_helpers.py`` when a test still needs it) or be listed below
with its reason.
"""

import ast
import os

import qgroups

ALLOWED = {
    # paper-facing constructs
    "coideal_span", "defining_property_holds", "dot_action", "omega_compatible",
    "omega_counit_reconstructs", "section_times_invariant",
    # called by the benchmark harness
    "LaurentPoly.degree", "char_decompose_oracle",
    # serialization
    "CartanData.to_json", "CoeffElement.from_json", "CoeffElement.to_json",
    "HomBasis.to_json", "Section.from_json", "Section.to_json",
    # argparse calls it
    "ArgumentParser.error",
    # public helpers that the tests call
    "CoeffElement.support", "LaurentPoly.lowest", "LeviBranching.total_dim", "Mat.column",
    "dot_on_section", "poly_gcd", "relations_ok",
}


def package_trees():
    src = os.path.dirname(qgroups.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                yield ast.parse(fh.read())


def orphans():
    defined, used = set(), set()
    for tree in package_trees():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, ast.ClassDef):
                defined.update(f"{node.name}.{sub.name}" for sub in node.body
                               if isinstance(sub, ast.FunctionDef)
                               and not (sub.name.startswith("__") and sub.name.endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {name for name in defined if name.rpartition(".")[2] not in used}


def test_uncalled_helpers_are_exactly_the_allowed_ones():
    found = orphans()
    assert found - ALLOWED == set(), "helpers with no caller in qgroups"
    assert ALLOWED - found == set(), "allowed names that now have a caller or are gone"
