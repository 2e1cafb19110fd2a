"""The options of the public API, pinned.

Every parameter with a default of a callable in ``bmwfusion.__all__`` is
listed here (a class through its ``__init__``; exception classes are
skipped), so a new option, a removed one or a changed default shows up
as a deliberate diff of this file.
"""

import inspect

import bmwfusion

OPTIONS = [
    ("AlgebraContext", "cache_dir", "None"),
    ("AlgebraContext", "verify", "True"),
    ("Idempotent", "contents", "()"),
    ("Idempotent", "verified", "<factory>"),
    ("RatFunc", "den", "(1,)"),
    ("RatFunc", "var", "'u'"),
    ("RatFunc", "_normalized", "False"),
    ("TruncLaurent", "prec", "None"),
    ("antisymmetrizer", "form", "'chain'"),
    ("brauer_idempotent_via_contraction", "prec", "None"),
    ("brauer_idempotent_via_contraction", "ctx", "None"),
    ("build_context", "params", "None"),
    ("build_context", "q", "None"),
    ("build_context", "nu", "None"),
    ("build_context", "cache_dir", "None"),
    ("check_reflection", "which", "'L'"),
    ("check_reflection", "contents", "None"),
    ("classical_contents", "t_classical", "False"),
    ("laurent_params", "prec", "4"),
    ("symmetrizer", "form", "'chain'"),
]


def public_options():
    out = []
    for name in bmwfusion.__all__:
        obj = getattr(bmwfusion, name)
        if isinstance(obj, type):
            if issubclass(obj, BaseException):
                continue
            obj = obj.__init__
        elif not callable(obj):
            continue
        for p in inspect.signature(obj).parameters.values():
            if p.default is not inspect.Parameter.empty:
                out.append((name, p.name, repr(p.default)))
    return out


def test_public_options_are_pinned():
    assert public_options() == OPTIONS
    assert len(OPTIONS) == 20
