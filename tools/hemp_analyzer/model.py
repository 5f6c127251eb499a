"""Intermediate representation between hemp_analyzer's frontend and checks.

The token-scanning frontend (frontend_text.py) lowers every source file to
this small IR, and the checks in checks.py read only the IR:

  * FunctionInfo  — one function/method definition or declaration, with its
    normalized qualified name, annotations, parameter/return signature, and
    the call/op events observed in its body.
  * CallEvent     — a named call site (with receiver identifier/type when the
    frontend could bind it) at a source line.
  * OpEvent       — an intrinsic operation the purity check treats as a sink
    on its own: `new` expressions, `throw` expressions, raw stream tokens.
  * ClassInfo     — class name, base classes and member-variable types, used
    for receiver typing and virtual-dispatch over-approximation.
  * MemberInfo    — one variable declaration: a data member, a
    namespace-scope variable, or a `double` declared in a function body.

Qualified names are normalized for baseline stability: anonymous-namespace
components are dropped, so `hemp::(anonymous namespace)::NodeRunner::run`
keys as `hemp::NodeRunner::run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Nondeterminism vocabulary, shared by the determinism check and by the
# frontend (which surfaces bare type mentions as "ident" op events).
NONDET_CALLS = {"rand", "srand", "random_device", "time", "clock",
                "gettimeofday", "clock_gettime", "getrandom", "rand_r",
                "mt19937", "mt19937_64", "default_random_engine"}
NONDET_TOKENS = {"random_device", "system_clock", "steady_clock",
                 "high_resolution_clock", "mt19937", "mt19937_64",
                 "default_random_engine"}
UNORDERED_TOKENS = {"unordered_map", "unordered_set", "unordered_multimap",
                    "unordered_multiset"}


@dataclass
class CallEvent:
    name: str                    # simple callee name, e.g. "push_back"
    qualifier: str = ""          # explicit qualifier as written: "std", "Foo"
    receiver: str = ""           # receiver identifier for x.f() / x->f()
    receiver_type: str = ""      # bound receiver type when known
    line: int = 0


@dataclass
class OpEvent:
    kind: str                    # "new" | "throw" | "io-token" | "ident"
    detail: str = ""             # e.g. the io token ("cout") or identifier
    line: int = 0


@dataclass
class ParamInfo:
    type_tokens: tuple = ()      # e.g. ("const", "double", "&")
    name: str = ""
    line: int = 0


@dataclass
class FunctionInfo:
    name: str                    # simple name
    qualname: str                # normalized, e.g. "hemp::NodeRunner::run"
    class_name: str = ""         # enclosing class simple name ("" for free)
    file: str = ""
    line: int = 0
    is_definition: bool = False
    annotations: set = field(default_factory=set)  # {"hemp::hot", ...}
    params: list = field(default_factory=list)     # [ParamInfo]
    return_tokens: tuple = ()
    calls: list = field(default_factory=list)      # [CallEvent]
    ops: list = field(default_factory=list)        # [OpEvent]
    local_types: dict = field(default_factory=dict)  # var name -> type name
    # `double` declarations in the body: locals, loop and lambda parameters.
    locals: list = field(default_factory=list)     # [MemberInfo]


@dataclass
class MemberInfo:
    type_tokens: tuple = ()
    name: str = ""
    line: int = 0
    scope: str = ""              # enclosing namespace of a namespace variable


@dataclass
class ClassInfo:
    name: str                    # simple name
    qualname: str
    file: str = ""
    line: int = 0
    bases: list = field(default_factory=list)      # simple base names
    members: list = field(default_factory=list)    # [MemberInfo]
    member_types: dict = field(default_factory=dict)  # member name -> type


@dataclass
class FileIR:
    path: str                    # as analyzed (absolute or repo-relative)
    functions: list = field(default_factory=list)
    classes: list = field(default_factory=list)
    variables: list = field(default_factory=list)  # [MemberInfo], with scope
    # line -> set of check names suppressed by an inline marker on that line
    suppressions: dict = field(default_factory=dict)


def type_name_from_tokens(tokens) -> str:
    """Outermost type name from a declaration's type tokens.

    ("const", "BatchFleetKernel::Shared", "&") -> "Shared"
    ("std::vector", "<", "int", ">", "*")      -> "vector"
    """
    for tok in tokens:
        if tok in ("const", "constexpr", "static", "mutable", "inline",
                   "volatile", "struct", "class", "typename", "&", "*",
                   "&&"):
            continue
        if tok in ("<", ">", ","):
            break
        return tok.split("::")[-1]
    return ""
