"""Pure-Python C++ frontend for hemp_analyzer.

Lowers a C++ source file to the FileIR in model.py with no compiler in the
loop: a comment/string-aware tokenizer, a scope tracker (namespace / class /
enum), and a function-body scanner that records call and op events with
receiver identifiers bound to declared types where the declaration is
visible, plus the `double` declarations the unit-boundary check reads.

This is a *lint* frontend, not a compiler: overload resolution, templates and
macro expansion are approximated (see checks.py for the resolution policy).
It is deliberately conservative where the approximation matters for the
purity check — macro call sites like HEMP_REQUIRE are kept as call events so
the throwing helpers behind them stay reachable by name.
"""

from __future__ import annotations

import re
from pathlib import Path

from model import (NONDET_TOKENS, UNORDERED_TOKENS, CallEvent, ClassInfo,
                   FileIR, FunctionInfo, MemberInfo, OpEvent, ParamInfo,
                   type_name_from_tokens)

SUPPRESS_RE = re.compile(r"hemp-analyzer:\s*allow\(([^)]*)\)")
# `// unit-lint: <reason>` is the short form of allow(unit-boundary), kept
# for the reviewed exemptions in src/ that predate the analyzer.
UNIT_LINT_MARKER = "unit-lint:"

HOT_MACRO = "HEMP_HOT"
HOT_ANNOTATION = "hemp::hot"

# Keywords that look like calls but are not.
NON_CALL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "decltype", "noexcept", "defined", "alignas", "typeid", "static_assert",
    "throw", "new", "delete", "do", "else", "case", "default", "template",
    "using", "typedef", "operator", "co_return", "co_await", "co_yield",
    "assert",
}

TYPE_QUALIFIERS = {
    "const", "constexpr", "static", "mutable", "inline", "volatile",
    "struct", "class", "typename", "unsigned", "signed", "virtual",
    "explicit", "friend", "extern", "thread_local", "register",
}

IO_TOKENS = {"cout", "cerr", "clog", "wcout", "wcerr", "printf", "fprintf",
             "sprintf", "snprintf", "vprintf", "puts", "putchar", "fputs",
             "fwrite", "ofstream", "ifstream", "fstream", "stringstream",
             "ostringstream", "istringstream"}
# Of the IO_TOKENS, these are functions: they surface as call events, the
# rest as identifier op events.

TOKEN_RE = re.compile(r"""
    (?P<id>[A-Za-z_]\w*(?:::[A-Za-z_]\w*|::operator[^\s\w(]{1,2})*)
  | (?P<num>\.?\d(?:[\w.]|[eEpP][+-])*)
  | (?P<arrow>->)
  | (?P<scope>::)
  | (?P<punct>[{}()\[\];:,<>=.&*+\-/!%^|~?#])
""", re.VERBOSE)


def _blank_comments_strings(text: str):
    """Blank comments, string and char literals (newlines preserved).

    Returns (clean_text, suppressions, line_comments) where suppressions maps
    line -> set of suppressed check names and line_comments maps line -> the
    raw comment text found on it (used for annotation-adjacent markers).
    """
    out = []
    suppress = {}
    i, n = 0, len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            out.append(c)
            line += 1
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            comment = text[i:j]
            # A marker trailing code applies to its own line; a marker on a
            # line of its own applies to the NEXT line (NOLINTNEXTLINE
            # style), so long signatures stay under the column limit.
            last_nl = text.rfind("\n", 0, i)
            standalone = not text[last_nl + 1:i].strip()
            mark_line = line + 1 if standalone else line
            m = SUPPRESS_RE.search(comment)
            if m:
                checks = {p.strip() for p in m.group(1).split(",") if p.strip()}
                suppress.setdefault(mark_line, set()).update(checks)
            if UNIT_LINT_MARKER in comment:
                suppress.setdefault(mark_line, set()).add("unit-boundary")
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            block = text[i:j]
            m = SUPPRESS_RE.search(block)
            if m:
                checks = {p.strip() for p in m.group(1).split(",") if p.strip()}
                suppress.setdefault(line, set()).update(checks)
            if UNIT_LINT_MARKER in block:
                suppress.setdefault(line, set()).add("unit-boundary")
            for ch in block:
                out.append(ch if ch == "\n" else " ")
                if ch == "\n":
                    line += 1
            i = j
        elif c == '"':
            # Handle raw strings R"tag( ... )tag" without line miscounts.
            if i > 0 and text[i - 1] == "R":
                m = re.match(r'"([^\s()\\]*)\(', text[i:])
                if m:
                    tag = m.group(1)
                    j = text.find(")" + tag + '"', i)
                    j = n if j == -1 else j + len(tag) + 2
                    for ch in text[i:j]:
                        out.append(ch if ch == "\n" else " ")
                        if ch == "\n":
                            line += 1
                    i = j
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            for ch in text[i:j]:
                out.append(ch if ch == "\n" else " ")
                if ch == "\n":
                    line += 1
            i = j
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            out.append(" " * (j - i))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out), suppress


def _tokenize(clean: str):
    """[(token, line)] over the blanked source, preprocessor lines dropped."""
    # Drop preprocessor directives (keep lines): they are not C++ statements
    # and a multi-line #define would otherwise desync the scope tracker.
    lines = clean.split("\n")
    kept = []
    cont = False
    for raw in lines:
        stripped = raw.lstrip()
        if cont or stripped.startswith("#"):
            cont = raw.rstrip().endswith("\\")
            kept.append("")
        else:
            cont = False
            kept.append(raw)
    tokens = []
    for lineno, raw in enumerate(kept, start=1):
        for m in TOKEN_RE.finditer(raw):
            tokens.append((m.group(0), lineno))
    return tokens


def _match_forward(tokens, i, open_tok, close_tok):
    """Index just past the matching close token; tokens[i] == open_tok."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i][0]
        if t == open_tok:
            depth += 1
        elif t == close_tok:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


class _Scope:
    def __init__(self, kind, name="", cls=None):
        self.kind = kind          # "namespace" | "class" | "block"
        self.name = name
        self.cls = cls            # ClassInfo for class scopes


class TextFrontend:
    """Parses one file into a FileIR."""

    def parse(self, path: str, text: str | None = None) -> FileIR:
        if text is None:
            text = Path(path).read_text(errors="replace")
        clean, suppressions = _blank_comments_strings(text)
        tokens = _tokenize(clean)
        ir = FileIR(path=path, suppressions=suppressions)
        self._parse_scope_stream(tokens, ir)
        return ir

    # ------------------------------------------------------------------
    # Scope-level parsing
    # ------------------------------------------------------------------

    def _parse_scope_stream(self, tokens, ir):
        scopes = []
        pending = []   # [(token, line)] accumulated since the last boundary
        i, n = 0, len(tokens)
        while i < n:
            tok, line = tokens[i]
            if tok == "{":
                i = self._handle_open_brace(tokens, i, pending, scopes, ir)
                pending = []
            elif tok == "}":
                if scopes:
                    scopes.pop()
                i += 1
                # Skip a trailing ';' after class/struct definitions.
                if i < n and tokens[i][0] == ";":
                    i += 1
                pending = []
            elif tok == ";":
                self._handle_statement(pending, scopes, ir)
                pending = []
                i += 1
            elif tok in ("public", "private", "protected") and \
                    i + 1 < n and tokens[i + 1][0] == ":":
                pending = []
                i += 2
            else:
                pending.append((tok, line))
                i += 1

    def _namespace_path(self, scopes):
        parts = []
        for s in scopes:
            if s.kind == "namespace" and s.name:
                parts.extend(s.name.split("::"))
            elif s.kind == "class":
                parts.append(s.name)
        return parts

    def _enclosing_class(self, scopes):
        for s in reversed(scopes):
            if s.kind == "class":
                return s.cls
        return None

    def _handle_open_brace(self, tokens, i, pending, scopes, ir):
        """Dispatch on what the pending tokens declare.  Returns new index."""
        words = [t for t, _ in pending]
        if words and words[0] == "namespace":
            name = words[1] if len(words) > 1 else ""
            scopes.append(_Scope("namespace", name))
            return i + 1
        if words and words[0] == "extern":
            scopes.append(_Scope("block"))
            return i + 1
        if "enum" in words:
            return _match_forward(tokens, i, "{", "}")
        cls_kw = next((k for k in ("class", "struct", "union") if k in words),
                      None)
        if cls_kw is not None and "(" not in words and "=" not in words:
            return self._open_class(tokens, i, pending, scopes, ir, cls_kw)
        if "(" in words and "=" not in words[:words.index("(")]:
            return self._parse_function(tokens, i, pending, scopes, ir,
                                        has_body=True)
        # Brace initializer: `Volts x{1.0};` — treat the brace group as part
        # of a member or namespace-scope variable declaration.
        end = _match_forward(tokens, i, "{", "}")
        if "(" not in words:
            self._record_variable(pending, scopes, ir)
        return end

    def _open_class(self, tokens, i, pending, scopes, ir, kw):
        words = [(t, ln) for t, ln in pending]
        names = [w for w, _ in words]
        k = names.index(kw)
        # Skip attribute-ish tokens between the keyword and the name.
        name, line = "", pending[-1][1]
        for w, ln in words[k + 1:]:
            if w in (":", "final"):
                break
            # `struct Outer::Nested` defines Nested: key by the last
            # component so receiver-typed calls on it resolve.
            if re.match(r"[A-Za-z_][\w:]*$", w):
                name, line = w.split("::")[-1], ln
        bases = []
        if ":" in names[k + 1:]:
            ci = names.index(":", k + 1)
            for w, _ in words[ci + 1:]:
                if w in ("public", "private", "protected", "virtual", ",",
                         "<", ">"):
                    continue
                if re.match(r"[A-Za-z_]", w):
                    bases.append(w.split("::")[-1])
        qual = "::".join(self._namespace_path(scopes) + [name]) if name else ""
        cls = ClassInfo(name=name or "<anon>", qualname=qual, file=ir.path,
                        line=line, bases=bases)
        ir.classes.append(cls)
        scopes.append(_Scope("class", name or "<anon>", cls))
        return i + 1

    def _handle_statement(self, pending, scopes, ir):
        """A `;`-terminated statement at namespace/class scope."""
        if not pending:
            return
        words = [t for t, _ in pending]
        if words[:2] == ["template", "<"]:
            pending = pending[_match_forward(pending, 1, "<", ">"):]
            words = [t for t, _ in pending]
        if not words or words[0] in ("using", "typedef", "template",
                                     "namespace") or \
                (words[0] == "friend" and "(" not in words):
            return
        if "(" in words and "=" not in words[:words.index("(")] and \
                words[0] != "return":
            # Function declaration (no body).
            self._parse_signature_only(pending, scopes, ir)
            return
        self._record_variable(pending, scopes, ir)

    def _record_variable(self, pending, scopes, ir):
        """Variable declaration: a class member (name -> type bound for
        receiver typing) or a namespace-scope variable."""
        words = [t for t, _ in pending]
        eq = words.index("=") if "=" in words else len(words)
        decl = pending[:eq]
        while decl and decl[-1][0] == "]":  # array extents: `x[4]`
            decl = decl[:max((k for k, (t, _) in enumerate(decl) if t == "["),
                             default=0)]
        if len(decl) < 2:
            return
        name_tok, line = decl[-1]
        if not re.match(r"[A-Za-z_]\w*$", name_tok):
            return
        var = MemberInfo(type_tokens=tuple(t for t, _ in decl[:-1]),
                         name=name_tok, line=line)
        cls = self._enclosing_class(scopes)
        if cls is None:
            var.scope = "::".join(self._namespace_path(scopes))
            ir.variables.append(var)
            return
        cls.members.append(var)
        tname = type_name_from_tokens(var.type_tokens)
        if tname:
            cls.member_types[name_tok] = tname

    # ------------------------------------------------------------------
    # Function parsing
    # ------------------------------------------------------------------

    def _split_signature(self, pending):
        """Split pending tokens into (pre, params, name, name_line) at the
        first top-level paren group preceded by an identifier."""
        words = [t for t, _ in pending]
        # Find the first '(' whose preceding token is an identifier (or
        # `operator` form); this is the parameter list for declarations.
        for k, w in enumerate(words):
            if w != "(":
                continue
            if k == 0:
                continue
            prev = words[k - 1]
            if prev == "operator":
                name = "operator()"
            elif re.match(r"[A-Za-z_][\w:]*$", prev):
                name = prev
            elif k >= 2 and words[k - 2] == "operator":
                name = "operator" + prev
            else:
                continue
            # Collect the parenthesized group.
            depth = 0
            for j in range(k, len(pending)):
                if words[j] == "(":
                    depth += 1
                elif words[j] == ")":
                    depth -= 1
                    if depth == 0:
                        return (pending[:k - 1], pending[k + 1:j], name,
                                pending[k - 1][1], pending[j + 1:])
            return None
        return None

    def _parse_params(self, param_tokens):
        """Parameter list -> [ParamInfo]; splits on top-level commas."""
        groups, cur = [], []
        depth = 0
        for tok, line in param_tokens:
            if tok in ("<", "(", "[", "{"):
                depth += 1
            elif tok in (">", ")", "]", "}"):
                depth -= 1
            if tok == "," and depth <= 0:
                groups.append(cur)
                cur = []
            else:
                cur.append((tok, line))
        if cur:
            groups.append(cur)
        params = []
        for g in groups:
            words = [t for t, _ in g]
            if not words or words == ["void"]:
                continue
            eq = words.index("=") if "=" in words else len(words)
            g = g[:eq]
            if not g:
                continue
            name_tok, line = g[-1]
            if re.match(r"[A-Za-z_]\w*$", name_tok) and len(g) > 1:
                params.append(ParamInfo(
                    type_tokens=tuple(t for t, _ in g[:-1]),
                    name=name_tok, line=line))
            else:
                params.append(ParamInfo(type_tokens=tuple(t for t, _ in g),
                                        name="", line=g[-1][1]))
        return params

    def _make_function(self, pending, scopes, ir, has_body):
        split = self._split_signature(pending)
        if split is None:
            return None
        pre, param_toks, name, line, _post = split
        pre_words = [t for t, _ in pre]
        annotations = set()
        if HOT_MACRO in pre_words:
            annotations.add(HOT_ANNOTATION)
            pre_words = [w for w in pre_words if w != HOT_MACRO]
        # Qualified definition name: `Class::method` written at namespace
        # scope contributes the class component.
        simple = name.split("::")[-1]
        explicit_path = name.split("::")[:-1]
        ns_path = self._namespace_path(scopes) + explicit_path
        cls = self._enclosing_class(scopes)
        class_name = explicit_path[-1] if explicit_path else (
            cls.name if cls is not None else "")
        qual = "::".join([p for p in ns_path if p] + [simple])
        ret = tuple(w for w in pre_words
                    if w not in ("virtual", "inline", "static", "explicit",
                                 "friend", "constexpr", "[", "]", "nodiscard"))
        fn = FunctionInfo(name=simple, qualname=qual, class_name=class_name,
                          file=ir.path, line=line, is_definition=has_body,
                          annotations=annotations,
                          params=self._parse_params(param_toks),
                          return_tokens=ret)
        for p in fn.params:
            tname = type_name_from_tokens(p.type_tokens)
            if p.name and tname:
                fn.local_types[p.name] = tname
        return fn

    def _parse_signature_only(self, pending, scopes, ir):
        fn = self._make_function(pending, scopes, ir, has_body=False)
        if fn is not None:
            ir.functions.append(fn)

    def _parse_function(self, tokens, i, pending, scopes, ir, has_body):
        fn = self._make_function(pending, scopes, ir, has_body)
        end = _match_forward(tokens, i, "{", "}")
        if fn is None:
            return end
        cls = self._enclosing_class(scopes)
        if cls is not None and not fn.class_name:
            fn.class_name = cls.name
        self._scan_body(tokens, i + 1, end - 1, fn, cls)
        ir.functions.append(fn)
        return end

    # ------------------------------------------------------------------
    # Body scanning: calls, ops, local declarations
    # ------------------------------------------------------------------

    def _scan_body(self, tokens, lo, hi, fn, cls):
        i = lo
        while i < hi:
            tok, line = tokens[i][0], tokens[i][1]
            nxt = tokens[i + 1][0] if i + 1 < hi else ""
            if tok == "new":
                fn.ops.append(OpEvent(kind="new", detail="new", line=line))
                i += 1
                continue
            if tok == "throw":
                fn.ops.append(OpEvent(kind="throw", detail="throw",
                                      line=line))
                i += 1
                continue
            if re.match(r"[A-Za-z_]", tok):
                base = tok.split("::")[-1]
                if base in IO_TOKENS and nxt != "(":
                    fn.ops.append(OpEvent(kind="io-token", detail=base,
                                          line=line))
                # Bare nondet/unordered type mentions never parse as calls
                # (`std::mt19937 gen{...}`, `system_clock::now()`); keep
                # every qualifier component for the determinism check — the
                # final component only when it is not itself the callee.
                for part in tok.split("::"):
                    if part in NONDET_TOKENS | UNORDERED_TOKENS and \
                            not (part == base and nxt == "("):
                        fn.ops.append(OpEvent(kind="ident", detail=part,
                                              line=line))
                # Template call: name<...>(...).
                call_at = None
                if nxt == "(" and tok not in NON_CALL_KEYWORDS:
                    call_at = i
                elif nxt == "<" and tok not in NON_CALL_KEYWORDS:
                    close = self._match_template(tokens, i + 1, hi)
                    if close is not None and close < hi and \
                            tokens[close][0] == "(":
                        call_at = i
                if call_at is not None:
                    qualifier = "::".join(tok.split("::")[:-1])
                    receiver = ""
                    j = i - 1
                    if j >= lo and tokens[j][0] in (".", "->"):
                        if j - 1 >= lo and \
                                re.match(r"[A-Za-z_)\]]",
                                         tokens[j - 1][0][:1]):
                            receiver = tokens[j - 1][0]
                    if receiver == ")":
                        receiver = ""
                    if receiver == "this":
                        receiver = ""
                        if cls is not None:
                            qualifier = qualifier or cls.name
                    fn.calls.append(CallEvent(name=base, qualifier=qualifier,
                                              receiver=receiver, line=line))
                # Local declaration `Type name ...`: bind name -> type.
                self._try_bind_local(tokens, i, hi, fn)
                if tok == "double":
                    self._record_double_local(tokens, i, hi, fn)
            i += 1

    def _match_template(self, tokens, i, hi):
        """tokens[i] == '<': index just past matching '>' or None."""
        depth = 0
        j = i
        while j < hi and j < i + 64:
            t = tokens[j][0]
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif t in (";", "{", "}"):
                return None
            j += 1
        return None

    def _record_double_local(self, tokens, i, hi, fn):
        """`double [&] name` in a body: a local, loop variable or lambda
        parameter.  Casts and template arguments have no name after them."""
        j = i + 1
        while j < hi and tokens[j][0] in ("&", "const"):
            j += 1
        if j < hi and re.match(r"[A-Za-z_]\w*$", tokens[j][0]) and \
                tokens[j][0] not in NON_CALL_KEYWORDS:
            fn.locals.append(MemberInfo(
                type_tokens=tuple(t for t, _ in tokens[i:j]),
                name=tokens[j][0], line=tokens[j][1]))

    def _try_bind_local(self, tokens, i, hi, fn):
        """`Type name` followed by = ; { ( , ) binds a local variable type."""
        tok = tokens[i][0]
        if tok in TYPE_QUALIFIERS or tok in NON_CALL_KEYWORDS:
            return
        j = i + 1
        # Allow template args and ref/pointer markers between type and name.
        if j < hi and tokens[j][0] == "<":
            close = self._match_template(tokens, j, hi)
            if close is None:
                return
            j = close
        while j < hi and tokens[j][0] in ("&", "*", "&&", "const"):
            j += 1
        if j >= hi or not re.match(r"[A-Za-z_]\w*$", tokens[j][0]):
            return
        name = tokens[j][0]
        after = tokens[j + 1][0] if j + 1 < hi else ""
        if after in ("=", ";", "{", "(", ","):
            tname = tok.split("::")[-1]
            if tname and tname[0].isupper() and name not in fn.local_types:
                fn.local_types[name] = tname
