"""Whole-program call graph over a set of analyzed modules.

Resolution strategy (module-qualified, best-effort, explicitly
conservative):

* module scopes are built from top-level *and* function-level imports
  plus locally defined classes/functions;
* ``self.meth()`` resolves through the enclosing class's linearized
  bases, **plus** every subclass override (dynamic dispatch is modelled
  by edges to all candidates);
* ``self.attr.meth()`` resolves through inferred attribute types:
  every ``self.attr = ClassName(...)`` in any method contributes
  ``ClassName`` to ``attr``'s type set;
* local variables pick up types from ``var = ClassName(...)``
  assignments and parameter annotations;
* ``super().meth()`` resolves into the base classes only.

Everything else becomes either an *external* site (builtins, stdlib,
container methods on externally-typed receivers) or a
*conservatively-unresolved* site (a computed callee that might target
program code — ``d[key]()``, unknown receiver types whose method name
exists somewhere in the program).  Unresolved sites matter: the rules
treat them as "unknown effects" (an escape for resource values).
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.context import ModuleContext

_BUILTIN_NAMES = frozenset(dir(builtins))

#: resolution outcomes for a call site
RESOLVED = "resolved"
EXTERNAL = "external"
UNRESOLVED = "unresolved"

#: sentinel class qualname for values of non-program (stdlib) types
EXTERNAL_TYPE = "<external>"


@dataclass
class FunctionInfo:
    """One function or method defined somewhere in the program."""

    qualname: str                 #: "storage/btree.py::BTree.insert"
    module: str                   #: package-relative module path
    name: str
    node: ast.AST                 #: FunctionDef / AsyncFunctionDef
    cls: Optional["ClassInfo"] = None

    @property
    def params(self) -> List[str]:
        args = self.node.args
        return [a.arg for a in args.posonlyargs + args.args]

    @property
    def is_method(self) -> bool:
        return self.cls is not None and "." not in self.qualname.split(
            "::", 1)[1].replace(f"{self.cls.name}.", "", 1)


@dataclass
class ClassInfo:
    """One class defined in the program."""

    qualname: str                 #: "storage/buffer_pool.py::BufferPool"
    module: str
    name: str
    node: ast.ClassDef
    base_refs: List[str] = field(default_factory=list)  #: class qualnames
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> set of class qualnames (may include EXTERNAL_TYPE)
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    subclasses: Set[str] = field(default_factory=set)


@dataclass
class CallSite:
    """One syntactic call inside a program function."""

    caller: FunctionInfo
    call: ast.Call
    name: str                     #: best-effort callee name ("" if opaque)
    status: str                   #: RESOLVED / EXTERNAL / UNRESOLVED
    targets: List[FunctionInfo] = field(default_factory=list)
    reason: str = ""              #: why a site is unresolved


class _ModuleScope:
    """name -> ("class"|"func"|"module"|"extmodule"|"extname", payload)"""

    def __init__(self) -> None:
        self.names: Dict[str, Tuple[str, str]] = {}


def _module_path_candidates(dotted: str) -> List[str]:
    """Package-relative paths a dotted module name may correspond to."""
    parts = dotted.split(".")
    if parts and parts[0] == "repro":
        parts = parts[1:]
    if not parts:
        return ["__init__.py"]
    return ["/".join(parts) + ".py", "/".join(parts) + "/__init__.py"]


class CallGraph:
    """Functions, classes and resolved call sites of one program."""

    def __init__(self, contexts: Dict[str, ModuleContext]) -> None:
        self.contexts = contexts
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.scopes: Dict[str, _ModuleScope] = {}
        self.sites: List[CallSite] = []
        self._sites_by_caller: Dict[str, List[CallSite]] = {}
        self._site_by_call: Dict[int, CallSite] = {}
        self._build()

    # -- queries -----------------------------------------------------------

    def sites_in(self, func: FunctionInfo) -> List[CallSite]:
        return self._sites_by_caller.get(func.qualname, [])

    def site_for(self, call: ast.Call) -> Optional[CallSite]:
        return self._site_by_call.get(id(call))

    def edges(self) -> Iterable[Tuple[str, str]]:
        for site in self.sites:
            for target in site.targets:
                yield site.caller.qualname, target.qualname

    def unresolved_sites(self) -> List[CallSite]:
        return [s for s in self.sites if s.status == UNRESOLVED]

    def callees(self, qualname: str) -> Set[str]:
        return {
            t.qualname
            for s in self._sites_by_caller.get(qualname, [])
            for t in s.targets
        }

    def function_for_node(self, module: str,
                          node: ast.AST) -> Optional[FunctionInfo]:
        qual = self.contexts[module].qualname(node)
        return self.functions.get(f"{module}::{qual}")

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        for relpath, ctx in self.contexts.items():
            self._index_module(relpath, ctx)
        self._resolve_bases()
        self._infer_attr_types()
        self._resolve_calls()

    def _index_module(self, relpath: str, ctx: ModuleContext) -> None:
        scope = _ModuleScope()
        self.scopes[relpath] = scope

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = self._find_module(alias.name)
                    if target is not None and alias.asname:
                        scope.names[local] = ("module", target)
                    elif target is None:
                        scope.names[local] = ("extmodule", alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    as_module = self._find_module(f"{base}.{alias.name}")
                    from_module = self._find_module(base)
                    if from_module is not None:
                        scope.names[local] = (
                            "symbol", f"{from_module}::{alias.name}")
                    elif as_module is not None:
                        scope.names[local] = ("module", as_module)
                    else:
                        scope.names[local] = ("extname", alias.name)

        for node in ast.walk(ctx.tree):
            qual = ctx.qualname(node) if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef,
                       ast.ClassDef)) else None
            if isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    qualname=f"{relpath}::{qual}", module=relpath,
                    name=node.name, node=node,
                )
                self.classes[info.qualname] = info
                if "." not in (qual or ""):
                    scope.names[node.name] = ("class", info.qualname)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = self._owning_class(ctx, relpath, node)
                info = FunctionInfo(
                    qualname=f"{relpath}::{qual}", module=relpath,
                    name=node.name, node=node, cls=owner,
                )
                self.functions[info.qualname] = info
                if owner is not None and ctx.parent(node) is owner.node:
                    owner.methods[node.name] = info
                if "." not in (qual or ""):
                    scope.names[node.name] = ("func", info.qualname)

    def _owning_class(self, ctx: ModuleContext, relpath: str,
                      node: ast.AST) -> Optional[ClassInfo]:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested function's self belongs to the method's class.
                continue
            if isinstance(ancestor, ast.ClassDef):
                return self.classes.get(
                    f"{relpath}::{ctx.qualname(ancestor)}")
            break
        return None

    def _find_module(self, dotted: str) -> Optional[str]:
        for candidate in _module_path_candidates(dotted):
            if candidate in self.contexts:
                return candidate
        return None

    def _lookup_scope(self, module: str,
                      name: str) -> Optional[Tuple[str, str]]:
        entry = self.scopes[module].names.get(name)
        if entry is None:
            return None
        if entry[0] == "symbol":
            target_module, symbol = entry[1].split("::", 1)
            resolved = self.scopes[target_module].names.get(symbol)
            if resolved is not None and resolved[0] in ("class", "func"):
                return resolved
            # Symbol imported from a package __init__ that re-exports it.
            for suffix in ("class", "func"):
                qual = f"{target_module}::{symbol}"
                if suffix == "class" and qual in self.classes:
                    return ("class", qual)
                if suffix == "func" and qual in self.functions:
                    return ("func", qual)
            return ("extname", name)
        return entry

    # -- class hierarchy ---------------------------------------------------

    def _resolve_bases(self) -> None:
        for cls in self.classes.values():
            for base in cls.node.bases:
                ref = self._class_ref(cls.module, base)
                if ref is not None:
                    cls.base_refs.append(ref)
        for cls in self.classes.values():
            for base_ref in self._all_bases(cls.qualname):
                base = self.classes.get(base_ref)
                if base is not None:
                    base.subclasses.add(cls.qualname)

    def _class_ref(self, module: str, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            entry = self._lookup_scope(module, expr.id)
            if entry is not None and entry[0] == "class":
                return entry[1]
        elif isinstance(expr, ast.Attribute) and isinstance(
                expr.value, ast.Name):
            entry = self._lookup_scope(module, expr.value.id)
            if entry is not None and entry[0] == "module":
                qual = f"{entry[1]}::{expr.attr}"
                if qual in self.classes:
                    return qual
        elif isinstance(expr, ast.Subscript):
            return self._class_ref(module, expr.value)  # Generic[...]
        return None

    def _all_bases(self, qualname: str) -> List[str]:
        """Transitive base classes, nearest first (linearized, cycles cut)."""
        out: List[str] = []
        seen = {qualname}
        stack = list(self.classes[qualname].base_refs) \
            if qualname in self.classes else []
        while stack:
            ref = stack.pop(0)
            if ref in seen:
                continue
            seen.add(ref)
            out.append(ref)
            cls = self.classes.get(ref)
            if cls is not None:
                stack.extend(cls.base_refs)
        return out

    def lookup_method(self, class_qual: str,
                      name: str) -> Optional[FunctionInfo]:
        for ref in [class_qual] + self._all_bases(class_qual):
            cls = self.classes.get(ref)
            if cls is not None and name in cls.methods:
                return cls.methods[name]
        return None

    def _override_targets(self, class_qual: str,
                          name: str) -> List[FunctionInfo]:
        """The statically-found method plus every subclass override."""
        targets: List[FunctionInfo] = []
        primary = self.lookup_method(class_qual, name)
        if primary is not None:
            targets.append(primary)
        cls = self.classes.get(class_qual)
        if cls is not None:
            for sub_ref in sorted(cls.subclasses):
                sub = self.classes.get(sub_ref)
                if sub is not None and name in sub.methods:
                    if sub.methods[name] not in targets:
                        targets.append(sub.methods[name])
        return targets

    # -- type inference ----------------------------------------------------

    def _infer_attr_types(self) -> None:
        for func in self.functions.values():
            cls = func.cls
            if cls is None:
                continue
            local = self._local_types(func, use_attrs=False)
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        inferred = self._expr_class(func, node.value)
                        if not inferred and isinstance(
                                node.value, ast.Name):
                            # self.pool = pool  (annotated parameter)
                            inferred = local.get(node.value.id, set())
                        if inferred:
                            cls.attr_types.setdefault(
                                target.attr, set()).update(inferred)

    def _annotation_class(self, module: str,
                          annotation: Optional[ast.expr]) -> Set[str]:
        if annotation is None:
            return set()
        if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str):
            entry = self._lookup_scope(module, annotation.value)
        else:
            ref = self._class_ref(module, annotation)
            return {ref} if ref is not None else set()
        if entry is not None and entry[0] == "class":
            return {entry[1]}
        return set()

    def _local_types(self, func: FunctionInfo,
                     use_attrs: bool = True) -> Dict[str, Set[str]]:
        """var name -> possible class qualnames (flow-insensitive)."""
        types: Dict[str, Set[str]] = {}
        args = func.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            inferred = self._annotation_class(func.module, arg.annotation)
            if inferred:
                types[arg.arg] = set(inferred)
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                inferred = self._expr_class(func, node.value)
                if not inferred and use_attrs and isinstance(
                        node.value, ast.Attribute):
                    # p = self.pool  (aliased self attribute)
                    inferred = self._self_attr_types(func, node.value)
                if inferred:
                    types.setdefault(node.targets[0].id, set()).update(
                        inferred)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name):
                inferred = self._annotation_class(func.module,
                                                  node.annotation)
                if inferred:
                    types.setdefault(node.target.id, set()).update(inferred)
        return types

    def _self_attr_types(self, func: FunctionInfo,
                         expr: ast.Attribute) -> Set[str]:
        """Types of a ``self.a.b`` attribute chain via inferred attrs."""
        chain: List[str] = []
        current: ast.expr = expr
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name) or current.id != "self" \
                or func.cls is None:
            return set()
        types: Set[str] = {func.cls.qualname}
        for attr in reversed(chain):
            found: Set[str] = set()
            for base in types:
                if base == EXTERNAL_TYPE:
                    found.add(EXTERNAL_TYPE)
                    continue
                for ref in [base] + self._all_bases(base):
                    owner = self.classes.get(ref)
                    if owner is not None and attr in owner.attr_types:
                        found.update(owner.attr_types[attr])
                        break
            types = found
        return types

    def _expr_class(self, func: FunctionInfo,
                    expr: ast.expr) -> Set[str]:
        """Class qualnames an expression's value may have (constructors)."""
        if isinstance(expr, ast.Call):
            callee = expr.func
            if isinstance(callee, ast.Name):
                entry = self._lookup_scope(func.module, callee.id)
                if entry is not None:
                    if entry[0] == "class":
                        return {entry[1]}
                    if entry[0] in ("extname", "extmodule"):
                        return {EXTERNAL_TYPE}
                if callee.id in _BUILTIN_NAMES:
                    return {EXTERNAL_TYPE}
            elif isinstance(callee, ast.Attribute) and isinstance(
                    callee.value, ast.Name):
                entry = self._lookup_scope(func.module, callee.value.id)
                if entry is not None and entry[0] == "module":
                    qual = f"{entry[1]}::{callee.attr}"
                    if qual in self.classes:
                        return {qual}
                if entry is not None and entry[0] == "extmodule":
                    return {EXTERNAL_TYPE}
        return set()

    def _receiver_types(self, func: FunctionInfo,
                        local_types: Dict[str, Set[str]],
                        expr: ast.expr) -> Set[str]:
        """Possible class qualnames of a method-call receiver."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and func.cls is not None:
                return {func.cls.qualname}
            found = set(local_types.get(expr.id, ()))
            entry = self._lookup_scope(func.module, expr.id)
            if entry is not None and entry[0] == "class":
                found.add(entry[1])   # unbound Class.method(...) access
            return found
        if isinstance(expr, ast.Attribute):
            base_types = self._receiver_types(func, local_types, expr.value)
            found: Set[str] = set()
            for base in base_types:
                if base == EXTERNAL_TYPE:
                    found.add(EXTERNAL_TYPE)
                    continue
                cls = self.classes.get(base)
                if cls is None:
                    continue
                for ref in [base] + self._all_bases(base):
                    owner = self.classes.get(ref)
                    if owner is not None and expr.attr in owner.attr_types:
                        found.update(owner.attr_types[expr.attr])
                        break
            return found
        if isinstance(expr, ast.Call):
            return self._expr_class(func, expr)
        return set()

    # -- call resolution ---------------------------------------------------

    def _resolve_calls(self) -> None:
        for func in self.functions.values():
            ctx = self.contexts[func.module]
            local_types = self._local_types(func)
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                if ctx.enclosing_function(node) is not func.node:
                    continue
                site = self._resolve_call(func, local_types, node)
                self.sites.append(site)
                self._sites_by_caller.setdefault(
                    func.qualname, []).append(site)
                self._site_by_call[id(node)] = site

    def _resolve_call(self, func: FunctionInfo,
                      local_types: Dict[str, Set[str]],
                      call: ast.Call) -> CallSite:
        callee = call.func

        if isinstance(callee, ast.Name):
            return self._resolve_name_call(func, call, callee.id)

        if isinstance(callee, ast.Attribute):
            # super().meth(...)
            if isinstance(callee.value, ast.Call) and isinstance(
                    callee.value.func, ast.Name) \
                    and callee.value.func.id == "super" \
                    and func.cls is not None:
                targets = []
                for base_ref in self._all_bases(func.cls.qualname):
                    base = self.classes.get(base_ref)
                    if base is not None and callee.attr in base.methods:
                        targets = [base.methods[callee.attr]]
                        break
                return CallSite(func, call, callee.attr,
                                RESOLVED if targets else EXTERNAL,
                                targets)

            # module.func(...) via an imported module alias
            if isinstance(callee.value, ast.Name):
                entry = self._lookup_scope(func.module, callee.value.id)
                if entry is not None and entry[0] == "module":
                    qual = f"{entry[1]}::{callee.attr}"
                    if qual in self.functions:
                        return CallSite(func, call, callee.attr, RESOLVED,
                                        [self.functions[qual]])
                    if qual in self.classes:
                        return self._constructor_site(func, call, qual)
                    return CallSite(func, call, callee.attr, EXTERNAL)
                if entry is not None and entry[0] == "extmodule":
                    return CallSite(func, call, callee.attr, EXTERNAL)

            receiver_types = self._receiver_types(
                func, local_types, callee.value)
            targets: List[FunctionInfo] = []
            saw_external = False
            for rtype in sorted(receiver_types):
                if rtype == EXTERNAL_TYPE:
                    saw_external = True
                    continue
                targets.extend(
                    t for t in self._override_targets(rtype, callee.attr)
                    if t not in targets)
            if targets:
                return CallSite(func, call, callee.attr, RESOLVED, targets)
            if saw_external:
                return CallSite(func, call, callee.attr, EXTERNAL)
            if self._name_defined_in_program(callee.attr):
                return CallSite(
                    func, call, callee.attr, UNRESOLVED,
                    reason=f"receiver type of .{callee.attr}() is unknown")
            return CallSite(func, call, callee.attr, EXTERNAL)

        # Computed callee: d[key](), (f or g)(), lambda(...)(), ...
        return CallSite(func, call, "", UNRESOLVED,
                        reason="computed callee expression")

    def _resolve_name_call(self, func: FunctionInfo, call: ast.Call,
                           name: str) -> CallSite:
        # A locally nested def shadows the module scope.
        ctx = self.contexts[func.module]
        for node in ast.walk(func.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name == name and node is not func.node:
                nested = self.function_for_node(func.module, node)
                if nested is not None:
                    return CallSite(func, call, name, RESOLVED, [nested])

        entry = self._lookup_scope(func.module, name)
        if entry is not None:
            if entry[0] == "func":
                return CallSite(func, call, name, RESOLVED,
                                [self.functions[entry[1]]])
            if entry[0] == "class":
                return self._constructor_site(func, call, entry[1])
            if entry[0] in ("extname", "extmodule", "module"):
                return CallSite(func, call, name, EXTERNAL)
        if name in _BUILTIN_NAMES:
            return CallSite(func, call, name, EXTERNAL)
        if self._name_defined_in_program(name):
            return CallSite(func, call, name, UNRESOLVED,
                            reason=f"{name} is not bound in module scope")
        return CallSite(func, call, name, EXTERNAL)

    def _constructor_site(self, func: FunctionInfo, call: ast.Call,
                          class_qual: str) -> CallSite:
        init = self.lookup_method(class_qual, "__init__")
        return CallSite(func, call, self.classes[class_qual].name,
                        RESOLVED if init is not None else EXTERNAL,
                        [init] if init is not None else [])

    def _name_defined_in_program(self, name: str) -> bool:
        if any(f.name == name for f in self.functions.values()):
            return True
        return any(c.name == name for c in self.classes.values())

    # -- DOT ----------------------------------------------------------------

    def to_dot(self) -> str:
        """The call graph as GraphViz DOT (deduped, stable order)."""
        lines = ["digraph callgraph {", '  rankdir="LR";',
                 '  node [shape=box, fontsize=10];']
        edges = sorted(set(self.edges()))
        names = sorted({q for edge in edges for q in edge}
                       | set(self.functions))
        for qual in names:
            lines.append(f'  "{qual}";')
        for src, dst in edges:
            lines.append(f'  "{src}" -> "{dst}";')
        for site in self.unresolved_sites():
            label = site.name or "<computed>"
            lines.append(
                f'  "{site.caller.qualname}" -> "?{label}" '
                f'[style=dashed, color=gray, '
                f'label="line {site.call.lineno}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
