"""Engine-parity extraction: reference policies vs the packed fast engine.

The fast engine (:mod:`repro.fastsim`) re-implements the reference
policies (:mod:`repro.core`) with every knob, constant and override
guard *copied inline*.  The copies must track the originals exactly —
the historical ``nasc=0`` bug was precisely this class of drift: the
reference grew an ``is not None`` override guard while a truthiness
``or`` survived elsewhere, silently turning the ``nasc=0`` freeze
ablation into ``nasc=vta_assoc``.

This module extracts, by AST only (the analyzed code is never
imported):

* **knob defaults** — ``DlpPolicy.__init__`` / ``GlobalProtectionPolicy.
  __init__`` keyword defaults vs the ``PolicySpec`` dataclass field
  defaults, with ``Name`` defaults resolved through module constants and
  one level of ``repro`` imports (``pd_bits=PD_BITS`` → 4);
* **override-guard styles** — every conditional that selects between an
  Optional knob and its fallback, classified ``is_not_none`` (correct),
  ``truthiness`` (an ``A if A else B`` conditional) or ``or_truthiness``
  (``A or B``, the historical bug shape);
* **width constants** — the declared field-width constants, plus proof
  that the fast engine *imports* them from ``repro.core.pdpt`` rather
  than redefining its own copies;
* **hardware widths** — every ``@hw_checked`` declaration's resolved
  bit width, keyed by class, against which the packed arrays' declared
  correspondence is checked.

:func:`check_consistency` enforces the cross-engine laws on one
extraction; :func:`diff_parity` compares an extraction against the
committed ``parity_manifest.json`` so *any* change to this surface is a
reviewer-visible manifest refresh, exactly like the R005 semantics
manifest.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.check.manifest import package_root

PARITY_MANIFEST_NAME = "parity_manifest.json"

#: The knobs shared verbatim between the reference policies and
#: ``PolicySpec`` — defaults must be equal on all three surfaces.
SHARED_KNOBS = (
    "sample_limit",
    "insn_sample_limit",
    "vta_assoc",
    "pd_bits",
    "nasc",
    "bypass_enabled",
)

#: Optional-knob terminal names whose fallback selection must use an
#: ``is not None`` guard.  Matching is on the trailing identifier of the
#: guarded expression with leading underscores stripped and an
#: ``_override`` suffix dropped (``self._nasc_override`` → ``nasc``).
OVERRIDE_KNOBS = ("nasc", "vta_assoc")

#: Width constants the fast engine must import from the reference model,
#: never shadow with its own literals.
SHARED_CONSTANTS = ("PDPT_ENTRIES", "PD_BITS", "TDA_HIT_BITS", "VTA_HIT_BITS")

#: Packed array -> the reference ``@hw_checked`` field it encodes.  The
#: packed engine has no contract descriptors of its own; its widths are
#: *defined* to be these fields' widths.
PACKED_CORRESPONDENCE = {
    "_pli": "protected_life",
    "_iid": "insn_id",
    "_pnd": "pending_insn_id",
    "_vta_iid": "insn_id",
    "_pdt": "tda_hits",
    "_pdv": "vta_hits",
    "_pdl": "pd",
    "_gpd": "global_pd",
}

#: (relpath, class) pairs whose ``__init__`` keyword defaults form the
#: reference side of the knob table.
_REFERENCE_POLICIES = (
    ("core/dlp.py", "DlpPolicy", "reference.dlp"),
    ("core/global_protection.py", "GlobalProtectionPolicy",
     "reference.global_protection"),
)

_SPEC_FILE = "fastsim/engine.py"
_SPEC_CLASS = "PolicySpec"

#: Files scanned for ``@hw_checked`` declarations and override guards.
_SCANNED_FILES = (
    "core/pdpt.py",
    "core/vta.py",
    "core/dlp.py",
    "core/global_protection.py",
    "cache/line.py",
    "cache/mshr.py",
    "fastsim/engine.py",
)


def parity_path(root: Optional[Path] = None) -> Path:
    return (root or package_root()) / "check" / PARITY_MANIFEST_NAME


# ----------------------------------------------------------------------
# constant resolution
# ----------------------------------------------------------------------

class _ConstantResolver:
    """Integer/bool/None constants visible in one module, including
    tuple-unpacked assignments and one level of ``repro`` imports."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._local: Dict[Path, Dict[str, object]] = {}
        self._imports: Dict[Path, Dict[str, Tuple[str, str]]] = {}
        self._trees: Dict[Path, Optional[ast.Module]] = {}

    def tree(self, path: Path) -> Optional[ast.Module]:
        if path not in self._trees:
            try:
                self._trees[path] = ast.parse(path.read_text(encoding="utf-8"))
            except (OSError, SyntaxError):
                self._trees[path] = None
        return self._trees[path]

    def _scan(self, path: Path) -> None:
        if path in self._local:
            return
        consts: Dict[str, object] = {}
        imports: Dict[str, Tuple[str, str]] = {}
        tree = self.tree(path)
        if tree is not None:
            for node in tree.body:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name) and isinstance(
                        node.value, ast.Constant
                    ):
                        consts[target.id] = node.value.value
                    elif isinstance(target, ast.Tuple) and isinstance(
                        node.value, ast.Tuple
                    ) and len(target.elts) == len(node.value.elts):
                        for t, v in zip(target.elts, node.value.elts):
                            if isinstance(t, ast.Name) and isinstance(
                                v, ast.Constant
                            ):
                                consts[t.id] = v.value
                elif isinstance(node, ast.ImportFrom) and node.module:
                    if node.module.split(".")[0] == "repro" and not node.level:
                        for alias in node.names:
                            imports[alias.asname or alias.name] = (
                                node.module, alias.name,
                            )
        self._local[path] = consts
        self._imports[path] = imports

    def _module_file(self, dotted: str) -> Optional[Path]:
        parts = dotted.split(".")
        if parts[0] != "repro":
            return None
        candidate = self.root.joinpath(*parts[1:]).with_suffix(".py")
        return candidate if candidate.is_file() else None

    def lookup(self, path: Path, name: str, _depth: int = 2) -> object:
        """Value of ``name`` in ``path``'s module, or the sentinel
        string ``"<unresolved:name>"``."""
        self._scan(path)
        if name in self._local[path]:
            return self._local[path][name]
        origin = self._imports[path].get(name)
        if origin is not None and _depth > 0:
            target = self._module_file(origin[0])
            if target is not None:
                return self.lookup(target, origin[1], _depth - 1)
        return f"<unresolved:{name}>"

    def literal(self, path: Path, node: ast.expr) -> object:
        """JSON-able value of a default expression."""
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return self.lookup(path, node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self.literal(path, node.operand)
            if isinstance(inner, (int, float)) and not isinstance(inner, bool):
                return -inner
        return f"<expr:{ast.unparse(node)}>"


# ----------------------------------------------------------------------
# extraction passes
# ----------------------------------------------------------------------

def _find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _init_defaults(
    resolver: _ConstantResolver, path: Path, cls: ast.ClassDef
) -> Dict[str, object]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            args = node.args
            params = (args.posonlyargs + args.args)[1:]  # drop self
            defaults = list(args.defaults)
            out: Dict[str, object] = {}
            # defaults align with the tail of the parameter list
            for param, default in zip(params[len(params) - len(defaults):],
                                      defaults):
                out[param.arg] = resolver.literal(path, default)
            for kwarg, kwdefault in zip(args.kwonlyargs, args.kw_defaults):
                if kwdefault is not None:
                    out[kwarg.arg] = resolver.literal(path, kwdefault)
            return out
    return {}


def _dataclass_defaults(
    resolver: _ConstantResolver, path: Path, cls: ast.ClassDef
) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                out[node.target.id] = resolver.literal(path, node.value)
    return out


def _terminal_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def knob_of(terminal: str) -> Optional[str]:
    """Override knob named by a guarded expression's trailing
    identifier, or None."""
    name = terminal.lstrip("_")
    if name.endswith("_override"):
        name = name[: -len("_override")]
    return name if name in OVERRIDE_KNOBS else None


def classify_guard(node: ast.expr) -> Optional[Tuple[str, str]]:
    """``(knob, style)`` when ``node`` selects between an Optional
    override knob and a fallback; None for unrelated expressions.

    Styles: ``is_not_none`` for ``A if A is not None else B`` (and the
    inverted ``B if A is None else A``), ``truthiness`` for a bare
    ``A if A else B``, ``or_truthiness`` for ``A or B``.
    """
    if isinstance(node, ast.IfExp):
        test = node.test
        if isinstance(test, ast.Compare) and len(test.ops) == 1 and isinstance(
            test.comparators[0], ast.Constant
        ) and test.comparators[0].value is None:
            terminal = _terminal_name(test.left)
            if terminal is not None:
                knob = knob_of(terminal)
                if knob is not None and isinstance(
                    test.ops[0], (ast.IsNot, ast.Is)
                ):
                    return knob, "is_not_none"
        terminal = _terminal_name(test)
        if terminal is not None:
            knob = knob_of(terminal)
            if knob is not None:
                return knob, "truthiness"
        return None
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
        for value in node.values[:-1]:
            terminal = _terminal_name(value)
            if terminal is None:
                continue
            knob = knob_of(terminal)
            if knob is not None:
                return knob, "or_truthiness"
    return None


def _override_guards(tree: ast.Module) -> Dict[str, List[str]]:
    """knob -> sorted unique guard styles found anywhere in the module."""
    styles: Dict[str, set] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.IfExp, ast.BoolOp)):
            hit = classify_guard(node)
            if hit is not None:
                styles.setdefault(hit[0], set()).add(hit[1])
    return {knob: sorted(found) for knob, found in sorted(styles.items())}


def _hw_widths(
    resolver: _ConstantResolver, path: Path, tree: ast.Module
) -> Dict[str, Dict[str, object]]:
    """class name -> {field: resolved bits} for every ``@hw_checked``."""
    out: Dict[str, Dict[str, object]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            if _terminal_name(decorator.func) != "hw_checked":
                continue
            fields: Dict[str, object] = {}
            for keyword in decorator.keywords:
                if keyword.arg is None:
                    continue
                value = keyword.value
                if isinstance(value, ast.Call) and value.args:
                    fields[keyword.arg] = resolver.literal(path, value.args[0])
                else:
                    fields[keyword.arg] = f"<expr:{ast.unparse(value)}>"
            if fields:
                out[node.name] = fields
    return out


def _fastsim_constant_usage(
    tree: ast.Module,
) -> Tuple[List[str], List[str]]:
    """(imported-from-core names, locally-redefined names) for the
    shared width constants in the fast engine module."""
    imported: List[str] = []
    redefined: List[str] = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "repro.core.pdpt":
            for alias in node.names:
                if alias.name in SHARED_CONSTANTS:
                    imported.append(alias.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names = (
                    [target] if isinstance(target, ast.Name)
                    else list(target.elts) if isinstance(target, ast.Tuple)
                    else []
                )
                for name in names:
                    if isinstance(name, ast.Name) and (
                        name.id in SHARED_CONSTANTS
                    ):
                        redefined.append(name.id)
    return sorted(set(imported)), sorted(set(redefined))


# ----------------------------------------------------------------------
# the manifest
# ----------------------------------------------------------------------

def compute_parity(root: Optional[Path] = None) -> Dict[str, object]:
    root = root or package_root()
    resolver = _ConstantResolver(root)

    knob_defaults: Dict[str, object] = {}
    for relpath, class_name, key in _REFERENCE_POLICIES:
        path = root / relpath
        tree = resolver.tree(path)
        cls = _find_class(tree, class_name) if tree is not None else None
        knob_defaults[key] = (
            _init_defaults(resolver, path, cls) if cls is not None
            else f"<missing:{class_name}>"
        )
    spec_path = root / _SPEC_FILE
    spec_tree = resolver.tree(spec_path)
    spec_cls = _find_class(spec_tree, _SPEC_CLASS) if spec_tree else None
    knob_defaults["fastsim.spec"] = (
        _dataclass_defaults(resolver, spec_path, spec_cls)
        if spec_cls is not None else f"<missing:{_SPEC_CLASS}>"
    )

    override_guards: Dict[str, object] = {}
    hw_widths: Dict[str, object] = {}
    for relpath in _SCANNED_FILES:
        path = root / relpath
        tree = resolver.tree(path)
        if tree is None:
            continue
        guards = _override_guards(tree)
        if guards:
            override_guards[f"repro/{relpath}"] = guards
        for class_name, fields in _hw_widths(resolver, path, tree).items():
            hw_widths[f"repro/{relpath}:{class_name}"] = fields

    width_constants = {
        name: resolver.lookup(root / "core" / "pdpt.py", name)
        for name in ("PDPT_ENTRIES", "INSN_ID_BITS", "PD_BITS",
                     "TDA_HIT_BITS", "VTA_HIT_BITS")
    }
    width_constants["PL_BITS"] = resolver.lookup(
        root / "cache" / "line.py", "PL_BITS"
    )

    imported, redefined = ([], [])
    if spec_tree is not None:
        imported, redefined = _fastsim_constant_usage(spec_tree)

    return {
        "version": 1,
        "knob_defaults": knob_defaults,
        "override_guards": override_guards,
        "width_constants": width_constants,
        "fastsim_constant_imports": imported,
        "fastsim_constant_redefinitions": redefined,
        "hw_widths": hw_widths,
        "packed_correspondence": dict(sorted(PACKED_CORRESPONDENCE.items())),
    }


def load_parity(root: Optional[Path] = None) -> Optional[Dict[str, object]]:
    try:
        data = json.loads(parity_path(root).read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) or "knob_defaults" not in data:
        return None
    return data


def write_parity(root: Optional[Path] = None) -> Path:
    path = parity_path(root)
    path.write_text(
        json.dumps(compute_parity(root), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------

def check_consistency(parity: Dict[str, object]) -> List[str]:
    """Cross-engine laws that must hold for *any* extraction — these are
    not manifest-relative, so regenerating the manifest cannot launder a
    violation."""
    problems: List[str] = []

    defaults = parity.get("knob_defaults", {})
    surfaces = ("reference.dlp", "reference.global_protection", "fastsim.spec")
    tables = {}
    for surface in surfaces:
        table = defaults.get(surface) if isinstance(defaults, dict) else None
        if not isinstance(table, dict):
            problems.append(f"knob defaults missing for {surface}: {table!r}")
            continue
        tables[surface] = table
    if len(tables) == len(surfaces):
        for knob in SHARED_KNOBS:
            values = {s: t.get(knob, "<absent>") for s, t in tables.items()}
            distinct = {json.dumps(v, sort_keys=True) for v in values.values()}
            if len(distinct) != 1:
                listing = ", ".join(
                    f"{s}={values[s]!r}" for s in surfaces
                )
                problems.append(
                    f"knob default drift for {knob!r}: {listing} — the "
                    f"reference policies and PolicySpec must agree"
                )

    guards = parity.get("override_guards", {})
    if isinstance(guards, dict):
        for relpath, knobs in sorted(guards.items()):
            if not isinstance(knobs, dict):
                continue
            for knob, styles in sorted(knobs.items()):
                bad = [s for s in styles if s != "is_not_none"]
                if bad:
                    problems.append(
                        f"{relpath}: override fallback for {knob!r} uses "
                        f"{'/'.join(bad)} — an explicit 0 would be dropped "
                        f"(the historical nasc bug); guard with "
                        f"`is not None`"
                    )

    redefined = parity.get("fastsim_constant_redefinitions", [])
    if redefined:
        problems.append(
            f"fastsim/engine.py redefines width constants "
            f"{sorted(redefined)} — import them from repro.core.pdpt so "
            f"the engines cannot diverge"
        )
    imported = set(parity.get("fastsim_constant_imports", []))
    missing = [c for c in SHARED_CONSTANTS if c not in imported]
    if missing:
        problems.append(
            f"fastsim/engine.py does not import {missing} from "
            f"repro.core.pdpt — the packed engine must share the "
            f"reference width constants"
        )

    hw_widths = parity.get("hw_widths", {})
    by_field: Dict[str, Dict[str, object]] = {}
    if isinstance(hw_widths, dict):
        for where, fields in hw_widths.items():
            if not isinstance(fields, dict):
                continue
            for field_name, bits in fields.items():
                by_field.setdefault(field_name, {})[where] = bits
    # the same hardware field must have the same width everywhere it is
    # declared (insn_id appears on lines, VTA entries and PDPT rows)
    for field_name, sites in sorted(by_field.items()):
        widths = {json.dumps(b) for b in sites.values()}
        if len(widths) > 1:
            listing = ", ".join(f"{w}={b!r}" for w, b in sorted(sites.items()))
            problems.append(
                f"hardware field {field_name!r} declared with conflicting "
                f"widths: {listing}"
            )
    # every packed array must encode a declared hardware field
    correspondence = parity.get("packed_correspondence", {})
    if isinstance(correspondence, dict):
        for packed, ref_field in sorted(correspondence.items()):
            if ref_field not in by_field:
                problems.append(
                    f"packed array {packed!r} claims to encode hardware "
                    f"field {ref_field!r}, which has no @hw_checked "
                    f"declaration"
                )
    # Protected Life mirrors the PD width (paper Fig. 8: PL is written
    # from PD, so the fields must be the same size)
    constants = parity.get("width_constants", {})
    if isinstance(constants, dict):
        pd_bits, pl_bits = constants.get("PD_BITS"), constants.get("PL_BITS")
        if pd_bits != pl_bits:
            problems.append(
                f"PD_BITS={pd_bits!r} but PL_BITS={pl_bits!r} — Protected "
                f"Life is written from PD and must share its width"
            )
    return problems


def _flatten(prefix: str, value: object, out: Dict[str, str]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    else:
        out[prefix] = json.dumps(value, sort_keys=True)


def diff_parity(
    recorded: Optional[Dict[str, object]],
    current: Dict[str, object],
) -> List[str]:
    """Human-readable drift between the committed manifest and the
    current extraction.  Empty list == in sync."""
    if recorded is None:
        return [
            f"parity manifest {PARITY_MANIFEST_NAME} is missing or "
            f"unreadable — run `repro check --update-parity` to create it"
        ]
    old: Dict[str, str] = {}
    new: Dict[str, str] = {}
    _flatten("", recorded, old)
    _flatten("", current, new)
    messages: List[str] = []
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) == new.get(key):
            continue
        messages.append(
            f"parity drift at {key}: manifest {old.get(key, '<absent>')} "
            f"!= current {new.get(key, '<absent>')} — if intentional, "
            f"re-baseline with `repro check --update-parity`"
        )
    return messages
