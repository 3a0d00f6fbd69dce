"""Semantics manifest: the R005 ``SIM_VERSION``-bump guard.

The result store (:mod:`repro.experiments.store`) isolates semantic
changes to the simulator behind :data:`~repro.experiments.store.SIM_VERSION`:
any change that alters what a simulation *produces* must bump it, or
stale store entries will replay silently wrong results.  Nothing used to
enforce that rule.

This module records a content hash of every source file in
:data:`SEMANTIC_PACKAGES` (the policy/cache protocol, the fast and batch
L1D engines, and the timing simulator's ``gpu/``, ``memory/`` and
``workloads/``) together with the ``SIM_VERSION`` the hash was taken
at, in ``semantics_manifest.json`` next to this file.  ``repro check`` (rule
R005) recomputes the hashes and flags:

* a changed/added/removed semantics file while ``SIM_VERSION`` is
  unchanged — the guarded mistake; bump the version, then re-baseline;
* a bumped ``SIM_VERSION`` with a stale manifest — re-baseline with
  ``repro check --update-manifest`` so the *next* change is guarded.

Pure refactors that keep results bit-identical intentionally still
require a manifest refresh (not a version bump): the differential
oracle in ``tests/oracle.py`` is the tool that proves bit-identity, and
the explicit ``--update-manifest`` step is the reviewer-visible claim
that it was run.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

#: Packages whose sources define simulation semantics for the purposes
#: of the SIM_VERSION rule: the policy/cache protocol; the packed fast
#: engine and the batch kernels, which re-implement that protocol and
#: must change in lockstep with it; and the timing simulator (warp
#: issue, LD/ST unit, interconnect, L2/DRAM, workload op streams),
#: which produces every Fig. 10 result.
SEMANTIC_PACKAGES = (
    "core", "cache", "fastsim", "batchsim", "gpu", "memory", "workloads",
)

MANIFEST_NAME = "semantics_manifest.json"


def package_root() -> Path:
    """The installed ``repro`` package directory (``.../src/repro``)."""
    return Path(__file__).resolve().parent.parent


def manifest_path(root: Optional[Path] = None) -> Path:
    return (root or package_root()) / "check" / MANIFEST_NAME


def semantic_files(root: Optional[Path] = None) -> List[Path]:
    root = root or package_root()
    files: List[Path] = []
    for package in SEMANTIC_PACKAGES:
        files.extend(sorted((root / package).glob("*.py")))
    return files


def read_sim_version(root: Optional[Path] = None) -> str:
    """Extract ``SIM_VERSION`` from ``experiments/store.py`` via AST.

    Parsed rather than imported so ``repro check`` can inspect a broken
    tree (an import error in the store module must not hide the
    finding that caused it).
    """
    store_py = (root or package_root()) / "experiments" / "store.py"
    tree = ast.parse(store_py.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "SIM_VERSION":
                    if isinstance(node.value, ast.Constant):
                        return str(node.value.value)
    raise RuntimeError(f"SIM_VERSION assignment not found in {store_py}")


def compute_manifest(root: Optional[Path] = None) -> Dict[str, object]:
    root = root or package_root()
    files: Dict[str, str] = {}
    for path in semantic_files(root):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        files[path.relative_to(root).as_posix()] = digest
    return {"sim_version": read_sim_version(root), "files": files}


def load_manifest(root: Optional[Path] = None) -> Optional[Dict[str, object]]:
    path = manifest_path(root)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    if not isinstance(data, dict) or "files" not in data:
        return None
    return data


def write_manifest(root: Optional[Path] = None) -> Path:
    path = manifest_path(root)
    path.write_text(
        json.dumps(compute_manifest(root), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def diff_manifest(root: Optional[Path] = None) -> List[str]:
    """Human-readable description of every drift from the manifest.

    Empty list == manifest is current.  Used by rule R005.
    """
    root = root or package_root()
    recorded = load_manifest(root)
    if recorded is None:
        return [
            f"semantics manifest {manifest_path(root).name} is missing or "
            f"unreadable — run `repro check --update-manifest` to create it"
        ]
    current = compute_manifest(root)
    messages: List[str] = []

    old_files: Dict[str, str] = dict(recorded.get("files", {}))  # type: ignore[arg-type]
    new_files: Dict[str, str] = dict(current["files"])  # type: ignore[arg-type]
    changed = sorted(
        name
        for name in old_files.keys() | new_files.keys()
        if old_files.get(name) != new_files.get(name)
    )

    old_version = str(recorded.get("sim_version", "?"))
    new_version = str(current["sim_version"])

    if changed and old_version == new_version:
        listing = ", ".join(changed)
        messages.append(
            f"semantics changed in {listing} but SIM_VERSION is still "
            f"{new_version!r} — bump SIM_VERSION in "
            f"repro/experiments/store.py (behaviour change) or prove "
            f"bit-identity with the differential oracle, then run "
            f"`repro check --update-manifest`"
        )
    elif old_version != new_version:
        messages.append(
            f"SIM_VERSION is {new_version!r} but the semantics manifest "
            f"was recorded at {old_version!r} — run "
            f"`repro check --update-manifest` to re-baseline"
        )
    return messages
