"""``BENCHMARK.json`` against the benchmark contract, field by field.

The limits below are the contract's; ``check_schema`` returns every breach it
finds (an empty list means the driver will not refuse the file), and
``check_emitted`` compares the metric names a run printed with the manifest's
in both directions.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")
_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
_MAX_BYTES = 64 * 1024
_TOTAL_SECONDS = 3420


def _inside(path: str, roots: list[str]) -> bool:
    return any(path == root or path.startswith(root.rstrip("/") + "/") for root in roots)


def check_schema(path: Path, repo_root: Path) -> list[str]:
    errors: list[str] = []
    raw = path.read_bytes()
    if len(raw) > _MAX_BYTES:
        errors.append(f"file is {len(raw)} bytes, over {_MAX_BYTES}")
    manifest = json.loads(raw)
    if set(manifest) != _KEYS:
        errors.append(f"keys must be exactly {sorted(_KEYS)}, got {sorted(manifest)}")
        return errors

    paths = manifest["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errors.append("paths: 1 to 16 directories")
    for entry in paths:
        if not (isinstance(entry, str) and _PATH.match(entry)) or entry.startswith("/") \
                or ".." in entry.split("/"):
            errors.append(f"paths: bad entry {entry!r}")
        elif not (repo_root / entry).is_dir():
            errors.append(f"paths: {entry} is not a directory")

    command = manifest["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(part, str) and len(part) <= 200 for part in command)):
        errors.append("command: a list of at most 32 strings of at most 200 characters")
    else:
        for part in command[1:]:
            if part.startswith("/") or ".." in part.split("/"):
                errors.append(f"command: {part!r} is absolute or leaves the repo")
            elif (repo_root / part).exists() and not _inside(part, paths):
                errors.append(f"command: {part!r} names a repo file outside paths")

    seconds = manifest["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        errors.append("run_seconds: a whole number from 1 to 60")

    names: list[str] = []

    def check_name(where: str, name) -> None:
        if not (isinstance(name, str) and _NAME.match(name)):
            errors.append(f"{where}: bad name {name!r}")
        names.append(name)

    workloads = manifest["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        errors.append("workloads: 2 to 8")
    for entry in workloads:
        if not isinstance(entry, dict) or set(entry) != {"name", "why"}:
            errors.append(f"workloads: exactly name and why, got {entry!r}")
            continue
        check_name("workloads", entry["name"])
        why = entry["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            errors.append(f"workloads: why of {entry['name']} must be one line of at most 200 characters")

    def check_metrics(key: str, low: int, high: int, fields: set) -> None:
        entries = manifest[key]
        if not (isinstance(entries, list) and low <= len(entries) <= high):
            errors.append(f"{key}: {low} to {high} metrics")
            return
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) != fields:
                errors.append(f"{key}: exactly {sorted(fields)}, got {entry!r}")
                continue
            check_name(key, entry["name"])
            if not (isinstance(entry["unit"], str) and _UNIT.match(entry["unit"])):
                errors.append(f"{key}: bad unit {entry['unit']!r} of {entry['name']}")
            if entry["better"] not in ("lower", "higher"):
                errors.append(f"{key}: better of {entry['name']} must be lower or higher")
            if "bound" in fields:
                bound = entry["bound"]
                if not (isinstance(bound, (int, float)) and not isinstance(bound, bool)
                        and 0 < bound <= 0.25):
                    errors.append(f"{key}: bound of {entry['name']} must be in (0, 0.25]")

    check_metrics("end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    check_metrics("per_layer", 1, 128, {"name", "unit", "better"})
    setup = [m for m in manifest["end_to_end"] if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not (setup and setup[0].get("unit") == "s" and setup[0].get("better") == "lower"):
        errors.append("end_to_end: setup_s with unit s and better lower is required")
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        errors.append(f"names used more than once: {sorted(map(str, duplicates))}")
    return errors


def driver_runs(manifest: dict) -> int:
    return 4 + 22 * len(manifest["workloads"])


def check_budget(manifest: dict, seconds_per_run: dict[str, float]) -> list[str]:
    """The driver's runs, at the measured wall time of one run per workload."""
    mean = sum(seconds_per_run.values()) / len(seconds_per_run)
    total = driver_runs(manifest) * mean
    if total > _TOTAL_SECONDS:
        return [f"{driver_runs(manifest)} runs x {mean:.1f} s = {total:.0f} s, over {_TOTAL_SECONDS} s"]
    return []


def check_emitted(manifest: dict, key: str, emitted: dict, workload: str) -> list[str]:
    """Names and units a run printed against the manifest's ``key`` list."""
    declared = {metric["name"]: metric["unit"] for metric in manifest[key]}
    errors = []
    for name in sorted(set(declared) - set(emitted)):
        errors.append(f"{workload}: {key} metric {name} is in the manifest but was not emitted")
    for name in sorted(set(emitted) - set(declared)):
        errors.append(f"{workload}: {name} was emitted but is not in the manifest's {key}")
    for name in sorted(set(declared) & set(emitted)):
        if emitted[name]["unit"] != declared[name]:
            errors.append(f"{workload}: {name} unit {emitted[name]['unit']} != {declared[name]}")
        if key == "end_to_end" and not emitted[name]["value"] > 0:
            errors.append(f"{workload}: end-to-end metric {name} is not positive")
    return errors
