#!/usr/bin/env python
"""Executable-documentation gate (``make docs-check``).

Two checks keep ``docs/*.md`` from silently rotting:

1. **Snippet execution** — every fenced ```python block in each doc is
   executed, top to bottom, in one cumulative namespace per file (a doc
   reads as a session: later blocks may use names earlier blocks
   defined).  Execution happens inside a temporary working directory so
   snippets that write artifacts (``trace.jsonl``, ``series.csv``,
   sweep caches) never pollute the repository.

   A block that genuinely cannot run standalone (e.g. it parses the
   output file of a ``make`` target) opts out with a marker on the line
   before the fence::

       <!-- docs-check: skip -->
       ```python
       ...
       ```

2. **Schema/doc sync** — every event name in
   :data:`repro.obs.schema.EVENT_TYPES` must appear in
   docs/OBSERVABILITY.md's tables (and its "excluding ... by default"
   sentence must name what :data:`repro.obs.DEFAULT_EVENTS` leaves
   out), and every registry algorithm in
   :data:`repro.core.registry.ALGORITHMS` must appear in both
   docs/CONTROLLERS.md and the README controller table; the
   CONTROLLERS.md fluid-mapping table must name exactly
   :data:`repro.fluid.dynamics.FLUID_ALGORITHMS` plus the exempt
   controllers, each row naming the law its keys resolve to.  Adding an
   event, a controller or a fluid law without documenting it fails CI.
   In the other direction, every ``point_function("<name>")`` and
   ``repro sweep <grid>`` a doc (or the README) spells must resolve
   through :func:`repro.exp.grids.point_function` / exist in
   :data:`repro.topology.scenarios.SWEEP_GRIDS`, so merging or renaming
   point functions cannot leave a doc pointing at a name that is gone;
   DESIGN.md's reproduction table must name only registered grids and
   every grid that carries claims (:data:`repro.exp.paper.CLAIMS`).
   Likewise every ``make <target>`` and ``python -m repro <sub>`` (or
   backquoted ``repro <sub>``) named in the docs, README.md, EXPERIMENTS.md,
   DESIGN.md or the Makefile's header must be a Makefile rule / a
   subcommand of :func:`repro.cli._build_parser` (and ``repro farm
   <sub>`` one of its farm subcommands), so a command cannot be deleted
   while a doc still tells the reader to run it.

Run from the repository root::

    PYTHONPATH=src python tools/docs_check.py          # or: make docs-check
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import sys
import tempfile
import traceback
from typing import Iterator, List, Tuple

SKIP_MARKER = "<!-- docs-check: skip -->"


def python_blocks(path: pathlib.Path) -> Iterator[Tuple[int, str, bool]]:
    """Yield (first_code_line, code, skipped) for each ```python fence."""
    lines = path.read_text(encoding="utf-8").splitlines()
    pending_skip = False
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped == SKIP_MARKER:
            pending_skip = True
        elif stripped.startswith("```"):
            info = stripped.lstrip("`").strip().lower()
            start = i + 1
            j = start
            while j < len(lines) and lines[j].strip() != "```":
                j += 1
            if info == "python":
                yield start + 1, "\n".join(lines[start:j]), pending_skip
            pending_skip = False
            i = j
        elif stripped:
            # Only non-blank content between marker and fence cancels it.
            pending_skip = False
        i += 1


def run_file_snippets(path: pathlib.Path, workdir: str) -> List[str]:
    """Execute a doc's python blocks cumulatively; return error strings."""
    errors: List[str] = []
    namespace: dict = {"__name__": f"docs_check[{path.name}]"}
    ran = skipped = 0
    for lineno, code, skip in python_blocks(path):
        location = f"{path}:{lineno}"
        if skip:
            skipped += 1
            continue
        try:
            compiled = compile(code, location, "exec")
            exec(compiled, namespace)  # noqa: S102 - the point of the gate
            ran += 1
        except Exception:
            tail = traceback.format_exc().strip().splitlines()[-1]
            errors.append(f"{location}: snippet failed: {tail}")
    print(f"  {path.name}: {ran} snippet(s) ran, {skipped} skipped"
          + (f", {len(errors)} FAILED" if errors else ""))
    return errors


def check_event_table(repo: pathlib.Path) -> List[str]:
    """Every EVENT_TYPES name must appear in docs/OBSERVABILITY.md, and
    its "excluding ... by default" sentence must name exactly the types
    that :data:`repro.obs.DEFAULT_EVENTS` leaves out."""
    from repro.obs.schema import DEFAULT_EVENTS, EVENT_TYPES

    rel = "docs/OBSERVABILITY.md"
    text = (repo / rel).read_text(encoding="utf-8")
    missing = sorted(ev for ev in EVENT_TYPES if ev not in text)
    errors = [
        f"{rel}: event {ev!r} (repro.obs.schema.EVENT_TYPES)"
        f" is not documented" for ev in missing
    ]
    sentence = re.search(r"excluding\s+(.{,200}?)\s+by\s+default", text, re.S)
    named = sentence and set(re.findall(r"`([\w.]+)`", sentence.group(1)))
    excluded = set(EVENT_TYPES) - DEFAULT_EVENTS
    if named != excluded:
        errors.append(
            f"{rel}: the 'excluding ... by default' sentence names "
            f"{sorted(named) if sentence else 'nothing (sentence not found)'}"
            f", repro.obs.DEFAULT_EVENTS leaves out {sorted(excluded)}")
    return errors


def check_fluid_mapping(text: str) -> List[str]:
    """CONTROLLERS.md's fluid-mapping table vs the law table: the rows
    name exactly FLUID_ALGORITHMS (each beside the law it resolves to)
    plus, marked *exempt*, the registry controllers without a law."""
    from repro.core.registry import ALGORITHMS
    from repro.fluid.dynamics import FLUID_ALGORITHMS, fluid_law

    rel = "docs/CONTROLLERS.md fluid-mapping table"
    section = text.partition("## Fluid-model mapping")[2].partition("\n## ")[0]
    errors: List[str] = []
    mapped, exempt = set(), set()
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("| `") or len(cells) < 2:
            continue
        names = set(re.findall(r"`(\w+)`", cells[0]))
        if any("*exempt*" in c for c in cells):
            exempt |= names
            continue
        mapped |= names
        for name in sorted(names & FLUID_ALGORITHMS):
            law = fluid_law(name).__name__
            if f"`{law}`" not in cells[1]:
                errors.append(f"{rel}: `{name}` resolves to `{law}`, "
                              f"which its row does not name")
    for label, documented, actual in (
        ("with a law", mapped, set(FLUID_ALGORITHMS)),
        ("exempt", exempt, set(ALGORITHMS) - FLUID_ALGORITHMS),
    ):
        if documented != actual:
            errors.append(
                f"{rel}: names {label} are {sorted(documented)}, "
                f"the code has {sorted(actual)}")
    return errors


def check_controller_docs(repo: pathlib.Path) -> List[str]:
    """Every registry algorithm must appear in CONTROLLERS.md + README,
    and CONTROLLERS.md's fluid-mapping table must match the law table."""
    from repro.core.registry import ALGORITHMS

    errors: List[str] = []
    for rel in ("docs/CONTROLLERS.md", "README.md"):
        doc = repo / rel
        if not doc.exists():
            errors.append(f"{rel}: missing (controller compendium required)")
            continue
        text = doc.read_text(encoding="utf-8")
        for algo in sorted(ALGORITHMS):
            if f"`{algo}`" not in text:
                errors.append(f"{rel}: registry algorithm `{algo}` "
                              f"is not documented")
        if rel == "docs/CONTROLLERS.md":
            errors.extend(check_fluid_mapping(text))
    return errors


def check_scenario_names(paths: List[pathlib.Path]) -> List[str]:
    """Every ``point_function("<name>")`` spelled in the docs must
    resolve, and every ``repro sweep <grid>`` must name a sweep grid."""
    from repro.exp.grids import point_function
    from repro.topology.scenarios import SWEEP_GRIDS

    errors: List[str] = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        named = re.findall(r"""point_function\(["'](\w+)["']\)""", text)
        for name in sorted(set(named)):
            try:
                point_function(name)
            except ValueError as exc:
                errors.append(f"{path.name}: {exc}")
        grids = set(re.findall(r"repro sweep (\w+)", text))
        for name in sorted(grids - set(SWEEP_GRIDS) - {"paper"}):
            errors.append(f"{path.name}: `{name}` is not in "
                          f"repro.topology.scenarios.SWEEP_GRIDS")
    return errors


def check_reproduction_table(repo: pathlib.Path) -> List[str]:
    """DESIGN.md's per-experiment index and the claims-bearing grids name
    each other: every grid in the table's last column is a key of
    ``SWEEP_GRIDS``, and every grid with claims appears there."""
    from repro.exp.paper import CLAIMS
    from repro.topology.scenarios import SWEEP_GRIDS

    text = (repo / "DESIGN.md").read_text(encoding="utf-8")
    table = text[text.index("| Exp id |"):text.index("Scaling note:")]
    named = set()
    for line in table.splitlines()[2:]:
        cells = line.strip().strip("|").split("|")
        if len(cells) > 1 and "perfbench" not in cells[-1]:
            named.update(re.findall(r"`(\w+)`", cells[-1]))
    errors = [f"DESIGN.md: reproduction table names `{name}`, which is not "
              f"in repro.topology.scenarios.SWEEP_GRIDS"
              for name in sorted(named - set(SWEEP_GRIDS))]
    errors += [f"DESIGN.md: grid `{name}` carries claims but is missing "
               f"from the reproduction table"
               for name in sorted(set(CLAIMS) - named)]
    return errors


def check_commands(repo: pathlib.Path, paths: List[pathlib.Path]) -> List[str]:
    """Every ``make <target>`` / ``repro <sub>`` / ``repro farm <sub>``
    the docs and the Makefile header tell the reader to run must
    exist."""
    from repro.cli import _build_parser

    def choices(parser: argparse.ArgumentParser) -> dict:
        return next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices

    subcommands = choices(_build_parser())
    farm_subcommands = choices(subcommands["farm"])
    makefile = (repo / "Makefile").read_text(encoding="utf-8")
    targets = set(re.findall(r"^([a-z][\w-]*):", makefile, re.M))
    errors: List[str] = []

    def check(label: str, made: List[str], text: str) -> None:
        for name in sorted(set(made) - targets):
            errors.append(f"{label}: `make {name}` is not a Makefile target")
        named = re.findall(r"(?:python3? -m |`)repro ([a-z][\w-]*)", text)
        for name in sorted(set(named) - set(subcommands)):
            errors.append(f"{label}: `repro {name}` is not a subcommand of "
                          f"repro.cli")
        named = re.findall(r"(?:python3? -m |`)repro farm ([a-z][\w-]*)", text)
        for name in sorted(set(named) - set(farm_subcommands)):
            errors.append(f"{label}: `repro farm {name}` is not a farm "
                          f"subcommand of repro.cli")

    # The Makefile header names a target at the start of a comment line,
    # markdown in code (`make x`, or a fenced block); prose such as "make
    # sense" is neither.
    header = makefile.partition("\n\n")[0]
    check("Makefile header",
          re.findall(r"^#\s+make ([a-z][\w-]*)", header, re.M), header)
    for path in paths:
        text = path.read_text(encoding="utf-8")
        code = "\n".join(re.findall(r"```.*?```|`[^`]+`", text, re.S))
        check(path.name, re.findall(r"\bmake ([a-z][\w-]*)", code), text)
    return errors


def main() -> int:
    repo = pathlib.Path(__file__).resolve().parent.parent
    docs = sorted((repo / "docs").glob("*.md"))
    if not docs:
        print("docs-check: no docs/*.md found", file=sys.stderr)
        return 2

    errors: List[str] = []
    print(f"docs-check: executing python snippets in {len(docs)} file(s)")
    original_cwd = os.getcwd()
    for doc in docs:
        # Fresh scratch directory per doc: snippets may write files.
        with tempfile.TemporaryDirectory(prefix="docs-check-") as scratch:
            os.chdir(scratch)
            try:
                errors.extend(run_file_snippets(doc, scratch))
            finally:
                os.chdir(original_cwd)

    print("docs-check: verifying schema/doc sync")
    errors.extend(check_event_table(repo))
    errors.extend(check_controller_docs(repo))
    errors.extend(check_scenario_names(docs + [repo / "README.md"]))
    errors.extend(check_reproduction_table(repo))
    errors.extend(check_commands(repo, docs + [
        repo / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]))

    if errors:
        print(f"\ndocs-check FAILED ({len(errors)} error(s)):",
              file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    print("docs-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
