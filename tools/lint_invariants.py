#!/usr/bin/env python3
"""Project-invariant linter — layer 3 of the static-analysis gate.

Checks rules that no general-purpose tool knows about, because they
encode THIS project's architecture (see BUILDING.md "Static analysis"):

  getenv-confinement   std::getenv is read exactly once, in
                       platform/context.cpp (Context::from_env).  Env
                       reads anywhere else would bypass the descriptor
                       API and make kernel behavior depend on ambient
                       state the benchmarks can't record.
  thread-confinement   std::thread / std::jthread / std::async only in
                       platform/parallel.* — every data-parallel loop
                       goes through the chunk-stealing pool so `width`
                       stays the single thread-count knob.  (The serving
                       layer's lifecycle-managed workers are an audited
                       allow-list exemption, not a second runtime.)
  no-ambient-rng       No rand()/srand()/std::random_device in src/:
                       all randomness flows from seeds carried in
                       options structs (GraphOptions::sample_seed,
                       FaultInjector), so every run is replayable.
  punning-audit        Every reinterpret_cast in src/ must be on the
                       allow-list with a written justification.  The
                       kernels use memcpy-based helpers (simd.cpp
                       loadu256/store256) instead of pointer punning.
  hot-path-alloc       No naked new[] / malloc / calloc / realloc in
                       the kernel hot paths (src/core/, platform/simd.cpp):
                       kernel scratch lives in caller-owned Workspaces
                       and std::vector, so the wave path stays
                       allocation-free and exception-safe.
  kernel-popcount      No popcount( (with or without template
                       arguments) in src/core/*.cpp: the library builds
                       without -mpopcnt, so each one is a libgcc call.
                       Bit counting in a kernel loop belongs in a simd::
                       entry, whose AVX2 body gets the instruction.  The
                       warp-sim transcriptions (bmm_sim.cpp,
                       bmv_sim.cpp) are the rule's home.

Findings print as `path:line: rule-id: message` and exit non-zero.
Suppressions live in tools/lint_allowlist.txt, one per line:

    rule-id  relative/path  justification text...

A suppression without a justification, or one that no longer matches
anything, is itself an error — the list cannot silently rot.

`--self-test` seeds one synthetic violation per rule in a temp tree and
asserts the engine catches each (and stays quiet on a clean tree), so a
regex regression cannot turn the gate green forever.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import pathlib
import re
import sys
import tempfile

SOURCE_GLOBS = ("src/**/*.cpp", "src/**/*.hpp")
ALLOWLIST = "tools/lint_allowlist.txt"


@dataclasses.dataclass(frozen=True)
class Rule:
    rule_id: str
    pattern: re.Pattern
    message: str
    # Paths (relative, '/'-separated) where the construct is legitimate
    # BY DESIGN — the rule's own home, not case-by-case exemptions
    # (those go in the allow-list with justifications).
    home: tuple = ()
    # If non-empty, only paths matching one of these globs are scanned.
    scope: tuple = ()


RULES = (
    Rule(
        rule_id="getenv-confinement",
        pattern=re.compile(r"\bgetenv\s*\("),
        message="environment reads belong in platform/context.cpp "
                "(Context::from_env), nowhere else",
        home=("src/platform/context.cpp",),
    ),
    Rule(
        rule_id="thread-confinement",
        pattern=re.compile(r"\bstd::(thread|jthread|async)\b"),
        message="thread spawning belongs in platform/parallel.* "
                "(the chunk-stealing pool)",
        home=("src/platform/parallel.cpp", "src/platform/parallel.hpp"),
    ),
    Rule(
        rule_id="no-ambient-rng",
        pattern=re.compile(r"\bstd::random_device\b|\b(?:std::)?s?rand\s*\("),
        message="ambient randomness breaks replayability; thread a seed "
                "through an options struct instead",
    ),
    Rule(
        rule_id="punning-audit",
        pattern=re.compile(r"\breinterpret_cast\b"),
        message="pointer punning must be allow-listed with a written "
                "justification (prefer memcpy / std::bit_cast / "
                "std::as_bytes)",
    ),
    Rule(
        rule_id="hot-path-alloc",
        pattern=re.compile(
            r"\bnew\s+[A-Za-z_][\w:<>, ]*\[|\b(?:m|c|re)alloc\s*\("),
        message="kernel hot paths allocate through caller-owned "
                "Workspaces / std::vector, never naked new[]/malloc",
        scope=("src/core/*", "src/platform/simd.cpp"),
    ),
    Rule(
        rule_id="kernel-popcount",
        pattern=re.compile(r"\bpopcount\s*(?:<[^<>()]*>\s*)?\("),
        message="bit counting in a kernel loop belongs in a simd:: entry: "
                "the library builds without -mpopcnt, so popcount() here "
                "is a libgcc call",
        home=("src/core/bmm_sim.cpp", "src/core/bmv_sim.cpp"),
        scope=("src/core/*.cpp",),
    ),
)

_RULE_IDS = {r.rule_id for r in RULES}


def scrub(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    structure, so rules only match code."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2
                                                   else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


@dataclasses.dataclass(frozen=True)
class Suppression:
    rule_id: str
    path: str
    justification: str


def load_allowlist(root: pathlib.Path) -> list:
    path = root / ALLOWLIST
    entries = []
    if not path.exists():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            print(f"{ALLOWLIST}:{lineno}: allowlist: entry needs "
                  f"'rule-id path justification...'", file=sys.stderr)
            sys.exit(2)
        rule_id, rel, justification = parts
        if rule_id not in _RULE_IDS:
            print(f"{ALLOWLIST}:{lineno}: allowlist: unknown rule "
                  f"'{rule_id}'", file=sys.stderr)
            sys.exit(2)
        entries.append(Suppression(rule_id, rel, justification))
    return entries


def lint(root: pathlib.Path) -> int:
    suppressions = load_allowlist(root)
    used = set()
    findings = []

    files = sorted({p for g in SOURCE_GLOBS for p in root.glob(g)})
    for path in files:
        rel = path.relative_to(root).as_posix()
        code = scrub(path.read_text(errors="replace"))
        for rule in RULES:
            if rule.scope and not any(fnmatch.fnmatchcase(rel, s)
                                      for s in rule.scope):
                continue
            if rel in rule.home:
                continue
            for lineno, line in enumerate(code.splitlines(), 1):
                if not rule.pattern.search(line):
                    continue
                sup = next((s for s in suppressions
                            if s.rule_id == rule.rule_id
                            and s.path == rel), None)
                if sup is not None:
                    used.add((sup.rule_id, sup.path))
                    continue
                findings.append(
                    f"{rel}:{lineno}: {rule.rule_id}: {rule.message}")

    for sup in suppressions:
        if (sup.rule_id, sup.path) not in used:
            findings.append(
                f"{ALLOWLIST}: stale suppression "
                f"'{sup.rule_id} {sup.path}' matches nothing — remove it")

    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} invariant violation(s).", file=sys.stderr)
    return 1 if findings else 0


# --- self-test -------------------------------------------------------------

_VIOLATIONS = {
    "getenv-confinement": 'const char* e = std::getenv("X");\n',
    "thread-confinement": "std::thread t([]{});\n",
    "no-ambient-rng": "int x = rand();\n",
    "punning-audit": "auto* p = reinterpret_cast<int*>(q);\n",
    "hot-path-alloc": "int* p = new int[16];\n",
    "kernel-popcount": "n += popcount(w);\n",
}


def self_test() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as td:
        root = pathlib.Path(td)
        core = root / "src" / "core"
        core.mkdir(parents=True)
        (root / "tools").mkdir()

        # 1. Clean tree: no findings.
        probe = core / "probe.cpp"
        probe.write_text("int ok() { return 1; }\n")
        if lint(root) != 0:
            failures.append("clean tree reported findings")

        # 2. Each seeded violation fires its rule (planted in src/core/
        #    so even the scoped hot-path rule sees it).
        for rule_id, code in _VIOLATIONS.items():
            probe.write_text(code)
            if lint(root) == 0:
                failures.append(f"rule {rule_id} missed its violation")

        # 3. Comments and strings never fire.
        probe.write_text('// std::thread in a comment\n'
                         'const char* s = "rand( getenv( ";\n')
        if lint(root) != 0:
            failures.append("matched inside a comment or string literal")

        # 4. kernel-popcount also fires with template arguments, and
        #    only in src/core/*.cpp.
        probe.write_text("n += popcount<std::uint32_t>(w);\n")
        if lint(root) == 0:
            failures.append("kernel-popcount missed popcount<T>(...)")
        probe.write_text("int ok() { return 1; }\n")
        header = core / "probe.hpp"
        header.write_text("n += popcount(w);\n")
        if lint(root) != 0:
            failures.append("kernel-popcount fired outside src/core/*.cpp")
        header.unlink()

        # 5. A justified allow-list entry suppresses; a stale one fails.
        probe.write_text(_VIOLATIONS["punning-audit"])
        allow = root / ALLOWLIST
        allow.write_text(
            "punning-audit src/core/probe.cpp test justification\n")
        if lint(root) != 0:
            failures.append("allow-list entry did not suppress")
        probe.write_text("int ok() { return 1; }\n")
        if lint(root) == 0:
            failures.append("stale allow-list entry went unflagged")

    for f in failures:
        print(f"self-test FAILED: {f}", file=sys.stderr)
    if not failures:
        print("self-test: all rules fire and suppress as specified")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent,
                    help="repository root (default: the checkout "
                         "containing this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="prove every rule fires on a seeded violation")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    return lint(args.root.resolve())


if __name__ == "__main__":
    sys.exit(main())
