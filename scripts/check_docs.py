#!/usr/bin/env python3
"""Documentation checks, run by scripts/check.sh and CI.

1. Markdown link check: every relative link in the repo's *.md files
   (root and docs/) must point at a file or directory that exists.
   External links (http/https/mailto) are not fetched.
2. Doc-presence check: every class/struct declared at namespace scope in
   the public headers of src/ppc/, src/server/ and src/workload/ must
   carry a Doxygen `///` comment immediately above it.
3. Symbol check: every backticked CamelCase identifier, snake_case
   identifier (one word containing `_`) or `Type::member` name in the
   reference docs (README.md, DESIGN.md, EXPERIMENTS.md and docs/),
   optionally followed by `()`, must occur as a word somewhere in the
   code (src/, bench/, tests/, perfbench/, examples/), so docs cannot
   keep naming a symbol, config field or flag that was renamed or
   deleted. History and planning files name removed symbols on purpose
   and are not checked.
4. Bench check: every `bench_*` name inside a code span of the same
   reference docs must be a target in bench/CMakeLists.txt, so a deleted
   bench cannot stay documented.
5. Path check: every code span of the same reference docs that is a
   module path (`ppc/plan_cache`, `lsh/simd.cc`, `optimizer/robust_plan.*`,
   `retune/reservoir.{h,cc}`, `src/ppc/runtime_sim*`) must resolve, by
   suffix, to a file or directory under the code directories or
   scripts/, so a deleted module cannot stay documented. Every path
   component is two characters or more, so math such as `h/d` is not a
   path.

Exits non-zero with one line per violation.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Namespace-scope type declarations: no indentation, an optional
# template line is handled by look-behind over preceding lines.
DECL_RE = re.compile(r"^(?:class|struct)\s+([A-Za-z_]\w*)\s*(?::|\{|$)")

# Fenced code blocks may contain example links / declarations; skip them.
FENCE_RE = re.compile(r"^\s*```")

# Inline code spans; a span is checked when it is one identifier, possibly
# qualified (`a::B::c`) and possibly followed by `()`.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
QUALIFIED_RE = re.compile(r"^((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)(?:\(\))?$")
# Two or more capitalized humps: PlanSynopsis, EstimateCount, ZInterval.
CAMEL_RE = re.compile(r"^[A-Z][a-z0-9]*[A-Z]\w*$")
# One word with an underscore in it: worker_threads, kMax_x, PPC_DEBUG.
SNAKE_RE = re.compile(r"^\w*_\w*$")
WORD_RE = re.compile(r"\w+")
# A bench binary's name; `bench_util.h` and the like are files, not benches.
BENCH_NAME_RE = re.compile(r"\bbench_\w+\b(?!\.h\b)")
BENCH_TARGET_RE = re.compile(r"(?:ppc_add_bench|add_executable)\((bench_\w+)")
CODE_DIRS = ("src", "bench", "tests", "perfbench", "examples")
# A module path: directories, a name, then an optional `.ext`, `.*`,
# `.{h,cc}` or trailing `*`.
MODULE_PATH_RE = re.compile(
    r"^((?:[A-Za-z_][\w-]+/)+[A-Za-z_][\w-]+)"
    r"(\.\w+|\.\*|\.\{\w+(?:,\w+)*\}|\*)?$")
REFERENCE_DOCS = {"README.md", "DESIGN.md", "EXPERIMENTS.md"}


# Verbatim retrieval artifacts (paper text / exemplar snippets) carry
# image references from their source documents; they are reference
# material, not repo documentation.
EXCLUDED = {"PAPER.md", "PAPERS.md", "SNIPPETS.md"}


def markdown_files():
    files = [f for f in os.listdir(REPO)
             if f.endswith(".md") and f not in EXCLUDED]
    docs = os.path.join(REPO, "docs")
    if os.path.isdir(docs):
        files += [os.path.join("docs", f) for f in os.listdir(docs)
                  if f.endswith(".md")]
    return sorted(files)


def check_markdown_links():
    errors = []
    for rel in markdown_files():
        path = os.path.join(REPO, rel)
        base = os.path.dirname(path)
        in_fence = False
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                for target in LINK_RE.findall(line):
                    if target.startswith(("http://", "https://", "mailto:")):
                        continue
                    target = target.split("#")[0]
                    if not target:  # pure intra-document anchor
                        continue
                    if not os.path.exists(os.path.join(base, target)):
                        errors.append(
                            f"{rel}:{lineno}: broken link -> {target}")
    return errors


def public_headers():
    headers = []
    for module in ("src/ppc", "src/server", "src/workload"):
        directory = os.path.join(REPO, module)
        headers += [os.path.join(module, f)
                    for f in sorted(os.listdir(directory))
                    if f.endswith(".h")]
    return headers


def check_doc_presence():
    errors = []
    for rel in public_headers():
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            match = DECL_RE.match(line)
            if not match:
                continue
            # Walk upward over template<> lines and macros to the line
            # that should hold the trailing `///` comment.
            j = i - 1
            while j >= 0 and (lines[j].startswith("template")
                              or lines[j].startswith("PPC_")):
                j -= 1
            if j < 0 or not lines[j].lstrip().startswith("///"):
                errors.append(
                    f"{rel}:{i + 1}: public type '{match.group(1)}' "
                    "lacks a /// doc comment")
    return errors


def code_words():
    words = set()
    for top in CODE_DIRS:
        for root, _, files in os.walk(os.path.join(REPO, top)):
            for name in files:
                with open(os.path.join(root, name), encoding="utf-8",
                          errors="ignore") as f:
                    words.update(WORD_RE.findall(f.read()))
    return words


def reference_code_spans():
    """(file, line number, span) for every inline code span outside fenced
    blocks in the reference docs."""
    for rel in markdown_files():
        if rel not in REFERENCE_DOCS and not rel.startswith("docs"):
            continue
        in_fence = False
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                for span in CODE_SPAN_RE.findall(line):
                    yield rel, lineno, span


def check_doc_symbols():
    words = code_words()
    errors = []
    for rel, lineno, span in reference_code_spans():
        match = QUALIFIED_RE.match(span.strip())
        if not match:
            continue
        parts = match.group(1).split("::")
        if len(parts) == 1 and not (CAMEL_RE.match(parts[0]) or
                                    SNAKE_RE.match(parts[0])):
            continue
        missing = [p for p in parts if p not in words]
        if missing:
            errors.append(f"{rel}:{lineno}: `{span}` names "
                          f"{', '.join(missing)}, which no code file "
                          "contains")
    return errors


def bench_targets():
    with open(os.path.join(REPO, "bench", "CMakeLists.txt"),
              encoding="utf-8") as f:
        return set(BENCH_TARGET_RE.findall(f.read()))


def check_doc_benches():
    targets = bench_targets()
    errors = []
    for rel, lineno, span in reference_code_spans():
        for name in BENCH_NAME_RE.findall(span):
            if name not in targets:
                errors.append(f"{rel}:{lineno}: `{span}` names {name}, "
                              "which is not a target in "
                              "bench/CMakeLists.txt")
    return errors


def code_paths():
    """Every file and directory under the code directories and scripts/,
    relative to the repo, each with a leading '/' for suffix matching."""
    paths = set()
    for top in CODE_DIRS + ("scripts",):
        for root, _, files in os.walk(os.path.join(REPO, top)):
            rel = "/" + os.path.relpath(root, REPO).replace(os.sep, "/")
            paths.add(rel)
            paths.update(f"{rel}/{name}" for name in files)
    return paths


def path_resolves(stem, suffix, paths):
    tail = "/" + stem
    if suffix is None:
        return any(p.endswith(tail) or os.path.splitext(p)[0].endswith(tail)
                   for p in paths)
    if suffix == ".*":
        return any(os.path.splitext(p)[0].endswith(tail) for p in paths)
    if suffix == "*":
        parent, base = tail.rsplit("/", 1)
        return any(p.rsplit("/", 1)[0].endswith(parent) and
                   p.rsplit("/", 1)[1].startswith(base) for p in paths)
    if suffix.startswith(".{"):
        return all(any(p.endswith(f"{tail}.{ext}") for p in paths)
                   for ext in suffix[2:-1].split(","))
    return any(p.endswith(tail + suffix) for p in paths)


def check_doc_paths():
    paths = code_paths()
    errors = []
    for rel, lineno, span in reference_code_spans():
        match = MODULE_PATH_RE.match(span.strip())
        if match and not path_resolves(match.group(1), match.group(2),
                                       paths):
            errors.append(f"{rel}:{lineno}: `{span}` names no file or "
                          "directory under the code directories")
    return errors


def main():
    errors = (check_markdown_links() + check_doc_presence() +
              check_doc_symbols() + check_doc_benches() +
              check_doc_paths())
    for error in errors:
        print(error)
    if errors:
        print(f"{len(errors)} documentation check failure(s)")
        return 1
    print("documentation checks ok "
          f"({len(markdown_files())} markdown files, "
          f"{len(public_headers())} public headers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
