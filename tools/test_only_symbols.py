#!/usr/bin/env python3
"""List src/ header names that only tests reach, or that nothing reaches.

Usage:
    tools/test_only_symbols.py

A name is an identifier that occurs in a src/**/*.hpp file once comments
and string literals are stripped. Occurrences are counted as whole words
in every *.cpp / *.hpp file of src/, tests/, bench/, examples/ and the top
level of benchmark/. Two groups are printed:

  (a) test-only: names that occur in tests/ and, outside tests/, only as
      their own declaration and definition: once in the header that
      declares them, plus out-of-line definitions (an unindented
      `Type name(` or `Type Class::name(` line) in the .cpp of the same
      stem. No other src/ file, bench, benchmark or example names
      them. Such a name is a test seam, a reference implementation, a
      paper operation kept for its own sake, or code that only its tests
      drive.
  (b) singletons: names that occur exactly once in all of those trees --
      declared and never used, not even by a test.

Both are word-level heuristics, not a compiler's view: an overloaded or
common name (`size`, `run`) is counted with every other use of the word,
so the lists err towards missing dead code, not towards inventing it.
False positives are marked "[fp: ...]": names the language calls
implicitly (coroutine and awaiter hooks), and names a header only uses,
never declares (every header occurrence is `std::`-qualified, a member
access, or an attribute). A user-defined literal suffix counts its uses
(`5_ms`) too.

This is a report, not a gate: the exit status is 0.
"""

import re
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUFFIXES = {".cpp", ".hpp"}

# Names the compiler reaches without a spelled-out call.
FALSE_POSITIVES = {
    "return_value": "coroutine promise hook",
    "return_void": "coroutine promise hook",
    "get_return_object": "coroutine promise hook",
    "initial_suspend": "coroutine promise hook",
    "final_suspend": "coroutine promise hook",
    "unhandled_exception": "coroutine promise hook",
    "await_ready": "awaiter hook",
    "await_suspend": "awaiter hook",
    "await_resume": "awaiter hook",
}

KEYWORDS = set("""
alignas alignof and asm auto bool break case catch char char8_t char16_t
char32_t class co_await co_return co_yield concept const consteval constexpr
constinit const_cast continue decltype default delete do double dynamic_cast
else enum explicit export extern false final float for friend goto if inline
int long mutable namespace new noexcept not nullptr operator or override
private protected public register reinterpret_cast requires return short
signed sizeof static static_assert static_cast struct switch template this
thread_local throw true try typedef typeid typename union unsigned using
virtual void volatile wchar_t while pragma once include define ifdef ifndef
endif
""".split())

IDENT = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")
LITERAL_SUFFIX = re.compile(r"\b[0-9][0-9.']*(_[A-Za-z]\w*)")
# An out-of-line definition: an unindented line `Type name(` or
# `Type Class::name(`.
DEFINITION = re.compile(
    r"^(?!return\b|if\b|for\b|while\b|switch\b)[A-Za-z_][\w:<>,*& ]*?"
    r"[\s:*&]([A-Za-z_]\w*)\s*\(", re.MULTILINE)
# A header occurrence after one of these uses a name declared elsewhere.
FOREIGN = re.compile(r"(std::|\.|->|\[\[)\s*$")
STRIP = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
    re.DOTALL)


def strip(text):
    """Drops comments, string and char literals, and #include lines."""
    text = re.sub(r"^\s*#\s*include[^\n]*", "", text, flags=re.MULTILINE)
    return STRIP.sub(" ", text)


def files():
    """(relative path, tree) for every scanned file."""
    out = []
    for tree in ("src", "tests", "bench", "examples"):
        for path in sorted((ROOT / tree).rglob("*")):
            if path.suffix in SUFFIXES and path.is_file():
                out.append((path.relative_to(ROOT), tree))
    for path in sorted((ROOT / "benchmark").glob("*")):
        if path.suffix in SUFFIXES and path.is_file():
            out.append((path.relative_to(ROOT), "benchmark"))
    return out


def module_of(rel):
    parts = rel.parts
    return parts[1] if len(parts) > 2 else "(top)"


def candidate(name):
    return (name not in KEYWORDS and len(name) > 2 and
            not name.isupper() and not name.startswith("__"))


def main():
    declared = defaultdict(set)  # name -> headers that hold it
    own_decl = Counter()         # name -> header occurrences not foreign
    total = Counter()            # name -> occurrences everywhere
    in_tests = Counter()         # name -> occurrences under tests/
    per_file = defaultdict(Counter)  # name -> {non-test file: count}
    defined = defaultdict(Counter)  # name -> {.cpp file: definitions}
    for rel, tree in files():
        text = strip((ROOT / rel).read_text(encoding="utf-8",
                                            errors="replace"))
        words = Counter(m.group(0) for m in IDENT.finditer(text))
        words.update(m.group(1) for m in LITERAL_SUFFIX.finditer(text))
        for word, n in words.items():
            total[word] += n
            if tree == "tests":
                in_tests[word] += n
            else:
                per_file[word][rel] += n
        if rel.suffix == ".cpp":
            for m in DEFINITION.finditer(text):
                defined[m.group(1)][rel] += 1
        if tree == "src" and rel.suffix == ".hpp":
            for m in IDENT.finditer(text):
                declared[m.group(0)].add(rel)
                if not FOREIGN.search(text[max(0, m.start() - 8):m.start()]):
                    own_decl[m.group(0)] += 1

    def label(name):
        fp = FALSE_POSITIVES.get(name)
        if fp is None and own_decl[name] == 0:
            fp = "used, not declared, by a header"
        tag = f"  [fp: {fp}]" if fp else ""
        modules = sorted({module_of(h) for h in declared[name]})
        return f"  {'/'.join(modules):<8} {name}{tag}"

    def test_only(name):
        if in_tests[name] == 0 or len(declared[name]) != 1:
            return False
        (header,) = declared[name]
        source = header.with_suffix(".cpp")
        where = per_file[name]
        if set(where) - {header, source}:
            return False
        return (where[header] <= 1 and
                where[source] <= defined[name][source])

    names = sorted(name for name in declared if candidate(name))
    group_a = [name for name in names if test_only(name)]
    group_b = [name for name in names if total[name] == 1]
    by_module = lambda name: (label(name).split()[0], name)

    print(f"(a) test-only: {len(group_a)} names that tests reach and no "
          "other src/ file, bench, benchmark or example does")
    for name in sorted(group_a, key=by_module):
        print(label(name))
    print(f"(b) singletons: {len(group_b)} names that occur exactly once")
    for name in sorted(group_b, key=by_module):
        print(label(name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
