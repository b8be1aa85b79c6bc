#!/usr/bin/env python3
"""Repo-specific lint rules that clang-tidy cannot express.

Run from the repository root:  python3 tools/lint.py
Exit status is non-zero iff any finding is reported. CI runs this as a
gating job next to clang-tidy.

Rules (each has a NOLINT category for per-line suppression):

  whyprov-raw-sync
      Outside src/util/mutex.h, code must use util::Mutex /
      util::MutexLock / util::CondVar — never std::mutex,
      std::lock_guard, std::unique_lock, std::condition_variable and
      friends, nor include <mutex> / <condition_variable> /
      <shared_mutex>. The wrappers carry the Clang thread-safety
      annotations; a raw primitive is invisible to the analysis.

  whyprov-unchecked-value
      `.value()` on a util::Result (or optional) must be preceded by an
      `ok()` / `has_value()` / `status()` check of the same variable in
      the same function. Chained `Foo(...).value()` with no named
      result is always a finding: there is nothing to have checked.

  whyprov-raw-frame-io
      Wire frames must go through the checked helpers in net/wire.h
      (WriteFrame / ReadFrame, WireWriter / WireReader). Outside
      util/socket.* and net/wire.cc, calls to SendAll / RecvAll or
      manual frame-length byte shifting are findings — hand-rolled
      size arithmetic is how length-prefix bugs happen.

  whyprov-nolint-reason
      Every NOLINT must be per-line, name a category, and carry a
      reason: `// NOLINT(category): why`. Bare NOLINT and
      NOLINTBEGIN/END blocks are findings — blanket suppressions hide
      new violations.

  whyprov-duplicate-type
      A `struct` or `class` defined at namespace scope must have one
      definition in src/: the same name defined in two files within the
      same named namespace is a finding at each definition. Two such
      definitions are an ODR violation that links silently and then
      runs one type's destructor on the other's object. Types in an
      anonymous namespace are file-local and exempt.

Suppress a single line with its category and a reason, e.g.:
    socket_.SendAll(data, size);  // NOLINT(whyprov-raw-frame-io): ...
"""

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

LINT_DIRS = ("src", "tests", "bench", "fuzz", "tools")
CXX_SUFFIXES = {".h", ".cc"}

# --- rule configuration ------------------------------------------------------

RAW_SYNC_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable|condition_variable_any|call_once"
    r"|once_flag)\b"
)
RAW_SYNC_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(mutex|condition_variable|shared_mutex)>"
)
# The one place allowed to touch the raw primitives: the wrapper itself.
RAW_SYNC_ALLOWED = {pathlib.PurePosixPath("src/util/mutex.h")}

VALUE_CALL_RE = re.compile(
    r"(?:std::move\(\s*(?:\*?)(\w+)\s*\)|(\b\w+))\s*(?:\.|->)\s*value\s*\(\s*\)"
)
# `Foo(...).value()` — a temporary nobody could have checked. Does NOT
# match `std::move(x).value()`: that is the named-identifier case above
# (the check window is searched for `x`). Production code (src/) only:
# tests deliberately chain .value() on known-good literals, where the
# debug assert inside value() is the check.
CHAINED_VALUE_RE = re.compile(r"\)\s*\.\s*value\s*\(\s*\)")
MOVED_IDENTIFIER_RE = re.compile(r"std::move\(\s*\*?\w+\s*\)\s*$")

FRAME_IO_RE = re.compile(r"\b(?:SendAll|RecvAll)\s*\(")
# Manual length-prefix assembly: byte-shifting a length into or out of a
# buffer, as WriteFrame/ReadFrame do internally.
FRAME_SHIFT_RE = re.compile(r"length\s*(?:>>|<<)\s*shift|shift\s*<\s*32")
FRAME_IO_ALLOWED = {
    pathlib.PurePosixPath("src/util/socket.h"),
    pathlib.PurePosixPath("src/util/socket.cc"),
    pathlib.PurePosixPath("src/util/wire_format.h"),
    pathlib.PurePosixPath("src/util/wire_format.cc"),
    pathlib.PurePosixPath("src/net/wire.cc"),
}

NOLINT_RE = re.compile(r"NOLINT(\w*)")
NOLINT_OK_RE = re.compile(r"NOLINT(?:NEXTLINE)?\(([\w\-/,: ]+)\)\s*:\s*\S")
SUPPRESS_RE = re.compile(r"NOLINT(?:NEXTLINE)?\(([\w\-/,: ]+)\)")

# Identifier "checked" markers for whyprov-unchecked-value.
CHECK_FORMS = ("ok", "has_value", "status")

# The header text before a `{`, up to the previous `;`, `{` or `}`.
NAMESPACE_HEADER_RE = re.compile(r"\bnamespace\s*([\w:]*)\s*$")
EXTERN_HEADER_RE = re.compile(r"\bextern\s*\"[^\"]*\"\s*$")
# `struct|class [[attr]] MACRO(args) Name [final] [: bases]` — but not
# `enum class`, and not an out-of-line `Outer::Nested` definition.
TYPE_HEADER_RE = re.compile(
    r"(?<!enum)\s\b(struct|class)\s+(?:\[\[[^\]]*\]\]\s*)?"
    r"(?:\w+\([^)]*\)\s*)?(\w+)\s*(?:final\s*)?(?::(?!:)[^{]*)?$")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving offsets.

    Keeps NOLINT comments intact (the suppression scanner needs them);
    everything else inside comments/strings becomes spaces so the rule
    regexes cannot match there.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            if "NOLINT" not in text[i:end]:
                for j in range(i, end):
                    out[j] = " "
            i = end
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            for j in range(i, end):
                if out[j] != "\n":
                    out[j] = " "
            i = end
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            for k in range(i + 1, j - 1):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        else:
            i += 1
    return "".join(out)


class Findings:
    def __init__(self):
        self.items = []

    def add(self, path, line_number, rule, message, line_text,
            previous_line_text=""):
        if self._suppressed(rule, line_text, previous_line_text):
            return
        self.items.append((path, line_number, rule, message))

    @staticmethod
    def _suppressed(rule, line_text, previous_line_text):
        match = SUPPRESS_RE.search(line_text)
        if match and rule in match.group(1):
            return True
        previous = SUPPRESS_RE.search(previous_line_text)
        return (previous is not None and "NOLINTNEXTLINE" in previous_line_text
                and rule in previous.group(1))

    def report(self):
        for path, line_number, rule, message in sorted(self.items):
            print(f"{path}:{line_number}: [{rule}] {message}")
        return len(self.items)


def relative(path):
    return pathlib.PurePosixPath(path.relative_to(REPO_ROOT).as_posix())


def check_raw_sync(path, lines, findings):
    if relative(path) in RAW_SYNC_ALLOWED:
        return
    for number, line in enumerate(lines, 1):
        if RAW_SYNC_RE.search(line):
            findings.add(path, number, "whyprov-raw-sync",
                         "raw std synchronization primitive; use "
                         "util::Mutex/MutexLock/CondVar (util/mutex.h)",
                         line, lines[number - 2] if number > 1 else "")
        if RAW_SYNC_INCLUDE_RE.search(line):
            findings.add(path, number, "whyprov-raw-sync",
                         "include of a raw synchronization header; "
                         "include \"util/mutex.h\" instead", line,
                         lines[number - 2] if number > 1 else "")


def enclosing_function_start(text, position):
    """Best-effort offset of the body of the function containing
    `position`: the outermost open brace whose header text does not
    look like a namespace/class/struct/enum/extern block."""
    depth_stack = []
    for i, c in enumerate(text[:position]):
        if c == "{":
            depth_stack.append(i)
        elif c == "}" and depth_stack:
            depth_stack.pop()
    non_function = re.compile(
        r"\b(namespace|class|struct|union|enum|extern)\b[^;{}()]*$")
    for brace in depth_stack:
        header = text[max(0, brace - 200):brace]
        if not non_function.search(header):
            return brace
    return 0


def check_unchecked_value(path, text, findings):
    lines = text.splitlines()

    def line_of(offset):
        return text.count("\n", 0, offset) + 1

    for match in VALUE_CALL_RE.finditer(text):
        identifier = match.group(1) or match.group(2)
        if identifier in ("std", "move"):
            continue
        start = enclosing_function_start(text, match.start())
        window = text[start:match.start()]
        checked = re.compile(
            r"\b%s\b\s*(?:\.|->)\s*(?:%s)\s*\("
            % (re.escape(identifier), "|".join(CHECK_FORMS)))
        if checked.search(window):
            continue
        number = line_of(match.start())
        findings.add(path, number, "whyprov-unchecked-value",
                     f"`{identifier}.value()` without a preceding "
                     f"{identifier}.ok()/has_value() check in the same "
                     "function", lines[number - 1],
                     lines[number - 2] if number > 1 else "")
    if not str(relative(path)).startswith("src/"):
        return
    for match in CHAINED_VALUE_RE.finditer(text):
        if MOVED_IDENTIFIER_RE.search(text, 0, match.start() + 1):
            continue  # `std::move(x).value()`: handled by the rule above
        number = line_of(match.start())
        findings.add(path, number, "whyprov-unchecked-value",
                     "chained `.value()` on an unnamed temporary — bind "
                     "the result and check ok() first",
                     lines[number - 1],
                     lines[number - 2] if number > 1 else "")


def check_raw_frame_io(path, lines, findings):
    if relative(path) in FRAME_IO_ALLOWED:
        return
    for number, line in enumerate(lines, 1):
        if FRAME_IO_RE.search(line):
            findings.add(path, number, "whyprov-raw-frame-io",
                         "raw SendAll/RecvAll; frames go through "
                         "WriteFrame/ReadFrame (net/wire.h)", line,
                         lines[number - 2] if number > 1 else "")
        if FRAME_SHIFT_RE.search(line):
            findings.add(path, number, "whyprov-raw-frame-io",
                         "manual frame-length byte shifting; use the "
                         "net/wire.h helpers", line,
                         lines[number - 2] if number > 1 else "")


def check_nolint_discipline(path, lines, findings):
    for number, line in enumerate(lines, 1):
        for match in NOLINT_RE.finditer(line):
            suffix = match.group(1)
            if suffix in ("BEGIN", "END"):
                findings.add(path, number, "whyprov-nolint-reason",
                             "NOLINT block suppression; use per-line "
                             "NOLINT(category): reason", line)
            elif not NOLINT_OK_RE.search(line[match.start():]):
                findings.add(path, number, "whyprov-nolint-reason",
                             "NOLINT without `(category): reason`", line)


def collect_type_definitions(path, text, definitions):
    """Records each namespace-scope struct/class definition of a src/
    file as definitions[(namespace, name)] -> [(path, line)]."""
    if not str(relative(path)).startswith("src/"):
        return
    # One entry per open brace: a namespace name, "" for an anonymous
    # namespace, None for an extern "C" block, False for anything else.
    stack = []
    header_start = 0
    for i, c in enumerate(text):
        if c in ";}":
            if c == "}" and stack:
                stack.pop()
            header_start = i + 1
        elif c == "{":
            header = text[header_start:i]
            header_start = i + 1
            namespace = NAMESPACE_HEADER_RE.search(header)
            if namespace:
                stack.append(namespace.group(1))
                continue
            if EXTERN_HEADER_RE.search(header):
                stack.append(None)
                continue
            scopes = [entry for entry in stack if entry is not None]
            match = TYPE_HEADER_RE.search(" " + header)
            if match and scopes and all(scopes):
                line = text.count("\n", 0, i) + 1
                key = ("::".join(scopes), match.group(2))
                definitions.setdefault(key, []).append((path, line))
            stack.append(False)


def check_duplicate_types(definitions, findings):
    for (namespace, name), places in sorted(definitions.items()):
        if len({path for path, _ in places}) < 2:
            continue
        for path, line in places:
            others = ", ".join(f"{relative(other)}:{other_line}"
                               for other, other_line in places
                               if other != path)
            line_text = path.read_text(encoding="utf-8",
                                       errors="replace").splitlines()
            findings.add(path, line, "whyprov-duplicate-type",
                         f"`{namespace}::{name}` is also defined at "
                         f"{others}; keep one definition",
                         line_text[line - 1],
                         line_text[line - 2] if line > 1 else "")


def lint_file(path, findings, definitions):
    raw = path.read_text(encoding="utf-8", errors="replace")
    stripped = strip_comments_and_strings(raw)
    stripped_lines = stripped.splitlines()
    raw_lines = raw.splitlines()
    check_raw_sync(path, stripped_lines, findings)
    check_unchecked_value(path, stripped, findings)
    check_raw_frame_io(path, stripped_lines, findings)
    check_nolint_discipline(path, raw_lines, findings)
    collect_type_definitions(path, stripped, definitions)


def main():
    findings = Findings()
    definitions = {}
    count = 0
    for directory in LINT_DIRS:
        root = REPO_ROOT / directory
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                lint_file(path, findings, definitions)
                count += 1
    check_duplicate_types(definitions, findings)
    reported = findings.report()
    print(f"lint.py: {count} files, {reported} finding(s)")
    return 1 if reported else 0


if __name__ == "__main__":
    sys.exit(main())
