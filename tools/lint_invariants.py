#!/usr/bin/env python3
"""Repo-invariant linter: rules generic tools can't express.

Scope: first-party C++ under src/, tools/, bench/ (tests are exempt —
they deliberately poke at internals, e.g. raw sockets for misbehaving
clients), plus the Python scripts in tools/. Eleven rule families, each
born from a real bug class here:

  blocking-io   The event-loop serving core must never block on a
                socket. The blocking wrappers (SendAll, RecvSome,
                WaitReadable, each bounded by a timeout) are for clients
                and tools only; the server's event loop does
                non-blocking I/O through the Posix* wrappers.

  system-clock  Deadlines live on the CLOCK_MONOTONIC /steady_clock
                base. std::chrono::system_clock jumps with NTP/clock
                changes — a deadline on it can fire early, late, or
                never (PR 6 fixed exactly this bug class).

  naked-syscall Raw accept/read/write/recv/send/sendmsg/fsync calls skip
                both the EINTR retry loop and the fault-injection sites;
                all of them go through the Posix* wrappers in
                src/common/posix.h (PR 8 audited and fixed several
                unretried EINTR paths).

  naked-mutex   All locking goes through egp::Mutex / egp::MutexLock /
                egp::CondVar (src/common/mutex.h), which carry the
                Clang thread-safety annotations. A naked std::mutex is
                invisible to the -Wthread-safety proof.

  no-naked-stderr
                Library code (src/) must not write to stderr directly:
                fprintf(stderr, ...) / std::cerr bypass the level gate
                and interleave unpredictably with the logger and the
                access log. Everything goes through EGP_LOG from
                common/logging.h (whose implementation is the single
                allowed writer). Tools and benches own their process
                stderr and are exempt.

  layering      Modules form a DAG; an #include against the arrow
                (core/ including server/, say) couples the algorithm
                layer to the serving layer and eventually deadlocks the
                build graph. The matrix below is the whole truth.

  single-dispatch
                Library code picks a discovery algorithm through one
                function, Discover() in src/core/discover.h, so the
                auto policy (DP concise, Apriori tight/diverse) and the
                DP-with-distance rejection live in one place. Calls to
                BruteForceDiscover / DynamicProgrammingDiscover /
                AprioriDiscover / BeamSearchDiscover under src/ are
                allowed only in src/core/ (the dispatch and the
                algorithms themselves) and src/reduction/ (its
                NP-hardness check runs brute force). Benches and tools
                call the algorithms directly to reproduce the paper.

  exhaustive-walk
                Only bench/ may select Apriori's exhaustive walk
                (AprioriWalk::kExhaustive, Alg. 3 as the paper states
                it), so the request path always runs the pruned walk and
                never scores all of L_k. Its declaration in
                src/core/apriori.h is the one other mention.

  once-fill     A value computed once and shared with its waiters goes
                through egp::Memo (src/service/memo.h), which erases a
                failed or thrown computation before it fulfils the
                future, so no entry holds a failure or a broken
                promise. std::promise, std::future, std::shared_future
                and #include <future> appear in no other file: the
                Engine once had two hand-written fills, and one kept a
                broken promise cached after a thrown build.

  one-parallel-loop
                ThreadPool::Submit is called only by ParallelFor
                (src/common/parallel.cc), whose one batch protocol owns
                the nesting guard, the runners' handoff, Submit-failure
                accounting and the lowest-failure exception, and by the
                HTTP server's handler dispatch (src/server/http_server.cc).
                There were two copies of that protocol, a static and a
                dynamic scheduler; a third cannot be hand-rolled.

  python-assert A tools/*.py script checks with a raised error, never an
                assert statement: `python3 -O` (or PYTHONOPTIMIZE)
                strips asserts, and a checker whose checks vanish passes
                every bad document (tools/validate_bench_json.py did).

Exit status 0 when clean; 1 with `path:line: [rule] message` findings
otherwise. Run from anywhere: paths resolve against the repo root.
"""

import ast
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCAN_DIRS = ("src", "tools", "bench")
CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")

# ---------------------------------------------------------------------------
# Rule: blocking-io
# ---------------------------------------------------------------------------
# The blocking wrappers; the character after the name must be `(`.
BLOCKING_IO_RE = re.compile(r"\b(SendAll|RecvSome|WaitReadable)\s*\(")
BLOCKING_IO_ALLOWED = {
    "src/server/socket.h",     # declares them
    "src/server/socket.cc",    # defines them
    "src/server/http_client.cc",  # a client: blocking by design
    "tools/egp_loadgen.cc",    # RST clients block by design (a tool)
}

# ---------------------------------------------------------------------------
# Rule: naked-syscall
# ---------------------------------------------------------------------------
# Bare interruptible syscalls. Matches `read(`, `::read(` etc., but not
# member calls (`.read(`, `->send(`), qualified names (`file.read(`),
# other identifiers ending in the name (`fread(`, `pread(`,
# `SendAll(`), or the Posix* wrappers themselves.
NAKED_SYSCALL_RE = re.compile(
    r"(?:::\s*|(?<![\w.:>]))(accept4?|read|write|fsync|recv|send|sendmsg)"
    r"\s*\(")
NAKED_SYSCALL_ALLOWED = {
    "src/common/posix.h",  # the wrappers wrap the real syscalls
}

# ---------------------------------------------------------------------------
# Rule: system-clock
# ---------------------------------------------------------------------------
SYSTEM_CLOCK_RE = re.compile(r"\bsystem_clock\b")
SYSTEM_CLOCK_ALLOWED: set = set()  # no legitimate use exists today

# ---------------------------------------------------------------------------
# Rule: naked-mutex
# ---------------------------------------------------------------------------
NAKED_MUTEX_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable"
    r"|condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|#\s*include\s*<(mutex|condition_variable|shared_mutex)>"
)
NAKED_MUTEX_ALLOWED = {
    "src/common/mutex.h",  # the one wrapper over the standard primitives
}

# ---------------------------------------------------------------------------
# Rule: no-naked-stderr
# ---------------------------------------------------------------------------
# Direct stderr writes in library code. Applies to src/ only: tools and
# benches write their own process stderr (usage errors, progress).
NAKED_STDERR_RE = re.compile(r"\bfprintf\s*\(\s*stderr\b|\bstd::cerr\b")
NAKED_STDERR_ALLOWED = {
    "src/common/logging.cc",  # the logger is the single stderr writer
}

# ---------------------------------------------------------------------------
# Rule: single-dispatch
# ---------------------------------------------------------------------------
DIRECT_DISCOVER_RE = re.compile(
    r"\b(BruteForceDiscover|DynamicProgrammingDiscover|AprioriDiscover"
    r"|BeamSearchDiscover)\s*\(")
DIRECT_DISCOVER_ALLOWED_DIRS = ("src/core/", "src/reduction/")

# ---------------------------------------------------------------------------
# Rule: exhaustive-walk
# ---------------------------------------------------------------------------
# The bare enumerator, so a `using enum AprioriWalk` cannot hide it.
EXHAUSTIVE_WALK_RE = re.compile(r"\bkExhaustive\b")
EXHAUSTIVE_WALK_ALLOWED = {
    "src/core/apriori.h",  # declares it
}
EXHAUSTIVE_WALK_ALLOWED_DIRS = ("bench/",)

# ---------------------------------------------------------------------------
# Rule: once-fill
# ---------------------------------------------------------------------------
# `std::future_status` and `std::future_error` do not match: the name
# must end at a word boundary.
ONCE_FILL_RE = re.compile(
    r"\bstd::(promise|future|shared_future)\b|#\s*include\s*<future>")
ONCE_FILL_ALLOWED = {
    "src/service/memo.h",  # the one memo's fill
}

# ---------------------------------------------------------------------------
# Rule: one-parallel-loop
# ---------------------------------------------------------------------------
# A call (`pool->Submit(`, `pool.Submit(`); the declaration and the
# definition (`ThreadPool::Submit(`) do not match.
POOL_SUBMIT_RE = re.compile(r"(?:\.|->)\s*Submit\s*\(")
POOL_SUBMIT_ALLOWED = {
    "src/common/parallel.cc",     # the loop
    "src/server/http_server.cc",  # the handlers
}

# ---------------------------------------------------------------------------
# Rule: layering
# ---------------------------------------------------------------------------
# module -> modules it may #include from (first path component of a
# quoted include). Keep alphabetized; a module may always include
# itself. Tools and benches sit above every module and are unrestricted.
LAYERING = {
    "baseline": {"common", "graph"},
    "common": set(),
    "core": {"common", "graph"},
    "datagen": {"common", "graph"},
    "eval": {"common"},
    "graph": {"common"},
    "io": {"common", "core", "graph", "store"},
    "reduction": {"common", "core", "graph"},
    "server": {"common", "core", "graph", "io", "service"},
    "service": {"common", "core", "graph"},
    "store": {"common", "graph"},
}
QUOTED_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')

BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)


def strip_comments(text: str) -> str:
    """Blanks out comments, preserving line numbers (and newlines inside
    block comments) so findings point at real code."""
    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = BLOCK_COMMENT_RE.sub(blank, text)
    return "\n".join(line.split("//", 1)[0] for line in text.split("\n"))


def scan_file(rel_path: str, findings: list) -> None:
    abs_path = os.path.join(REPO_ROOT, rel_path)
    with open(abs_path, encoding="utf-8") as f:
        raw = f.read()
    code = strip_comments(raw)
    lines = code.split("\n")

    parts = rel_path.split("/")
    module = parts[1] if parts[0] == "src" and len(parts) > 2 else None

    for lineno, line in enumerate(lines, start=1):
        if rel_path not in BLOCKING_IO_ALLOWED:
            m = BLOCKING_IO_RE.search(line)
            if m:
                findings.append(
                    f"{rel_path}:{lineno}: [blocking-io] blocking {m.group(1)}() "
                    f"outside the socket/client layer — server code does "
                    f"non-blocking I/O")
        if rel_path not in NAKED_SYSCALL_ALLOWED:
            m = NAKED_SYSCALL_RE.search(line)
            if m:
                findings.append(
                    f"{rel_path}:{lineno}: [naked-syscall] raw {m.group(1)}() "
                    f"skips EINTR retry and fault injection — use "
                    f"Posix{m.group(1).capitalize()} from common/posix.h")
        if rel_path not in SYSTEM_CLOCK_ALLOWED and SYSTEM_CLOCK_RE.search(line):
            findings.append(
                f"{rel_path}:{lineno}: [system-clock] system_clock in a "
                f"deadline/timing path — use steady_clock or CLOCK_MONOTONIC "
                f"(system time jumps)")
        if rel_path not in NAKED_MUTEX_ALLOWED and NAKED_MUTEX_RE.search(line):
            findings.append(
                f"{rel_path}:{lineno}: [naked-mutex] raw standard-library "
                f"locking — use egp::Mutex/MutexLock/CondVar from "
                f"common/mutex.h (they carry the thread-safety annotations)")
        if (rel_path.startswith("src/")
                and rel_path not in NAKED_STDERR_ALLOWED
                and NAKED_STDERR_RE.search(line)):
            findings.append(
                f"{rel_path}:{lineno}: [no-naked-stderr] direct stderr "
                f"write in library code bypasses the level gate — use "
                f"EGP_LOG from common/logging.h")
        if (rel_path.startswith("src/")
                and not rel_path.startswith(DIRECT_DISCOVER_ALLOWED_DIRS)):
            m = DIRECT_DISCOVER_RE.search(line)
            if m:
                findings.append(
                    f"{rel_path}:{lineno}: [single-dispatch] direct "
                    f"{m.group(1)}() call — dispatch through Discover() "
                    f"from core/discover.h")
        if (not rel_path.startswith(EXHAUSTIVE_WALK_ALLOWED_DIRS)
                and rel_path not in EXHAUSTIVE_WALK_ALLOWED
                and EXHAUSTIVE_WALK_RE.search(line)):
            findings.append(
                f"{rel_path}:{lineno}: [exhaustive-walk] Apriori's "
                f"exhaustive walk outside bench/ — the request path runs "
                f"the pruned walk (AprioriOptions{{}})")
        if rel_path not in ONCE_FILL_ALLOWED and ONCE_FILL_RE.search(line):
            findings.append(
                f"{rel_path}:{lineno}: [once-fill] hand-written "
                f"promise/future fill — memoize through egp::Memo from "
                f"service/memo.h (it erases a failed computation before "
                f"its waiters see it)")
        if rel_path not in POOL_SUBMIT_ALLOWED and POOL_SUBMIT_RE.search(line):
            findings.append(
                f"{rel_path}:{lineno}: [one-parallel-loop] ThreadPool::Submit "
                f"outside the parallel loop and the HTTP handlers — run the "
                f"loop through ParallelFor from common/parallel.h")
        if module is not None:
            for inc in QUOTED_INCLUDE_RE.findall(line):
                target = inc.split("/", 1)[0]
                if target not in LAYERING:
                    continue  # tests/testing helpers etc. — not a module
                allowed = LAYERING.get(module)
                if allowed is None:
                    findings.append(
                        f"{rel_path}:{lineno}: [layering] unknown module "
                        f"'{module}' — add it to LAYERING in "
                        f"tools/lint_invariants.py")
                    break
                if target != module and target not in allowed:
                    findings.append(
                        f"{rel_path}:{lineno}: [layering] {module}/ must not "
                        f"include {target}/ (allowed: "
                        f"{', '.join(sorted(allowed)) or 'nothing'})")


def scan_python(rel_path: str, findings: list) -> None:
    abs_path = os.path.join(REPO_ROOT, rel_path)
    with open(abs_path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=rel_path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            findings.append(
                f"{rel_path}:{node.lineno}: [python-assert] assert "
                f"statement — python3 -O strips it; raise an error instead")


def main() -> int:
    findings: list = []
    scanned = 0
    for name in sorted(os.listdir(os.path.join(REPO_ROOT, "tools"))):
        if name.endswith(".py"):
            scan_python(f"tools/{name}", findings)
            scanned += 1
    for scan_dir in SCAN_DIRS:
        root = os.path.join(REPO_ROOT, scan_dir)
        for dirpath, _, filenames in os.walk(root):
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), REPO_ROOT)
                rel = rel.replace(os.sep, "/")
                scan_file(rel, findings)
                scanned += 1
    for finding in sorted(findings):
        print(finding)
    status = 1 if findings else 0
    print(f"lint_invariants: {scanned} files scanned, "
          f"{len(findings)} finding(s)", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
