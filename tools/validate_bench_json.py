#!/usr/bin/env python3
"""Shape check for the tracked perf-trajectory documents
(BENCH_prepare.json from bench_prepare_scale, BENCH_load.json from
bench_store_load) — shared by tools/bench_to_json.sh, the CI bench-smoke
job and the ctest tools/validate_bench_json (which checks the committed
documents) so the emitters and checks can't drift. Dispatches on each
document's "bench" id.

    tools/validate_bench_json.py FILE [FILE...]

Every check raises a real error (never `assert`, which `python3 -O`
strips), naming the file and the field; the exit status is 1 when any
document fails.
"""
import json
import sys


class ShapeError(Exception):
    """A document without the shape its bench id promises."""


def field(obj, key, path):
    """obj[key], or a ShapeError naming the field's path."""
    if not isinstance(obj, dict) or key not in obj:
        raise ShapeError(f"{path}: missing")
    return obj[key]


def number(obj, key, path, allow_zero=False):
    """A positive number (or zero, when allowed)."""
    value = field(obj, key, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ShapeError(f"{path}: not a number ({value!r})")
    if value < 0 or (value == 0 and not allow_zero):
        raise ShapeError(f"{path}: {value!r} is out of range")
    return value


def datasets_of(doc):
    """The common header: an integer hardware_threads and datasets."""
    threads = field(doc, "hardware_threads", "hardware_threads")
    if isinstance(threads, bool) or not isinstance(threads, int):
        raise ShapeError(f"hardware_threads: not an integer ({threads!r})")
    datasets = field(doc, "datasets", "datasets")
    if not isinstance(datasets, list) or not datasets:
        raise ShapeError("datasets: no datasets recorded")
    return datasets


PREPARE_PHASES = ("key", "nonkey", "distance", "candidate_sort")

# Phases a memo-hit Engine build never runs: it assembles the memoized
# non-key part (scores and Γτ sorts) and the engine's distance matrix.
MEMO_HIT_SKIPS = ("nonkey", "distance", "candidate_sort")


def check_build(build, where):
    """One build: a positive total and a non-negative time per phase."""
    number(build, "total_seconds", f"{where}.total_seconds")
    for phase in PREPARE_PHASES:
        key = f"{phase}_seconds"
        number(build, key, f"{where}.{key}", allow_zero=True)


def check_prepare(doc) -> int:
    datasets = datasets_of(doc)
    for d, dataset in enumerate(datasets):
        where = f"datasets[{d}].builds"
        builds = field(dataset, "builds", where)
        if not isinstance(builds, list) or not builds:
            raise ShapeError(f"{where}: no builds recorded")
        if field(builds[0], "threads", f"{where}[0].threads") != 1:
            raise ShapeError(f"{where}[0].threads: serial build must come "
                             f"first")
        for b, build in enumerate(builds):
            check_build(build, f"{where}[{b}]")
        for name in ("engine_first_build", "engine_memo_hit_build"):
            path = f"datasets[{d}].{name}"
            check_build(field(dataset, name, path), path)
        hit = dataset["engine_memo_hit_build"]
        for phase in MEMO_HIT_SKIPS:
            key = f"{phase}_seconds"
            if hit[key] != 0:
                raise ShapeError(f"datasets[{d}].engine_memo_hit_build.{key}:"
                                 f" {hit[key]!r}, but a memo hit computes no "
                                 f"{phase} phase")
    return len(datasets)


def check_store_load(doc) -> int:
    datasets = datasets_of(doc)
    for d, dataset in enumerate(datasets):
        where = f"datasets[{d}]"
        for key in ("entities", "nt_bytes", "egps_bytes",
                    "snapshot_mmap_heap_bytes",
                    "compile_seconds", "parse_seconds",
                    "snapshot_stream_seconds", "snapshot_mmap_seconds",
                    "snapshot_mmap_noverify_seconds",
                    "speedup_stream_vs_parse", "speedup_mmap_vs_parse"):
            number(dataset, key, f"{where}.{key}")
        if field(dataset, "previews_identical",
                 f"{where}.previews_identical") is not True:
            raise ShapeError(f"{where}.previews_identical: snapshot preview "
                             f"diverged from text parse")
    return len(datasets)


CHECKS = {
    "bench_prepare_scale": check_prepare,
    "bench_store_load": check_store_load,
}


def main(paths) -> int:
    failed = False
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
            bench = doc.get("bench") if isinstance(doc, dict) else None
            if bench not in CHECKS:
                raise ShapeError(f"bench: unexpected bench id {bench!r}")
            count = CHECKS[bench](doc)
        except (OSError, ValueError, ShapeError) as error:
            print(f"{path}: FAIL: {error}", file=sys.stderr)
            failed = True
            continue
        print(f"{path}: {bench} ... OK: {count} dataset(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} FILE [FILE...]")
    sys.exit(main(sys.argv[1:]))
