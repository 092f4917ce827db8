#!/usr/bin/env python3
"""Shape check for the tracked perf-trajectory documents
(BENCH_prepare.json from bench_prepare_scale, BENCH_load.json from
bench_store_load) — shared by tools/bench_to_json.sh, the CI bench-smoke
job and the ctest tools/validate_bench_json (which checks the committed
documents) so the emitters and checks can't drift. Dispatches on each
document's "bench" id.

    tools/validate_bench_json.py FILE [FILE...]
"""
import json
import sys


def check_prepare(doc) -> None:
    assert isinstance(doc["hardware_threads"], int), "missing hardware_threads"
    assert doc["datasets"], "no datasets recorded"
    for dataset in doc["datasets"]:
        builds = dataset["builds"]
        assert builds and builds[0]["threads"] == 1, \
            "serial build must come first"
        for build in builds:
            assert build["total_seconds"] > 0, "non-positive build time"
            for phase in ("key", "nonkey", "distance", "candidate_sort"):
                assert build[f"{phase}_seconds"] >= 0, f"missing {phase} phase"
    print(f"OK: {len(doc['datasets'])} dataset(s)")


def check_store_load(doc) -> None:
    assert isinstance(doc["hardware_threads"], int), "missing hardware_threads"
    assert doc["datasets"], "no datasets recorded"
    for dataset in doc["datasets"]:
        assert dataset["entities"] > 0, "empty dataset"
        assert dataset["nt_bytes"] > 0, "missing .nt file size"
        assert dataset["egps_bytes"] > 0, "missing .egps file size"
        for phase in ("compile", "parse", "snapshot_stream", "snapshot_mmap",
                      "snapshot_mmap_noverify"):
            assert dataset[f"{phase}_seconds"] > 0, f"non-positive {phase}"
        assert dataset["speedup_stream_vs_parse"] > 0, "missing speedup"
        assert dataset["speedup_mmap_vs_parse"] > 0, "missing speedup"
        assert dataset["previews_identical"] is True, \
            "snapshot preview diverged from text parse"
    print(f"OK: {len(doc['datasets'])} dataset(s)")


CHECKS = {
    "bench_prepare_scale": check_prepare,
    "bench_store_load": check_store_load,
}


def main(paths) -> int:
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        bench = doc.get("bench")
        assert bench in CHECKS, f"{path}: unexpected bench id {bench!r}"
        print(f"{path}: {bench} ... ", end="")
        CHECKS[bench](doc)
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} FILE [FILE...]")
    sys.exit(main(sys.argv[1:]))
