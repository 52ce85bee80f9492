#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced.  Asserts that every end-to-end and per-layer metric is printed with
its unit and that every correctness check ran and passed.

    python3 perfbench/smoke_test.py      # from the repository root
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {
    "all": ["setup_s", "wall_s", "sim_write_gibps", "sim_meta_s",
            "stored_bytes_ratio", "peak_rss_mb"],
    "live_pic": ["steps_per_s", "step_p99_ms", "step_samples",
                 "steps_beyond_p99", "readback_s"],
}
PER_LAYER = [
    "picmc.step_s", "picmc.ns_per_particle_step", "smpi.barrier_wait_s",
    "core.stage_s", "core.flush_s", "core.close_s", "core.restore_s",
    "openpmd.read_s", "bp.put_s", "bp.put_calls", "bp.ns_per_put",
    "bp.end_step_s", "bp.close_s", "bp.verify_s", "bp.chunks_verified",
    "compress.compress_s", "compress.compress_calls", "compress.decompress_s",
    "fsim.trace_ops", "fsim.posix_s",
    "fsim.replay_s", "fsim.ns_per_replayed_op", "fsim.ost_busy_max_s",
    "fsim.mds_busy_s", "fsim.mean_write_s", "fsim.mean_drain_s",
    "darshan.capture_s", "darshan.records", "darshan.serialize_s",
    "darshan.parse_s", "darshan.log_bytes", "trace_overhead_frac",
    "span_coverage_frac",
] + ["%s.%s" % (layer, kind)
     for layer in ("picmc", "smpi", "core", "openpmd", "bp", "compress",
                   "fsim", "darshan")
     for kind in ("self_s", "self_frac")]
CHECKS = {
    "paper_epoch": ["file_census", "repeat_identical", "golden_model_outputs"],
    "original_io": ["file_census", "repeat_identical", "golden_model_outputs"],
    "live_pic": ["restore_bit_exact", "diagnostics_read_back",
                 "bp_verify_all_ok", "darshan_round_trip", "repeat_identical",
                 "steps_completed", "golden_model_outputs"],
}
TRACED_CHECKS = {
    "paper_epoch": ["mirror_matches_core", "darshan_round_trip"],
    "original_io": ["mirror_matches_core", "darshan_round_trip"],
    "live_pic": [],
}
# Layers each workload must exercise in its traced run.
LAYERS_USED = {
    "paper_epoch": ["bp", "fsim", "darshan"],
    "original_io": ["fsim", "darshan"],
    "live_pic": ["picmc", "smpi", "core", "openpmd", "bp", "compress", "fsim",
                 "darshan"],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in CHECKS:
        for trace in (0, 1):
            record, line = run(workload, trace)
            where = "%s trace=%d" % (workload, trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["failed"] == 0, where
            assert line["attempted"] >= 1 and record["error_rate"] == 0, where
            listed = spec["per_layer" if trace else "end_to_end"]
            assert sorted(line["metrics"]) == sorted(m["name"] for m in listed)
            for m in listed:
                got = line["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (where, m["name"])
                assert isinstance(got["value"], (int, float)), (where, m)
            for name in END_TO_END["all"] + END_TO_END.get(workload, []):
                metric = record["metrics"][name]
                assert metric["unit"] and metric["n"] >= 1, (where, name)
                assert {"median", "q1", "q3"} <= set(metric), (where, name)
            expected = CHECKS[workload] + (TRACED_CHECKS[workload]
                                           if trace else [])
            for check in expected:
                assert record["checks"].get(check) is True, (where, check)
            for key in ("commit", "source_sha256", "seed"):
                assert key in record, (where, key)
            for key in ("nproc", "cpu_model", "compiler", "build_type"):
                assert record["machine"].get(key), (where, key)
            if trace:
                check_layers(workload, record, where)
            print("ok  %s" % where)
    print("smoke test passed")


def check_layers(workload, record, where):
    """A traced run reports every per-layer metric and its Chrome trace."""
    for name in PER_LAYER:
        assert record["layers"][name]["unit"], (where, name)
    for layer in LAYERS_USED[workload]:
        assert record["layers"][layer + ".self_s"]["value"] > 0, (where, layer)
    assert record["layers"]["span_coverage_frac"]["value"] >= 0.9, where
    with open(record["trace_json"]) as f:
        assert json.load(f)["traceEvents"], where


if __name__ == "__main__":
    main()
