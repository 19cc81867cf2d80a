#!/usr/bin/env python3
"""Unit tests for check_perf_trend.py — the perf gate itself is part of
the regression surface: a gate that silently stops failing is worse
than no gate. Run directly (python3 scripts/test_check_perf_trend.py)
or via ctest (registered in CMakeLists.txt).

Covers: same-CPU hard failures (kernel variants, serving, model),
cross-machine warn-only demotion, shape-mismatch skip, and the
--write-baseline arming flow.
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_perf_trend  # noqa: E402


def artifact(cpu="Test CPU v1", v3=100.0, requests_per_s=5000.0,
             fused_ms=2.0, offered_rps=1000.0, decode_p99_us=2000,
             prefill_p99_us=20000, bursty_offered_rps=1000.0,
             bursty_decode_p99_us=4000, submit_4t_rps=20000.0,
             overload_offered_rps=1500.0, overload_shed_p99_us=3000,
             overload_block_p99_us=8000, trace_ratio=0.99,
             decode_tok_s=5000.0):
    return {
        "bench": "bench_resident",
        "schema_version": 2,
        "cpu": cpu,
        "shape": {"m": 256, "n": 2048, "k": 2048},
        "threads": 1,
        "variants": [
            {"variant": "V1", "gflops": 80.0, "ms": 1.0},
            {"variant": "V3", "gflops": v3, "ms": 1.0},
        ],
        "serving": {"requests_per_s": requests_per_s},
        "model": {"fused_ms": fused_ms, "fused_speedup": 1.2},
        "model_decode": {"hidden": 512, "seqs": 4, "threads": 1,
                         "points": [
                             {"context": 32, "tokens_per_s": decode_tok_s},
                             {"context": 128,
                              "tokens_per_s": decode_tok_s * 0.8},
                         ],
                         "kv_resident_bytes": 2621440,
                         "kv_pages": 20,
                         "kv_bytes_per_token": 2048},
        "serving_open": {
            "schema_version": 1,
            "gate": {"offered_rps": offered_rps,
                     "decode_p99_us": decode_p99_us,
                     "prefill_p99_us": prefill_p99_us},
            "bursty": {"offered_rps": bursty_offered_rps,
                       "decode_p99_us": bursty_decode_p99_us,
                       "prefill_p99_us": 40000},
            "submit_scaling": {"points": [
                {"threads": 1, "rps": 10000.0},
                {"threads": 4, "rps": submit_4t_rps},
            ]},
            "trace_overhead": {"sample_n": 1024, "threads": 4,
                               "traced_rps": 20000.0 * trace_ratio,
                               "untraced_rps": 20000.0,
                               "on_off_ratio": trace_ratio},
            "overload": {"offered_rps": overload_offered_rps,
                         "shed_pending_rows": 256,
                         "policies": [
                             {"policy": "block",
                              "decode_p99_us": overload_block_p99_us},
                             {"policy": "shed",
                              "decode_p99_us": overload_shed_p99_us},
                             {"policy": "shed_by_class",
                              "decode_p99_us": overload_shed_p99_us},
                         ]},
        },
    }


class CheckPerfTrendTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.baseline = os.path.join(self.dir.name, "baseline.json")
        self.fresh = os.path.join(self.dir.name, "fresh.json")

    def tearDown(self):
        self.dir.cleanup()

    def write(self, path, doc):
        with open(path, "w") as f:
            json.dump(doc, f)

    def run_gate(self, *extra):
        return check_perf_trend.main([self.baseline, self.fresh, *extra])

    def test_no_regression_passes(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(v3=101.0))
        self.assertEqual(self.run_gate(), 0)

    def test_variant_regression_fails_on_same_cpu(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(v3=80.0))  # -20% GFLOP/s
        self.assertEqual(self.run_gate(), 1)

    def test_variant_regression_warns_only_across_cpus(self):
        self.write(self.baseline, artifact(cpu="Other CPU"))
        self.write(self.fresh, artifact(v3=80.0))
        self.assertEqual(self.run_gate(), 0)

    def test_unknown_cpu_never_gates_hard(self):
        self.write(self.baseline, artifact(cpu="unknown"))
        self.write(self.fresh, artifact(cpu="unknown", v3=50.0))
        self.assertEqual(self.run_gate(), 0)

    def test_serving_regression_fails_on_same_cpu(self):
        # The historical bug under test: serving/model were warn-only
        # even with a verifiably comparable baseline.
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(requests_per_s=3000.0))  # -40%
        self.assertEqual(self.run_gate(), 1)

    def test_model_regression_fails_on_same_cpu(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(fused_ms=3.0))  # +50% latency
        self.assertEqual(self.run_gate(), 1)

    def test_serving_and_model_warn_only_across_cpus(self):
        self.write(self.baseline, artifact(cpu="Other CPU"))
        self.write(self.fresh,
                   artifact(requests_per_s=3000.0, fused_ms=3.0))
        self.assertEqual(self.run_gate(), 0)

    def test_model_improvement_is_not_a_failure(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(fused_ms=1.0))  # faster
        self.assertEqual(self.run_gate(), 0)

    def test_shape_mismatch_skips(self):
        base = artifact()
        fresh = artifact(v3=10.0)  # huge regression, but incomparable
        fresh["shape"]["n"] = 4096
        self.write(self.baseline, base)
        self.write(self.fresh, fresh)
        self.assertEqual(self.run_gate(), 0)

    def test_threshold_is_respected(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(v3=85.0))  # -15%
        self.assertEqual(self.run_gate("--threshold", "0.20"), 0)
        self.assertEqual(self.run_gate("--threshold", "0.10"), 1)

    def test_write_baseline_adopts_fresh_on_success(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(v3=150.0, cpu="Test CPU v1"))
        self.assertEqual(self.run_gate("--write-baseline"), 0)
        with open(self.baseline) as f:
            adopted = json.load(f)
        self.assertEqual(adopted["variants"][1]["gflops"], 150.0)

    def test_write_baseline_refuses_on_failure(self):
        base = artifact()
        self.write(self.baseline, base)
        self.write(self.fresh, artifact(v3=50.0))
        self.assertEqual(self.run_gate("--write-baseline"), 1)
        with open(self.baseline) as f:
            kept = json.load(f)
        self.assertEqual(kept, base)  # regression must not rewrite it

    def test_write_baseline_bootstraps_missing_baseline(self):
        fresh = artifact()
        self.write(self.fresh, fresh)
        self.assertEqual(self.run_gate("--write-baseline"), 0)
        with open(self.baseline) as f:
            self.assertEqual(json.load(f), fresh)

    def test_missing_variant_in_baseline_is_skipped(self):
        base = artifact()
        base["variants"] = [v for v in base["variants"]
                            if v["variant"] != "V3"]
        self.write(self.baseline, base)
        self.write(self.fresh, artifact(v3=1.0))
        self.assertEqual(self.run_gate(), 0)

    def test_serving_open_p99_regression_fails_on_same_cpu(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(decode_p99_us=3000))  # +50% p99
        self.assertEqual(self.run_gate(), 1)

    def test_serving_open_prefill_p99_gates_too(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(prefill_p99_us=30000))  # +50%
        self.assertEqual(self.run_gate(), 1)

    def test_serving_open_p99_improvement_passes(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(decode_p99_us=1000))  # faster
        self.assertEqual(self.run_gate(), 0)

    def test_serving_open_warns_only_across_cpus(self):
        self.write(self.baseline, artifact(cpu="Other CPU"))
        self.write(self.fresh, artifact(decode_p99_us=3000))
        self.assertEqual(self.run_gate(), 0)

    def test_serving_open_skips_when_offered_load_moved(self):
        # p99 at a different offered load is a different quantity: a
        # >25% load drift must skip the gate, not fail it.
        self.write(self.baseline, artifact())
        self.write(self.fresh,
                   artifact(offered_rps=2000.0, decode_p99_us=9000))
        self.assertEqual(self.run_gate(), 0)

    def test_missing_serving_open_section_is_skipped(self):
        base = artifact()
        del base["serving_open"]
        self.write(self.baseline, base)
        self.write(self.fresh, artifact(decode_p99_us=9000))
        self.assertEqual(self.run_gate(), 0)

    def test_bursty_p99_regression_fails_on_same_cpu(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(bursty_decode_p99_us=6000))  # +50%
        self.assertEqual(self.run_gate(), 1)

    def test_bursty_warns_only_across_cpus(self):
        self.write(self.baseline, artifact(cpu="Other CPU"))
        self.write(self.fresh, artifact(bursty_decode_p99_us=6000))
        self.assertEqual(self.run_gate(), 0)

    def test_bursty_skips_when_offered_load_moved(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(bursty_offered_rps=2000.0,
                                        bursty_decode_p99_us=20000))
        self.assertEqual(self.run_gate(), 0)

    def test_overload_shed_p99_regression_fails_on_same_cpu(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(overload_shed_p99_us=4500))  # +50%
        self.assertEqual(self.run_gate(), 1)

    def test_overload_block_p99_never_gates(self):
        # kBlock p99 inherits the whole backlog and is unbounded by
        # design at any overload factor — it must never gate.
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(overload_block_p99_us=999999))
        self.assertEqual(self.run_gate(), 0)

    def test_overload_warns_only_across_cpus(self):
        self.write(self.baseline, artifact(cpu="Other CPU"))
        self.write(self.fresh, artifact(overload_shed_p99_us=4500))
        self.assertEqual(self.run_gate(), 0)

    def test_overload_skips_when_offered_load_moved(self):
        # The overload rate is capacity-relative, so it drifts with the
        # machine: a >25% move must skip the gate, not fail it.
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(overload_offered_rps=3000.0,
                                        overload_shed_p99_us=99999))
        self.assertEqual(self.run_gate(), 0)

    def test_baseline_without_overload_section_is_skipped(self):
        base = artifact()
        del base["serving_open"]["overload"]
        self.write(self.baseline, base)
        self.write(self.fresh, artifact(overload_shed_p99_us=99999))
        self.assertEqual(self.run_gate(), 0)

    def test_submit_scaling_regression_fails_on_same_cpu(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(submit_4t_rps=10000.0))  # -50%
        self.assertEqual(self.run_gate(), 1)

    def test_submit_scaling_warns_only_across_cpus(self):
        self.write(self.baseline, artifact(cpu="Other CPU"))
        self.write(self.fresh, artifact(submit_4t_rps=10000.0))
        self.assertEqual(self.run_gate(), 0)

    def test_submit_scaling_new_point_without_baseline_is_skipped(self):
        base = artifact()
        base["serving_open"]["submit_scaling"]["points"] = [
            {"threads": 1, "rps": 10000.0}]
        self.write(self.baseline, base)
        self.write(self.fresh, artifact(submit_4t_rps=1.0))
        self.assertEqual(self.run_gate(), 0)

    def test_baseline_without_new_sections_is_skipped(self):
        # Baselines predating the bursty/submit_scaling blocks must not
        # fail the gate when a fresh artifact carries them.
        base = artifact()
        del base["serving_open"]["bursty"]
        del base["serving_open"]["submit_scaling"]
        self.write(self.baseline, base)
        self.write(self.fresh, artifact(bursty_decode_p99_us=99999,
                                        submit_4t_rps=1.0))
        self.assertEqual(self.run_gate(), 0)

    def test_model_decode_regression_fails_on_same_cpu(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(decode_tok_s=3000.0))  # -40%
        self.assertEqual(self.run_gate(), 1)

    def test_model_decode_warns_only_across_cpus(self):
        self.write(self.baseline, artifact(cpu="Other CPU"))
        self.write(self.fresh, artifact(decode_tok_s=3000.0))
        self.assertEqual(self.run_gate(), 0)

    def test_model_decode_new_context_point_is_skipped(self):
        base = artifact()
        base["model_decode"]["points"] = [
            {"context": 32, "tokens_per_s": 5000.0}]
        self.write(self.baseline, base)
        self.write(self.fresh, artifact(decode_tok_s=5000.0))
        # The ctx-128 point has no baseline: warn and skip, don't fail.
        self.assertEqual(self.run_gate(), 0)

    def test_baseline_without_model_decode_section_is_skipped(self):
        base = artifact()
        del base["model_decode"]
        self.write(self.baseline, base)
        self.write(self.fresh, artifact(decode_tok_s=1.0))
        self.assertEqual(self.run_gate(), 0)

    def test_trace_overhead_below_097_fails_even_across_cpus(self):
        # The ratio is self-relative (both sides measured on the runner
        # in one bench run), so it gates hard without a same-CPU
        # baseline — a cross-machine baseline must not demote it.
        self.write(self.baseline, artifact(cpu="Other CPU"))
        self.write(self.fresh, artifact(trace_ratio=0.90))
        self.assertEqual(self.run_gate(), 1)

    def test_trace_overhead_at_or_above_097_passes(self):
        self.write(self.baseline, artifact())
        self.write(self.fresh, artifact(trace_ratio=0.97))
        self.assertEqual(self.run_gate(), 0)

    def test_missing_trace_overhead_section_is_skipped(self):
        fresh = artifact()
        del fresh["serving_open"]["trace_overhead"]
        self.write(self.baseline, artifact())
        self.write(self.fresh, fresh)
        self.assertEqual(self.run_gate(), 0)

    def test_new_sections_in_fresh_do_not_break_old_baselines(self):
        base = artifact()
        del base["model"]
        fresh = artifact()
        fresh["resident"] = {"packed_only": {"resident_bytes": 1}}
        self.write(self.baseline, base)
        self.write(self.fresh, fresh)
        self.assertEqual(self.run_gate(), 0)


if __name__ == "__main__":
    unittest.main()
