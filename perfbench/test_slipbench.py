#!/usr/bin/env python3
"""Tests of the benchmark itself: simulated numbers must repeat exactly.

    python3 perfbench/test_slipbench.py

Builds slipbench through run.py, then runs every workload twice with
--trace 0 and twice with --trace 1 on the same seed, and ss_64x4 once
more with a budget that allows more passes. Host timings are the only
figures allowed to differ. slipbench itself checks every pass
against the first and every traced pass against the untimed ones, and
reports a mismatch as a failure, so a clean exit is part of the check.
Takes a few minutes.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7
SECONDS = 1
# Two passes fit in SECONDS; in LONG_SECONDS ss_64x4 makes several
# (a pass takes ~0.6 s on a 4-core x86-64 host).
LONG_SECONDS = 8

# Units of figures the model computes; everything else is host time
# or host memory.
SIM_UNITS = {"count", "frac", "1/kinst", "cycles", "inst/cycle"}
SIM_PERCENT = {"harness.campaign.detected_pct",
               "harness.campaign.silent_corrupt_pct"}

# Settings an exported variable could try to change; slipbench must
# ignore all of them.
HOSTILE_ENV = {
    "SLIPSTREAM_ASTREAM_POLICY": "reliability",
    "SLIPSTREAM_DETECT": "replay",
    "SLIPSTREAM_DISPATCH": "legacy",
    "SLIPSTREAM_ISOLATION": "fork",
    "SLIPSTREAM_JOBS": "3",
    "SLIPSTREAM_WORKERS": "3",
    "SLIPSTREAM_INVARIANTS": "1",
    "SLIPSTREAM_TRACE": "all",
}

BINARY = None


def slipbench(workload, trace, env_extra=None, seconds=SECONDS):
    env = dict(os.environ)
    env.update(env_extra or {})
    cmd = [BINARY, "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(".bench_build", "test")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=run.ROOT, timeout=run.RUN_TIMEOUT_S)
    result = run.last_json(proc.stdout)
    if result is None:
        raise AssertionError("%s printed no result:\n%s"
                             % (workload, proc.stdout))
    return proc.returncode, result


def sim_figures(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] in SIM_UNITS or name in SIM_PERCENT}


class SlipbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        BINARY = run.build()
        if BINARY is None:
            raise unittest.SkipTest("slipbench did not build")

    def check_workload(self, workload):
        runs = {}
        for key, trace, env in [("plain", 0, None),
                                ("hostile", 0, HOSTILE_ENV),
                                ("traced_a", 1, None),
                                ("traced_b", 1, None)]:
            code, result = slipbench(workload, trace, env)
            self.assertEqual(code, 0, "%s %s exit code" % (workload, key))
            self.assertTrue(result["correct"], "%s %s" % (workload, key))
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            runs[key] = result

        # Untimed: the simulated figure repeats bit for bit, whatever
        # SLIPSTREAM_* variables say.
        self.assertEqual(runs["plain"]["metrics"]["sim_ipc"],
                         runs["hostile"]["metrics"]["sim_ipc"])
        for result in (runs["plain"], runs["hostile"]):
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)

        # Traced: every simulated per-layer figure repeats exactly.
        self.assertEqual(sim_figures(runs["traced_a"]["metrics"]),
                         sim_figures(runs["traced_b"]["metrics"]))
        self.assertEqual(set(runs["traced_a"]["metrics"]),
                         set(runs["traced_b"]["metrics"]))
        return runs["traced_a"]["metrics"]

    def test_cmp_ir(self):
        m = self.check_workload("cmp_ir")
        self.assertGreater(m["slipstream.ir_detector.calls"]["value"], 0)
        self.assertGreater(m["slipstream.a_stream.removed_frac"]["value"], 0)
        # The IR-detector takes a large share of the hooked run.
        share = m["slipstream.ir_detector.host_pct"]["value"] / 100
        self.assertGreater(share, 0.2)
        self.assertLess(share, 0.8)

    def test_ss_64x4(self):
        m = self.check_workload("ss_64x4")
        self.assertEqual(m["slipstream.ir_detector.calls"]["value"], 0)
        self.assertEqual(m["slipstream.delay_buffer.packets"]["value"], 0)
        self.assertGreater(m["uarch.core.self_ns_per_inst"]["value"], 0)
        self.assertGreater(m["uarch.fetch_source.walk_ns_per_inst"]["value"],
                           0)
        # Counts are per pass: more passes leave every one unchanged.
        code, longer = slipbench("ss_64x4", 1, seconds=LONG_SECONDS)
        self.assertEqual(code, 0)
        self.assertEqual(sim_figures(longer["metrics"]), sim_figures(m))

    def test_campaign(self):
        m = self.check_workload("campaign")
        self.assertEqual(
            m["harness.outcome.detected_but_corrupt"]["value"], 0)
        self.assertGreater(m["harness.campaign.faults_injected"]["value"], 0)
        # Eight programs, sixteen trials each, per pass.
        self.assertEqual(m["harness.fault_campaign.trials"]["value"], 128)
        self.assertGreater(m["slipstream.ir_detector.calls"]["value"], 0)

    def test_serve_warm(self):
        m = self.check_workload("serve_warm")
        self.assertEqual(m["serve.result_cache.hit_frac"]["value"], 1)
        # Eight programs, four trials each, per batch.
        self.assertEqual(m["serve.lookups_per_batch"]["value"], 32)
        self.assertEqual(m["harness.fault_campaign.trials"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
