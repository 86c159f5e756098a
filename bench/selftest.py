#!/usr/bin/env python3
"""Tests of the benchmark itself: determinism and fault detection.

Run from the repository root::

    python3 bench/selftest.py

The generator must give identical inputs for a seed, and every oracle check
must catch a deliberately injected fault: a stored interval widened past
its crossing, K lowered below the dense maximum, a flipped search status on
an obstructed system, and one changed byte in a CLI report.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import switchcert as lib  # noqa: E402

import docs  # noqa: E402
import gen  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def first(pool, predicate):
    return next(spec for spec in pool if predicate(spec))


class Determinism(unittest.TestCase):
    def assert_same_pool(self, a, b):
        self.assertEqual(len(a), len(b))
        for x, y in zip(a, b):
            self.assertEqual((x.name, x.label, x.edges, x.blocks, x.etas), (y.name, y.label, y.edges, y.blocks, y.etas))
            for m, n in zip(x.matrices + x.bases, y.matrices + y.bases):
                np.testing.assert_array_equal(m, n)

    def test_pools_repeat_per_seed(self):
        self.assert_same_pool(gen.library_pool(5), gen.library_pool(5))

    def test_pools_differ_across_seeds(self):
        a, b = gen.decide_pool(5), gen.decide_pool(6)
        self.assertFalse(all(np.array_equal(x.matrices[0], y.matrices[0]) for x, y in zip(a, b)))

    def test_cli_commands_repeat_per_seed(self):
        def listing(seed):
            written = {}

            def write(name, doc):
                written[name] = json.dumps(doc, sort_keys=True)
                return name

            cmds = docs.commands(seed, write)
            return written, [(c.name, c.argv, c.expected_exit, c.certifiable) for c in cmds]

        self.assertEqual(listing(3), listing(3))

    def test_labels_hold_under_the_oracle(self):
        for spec in gen.library_pool(5):
            if spec.label == "obstructed":
                self.assertIsNotNone(oracle.trace_obstruction(spec.matrices, spec.k, spec.edges))
            elif spec.label == "certifiable":
                self.assertTrue(gen.certifiable_at_face_value(spec.matrices, spec.bases, spec.edges))
            else:
                self.assertTrue(gen.rescalable_at_witness(spec.matrices, spec.bases, spec.edges, spec.etas))


class FaultInjection(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        tr = tracing.Tracer(False)
        pool = gen.decide_pool(5)
        cls.decide = jobs.decide_job(lib, tr, first(pool, lambda s: s.planar_real), 1)
        rescale_pool = gen.rescale_pool(5)
        cls.obstructed = jobs.rescale_job(lib, tr, first(rescale_pool, lambda s: s.label == "obstructed"), 1)

    def test_unmodified_jobs_pass(self):
        self.assertEqual(jobs.check_decide(lib, self.decide), ([], True))
        self.assertEqual(jobs.check_rescale(lib, self.obstructed), ([], False))

    def with_certificate(self, cert):
        return dataclasses.replace(self.decide, certificate=cert)

    def test_widened_interval_is_caught(self):
        cert = self.decide.certificate
        spec = self.decide.spec
        for i, cond in enumerate(cert.conditions):
            lo, hi = cond.interval
            # Move an end of the stored interval past the dwell where the
            # oracle norm first reaches 1 beyond it: past its crossing.
            for ts, build in (
                (np.linspace(hi, gen.T_MAX, 4000), lambda t: (lo, t + 0.05)),
                (np.linspace(lo, 1e-6, 4000), lambda t: (max(t - 0.05, 1e-9), hi)),
            ):
                norms = oracle.edge_norms(spec.matrices, spec.bases, cond.edge, ts)
                if (norms >= 1.0).any():
                    wide = dataclasses.replace(cond, interval=build(float(ts[np.argmax(norms >= 1.0)])))
                    conditions = cert.conditions[:i] + (wide,) + cert.conditions[i + 1 :]
                    faulty = dataclasses.replace(cert, conditions=conditions)
                    problems, certified = jobs.check_decide(lib, self.with_certificate(faulty))
                    self.assertFalse(certified)
                    self.assertTrue(any("exceeds K" in p for p in problems), problems)
                    return
        self.fail("no stored interval has a crossing to widen past")

    def test_lowered_k_is_caught(self):
        cert = self.decide.certificate
        faulty = dataclasses.replace(cert, contraction_k=cert.contraction_k * (1 - 1e-6))
        problems, certified = jobs.check_decide(lib, self.with_certificate(faulty))
        self.assertFalse(certified)
        self.assertTrue(any("exceeds K" in p for p in problems), problems)

    def test_flipped_search_status_is_caught(self):
        flipped = dataclasses.replace(self.obstructed.search, status="feasible")
        problems, _ = jobs.check_rescale(lib, dataclasses.replace(self.obstructed, search=flipped))
        self.assertTrue(any("obstructed system came back feasible" in p for p in problems), problems)

    def test_changed_report_byte_is_caught(self):
        seen = {}

        def write(name, doc):
            path = run.OUT / "selftest" / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc))
            seen[name] = str(path)
            return str(path)

        cmd = next(c for c in docs.commands(1, write) if c.name == "decompose")
        proc = subprocess.run(
            [sys.executable, "-m", "switchcert.cli", *cmd.argv], env=run.child_env(), capture_output=True, timeout=120
        )
        self.assertEqual(docs.report_problems(cmd, proc.returncode, proc.stdout, proc.stderr, proc.stdout), [])
        changed = bytearray(proc.stdout)
        changed[len(changed) // 2] ^= 0x01
        problems = docs.report_problems(cmd, proc.returncode, bytes(changed), proc.stderr, proc.stdout)
        self.assertTrue(any("report bytes differ" in p for p in problems), problems)


class Percentiles(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        times = list(range(100))
        value, pct, beyond = run.tail(times, 100)
        self.assertEqual(sum(t > value for t in times), 10)
        self.assertEqual((pct, beyond), (90.0, 10))

    def test_tail_percentile_does_not_depend_on_passes(self):
        one_pass = [float(t) for t in range(28)]
        for passes in (2, 3, 5):
            value, _, beyond = run.tail(one_pass * passes, 2 * 28)
            self.assertEqual(value, 22.0)
            self.assertGreaterEqual(beyond, 10)


if __name__ == "__main__":
    unittest.main()
