"""Smoke tests of the benchmark itself, at toy sizes (a few seconds in all).

    python3 perfbench/smoke.py

They run every workload's operations and output checks, the traced pass,
the self-time arithmetic and the bare-directory refusal of run.py.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from personagen import corpus, net  # noqa: E402
from personagen.stopwords import STOPWORDS, is_stopword  # noqa: E402

TOY_CORPUS = synth.CorpusShape(conversations=40, lexicon=600)
TOY = {
    "train_refvocab": workloads.TrainRefVocab(workloads.TrainShape(
        corpus=TOY_CORPUS, vocab=300, hidden=8, emb=6, steps=2, expansions=10)),
    "generate_ref": workloads.GenerateRef(workloads.GenerateShape(
        corpus=TOY_CORPUS, vocab=300, hidden=8, emb=6, max_len=5, expansions=10)),
    "topic_expand": workloads.TopicExpand(workloads.TopicShape(
        corpus=TOY_CORPUS, vocab=200, topics=4, hidden=8, batch=8, neighbors=5,
        max_words=10, conversations=2)),
}


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
        spans = [tracing.Span(0, "root", 0.0, 10.0, None, "op"),
                 tracing.Span(1, "a", 1.0, 4.0, 0, "op"),
                 tracing.Span(2, "b", 2.0, 3.0, 1, "op"),
                 tracing.Span(3, "c", 5.0, 9.0, 0, "other")]
        self.assertEqual(tracing.self_times(spans), {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
        totals = tracing.layer_totals(spans, lambda op: op == "op")
        self.assertEqual(set(totals), {"root", "a", "b"})
        self.assertEqual((totals["root"].total_s, totals["root"].self_s), (10.0, 3.0))

    def test_wrappers_nest_and_restore(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.span("inner", lambda: 1)
        outer = tracer.span("outer", lambda: inner() + 1)
        tracer.op = "op:0"
        self.assertEqual(outer(), 2)
        self.assertEqual([(s.name, s.parent, s.op) for s in tracer.spans],
                         [("outer", None, "op:0"), ("inner", 0, "op:0")])
        original = net.decode_step
        restore = tracer.install()
        self.assertIsNot(net.decode_step, original)
        restore()
        self.assertIs(net.decode_step, original)


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_leaves_ten_samples_beyond(self):
        self.assertIsNone(bench.tail_percentile(10))
        self.assertEqual(bench.tail_percentile(20), 50)
        self.assertEqual(bench.tail_percentile(100), 90)
        entries = bench.describe("x_s", [float(i) for i in range(1, 21)], "s")
        self.assertEqual(entries["x_s_p50"]["value"], 10.5)
        self.assertEqual(entries["x_s_p50"]["samples"], 20)


class SynthTest(unittest.TestCase):
    def test_shape_and_determinism(self):
        text = synth.persona_chat_text(3, TOY_CORPUS, STOPWORDS)
        self.assertEqual(text, synth.persona_chat_text(3, TOY_CORPUS, STOPWORDS))
        self.assertNotEqual(text, synth.persona_chat_text(4, TOY_CORPUS, STOPWORDS))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.txt"
            path.write_text(text, encoding="utf-8")
            conversations = corpus.load_personachat(path)
        self.assertEqual(len(conversations), TOY_CORPUS.conversations)
        for conv in conversations:
            self.assertIn(len(conv.persona_sentences), (4, 5))
            self.assertTrue(all(5 <= len(s) <= 9 for s in conv.persona_sentences))
            self.assertTrue(all(8 <= len(u) <= 16 for u in conv.utterances))
            self.assertIn(len(conv.examples), (6, 7, 8))
        tokens = [t for c in conversations for t in corpus.conversation_document(c)]
        share = sum(map(is_stopword, tokens)) / len(tokens)
        self.assertAlmostEqual(share, 0.4, delta=0.03)


class CheckTest(unittest.TestCase):
    def test_expansion_compare_flags_order_and_score(self):
        want = [("b", 0.9), ("a", 0.5)]
        self.assertIsNone(checks.compare_expansion(list(want), want))
        self.assertIsNotNone(checks.compare_expansion([("a", 0.5), ("b", 0.9)], want))
        self.assertIsNotNone(checks.compare_expansion([("b", 0.9), ("a", 0.5 + 1e-9)], want))

    def test_oracle_tie_break_is_token_ascending(self):
        weight = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        got = checks.expansion_oracle(weight, ["seed", "zeta", "alpha", "other"],
                                      [["seed"]], neighbors=2, max_words=5)
        self.assertEqual(got, [("alpha", 1.0), ("zeta", 1.0)])

    def test_response_check(self):
        vocab = corpus.Vocabulary.from_tokens(["hello"])
        self.assertIsNone(checks.check_response(["hello", "<unk>"], vocab, 2))
        self.assertIsNotNone(checks.check_response(["hello", "<eos>"], vocab, 5))
        self.assertIsNotNone(checks.check_response(["hello"] * 3, vocab, 2))
        self.assertIsNotNone(checks.check_response(["bye"], vocab, 2))


class WorkloadTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.out_dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def run_workload(self, name):
        workload = TOY[name]
        untraced = bench.measure(workload, 5, 0.0, self.out_dir)
        bench.run_checks(workload, untraced)
        self.assertEqual(untraced.failures, {})
        e2e = bench.end_to_end(workload, untraced)
        self.assertTrue(all(value > 0 for value, _ in e2e.values()), e2e)
        self.reported = bench.report(workload, untraced)
        self.assertEqual(self.reported["failed_share"]["value"], 0.0)

        passes = [bench.traced_pass(workload, 5, self.out_dir, untraced) for _ in range(2)]
        for _, traced, _ in passes:
            self.assertEqual(traced.failures, {})
            self.assertEqual(traced.digests, untraced.digests)
        layers = [bench.per_layer(tracer, overhead) for tracer, _, overhead in passes]
        counts = {name: v for name, (v, unit) in layers[0].items() if unit == "count"}
        self.assertEqual(counts, {name: v for name, (v, unit) in layers[1].items()
                                  if unit == "count"})
        return layers[0]

    def assert_reported(self, *names):
        for name in ("setup_s", "peak_rss_mb", "failed_share") + names:
            self.assertGreaterEqual(self.reported[name]["value"], 0, name)
            self.assertIn("unit", self.reported[name])

    def test_train_refvocab(self):
        layers = self.run_workload("train_refvocab")
        self.assert_reported("train_examples_per_s", "train_tokens_per_s", "train_step_s_p50",
                             "train_loss_after")
        self.assertGreater(layers["numkit.tape_records_per_example"][0], 0)
        self.assertGreater(layers["trainer.example_loss_s"][0], 0)
        self.assertGreater(layers["numkit.backward_s"][0], 0)

    def test_generate_ref(self):
        layers = self.run_workload("generate_ref")
        self.assert_reported("gen_greedy_s_p50", "gen_beam2_s_p50", "gen_tokens_per_s")
        self.assertGreater(layers["net.decode_steps"][0], 0)
        self.assertGreater(layers["metrics.evaluate_corpus_s"][0], 0)

    def test_topic_expand(self):
        layers = self.run_workload("topic_expand")
        self.assert_reported("topic_docs_per_s", "topic_elbo_after", "expand_convs_per_s")
        self.assertGreater(layers["expansion.cosine_calls"][0], 0)
        self.assertGreater(layers["topic.backward_s"][0], 0)

    def test_gradient_probe_flags_a_wrong_gradient(self):
        workload = TOY["train_refvocab"]
        state = workload.setup(5, workload.inputs(5), self.out_dir)
        bound = state.train[0]
        rng = np.random.default_rng(0)
        self.assertEqual(checks.gradient_probe(state.model, bound, workload.losses, rng), [])
        original = checks.numkit.backward

        def skewed(loss, tape):
            return {t: g * 1.01 for t, g in original(loss, tape).items()}
        checks.numkit.backward = skewed
        try:
            problems = checks.gradient_probe(state.model, bound, workload.losses, rng)
        finally:
            checks.numkit.backward = original
        self.assertEqual(len(problems), 4)


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        stub = type("Stub", (), {"primary": "a", "secondary": "b"})
        outcome = bench.Outcome(setup_s=[1.0], timings={"a": [("a", 1.0)], "b": [("b", 1.0)]})
        produced = {name: unit for name, (_, unit) in bench.end_to_end(stub, outcome).items()}
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, produced)
        produced = {name: unit for name, (_, unit) in bench.per_layer(tracing.Tracer(), 0.0).items()}
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, produced)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "generate_ref",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
