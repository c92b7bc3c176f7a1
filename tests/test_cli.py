"""Command-line behaviour: commands, outputs, exit codes, determinism."""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import paraplag
from paraplag import engine, semsim
from paraplag.cli import main
from paraplag.corpus import NOT_PARAPHRASED, PARAPHRASED, LabelledPair, save_pairs_jsonl

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

WORDS = ["river", "stone", "cloud", "meadow", "forest", "harbor", "lantern", "copper"]
OTHER = ["quartz", "violin", "sulfur", "ledger", "orbit", "basalt"]


def write_corpus(tmp_path, n=20, seed=0):
    # separable by construction: positives copy the source verbatim
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        source = " ".join(rng.sample(WORDS, 5)).capitalize() + "."
        if i % 2 == 0:
            pairs.append(
                LabelledPair(
                    pair_id=f"p{i:03d}", suspect_text=source, source_text=source,
                    label=PARAPHRASED, origin="synthetic", raw_category="",
                )
            )
        else:
            suspect = " ".join(rng.sample(OTHER, 5)).capitalize() + "."
            pairs.append(
                LabelledPair(
                    pair_id=f"p{i:03d}", suspect_text=suspect, source_text=source,
                    label=NOT_PARAPHRASED, origin="synthetic", raw_category="",
                )
            )
    path = tmp_path / "pairs.jsonl"
    save_pairs_jsonl(pairs, path)
    return str(path)


def write_config(tmp_path, **overrides):
    payload = {"seed": 3, "folds": 4}
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestScore:
    def test_identical_files_verdict_paraphrased(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        a = write_text(tmp_path, "a.txt", "The committee approved the annual budget.\n")
        rc = main(["score", a, a, "--config", cfg])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["features"] == {"semantic": 1.0, "syntactic": 1.0, "insdel": 1.0}
        assert out["label"] == "paraphrased"
        assert out["rule"] == "threshold"

    def test_disjoint_files_verdict_negative(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        a = write_text(tmp_path, "a.txt", "Quartz violin sulfur ledger orbit.\n")
        b = write_text(tmp_path, "b.txt", "River stone cloud meadow forest.\n")
        rc = main(["score", a, b, "--config", cfg])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["label"] == "not_paraphrased"

    def test_word_order_feature_reported(self, tmp_path, capsys):
        # single-sentence pair with every word shared but reordered
        cfg = write_config(tmp_path)
        a = write_text(
            tmp_path, "a.txt",
            "Mary is the winner of the tournament, and John is the runner up.\n",
        )
        b = write_text(
            tmp_path, "b.txt",
            "The winner of the tournament is John, and the runner up is Mary.\n",
        )
        rc = main(["score", a, b, "--config", cfg])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["features"]["syntactic"] == pytest.approx(719 / 819, abs=1e-9)

    def test_empty_suspect_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        a = write_text(tmp_path, "a.txt", "   \n")
        b = write_text(tmp_path, "b.txt", "River stone cloud.\n")
        rc = main(["score", a, b, "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert "sentence" in captured.err

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        b = write_text(tmp_path, "b.txt", "River stone cloud.\n")
        rc = main(["score", str(tmp_path / "absent.txt"), b, "--config", cfg])
        assert rc == 2

    def test_debug_traces_included(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        a = write_text(tmp_path, "a.txt", "Rivers carve stone.\n")
        rc = main(["score", a, a, "--config", cfg, "--debug-traces"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        channels = [m["channel"] for m in out["traces"][0]["matches"]]
        assert channels == ["exact"] * 3


class TestExitCodes:
    def test_invalid_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{broken", encoding="utf-8")
        a = write_text(tmp_path, "a.txt", "River stone cloud.\n")
        assert main(["score", a, a, "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, embedmin=0.5)
        a = write_text(tmp_path, "a.txt", "River stone cloud.\n")
        assert main(["score", a, a, "--config", cfg]) == 2
        assert "embedmin" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("knn_k", 2.5), ("gst_min_match", 5.5)])
    def test_non_integer_config_value_exits_2(self, tmp_path, capsys, key, value):
        corpus = write_corpus(tmp_path, n=8)
        cfg = write_config(tmp_path, **{key: value})
        rc = main(
            ["evaluate", corpus, "--corpus", "jsonl", "--config", cfg,
             "--out", str(tmp_path / "out"), "--baseline"]
        )
        assert rc == 2
        assert f"{key} must be an integer, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["gst_threshold", "fallback_threshold"])
    @pytest.mark.parametrize("value", [1.5, float("nan")])
    def test_threshold_out_of_range_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        a = write_text(tmp_path, "a.txt", "River stone cloud.\n")
        assert main(["score", a, a, "--config", cfg]) == 2
        assert f"{key} must be within [0, 1], got {value!r}" in capsys.readouterr().err

    def test_missing_resource_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lexdb_dir=str(tmp_path / "nowhere"))
        a = write_text(tmp_path, "a.txt", "River stone cloud.\n")
        assert main(["score", a, a, "--config", cfg]) == 3
        assert "lexdb_dir" in capsys.readouterr().err

    def test_usage_error_exits_2(self, capsys):
        assert main([]) == 2
        assert main(["evaluate"]) == 2
        capsys.readouterr()

    def test_missing_corpus_dir_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(
            ["evaluate", str(tmp_path / "nope"), "--corpus", "crowd",
             "--config", cfg, "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        capsys.readouterr()

    def test_pool_missing_resource_exits_3(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n=8)
        cfg = write_config(tmp_path, folds=2, embedding_file=str(tmp_path / "absent.vec"))
        rc = main(
            ["evaluate", corpus, "--corpus", "jsonl", "--config", cfg,
             "--out", str(tmp_path / "out"), "--jobs", "2"]
        )
        assert rc == 3
        assert "embedding_file" in capsys.readouterr().err

    def test_pool_corrupt_embeddings_exit_2(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n=8)
        vectors = write_text(tmp_path, "bad.vec", "2 3\nfoo 0.1 0.2\n")
        cfg = write_config(tmp_path, folds=2, embedding_file=vectors)
        rc = main(
            ["evaluate", corpus, "--corpus", "jsonl", "--config", cfg,
             "--out", str(tmp_path / "out"), "--jobs", "2"]
        )
        assert rc == 2
        assert "truncated vector for 'foo'" in capsys.readouterr().err

    def test_non_finite_ic_count_exits_2(self, tmp_path, capsys):
        ic = write_text(tmp_path, "ic.dat", "wnver::30\n1740n inf ROOT\n15388n 10\n")
        cfg = write_config(tmp_path, lexdb_dir=os.path.join(FIXTURES, "lexdb"), ic_file=ic)
        a = write_text(tmp_path, "a.txt", "River stone cloud.\n")
        assert main(["score", a, a, "--config", cfg]) == 2
        assert f"{ic}:2: non-finite count" in capsys.readouterr().err

    def test_hypernym_cycle_in_lexdb_exits_2(self, tmp_path, capsys):
        lexdb = tmp_path / "lexdb"
        shutil.copytree(os.path.join(FIXTURES, "lexdb"), lexdb)
        data = lexdb / "data.noun"
        n = len(data.read_text().splitlines())
        with open(data, "a", encoding="utf-8") as fh:
            fh.write("00000001 05 n 01 hen 0 001 @ 00000002 n 0000 | one side\n")
            fh.write("00000002 05 n 01 egg 0 001 @ 00000001 n 0000 | the other\n")
        cfg = write_config(tmp_path, lexdb_dir=str(lexdb))
        a = write_text(tmp_path, "a.txt", "The hen laid an egg.\n")
        b = write_text(tmp_path, "b.txt", "An egg came from the hen.\n")
        assert main(["score", a, b, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "hypernym cycle" in err
        assert f"{data}:{n + 1}:" in err or f"{data}:{n + 2}:" in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("p1,1,0.5,x,0.2", "could not convert string to float: 'x'"),
            ("p1,1,0.5,1.5,0.2", "syntactic must be in [0, 1], got 1.5"),
            ("p1,1,nan,0.5,0.2", "semantic must be in [0, 1], got nan"),
            ("p1,7,0.5,0.5,0.2", "label must be 0 or 1, got '7'"),
            ("p1,1,0.5,0.5", "expected 5 fields, got 4"),
        ],
        ids=["non-numeric", "out-of-range", "nan", "bad-label", "short-row"],
    )
    def test_malformed_feature_table_row_exits_2(self, tmp_path, capsys, row, message):
        table = write_text(
            tmp_path, "features.csv",
            "pair_id,label,semantic,syntactic,insdel\np0,0,0.1,0.2,0.3\n" + row + "\n",
        )
        cfg = write_config(tmp_path, folds=2)
        rc = main(["crossval", table, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {table}:3: {message}" in capsys.readouterr().err

    def test_non_utf8_feature_table_exits_2(self, tmp_path, capsys):
        table = tmp_path / "features.csv"
        table.write_bytes(
            b"pair_id,label,semantic,syntactic,insdel\r\np0,0,0.1,0.2,0.3\xff\r\n"
        )
        cfg = write_config(tmp_path, folds=2)
        rc = main(["crossval", str(table), "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {table}:2: invalid UTF-8" in capsys.readouterr().err

    def test_whitespace_line_in_embeddings_skipped(self, tmp_path, capsys):
        vectors = write_text(tmp_path, "gap.vec", "2 3\nriver 1 0 0\n   \nstone 0 1 0\n")
        cfg = write_config(tmp_path, embedding_file=vectors)
        a = write_text(tmp_path, "a.txt", "River stone cloud.\n")
        assert main(["score", a, a, "--config", cfg]) == 0
        capsys.readouterr()

    def test_whitespace_line_counted_against_header_exits_2(self, tmp_path, capsys):
        vectors = write_text(tmp_path, "gap.vec", "3 3\nriver 1 0 0\n   \nstone 0 1 0\n")
        cfg = write_config(tmp_path, embedding_file=vectors)
        a = write_text(tmp_path, "a.txt", "River stone cloud.\n")
        assert main(["score", a, a, "--config", cfg]) == 2
        assert f"{vectors}: header declares 3 words" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "baseline", "fit"])
    def test_jobs_below_one_rejected_before_loading(self, tmp_path, capsys, monkeypatch, command):
        def no_pool(*args, **kwargs):
            raise AssertionError("no pool may start")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
        corpus = write_corpus(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(
            [command, corpus, "--corpus", "jsonl", "--config", cfg, "--out", str(out), "--jobs", "0"]
        )
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_pair_error_names_the_pair(self, tmp_path, capsys, jobs):
        corpus = write_corpus(tmp_path)
        cfg = write_config(tmp_path, gst_max_chars=20)
        rc = main(
            ["baseline", corpus, "--corpus", "jsonl", "--config", cfg,
             "--out", str(tmp_path / "out"), "--jobs", jobs]
        )
        assert rc == 2
        assert "error: pair p000: text of" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            '{"pair_id": "s2", ',
            "[]",
            json.dumps({"pair_id": "s2", "suspect_text": "abc.", "source_text": "abc.",
                        "label": "paraphrased", "origin": "synthetic"}),
            *(
                json.dumps({"pair_id": "s2", "suspect_text": "abc defgh ijklm.",
                            "source_text": "abc defgh ijklm.", "label": "paraphrased",
                            "origin": "synthetic", "raw_category": "light", key: "abc\ud800 x."})
                for key in ("pair_id", "suspect_text", "source_text")
            ),
        ],
        ids=["invalid-json", "not-an-object", "missing-key",
             "surrogate-pair_id", "surrogate-suspect_text", "surrogate-source_text"],
    )
    def test_malformed_jsonl_line_exits_2(self, tmp_path, capsys, line):
        corpus = write_corpus(tmp_path, n=1)
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        cfg = write_config(tmp_path)
        rc = main(
            ["baseline", corpus, "--corpus", "jsonl", "--config", cfg,
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert f"error: {corpus}:2: " in capsys.readouterr().err

    def test_cs_without_truth_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(
            ["evaluate", os.path.join(FIXTURES, "cs"), "--corpus", "cs",
             "--config", cfg, "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "--truth" in capsys.readouterr().err


class TestEvaluate:
    def test_separable_corpus_perfect_f1(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["evaluate", corpus, "--corpus", "jsonl", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["f1"] == 1.0
        assert report["confusion"] == {"tp": 10, "fp": 0, "fn": 0, "tn": 10}
        assert len(report["folds"]) == 4
        assert (out / "features.csv").exists()
        capsys.readouterr()

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, seed=2)
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["evaluate", corpus, "--corpus", "jsonl", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["evaluate", corpus, "--corpus", "jsonl", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "features.csv").read_bytes() == (out2 / "features.csv").read_bytes()
        capsys.readouterr()

    def test_jobs_flag_does_not_change_outputs(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, seed=4)
        cfg = write_config(tmp_path)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        base = ["evaluate", corpus, "--corpus", "jsonl", "--config", cfg, "--debug-traces"]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--out", str(parallel), "--jobs", "2"]) == 0
        assert (serial / "report.json").read_bytes() == (parallel / "report.json").read_bytes()
        assert (serial / "features.csv").read_bytes() == (parallel / "features.csv").read_bytes()
        assert (serial / "traces.jsonl").read_bytes() == (parallel / "traces.jsonl").read_bytes()
        capsys.readouterr()

    def test_debug_traces_reuse_the_scoring_pass(self, tmp_path, capsys, monkeypatch):
        # traces are a view of the feature pass: no word is matched twice
        calls = []
        match_word = semsim.match_word

        def counted(*args, **kwargs):
            calls.append(None)
            return match_word(*args, **kwargs)

        monkeypatch.setattr(semsim, "match_word", counted)
        corpus = write_corpus(tmp_path, n=8)
        cfg = write_config(tmp_path, folds=2, knn_k=3)
        base = ["evaluate", corpus, "--corpus", "jsonl", "--config", cfg]
        assert main(base + ["--out", str(tmp_path / "plain")]) == 0
        untraced = len(calls)
        assert main(base + ["--out", str(tmp_path / "traced"), "--debug-traces"]) == 0
        assert untraced > 0
        assert len(calls) - untraced == untraced
        capsys.readouterr()

    def test_baseline_flag_adds_comparison(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(
            ["evaluate", corpus, "--corpus", "jsonl", "--config", cfg,
             "--out", str(out), "--baseline"]
        )
        assert rc == 0
        baseline = json.loads((out / "baseline.json").read_text())
        assert baseline["folds"] == []
        assert (out / "baseline.csv").exists()
        capsys.readouterr()

    def test_sample_flag_is_seeded(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n=30)
        cfg = write_config(tmp_path)
        out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
        base = ["evaluate", corpus, "--corpus", "jsonl", "--config", cfg, "--sample", "24"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert main(base + ["--out", str(out3), "--seed", "99"]) == 0
        first = (out1 / "features.csv").read_text()
        assert first == (out2 / "features.csv").read_text()
        assert first != (out3 / "features.csv").read_text()
        assert len(first.splitlines()) == 25  # header + sampled rows
        capsys.readouterr()

    def test_debug_traces_written(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n=8)
        cfg = write_config(tmp_path, folds=2, knn_k=3)
        out = tmp_path / "out"
        rc = main(
            ["evaluate", corpus, "--corpus", "jsonl", "--config", cfg,
             "--out", str(out), "--debug-traces"]
        )
        assert rc == 0
        lines = (out / "traces.jsonl").read_text().splitlines()
        assert len(lines) == 8
        assert all("matches" in json.loads(line) for line in lines)
        capsys.readouterr()

    def test_insufficient_data_exits_2(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n=4)
        cfg = write_config(tmp_path, folds=10)
        rc = main(["evaluate", corpus, "--corpus", "jsonl", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        capsys.readouterr()

    def test_oversized_k_exits_2(self, tmp_path, capsys):
        # k exceeding the training-fold size is a config problem, not a crash
        corpus = write_corpus(tmp_path, n=8)
        cfg = write_config(tmp_path, folds=2, knn_k=5)
        rc = main(["evaluate", corpus, "--corpus", "jsonl", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "k must be" in capsys.readouterr().err


class TestBaselineCommand:
    def test_identical_pairs_classified_paraphrased(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["baseline", corpus, "--corpus", "jsonl", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "baseline.json").read_text())
        assert report["confusion"]["tp"] == 10  # every verbatim positive caught
        assert report["confusion"]["fp"] == 0  # disjoint negatives never tile
        capsys.readouterr()

    def test_crowd_fixture_layout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(
            ["baseline", os.path.join(FIXTURES, "crowd"), "--corpus", "crowd",
             "--config", cfg, "--out", str(out)]
        )
        assert rc == 0
        rows = (out / "baseline.csv").read_text().splitlines()
        assert rows[0] == "pair_id,label,containment"
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "10"]
        capsys.readouterr()

    def test_cs_fixture_layout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(
            ["baseline", os.path.join(FIXTURES, "cs"), "--corpus", "cs",
             "--truth", os.path.join(FIXTURES, "cs", "truth.csv"),
             "--config", cfg, "--out", str(out)]
        )
        assert rc == 0
        rows = (out / "baseline.csv").read_text().splitlines()
        assert len(rows) == 5  # header + four answer files
        capsys.readouterr()


class TestFitAndCrossval:
    def test_fit_then_score_with_model(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "fit"
        assert main(["fit", corpus, "--corpus", "jsonl", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        a = write_text(tmp_path, "a.txt", "River stone cloud meadow forest.\n")
        rc = main(["score", a, a, "--config", cfg, "--model", str(out / "model.json")])
        result = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert result["rule"] == "knn"
        assert result["label"] == "paraphrased"

    def test_crossval_replays_evaluate_report(self, tmp_path, capsys):
        # feature CSV round trip must reproduce the evaluation bytes
        corpus = write_corpus(tmp_path, seed=6)
        cfg = write_config(tmp_path)
        eval_out, cv_out = tmp_path / "eval", tmp_path / "cv"
        assert main(["evaluate", corpus, "--corpus", "jsonl", "--config", cfg, "--out", str(eval_out)]) == 0
        assert main(
            ["crossval", str(eval_out / "features.csv"), "--config", cfg, "--out", str(cv_out)]
        ) == 0
        assert (eval_out / "report.json").read_bytes() == (cv_out / "report.json").read_bytes()
        capsys.readouterr()

    def test_crossval_missing_table_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["crossval", str(tmp_path / "none.csv"), "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        capsys.readouterr()

    def test_nb_classifier_selectable(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        cfg = write_config(tmp_path, classifier="nb")
        out = tmp_path / "out"
        rc = main(["evaluate", corpus, "--corpus", "jsonl", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["f1"] == 1.0
        capsys.readouterr()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path)
        a = write_text(tmp_path, "a.txt", "Rivers carve stone.\n")
        # the child imports the package this test imported, installed or not
        package_root = os.path.dirname(os.path.dirname(paraplag.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "paraplag.cli", "score", str(a), str(a), "--config", cfg],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["label"] == "paraphrased"
