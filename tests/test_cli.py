import json
import math
import re
from pathlib import Path

import pytest

from colordesc import TrainingConfig, cli, nn, save_checkpoint
from colordesc.cli import build_parser, main
from colordesc.models import AtomicModel

from conftest import random_tiny_model


def _write_mini_corpus(tmp_path, train_rows, dev_rows):
    (tmp_path / "train.csv").write_text(
        "h,s,v,description\n" + "".join(train_rows), encoding="utf-8")
    (tmp_path / "dev.csv").write_text(
        "h,s,v,description\n" + "".join(dev_rows), encoding="utf-8")
    manifest = tmp_path / "splits.manifest"
    manifest.write_text("train=train.csv\ndev=dev.csv\nspace=hsv\n",
                        encoding="utf-8")
    return manifest


@pytest.fixture
def ab_corpus(tmp_path):
    train = [f"{10 * i}.0,50.0,50.0,{d}\n"
             for i, d in enumerate(["a", "a", "b", "b"])]
    dev = ["5.0,50.0,50.0,a\n", "25.0,50.0,50.0,b\n"]
    return _write_mini_corpus(tmp_path, train, dev)


@pytest.fixture
def uniform_atomic_ckpt(tmp_path):
    """Two-class atomic model with all-zero weights: exactly uniform."""
    model = AtomicModel.build(TrainingConfig(seed=0), [("a",), ("b",)], "raw")
    for name in model.params:
        model.params[name][...] = 0.0
    path = tmp_path / "uniform.ckpt"
    save_checkpoint(model, path)
    return path


@pytest.fixture
def tiny_seq_ckpt(tmp_path):
    path = tmp_path / "seq.ckpt"
    save_checkpoint(random_tiny_model(0), path)
    return path


# -- train


def test_train_writes_artifacts_and_logs(tmp_corpus, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(tmp_corpus), "--out", str(out),
               "--epochs", "2", "--batch-size", "4", "--seed", "1"])
    assert rc == 0
    assert (out / "model.ckpt").is_file()
    assert (out / "train-log.txt").is_file()
    assert (out / "run-meta.json").is_file()
    log_lines = (out / "train-log.txt").read_text().splitlines()
    assert log_lines
    pat = re.compile(r"^epoch=\d+\.\d{4} split=(train|dev) perplexity=\d")
    assert all(pat.match(ln) for ln in log_lines)
    # the monitor's extra fields follow the pinned prefix
    extra = re.compile(r" perplexity=\S+ grad_norm=\S+ max_abs_param=\S+$")
    assert all(extra.search(ln) for ln in log_lines)
    stdout = capsys.readouterr().out
    assert "checkpoint:" in stdout
    meta = json.loads((out / "run-meta.json").read_text())
    assert meta["command"] == "train"
    assert meta["prng"] == "numpy.PCG64"
    assert meta["settings"]["family"] == "sequence"  # rnn alias resolved
    assert meta["settings"]["config"]["seed"] == 1


def test_train_missing_data_is_usage_error(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "data" in capsys.readouterr().err


def test_train_unknown_family_is_usage_error(tmp_corpus, tmp_path, capsys):
    # argparse rejects values outside the declared choices, exiting 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(tmp_corpus), "--out", str(tmp_path / "x"),
              "--family", "markov"])
    assert exc.value.code == 2
    assert "markov" in capsys.readouterr().err


def test_train_same_seed_reproduces_checkpoint_bytes(tmp_corpus, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main(["train", "--data", str(tmp_corpus), "--out", str(out),
                   "--epochs", "1", "--batch-size", "4", "--seed", "7"])
        assert rc == 0
        outs.append((out / "model.ckpt").read_bytes())
    assert outs[0] == outs[1]


def test_train_histogram_alias(ab_corpus, tmp_path):
    out = tmp_path / "hm"
    rc = main(["train", "--family", "hm", "--features", "buckets",
               "--data", str(ab_corpus), "--out", str(out)])
    assert rc == 0
    meta = json.loads((out / "run-meta.json").read_text())
    assert meta["settings"]["family"] == "histogram"


@pytest.mark.parametrize("family", ["histogram", "hm"])
def test_train_histogram_without_buckets_fails_before_reading_data(
        family, ab_corpus, tmp_path, capsys, monkeypatch):
    def no_read(path):
        raise AssertionError(f"manifest {path} was read")

    monkeypatch.setattr(cli, "load_manifest", no_read)
    out = tmp_path / "hm"
    rc = main(["train", "--family", family, "--data", str(ab_corpus),
               "--out", str(out)])
    assert rc == 2
    assert "histogram family is defined over buckets only" in capsys.readouterr().err
    assert not out.exists()


def test_train_config_file_precedence(tmp_corpus, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=3\nlr=0.05\n# comment\n\n", encoding="utf-8")
    out = tmp_path / "cfgd"
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_corpus),
               "--out", str(out), "--epochs", "2", "--batch-size", "4"])
    assert rc == 0
    meta = json.loads((out / "run-meta.json").read_text())
    # explicit flag beats the file; the file beats the parser default
    assert meta["settings"]["config"]["max_epochs"] == 2
    assert meta["settings"]["config"]["learning_rate"] == 0.05


def test_train_explicit_flag_beats_config_file_at_default_value(tmp_corpus,
                                                                  tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=2\n", encoding="utf-8")
    out = tmp_path / "cfgd"
    # --epochs 10 equals the parser default, and still wins over the file
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_corpus),
               "--out", str(out), "--epochs", "10", "--batch-size", "4",
               "--patience", "1", "--evals-per-epoch", "1"])
    assert rc == 0
    meta = json.loads((out / "run-meta.json").read_text())
    assert meta["settings"]["config"]["max_epochs"] == 10


def test_train_config_file_unknown_key(tmp_corpus, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("momentum=0.9\n", encoding="utf-8")
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_corpus),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "momentum" in capsys.readouterr().err


def test_train_config_file_may_start_with_a_byte_order_mark(tmp_corpus, tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("\ufeffepochs=1\nbatch-size=4\n", encoding="utf-8")
    out = tmp_path / "bom"
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_corpus),
               "--out", str(out)])
    assert rc == 0
    config = json.loads((out / "run-meta.json").read_text())["settings"]["config"]
    assert config["max_epochs"] == 1
    assert config["batch_size"] == 4


def test_train_config_file_repeated_key_fails_before_anything_is_written(
        tmp_corpus, tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("epochs=2\nbatch-size=4\nepochs=1\n", encoding="utf-8")
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_corpus),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert err.startswith(f"error: {cfg}:3: 'epochs' is already set on line 1")
    assert not out.exists()


def test_train_config_file_two_spellings_of_one_option_fail_before_anything_is_written(
        tmp_corpus, tmp_path, capsys):
    cfg = tmp_path / "spellings.cfg"
    cfg.write_text("batch-size=64\nepochs=1\nbatch_size=8\n", encoding="utf-8")
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_corpus),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert err.startswith(
        f"error: {cfg}: keys 'batch-size' and 'batch_size' set the same option")
    assert not out.exists()


@pytest.mark.parametrize("key", ["features", "family", "conditioning"])
def test_train_config_file_bad_choice_fails_before_reading_data(
        key, tmp_corpus, tmp_path, capsys, monkeypatch):
    def no_read(path):
        raise AssertionError(f"manifest {path} was read")

    monkeypatch.setattr(cli, "load_manifest", no_read)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key}=bogus\n", encoding="utf-8")
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_corpus),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert err.startswith(f"error: config key {key}: invalid choice 'bogus'")
    assert not out.exists()


def _train_actions():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {a.dest: a for a in sub.choices["train"]._actions}


def test_train_options_take_default_and_type_from_training_config():
    actions = _train_actions()
    defaults = TrainingConfig()
    for dest, field in {
            "seed": "seed", "epochs": "max_epochs", "batch_size": "batch_size",
            "lr": "learning_rate", "dropout": "dropout", "hidden": "hidden_size",
            "embedding_dim": "embedding_dim", "patience": "patience",
            "evals_per_epoch": "evals_per_epoch",
            "conditioning": "conditioning"}.items():
        value = getattr(defaults, field)
        assert actions[dest].default == value, dest
        assert actions[dest].type is type(value), dest
    assert tuple(actions["conditioning"].choices) == nn.CONDITIONING_MODES


def test_train_dests_are_the_config_file_keys():
    # every dest is a --config key: adding or renaming one changes what
    # config files may hold
    assert set(_train_actions()) == {
        "help", "config", "family", "features", "data", "out", "seed",
        "epochs", "batch_size", "lr", "dropout", "hidden", "embedding_dim",
        "patience", "evals_per_epoch", "conditioning", "subsample_train"}


# dest -> (default, required, type) of every option but --help
@pytest.mark.parametrize("command, options", [
    ("eval", {"ckpt": (None, True, None), "data": (None, True, None),
              "split": ("dev", False, None), "beam": (10, False, int),
              "skip_accuracy": (False, False, None),
              "allow_zero": (False, False, None), "out": (None, True, None)}),
    ("compare", {"report_a": (None, True, None), "report_b": (None, True, None),
                 "metric": ("perplexity", False, None),
                 "rounds": (10000, False, int), "seed": (0, False, int),
                 "out": ("", False, None)}),
    ("sample", {"ckpt": (None, True, None), "hsv": ("", False, None),
                "hsl": ("", False, None), "n": (1, False, int),
                "seed": (0, False, int), "max_len": (20, False, int)}),
    ("top1", {"ckpt": (None, True, None), "hsv": ("", False, None),
              "hsl": ("", False, None), "beam": (10, False, int),
              "max_len": (20, False, int)}),
    ("denotation", {"ckpt": (None, True, None), "desc": (None, True, None),
                    "grid": ("120x50x50", False, None),
                    "outdir": (None, True, None)}),
])
def test_subcommand_options_are_pinned(command, options):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    got = {a.dest: (a.default, a.required, a.type)
           for a in sub.choices[command]._actions if a.dest != "help"}
    assert got == options


def test_train_subsample_smaller_run(tmp_corpus, tmp_path):
    out = tmp_path / "sub"
    rc = main(["train", "--data", str(tmp_corpus), "--out", str(out),
               "--epochs", "1", "--batch-size", "2", "--subsample-train", "4"])
    assert rc == 0
    meta = json.loads((out / "run-meta.json").read_text())
    assert meta["settings"]["subsample_train"] == 4


_OUT_OF_RANGE_TRAIN_FLAGS = [
    ("rnn", "--seed", "-1", "--seed must be >= 0"),
    ("hm", "--seed", "-1", "--seed must be >= 0"),
    ("rnn", "--subsample-train", "-3", "--subsample-train must be >= 0"),
    ("rnn", "--patience", "0", "patience must be >= 1"),
    ("atomic", "--evals-per-epoch", "0", "evals_per_epoch must be >= 1"),
    ("rnn", "--lr", "nan", "learning_rate must be finite"),
    ("rnn", "--lr", "inf", "learning_rate must be finite"),
    # a number too large for a float reads as inf
    ("rnn", "--lr", "1e400", "learning_rate must be finite"),
]


# a row given as a flag keeps the id it had before the config-file rows
@pytest.mark.parametrize("family, flag, value, message, via", [
    pytest.param(*row, via, id="-".join(row) + ("" if via == "flag" else "-config-file"))
    for via in ("flag", "config file") for row in _OUT_OF_RANGE_TRAIN_FLAGS])
def test_train_out_of_range_flags_are_usage_errors(family, flag, value, message, via,
                                                   tmp_path, capsys):
    out = tmp_path / "run"
    if via == "flag":
        given = [flag, value]
    else:
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"{flag[2:]}={value}\n", encoding="utf-8")
        given = ["--config", str(cfg)]
    # the manifest does not exist: the value is rejected before any file is read
    rc = main(["train", "--data", str(tmp_path / "missing.manifest"),
               "--out", str(out), "--family", family, "--features", "buckets",
               *given])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
    assert not out.exists()


# -- eval


def test_eval_uniform_model_has_perplexity_two(ab_corpus, uniform_atomic_ckpt,
                                               tmp_path, capsys):
    out = tmp_path / "ev"
    rc = main(["eval", "--ckpt", str(uniform_atomic_ckpt),
               "--data", str(ab_corpus), "--split", "dev", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "eval-dev.json").read_text())
    assert report["perplexity"] == pytest.approx(2.0, rel=1e-6)
    assert report["n_items"] == 2
    assert report["zero_prob_items"] == 0
    # argmax of a uniform distribution picks one class: half are hits
    assert report["accuracy"] == pytest.approx(50.0)
    stdout = capsys.readouterr().out
    assert "report:" in stdout


def test_eval_rerun_identical_except_timestamp(ab_corpus, uniform_atomic_ckpt,
                                               tmp_path):
    reports = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        rc = main(["eval", "--ckpt", str(uniform_atomic_ckpt),
                   "--data", str(ab_corpus), "--split", "dev",
                   "--out", str(out)])
        assert rc == 0
        reports.append(json.loads((out / "eval-dev.json").read_text()))
    for rep in reports:
        rep.pop("timestamp")
    assert reports[0] == reports[1]


def test_eval_zero_probability_fails_loudly(tmp_path, uniform_atomic_ckpt,
                                            capsys):
    # dev contains a description outside the atomic inventory
    corpus_dir = tmp_path / "z"
    corpus_dir.mkdir()
    manifest = _write_mini_corpus(
        corpus_dir, ["1.0,50.0,50.0,a\n"],
        ["1.0,50.0,50.0,a\n", "1.0,50.0,50.0,zebra\n"])
    out = tmp_path / "ev"
    rc = main(["eval", "--ckpt", str(uniform_atomic_ckpt),
               "--data", str(manifest), "--split", "dev", "--out", str(out)])
    assert rc == 3
    assert "probability 0" in capsys.readouterr().err

    rc = main(["eval", "--ckpt", str(uniform_atomic_ckpt),
               "--data", str(manifest), "--split", "dev", "--out", str(out),
               "--allow-zero", "--skip-accuracy"])
    assert rc == 0
    report = json.loads((out / "eval-dev.json").read_text())
    assert report["zero_prob_items"] == 1
    assert report["accuracy"] is None


def test_eval_unknown_split(ab_corpus, uniform_atomic_ckpt, tmp_path, capsys):
    rc = main(["eval", "--ckpt", str(uniform_atomic_ckpt),
               "--data", str(ab_corpus), "--split", "test",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "test" in capsys.readouterr().err


# a regular file whose first read fails, even for root, whom no file mode stops
UNREADABLE = Path("/proc/self/mem")
needs_unreadable = pytest.mark.skipif(not UNREADABLE.is_file(),
                                      reason=f"no {UNREADABLE} here")


@pytest.mark.parametrize("command, unreadable", [
    pytest.param("train", False, id="train"), pytest.param("eval", False, id="eval"),
    pytest.param("train", True, id="train-unreadable", marks=needs_unreadable),
    pytest.param("eval", True, id="eval-unreadable", marks=needs_unreadable)])
def test_non_utf8_split_is_usage_error(command, unreadable, ab_corpus,
                                       uniform_atomic_ckpt, tmp_path, capsys):
    dev = tmp_path / "dev.csv"
    if unreadable:
        dev.unlink()
        dev.symlink_to(UNREADABLE)
        message = f"cannot read corpus file {dev}: "
    else:
        dev.write_bytes(b"h,s,v,description\n5.0,50.0,50.0,\xff\n")
        message = f"corpus file is not valid UTF-8: {dev}"
    out = tmp_path / "run"
    args = (["train", "--family", "histogram", "--features", "buckets"]
            if command == "train" else ["eval", "--ckpt", str(uniform_atomic_ckpt)])
    rc = main(args + ["--data", str(ab_corpus), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert err.startswith(f"error: {message}")
    assert not out.exists()


@needs_unreadable
@pytest.mark.parametrize("flag, what", [("--config", "config file"),
                                        ("--data", "manifest")])
def test_unreadable_key_value_file_is_usage_error(flag, what, tmp_path, capsys):
    out = tmp_path / "run"
    # the last --data wins; the config file is read before the manifest
    rc = main(["train", "--data", str(tmp_path / "missing.manifest"), "--out", str(out),
               flag, str(UNREADABLE)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert err.startswith(f"error: cannot read {what} {UNREADABLE}: ")
    assert not out.exists()


def test_eval_run_meta_records_phase_timings(ab_corpus, uniform_atomic_ckpt,
                                             tmp_path, capsys):
    out = tmp_path / "ev"
    rc = main(["eval", "--ckpt", str(uniform_atomic_ckpt),
               "--data", str(ab_corpus), "--split", "dev", "--out", str(out)])
    assert rc == 0
    timings = json.loads((out / "run-meta.json").read_text())["timings"]
    assert set(timings) == {"load_s", "score_s", "beam_s"}
    assert all(v >= 0.0 for v in timings.values())
    assert "timings: load_s=" in capsys.readouterr().out
    assert "timings" not in json.loads((out / "eval-dev.json").read_text())


def test_train_and_eval_record_skipped_records(tmp_path, uniform_atomic_ckpt,
                                               capsys):
    manifest = _write_mini_corpus(
        tmp_path,
        ["1.0,50.0,50.0,a\n", "x,50.0,50.0,a\n", "2.0,50.0,50.0,b\n"],
        ["5.0,50.0,50.0,a\n", "5.0,500.0,50.0,a\n", "5.0,50.0,a\n",
         "5.0,50.0,50.0,   \n", "25.0,50.0,50.0,b\n"])
    out = tmp_path / "tr"
    assert main(["train", "--data", str(manifest), "--out", str(out),
                 "--family", "hm", "--features", "buckets"]) == 0
    meta = json.loads((out / "run-meta.json").read_text())
    assert meta["counts"] == {"skipped_records": {"train": 1, "dev": 3}}

    out = tmp_path / "ev"
    assert main(["eval", "--ckpt", str(uniform_atomic_ckpt), "--data", str(manifest),
                 "--split", "dev", "--out", str(out)]) == 0
    meta = json.loads((out / "run-meta.json").read_text())
    assert meta["counts"] == {"skipped_records": {"train": 1, "dev": 3}}
    assert "skipped_records: 3" in capsys.readouterr().out
    assert "counts" not in json.loads((out / "eval-dev.json").read_text())


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--beam", "0"),
    ("top1", "--beam", "0"),
    ("top1", "--max-len", "-1"),
    ("sample", "--max-len", "-1"),
    ("sample", "--n", "-3"),
    ("sample", "--seed", "-1"),
])
def test_bad_generation_args_are_usage_errors(command, flag, value, ab_corpus,
                                              tiny_seq_ckpt, tmp_path, capsys):
    out = tmp_path / "ev"
    args = [command, "--ckpt", str(tiny_seq_ckpt), flag, value]
    if command == "eval":
        args += ["--data", str(ab_corpus), "--out", str(out)]
    else:
        args += ["--hsv", "10,50,50"]
    rc = main(args)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be >=")
    assert "Traceback" not in captured.err
    assert not (out / "eval-dev.json").exists()


# -- compare


def _eval_to(out, ckpt, data, *extra):
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data),
               "--split", "dev", "--out", str(out), *extra])
    assert rc == 0
    return out / "eval-dev.json"


def test_compare_report_with_itself(ab_corpus, uniform_atomic_ckpt, tmp_path,
                                    capsys):
    rp = _eval_to(tmp_path / "e", uniform_atomic_ckpt, ab_corpus)
    capsys.readouterr()
    rc = main(["compare", str(rp), str(rp), "--out", str(tmp_path / "cmp")])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["p_value"] == 1.0
    assert record["mean_difference"] == 0.0
    assert record["n_pairs"] == 2
    assert record["rounds"] == 10000
    saved = json.loads((tmp_path / "cmp" / "compare.json").read_text())
    assert saved == record


def test_compare_reads_strict_and_old_reports_alike(tmp_path, uniform_atomic_ckpt,
                                                   capsys):
    # one dev item is outside the atomic inventory: probability 0
    manifest = _write_mini_corpus(
        tmp_path, ["1.0,50.0,50.0,a\n", "20.0,50.0,50.0,b\n"],
        ["1.0,50.0,50.0,a\n", "9.0,50.0,50.0,zebra\n", "25.0,50.0,50.0,b\n"])
    seeded = tmp_path / "seeded.ckpt"
    save_checkpoint(AtomicModel.build(TrainingConfig(seed=3), [("a",), ("b",)], "raw"),
                    seeded)
    rp_a = _eval_to(tmp_path / "a", uniform_atomic_ckpt, manifest, "--allow-zero")
    rp_b = _eval_to(tmp_path / "b", seeded, manifest, "--allow-zero")
    # the same reports as json.dumps writes them by default: bare -Infinity
    old_a, old_b = tmp_path / "old-a.json", tmp_path / "old-b.json"
    for new, old in ((rp_a, old_a), (rp_b, old_b)):
        fields = json.loads(new.read_text())
        assert fields["log2_probs"][1] is None
        fields["log2_probs"][1] = -math.inf
        old.write_text(json.dumps(fields, indent=2, sort_keys=True))
        assert "-Infinity" in old.read_text()
    records = []
    for a, b in ((rp_a, rp_b), (old_a, old_b)):
        capsys.readouterr()
        assert main(["compare", str(a), str(b), "--rounds", "500"]) == 0
        records.append(json.loads(capsys.readouterr().out))
    new_rec, old_rec = records
    assert new_rec["dropped_pairs"] == old_rec["dropped_pairs"] == 1
    assert new_rec["p_value"] == old_rec["p_value"]
    assert new_rec["mean_difference"] == old_rec["mean_difference"]


def _string_log2_probs(fields):
    fields["log2_probs"] = "-1.0 -1.0"
    return json.dumps(fields)


@pytest.mark.parametrize("make_text", [
    lambda fields: "not json {",
    lambda fields: "[1, 2]",
    lambda fields: '{"split": "dev"}',
    _string_log2_probs,
    lambda fields: None,  # no file
], ids=["not-json", "json-list", "missing-fields", "string-log2-probs", "missing-file"])
def test_compare_malformed_report_is_usage_error(make_text, ab_corpus,
                                                 uniform_atomic_ckpt, tmp_path,
                                                 capsys):
    good = _eval_to(tmp_path / "e", uniform_atomic_ckpt, ab_corpus)
    bad = tmp_path / "bad.json"
    text = make_text(json.loads(good.read_text()))
    if text is not None:
        bad.write_text(text, encoding="utf-8")
    capsys.readouterr()
    rc = main(["compare", str(good), str(bad)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag, value", [
    ("--rounds", "-2"), ("--rounds", "-1"), ("--rounds", "0"), ("--seed", "-1"),
])
def test_compare_bad_rounds_or_seed_is_usage_error(flag, value, tmp_path, capsys):
    # the check comes before the reports are read: these do not exist
    missing = str(tmp_path / "missing.json")
    rc = main(["compare", missing, missing, flag, value])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be >=")
    assert "Traceback" not in captured.err


def test_compare_mismatched_reports(ab_corpus, uniform_atomic_ckpt, tmp_path,
                                    capsys):
    rp_a = _eval_to(tmp_path / "a", uniform_atomic_ckpt, ab_corpus)
    single = _write_mini_corpus(tmp_path, ["1.0,50.0,50.0,a\n"],
                                ["1.0,50.0,50.0,a\n"])
    rp_b = _eval_to(tmp_path / "b", uniform_atomic_ckpt, single)
    capsys.readouterr()
    rc = main(["compare", str(rp_a), str(rp_b)])
    assert rc == 2
    assert "item counts" in capsys.readouterr().err


def test_compare_accuracy_requires_hits(ab_corpus, uniform_atomic_ckpt,
                                        tmp_path, capsys):
    rp = _eval_to(tmp_path / "nh", uniform_atomic_ckpt, ab_corpus,
                  "--skip-accuracy")
    capsys.readouterr()
    rc = main(["compare", str(rp), str(rp), "--metric", "accuracy"])
    assert rc == 2
    assert "hits" in capsys.readouterr().err


# -- sample / top1


def test_sample_reproducible_and_counted(uniform_atomic_ckpt, capsys):
    args = ["sample", "--ckpt", str(uniform_atomic_ckpt),
            "--hsv", "10,50,50", "--n", "5", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.splitlines()
    assert len(lines) == 5
    assert set(lines) <= {"a", "b"}


def test_sample_accepts_hsl(uniform_atomic_ckpt, capsys):
    rc = main(["sample", "--ckpt", str(uniform_atomic_ckpt),
               "--hsl", "120,30,40", "--seed", "0"])
    assert rc == 0
    assert capsys.readouterr().out.strip() in {"a", "b"}


def test_color_flags_are_exclusive_and_required(uniform_atomic_ckpt, capsys):
    rc = main(["sample", "--ckpt", str(uniform_atomic_ckpt),
               "--hsv", "1,2,3", "--hsl", "1,2,3"])
    assert rc == 2
    rc = main(["top1", "--ckpt", str(uniform_atomic_ckpt)])
    assert rc == 2
    rc = main(["top1", "--ckpt", str(uniform_atomic_ckpt), "--hsv", "1,2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "hsv" in err


def test_color_validation_maps_to_usage_error(uniform_atomic_ckpt, capsys):
    rc = main(["top1", "--ckpt", str(uniform_atomic_ckpt),
               "--hsv", "10,50,500"])
    assert rc == 2
    capsys.readouterr()
    # one error line that names the flag and the loader's rule
    for flag, text, rule in (("--hsv", "10,50,500", "s, v in [0, 100]"),
                             ("--hsl", "10,50,101", "s, l in [0, 100]"),
                             ("--hsv", "nan,50,50", "h must be finite")):
        assert main(["top1", "--ckpt", str(uniform_atomic_ckpt), flag, text]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} '{text}'"), err
        assert rule in err[0]


def test_top1_prints_argmax(uniform_atomic_ckpt, capsys):
    rc = main(["top1", "--ckpt", str(uniform_atomic_ckpt), "--hsv", "10,50,50"])
    assert rc == 0
    assert capsys.readouterr().out.strip() in {"a", "b"}


def test_missing_checkpoint_is_input_error(tmp_path, capsys):
    rc = main(["top1", "--ckpt", str(tmp_path / "nope.ckpt"),
               "--hsv", "1,2,3"])
    assert rc == 2
    assert "nope.ckpt" in capsys.readouterr().err


# -- denotation


def test_denotation_writes_images_and_sidecar(uniform_atomic_ckpt, tmp_path,
                                              capsys):
    out = tmp_path / "den"
    rc = main(["denotation", "--ckpt", str(uniform_atomic_ckpt),
               "--desc", "a", "--grid", "4x3x3", "--outdir", str(out)])
    assert rc == 0
    lpgm = out / "a-L.pgm"
    rpgm = out / "a-R.pgm"
    meta_path = out / "a-meta.json"
    assert lpgm.is_file() and rpgm.is_file() and meta_path.is_file()
    # L is (n_s, n_l) = 3x3; R is (n_h, n_l) = 4 rows of 3 pixels
    assert lpgm.read_bytes().startswith(b"P5\n3 3\n255\n")
    assert rpgm.read_bytes().startswith(b"P5\n3 4\n255\n")
    meta = json.loads(meta_path.read_text())
    assert meta["grid"] == [4, 3, 3]
    assert meta["files"] == {"L": "a-L.pgm", "R": "a-R.pgm"}
    assert meta["tokens"] == ["a"]


def test_denotation_rejects_unknown_description(uniform_atomic_ckpt, tmp_path,
                                                capsys):
    rc = main(["denotation", "--ckpt", str(uniform_atomic_ckpt),
               "--desc", "zebra stripes", "--grid", "2x2x2",
               "--outdir", str(tmp_path / "x")])
    assert rc == 2
    assert "inventory" in capsys.readouterr().err


def test_denotation_sequence_model_oov(tmp_corpus, tmp_path, capsys):
    out = tmp_path / "seqrun"
    assert main(["train", "--data", str(tmp_corpus), "--out", str(out),
                 "--epochs", "1", "--batch-size", "4"]) == 0
    capsys.readouterr()
    rc = main(["denotation", "--ckpt", str(out / "model.ckpt"),
               "--desc", "qqq www", "--grid", "2x2x2",
               "--outdir", str(tmp_path / "d")])
    assert rc == 2
    assert "vocabulary" in capsys.readouterr().err
    # a known word renders fine
    rc = main(["denotation", "--ckpt", str(out / "model.ckpt"),
               "--desc", "red", "--grid", "3x2x2",
               "--outdir", str(tmp_path / "d2")])
    assert rc == 0
    assert (tmp_path / "d2" / "red-L.pgm").is_file()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert re.match(r"\d+\.\d+\.\d+", capsys.readouterr().out)
