import json
import math
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import HANDS_OVER_ARGUMENTS, MALFORMED_FILTER_SPECS, traced_peak
from semsnr.bench import (
    corpus_spec_from_config,
    estimator_config_from_config,
    load_config,
    parse_methods,
    run_estimation,
    run_sweep,
)
from semsnr.cli import main
from semsnr.corpus import (
    CorpusSpec,
    SceneSpec,
    generate_corpus,
    load_corpus,
    load_plane,
    read_csv,
    read_truth_csv,
    reference_corpus_spec,
    regenerate_image,
    second_realization,
)
from semsnr.denoise import filter_spec_to_string, parse_filter_spec
from semsnr.errors import ConfigError, DataError, DomainError
from semsnr.estimators import (
    ALL_METHODS,
    DEFAULT_CONFIG,
    SINGLE_IMAGE_METHODS,
    EstimatorConfig,
    estimate_all,
)
from semsnr.raster import load_pgm, raster_from_array, save_pgm

SMALL_CONFIG = """\
[corpus]
scene = spectral
width = 64
height = 64
corr_length = 8
model = additive-gaussian
snr_targets = 2,8
seeds_per_level = 2
base_seed = 3
dose_min = 1000
dose_max = 8000
dc_offset = 2000
bit_depth = 16

[estimate]
epsilon_policy = zero
"""

POISSON_CONFIG = """\
[corpus]
scene = spectral
width = 64
height = 64
corr_length = 8
model = poisson-pe
snr_targets = 1
seeds_per_level = 2
base_seed = 5
dose_min = 200
dose_max = 2000
dc_offset = 100
bit_depth = 16

[estimate]
epsilon_policy = zero
"""


@pytest.fixture
def small_corpus(tmp_path):
    config = tmp_path / "bench.cfg"
    config.write_text(SMALL_CONFIG)
    corpus_dir = tmp_path / "corpus"
    assert main(["generate", "--config", str(config), "--out", str(corpus_dir)]) == 0
    return config, corpus_dir


def test_generate_produces_expected_files(small_corpus):
    _, corpus_dir = small_corpus
    rows = read_truth_csv(corpus_dir / "truth.csv")
    assert len(rows) == 4  # 2 SNR levels x 2 seeds
    for row in rows:
        for suffix in ("clean", "noisy", "scene"):
            assert (corpus_dir / f"{row['image_id']}.{suffix}.pgm").exists()
        assert (corpus_dir / f"{row['image_id']}.recipe.txt").exists()
        assert row["true_snr"] == pytest.approx(
            row["signal_energy"] / row["noise_energy"], rel=1e-12
        )
    assert (corpus_dir / "manifest.txt").exists()


def test_generate_is_reproducible(small_corpus, tmp_path):
    config, corpus_dir = small_corpus
    second = tmp_path / "again"
    assert main(["generate", "--config", str(config), "--out", str(second)]) == 0
    for name in sorted(p.name for p in corpus_dir.iterdir()):
        a = (corpus_dir / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b, name


def test_recipe_regenerates_exactly(small_corpus):
    _, corpus_dir = small_corpus
    rows = read_truth_csv(corpus_dir / "truth.csv")
    image_id = rows[0]["image_id"]
    gt = regenerate_image(corpus_dir, image_id)
    noisy = load_pgm(corpus_dir / f"{image_id}.noisy.pgm")
    assert np.array_equal(gt.noisy.data, noisy.data)
    other = second_realization(corpus_dir, image_id)
    assert np.array_equal(other.clean.data, gt.clean.data)
    assert not np.array_equal(other.noisy.data, gt.noisy.data)


@pytest.mark.parametrize("reader", [regenerate_image, second_realization])
@pytest.mark.parametrize("old,new,message", [
    (b"seed = ", b"seed = x", "recipe line 8: bad value for seed"),
    (b"bit_depth", b"bit_d\xe9pth", "can't decode byte 0xe9"),
    (b"seed = ", b"seed = 1\nseed = ", "recipe line 9: key 'seed' is given twice"),
    (b"dose_pgm = ", b"dose_constant = 50.0\ndose_pgm = ",
     "recipe line 12: unknown key 'dose_constant'"),
    (b"seed = ", b"seed = -", "seed must be >= 0, got -"),
], ids=["bad_value", "not_ascii", "repeated_key", "dose_constant", "negative_seed"])
def test_corrupt_recipe_is_data_error(small_corpus, reader, old, new, message):
    _, corpus_dir = small_corpus
    path = corpus_dir / "img0000.recipe.txt"
    path.write_bytes(path.read_bytes().replace(old, new))
    with pytest.raises(DataError, match=message) as info:
        reader(corpus_dir, "img0000")
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("reader", [regenerate_image, second_realization])
@pytest.mark.parametrize("damage,message", [
    ("img0000.recipe.txt", "corpus image img0000 is missing its recipe"),
    ("img0000.scene.pgm", "corpus image img0000 is missing its scene plane"),
    ("dose_pgm", "dose_pgm '../corpus/img0002.scene.pgm' is not img0000.scene.pgm"),
], ids=["no_recipe", "no_scene", "foreign_dose_pgm"])
def test_recipe_reads_only_its_own_files(small_corpus, reader, damage, message):
    _, corpus_dir = small_corpus
    recipe = corpus_dir / "img0000.recipe.txt"
    if damage == "dose_pgm":  # another image's scene, reached through the parent directory
        text = recipe.read_text()
        assert "dose_pgm = img0000.scene.pgm\n" in text
        recipe.write_text(text.replace("img0000.scene.pgm", "../corpus/img0002.scene.pgm"))
    else:
        (corpus_dir / damage).unlink()
    with pytest.raises(DataError, match=re.escape(message)):
        reader(corpus_dir, "img0000")


def test_unknown_config_key_is_named(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("[corpus]\nwobble = 7\n")
    code = main(["generate", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == 2


def test_unknown_emission_model_is_named(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("[corpus]\nmodel = warp-drive\n")
    with pytest.raises(ConfigError, match="warp-drive"):
        corpus_spec_from_config(load_config(config))
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("line", [
    "detector_gain = 0", "dose_min = -5", "bit_depth = 12", "se_yield = 2",
    "yield_inflation = 3", "dc_offset = -3", "seeds_per_level = 0", "dose_max = 1",
    "snr_targets =", "base_seed = -1",
])
def test_bad_corpus_value_is_config_error(tmp_path, capsys, command, line):
    key = line.split()[0]
    lines = [text for text in SMALL_CONFIG.splitlines() if text.split(" ")[0] != key]
    lines.insert(lines.index("[corpus]") + 1, line)
    config = tmp_path / "bad.cfg"
    config.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    extra = ["--parameter", "dose", "--range", "100", "--seeds", "1", "--methods", "nn"]
    capsys.readouterr()
    assert main([command, "--config", str(config), "--out", str(out),
                 *(extra if command == "sweep" else [])]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()
    assert not (tmp_path / "out.partial").exists()


def test_default_doses_in_8_bits_are_config_error(tmp_path, capsys):
    # 400 e-/px at gain 1 plus the default dc_offset of 200 is 600, past 255
    config = tmp_path / "8bit.cfg"
    config.write_text("[corpus]\nscene = ar_field\nwidth = 64\nheight = 64\nbit_depth = 8\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: the clean intensity at dose_max is 600.0, "
                                       "which would clamp at the 8-bit maximum 255\n")
    assert not out.exists()
    assert not (tmp_path / "out.partial").exists()


def test_sweep_value_that_would_clamp_is_config_error(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(POISSON_CONFIG.replace("scene = spectral", "scene = ar_field"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", "--config", str(config), "--out", str(out), "--parameter", "dose",
                 "--range", "100,100000", "--methods", "nn", "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the clean intensity at dose_max is ")
    assert err.endswith("which would clamp at the 16-bit maximum 65535\n")
    assert not out.exists()
    assert not (tmp_path / "out.partial").exists()
    assert main(["sweep", "--config", str(config), "--out", str(out), "--parameter", "dose",
                 "--range", "100,30000", "--methods", "nn", "--seeds", "1"]) == 0


REFERENCE_CONFIG = """\
[corpus]
scene = spectral
width = 512
height = 512
corr_length = 110
spectral_nugget = 0.004
model = additive-gaussian
snr_targets = 1,2,5,10,20,50
seeds_per_level = 1
base_seed = 0
dose_min = 5000
dose_max = 30000
dc_offset = 20000
bit_depth = 16
"""


def test_generate_config_reproduces_reference_corpus(tmp_path, capsys):
    config = tmp_path / "reference.cfg"
    config.write_text(REFERENCE_CONFIG)
    spec = reference_corpus_spec(seeds_per_level=1)
    assert corpus_spec_from_config(load_config(config)) == spec
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "cli")]) == 0
    generate_corpus(spec, tmp_path / "lib")
    written = sorted(p.name for p in (tmp_path / "lib").iterdir())
    assert "truth.csv" in written and len([n for n in written if n.endswith(".pgm")]) == 18
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == written
    for name in written:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

    config.write_text(REFERENCE_CONFIG.replace("spectral_nugget = 0.004", "spectral_nugget = 1.5"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "spectral_nugget" in err
    assert not out.exists()
    assert not (tmp_path / "out.partial").exists()


def test_estimate_keys_are_the_estimator_config_fields(tmp_path):
    changed = {"n_points": 5, "lag_start": 2, "nllsr_lag_start": 3, "acldr_order": 3,
               "epsilon_policy": "half_gap", "smart_shift": 6}
    assert set(changed) == {f.name for f in fields(EstimatorConfig)}
    assert all(getattr(DEFAULT_CONFIG, key) != value for key, value in changed.items())
    config = tmp_path / "est.cfg"
    config.write_text("[estimate]\n" + "".join(f"{k} = {v}\n" for k, v in changed.items()))
    assert estimator_config_from_config(load_config(config)) == EstimatorConfig(**changed)


def test_corpus_keys_are_the_spec_fields(tmp_path, capsys):
    scene = {"kind": "blobs", "width": 48, "height": 40, "corr_length": 5.5,
             "spectral_nugget": 0.25, "n_blobs": 3, "blob_sigma": 2.5}
    corpus = {"model": "poisson-se", "snr_targets": (2.0, 3.0), "seeds_per_level": 2,
              "base_seed": 7, "dose_min": 60.0, "dose_max": 300.0, "se_yield": 0.2,
              "bse_yield": 0.4, "yield_inflation": 1.5, "detector_gain": 2.0,
              "dc_offset": 10.0, "bit_depth": 8}
    spec = CorpusSpec(scene=SceneSpec(**scene), **corpus)
    assert set(scene) == {f.name for f in fields(SceneSpec)}
    assert set(corpus) | {"scene"} == {f.name for f in fields(CorpusSpec)}
    assert all(getattr(spec.scene, f.name) != f.default for f in fields(SceneSpec))
    assert all(getattr(spec, f.name) != f.default for f in fields(CorpusSpec) if f.name != "scene")
    values = {("scene" if k == "kind" else k): v for k, v in scene.items()}
    values.update(corpus, snr_targets="2,3")
    assert len(values) == 19
    config = tmp_path / "corpus.cfg"
    config.write_text("[corpus]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    assert corpus_spec_from_config(load_config(config)) == spec

    for key in (k for k, v in values.items() if not isinstance(v, str) or k == "snr_targets"):
        config.write_text("[corpus]\n" + "".join(f"{k} = {'wide' if k == key else v}\n"
                                                 for k, v in values.items()))
        capsys.readouterr()
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"bad [corpus] value for {key}: " in capsys.readouterr().err


def test_empty_corpus_section_gives_default_spec(tmp_path):
    config = tmp_path / "empty.cfg"
    config.write_text("[corpus]\n")
    assert corpus_spec_from_config(load_config(config)) == CorpusSpec()


def test_estimate_cli_and_schema(small_corpus, tmp_path):
    config, corpus_dir = small_corpus
    out = tmp_path / "results"
    code = main([
        "estimate", "--corpus", str(corpus_dir), "--out", str(out),
        "--methods", "all", "--config", str(config),
    ])
    assert code == 0
    rows = read_csv(out / "results.csv")
    truth = {r["image_id"]: r for r in read_truth_csv(corpus_dir / "truth.csv")}
    assert len(rows) == 4 * 9  # images x methods
    for row in rows:
        assert row["image_id"] in truth
        assert float(row["oracle_snr"]) == pytest.approx(
            truth[row["image_id"]]["true_snr"], rel=1e-9
        )
        if row["status"] == "ok" and row["rel_error"]:
            expected = (float(row["snr_linear"]) - float(row["oracle_snr"])) / float(row["oracle_snr"])
            assert float(row["rel_error"]) == pytest.approx(expected, rel=1e-6)
    summary = read_csv(out / "summary.csv")
    assert {r["method"] for r in summary} == set(parse_methods("all"))
    assert (out / "diagnostics.jsonl").exists()


def test_estimate_single_method_row_count(small_corpus, tmp_path):
    config, corpus_dir = small_corpus
    out = tmp_path / "nn_only"
    assert main(["estimate", "--corpus", str(corpus_dir), "--out", str(out),
                 "--methods", "nn", "--config", str(config)]) == 0
    rows = read_csv(out / "results.csv")
    assert len(rows) == 4
    assert all(r["method"] == "nn" for r in rows)


def test_estimate_jobs_deterministic(small_corpus):
    config, corpus_dir = small_corpus
    from conftest import BENCH_CONFIG

    rows1, _ = run_estimation(corpus_dir, ("nn", "lsr"), BENCH_CONFIG, jobs=1)
    rows2, _ = run_estimation(corpus_dir, ("nn", "lsr"), BENCH_CONFIG, jobs=3)
    for a, b in zip(rows1, rows2):
        assert a["image_id"] == b["image_id"] and a["method"] == b["method"]
        assert a["snr_linear"] == b["snr_linear"]


def test_estimate_missing_corpus_exit_code(tmp_path):
    assert main(["estimate", "--corpus", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o"), "--methods", "nn"]) == 3


def test_estimate_refuses_jobs_before_reading_the_corpus(tmp_path, capsys):
    assert main(["estimate", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "o"),
                 "--methods", "nn", "--jobs", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error: jobs must be at least 1")


def test_bad_methods_exit_code(small_corpus, tmp_path, capsys):
    config, corpus_dir = small_corpus
    for methods in ("psychic", "nn,nn", ","):
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["estimate", "--corpus", str(corpus_dir),
                     "--out", str(out), "--methods", methods]) == 2, methods
        assert main(["sweep", "--config", str(config), "--out", str(out), "--methods", methods,
                     "--parameter", "dose", "--range", "400", "--seeds", "1"]) == 2, methods
        assert capsys.readouterr().err.count("config error: ") == 2, methods
        assert not out.exists()


def test_unknown_method_is_one_rule_with_a_domain_error_in_the_library(small_corpus):
    _, corpus_dir = small_corpus
    with pytest.raises(DomainError) as lib:
        run_estimation(corpus_dir, ("nn", "psychic"))
    with pytest.raises(ConfigError) as cli:
        parse_methods("nn,psychic")
    assert str(lib.value) == str(cli.value) == (
        f"unknown methods ['psychic']; expected a subset of {ALL_METHODS}")


@pytest.mark.parametrize("methods", [("nn", "lsr", "nn"), ()])
def test_repeated_or_no_method_is_a_domain_error_in_the_library(small_corpus, methods):
    _, corpus_dir = small_corpus
    with pytest.raises(DomainError) as lib:
        run_estimation(corpus_dir, methods)
    with pytest.raises(DomainError) as one:
        estimate_all(raster_from_array(np.ones((16, 16))), methods=methods)
    with pytest.raises(ConfigError) as cli:
        parse_methods(",".join(methods) or ",")
    assert str(lib.value) == str(one.value) == str(cli.value) == (
        f"methods must name at least one method, each once; got {list(methods)}")


def test_generate_jobs_writes_the_same_corpus(small_corpus, tmp_path):
    config, corpus_dir = small_corpus
    out = tmp_path / "jobs3"
    assert main(["generate", "--config", str(config), "--out", str(out), "--jobs", "3"]) == 0
    written = sorted(p.name for p in corpus_dir.iterdir())
    assert sorted(p.name for p in out.iterdir()) == written
    for name in written:
        assert (out / name).read_bytes() == (corpus_dir / name).read_bytes(), name


def test_a_failing_image_ends_generate_with_exit_4(tmp_path, capsys, monkeypatch):
    import semsnr.corpus as corpus

    real = corpus.simulate

    def simulate(recipe):
        if recipe.seed == failing_seed:
            raise DomainError("no acquisition for this image")
        return real(recipe)

    config = tmp_path / "bench.cfg"
    config.write_text(SMALL_CONFIG)
    spec = corpus_spec_from_config(load_config(config))
    failing_seed = corpus.corpus_image(spec, 2)[4]["seed"]
    monkeypatch.setattr(corpus, "simulate", simulate)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 4
    assert "no acquisition for this image" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.partial").exists()


def test_jobs_default_to_every_core(small_corpus, tmp_path, monkeypatch):
    import semsnr.parallel as parallel

    config, corpus_dir = small_corpus
    asked = []

    def cores():
        asked.append(True)
        return 3

    monkeypatch.setattr(parallel, "cores", cores)
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "gen")]) == 0
    assert len(asked) == 1
    assert main(["estimate", "--corpus", str(corpus_dir), "--out", str(tmp_path / "est"),
                 "--methods", "nn"]) == 0
    assert len(asked) == 2
    run_estimation(corpus_dir, ("nn",))
    assert len(asked) == 3


@pytest.fixture
def pairs_corpus(tmp_path):
    """SMALL_CONFIG at 72x72, where smart's regions are 64x64 (at 64x64 they do not fit)."""
    config = tmp_path / "pairs.cfg"
    config.write_text(SMALL_CONFIG.replace("width = 64\nheight = 64", "width = 72\nheight = 72"))
    corpus_dir = tmp_path / "corpus"
    assert main(["generate", "--config", str(config), "--out", str(corpus_dir)]) == 0
    return corpus_dir


def _diagnostics(out) -> list[dict]:
    return [json.loads(line) for line in (out / "diagnostics.jsonl").read_text().splitlines()]


def test_pairs_leave_single_image_rows_as_they_are(pairs_corpus, tmp_path):
    from semsnr.estimators import smart_region_oracle

    runs = {}
    for name, extra in (("single", []), ("pairs", ["--pairs"])):
        out = tmp_path / name
        assert main(["estimate", "--corpus", str(pairs_corpus), "--out", str(out),
                     "--methods", "all", *extra]) == 0
        runs[name] = ([{k: v for k, v in row.items() if k != "runtime_ms"}
                       for row in read_csv(out / "results.csv")], _diagnostics(out))
    (single, single_lines), (paired, paired_lines) = runs["single"], runs["pairs"]
    assert len(single) == len(paired) == 4 * len(ALL_METHODS)
    assert ([row for row in single if row["method"] in SINGLE_IMAGE_METHODS]
            == [row for row in paired if row["method"] in SINGLE_IMAGE_METHODS])
    assert {row["status"] for row in single if row["method"] not in SINGLE_IMAGE_METHODS} == {
        "not_applicable"}

    truth = {row["image_id"]: row for row in read_truth_csv(pairs_corpus / "truth.csv")}
    smart_lines = {line["image_id"]: line for line in paired_lines
                   if line.get("method") == "smart"}
    for row in paired:
        if row["method"] == "frank_alali":  # scored against the image oracle
            assert row["status"] == "ok"
            assert float(row["oracle_snr"]) == truth[row["image_id"]]["true_snr"]
        elif row["method"] == "smart":  # scored against its first region's oracle
            line = smart_lines[row["image_id"]]
            size = line["diagnostics"]["roi_size"]
            assert (row["status"], line["oracle"], line["roi_size"], size) == (
                "ok", "region", 64, 64)
            oracle = smart_region_oracle(load_pgm(pairs_corpus / f"{row['image_id']}.noisy.pgm"),
                                         load_pgm(pairs_corpus / f"{row['image_id']}.clean.pgm"),
                                         size)
            assert float(row["oracle_snr"]) == oracle
            assert float(row["rel_error"]) == pytest.approx(
                (float(row["snr_linear"]) - oracle) / oracle, rel=1e-12)

    # without --pairs every line keeps its keys; with it, timing lines add second_ms
    method_keys = ["image_id", "method", "status", "diagnostics"]
    assert {tuple(line) for line in single_lines} == {("image_id", "shared_ms"),
                                                      tuple(method_keys)}
    timing = [line for line in paired_lines if "shared_ms" in line]
    assert [list(line) for line in timing] == [["image_id", "shared_ms", "second_ms"]] * 4
    assert all(line["second_ms"] > 0.0 for line in timing)
    assert {tuple(line) for line in paired_lines if line.get("method") not in (None, "smart")} == {
        tuple(method_keys)}
    assert [list(line) for line in smart_lines.values()] == [
        ["image_id", "method", "status", "oracle", "roi_size", "diagnostics"]] * 4


def test_pairs_need_a_two_image_method(small_corpus, tmp_path, capsys):
    _, corpus_dir = small_corpus
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["estimate", "--corpus", str(corpus_dir), "--out", str(out),
                 "--methods", "nn,lsr", "--pairs"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: pairs need a two-image method") and "'lsr'" in err
    assert not out.exists()
    assert not (tmp_path / "out.partial").exists()
    with pytest.raises(ConfigError):
        run_estimation(corpus_dir, SINGLE_IMAGE_METHODS, pairs=True)


@pytest.mark.parametrize("name,message", [
    ("img0001.recipe.txt", "corpus image img0001 is missing its recipe"),
    ("img0001.scene.pgm", "corpus image img0001 is missing its scene plane"),
], ids=["no_recipe", "no_scene"])
def test_pairs_without_a_recipe_file_is_data_error(small_corpus, tmp_path, capsys, name,
                                                    message):
    _, corpus_dir = small_corpus
    path = corpus_dir / name
    path.unlink()
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["estimate", "--corpus", str(corpus_dir), "--out", str(out),
                 "--methods", "nn,frank_alali", "--pairs"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err and str(path) in err
    assert not out.exists()
    assert not (tmp_path / "out.partial").exists()


def test_report_subcommand(small_corpus, tmp_path, capsys):
    config, corpus_dir = small_corpus
    out = tmp_path / "res"
    main(["estimate", "--corpus", str(corpus_dir), "--out", str(out),
          "--methods", "nn,lsr", "--config", str(config)])
    capsys.readouterr()
    assert main(["report", "--results", str(out / "results.csv"),
                 "--out", str(tmp_path / "rep")]) == 0
    printed = capsys.readouterr().out
    assert "nn" in printed and "lsr" in printed
    assert (tmp_path / "rep" / "summary.csv").exists()


@pytest.mark.parametrize("damage,message", [
    ("no_status", "'status'"), ("rel_error_abc", "'abc'"), ("non_ascii", "not an ASCII CSV file"),
], ids=["no_status", "rel_error_abc", "non_ascii"])
def test_report_of_a_bad_results_file_is_data_error(small_corpus, tmp_path, capsys, damage,
                                                    message):
    from semsnr.bench import RESULTS_FIELDS
    from semsnr.corpus import write_csv

    _, corpus_dir = small_corpus
    rows, _ = run_estimation(corpus_dir, ("nn",))
    fields = [f for f in RESULTS_FIELDS if damage != "no_status" or f != "status"]
    if damage == "rel_error_abc":
        rows[0]["rel_error"] = "abc"
    path = tmp_path / "results.csv"
    write_csv(path, fields, rows)
    if damage == "non_ascii":
        path.write_bytes(path.read_bytes().replace(b"img0001", b"img\xe90001"))
    out = tmp_path / "rep"
    capsys.readouterr()
    assert main(["report", "--results", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err and message in err
    assert not out.exists() and not (tmp_path / "rep.partial").exists()


def test_read_csv_requires_version_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("method,value\nnn,1\n")
    with pytest.raises(DataError):
        read_csv(path)


def test_sweep_dose_scaling_law(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(POISSON_CONFIG)
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(config), "--out", str(out),
                 "--parameter", "dose", "--range", "25,100,400",
                 "--methods", "nn,lsr,acldr", "--seeds", "3"])
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    # moment-based flat-field rows follow the square-root law within 5%
    for value in (25.0, 100.0, 400.0):
        moments = [float(r["estimate"]) for r in rows
                   if r["method"] == "moment" and float(r["value"]) == value]
        assert moments, value
        assert np.median(moments) == pytest.approx(math.sqrt(value), rel=0.05)
    # estimator medians increase strictly with dose
    for method in ("nn", "lsr", "acldr"):
        medians = []
        for value in (25.0, 100.0, 400.0):
            vals = [float(r["estimate"]) for r in rows
                    if r["method"] == method and float(r["value"]) == value and r["estimate"]]
            medians.append(np.median(vals))
        assert medians[0] < medians[1] < medians[2], method


# poisson-se cases are named by their yield_inflation k
@pytest.mark.parametrize("model,inflation", [
    ("poisson-pe", 1.0), ("poisson-se", 1.0), ("poisson-se", 1.5), ("poisson-se", 2.0),
    ("binomial-bse", 1.0),
], ids=["poisson-pe", "1.0", "1.5", "2.0", "binomial-bse"])
def test_sweep_moment_rows_follow_the_se_yield_law(model, inflation):
    from conftest import BENCH_CONFIG
    from semsnr.bench import run_sweep
    from semsnr.yield_snr import snr_yield

    spec = CorpusSpec(scene=SceneSpec(kind="ar_field", width=64, height=64, corr_length=6.0),
                      model=model, se_yield=0.16, bse_yield=0.30, yield_inflation=inflation,
                      dose_min=50.0, dose_max=400.0, dc_offset=200.0, base_seed=5)
    channel = {"poisson-pe": "PE", "poisson-se": "SE", "binomial-bse": "BSE"}[model]
    # 49 * e / e is not 49: the reference is the law at the dose itself
    doses = [25.0, 49.0, 225.0, 800.0]
    rows = run_sweep("dose", doses, spec, ("nn",), BENCH_CONFIG, seeds=3)
    for dose in doses:
        moments = [r for r in rows if r["method"] == "moment" and r["value"] == dose]
        # PE sqrt(dose), SE sqrt(dose / (1 + k / delta)), BSE sqrt(dose * eta)
        law = snr_yield(dose, channel, delta=0.16, eta=0.30, yield_inflation=inflation)
        assert len(moments) == 3
        for row in moments:
            assert row["reference"] == law, dose
            assert row["estimate"] == pytest.approx(law, rel=0.05), (dose, row["seed"])
    if model == "poisson-pe":
        at_49 = [r["reference"] for r in rows if r["method"] == "moment" and r["value"] == 49.0]
        assert at_49 == [7.0] * 3


def test_sweep_contrast_invariance(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(SMALL_CONFIG)
    out = tmp_path / "contrast"
    assert main(["sweep", "--config", str(config), "--out", str(out),
                 "--parameter", "contrast", "--range", "0.5,1,3",
                 "--methods", "nn,lsr", "--seeds", "2"]) == 0
    rows = read_csv(out / "sweep.csv")
    for method in ("nn", "lsr"):
        for seed in ("0", "1"):
            vals = [float(r["estimate"]) for r in rows
                    if r["method"] == method and r["seed"] == seed]
            assert len(vals) == 3
            assert max(vals) - min(vals) <= 1e-6 * abs(np.mean(vals))


SWEEP_SPEC = CorpusSpec(scene=SceneSpec(kind="ar_field", width=64, height=64, corr_length=6.0),
                        model="poisson-pe", dose_min=200.0, dose_max=2000.0, dc_offset=100.0,
                        base_seed=5)


# 64 * 64 * (value * 65535)**2 overflows from about 3.2e147 on
@pytest.mark.parametrize("big", ["1e150", "1e160", "1e308"])
def test_contrast_that_overflows_is_config_error(tmp_path, capsys, big):
    config = tmp_path / "sweep.cfg"
    config.write_text(POISSON_CONFIG)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", "--config", str(config), "--out", str(out), "--parameter", "contrast",
                 "--range", f"1,{big}", "--methods", "all", "--seeds", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: contrast values [{float(big)!r}] overflow the sums of a 4096-pixel plane")
    assert not out.exists() and not (tmp_path / "out.partial").exists()


# 1e-10 A for 1e-320 s is 0 electrons; 5e-324 / 1100 scales 200 and 2000 to 0
@pytest.mark.parametrize("parameter, tiny", [("dwell", "1e-320"), ("dose", "5e-324")])
def test_sweep_value_whose_dose_underflows_is_config_error(tmp_path, capsys, monkeypatch,
                                                          parameter, tiny):
    import semsnr.bench as bench

    scenes = []
    monkeypatch.setattr(bench, "scene_basis", lambda *args: scenes.append(args))
    config = tmp_path / "sweep.cfg"
    config.write_text(POISSON_CONFIG)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", "--config", str(config), "--out", str(out), "--parameter", parameter,
                 "--range", f"{tiny},1", "--methods", "nn", "--seeds", "1"]) == 2
    assert capsys.readouterr().err == (
        f"config error: sweep {parameter} value {float(tiny)!r} scales the doses to "
        f"[0.0, 0.0]: dose_min underflows to 0\n")
    assert not out.exists() and not (tmp_path / "out.partial").exists()
    assert not scenes  # refused before any seed's scene was made


def test_contrast_below_the_overflow_bound_keeps_the_estimates():
    rows = run_sweep("contrast", [1.0, 1e100], SWEEP_SPEC, ALL_METHODS, seeds=1)
    by_value = {v: [(r["method"], r["estimate"]) for r in rows if r["value"] == v]
                for v in (1.0, 1e100)}
    assert len(by_value[1.0]) == 1 + len(SINGLE_IMAGE_METHODS)  # the moment row, then each method
    assert all(estimate is not None for _, estimate in by_value[1.0])
    for (method, at_one), (same, big) in zip(by_value[1.0], by_value[1e100]):
        assert same == method and big == pytest.approx(at_one, rel=1e-6), method


def test_tiny_dose_sweep_keeps_the_configured_dose_ratio(monkeypatch):
    import semsnr.bench as bench

    seen = []
    real_recipe = bench.acquisition_recipe

    def recording(local, *args):
        seen.append(local)
        return real_recipe(local, *args)

    monkeypatch.setattr(bench, "acquisition_recipe", recording)
    # 1e-6 puts the scaled dose_min under 1e-6 and dose_max over it; 1e-9 puts both under
    values = [1e-9, 1e-6]
    rows = run_sweep("dose", values, SWEEP_SPEC, ("nn",), seeds=1)
    assert [(r["value"], r["method"]) for r in rows] == [
        (value, method) for value in values for method in ("moment", "nn")]
    # at 1e-9 the flat field holds no electron: sd 0 has no moment SNR
    assert rows[0]["estimate"] is None
    assert len(seen) == len(values)
    for value, local in zip(values, seen):
        assert 0.5 * (local.dose_min + local.dose_max) == pytest.approx(value, rel=1e-12)
        assert local.dose_max / local.dose_min == pytest.approx(10.0, rel=1e-12)


def test_dwell_sweep_is_the_dose_sweep_at_the_dwell_dose():
    from semsnr.bench import SWEEP_BEAM_CURRENT
    from semsnr.yield_snr import dose_per_pixel

    dwell = 2e-6
    dose = dose_per_pixel(SWEEP_BEAM_CURRENT, dwell)
    by_dwell = run_sweep("dwell", [dwell], SWEEP_SPEC, ("nn", "lsr"), seeds=2)
    by_dose = run_sweep("dose", [dose], SWEEP_SPEC, ("nn", "lsr"), seeds=2)

    def columns(rows):
        return [(r["seed"], r["method"], r["estimate"], r["reference"]) for r in rows]

    assert len(by_dwell) == 6 and all(r["estimate"] is not None for r in by_dwell)
    assert columns(by_dwell) == columns(by_dose)


SWEEP_VALUES = {"dose": [25.0, 100.0, 400.0], "dwell": [1e-7, 1e-6, 4e-6],
                "contrast": [0.5, 1.0, 3.0]}


def _sweep_point_from_scratch(parameter, value, spec, seed, methods) -> list[dict]:
    """One sweep point rebuilt alone: its own scene, acquisition, flat field and estimates."""
    from semsnr.bench import SWEEP_BEAM_CURRENT
    from semsnr.corpus import acquisition_recipe, scene_basis
    from semsnr.noise import simulate
    from semsnr.yield_snr import dose_per_pixel, snr_yield

    mid = 0.5 * (spec.dose_min + spec.dose_max)
    dose_mid = {"dose": value, "contrast": mid}.get(parameter)
    dose_mid = dose_mid or dose_per_pixel(SWEEP_BEAM_CURRENT, value)
    scale = dose_mid / mid
    local = replace(spec, dose_min=spec.dose_min * scale, dose_max=spec.dose_max * scale)
    recipe, _, _ = acquisition_recipe(local, scene_basis(local, seed), seed + 1, 1.0)
    gt = simulate(recipe)
    flat = simulate(replace(recipe, dose_map=np.full((64, 64), dose_mid))).noisy.data
    # spec is poisson-pe: the moment row's reference is the PE emission law sqrt(dose)
    cells = [("moment", (float(flat.mean()) - local.dc_offset) / float(flat.std()),
              snr_yield(dose_mid, "PE", delta=local.se_yield, eta=local.bse_yield))]
    noisy = gt.noisy.scaled(value) if parameter == "contrast" else gt.noisy
    results = estimate_all(noisy, DEFAULT_CONFIG, methods=methods)
    cells += [(m, results[m].snr_linear if results[m].status == "ok" else None, gt.true_snr)
              for m in methods]
    return [{"parameter": parameter, "value": value, "seed": seed, "method": method,
             "estimate": estimate, "reference": reference}
            for method, estimate, reference in cells]


@pytest.mark.parametrize("parameter", ["dose", "dwell", "contrast"])
def test_sweep_rows_equal_points_rebuilt_from_scratch(parameter):
    methods = ("nn", "lsr", "acldr", "chillsr")
    values = SWEEP_VALUES[parameter]
    rows = run_sweep(parameter, values, SWEEP_SPEC, methods, seeds=3)
    assert rows == [row for value in values for seed in range(3)
                    for row in _sweep_point_from_scratch(parameter, value, SWEEP_SPEC, seed,
                                                         methods)]


@pytest.mark.parametrize("parameter", ["dose", "dwell", "contrast"])
def test_sweep_builds_each_scene_once_and_a_contrast_acquisition_once(monkeypatch, parameter):
    import semsnr.bench as bench

    # seeds run on worker threads: list.append is atomic, ``+= 1`` on a shared count is not
    calls = {"scene_basis": [], "acquisition_recipe": []}

    def counted(name):
        real = getattr(bench, name)

        def wrapper(*args):
            calls[name].append(None)
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(bench, name, counted(name))
    values, seeds = SWEEP_VALUES[parameter], 2
    run_sweep(parameter, values, SWEEP_SPEC, ("nn",), seeds=seeds)
    per_seed = 1 if parameter == "contrast" else len(values)
    assert {name: len(made) for name, made in calls.items()} == {
        "scene_basis": seeds, "acquisition_recipe": per_seed * seeds}


@pytest.mark.parametrize("parameter", ["dose", "contrast"])
def test_sweep_rows_are_the_same_for_every_core_count(parameter, monkeypatch):
    import semsnr.parallel as parallel

    methods, values = ("nn", "lsr"), SWEEP_VALUES[parameter]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the workers switch often, so a lost update would show
    try:
        # 5 seeds is more than 2 and 3 cores, 1 and 2 seeds fewer than 3 and 8
        for seeds in (1, 2, 5):
            expected = [row for value in values for seed in range(seeds)
                        for row in _sweep_point_from_scratch(parameter, value, SWEEP_SPEC, seed,
                                                             methods)]
            for cores in (1, 2, 3, 8):
                monkeypatch.setattr(parallel, "cores", lambda: cores)
                rows = run_sweep(parameter, values, SWEEP_SPEC, methods, seeds=seeds)
                assert rows == expected, (seeds, cores)
    finally:
        sys.setswitchinterval(interval)


def test_an_error_in_one_seed_reaches_the_sweep_caller(tmp_path, capsys, monkeypatch):
    import threading

    import semsnr.bench as bench
    import semsnr.parallel as parallel

    real, raised_on = bench.acquisition_recipe, []

    def acquisition_recipe(spec, basis, seed, target):
        if seed == 2:  # the noise seed of seed index 1
            raised_on.append(threading.current_thread())
            raise DomainError(f"no acquisition for noise seed {seed}")
        return real(spec, basis, seed, target)

    monkeypatch.setattr(bench, "acquisition_recipe", acquisition_recipe)
    monkeypatch.setattr(parallel, "cores", lambda: 2)
    with pytest.raises(DomainError, match="no acquisition for noise seed 2"):
        run_sweep("dose", [100.0, 400.0], SWEEP_SPEC, ("nn",), seeds=3)
    assert raised_on and threading.main_thread() not in raised_on  # it came from a worker
    config = tmp_path / "sweep.cfg"
    config.write_text(POISSON_CONFIG.replace("scene = spectral", "scene = ar_field"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", "--config", str(config), "--out", str(out), "--parameter", "dose",
                 "--range", "100,400", "--methods", "nn", "--seeds", "3"]) == 4
    assert "no acquisition for noise seed 2" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.partial").exists()


def test_sweep_memory_follows_cores_not_seeds(monkeypatch):
    import tracemalloc

    import semsnr.parallel as parallel

    # the unit is one seed's peak on one core: serially, eight seeds hold one
    # seed's planes at a time, and on two cores two.  A two-seed run on two
    # cores is no unit: its peak depends on how its two workers' peaks overlap
    spec = CorpusSpec(scene=SceneSpec(kind="ar_field", width=128, height=128),
                      model="poisson-se", base_seed=7)

    def peak(cores, seeds):
        monkeypatch.setattr(parallel, "cores", lambda: cores)
        tracemalloc.start()
        try:
            run_sweep("dose", [25.0, 100.0, 400.0], spec, ALL_METHODS, seeds=seeds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2, 2)  # fills lazily built state
    one = peak(1, 1)
    serial, two_cores = peak(1, 8), peak(2, 8)
    assert serial <= 1.25 * one, serial / one
    assert two_cores <= 2.25 * one, two_cores / one


@HANDS_OVER_ARGUMENTS
@pytest.mark.parametrize("model", ["additive-gaussian", "poisson-pe", "poisson-se",
                                   "binomial-bse", "none"])
def test_a_sweep_point_holds_three_planes(model):
    import semsnr.bench as bench
    from semsnr.corpus import scene_basis

    # no name keeps the point's recipe, so simulate frees its dose map before
    # it makes its deviation plane: clean, noisy and deviation (additive and
    # none 3.00; the counting models' 64x64 flat field adds about 0.13)
    spec = CorpusSpec(scene=SceneSpec(kind="ar_field", width=256, height=256), model=model,
                      base_seed=3)
    basis = scene_basis(spec, 0)
    plane = 256 * 256 * 8
    peak = traced_peak(lambda: bench._acquire_point(spec, basis, 0, 225.0))
    assert peak <= 3.25 * plane, peak / plane


@pytest.mark.parametrize("values", [[100.0, 100.0], [25.0, 100.0, 100.0], [400.0, 100.0]])
def test_sweep_range_must_be_strictly_increasing_in_the_library(values):
    with pytest.raises(ConfigError) as info:
        run_sweep("dose", values, SWEEP_SPEC, ("nn",), seeds=1)
    assert str(info.value) == f"sweep --range values must be strictly increasing, got {values}"


def test_repeated_sweep_range_value_is_config_error(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(POISSON_CONFIG.replace("scene = spectral", "scene = ar_field"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", "--config", str(config), "--out", str(out), "--parameter", "dose",
                 "--range", "100,100", "--methods", "nn", "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sweep --range values must be strictly increasing")
    assert not out.exists()
    assert not (tmp_path / "out.partial").exists()


def test_sweep_empty_range_is_config_error(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(SMALL_CONFIG)
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "s"),
                 "--parameter", "dose", "--range", " ", "--seeds", "1"]) == 2


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
@pytest.mark.parametrize("parameter", ["dose", "dwell", "contrast"])
def test_nonpositive_sweep_value_is_config_error(tmp_path, capsys, parameter, value):
    config = tmp_path / "sweep.cfg"
    config.write_text(POISSON_CONFIG.replace("scene = spectral", "scene = ar_field"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", "--config", str(config), "--out", str(out), "--parameter", parameter,
                 f"--range={value},2", "--methods", "nn", "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--range" in err
    assert not out.exists()
    assert not (tmp_path / "out.partial").exists()


@pytest.mark.parametrize("key,value", [
    ("corr_length", "nan"), ("detector_gain", "nan"), ("dc_offset", "inf"), ("dose_max", "inf"),
    ("snr_targets", "1,nan"),
])
def test_non_finite_corpus_float_is_config_error(tmp_path, capsys, key, value):
    text = re.sub(rf"^{key} = .*\n", "", POISSON_CONFIG, flags=re.M)
    config = tmp_path / "corpus.cfg"
    config.write_text(text.replace("[corpus]\n", f"[corpus]\n{key} = {value}\n"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    bad = value.split(",")[-1]
    assert f"bad [corpus] value for {key}: '{bad}' is not a finite number" in err
    assert not out.exists()
    assert not (tmp_path / "out.partial").exists()


@pytest.mark.parametrize("methods,refused", [("smart", "['smart']"),
                                             ("nn,frank_alali", "['frank_alali']")])
def test_sweep_refuses_methods_it_cannot_run(tmp_path, capsys, methods, refused):
    config = tmp_path / "sweep.cfg"
    config.write_text(POISSON_CONFIG.replace("scene = spectral", "scene = ar_field"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", "--config", str(config), "--out", str(out), "--parameter", "dose",
                 "--range", "100", "--methods", methods, "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sweep runs single-image methods only") and refused in err
    assert not out.exists()
    assert not (tmp_path / "out.partial").exists()
    assert main(["sweep", "--config", str(config), "--out", str(out), "--parameter", "dose",
                 "--range", "100", "--methods", "all", "--seeds", "1"]) == 0
    assert [r["method"] for r in read_csv(out / "sweep.csv")] == ["moment", *SINGLE_IMAGE_METHODS]


@pytest.mark.parametrize("methods,refused", [
    (("smart", "frank_alali"), "['smart', 'frank_alali']"), (("nn", "smart"), "['smart']")],
    ids=["smart,frank_alali", "nn,smart"])
def test_sweep_of_two_image_methods_only_is_config_error_in_the_library(small_corpus, monkeypatch,
                                                                        methods, refused):
    import semsnr.bench as bench
    from semsnr.bench import run_sweep

    def not_made(*args, **kwargs):
        raise AssertionError("the sweep built a scene or a recipe before refusing its methods")

    for name in ("scene_basis", "acquisition_recipe"):
        monkeypatch.setattr(bench, name, not_made)
    config, _ = small_corpus
    spec = corpus_spec_from_config(load_config(config))
    with pytest.raises(ConfigError) as info:
        run_sweep("dose", [400.0], spec, methods, seeds=1)
    assert str(info.value) == (f"sweep runs single-image methods only {SINGLE_IMAGE_METHODS}; "
                               f"got {refused}")


@pytest.mark.parametrize("command,flag,value", [
    ("estimate", "--jobs", "-5"), ("estimate", "--jobs", "0"),
    ("sweep", "--seeds", "0"), ("sweep", "--seeds", "-1"),
    ("generate", "--jobs", "-5"), ("generate", "--jobs", "0"),
])
def test_count_below_one_is_config_error(small_corpus, tmp_path, capsys, command, flag, value):
    config, corpus_dir = small_corpus
    source = {
        "estimate": ["--corpus", str(corpus_dir), "--methods", "nn"],
        "sweep": ["--config", str(config), "--parameter", "dose", "--range", "100",
                  "--methods", "nn"],
        "generate": ["--config", str(config)],
    }[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, *source, flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and value in err
    assert not out.exists()


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert "#" in block  # the example documents its values with inline comments
    config = tmp_path / "readme.cfg"
    config.write_text(block)
    cfg = load_config(config)
    spec = corpus_spec_from_config(cfg)
    assert (spec.scene.kind, spec.scene.corr_length, spec.model) == (
        "spectral", 110.0, "additive-gaussian")
    assert spec.snr_targets == (1.0, 5.0, 20.0)
    est = estimator_config_from_config(cfg)
    assert (est.epsilon_policy, est.n_points) == ("zero", 4)


def test_readme_bench_cfg_is_the_reference_corpus(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    config = tmp_path / "bench.cfg"
    config.write_text(re.findall(r"```ini\n(.*?)```", readme, re.S)[1])
    assert corpus_spec_from_config(load_config(config)) == reference_corpus_spec()


def test_readme_denoise_example_raises_the_oracle_snr(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    line = re.search(r"^semsnr denoise .*$", readme, re.M).group(0).split()
    corpus_dir, out = tmp_path / "corpus", tmp_path / "filtered"
    generate_corpus(reference_corpus_spec(seeds_per_level=1), corpus_dir)
    paths = {"corpus/": str(corpus_dir), "filtered/": str(out)}
    assert main([paths.get(arg, arg) for arg in line[1:]]) == 0
    rows = read_csv(out / "report.csv")
    assert len(rows) == 6
    for row in rows:
        assert float(row["oracle_snr_after"]) > float(row["oracle_snr_before"]), row


def test_summary_counts_ok_rows_that_no_finite_oracle_scores(tmp_path, capsys):
    # a noiseless corpus: every oracle is inf, so nn's ok rows carry no rel_error
    config = tmp_path / "none.cfg"
    config.write_text(POISSON_CONFIG.replace("model = poisson-pe", "model = none"))
    corpus_dir, out = tmp_path / "corpus", tmp_path / "est"
    assert main(["generate", "--config", str(config), "--out", str(corpus_dir)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--corpus", str(corpus_dir), "--out", str(out),
                 "--methods", "nn"]) == 0
    assert "nn: 2/2 ok, median |rel err| = n/a" in capsys.readouterr().out
    rows = read_csv(out / "results.csv")
    assert [(r["status"], r["oracle_snr"], r["rel_error"]) for r in rows] == [("ok", "inf", "")] * 2
    assert read_csv(out / "summary.csv") == [
        {"method": "nn", "n_ok": "2", "n_total": "2", "median_abs_rel_error": ""}]


def test_estimation_reads_no_clean_plane(small_corpus, tmp_path, capsys):
    _, corpus_dir = small_corpus
    for path in corpus_dir.glob("*.clean.pgm"):
        path.unlink()
    rows, summary = run_estimation(corpus_dir, ("nn", "lsr"), jobs=2)
    assert len(rows) == 2 * len(read_truth_csv(corpus_dir / "truth.csv"))
    assert all(line["n_ok"] == line["n_total"] for line in summary)
    # the runs that need a clean plane name the one that is missing
    missing = corpus_dir / "img0000.clean.pgm"
    with pytest.raises(DataError, match="img0000 is missing its clean plane"):
        load_corpus(corpus_dir)
    capsys.readouterr()
    assert main(["denoise", "--corpus", str(corpus_dir), "--out", str(tmp_path / "den"),
                 "--filter", "gaussian:sigma=1.0"]) == 3
    assert str(missing) in capsys.readouterr().err


def test_denoise_cli_identity_spec(small_corpus, tmp_path):
    _, corpus_dir = small_corpus
    out = tmp_path / "den"
    code = main(["denoise", "--corpus", str(corpus_dir), "--out", str(out),
                 "--filter", "wiener_local:window=5,noise_var=0"])
    assert code == 0
    rows = read_csv(out / "report.csv")
    truth = read_truth_csv(corpus_dir / "truth.csv")
    assert len(rows) == len(truth)
    # the zero-variance filter is the identity: filtered bytes equal the input
    for row in truth:
        noisy = (corpus_dir / f"{row['image_id']}.noisy.pgm").read_bytes()
        filt = (out / f"{row['image_id']}.filtered.pgm").read_bytes()
        assert noisy == filt


# one spec per filter kind that fits SMALL_CONFIG's 64 x 64 planes
DENOISE_SPECS = ("gaussian:sigma=1.0", "median:window=3", "bilateral:sigma_s=1,sigma_r=2000",
                 "wiener_global:noise_var=1000", "wiener_local:window=5,noise_var=1000",
                 "ar_wiener:ar_order=2,window=5")


@pytest.mark.parametrize("text", DENOISE_SPECS)
def test_denoise_is_the_same_for_every_core_count(small_corpus, tmp_path, monkeypatch, text):
    import semsnr.parallel as parallel
    from semsnr.bench import run_denoise
    from semsnr.denoise import apply_filter, mse, psnr_db

    _, corpus_dir = small_corpus
    spec = parse_filter_spec(text)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the workers switch often, so a shared buffer would show
    try:
        runs = {}
        for cores in (1, 2, 3):
            monkeypatch.setattr(parallel, "cores", lambda: cores)
            out = tmp_path / f"cores{cores}"
            rows = run_denoise(corpus_dir, spec, out_dir=out)
            runs[cores] = rows, {path.name: path.read_bytes() for path in out.iterdir()}
    finally:
        sys.setswitchinterval(interval)
    assert runs[2] == runs[1] and runs[3] == runs[1]
    rows, files = runs[1]
    truth = read_truth_csv(corpus_dir / "truth.csv")
    assert [row["image_id"] for row in rows] == [row["image_id"] for row in truth]
    assert len(files) == len(truth) + 1  # each filtered plane and report.csv
    for row in rows:  # the one difference plane gives denoise.mse and its PSNR
        noisy, clean = (load_plane(corpus_dir, row["image_id"], k) for k in ("noisy", "clean"))
        output = apply_filter(noisy, spec).output
        assert row["mse_vs_clean"] == mse(output, clean)
        assert row["psnr_db"] == psnr_db(row["mse_vs_clean"], output.maxval)


@pytest.mark.parametrize("cores", [1, 2])
def test_denoise_names_a_missing_clean_plane(small_corpus, tmp_path, monkeypatch, capsys, cores):
    import semsnr.parallel as parallel
    from semsnr.bench import run_denoise

    _, corpus_dir = small_corpus
    assert len(read_truth_csv(corpus_dir / "truth.csv")) == 4
    missing = corpus_dir / "img0002.clean.pgm"
    missing.unlink()
    monkeypatch.setattr(parallel, "cores", lambda: cores)
    with pytest.raises(DataError, match="img0002 is missing its clean plane") as info:
        run_denoise(corpus_dir, parse_filter_spec("gaussian:sigma=1.0"), out_dir=tmp_path / "lib")
    assert str(missing) in str(info.value)
    out = tmp_path / "cli"
    capsys.readouterr()
    assert main(["denoise", "--corpus", str(corpus_dir), "--out", str(out),
                 "--filter", "gaussian:sigma=1.0"]) == 3
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "cli.partial").exists()


def test_denoise_clean_plane_of_another_size_is_data_error(small_corpus, tmp_path, capsys):
    _, corpus_dir = small_corpus
    save_pgm(raster_from_array(np.zeros((32, 32)), 16), corpus_dir / "img0001.clean.pgm")
    out = tmp_path / "den"
    capsys.readouterr()
    assert main(["denoise", "--corpus", str(corpus_dir), "--out", str(out),
                 "--filter", "median:window=3"]) == 3
    assert "img0001: its clean and noisy planes differ in size" in capsys.readouterr().err
    assert not out.exists()


def test_denoise_of_a_corpus_without_images_writes_only_the_header(tmp_path, capsys):
    from semsnr.bench import DENOISE_FIELDS
    from semsnr.corpus import CSV_MAGIC, TRUTH_FIELDS, write_csv

    corpus_dir = tmp_path / "empty"
    corpus_dir.mkdir()
    write_csv(corpus_dir / "truth.csv", TRUTH_FIELDS, [])
    out = tmp_path / "den"
    capsys.readouterr()
    assert main(["denoise", "--corpus", str(corpus_dir), "--out", str(out),
                 "--filter", "median:window=3"]) == 0
    assert capsys.readouterr().out == ""  # no mean MSE of no rows
    assert [path.name for path in out.iterdir()] == ["report.csv"]
    header = ",".join(DENOISE_FIELDS)
    assert (out / "report.csv").read_text() == f"{CSV_MAGIC}\n{header}\n"


def test_denoise_memory_follows_cores_not_images(tmp_path, monkeypatch):
    import tracemalloc

    import semsnr.parallel as parallel
    from semsnr.bench import run_denoise

    spec = parse_filter_spec("median:window=5")

    def peak(images, cores):
        monkeypatch.setattr(parallel, "cores", lambda: cores)
        corpus_dir = tmp_path / f"corpus{images}"
        if not corpus_dir.exists():
            generate_corpus(CorpusSpec(scene=SceneSpec(width=128, height=128),
                                       snr_targets=(2.0,), seeds_per_level=images), corpus_dir)
        tracemalloc.start()
        try:
            run_denoise(corpus_dir, spec, tmp_path / f"out{images}")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1, 1)  # fills lazily built state
    # each thread holds one image's planes: eight images on two cores peak at
    # about two images' worth (2.04 x one), eight on eight cores at 3.5-6.4 x
    one, eight = peak(1, 1), peak(8, 2)
    assert eight <= 2.25 * one, eight / one


@HANDS_OVER_ARGUMENTS
def test_one_core_denoise_item_holds_three_planes(tmp_path, monkeypatch):
    import semsnr.parallel as parallel
    from semsnr.bench import run_denoise

    # the noisy plane is dropped once filtered: scoring holds the output, the
    # clean plane and output - clean
    monkeypatch.setattr(parallel, "cores", lambda: 1)
    spec = replace(reference_corpus_spec(seeds_per_level=1), snr_targets=(2.0,))
    generate_corpus(spec, tmp_path / "corpus", jobs=1)
    filter_spec = parse_filter_spec("ar_wiener:ar_order=2,window=7")
    plane = spec.scene.width * spec.scene.height * 8
    peak = traced_peak(lambda: run_denoise(tmp_path / "corpus", filter_spec, tmp_path / "out"))
    assert peak <= 3.25 * plane, peak / plane


@pytest.fixture
def oracle_snr_ends(oracle_corpus, tmp_path):
    """The first SNR-1 and the first SNR-50 image of the frozen corpus as a corpus directory."""
    from semsnr.corpus import TRUTH_FIELDS, write_csv

    corpus_dir = tmp_path / "ends"
    corpus_dir.mkdir()
    entries = [oracle_corpus[0], oracle_corpus[45]]
    assert [e["truth"]["snr_target"] for e in entries] == [1.0, 50.0]
    for entry in entries:
        for kind in ("clean", "noisy"):
            save_pgm(getattr(entry["gt"], kind), corpus_dir / f"{entry['image_id']}.{kind}.pgm")
    write_csv(corpus_dir / "truth.csv", TRUTH_FIELDS, [e["truth"] for e in entries])
    return corpus_dir, entries


def _report_at(corpus_dir, text, entry) -> dict:
    from semsnr.bench import run_denoise

    rows = run_denoise(corpus_dir, parse_filter_spec(text), out_dir=corpus_dir.parent / "out")
    return next(row for row in rows if row["image_id"] == entry["image_id"])


def test_denoise_oracle_snr_falls_under_a_gaussian_at_snr_50(oracle_snr_ends):
    from semsnr.denoise import apply_filter

    corpus_dir, (_, high) = oracle_snr_ends
    row = _report_at(corpus_dir, "gaussian:sigma=1.5", high)
    gt = high["gt"]
    output = apply_filter(gt.noisy, parse_filter_spec("gaussian:sigma=1.5")).output
    assert row["oracle_snr_before"] == high["truth"]["true_snr"]
    assert row["oracle_snr_after"] == gt.signal_energy / float(np.var(output.data - gt.clean.data))
    assert row["oracle_snr_after"] < row["oracle_snr_before"]  # the blur takes more signal


def test_denoise_oracle_snr_rises_under_wiener_local_at_snr_1(oracle_snr_ends):
    corpus_dir, (low, _) = oracle_snr_ends
    row = _report_at(corpus_dir, f"wiener_local:window=7,noise_var={low['gt'].noise_energy!r}",
                     low)
    assert row["oracle_snr_after"] > row["oracle_snr_before"] == low["truth"]["true_snr"]


# SHA-256 of each filter's mse_vs_clean and psnr_db cells and filtered PGMs on
# oracle_snr_ends, recorded before report.csv's SNR columns were the oracle's
DENOISE_SHA256 = {
    "gaussian:sigma=1.5": "4f15b9a40af028ccf10516e9ff09994d104739f886cc2a9fe72d1a4422ab8583",
    "wiener_local": "de2de5c58993f79b8f1b7bafb610ca98ec4f3a2c981e5e9f69d97e3631060786",
}


@pytest.mark.parametrize("kind", sorted(DENOISE_SHA256))
def test_denoise_outputs_and_error_columns_are_pinned(oracle_snr_ends, tmp_path, kind):
    import hashlib

    corpus_dir, (low, _) = oracle_snr_ends
    text = kind if ":" in kind else f"{kind}:window=7,noise_var={low['gt'].noise_energy!r}"
    out = tmp_path / "den"
    assert main(["denoise", "--corpus", str(corpus_dir), "--out", str(out),
                 "--filter", text]) == 0
    digest = hashlib.sha256()
    for row in read_csv(out / "report.csv"):
        digest.update(f"{row['mse_vs_clean']},{row['psnr_db']}\n".encode())
        digest.update((out / f"{row['image_id']}.filtered.pgm").read_bytes())
    assert digest.hexdigest() == DENOISE_SHA256[kind]


def test_denoise_median_beats_gaussian_on_impulse_corpus(tmp_path):
    # hand-built corpus with salt-and-pepper corruption
    from semsnr.corpus import TRUTH_FIELDS, write_csv
    from semsnr.noise import rng_for

    corpus_dir = tmp_path / "impulse"
    corpus_dir.mkdir()
    rows = []
    for i in range(3):
        rng = rng_for(404, i)
        clean = 100.0 + 50.0 * np.sin(np.linspace(0, 4 * np.pi, 48))[None, :] * np.ones((48, 1))
        clean_q = np.round(clean)
        noisy = clean_q.copy()
        salt = rng.random(noisy.shape) < 0.04
        pepper = rng.random(noisy.shape) < 0.04
        noisy[salt] = 255.0
        noisy[pepper] = 0.0
        image_id = f"img{i:04d}"
        save_pgm(raster_from_array(clean_q, 8), corpus_dir / f"{image_id}.clean.pgm")
        save_pgm(raster_from_array(noisy, 8), corpus_dir / f"{image_id}.noisy.pgm")
        diff = noisy - clean_q
        rows.append({
            "image_id": image_id, "seed": i, "model": "salt-pepper",
            "delta": 0.0, "eta": 0.0, "gain": 1.0, "idc": 0.0,
            "signal_energy": float(np.var(clean_q)),
            "noise_energy": float(np.var(diff)),
            "true_snr": float(np.var(clean_q) / np.var(diff)),
            "scene": "stripes", "snr_target": 0.0,
        })
    write_csv(corpus_dir / "truth.csv", TRUTH_FIELDS, rows)

    out_m = tmp_path / "median"
    out_g = tmp_path / "gauss"
    assert main(["denoise", "--corpus", str(corpus_dir), "--out", str(out_m),
                 "--filter", "median:window=3"]) == 0
    assert main(["denoise", "--corpus", str(corpus_dir), "--out", str(out_g),
                 "--filter", "gaussian:sigma=1.0"]) == 0
    med_mse = [float(r["mse_vs_clean"]) for r in read_csv(out_m / "report.csv")]
    gau_mse = [float(r["mse_vs_clean"]) for r in read_csv(out_g / "report.csv")]
    for m, g in zip(med_mse, gau_mse):
        assert m < g


def test_denoise_bad_filter_exit_code(small_corpus, tmp_path):
    _, corpus_dir = small_corpus
    assert main(["denoise", "--corpus", str(corpus_dir), "--out", str(tmp_path / "x"),
                 "--filter", "sharpen:amount=2"]) == 2


@pytest.mark.parametrize("text", MALFORMED_FILTER_SPECS)
def test_denoise_malformed_filter_is_config_error(small_corpus, tmp_path, capsys, text):
    _, corpus_dir = small_corpus
    out = tmp_path / "x"
    capsys.readouterr()
    assert main(["denoise", "--corpus", str(corpus_dir), "--out", str(out),
                 "--filter", text]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "median:window=41", "gaussian:sigma=1,radius=40", "wiener_local:window=41,noise_var=3",
    "ar_wiener:ar_order=20,window=3",
], ids=["median", "gaussian", "wiener_local", "ar_wiener"])
def test_filter_too_large_for_the_corpus_images_is_config_error(tmp_path, capsys, text):
    config = tmp_path / "tiny.cfg"
    config.write_text(SMALL_CONFIG.replace("width = 64\nheight = 64", "width = 32\nheight = 32"))
    corpus_dir = tmp_path / "corpus"
    assert main(["generate", "--config", str(config), "--out", str(corpus_dir)]) == 0
    out = tmp_path / "x"
    capsys.readouterr()
    assert main(["denoise", "--corpus", str(corpus_dir), "--out", str(out),
                 "--filter", text]) == 2
    label = filter_spec_to_string(parse_filter_spec(text))
    assert capsys.readouterr().err.startswith(
        f"config error: filter {label} cannot run on corpus image img0000 (32x32): ")
    assert not out.exists() and not (tmp_path / "x.partial").exists()


@pytest.mark.parametrize("command", ["generate", "sweep", "estimate"])
def test_config_that_is_not_utf8_is_config_error(small_corpus, tmp_path, capsys, command):
    config, corpus_dir = small_corpus
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(config.read_bytes().replace(b"[estimate]", b"# \xff\n[estimate]"))
    args = {
        "generate": [],
        "sweep": ["--parameter", "dose", "--range", "100", "--methods", "nn"],
        "estimate": ["--corpus", str(corpus_dir), "--methods", "nn"],
    }[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(bad), *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["epsilon_polcy = zero", "n_points = many",
                                  "epsilon_policy = sometimes", "asnn_slope = 1.0",
                                  "chillsr_correction = 0,1,0", "chillsr_points = 4",
                                  "n_points = 1", "lag_start = 0", "nllsr_lag_start = 0",
                                  "acldr_order = 0", "smart_shift = 0"])
def test_bad_estimate_config_exit_code(small_corpus, tmp_path, capsys, line):
    _, corpus_dir = small_corpus
    config = tmp_path / "bad.cfg"
    config.write_text(f"[estimate]\n{line}\n")
    assert main(["estimate", "--corpus", str(corpus_dir), "--out", str(tmp_path / "o"),
                 "--methods", "nn", "--config", str(config)]) == 2
    assert line.split()[0] in capsys.readouterr().err


def test_estimate_and_sweep_run_only_requested_methods(small_corpus, tmp_path, monkeypatch):
    import semsnr.estimators as estimators
    from conftest import BENCH_CONFIG
    from semsnr.bench import run_sweep

    def not_requested(*args, **kwargs):
        raise AssertionError("smart ran without being requested")

    monkeypatch.setattr(estimators, "estimate_smart", not_requested)
    config, corpus_dir = small_corpus
    out = tmp_path / "res"
    rows, _ = run_estimation(corpus_dir, ("nn", "lsr"), BENCH_CONFIG, out_dir=out)
    assert {r["method"] for r in rows} == {"nn", "lsr"}
    assert all(r["runtime_ms"] >= 0.0 for r in rows)
    lines = [json.loads(line) for line in (out / "diagnostics.jsonl").read_text().splitlines()]
    shared = [line for line in lines if "shared_ms" in line]
    assert [line["image_id"] for line in shared] == sorted({r["image_id"] for r in rows})
    assert all(line["shared_ms"] >= 0.0 for line in shared)
    assert len(lines) == len(shared) + len(rows)
    spec = corpus_spec_from_config(load_config(config))
    sweep = run_sweep("contrast", [1.0], spec, ALL_METHODS, BENCH_CONFIG, seeds=1)
    assert [r["method"] for r in sweep] == list(SINGLE_IMAGE_METHODS)


def test_report_summary_matches_estimate_summary(small_corpus, tmp_path):
    config, corpus_dir = small_corpus
    out = tmp_path / "res"
    assert main(["estimate", "--corpus", str(corpus_dir), "--out", str(out),
                 "--methods", "all", "--config", str(config)]) == 0
    assert main(["report", "--results", str(out / "results.csv"),
                 "--out", str(tmp_path / "rep")]) == 0
    assert (tmp_path / "rep" / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()


def test_estimate_default_policy_is_zero(small_corpus, tmp_path):
    _, corpus_dir = small_corpus
    config = tmp_path / "zero.cfg"
    config.write_text("[estimate]\nepsilon_policy = zero\n")
    runs = {}
    for name, extra in (("default", []), ("zero", ["--config", str(config)])):
        out = tmp_path / name
        assert main(["estimate", "--corpus", str(corpus_dir), "--out", str(out),
                     "--methods", "all", *extra]) == 0
        runs[name] = [{k: v for k, v in row.items() if k != "runtime_ms"}
                      for row in read_csv(out / "results.csv")]
    assert runs["default"] == runs["zero"]


def test_failed_run_leaves_no_out(small_corpus, tmp_path, capsys):
    _, corpus_dir = small_corpus
    (corpus_dir / "img0002.noisy.pgm").write_bytes(b"P5\n64 64\n65535\n\x00\x00")
    for command, extra in (("denoise", ["--filter", "gaussian:sigma=1.0"]),
                           ("estimate", ["--methods", "nn"])):
        out = tmp_path / command
        assert main([command, "--corpus", str(corpus_dir), "--out", str(out), *extra]) == 3
        assert "img0002.noisy.pgm" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / f"{command}.partial").exists()


def test_out_is_filled_on_success_and_staging_is_never_reused(small_corpus, tmp_path, capsys):
    _, corpus_dir = small_corpus
    out = tmp_path / "res"
    out.mkdir()
    (out / "keep.txt").write_text("not the run's\n")
    args = ["estimate", "--corpus", str(corpus_dir), "--out", str(out), "--methods", "nn"]
    assert main(args) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics.jsonl", "keep.txt", "results.csv", "summary.csv"]
    assert not (tmp_path / "res.partial").exists()
    stale = tmp_path / "res.partial"  # say, left by a killed run
    stale.mkdir()
    (stale / "mine.txt").write_text("kept\n")
    capsys.readouterr()
    assert main(args) == 3
    assert "res.partial" in capsys.readouterr().err
    assert (stale / "mine.txt").read_text() == "kept\n"


COMMANDS = ["generate", "estimate", "sweep", "denoise", "report"]


def _command_args(command, small_corpus, tmp_path) -> list[str]:
    """A working ``command`` line over the small corpus, all but its ``--out``."""
    config, corpus_dir = small_corpus
    results = tmp_path / "res"
    assert main(["estimate", "--corpus", str(corpus_dir), "--out", str(results),
                 "--methods", "nn"]) == 0
    return {
        "generate": ["--config", str(config)],
        "estimate": ["--corpus", str(corpus_dir), "--methods", "nn"],
        "sweep": ["--config", str(config), "--parameter", "contrast", "--range", "1",
                  "--methods", "nn", "--seeds", "1"],
        "denoise": ["--corpus", str(corpus_dir), "--filter", "gaussian:sigma=1.0"],
        "report": ["--results", str(results / "results.csv")],
    }[command]


@pytest.mark.parametrize("command", COMMANDS)
def test_unwritable_out_is_data_error(small_corpus, tmp_path, capsys, command):
    args = _command_args(command, small_corpus, tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory\n")
    capsys.readouterr()
    assert main([command, *args, "--out", str(blocker / "out")]) == 3
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("command", COMMANDS)
def test_out_that_is_a_file_is_data_error_and_leaves_no_stage(small_corpus, tmp_path, capsys,
                                                               command):
    args = _command_args(command, small_corpus, tmp_path)
    out = tmp_path / "outfile"
    out.write_text("a regular file, not a directory\n")
    capsys.readouterr()
    assert main([command, *args, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("data error: ")
    assert not (tmp_path / "outfile.partial").exists()
    assert out.read_text() == "a regular file, not a directory\n"
    out.unlink()
    assert main([command, *args, "--out", str(out)]) == 0
    assert out.is_dir()


def _readme_out_files() -> dict:
    """README's ``--out`` file list per command, ``<id>`` standing for each image id."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("`--out` holds exactly these files", 1)[1].split("\n\n", 2)[1]
    return {command: re.findall(r"`([^`]+)`", names)
            for command, names in re.findall(r"^\* `(\w+)`: (.*)$", block, re.M)}


@pytest.mark.parametrize("command", COMMANDS)
def test_out_holds_exactly_the_files_readme_lists(small_corpus, tmp_path, command):
    args = _command_args(command, small_corpus, tmp_path)
    ids = [row["image_id"] for row in read_truth_csv(small_corpus[1] / "truth.csv")]
    listed = _readme_out_files()
    assert sorted(listed) == sorted(COMMANDS)
    out = tmp_path / "out"
    assert main([command, *args, "--out", str(out)]) == 0
    expected = {name.replace("<id>", image_id) for name in listed[command] for image_id in ids}
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)


@pytest.mark.parametrize("name,blob,message", [
    ("img0000.noisy.pgm", b"P5\n64 64\n65535\n\x00\x00", "payload is 2 bytes"),
    ("img0000.noisy.pgm", b"P6\n64 64\n65535\n", "magic"),
    ("truth.csv", None, "bad truth row"),
    ("truth.csv", b"# semsnr-csv v1\nimage_id\nimg\xe90000\n", "not an ASCII CSV file"),
], ids=["truncated_pgm", "bad_pgm_magic", "bad_truth_value", "non_ascii_truth"])
def test_corrupt_corpus_file_is_data_error(small_corpus, tmp_path, capsys, name, blob, message):
    _, corpus_dir = small_corpus
    path = corpus_dir / name
    if blob is None:  # an oracle value that is not a number
        from semsnr.corpus import TRUTH_FIELDS, write_csv

        rows = read_csv(path)
        rows[0]["true_snr"] = "n/a"
        write_csv(path, TRUTH_FIELDS, rows)
    else:
        path.write_bytes(blob)
    capsys.readouterr()
    assert main(["estimate", "--corpus", str(corpus_dir), "--out", str(tmp_path / "o"),
                 "--methods", "nn"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err
    assert str(path) in err  # the message names the corrupt file


def _assert_cells_exact(path, fields, rows):
    """Every cell of a written CSV parses back to exactly its in-memory value."""
    stored = read_csv(path)
    assert len(stored) == len(rows)
    for cells, row in zip(stored, rows):
        assert tuple(cells) == tuple(fields)
        for key in fields:
            value, cell = row[key], cells[key]
            if value is None:
                assert cell == "", (key, cell)
            elif isinstance(value, float):
                back = float(cell)
                assert back == value or (math.isnan(back) and math.isnan(value)), (key, cell)
            else:
                assert cell == str(value), (key, cell)
    return [cell for cells in stored for cell in cells.values()]


def test_csv_cells_round_trip_exactly(small_corpus, tmp_path):
    from semsnr.bench import DENOISE_FIELDS, RESULTS_FIELDS, run_denoise
    from semsnr.corpus import write_csv

    _, corpus_dir = small_corpus
    rows, _ = run_estimation(corpus_dir, ("nn", "lsr", "frank_alali"), out_dir=tmp_path / "res")
    cells = _assert_cells_exact(tmp_path / "res" / "results.csv", RESULTS_FIELDS, rows)
    assert "" in cells  # frank_alali has no second acquisition: empty estimate cells

    # a noise-free image under the identity filter gives MSE 0 and PSNR inf
    (corpus_dir / "img0000.noisy.pgm").write_bytes((corpus_dir / "img0000.clean.pgm").read_bytes())
    rows = run_denoise(corpus_dir, parse_filter_spec("wiener_local:window=5,noise_var=0"),
                       out_dir=tmp_path / "den")
    cells = _assert_cells_exact(tmp_path / "den" / "report.csv", DENOISE_FIELDS, rows)
    assert "inf" in cells and "" in cells
    for path in (tmp_path / "res" / "results.csv", tmp_path / "den" / "report.csv"):
        assert b"\r" not in path.read_bytes()  # one line ending: LF

    fields = ("pos", "neg", "nan", "none", "f64", "f32", "int", "whole")
    row = {"pos": math.inf, "neg": -math.inf, "nan": math.nan, "none": None,
           "f64": np.float64(0.1), "f32": np.float32(0.1), "int": np.int64(7), "whole": 2.0}
    write_csv(tmp_path / "cells.csv", fields, [row])
    assert b"\r" not in (tmp_path / "cells.csv").read_bytes()
    assert read_csv(tmp_path / "cells.csv") == [{
        "pos": "inf", "neg": "-inf", "nan": "nan", "none": "", "f64": "0.1",
        "f32": repr(float(np.float32(0.1))), "int": "7", "whole": "2.0",
    }]
