import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from trustfuse import (
    FusionInstance,
    InstanceError,
    WeightVector,
    cli,
    correctness_counts,
    io,
    load_instance,
    pipeline,
    write_instance,
)
from trustfuse.cli import main
from trustfuse.learning import _soft_threshold, object_loss_and_grad, one_hot_targets
from trustfuse.simulation import SimConfig, generate


@pytest.fixture
def sim_dir(tmp_path):
    sim = generate(SimConfig(n_sources=12, n_objects=80, density=0.25,
                             accuracy_mean=0.85, seed=42))
    write_instance(sim, tmp_path / "data")
    return tmp_path / "data"


@pytest.fixture
def featured_dir(tmp_path):
    sim = generate(SimConfig(n_sources=25, n_objects=150, density=0.25,
                             true_weights=(2.0, -1.0), seed=43))
    write_instance(sim, tmp_path / "fdata")
    return tmp_path / "fdata"


@pytest.fixture
def pair_dir(tmp_path):
    """`featured_dir`'s shape with both feature weights positive, where the
    sources agree well above chance: `estimate_pair_state` accepts it for
    every `LearnConfig` seed from 0 to 299."""
    sim = generate(SimConfig(n_sources=25, n_objects=150, density=0.25,
                             true_weights=(2.0, 1.0), seed=43))
    write_instance(sim, tmp_path / "pdata")
    return tmp_path / "pdata"


def run(*argv):
    return main([str(a) for a in argv])


class TestLoadInstance:
    def test_three_row_file(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text(
            "object_id,source_id,value\n"
            "o0,s0,a\n"
            "o0,s1,b\n"
            "o1,s0,c\n"
        )
        inst, truth = load_instance(p)
        assert inst.n_sources == 2
        assert inst.n_objects == 2
        assert inst.n_observations == 3
        assert truth is None

    def test_values_trimmed(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text(
            "object_id,source_id,value\n"
            " o0 , s0 , a \n"
            "o0,s1, a\n"
        )
        inst, _ = load_instance(p)
        assert inst.domains[0] == ("a",)

    def test_duplicate_observation_names_file_and_line(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text(
            "object_id,source_id,value\no0,s0,a\no1,s0,b\no0,s0,c\n"
        )
        with pytest.raises(InstanceError) as err:
            load_instance(p)
        msg = str(err.value)
        assert "obs.csv" in msg and "line 4" in msg and "duplicate" in msg

    def test_unreported_truth_value_rejected(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("object_id,source_id,value\no0,s0,a\no0,s1,b\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("object_id,value\no0,zzz\n")
        with pytest.raises(InstanceError) as err:
            load_instance(obs, truth_path=truth)
        assert "o0" in str(err.value) and "not reported" in str(err.value)

    def test_non_numeric_feature_rejected(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("object_id,source_id,value\no0,s0,a\no0,s1,b\n")
        feats = tmp_path / "features.csv"
        feats.write_text("source_id,f0\ns0,1.0\ns1,oops\n")
        with pytest.raises(InstanceError) as err:
            load_instance(obs, feats)
        msg = str(err.value)
        assert "features.csv" in msg and "line 3" in msg

    def test_feature_rows_for_unknown_sources_ignored(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("object_id,source_id,value\no0,s0,a\no0,s1,b\n")
        feats = tmp_path / "features.csv"
        feats.write_text("source_id,f0\ns0,1.0\nghost,5.0\n")
        inst, _ = load_instance(obs, feats)
        assert inst.features.shape == (2, 1)
        assert inst.features[0, 0] == 1.0
        assert inst.features[1, 0] == 0.0  # absent source row defaults to zero

    def test_repeated_feature_row_names_both_lines(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("object_id,source_id,value\no0,s0,a\no0,s1,b\n")
        feats = tmp_path / "features.csv"
        feats.write_text("source_id,f0\ns0,1.0\ns1,2.0\ns0,5.0\n")
        with pytest.raises(InstanceError) as err:
            load_instance(obs, feats)
        msg = str(err.value)
        assert "features.csv" in msg and "line 4" in msg and "line 2" in msg
        assert "'s0'" in msg

    def test_repeated_feature_name_rejected(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("object_id,source_id,value\no0,s0,a\no0,s1,b\n")
        feats = tmp_path / "features.csv"
        feats.write_text("source_id,f0,f1,f0\ns0,1.0,0.0,2.0\ns1,0.0,1.0,0.0\n")
        with pytest.raises(InstanceError) as err:
            load_instance(obs, feats)
        msg = str(err.value)
        assert "features.csv" in msg and "'f0'" in msg

    def test_nonfinite_feature_in_fuse_names_file_and_line(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("object_id,source_id,value\no0,s0,a\no0,s1,b\n")
        feats = tmp_path / "features.csv"
        feats.write_text("source_id,f0\ns0,1.0\ns1,nan\n")
        code = run("fuse", "--observations", obs, "--features", feats,
                   "--algo", "majority", "--out", tmp_path / "r.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "features.csv" in err and "line 3" in err and "'nan'" in err

    def test_malformed_row_of_unobserved_source_rejected(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("object_id,source_id,value\no0,s0,a\no0,s1,b\n")
        feats = tmp_path / "features.csv"
        feats.write_text("source_id,f0\ns0,1.0\nghost,inf\n")
        with pytest.raises(InstanceError) as err:
            load_instance(obs, feats)
        assert "features.csv" in str(err.value) and "line 3" in str(err.value)

    def test_simulate_round_trip_identical_instance(self, tmp_path):
        sim = generate(SimConfig(n_sources=10, n_objects=60, density=0.3,
                                 true_weights=(1.5,), seed=17))
        paths = write_instance(sim, tmp_path)
        inst, truth = load_instance(
            paths["observations"], paths["features"], paths["truth"]
        )
        assert inst == sim.instance
        assert truth.labels == sim.truth.restricted_to_domains(sim.instance).labels


def load_files(tmp_path, obs, truth=None, features=None):
    """Write the given CSV texts and load them."""
    paths = {"observations.csv": obs, "truth.csv": truth, "features.csv": features}
    for name, text in paths.items():
        if text is not None:
            (tmp_path / name).write_text(text, encoding="utf-8")
    optional = [tmp_path / n if paths[n] is not None else None
                for n in ("features.csv", "truth.csv")]
    return load_instance(tmp_path / "observations.csv", *optional)


def load_error(tmp_path, obs, truth=None, features=None):
    """The InstanceError message of a failing load, with the directory cut."""
    with pytest.raises(InstanceError) as err:
        load_files(tmp_path, obs, truth, features)
    return str(err.value).replace(f"{tmp_path}/", "")


class TestLoaderRules:
    """Line numbers count CSV records (blank records included, a quoted
    newline not), starting at 2 for the first data row."""

    HEADER = "object_id,source_id,value\n"

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        inst, _ = load_files(tmp_path, self.HEADER + "\no0,s0,a\n\n\no0,s1,b\n")
        assert inst.n_observations == 2 and inst.domains == (("a", "b"),)
        msg = load_error(tmp_path, self.HEADER + "o0,s0,a\n\n\no1,s1\n")
        assert msg == "observations.csv, line 5: expected at least 3 columns, got 2"

    def test_quoted_newline_is_one_record(self, tmp_path):
        msg = load_error(tmp_path, self.HEADER + 'o0,s0,"a\nb"\no1,s0\n')
        assert msg == "observations.csv, line 3: expected at least 3 columns, got 2"

    def test_short_truth_row(self, tmp_path):
        msg = load_error(tmp_path, self.HEADER + "o0,s0,a\n",
                         truth="object_id,value\no0,a\no0\n")
        assert msg == "truth.csv, line 3: expected at least 2 columns, got 1"

    def test_extra_columns_ignored(self, tmp_path):
        inst, truth = load_files(
            tmp_path,
            "object_id,source_id,value,note\no0,s0,a,x\no0,s1,b\no1,s1,c,y,z\n",
            truth="object_id,value,confidence\no0,b,0.9\no1,c\n",
        )
        assert inst.sources == ("s0", "s1") and inst.objects == ("o0", "o1")
        assert inst.domains == (("a", "b"), ("c",))
        assert truth.labels == {0: "b", 1: "c"}

    def test_truth_whitespace_trimmed(self, tmp_path):
        _, truth = load_files(tmp_path, self.HEADER + "o0,s0,a\no1,s0,b c\n",
                              truth=" object_id , value \n o1 , b c \n o0 ,a\n")
        assert truth.labels == {1: "b c", 0: "a"}

    def test_truth_object_without_observations(self, tmp_path):
        msg = load_error(tmp_path, self.HEADER + "o0,s0,a\n",
                         truth="object_id,value\no0,a\n\nghost,a\n")
        assert msg == "truth.csv, line 4: object 'ghost' has no observations"

    def test_truth_unreported_value(self, tmp_path):
        msg = load_error(tmp_path, self.HEADER + "o0,s0,a\no1,s0,b\n",
                         truth="object_id,value\no0,a\no1,a\n")
        assert msg == ("truth.csv, line 3: value 'a' for object 'o1' "
                       "was not reported by any source")

    def test_duplicate_label(self, tmp_path):
        msg = load_error(tmp_path, self.HEADER + "o0,s0,a\no0,s1,b\n",
                         truth="object_id,value\no0,a\n\no0,b\n")
        assert msg == "truth.csv, line 4: duplicate label for object 'o0'"

    def test_empty_observations_file(self, tmp_path):
        assert load_error(tmp_path, "") == "observations.csv: file is empty"
        inst, truth = load_files(tmp_path, self.HEADER + "\n")
        assert inst.n_objects == inst.n_sources == inst.n_observations == 0
        assert truth is None

    def test_duplicate_observation_after_blank_line(self, tmp_path):
        msg = load_error(tmp_path, self.HEADER + "o0,s0,a\n\no1,s0,b\no0,s0,c\n")
        assert msg == ("observations.csv, line 5: duplicate observation for "
                       "object 'o0' and source 's0' (first at line 2)")

    @pytest.mark.parametrize("row, width", [("s1,1", 2), ("s1,1,2,3", 4)])
    def test_features_row_of_wrong_width(self, tmp_path, row, width):
        msg = load_error(tmp_path, self.HEADER + "o0,s0,a\no0,s1,b\n",
                         features=f"source_id,f0,f1\ns0,1,2\n\n{row}\n")
        assert msg == f"features.csv, line 4: expected 3 columns, got {width}"

    @pytest.mark.parametrize("rows, error", [
        ("s0,1,2\ns1,oops,2\ns0,3,4\n",
         "non-numeric feature value 'oops' for 'f0'"),
        ("s0,1,2\ns0,3,4\ns1,oops,2\n",
         "duplicate features for source 's0' (first at line 2)"),
        # The ragged row sends the file through csv.reader.
        ("s0,1,2\ns1,1\ns2,nan,1\n", "expected 3 columns, got 2"),
    ])
    def test_features_first_faulty_line_wins_across_rules(self, tmp_path, rows,
                                                          error):
        msg = load_error(tmp_path, self.HEADER + "o0,s0,a\no0,s1,b\n",
                         features="source_id,f0,f1\n" + rows)
        assert msg == f"features.csv, line 3: {error}"

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_cell_over_the_field_size_limit_is_one_error_line(self, tmp_path, capsys,
                                                             quote):
        # Unquoted text takes the reader's fast path, quoted text csv.reader.
        obs = tmp_path / "observations.csv"
        obs.write_text(self.HEADER + "o0,s0,a\n\n"
                       + f"o1,s0,{quote}{'x' * 200_000}{quote}\no2,s0\n")
        code = run("fuse", "--observations", obs, "--algo", "majority",
                   "--out", tmp_path / "r.json")
        assert code == 1
        limit = csv.field_size_limit()
        assert capsys.readouterr().err == (
            f"error: {obs}, line 4: field larger than field limit ({limit})\n"
        )

    def test_cell_at_the_field_size_limit_loads(self, tmp_path):
        cell = "x" * csv.field_size_limit()
        for text in (f"o0,s0,{cell}\n", f'o0,s0,"{cell}"\n'):
            inst, _ = load_files(tmp_path, self.HEADER + text)
            assert inst.domains == ((cell,),)

    def test_header_cell_over_the_field_size_limit(self, tmp_path):
        limit = csv.field_size_limit()
        msg = load_error(tmp_path, "x" * (limit + 1) + ",source_id,value\no0,s0,a\n")
        assert msg == ("observations.csv, line 1: "
                       f"field larger than field limit ({limit})")

    def test_nul_byte_is_a_character_or_one_error_line(self, tmp_path, capsys):
        obs = tmp_path / "observations.csv"
        obs.write_text(self.HEADER + "o0,s0,a\no1,s0,b\0c\n")
        code = run("fuse", "--observations", obs, "--algo", "majority",
                   "--out", tmp_path / "r.json")
        err = capsys.readouterr().err
        if sys.version_info < (3, 11):
            assert code == 1
            assert err == f"error: {obs}, line 3: line contains NUL\n"
        else:
            # From Python 3.11 on, the csv module reads NUL as a character.
            assert code == 0 and err == ""
            values = json.loads((tmp_path / "r.json").read_text())["values"]
            assert values["o1"] == "b\0c"

    def test_record_ends_fuse_to_identical_results(self, sim_dir, tmp_path):
        crlf = (sim_dir / "observations.csv").read_bytes()
        assert crlf.count(b"\r\n") == crlf.count(b"\n") > 1  # csv.writer's ends
        results = set()
        for name, end in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
            obs = tmp_path / f"{name}.csv"
            obs.write_bytes(crlf.replace(b"\r\n", end))
            out = tmp_path / f"{name}.json"
            code = run("fuse", "--observations", obs, "--truth",
                       sim_dir / "truth.csv", "--algo", "auto", "--out", out)
            assert code == 0
            results.add(out.read_bytes())
        assert len(results) == 1

    @staticmethod
    def long_value_rows(value):
        """3 000 short observation rows with ``value`` as the value of one."""
        rows = [f"o{i % 500},s{i // 500},v{i % 3}\n" for i in range(3000)]
        rows[1700] = f"o200,s3,{value}\n"
        return "".join(rows)

    def test_one_cell_near_the_field_limit_keeps_memory_near_the_file_size(
        self, tmp_path
    ):
        # The loader codes cells in groups of one 8-byte word count, so one
        # long value among 3 000 short rows costs about its own bytes once.
        limit = csv.field_size_limit()
        long_value = "x" * (limit - 1) + "é"  # limit characters, limit + 1 bytes
        obs = tmp_path / "observations.csv"
        obs.write_text(self.HEADER + self.long_value_rows(long_value), encoding="utf-8")
        tracemalloc.start()
        try:
            inst, _ = load_instance(obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.n_observations == 3000 and long_value in inst.cand_values
        assert peak < 64 * obs.stat().st_size

    def test_cell_within_the_limit_in_characters_only_loads_in_file_size_memory(
        self, tmp_path
    ):
        # 70 000 "é" are 140 000 bytes, over the limit in bytes but not in
        # characters; csv.reader reads such a file without a count per byte.
        value = "é" * 70_000
        obs = tmp_path / "observations.csv"
        obs.write_text(self.HEADER + self.long_value_rows(value), encoding="utf-8")
        tracemalloc.start()
        try:
            inst, _ = load_instance(obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.n_observations == 3000 and value in inst.cand_values
        assert peak < 24 * obs.stat().st_size

    def test_many_short_cells_load_in_under_ten_times_the_file_size(self, tmp_path):
        # 200 000 rows as the simulator writes them: 20 000 objects seen by
        # 10 of 500 sources each, two values and "\r\n" record ends.
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2, 200_000).tolist()
        rows = [f"o{i // 10},s{(i // 10 * 7 + i % 10 * 50) % 500},v{v}\r\n"
                for i, v in enumerate(values)]
        obs = tmp_path / "observations.csv"
        obs.write_text(self.HEADER.replace("\n", "\r\n") + "".join(rows), newline="")
        tracemalloc.start()
        try:
            inst, _ = load_instance(obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.n_observations == 200_000 and inst.n_objects == 20_000
        assert peak < 10 * obs.stat().st_size

    def test_cell_within_the_limit_in_characters_only_loads_as_when_quoted(
        self, tmp_path
    ):
        text = self.HEADER + self.long_value_rows("é" * 70_000)
        quoted = "".join(
            ",".join(f'"{cell}"' for cell in line.split(",")) + "\n"
            for line in text.splitlines()
        )
        assert load_files(tmp_path, text)[0] == load_files(tmp_path, quoted)[0]

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_cell_over_the_limit_names_its_line_for_either_record_end(
        self, tmp_path, end
    ):
        limit = csv.field_size_limit()
        text = self.HEADER + self.long_value_rows("x" * (limit + 1))
        msg = load_error(tmp_path, text.replace("\n", end))
        assert msg == ("observations.csv, line 1702: "
                       f"field larger than field limit ({limit})")

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_header_cell_over_the_limit_in_characters_names_line_1(
        self, tmp_path, end
    ):
        limit = csv.field_size_limit()
        header = "object_id,source_id,value,"
        msg = load_error(tmp_path, header + "é" * (limit + 1) + end + "o0,s0,a" + end)
        assert msg == ("observations.csv, line 1: "
                       f"field larger than field limit ({limit})")
        inst, _ = load_files(tmp_path, header + "é" * limit + end + "o0,s0,a,b" + end)
        assert inst.domains == (("a",),)

    def test_invalid_utf8_byte_is_one_error_line(self, tmp_path, capsys):
        obs = tmp_path / "observations.csv"
        obs.write_bytes(self.HEADER.encode() + b"o0,s0,a\no1,s0,b\xffc\n")
        code = run("fuse", "--observations", obs, "--algo", "majority",
                   "--out", tmp_path / "r.json")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_record_ends_and_quoting_read_alike(self, tmp_path):
        rows = [["o0", "s0", "a"], [" o0", "s1 ", " b"], ["o1", "s0", "a"]]
        plain = ["object_id,source_id,value", *map(",".join, rows)]
        expected, _ = load_files(tmp_path, "\n".join(plain) + "\n")
        assert expected.domains == (("a", "b"), ("a",))
        quoted = ['"' + '","'.join(r) + '"'
                  for r in [["object_id", "source_id", "value"], *rows]]
        for end in ("\n", "\r\n", "\r"):
            for lines in (plain, quoted):
                for tail in (end, ""):
                    inst, _ = load_files(tmp_path, end.join(lines) + tail)
                    assert inst.sources == expected.sources
                    assert inst.objects == expected.objects
                    assert inst.domains == expected.domains
                    assert np.array_equal(inst.obs_cand, expected.obs_cand)

    @pytest.mark.parametrize("change", [None, 1, 9, 30, -100])
    def test_file_whose_size_reads_wrong_loads_in_full(self, tmp_path, monkeypatch,
                                                       change):
        # A pipe's size reads 0, and a file can grow or shrink after its size
        # is read: the loader reads to the end of the file either way.
        text = self.HEADER + "o0,s0,a\no0,s1,b\no1,s0,c"
        expected, _ = load_files(tmp_path, text)
        size = 0 if change is None else len(text) - change
        stat = os.stat_result((0,) * 6 + (size,) + (0,) * 3)
        monkeypatch.setattr(io.os, "fstat", lambda fd: stat)
        inst, _ = load_files(tmp_path, text)
        assert inst.domains == expected.domains == (("a", "b"), ("c",))
        assert np.array_equal(inst.obs_cand, expected.obs_cand)

    def test_read_rows_counts_non_empty_data_rows(self, tmp_path):
        # perfbench's tracer counts `io.rows_read` as len(rows) of this call.
        path = tmp_path / "observations.csv"
        path.write_text(self.HEADER + "\no0,s0,a\n\no0,s1,b,extra\no1,s0,c\n\n")
        header, rows = io._read_rows(path, 3)
        assert header == ["object_id", "source_id", "value"]
        assert len(rows) == 3


class TestFuseCommand:
    @pytest.mark.parametrize("algo", ["erm", "em", "majority", "counts", "auto"])
    def test_each_algorithm_produces_result(self, sim_dir, tmp_path, algo):
        out = tmp_path / f"{algo}.json"
        code = run("fuse", "--observations", sim_dir / "observations.csv",
                   "--truth", sim_dir / "truth.csv", "--algo", algo,
                   "--out", out)
        assert code == 0
        result = json.loads(out.read_text())
        assert set(result) == {"values", "accuracies", "weights", "algorithm",
                               "optimizer", "diagnostics"}
        assert len(result["values"]) == 80
        assert all(0.0 <= a <= 1.0 for a in result["accuracies"].values())
        if algo == "auto":
            assert result["optimizer"]["choice"] in ("ERM", "EM")
        else:
            assert result["optimizer"] is None

    @pytest.mark.parametrize("algo", ["auto", "em", "counts", "majority", "erm"])
    def test_header_only_observations(self, tmp_path, capsys, algo):
        # Such a file loads as an instance with nothing in it. Every method
        # but ERM, which needs a label, fuses it to empty results.
        obs = tmp_path / "obs.csv"
        obs.write_text("object_id,source_id,value\n")
        out = tmp_path / "r.json"
        code = run("fuse", "--observations", obs, "--algo", algo, "--out", out)
        err = capsys.readouterr().err.splitlines()
        if algo == "erm":
            assert code == 1
            assert err == ["error: ERM requires at least one labeled object"]
            assert not out.exists()
        else:
            assert code == 0
            assert err == []
            result = json.loads(out.read_text())
            assert result["values"] == result["accuracies"] == {}

    def test_auto_on_one_labelled_source_runs_erm(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("object_id,source_id,value\no0,s0,a\no1,s0,b\no2,s0,a\n")
        feats = tmp_path / "features.csv"
        feats.write_text("source_id,f0\ns0,1.0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("object_id,value\no0,a\no1,b\n")
        out = tmp_path / "r.json"
        code = run("fuse", "--observations", obs, "--features", feats,
                   "--truth", truth, "--algo", "auto", "--out", out)
        assert code == 0
        result = json.loads(out.read_text())
        assert result["algorithm"] == "ERM"
        assert result["optimizer"]["choice"] == "ERM"

    def test_byte_identical_reruns(self, sim_dir, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run("fuse", "--observations", sim_dir / "observations.csv",
                "--truth", sim_dir / "truth.csv", "--algo", "erm",
                "--seed", 3, "--out", out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("algo", ["erm", "em", "majority", "counts", "auto"])
    def test_labeled_objects_keep_their_labels(self, sim_dir, tmp_path, algo):
        out = tmp_path / "r.json"
        run("fuse", "--observations", sim_dir / "observations.csv",
            "--truth", sim_dir / "truth.csv", "--algo", algo, "--out", out)
        result = json.loads(out.read_text())
        truth_rows = (sim_dir / "truth.csv").read_text().splitlines()[1:]
        for row in truth_rows:
            obj, value = row.split(",")
            assert result["values"][obj] == value

    def test_em_on_five_value_domain_keeps_labels(self, tmp_path):
        data = tmp_path / "d5"
        assert run("simulate", "--sources", 20, "--objects", 150,
                   "--density", 0.3, "--domain", 5, "--seed", 7,
                   "--out-dir", data) == 0
        labels = (data / "truth.csv").read_text().splitlines()[:31]
        (data / "labels.csv").write_text("\n".join(labels) + "\n")
        out = tmp_path / "r.json"
        code = run("fuse", "--observations", data / "observations.csv",
                   "--truth", data / "labels.csv", "--algo", "em",
                   "--out", out)
        assert code == 0
        result = json.loads(out.read_text())
        assert len(result["values"]) == 150
        for row in labels[1:]:
            obj, value = row.split(",")
            assert result["values"][obj] == value

    def test_unconverged_fit_says_why_on_stderr(
        self, sim_dir, tmp_path, capsys, monkeypatch
    ):
        def capped_fuse(*args, **kwargs):
            result = pipeline.fuse(*args, **kwargs)
            capped = replace(result.diagnostics, iterations=500, converged=False)
            return replace(result, diagnostics=capped)

        out = tmp_path / "r.json"
        argv = ("fuse", "--observations", sim_dir / "observations.csv",
                "--truth", sim_dir / "truth.csv", "--algo", "erm", "--out", out)
        assert run(*argv) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(cli, "fuse", capped_fuse)
        assert run(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "ERM" in err[0] and "500 iterations" in err[0]
        assert "did not pass its optimality check" in err[0]
        diagnostics = json.loads(out.read_text())["diagnostics"]
        assert diagnostics["iterations"] == 500
        assert diagnostics["converged"] is False

    def test_erm_weights_pass_the_kkt_check(self, tmp_path):
        # The weights written are optimal: the KKT residual of the object
        # loss at them is within the bound `converged` promises.
        data = tmp_path / "feat"
        assert run("simulate", "--sources", 40, "--objects", 600,
                   "--density", 0.15, "--feature-model", "1.5,-0.8,0.6",
                   "--seed", 5, "--out-dir", data) == 0
        out = tmp_path / "r.json"
        assert run("fuse", "--observations", data / "observations.csv",
                   "--features", data / "features.csv",
                   "--truth", data / "truth.csv", "--algo", "erm",
                   "--l1", 0.1, "--out", out) == 0
        inst, truth = load_instance(data / "observations.csv",
                                    data / "features.csv", data / "truth.csv")
        weights = json.loads(out.read_text())["weights"]
        w = WeightVector(
            np.array([weights["sources"][name] for name in inst.sources]),
            np.array([weights["features"][name] for name in inst.feature_names]),
        )
        targets = one_hot_targets(inst, truth)
        _, grad = object_loss_and_grad(inst, targets, w, l2=0.01)
        v = w.feature_weights
        residual = max(
            np.max(np.abs(grad.source_intercepts)),
            np.max(np.abs(v - _soft_threshold(v - grad.feature_weights, 0.1))),
        )
        _, labelled_obs = correctness_counts(inst, truth)
        assert residual <= 1e-6 * max(1, labelled_obs.max())

    def test_erm_without_truth_is_input_error(self, sim_dir, tmp_path):
        code = run("fuse", "--observations", sim_dir / "observations.csv",
                   "--algo", "erm", "--out", tmp_path / "r.json")
        assert code == 1

    def test_missing_file_is_input_error(self, tmp_path):
        code = run("fuse", "--observations", tmp_path / "nope.csv",
                   "--out", tmp_path / "r.json")
        assert code == 1

    def test_malformed_header_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header,here\no0,s0,a\n")
        code = run("fuse", "--observations", bad, "--out", tmp_path / "r.json")
        assert code == 1

    def test_counts_accuracies_match_fit(self, sim_dir, tmp_path):
        out = tmp_path / "c.json"
        run("fuse", "--observations", sim_dir / "observations.csv",
            "--truth", sim_dir / "truth.csv", "--algo", "counts", "--out", out)
        result = json.loads(out.read_text())
        # intercepts are the log-odds of the counts accuracies, so the
        # reported accuracies must round-trip through the logistic
        for name, a in result["accuracies"].items():
            sigma = result["weights"]["sources"][name]
            assert a == pytest.approx(1.0 / (1.0 + math.exp(-sigma)), abs=1e-9)


class TestLabelPasses:
    @pytest.mark.parametrize("algo,passes", [
        ("erm", 2), ("em", 2), ("counts", 2), ("majority", 2), ("auto", 3),
    ])
    def test_each_reader_matches_the_labels_once(
        self, sim_dir, tmp_path, monkeypatch, algo, passes
    ):
        # The truth file's reader matches the labels to candidates once, then
        # each function that reads them checks them once: the learner, or
        # `decide` and then the learner under auto. Majority vote reads no
        # labels, so `fuse` checks them before clamping.
        labels = tmp_path / "labels.csv"
        rows = (sim_dir / "truth.csv").read_text().splitlines()
        labels.write_text("\n".join(rows[:11]) + "\n")
        calls = []
        candidate_index = FusionInstance.candidate_index

        def counted(self, objects, values):
            calls.append(algo)
            return candidate_index(self, objects, values)

        monkeypatch.setattr(FusionInstance, "candidate_index", counted)
        code = run("fuse", "--observations", sim_dir / "observations.csv",
                   "--truth", labels, "--algo", algo, "--out", tmp_path / "r.json")
        assert code == 0
        assert len(calls) == passes


PENALTIES = "error: penalties must be non-negative and finite"
TAU = "error: tau must be positive and finite"


class TestNonFiniteOptions:
    @pytest.mark.parametrize("command,flags,message", [
        ("fuse", ("--algo", "erm", "--l1", "nan"), PENALTIES),
        ("fuse", ("--algo", "erm", "--l1", "inf"), PENALTIES),
        ("fuse", ("--algo", "erm", "--l2", "nan"), PENALTIES),
        ("fuse", ("--algo", "em", "--l2", "inf"), PENALTIES),
        ("fuse", ("--algo", "auto", "--tau", "nan"), TAU),
        ("optimize", ("--tau", "nan"), TAU),
        ("optimize", ("--tau", "inf"), TAU),
        ("lasso-path", ("--l2", "nan"), PENALTIES),
        ("lasso-path", ("--l2", "inf"), PENALTIES),
        ("evaluate", ("--l1", "nan", "--train-fractions", "0.2", "--reps", 1),
         PENALTIES),
        ("evaluate", ("--l2", "inf", "--train-fractions", "0.2", "--reps", 1),
         PENALTIES),
    ])
    def test_is_one_error_line_and_no_result(
        self, featured_dir, tmp_path, capfd, command, flags, message
    ):
        out = tmp_path / "out"
        args = [command, *flags,
                "--observations", featured_dir / "observations.csv",
                "--features", featured_dir / "features.csv",
                "--truth", featured_dir / "truth.csv"]
        if command != "optimize":
            args += ["--out", out]
        code = run(*args)
        # capfd, not capsys: LAPACK writes its complaints to the process's
        # stderr directly.
        captured = capfd.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [message]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("algo", ["erm", "em", "counts", "majority"])
    def test_tau_is_checked_under_every_algorithm(
        self, featured_dir, tmp_path, capfd, algo, tau
    ):
        # Only auto reads tau, but a bad one is an input error under any.
        out = tmp_path / "out"
        code = run("fuse", "--algo", algo, "--tau", tau,
                   "--observations", featured_dir / "observations.csv",
                   "--features", featured_dir / "features.csv",
                   "--truth", featured_dir / "truth.csv", "--out", out)
        captured = capfd.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [TAU]
        assert captured.out == ""
        assert not out.exists()


class TestOptimizeCommand:
    def test_prints_decision(self, sim_dir, capsys):
        code = run("optimize", "--observations", sim_dir / "observations.csv",
                   "--truth", sim_dir / "truth.csv", "--tau", 0.5)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["choice"] in ("ERM", "EM")
        assert payload["tau"] == 0.5
        assert payload["ground_truth_units"] >= 0

    def test_no_truth_chooses_em(self, sim_dir, capsys):
        code = run("optimize", "--observations", sim_dir / "observations.csv")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["choice"] == "EM"
        assert payload["erm_bound"] is None


class TestLassoPathCommand:
    def test_csv_output(self, featured_dir, tmp_path):
        out = tmp_path / "path.csv"
        code = run("lasso-path", "--observations",
                   featured_dir / "observations.csv",
                   "--features", featured_dir / "features.csv",
                   "--truth", featured_dir / "truth.csv",
                   "--grid", 8, "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,mu,f0,f1"
        assert len(lines) == 9
        first = [float(x) for x in lines[1].split(",")]
        assert first[1] == 0.0  # mu starts at 0 where all weights vanish
        assert first[2] == first[3] == 0.0


class TestSimulateCommand:
    def test_writes_loadable_dataset(self, tmp_path):
        out_dir = tmp_path / "sim"
        code = run("simulate", "--sources", 8, "--objects", 40,
                   "--density", 0.3, "--seed", 5, "--out-dir", out_dir)
        assert code == 0
        inst, truth = load_instance(out_dir / "observations.csv",
                                    truth_path=out_dir / "truth.csv")
        assert inst.n_sources == 8
        assert inst.n_objects == 40
        assert truth is not None

    def test_feature_model_writes_features(self, tmp_path):
        out_dir = tmp_path / "fsim"
        code = run("simulate", "--sources", 8, "--objects", 40,
                   "--density", 0.3, "--feature-model", "1.5,-0.5",
                   "--seed", 5, "--out-dir", out_dir)
        assert code == 0
        header = (out_dir / "features.csv").read_text().splitlines()[0]
        assert header == "source_id,f0,f1"

    def test_bad_config_is_input_error(self, tmp_path):
        code = run("simulate", "--sources", 8, "--objects", 40,
                   "--density", 2.0, "--out-dir", tmp_path / "x")
        assert code == 1

    @pytest.mark.parametrize("flag", [
        ("--acc-mean", "nan"),
        ("--acc-spread", "nan"),
        ("--feature-model", "nan,1"),
        ("--feature-density", "1.7"),
    ])
    def test_non_finite_or_out_of_range_input_is_input_error(
        self, tmp_path, capsys, flag
    ):
        code = run("simulate", "--sources", 8, "--objects", 40, *flag,
                   "--out-dir", tmp_path / "x")
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "x").exists()

    def test_unparsable_feature_weight_is_one_error_line(self, tmp_path, capsys):
        code = run("simulate", "--sources", 8, "--objects", 40,
                   "--feature-model", "1,abc", "--out-dir", tmp_path / "x")
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: could not convert string to float: 'abc'"
        ]
        assert not (tmp_path / "x").exists()


class TestEvaluateCommand:
    @pytest.mark.parametrize("reps", [0, -2])
    def test_reps_below_one_is_input_error(self, sim_dir, tmp_path, capsys, reps):
        out = tmp_path / "report.json"
        code = run("evaluate", "--observations", sim_dir / "observations.csv",
                   "--truth", sim_dir / "truth.csv", "--reps", reps, "--out", out)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [
            f"error: reps must be at least 1, got {reps}"
        ]
        assert not out.exists()

    def test_fraction_leaving_no_test_object_fails_before_any_fit(
        self, sim_dir, tmp_path, capsys, monkeypatch
    ):
        truth = tmp_path / "truth.csv"
        lines = (sim_dir / "truth.csv").read_text().splitlines(keepends=True)
        truth.write_text("".join(lines[:3]))  # header and two labels
        fits = []
        monkeypatch.setattr(cli, "fuse", lambda *a, **k: fits.append(a))
        out = tmp_path / "report.json"
        code = run("evaluate", "--observations", sim_dir / "observations.csv",
                   "--truth", truth, "--train-fractions", "0.1,0.9", "--reps", 1,
                   "--out", out)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: train fraction 0.9 of 2 labels leaves no test set"
        ]
        assert not out.exists()
        assert fits == []

    def test_report_rows_and_determinism(self, sim_dir, tmp_path):
        args = ("evaluate", "--observations", sim_dir / "observations.csv",
                "--truth", sim_dir / "truth.csv",
                "--train-fractions", "0.1,0.3", "--reps", 2, "--seed", 1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = json.loads(a.read_text())["rows"]
        assert len(rows) == 2 * 2 * 4  # fractions x reps x algorithms
        for row in rows:
            assert 0.0 <= row["object_accuracy"] <= 1.0
            assert row["runtime_ms"] is None

    def test_timing_flag_fills_runtimes(self, sim_dir, tmp_path):
        out = tmp_path / "t.json"
        run("evaluate", "--observations", sim_dir / "observations.csv",
            "--truth", sim_dir / "truth.csv", "--train-fractions", "0.2",
            "--reps", 1, "--timing", "--out", out)
        rows = json.loads(out.read_text())["rows"]
        assert all(row["runtime_ms"] > 0 for row in rows)


class TestPredictSourcesCommand:
    def test_round_trip_from_fuse_weights(self, featured_dir, tmp_path):
        weights_file = tmp_path / "w.json"
        run("fuse", "--observations", featured_dir / "observations.csv",
            "--features", featured_dir / "features.csv",
            "--truth", featured_dir / "truth.csv",
            "--algo", "erm", "--l1", 0.1, "--out", weights_file)
        new_feats = tmp_path / "new.csv"
        new_feats.write_text("source_id,f0,f1\nnew0,0,0\nnew1,1,0\n")
        out = tmp_path / "preds.json"
        code = run("predict-sources", "--weights", weights_file,
                   "--features", new_feats, "--out", out)
        assert code == 0
        preds = json.loads(out.read_text())["accuracies"]
        assert preds["new0"] == pytest.approx(0.5)
        w = json.loads(weights_file.read_text())["weights"]["features"]
        assert preds["new1"] == pytest.approx(
            1.0 / (1.0 + math.exp(-w["f0"])), abs=1e-9
        )

    def test_empty_features_file_is_error(self, tmp_path):
        weights_file = tmp_path / "w.json"
        weights_file.write_text(json.dumps({"weights": {"features": {}}}))
        feats = tmp_path / "f.csv"
        feats.write_text("")
        code = run("predict-sources", "--weights", weights_file,
                   "--features", feats, "--out", tmp_path / "p.json")
        assert code == 1

    @pytest.mark.parametrize("row", ["n1,nan,1", "n1,1"])
    def test_bad_feature_row_names_file_and_line(self, tmp_path, capsys, row):
        weights_file = tmp_path / "w.json"
        weights_file.write_text(
            json.dumps({"weights": {"features": {"f0": 1.0, "f1": 2.0}}})
        )
        feats = tmp_path / "f.csv"
        feats.write_text(f"source_id,f0,f1\nn0,1,1\n{row}\n")
        out = tmp_path / "p.json"
        code = run("predict-sources", "--weights", weights_file,
                   "--features", feats, "--out", out)
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "f.csv" in err and "line 3" in err

    @pytest.mark.parametrize(
        "weights, feature",
        [
            ('{"weights": {"features": {"f0": NaN}}}', "f0"),
            ('{"weights": {"features": {"f0": "heavy"}}}', "f0"),
            ('{"weights": {"features": {"f0": 1.0,}}}', None),
            ('[{"features": {"f0": 1.0}}]', None),
        ],
        ids=["nan", "string", "malformed", "not-an-object"],
    )
    def test_bad_weights_file_names_file_and_feature(
        self, tmp_path, capsys, weights, feature
    ):
        weights_file = tmp_path / "w.json"
        weights_file.write_text(weights)
        feats = tmp_path / "f.csv"
        feats.write_text("source_id,f0\nn0,1\n")
        out = tmp_path / "p.json"
        code = run("predict-sources", "--weights", weights_file,
                   "--features", feats, "--out", out)
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "w.json" in err
        if feature:
            assert repr(feature) in err

    def test_repeated_feature_name_is_error(self, tmp_path, capsys):
        weights_file = tmp_path / "w.json"
        weights_file.write_text(json.dumps({"weights": {"features": {"f0": 2.0}}}))
        feats = tmp_path / "f.csv"
        feats.write_text("source_id,f0,f0\nn0,1,1\n")
        out = tmp_path / "p.json"
        code = run("predict-sources", "--weights", weights_file,
                   "--features", feats, "--out", out)
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "f.csv" in err and "'f0'" in err

    def test_repeated_source_row_names_both_lines(self, tmp_path, capsys):
        weights_file = tmp_path / "w.json"
        weights_file.write_text(json.dumps({"weights": {"features": {"f0": 1.0}}}))
        feats = tmp_path / "f.csv"
        feats.write_text("source_id,f0\nn0,1\nn1,0\nn0,0\n")
        out = tmp_path / "p.json"
        code = run("predict-sources", "--weights", weights_file,
                   "--features", feats, "--out", out)
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "f.csv" in err and "line 4" in err and "line 2" in err

    def test_unknown_feature_column_is_error(self, tmp_path):
        weights_file = tmp_path / "w.json"
        weights_file.write_text(json.dumps({"weights": {"features": {"f0": 1.0}}}))
        feats = tmp_path / "f.csv"
        feats.write_text("source_id,f0,mystery\nn0,1,1\n")
        code = run("predict-sources", "--weights", weights_file,
                   "--features", feats, "--out", tmp_path / "p.json")
        assert code == 1


class TestPairEstimateCommand:
    def test_writes_estimates(self, tmp_path):
        sim = generate(SimConfig(n_sources=10, n_objects=3000,
                                 pair_sampling=True, true_weights=(2.5,),
                                 feature_density=0.6, seed=9))
        write_instance(sim, tmp_path / "p")
        out = tmp_path / "est.json"
        code = run("pair-estimate",
                   "--observations", tmp_path / "p" / "observations.csv",
                   "--features", tmp_path / "p" / "features.csv",
                   "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n_reduced_objects"] == 3000
        assert payload["a_e_hat"] > 0
        errs = [abs(payload["accuracies"][f"s{s}"] - sim.true_accuracies[s])
                for s in range(10)]
        assert np.mean(errs) < 0.15


@pytest.mark.parametrize("command", ["fuse", "simulate", "evaluate", "pair-estimate"])
def test_negative_seed_is_input_error(featured_dir, tmp_path, capsys, command):
    # Rejected when the config is built, before any fit or write.
    out = tmp_path / "out"
    if command == "simulate":
        args = ["--sources", 8, "--objects", 40, "--out-dir", out]
    else:
        args = ["--observations", featured_dir / "observations.csv",
                "--features", featured_dir / "features.csv", "--out", out]
    if command in ("fuse", "evaluate"):
        args += ["--truth", featured_dir / "truth.csv"]
    if command == "fuse":
        args += ["--algo", "erm"]
    code = run(command, *args, "--seed", -1)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == ["error: seed must be non-negative, got -1"]
    assert not out.exists()


# Each command's options at the defaults the CLI has always had, spelled out.
DEFAULTS = {
    "fuse": ("--tau", 0.1, "--l1", 0.0, "--l2", 0.01, "--seed", 0),
    "optimize": ("--tau", 0.1),
    "lasso-path": ("--grid", 50, "--l2", 0.01),
    "evaluate": ("--train-fractions", "0.001,0.01,0.05,0.1,0.2", "--reps", 5,
                 "--l1", 0.0, "--l2", 0.01, "--seed", 0),
    "pair-estimate": ("--seed", 0),
    "simulate": ("--density", 0.1, "--domain", 2, "--acc-mean", 0.8,
                 "--acc-spread", 0.0, "--feature-density", 0.5, "--seed", 0),
}


class TestDefaults:
    """Leaving an option out writes the same bytes as giving its default."""

    @pytest.mark.parametrize("command, given", [
        pytest.param(("fuse",), ("--algo", "auto", *DEFAULTS["fuse"]), id="fuse"),
        *(pytest.param(("fuse", "--algo", algo), DEFAULTS["fuse"], id=f"fuse-{algo}")
          for algo in ("erm", "em", "majority", "counts")),
        *(pytest.param((name,), DEFAULTS[name], id=name)
          for name in ("optimize", "lasso-path", "evaluate", "pair-estimate")),
    ])
    def test_command(self, request, tmp_path, capsys, command, given):
        # `featured_dir` leaves the pair estimator at chance for about half
        # its seeds, so the pair estimate runs on an instance it determines.
        pairs = command[0] == "pair-estimate"
        data = request.getfixturevalue("pair_dir" if pairs else "featured_dir")
        args = [*command, "--observations", data / "observations.csv",
                "--features", data / "features.csv"]
        if not pairs:
            args += ["--truth", data / "truth.csv"]
        written = []
        for i, extra in enumerate(((), given)):
            out = tmp_path / f"out{i}"
            if command[0] == "optimize":
                assert run(*args, *extra) == 0
                written.append(capsys.readouterr().out.encode())
            else:
                assert run(*args, *extra, "--out", out) == 0
                written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("model", [(), ("--feature-model", "1.5,-0.5")])
    def test_simulate(self, tmp_path, model):
        for name, extra in (("left-out", ()), ("given", DEFAULTS["simulate"])):
            assert run("simulate", "--sources", 8, "--objects", 60, *model, *extra,
                       "--out-dir", tmp_path / name) == 0
        files = sorted(p.name for p in (tmp_path / "left-out").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "given").iterdir())
        for f in files:
            assert ((tmp_path / "left-out" / f).read_bytes()
                    == (tmp_path / "given" / f).read_bytes())


def test_main_builds_its_parser_once(sim_dir, capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run("optimize", "--observations", sim_dir / "observations.csv") == 0
    assert cli.build_parser.cache_info().misses == 1


BLOCKED_SCIPY_SESSION = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from pathlib import Path
from trustfuse.cli import main

def run(*argv):
    code = main([str(a) for a in argv])
    assert code == 0, (argv, code)

d = Path(sys.argv[1])
data = d / "data"
run("simulate", "--sources", 10, "--objects", 400, "--density", 0.3,
    "--feature-model", "2.0,-1.0", "--seed", 3, "--out-dir", data)
obs, feats, truth = (data / f"{f}.csv" for f in ("observations", "features", "truth"))
labels = d / "labels.csv"
labels.write_text("\\n".join(truth.read_text().splitlines()[:9]) + "\\n")
run("fuse", "--observations", obs, "--features", feats, "--truth", labels,
    "--algo", "auto", "--out", d / "result.json")
run("optimize", "--observations", obs, "--features", feats, "--truth", labels)
run("evaluate", "--observations", obs, "--features", feats, "--truth", truth,
    "--train-fractions", "0.05", "--reps", 1, "--out", d / "report.json")
run("lasso-path", "--observations", obs, "--features", feats, "--truth", truth,
    "--grid", 5, "--out", d / "lasso.csv")
run("pair-estimate", "--observations", obs, "--features", feats,
    "--out", d / "pairs.json")
run("predict-sources", "--weights", d / "result.json", "--features", feats,
    "--out", d / "predictions.json")
"""


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    return env


def test_every_command_runs_without_scipy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", BLOCKED_SCIPY_SESSION, str(tmp_path)],
        env=src_env(), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    decision = json.loads(done.stdout)
    assert decision["em_units"] > 0
    assert json.loads((tmp_path / "result.json").read_text())["values"]


IMPORTED_PACKAGES = """
import sys
before = set(sys.modules)
import trustfuse.cli
loaded = {m.partition(".")[0] for m in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_cli_import_loads_only_numpy_beyond_the_standard_library():
    # trustfuse runs on numpy alone. Every `trustfuse` process pays its
    # imports at start-up, and a fresh process without cached bytecode
    # compiles each module it loads: `import scipy.sparse` alone adds about
    # 0.12 s, and scipy.special about 17 MB of peak resident size.
    done = subprocess.run(
        [sys.executable, "-c", IMPORTED_PACKAGES],
        env=src_env(), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["numpy", "trustfuse"]
