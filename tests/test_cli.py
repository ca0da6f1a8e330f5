"""Tests for the sweep engine and the command-line interface.

CLI behavior is exercised through ``main(argv)`` so exit codes, stdout tables,
and stderr diagnostics are all covered without spawning subprocesses. Only
the import-footprint guard starts a fresh interpreter, since it inspects
``sys.modules``.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import ngtmsv
from ngtmsv.cli import main
from ngtmsv.errors import UsageError
from ngtmsv.sweep import (
    CSV_HEADER,
    FIGURES,
    Axis,
    SweepRequest,
    parse_axis,
    parse_config,
    parse_preset,
    records_from_json,
    run_sweep,
    to_csv,
    to_json,
)


class TestParseAxis:
    def test_scalar(self):
        ax = parse_axis("0.4", "tau")
        assert ax.values == (0.4,)

    def test_linear(self):
        ax = parse_axis("0.1:0.5:3", "lambda")
        assert ax.values == pytest.approx((0.1, 0.3, 0.5))

    def test_single_point_axis(self):
        assert parse_axis("0.2:0.9:1", "tau").values == (0.2,)

    def test_errors_name_the_key(self):
        with pytest.raises(UsageError, match="lambda"):
            parse_axis("abc", "lambda")
        with pytest.raises(UsageError, match="tau"):
            parse_axis("0.1:0.5", "tau")
        with pytest.raises(UsageError, match="phi"):
            parse_axis("0.1:0.5:zz", "phi")
        with pytest.raises(UsageError, match="count"):
            parse_axis("0.1:0.5:0", "tau")


class TestParsePreset:
    def test_known_presets(self):
        assert parse_preset("asym-ps-1") == ("asym-ps", 1)
        assert parse_preset("sym-pc-2") == ("sym-pc", 2)
        assert parse_preset("ASYM-PA-3") == ("asym-pa", 3)
        assert parse_preset("tmsv") == (None, 0)

    def test_mixed_photon_numbers_point_to_photons_flag(self):
        with pytest.raises(UsageError, match="--photons"):
            parse_preset("asym-pc-1-2")

    def test_bad_names(self):
        with pytest.raises(UsageError, match="unknown name"):
            parse_preset("super-ps-1")
        with pytest.raises(UsageError, match="photon number"):
            parse_preset("sym-ps-x")
        with pytest.raises(UsageError, match=">= 1"):
            parse_preset("sym-ps-0")


class TestSweepRequest:
    def test_quantity_validation(self):
        with pytest.raises(UsageError, match="quantity"):
            SweepRequest(quantity="entropy", lam_axis=Axis.scalar(0.5),
                         preset="tmsv")

    def test_operation_exclusive_or(self):
        with pytest.raises(UsageError, match="exactly one"):
            SweepRequest(quantity="qfi", lam_axis=Axis.scalar(0.5))
        with pytest.raises(UsageError, match="exactly one"):
            SweepRequest(quantity="qfi", lam_axis=Axis.scalar(0.5),
                         preset="tmsv", photons=(0, 0, 0, 1))

    def test_domain_checks_name_keys(self):
        with pytest.raises(UsageError, match="lambda"):
            SweepRequest(quantity="qfi", lam_axis=Axis.scalar(1.2),
                         preset="tmsv")
        with pytest.raises(UsageError, match="tau"):
            SweepRequest(quantity="qfi", lam_axis=Axis.scalar(0.5),
                         tau_axis=Axis.scalar(0.0), preset="sym-ps-1")
        with pytest.raises(UsageError, match="phi"):
            SweepRequest(quantity="parity", lam_axis=Axis.scalar(0.5),
                         phi_axis=Axis((math.nan,)), preset="tmsv")

    def test_wigner_needs_point(self):
        with pytest.raises(UsageError, match="point"):
            SweepRequest(quantity="wigner", lam_axis=Axis.scalar(0.5),
                         preset="tmsv")
        with pytest.raises(UsageError, match="only meaningful for wigner"):
            SweepRequest(quantity="qfi", lam_axis=Axis.scalar(0.5),
                         preset="tmsv", point=(0.0, 0.0, 0.0, 0.0))

    def test_spec_for_places_tau_by_preset_kind(self):
        req = SweepRequest(quantity="probability", lam_axis=Axis.scalar(0.5),
                           tau_axis=Axis.scalar(0.7), preset="asym-ps-1")
        spec = req.spec_for(0.7)
        assert (spec.tau1, spec.tau2) == (1.0, 0.7)
        req = SweepRequest(quantity="probability", lam_axis=Axis.scalar(0.5),
                           tau_axis=Axis.scalar(0.7), preset="sym-pa-2")
        spec = req.spec_for(0.7)
        assert (spec.tau1, spec.tau2) == (0.7, 0.7)
        assert (spec.m1, spec.m2) == (2, 2)

    def test_spec_for_tmsv_pins_full_transmission(self):
        req = SweepRequest(quantity="qfi", lam_axis=Axis.scalar(0.5),
                           preset="tmsv")
        spec = req.spec_for(1.0)
        assert (spec.tau1, spec.tau2) == (1.0, 1.0)
        assert spec.total_photons == 0

    def test_tau_pair_with_photons(self):
        req = SweepRequest(quantity="probability", lam_axis=Axis.scalar(0.5),
                           photons=(1, 2, 1, 2), tau_pair=(0.6, 0.8))
        spec = req.spec_for(1.0)  # grid tau ignored when the pair is pinned
        assert (spec.tau1, spec.tau2) == (0.6, 0.8)
        assert (spec.m1, spec.m2, spec.n1, spec.n2) == (1, 2, 1, 2)

    @pytest.mark.parametrize("field, value", [
        ("tau_pair", (0.5,)), ("tau_pair", ("0.5", "0.6")), ("tau_pair", 0.5),
        ("tau_pair", (True, 0.5)), ("point", ("a", 0, 0, 0)),
        ("point", (0.0, False, 0.0, 0.0)), ("point", (0.0, 0.0, 0.0)),
        ("photons", (True, 0, 0, 0)), ("photons", (0, 0, 1, False)),
        ("lam_axis", Axis(("0.5",))), ("phi_axis", Axis(("a",))), ("photons", 3),
        ("preset", 3), ("tau_axis", Axis((True,))),
    ])
    def test_malformed_fields_are_usage_errors(self, field, value):
        # a preset replaces the photons, so that the preset check is reached
        kw = dict(quantity="wigner" if field == "point" else "probability",
                  lam_axis=Axis.scalar(0.5),
                  photons=None if field == "preset" else (1, 2, 1, 2))
        kw[field] = value
        with pytest.raises(UsageError, match=field.split("_")[0]):
            SweepRequest(**kw)

    def test_tau_pair_rejected_for_presets(self):
        req = SweepRequest(quantity="probability", lam_axis=Axis.scalar(0.5),
                           preset="sym-ps-1", tau_pair=(0.6, 0.8))
        with pytest.raises(UsageError, match="--photons"):
            req.spec_for(0.5)


class TestRunSweep:
    def test_grid_order(self):
        req = SweepRequest(quantity="probability",
                           lam_axis=Axis((0.2, 0.4)),
                           tau_axis=Axis((0.5, 0.9)),
                           phi_axis=Axis((0.01, 0.3)),
                           preset="asym-ps-1")
        recs = run_sweep(req)
        assert len(recs) == 8
        assert [r.lam for r in recs] == [0.2] * 4 + [0.4] * 4
        assert [r.tau2 for r in recs] == [0.5, 0.5, 0.9, 0.9] * 2
        assert [r.phi for r in recs] == [0.01, 0.3] * 4
        assert all(r.status == "ok" for r in recs)

    def test_degenerate_and_stationary_statuses(self):
        # qfi of the bare state at lam = 0 carries no phase information
        req = SweepRequest(quantity="qfi", lam_axis=Axis((0.0, 0.5)),
                           preset="tmsv")
        statuses = [r.status for r in run_sweep(req)]
        assert statuses == ["degenerate", "ok"]
        # the parity fringe of the bare state at lam = 0 is flat
        req = SweepRequest(quantity="sensitivity", lam_axis=Axis((0.0, 0.5)),
                           preset="tmsv")
        statuses = [r.status for r in run_sweep(req)]
        assert statuses == ["stationary", "ok"]

    def test_thread_count_does_not_change_records(self, monkeypatch):
        # sweeps run serially; a leftover NGI_THREADS setting is ignored
        req = SweepRequest(quantity="merit", lam_axis=Axis((0.3, 0.5, 0.7)),
                           tau_axis=Axis((0.6, 0.9)), preset="sym-ps-1")
        monkeypatch.delenv("NGI_THREADS", raising=False)
        serial = to_csv(run_sweep(req))
        for value in ("3", "0", "zero"):
            monkeypatch.setenv("NGI_THREADS", value)
            assert to_csv(run_sweep(req)) == serial


class TestTables:
    def test_csv_golden(self):
        req = SweepRequest(quantity="probability", lam_axis=Axis((0.5,)),
                           tau_axis=Axis((0.5,)), preset="asym-ps-1")
        text = to_csv(run_sweep(req))
        assert text == (CSV_HEADER + "\n"
                        "0.5,1.0,0.5,0.01,0.12244897959183677,ok\n")

    def test_csv_leaves_failed_values_empty(self):
        req = SweepRequest(quantity="qfi", lam_axis=Axis((0.0,)),
                           preset="tmsv")
        lines = to_csv(run_sweep(req)).splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0.0,1.0,1.0,0.01,,degenerate"

    def test_json_round_trip(self):
        req = SweepRequest(quantity="parity", lam_axis=Axis((0.0, 0.4)),
                           tau_axis=Axis((0.8,)), phi_axis=Axis((0.2,)),
                           preset="sym-pc-1")
        recs = run_sweep(req)
        back = records_from_json(to_json(recs))
        assert back == recs
        rows = json.loads(to_json(recs))
        assert set(rows[0]) == {"lambda", "tau1", "tau2", "phi", "value",
                                "status"}


class TestParseConfig:
    def test_comments_blanks_and_normalization(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a comment\n"
            "\n"
            "LAMBDA = 0.4\n"
            "allow_partial = yes\n"
            "tau=0.7\n")
        assert parse_config(str(cfg)) == {
            "lambda": "0.4", "allow-partial": "yes", "tau": "0.7"}

    def test_bad_line_names_file_and_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 0.4\njust words\n")
        with pytest.raises(UsageError, match=r"run\.cfg:2"):
            parse_config(str(cfg))

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read"):
            parse_config(str(tmp_path / "absent.cfg"))


class TestEvalCommand:
    @staticmethod
    def _rows(out):
        pairs = {}
        for line in out.strip().splitlines():
            key, _, value = line.partition(" ")
            pairs[key] = value.strip()
        return pairs

    def test_golden_point(self, capsys):
        rc = main(["eval", "--preset", "asym-ps-1", "--lambda", "0.5",
                   "--tau", "0.5", "--phi", "0.01"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = self._rows(out)
        assert rows["probability"] == "0.12244897959183677"
        assert rows["parity"] == "0.6049438719201862"
        assert rows["delta_phi"] == "0.7779809838628436"
        assert rows["qfi"] == "2.959183673469389"
        # exact value: the state is sum_n c_n |n, n-1> with |c_n|^2 ~ n x^n,
        # x = lam^2 tau = 1/8, so F_Q = 2<n^2> - 1 = 2(1+4x+x^2)/(1-x)^2 - 1
        assert abs(float(rows["qfi"]) - 145 / 49) <= 3 * math.ulp(145 / 49)
        assert rows["delta_phi_min"] == "0.5813183589761797"
        assert rows["merit"] == "-0.02781014674484339"
        assert rows["weighted_merit"] == "-0.003405324091205314"
        assert rows["operation"].startswith("asym-ps-1")

    def test_point_appends_wigner_row(self, capsys):
        rc = main(["eval", "--preset", "tmsv", "--lambda", "0.3",
                   "--point", "0,0,0,0"])
        out = capsys.readouterr().out
        assert rc == 0
        from ngtmsv.analytics import wigner
        from ngtmsv.model import tmsv_spec
        want = wigner(0.3, tmsv_spec(), (0.0, 0.0, 0.0, 0.0))
        assert self._rows(out)["wigner"] == repr(want)

    def test_import_footprint(self):
        # every eval quantity, the Wigner row included, runs on numpy alone:
        # scipy (used only by the oracle) and numpy.polynomial cost start-up
        # time that every ngtmsv eval would pay
        code = (
            "import sys\n"
            "import ngtmsv.cli as cli\n"
            "rc = cli.main(['eval', '--preset', 'sym-pc-2', '--lambda', '0.5',"
            " '--tau', '0.7', '--phi', '0.3', '--point', '0.1,0.2,-0.1,0.3'])\n"
            "print(rc, [m for m in ('scipy', 'numpy.polynomial') if m in sys.modules])\n")
        root = os.path.dirname(os.path.dirname(ngtmsv.__file__))
        path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=path))
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "0 []"

    def test_far_point_wigner_is_zero(self, capsys):
        # the Gaussian envelope underflows there; the row must not read nan
        rc = main(["eval", "--preset", "sym-pc-2", "--lambda", "0.5",
                   "--tau", "0.7", "--point", "1e200,0,0,0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert self._rows(out)["wigner"] == "0.0"

    def test_operation_required(self, capsys):
        rc = main(["eval", "--lambda", "0.5"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--preset" in err and "--photons" in err

    def test_eval_rejects_grids(self, capsys):
        rc = main(["eval", "--preset", "tmsv", "--lambda", "0.1:0.5:5"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "single value" in err

    def test_domain_error_message(self, capsys):
        rc = main(["eval", "--preset", "tmsv", "--lambda", "1.2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "lambda: must lie in [0, 1), got 1.2" in err

    def test_mixed_preset_rejected(self, capsys):
        rc = main(["eval", "--preset", "asym-pc-1-2", "--lambda", "0.5"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--photons" in err

    def test_photons_with_tau_pair(self, capsys):
        rc = main(["eval", "--photons", "1,2,1,2", "--lambda", "0.4",
                   "--tau", "0.6,0.8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "m=(1, 2) n=(1, 2) tau=(0.6, 0.8)" in out

    def test_tau_pair_needs_photons(self, capsys):
        rc = main(["eval", "--preset", "sym-ps-1", "--lambda", "0.4",
                   "--tau", "0.6,0.8"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--photons" in err


class TestSweepCommand:
    def test_csv_golden(self, capsys):
        rc = main(["sweep", "--quantity", "qcrb", "--preset", "sym-pa-1",
                   "--lambda", "0.1:0.5:3", "--tau", "0.9"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines() == [
            CSV_HEADER,
            "0.1,0.9,0.9,0.01,0.48435069213469156,ok",
            "0.30000000000000004,0.9,0.9,0.01,0.3879801753813326,ok",
            "0.5,0.9,0.9,0.01,0.27214795233106176,ok",
        ]

    def test_csv_golden_weighted_merit(self, capsys):
        rc = main(["sweep", "--quantity", "weighted_merit", "--preset",
                   "asym-pa-1", "--lambda", "0.5", "--tau", "0.1:0.9:3",
                   "--phi", "0.01"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines() == [
            CSV_HEADER,
            "0.5,1.0,0.1,0.01,-0.14278487631610765,ok",
            "0.5,1.0,0.5,0.01,-0.013621296364821256,ok",
            "0.5,1.0,0.9,0.01,0.014627068485700022,ok",
        ]

    def test_csv_golden_merit_two_photons(self, capsys):
        rc = main(["sweep", "--quantity", "merit", "--preset", "sym-pc-2",
                   "--lambda", "0.3:0.6:2", "--tau", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines() == [
            CSV_HEADER,
            "0.3,0.5,0.5,0.01,-0.8030191804843412,ok",
            "0.6,0.5,0.5,0.01,-0.20438950289524727,ok",
        ]

    def test_csv_golden_merit_stationary_reference(self, capsys):
        # at phi = 0 the parity fringe is flat, the reference included
        rc = main(["sweep", "--quantity", "merit", "--preset", "asym-ps-1",
                   "--lambda", "0.5", "--tau", "0.7", "--phi", "0.0",
                   "--allow-partial"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines() == [CSV_HEADER, "0.5,1.0,0.7,0.0,,stationary"]

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        argv = ["sweep", "--quantity", "probability", "--preset", "asym-pc-1",
                "--lambda", "0.3", "--tau", "0.2:0.8:3"]
        rc = main(argv)
        stdout_text = capsys.readouterr().out
        assert rc == 0
        path = tmp_path / "table.csv"
        rc = main(argv + ["--output", str(path)])
        assert rc == 0
        assert path.read_text() == stdout_text

    def test_json_format(self, capsys):
        rc = main(["sweep", "--quantity", "parity", "--preset", "tmsv",
                   "--lambda", "0.4", "--phi", "0.3", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = json.loads(out)
        assert len(rows) == 1
        want = (1 - 0.16) / math.sqrt(1 + 2 * 0.16 * math.cos(0.6) + 0.16 ** 2)
        assert rows[0]["value"] == pytest.approx(want, rel=1e-13)

    def test_quantity_required_and_validated(self, capsys):
        rc = main(["sweep", "--preset", "tmsv", "--lambda", "0.4"])
        assert rc == 2
        assert "quantity" in capsys.readouterr().err
        rc = main(["sweep", "--quantity", "entropy", "--preset", "tmsv"])
        assert rc == 2
        assert "entropy" in capsys.readouterr().err

    def test_bad_format(self, capsys):
        rc = main(["sweep", "--quantity", "qfi", "--preset", "tmsv",
                   "--format", "yaml"])
        assert rc == 2
        assert "format" in capsys.readouterr().err

    def test_partial_sweep_exit_code(self, capsys):
        argv = ["sweep", "--quantity", "qfi", "--preset", "tmsv",
                "--lambda", "0.0:0.5:3"]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert "1 of 3 grid points" in captured.err
        assert captured.out.startswith(CSV_HEADER)  # table still emitted
        rc = main(argv + ["--allow-partial"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""

    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "quantity = qcrb\n"
            "preset = sym-pa-1\n"
            "lambda = 0.1:0.5:3\n"
            "tau = 0.9\n")
        rc = main(["sweep", "--config", str(cfg)])
        from_config = capsys.readouterr().out
        assert rc == 0
        assert "0.48435069213469156" in from_config
        # a flag overrides the config value for the same key
        rc = main(["sweep", "--config", str(cfg), "--lambda", "0.5"])
        overridden = capsys.readouterr().out
        assert rc == 0
        assert overridden.splitlines()[1:] == [
            "0.5,0.9,0.9,0.01,0.27214795233106176,ok"]

    def test_config_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("quantum = yes\n")
        rc = main(["sweep", "--quantity", "qfi", "--preset", "tmsv",
                   "--config", str(cfg)])
        assert rc == 2
        assert "unknown key 'quantum'" in capsys.readouterr().err

    def test_config_allow_partial_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("allow_partial = true\n")
        rc = main(["sweep", "--quantity", "qfi", "--preset", "tmsv",
                   "--lambda", "0.0:0.5:3", "--config", str(cfg)])
        capsys.readouterr()
        assert rc == 0

    def test_threads_env_does_not_change_output(self, monkeypatch, capsys):
        # sweeps run serially; a leftover NGI_THREADS setting is ignored
        argv = ["sweep", "--quantity", "merit", "--preset", "asym-pa-1",
                "--lambda", "0.2:0.6:3", "--tau", "0.5:0.9:2"]
        monkeypatch.delenv("NGI_THREADS", raising=False)
        assert main(argv) == 0
        serial = capsys.readouterr()
        for value in ("4", "zero"):
            monkeypatch.setenv("NGI_THREADS", value)
            assert main(argv) == 0
            assert capsys.readouterr() == serial


class TestFigureCommand:
    def test_list_names_every_figure(self, capsys):
        rc = main(["figure", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(FIGURES)
        assert lines == sorted(lines)
        listed = {line.split()[0] for line in lines}
        assert listed == set(FIGURES)

    def test_unknown_figure(self, capsys):
        rc = main(["figure", "fig99"])
        assert rc == 2
        assert "fig99" in capsys.readouterr().err

    def test_names_required_without_list(self, capsys):
        rc = main(["figure"])
        assert rc == 2
        assert "--list" in capsys.readouterr().err

    def test_writes_one_file_per_curve(self, tmp_path, capsys, monkeypatch):
        tiny = {
            "solo": ("one curve", [
                ("tmsv", SweepRequest(quantity="qcrb",
                                      lam_axis=Axis((0.3, 0.5)),
                                      preset="tmsv"))]),
            "duo": ("two curves", [
                ("a", SweepRequest(quantity="probability",
                                   lam_axis=Axis((0.4,)),
                                   tau_axis=Axis((0.5,)),
                                   preset="asym-ps-1")),
                ("b", SweepRequest(quantity="probability",
                                   lam_axis=Axis((0.4,)),
                                   tau_axis=Axis((0.5,)),
                                   preset="asym-pa-1")),
            ]),
        }
        monkeypatch.setattr("ngtmsv.cli.FIGURES", tiny)
        rc = main(["figure", "solo", "duo", "--outdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        solo = tmp_path / "solo.csv"
        duo_a = tmp_path / "duo_a.csv"
        duo_b = tmp_path / "duo_b.csv"
        for path in (solo, duo_a, duo_b):
            assert path.exists()
            assert str(path) in out
            assert path.read_text().startswith(CSV_HEADER)
        # single-curve figures drop the label suffix
        assert not (tmp_path / "solo_tmsv.csv").exists()

    def test_json_output(self, tmp_path, capsys, monkeypatch):
        tiny = {"solo": ("one curve", [
            ("tmsv", SweepRequest(quantity="qcrb", lam_axis=Axis((0.5,)),
                                  preset="tmsv"))])}
        monkeypatch.setattr("ngtmsv.cli.FIGURES", tiny)
        rc = main(["figure", "solo", "--outdir", str(tmp_path),
                   "--format", "json"])
        capsys.readouterr()
        assert rc == 0
        rows = json.loads((tmp_path / "solo.json").read_text())
        assert rows[0]["status"] == "ok"

    def test_bundled_figure_requests_are_valid(self):
        # every bundled request constructs (validation runs in __post_init__)
        # and names a real quantity/preset combination
        for name, (desc, curves) in FIGURES.items():
            assert isinstance(desc, str) and desc
            for label, req in curves:
                assert isinstance(req, SweepRequest), (name, label)

    def test_figure_table_digest(self):
        # pins every bundled request, label and description, so the table
        # builders can be reshaped without changing a single figure
        digest = hashlib.sha256(repr(sorted(FIGURES.items())).encode()).hexdigest()
        assert digest == (
            "cd62b0092c73f5aa349b2e05aeb5193aed2e773ec1f38ec95f24f483f6b1836b")
