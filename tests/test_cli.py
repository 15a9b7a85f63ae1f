import json
from pathlib import Path

import pytest

from plugplay import cli, sim

from test_sim import scalar_static_scenario


@pytest.fixture()
def tiny_scenario_file(tmp_path):
    scen, *_ = scalar_static_scenario(gamma=5.0, t_end=2.0)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sim.scenario_to_json(scen)))
    return path


class TestRun:
    def test_missing_file_exit_2(self, capsys, tmp_path):
        code = cli.main(["run", str(tmp_path / "absent.json"), "-o", str(tmp_path / "out")])
        assert code == 2
        assert "scenario not found" in capsys.readouterr().err

    def test_run_writes_outputs(self, capsys, tiny_scenario_file, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["run", str(tiny_scenario_file), "-o", str(out)])
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "events.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["t_end"] == 2.0

    def test_t_end_override_truncates(self, tiny_scenario_file, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["run", str(tiny_scenario_file), "-o", str(out), "--T-end", "1"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["t_end"] == 1.0

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"plant": {"A": [[0]], "channels": []}}))
        code = cli.main(["run", str(bad), "-o", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["params"].update(beta=-1),
            lambda d: d["events"][0].update(kind="teleport"),
        ],
        ids=["negative_beta", "unknown_event_kind"],
    )
    def test_out_of_range_value_exit_2(self, tmp_path, capsys, edit):
        packaged = Path(__file__).resolve().parents[1] / "scenarios" / "load_transport.json"
        d = json.loads(packaged.read_text())
        edit(d)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d))
        code = cli.main(["run", str(path), "-o", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_demo_rejects_truncation_before_events(self, tmp_path, capsys):
        # the embedded schedule has events at t=15 and t=30
        code = cli.main(["demo", "-o", str(tmp_path / "out"), "--T-end", "1"])
        assert code == 2


class TestVerify:
    def test_bass_suite_passes(self, capsys):
        code = cli.main(["verify", "bass", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gain_synthesis_abscissa" in out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_deterministic_report(self, capsys):
        cli.main(["verify", "bass", "--seed", "7"])
        first = capsys.readouterr().out
        cli.main(["verify", "bass", "--seed", "7"])
        second = capsys.readouterr().out
        strip = lambda s: "\n".join(l for l in s.splitlines() if "checks in" not in l)
        assert strip(first) == strip(second)

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_json_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["verify", "bass", "--seed", "3", "--json", str(out)])
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["passed"] is True
        assert {c["name"] for c in blob["checks"]} == {
            "gain_synthesis_abscissa",
            "decay_envelope",
        }

    def test_json_report_counts_resamples(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["verify", "bass", "--seed", "3", "--json", str(out)]) == 0
        text = capsys.readouterr().out
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        from plugplay import suites

        want = {r.name: r.resampled for r in suites.suite_bass(seed=3)}
        assert {name: c["resampled"] for name, c in checks.items()} == want
        assert want["gain_synthesis_abscissa"] > 0
        # the text report does not show them
        assert "resampl" not in text
