"""``python -m repro <name>``: one registry, one parser for every experiment."""

import functools
import runpy
import sys

import pytest

from repro.__main__ import main
from repro.experiments.registry import BY_MODULE, BY_NAME, EXPERIMENTS
from repro.util.units import GiB


def _spy(monkeypatch, name: str) -> dict:
    """Swap an entry's run for a recorder with the same signature."""
    entry = BY_NAME[name]
    seen: dict = {}

    @functools.wraps(entry.function(entry.run))
    def spy(**kwargs):
        seen.update(kwargs)

    monkeypatch.setattr(entry.load(), entry.run, spy)
    monkeypatch.setattr(entry.load(), entry.report, lambda result: "")
    return seen


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 0
    return capsys.readouterr().out


class TestRegistry:
    def test_names_and_modules_are_unique(self):
        assert len(BY_NAME) == len(BY_MODULE) == len(EXPERIMENTS)

    def test_names_ci_and_tools_match_on(self):
        for name in ("fig6", "fig1", "fault", "tenants", "capacity",
                     "table1", "fig2", "fig3"):
            assert name in BY_NAME
        assert BY_NAME["fault"].module == "fault_tolerance"
        assert BY_NAME["tenants"].module == "multi_tenant"

    def test_every_entry_resolves(self):
        for entry in EXPERIMENTS:
            for attr in (entry.run, entry.report, entry.observed, entry.gate):
                if attr is not None:
                    assert callable(entry.function(attr)), (entry.name, attr)

    def test_listing_shows_every_entry_with_its_module(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for entry in EXPERIMENTS:
            line = next(ln for ln in out.splitlines() if ln.split()[:1] == [entry.name])
            assert entry.path in line and entry.title in line


class TestHelp:
    @pytest.mark.parametrize("name", sorted(BY_NAME))
    def test_runner_help(self, name, capsys):
        out = _help([name, "--help"], capsys)
        assert f"python -m repro {name}" in out
        assert "--quick" in out and "--out" in out

    @pytest.mark.filterwarnings("ignore:.*found in sys.modules:RuntimeWarning")
    @pytest.mark.parametrize("module", sorted(BY_MODULE))
    def test_module_alias_help(self, module, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", [module, "--help"])
        with pytest.raises(SystemExit) as err:
            runpy.run_module(module, run_name="__main__")
        assert err.value.code == 0
        assert f"python -m repro {BY_MODULE[module].name}" in capsys.readouterr().out

    def test_flags_follow_the_signature(self, capsys):
        out = _help(["fault", "--help"], capsys)
        for flag in ("--input-gb", "--seeds", "--rates-per-hour",
                     "--checkpoint-interval", "--keep-task-records"):
            assert flag in out
        assert "--gb " not in out and "--checkpoint " not in out
        assert "--no-jitter" in _help(["fig3", "--help"], capsys)
        # Dict-valued defaults get no flag.
        assert "--configs" not in _help(["table1", "--help"], capsys)
        assert "--grid" not in _help(["ablation_scheduling", "--help"], capsys)


class TestParsing:
    def test_explicit_flags_override_the_quick_preset(self, capsys):
        rc = main(["tenants", "--quick", "--loads", "0.5", "--policies", "fifo",
                   "--horizon", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "offered load 0.5x" in out
        assert "offered load 1x" not in out and "offered load 2x" not in out
        assert " fifo |" in out and " fair |" not in out
        # The preset still supplies what the flags leave out: both chaos
        # settings, one seed.
        assert "offered load 0.5x + chaos" in out

    def test_preset_overrides_defaults(self, monkeypatch):
        seen = _spy(monkeypatch, "durability")
        assert main(["durability", "--quick", "--input-gb", "0.5"]) == 0
        assert seen == {**BY_NAME["durability"].quick, "input_gb": 0.5}

    def test_values_convert_by_type(self, monkeypatch):
        seen = _spy(monkeypatch, "fig1")
        assert main(["fig1", "--input-bytes", "4GB", "--seed", "7"]) == 0
        assert seen == {"input_bytes": 4 * GiB, "seed": 7}
        seen = _spy(monkeypatch, "tenants")
        assert main(["tenants", "--seeds", "1,2", "--chaos", "false"]) == 0
        assert seen == {"seeds": (1, 2), "chaos": (False,)}
        seen = _spy(monkeypatch, "fault")
        assert main(["fault", "--checkpoint-interval", "30"]) == 0
        assert seen == {"checkpoint_interval": 30.0}

    @pytest.mark.parametrize(
        "argv",
        [
            ["fault", "--seeds", ""],
            ["durability", "--rates-per-hour", "abc"],
            ["fig2", "--trials", "many"],
            ["fig6", "--quick", "--full"],
        ],
    )
    def test_bad_values_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestCapacityGate:
    def test_exit_status_follows_the_gate(self, capsys):
        module = BY_NAME["capacity"].load()
        passing = {"gated_within_target": 2, "gated_total": 2}
        assert module.exit_status(passing) == 0
        failing = {"gated_within_target": 1, "gated_total": 2}
        assert module.exit_status(failing) == 1
        assert "FAIL" in capsys.readouterr().out
