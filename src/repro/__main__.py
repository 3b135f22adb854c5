"""``python -m repro`` — one command per experiment.

    python -m repro                          list every experiment
    python -m repro <name> [--quick|--full] [--<param> V ...] [--out DIR]
    python -m repro all [--quick|--full] [--out DIR]
    python -m repro trace <name> ...         observed run (repro.obs.cli)
    python -m repro analyze <trace> ...      critical path (repro.obs.analyze_cli)
    python -m repro replay <target> ...      dashboard (repro.obs.replay_cli)

The experiments are listed in :mod:`repro.experiments.registry`.  Each
one's flags come from the signature of the function it runs: parameter
``input_gb`` is ``--input-gb``, a tuple takes a comma list
(``--seeds 2011,2012``), a ``False`` default is a switch and a ``True``
default a ``--no-<name>`` switch; integers accept sizes (``16GB``).
Explicit flags override the ``--quick``/``--full`` preset, which
overrides the function's defaults.  ``--out DIR`` writes the
experiment's CSV/JSON exports from the run just made.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
import time
import types
import typing
from pathlib import Path

from repro.util.units import parse_size

#: Subcommands that are not experiments: name -> module with ``main``.
TOOLS = {
    "trace": "repro.obs.cli",
    "analyze": "repro.obs.analyze_cli",
    "replay": "repro.obs.replay_cli",
}
#: The runner's own flags; a parameter of the same name gets no flag.
RUNNER_FLAGS = ("quick", "full", "out")


def _bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ValueError(text)


def _comma_list(convert):
    def comma_list(text: str) -> tuple:
        tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
        if not tokens:
            raise ValueError(text)
        return tuple(convert(tok) for tok in tokens)

    comma_list.__name__ = f"{convert.__name__} list"
    return comma_list


_SCALARS = {int: parse_size, float: float, str: str, bool: _bool}


def _converter(hint):
    """The flag-value parser for a parameter's type, or None (no flag)."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        hint = args[0] if len(args) == 1 else None
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis and args[0] in _SCALARS:
            return _comma_list(_SCALARS[args[0]])
        return None
    return _SCALARS.get(hint)


def _show(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def add_param_flags(parser: argparse.ArgumentParser, fn, skip=()) -> None:
    """One flag per parameter of ``fn`` that has a plain type.

    Flags are left out of the namespace unless given, so the caller can
    layer them over a preset.
    """
    hints = typing.get_type_hints(fn)
    for param in inspect.signature(fn).parameters.values():
        hint = hints.get(param.name)
        if param.name in skip or hint is None:
            continue
        flag = param.name.replace("_", "-")
        if hint is bool:
            negate = param.default is True
            parser.add_argument(
                f"--no-{flag}" if negate else f"--{flag}",
                dest=param.name,
                action="store_false" if negate else "store_true",
                default=argparse.SUPPRESS,
            )
        elif (convert := _converter(hint)) is not None:
            parser.add_argument(
                f"--{flag}",
                dest=param.name,
                type=convert,
                default=argparse.SUPPRESS,
                help=f"default {_show(param.default)}",
            )


def _registry():
    return importlib.import_module("repro.experiments.registry")


def _preset_parser(prog: str, description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    preset = parser.add_mutually_exclusive_group()
    preset.add_argument(
        "--quick", action="store_true", help="export-sized inputs"
    )
    preset.add_argument(
        "--full", action="store_true", help="the paper's input sizes"
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="write the CSV/JSON exports into DIR",
    )
    return parser


def _execute(entry, kwargs: dict, out) -> int:
    """Run one experiment, print its report, write its exports."""
    result = entry.function(entry.run)(**kwargs)
    print(entry.function(entry.report)(result))
    status = entry.function(entry.gate)(result) if entry.gate else 0
    if out is not None:
        for path in entry.write_exports(result, out):
            print(f"wrote {path}")
    return status


def run_experiment(entry, argv: list[str]) -> int:
    parser = _preset_parser(f"python -m repro {entry.name}", entry.load().__doc__)
    add_param_flags(parser, entry.function(entry.run), skip=RUNNER_FLAGS)
    args = vars(parser.parse_args(argv))
    preset = entry.preset(quick=args.pop("quick"), full=args.pop("full"))
    out = args.pop("out")
    return _execute(entry, {**preset, **args}, out)


def run_all(argv: list[str]) -> int:
    parser = _preset_parser(
        "python -m repro all", "Run every experiment back to back."
    )
    args = parser.parse_args(argv)
    t0 = time.time()
    status = 0
    for i, entry in enumerate(_registry().EXPERIMENTS):
        if i:
            print("\n\n" + "#" * 72 + "\n")
        preset = entry.preset(quick=args.quick, full=args.full)
        status = max(status, _execute(entry, preset, args.out))
    print(f"\n[all experiments completed in {time.time() - t0:.1f}s wall time]")
    return status


def alias(module: str) -> int:
    """``python -m repro.experiments.<module>``: the same as its entry."""
    return main([_registry().BY_MODULE[module].name, *sys.argv[1:]])


def _listing() -> int:
    from repro import __version__

    registry = _registry()
    print(
        f"repro {__version__} — Can MPI Benefit Hadoop and MapReduce "
        "Applications? (ICPP 2011)\n"
    )
    print(
        "experiments: python -m repro <name> [--quick|--full] "
        "[--out DIR]  (--help lists its flags)\n"
    )
    width = max(len(e.name) for e in registry.EXPERIMENTS)
    mwidth = max(len(e.path) for e in registry.EXPERIMENTS)
    for e in registry.EXPERIMENTS:
        print(f"  {e.name:<{width}}  {e.path:<{mwidth}}  {e.title}")
    print(f"  {'all':<{width}}  {'':<{mwidth}}  every experiment above, back to back")
    observed = ",".join(registry.OBSERVED)
    print(
        f"\ntracing:  python -m repro trace {{{observed}}} "
        "[--trace-out trace.json] [--stream] [--dashboard]"
    )
    print(
        "analysis: python -m repro analyze {trace.json,store.jsonl} "
        "[--tenants] [--validate] [--json report.json]"
    )
    print(
        f"replay:   python -m repro replay {{{observed},"
        "sweep,fleet <dir>,<store.jsonl>,<trace.json>} [--out dashboard.html]"
    )
    print("examples: see examples/*.py; tests: pytest tests/")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        return _listing()
    name, rest = argv[0], argv[1:]
    if name in TOOLS:
        return importlib.import_module(TOOLS[name]).main(rest)
    if name == "all":
        return run_all(rest)
    entry = _registry().BY_NAME.get(name)
    if entry is None:
        print(
            f"python -m repro: unknown experiment {name!r} "
            "(run `python -m repro` for the list)",
            file=sys.stderr,
        )
        return 2
    return run_experiment(entry, rest)


if __name__ == "__main__":
    raise SystemExit(main())
