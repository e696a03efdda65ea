"""Command-line entry point.

Subcommands: gen-synth, train-embed, embed, train-zsl, eval, gradcheck, each
one row of COMMANDS: its handler and its options.

Every option can also come from a plain-text key=value config file
(`--config FILE`); explicit flags win on conflict. A key that names none of
the command's options (nor a manifest's `command` or `version`), a key
given twice, or a `config` key (config files do not nest) is a usage error.
Once a command with an --out succeeds, `main` writes a manifest of its fully
resolved configuration next to its outputs; feeding that manifest back
through --config reproduces the run bit-exactly. A config file with a
`command` line is a manifest, refused unless of this command and whole.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure. Every numeric option is bounded, and --help shows each bound. An
option takes its default's type, or str if it has none (a required option),
and a False default makes a flag; the options that set a config field take
the field's default, bound and help. Each option's bound is checked once,
as the options resolve, then each config's `rules` apply its cross-field
rules. A value that breaks either, from a flag, config file or manifest,
exits 1 before any file is read or written. A command reports on stdout and
in its files; stderr holds only a failure's error line.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .alignment import LossConfig
from .compat import (AttributeTable, LabeledEmbeddings, ZslConfig, load_model, save_model,
                     train_compatibility)
from .data import (
    FILES,
    SynthConfig,
    _read_lines,
    generate,
    load_annotations,
    load_dataset,
    read_features,
    save_dataset,
    write_features,
)
from .errors import DataError, NumericalError
from .heads import forward, init_head, load_head
from .linalg import SEED, at_least, make_rng, one_of, write_file
from .metrics import evaluate, format_kv, format_report
from .trainer import (
    STATE_FILE,
    TrainConfig,
    TrainState,
    load_train_state,
    train_joint,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


class Opt:
    def __init__(self, name, default, help="", bound=None):
        self.name = name  # dest / manifest key, underscores
        self.default = default  # None: a required option
        self.help = help
        self.bound = bound  # (text, test) or None
        self.typ = str if default is None else type(default)
        self.flag = default is False  # boolean store_true option

    @property
    def cli(self) -> str:
        return "--" + self.name.replace("_", "-")


def _options(config) -> list[Opt]:
    """An Opt for each field of `config` that an option sets, in field order."""
    return [Opt(f.metadata["cli"] or f.name, f.default, f.metadata["help"], f.metadata["bound"])
            for f in fields(config) if f.metadata["cli"] != ""]


COMMON = [Opt("seed", 0, "master seed for all randomness", SEED),
          Opt("config", None, "key=value config file; flags win on conflict")]

# Keys a manifest carries besides the command's options; a config ignores them.
MANIFEST_KEYS = ("command", "version")


def _read_config(path: str, known) -> dict[str, str]:
    """key=value lines; a key not in `known`, or given twice, is a usage error."""
    try:
        lines = _read_lines(path)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for n, ln in enumerate(lines, 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise DataError(f"{path}:{n}: expected key=value, got {ln!r}")
        key, _, val = ln.partition("=")
        key = key.strip()
        if key in values:
            raise UsageError(f"{path}:{n}: repeated config key {key!r}")
        if key not in known:
            raise UsageError(f"{path}:{n}: unknown config key {key!r}")
        values[key] = val.strip()
    return values


def _resolve(command: str, options: list[Opt], args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    opts = {o.name: o for o in options}
    resolved = {name: o.default for name, o in opts.items()}
    if args.config is not None:
        # Config files do not nest, so `config` is no key of one.
        keys = [name for name in opts if name != "config"]
        values = _read_config(args.config, [*keys, *MANIFEST_KEYS])
        # A manifest names its command and holds every option; a cut one
        # would otherwise run the missing options at their defaults.
        missing = [name for name in keys if name not in values]
        if values.get("command", command) != command:
            raise UsageError(f"{args.config}: manifest of {values['command']}, not {command}")
        if "command" in values and missing:
            raise UsageError(f"{args.config}: manifest lacks key(s) {', '.join(missing)}")
        for key, raw in values.items():
            if key in MANIFEST_KEYS:
                continue
            o = opts[key]
            conv = _parse_bool if o.typ is bool else o.typ
            try:
                resolved[key] = conv(raw)
            except ValueError as exc:
                raise UsageError(f"config key {key} ({o.cli}): {exc}") from exc
        resolved["config"] = args.config
    for name in opts:
        val = getattr(args, name, None)
        if val is not None and not (opts[name].flag and val is False):
            resolved[name] = val
    # Every option without a default, apart from --config, is required, and
    # an empty value (`--out ""`, `out=`) names no path, so it is missing too.
    missing = [o.cli for o in opts.values()
               if o.default is None and o.name != "config" and not resolved[o.name]]
    if missing:
        raise UsageError(f"{command}: missing required option(s): " + ", ".join(missing))
    for name, value in resolved.items():
        bound = opts[name].bound
        if bound is not None and not bound[1](value):
            raise UsageError(f"{opts[name].cli} must be {bound[0]}, got {value!r}")
    return resolved


def _config(config, cfg: dict):
    """A `config` from the resolved options named like its fields (--seed
    too), whose bounds _resolve has checked; a value that breaks one of its
    rules, named as its option, is a usage error."""
    made = config(**{f.name: cfg[f.metadata["cli"] or f.name] for f in fields(config)
                     if (f.metadata["cli"] or f.name) in cfg})
    try:
        made.rules(config.cli_name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return made


def _write_manifest(command: str, cfg: dict):
    out = cfg["out"]  # embed's is a file, every other command's a directory
    path = out + ".manifest.txt" if command == "embed" else os.path.join(out, "manifest.txt")
    lines = [f"command={command}", f"version={__version__}"]
    for key in sorted(cfg):
        if key == "config":
            continue
        val = cfg[key]
        if isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{key}={val}")
    write_file(path, "\n".join(lines) + "\n")


# --- command implementations -------------------------------------------------


def cmd_gen_synth(cfg: dict) -> int:
    save_dataset(generate(_config(SynthConfig, cfg)), cfg["out"])
    return 0


def _exact(value) -> str:
    """The shortest text that reads back as `value`, an integer without ".0",
    so two different values never print alike."""
    return repr(float(value)).removesuffix(".0")


def _data_file(cfg: dict, key: str) -> str:
    """The path of the --data directory's file `key` (a data.FILES key)."""
    return os.path.join(cfg["data"], FILES[key])


def _check_resume(state: TrainState, d_out: int, d_hidden: int, loss_cfg, train_cfg,
                  cfg: dict, visual: np.ndarray, sentences: np.ndarray, path: str) -> None:
    """UsageError naming the first option that differs from the saved run, or
    an --epochs below the epochs it has already trained; then a DataError
    naming a --data feature file whose width is not its head's input."""
    head = state.head_v
    widths = (("dim", head.d_out, d_out), ("hidden", head.d_hidden, d_hidden))
    changed = (next((w for w in widths if w[1] != w[2]), None)
               or state.changed_hyperparam(loss_cfg, train_cfg, len(visual)))
    if changed is not None:
        name, was, now = changed
        option = TrainConfig.cli_name(name)  # dim, hidden, rows, LossConfig's: --<name>
        raise UsageError(f"--resume: {path} was trained with {name}={_exact(was)}, not "
                         f"{_exact(now)}; set {option} as before or drop --resume")
    if train_cfg.epochs < state.next_epoch:
        raise UsageError(f"--resume: {path} has trained {state.next_epoch} epochs, more than "
                         f"--epochs {train_cfg.epochs}; set --epochs {state.next_epoch} or "
                         f"more, or drop --resume")
    for key, x, head in (("visual", visual, state.head_v), ("sentences", sentences, state.head_s)):
        if x.shape[1] != head.d_in:
            raise DataError(f"{_data_file(cfg, key)}: {x.shape[1]} columns but {path} "
                            f"expects {head.d_in}")


def cmd_train_embed(cfg: dict) -> int:
    loss_cfg = _config(LossConfig, cfg)
    train_cfg = _config(TrainConfig, cfg)
    ds = load_dataset(cfg["data"])
    # --rows all trains on the loaded arrays themselves, not on copies.
    visual, sentences, groups = ds.visual, ds.sentences, ds.groups
    files = [_data_file(cfg, "groups")]
    if cfg["rows"] == "train":
        idx = ds.rows("train")
        visual, sentences, groups = visual[idx], sentences[idx], groups[idx]
        files.append(_data_file(cfg, "assignments"))
    # train_joint refuses these rows too, but cannot name the files at fault.
    if not (groups != groups[:1]).any():
        raise DataError(f"{', '.join(files)}: {len(groups)} training rows hold fewer than "
                        f"two groups, so no triplet has a negative")
    d_out = cfg["dim"]
    d_hidden = cfg["hidden"] or d_out

    out = cfg["out"]
    path_state = os.path.join(out, STATE_FILE)
    if cfg["resume"]:
        state = load_train_state(path_state)
        _check_resume(state, d_out, d_hidden, loss_cfg, train_cfg, cfg, visual, sentences,
                      path_state)
    else:
        # Sub-seeds keep the two heads' initializations independent of each
        # other and of the shuffling stream.
        state = TrainState.fresh(
            init_head(visual.shape[1], d_hidden, d_out, make_rng(cfg["seed"] + 1)),
            init_head(sentences.shape[1], d_hidden, d_out, make_rng(cfg["seed"] + 2)),
            loss_cfg, train_cfg, len(visual),
        )

    tlog = train_joint(visual, sentences, groups, state, loss_cfg, train_cfg, checkpoint_dir=out)

    log_lines = list(tlog.lines())
    write_file(os.path.join(out, "train_log.txt"),
               "\n".join(log_lines) + ("\n" if log_lines else ""))
    for ln in log_lines:
        print(ln)
    return 0


def cmd_embed(cfg: dict) -> int:
    if not (cfg["checkpoint"] or cfg["raw_passthrough"]):
        raise UsageError("embed: missing required option(s): --checkpoint")
    features = read_features(cfg["features"])
    if not cfg["raw_passthrough"]:
        head = load_head(cfg["checkpoint"])
        if features.shape[1] != head.d_in:
            raise DataError(
                f"{cfg['features']}: {features.shape[1]} columns but checkpoint "
                f"{cfg['checkpoint']} expects {head.d_in}"
            )
        # An overflow is refused by forward's norm guard, which raises
        # NumericalError, so numpy's warnings are off.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                features, _ = forward(head, features, train=False)
        except NumericalError as exc:
            raise NumericalError(
                f"{cfg['features']} with checkpoint {cfg['checkpoint']}: {exc}") from exc
    write_features(features, cfg["out"])
    return 0


# What each assignment's rows are to the command that reads them.
_ROWS_FOR = {"train": "training data", "test_seen": "seen test split",
             "test_unseen": "unseen test split"}


def _load_embedded(cfg: dict, *assignments: str) -> tuple[AttributeTable, LabeledEmbeddings]:
    """The --data attribute table, and the --features rows with any of these
    assignments, labelled, in row order; the dataset's own features and group
    ids are not read. An assignment with no row is a data error."""
    ds = load_annotations(cfg["data"])
    embeddings = read_features(cfg["features"])
    if len(embeddings) != len(ds.labels):
        raise DataError(
            f"{cfg['features']}: {len(embeddings)} rows but dataset has {len(ds.labels)}"
        )
    for name in assignments:
        if name not in ds.assignments:
            raise DataError(f"{_data_file(cfg, 'assignments')}: no {name} row, so empty "
                            f"{_ROWS_FOR[name]}")
    idx = ds.rows(*assignments)
    return ds.attributes, LabeledEmbeddings(embeddings[idx], ds.labels[idx])


def cmd_train_zsl(cfg: dict) -> int:
    zsl_cfg = _config(ZslConfig, cfg)
    table, train = _load_embedded(cfg, "train")
    w = train_compatibility(train, table, zsl_cfg)
    save_model(w, os.path.join(cfg["out"], "model.jec"))
    return 0


def cmd_eval(cfg: dict) -> int:
    table, test = _load_embedded(cfg, "test_seen", "test_unseen")
    w = load_model(cfg["model"])
    for path, width, want in ((cfg["features"], test.embeddings.shape[1], w.shape[0]),
                              (_data_file(cfg, "attributes"), table.d_attr, w.shape[1])):
        if width != want:
            raise DataError(f"{path}: {width} columns but model {cfg['model']} expects {want}")
    report = evaluate(w, test, table)
    out = cfg["out"]
    text = format_report(report)
    write_file(os.path.join(out, "report.txt"), text)
    write_file(os.path.join(out, "report.kv"), format_kv(report))
    print(text, end="")
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    # Imported here: no other command needs it, and it costs start-up time.
    from .gradcheck import TOLERANCE, run_all

    results = run_all(trials=cfg["trials"], seed=cfg["seed"])
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name}: worst relative error {r.worst_rel_err:.3e} "
              f"over {r.trials} configurations [{status}]")
        failed = failed or not r.passed
    if failed:
        print(f"gradcheck FAILED (tolerance {TOLERANCE:g})")
        return 3
    print(f"gradcheck passed (tolerance {TOLERANCE:g})")
    return 0


# Each command's handler and options.
COMMANDS = {
    "gen-synth": (cmd_gen_synth, COMMON + _options(SynthConfig) + [
        Opt("out", None, "output dataset directory"),
    ]),
    "train-embed": (cmd_train_embed, COMMON + [
        Opt("data", None, "dataset directory from gen-synth"),
        Opt("out", None, "output directory for checkpoints and log"),
        Opt("dim", 16, "joint embedding dimensionality", at_least(1)),
        Opt("hidden", 0, "hidden width (0: same as --dim)", at_least(0)),
    ] + _options(LossConfig) + _options(TrainConfig) + [
        Opt("rows", "all", "which rows to train on", one_of("all", "train")),
        Opt("resume", False, "resume from trainer state in --out"),
    ]),
    "embed": (cmd_embed, COMMON + [
        Opt("checkpoint", "", "head checkpoint (.jeh), required unless --raw-passthrough"),
        Opt("features", None, "input feature file"),
        Opt("out", None, "output feature file"),
        Opt("raw_passthrough", False, "copy features unembedded (baseline arm)"),
    ]),
    "train-zsl": (cmd_train_zsl, COMMON + [
        Opt("data", None, "dataset directory (attributes, splits, labels)"),
        Opt("features", None, "embedding file aligned with the dataset rows"),
        Opt("out", None, "output directory for the model"),
    ] + _options(ZslConfig)),
    "eval": (cmd_eval, COMMON + [
        Opt("data", None, "dataset directory"),
        Opt("features", None, "embedding file aligned with the dataset rows"),
        Opt("model", None, "compatibility model file (.jec)"),
        Opt("out", None, "output directory for reports"),
    ]),
    "gradcheck": (cmd_gradcheck, COMMON + [
        Opt("trials", 20, "random configurations per component", at_least(1)),
    ]),
}


def build_parser(command: str | None) -> _Parser:
    """The parser of every command, with options added to `command`'s alone:
    no other command parses any in this run."""
    parser = _Parser(prog="jezsl", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_, opts) in COMMANDS.items():
        p = sub.add_parser(name, help=None)
        for o in opts if name == command else ():
            if o.flag:
                p.add_argument(o.cli, dest=o.name, action="store_true", default=False,
                               help=o.help)
            else:
                notes = [f"default {o.default}"] if o.default not in (None, "") else []
                notes += [o.bound[0]] if o.bound is not None else []
                p.add_argument(o.cli, dest=o.name, type=o.typ, default=None,
                               help=o.help + (f" ({'; '.join(notes)})" if notes else ""))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        handler, options = COMMANDS[args.command]
        cfg = _resolve(args.command, options, args)
        code = handler(cfg)
        if code == 0 and "out" in cfg:  # gradcheck writes no file, so no manifest
            _write_manifest(args.command, cfg)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
