"""Command-line front end.

Subcommands: run (experiments over a grid of K, L and temperature, each
given as a comma list; one value is a grid of one cell), oracle-check
(exact-enumeration checks), gen-model (emit a model file), verify-demo
(single verbose verification trace). Each declares only the options it
reads, so argparse refuses any other, and resolves run's --config like the
rest. A config file's lines are flags put before the command line's: "#"
opens a comment at a line's start or after a space, and timings is one of
1/true/yes/on or 0/false/no/off.

Exit codes: 0 success, 1 usage error, 2 oracle-check failure, 3 IO error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
from dataclasses import fields

from . import harness, oracle
from .models import InvalidRow, ParseError, generate_pair, save_model
from .probability import RandomSource, derive_seed
from .verifiers import draft_rows


def _parse_gen(spec: str) -> dict:
    parts = spec.split(",")
    layout = (("vocab_size", int), ("order", int), ("model_seed", int), ("concentration", float), ("similarity", float))
    try:
        if len(parts) not in (4, 5):
            raise ValueError
        return {key: kind(x) for (key, kind), x in zip(layout, parts)}
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected V,ORDER,SEED,CONC[,LAMBDA], the first three integers, got {spec!r}")


def _load_config_tokens(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """Flat key=value config lines become CLI tokens; real flags override them."""
    tokens: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            # a comment starts at a "#" that opens the line or follows a space
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (s.strip() for s in line.split("=", 1))
            key = key.replace("_", "-")
            try:  # ``parser`` resolves the key as it would the flag, prefixes too
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                    known, unknown = parser.parse_known_args(["run", f"--{key}", value])
            except SystemExit as e:  # only --help exits 0, and no file may ask for it
                reason = "a config file cannot ask for help"
                if e.code:  # argparse printed its usage, then "PROG: error: REASON"
                    reason = err.getvalue().rstrip().rpartition(": error: ")[2]
                raise ValueError(f"{path}:{lineno}: {reason}")
            if known.config:
                raise ValueError(f"{path}:{lineno}: a config file cannot name another")
            if known.timings and unknown == [value]:  # the switch leaves its value unparsed
                on = value.lower() in ("1", "true", "yes", "on")
                if not on and value.lower() not in ("0", "false", "no", "off"):
                    raise ValueError(f"{path}:{lineno}: timings must be 1/true/yes/on or 0/false/no/off")
                tokens += ["--timings"] if on else []
                continue
            if unknown:  # left over by a key that names no run option
                raise ValueError(f"{path}:{lineno}: no run option --{key}")
            tokens.extend([f"--{key}", value])
    return tokens


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}")


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    # the model pair, which every subcommand but gen-model builds
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--draft-model", dest="draft_path", metavar="FILE")
    pair.add_argument("--target-model", dest="target_path", metavar="FILE")
    pair.add_argument("--gen", type=_parse_gen, default={}, help="V,ORDER,SEED,CONC[,LAMBDA]")
    # one cell, for the subcommands that verify a single instance; each
    # adds its own --L, since a shared action carries one default
    cell = argparse.ArgumentParser(add_help=False, parents=[pair])
    cell.add_argument("--K", type=int, default=3)
    cell.add_argument("--temperature", type=float, default=1.0)

    parser = argparse.ArgumentParser(prog="speclab")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[pair], help="decoding experiments over a K/L/temperature grid")
    run.add_argument("--config", action="append", help="flat key=value config file")
    run.add_argument("--timings", action="store_true", help="report measured wall_ms")
    run.add_argument("--algo", default="spectr-gbv", choices=harness.ALGORITHMS)
    run.add_argument("--K", type=_ints, default=[3], help="comma list")
    run.add_argument("--L", type=_ints, default=[8], help="comma list")
    run.add_argument("--temperature", type=_floats, default=[1.0], help="comma list")
    run.add_argument("--prompts", type=int, default=4)
    run.add_argument("--max-tokens", dest="max_tokens", type=int, default=64)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trials", type=int, default=3)
    run.add_argument("--out", default="run.csv")
    run.add_argument("--format", dest="fmt", default="csv", choices=("csv", "json"))

    oc = sub.add_parser("oracle-check", parents=[cell], help="exact-enumeration checks on one instance")
    # L = 3 keeps the default V = 8, K = 3 instance inside the enumeration guard
    oc.add_argument("--L", type=int, default=3)
    oc.add_argument("--iterations", type=int, default=1, choices=(1, 2))
    oc.add_argument("--out")

    gm = sub.add_parser("gen-model", help="emit a model file")
    gm.add_argument("--gen", type=_parse_gen, required=True, help="V,ORDER,SEED,CONC[,LAMBDA]")
    gm.add_argument("--out", required=True)

    demo = sub.add_parser("verify-demo", parents=[cell], help="single verbose verification trace")
    demo.add_argument("--algo", default="spectr-gbv", choices=[a for a in harness.ALGORITHMS if a != "ar"])
    demo.add_argument("--L", type=int, default=8)
    demo.add_argument("--seed", type=int, default=0)
    return parser


_CONFIG_FIELDS = {f.name for f in fields(harness.RunConfig)}


def _config(args, **cell) -> harness.RunConfig:
    """The run config of the parsed options, with ``cell`` over them."""
    given = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS}
    if args.gen and (args.draft_path or args.target_path):
        raise ValueError("--gen and model files each name the pair; give one")
    return harness.RunConfig(**{**given, **args.gen, **cell})


def _cmd_run(args) -> int:
    # a single-draft algorithm forces every K to 1: one cell per distinct config
    configs = list(dict.fromkeys(
        _config(args, K=k, L=l, temperature=t)
        for k in args.K for l in args.L for t in args.temperature
    ))
    harness.run_experiment(configs, args.out, args.fmt, timings=args.timings)
    print(f"wrote {args.out}")
    return 0


def _cmd_oracle_check(args) -> int:
    # the oracle enumerates the block verifier; spectr-gbv keeps the given K
    cfg = _config(args, algo="spectr-gbv")
    pair = cfg.build_pair()
    K, L = cfg.K, cfg.L
    report = oracle.exact_output_distribution(pair, L, K, iterations=args.iterations)
    results = [
        {"name": name, "value": value, "tolerance": tol, "passed": bool(value < tol)}
        for name, value, tol in report.checks()
    ]
    payload = {
        "instance": {
            "vocab_size": pair.vocab_size, "L": L, "K": K,
            "temperature": pair.temperature, "iterations": args.iterations,
        },
        "checks": results,
        "report": report.to_jsonable(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    ok = all(r["passed"] for r in results)
    return 0 if ok else 2


def _cmd_gen_model(args) -> int:
    # --gen's fields, in order, are generate_pair's leading parameters
    pair = generate_pair(*args.gen.values())
    save_model(pair.target if "similarity" in args.gen else pair.draft, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_verify_demo(args) -> int:
    cfg = _config(args)
    pair = cfg.build_pair()
    rng = RandomSource(derive_seed(cfg.seed, 0))
    prompt = harness.generate_prompt(pair.vocab_size, rng)
    p_chain = harness.RawChain(pair.draft, prompt)
    q_chain = harness.RawChain(pair.target, prompt)
    drafts = draft_rows(p_chain.conditional, cfg.K, cfg.L, rng)
    print(f"algo={cfg.algo}  K={cfg.K}  L={cfg.L}  V={pair.vocab_size}  prompt={list(prompt)}")
    for k, row in enumerate(drafts.tokens):
        print(f"  draft row {k}: {list(row)}")
    trace: list = []
    outcome, _ = harness.verify(cfg.algo, drafts, q_chain, rng, trace)
    for step in trace:
        print(f"  {step}")
    print(f"outcome: tau={outcome.tau} f={outcome.f} t={list(outcome.t)} y={outcome.y}")
    print(f"counters: {outcome.counters}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            if len(args.config) > 1:
                print("--config may be given once", file=sys.stderr)
                return 1
            # config file values act as defaults: parse them before the user's flags
            args = parser.parse_args([argv[0], *_load_config_tokens(args.config[0], parser), *argv[1:]])
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 1
    handlers = {
        "run": _cmd_run,
        "oracle-check": _cmd_oracle_check,
        "gen-model": _cmd_gen_model,
        "verify-demo": _cmd_verify_demo,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, InvalidRow) as e:
        print(f"model file error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3
    except oracle.TooLarge as e:
        print(f"instance too large: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"invalid arguments: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
