"""Command-line front end.

Subcommands: run (experiments over a grid of K, L and temperature, each
given as a comma list; one value is a grid of one cell), oracle-check
(exact-enumeration checks), gen-model (emit a model file), verify-demo
(single verbose verification trace). Each declares only the options it
reads, so argparse refuses any other.

Exit codes: 0 success, 1 usage error, 2 oracle-check failure, 3 IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import harness, oracle
from .models import InvalidRow, ParseError, generate_pair, save_model
from .probability import RandomSource, derive_seed
from .verifiers import draft_rows, score_rows


def _parse_gen(spec: str) -> dict:
    parts = spec.split(",")
    if len(parts) not in (4, 5):
        raise argparse.ArgumentTypeError("expected V,ORDER,SEED,CONC[,LAMBDA]")
    out = {
        "vocab_size": int(parts[0]),
        "order": int(parts[1]),
        "model_seed": int(parts[2]),
        "concentration": float(parts[3]),
    }
    if len(parts) == 5:
        out["similarity"] = float(parts[4])
    return out


def _names_config(tok: str) -> bool:
    """Whether argparse reads ``tok`` as run's --config, alone or as FLAG=PATH:
    no other run option starts with --c, so every prefix from --c on is it."""
    return tok.partition("=")[0] in ("--c", "--co", "--con", "--conf", "--confi", "--config")


def _load_config_tokens(path: str) -> list[str]:
    """Flat key=value config lines become CLI tokens; real flags override them."""
    tokens: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (s.strip() for s in line.split("=", 1))
            key = key.replace("_", "-")
            if _names_config(f"--{key}"):
                raise ValueError(f"{path}:{lineno}: a config file cannot name another")
            if key == "timings":
                if value.lower() in ("1", "true", "yes", "on"):
                    tokens.append("--timings")
                continue
            tokens.extend([f"--{key}", value])
    return tokens


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


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
    run.add_argument("--config", default=None, help="flat key=value config file")
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
    p_chain = harness.RawChain(pair.draft, pair.temperature, prompt)
    q_chain = harness.RawChain(pair.target, pair.temperature, prompt)
    drafts = draft_rows(p_chain.conditional, cfg.K, cfg.L, rng)
    scores = score_rows(drafts, q_chain.conditionals)
    print(f"algo={cfg.algo}  K={cfg.K}  L={cfg.L}  V={pair.vocab_size}  prompt={list(prompt)}")
    for k, row in enumerate(drafts.tokens):
        print(f"  draft row {k}: {list(row)}")
    trace: list = []
    outcome, _ = harness.verify(cfg.algo, drafts, scores, rng, trace)
    for step in trace:
        print(f"  {step}")
    print(f"outcome: tau={outcome.tau} f={outcome.f} t={list(outcome.t)} y={outcome.y}")
    print(f"counters: {outcome.counters}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # config file values act as defaults: inject before user flags
    flags = [n for n, tok in enumerate(argv) if _names_config(tok)]
    if argv and argv[0] == "run" and flags:
        if len(flags) > 1:
            print("--config may be given once", file=sys.stderr)
            return 1
        _flag, eq, path = argv[flags[0]].partition("=")
        try:
            tokens = _load_config_tokens(path if eq else argv[flags[0] + 1])
        except IndexError:
            print("--config needs a path", file=sys.stderr)
            return 1
        except OSError as e:
            print(f"cannot read config: {e}", file=sys.stderr)
            return 3
        except ValueError as e:
            print(str(e), file=sys.stderr)
            return 1
        argv = [argv[0]] + tokens + argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
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
