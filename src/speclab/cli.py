"""Command-line front end.

Subcommands: run (experiments), sweep (grid over K/L/T), oracle-check
(exact-enumeration checks), gen-model (emit a model file), verify-demo
(single verbose verification trace).

Exit codes: 0 success, 1 usage error, 2 oracle-check failure, 3 IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness, oracle
from .models import InvalidRow, ParseError, generate_pair, save_model
from .probability import RandomSource, derive_seed
from .verifiers import draft_rows, score_rows


def _parse_gen(spec: str) -> dict:
    parts = spec.split(",")
    if len(parts) not in (4, 5):
        raise argparse.ArgumentTypeError("--gen expects V,ORDER,SEED,CONC[,LAMBDA]")
    out = {
        "vocab_size": int(parts[0]),
        "order": int(parts[1]),
        "model_seed": int(parts[2]),
        "concentration": float(parts[3]),
    }
    if len(parts) == 5:
        out["similarity"] = float(parts[4])
    return out


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
            if key == "timings":
                if value.lower() in ("1", "true", "yes", "on"):
                    tokens.append("--timings")
                continue
            tokens.extend([f"--{key}", value])
    return tokens


def _add_common(p: argparse.ArgumentParser, algo_default: str | None = "spectr-gbv", algos=harness.ALGORITHMS):
    if algo_default is not None:
        p.add_argument("--algo", default=algo_default, choices=algos)
    p.add_argument("--K", default="3")
    p.add_argument("--L", default="8")
    p.add_argument("--temperature", default="1.0")
    p.add_argument("--draft-model", dest="draft_model", default=None)
    p.add_argument("--target-model", dest="target_model", default=None)
    p.add_argument("--gen", default=None, help="V,ORDER,SEED,CONC[,LAMBDA]")
    p.add_argument("--prompts", type=int, default=4)
    p.add_argument("--max-tokens", dest="max_tokens", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--out", default=None)
    p.add_argument("--format", dest="fmt", default="csv", choices=("csv", "json"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="speclab")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run decoding experiments")
    run.add_argument("--config", default=None, help="flat key=value config file")
    run.add_argument("--timings", action="store_true", help="report measured wall_ms")
    _add_common(run)

    sweep = sub.add_parser("sweep", help="grid over K/L/temperature")
    sweep.add_argument("--timings", action="store_true")
    _add_common(sweep)

    oc = sub.add_parser("oracle-check", help="exact-enumeration checks on one instance")
    oc.add_argument("--iterations", type=int, default=1, choices=(1, 2))
    _add_common(oc, algo_default=None)

    gm = sub.add_parser("gen-model", help="emit a model file")
    gm.add_argument("--gen", required=True, help="V,ORDER,SEED,CONC[,LAMBDA]")
    gm.add_argument("--out", required=True)

    demo = sub.add_parser("verify-demo", help="single verbose verification trace")
    _add_common(demo, algos=[a for a in harness.ALGORITHMS if a != "ar"])
    return parser


def _config_from_args(args, algo=None) -> harness.RunConfig:
    gen = _parse_gen(args.gen) if args.gen else {}
    return harness.RunConfig(
        algo=algo or args.algo,
        K=int(args.K),
        L=int(args.L),
        temperature=float(args.temperature),
        draft_path=args.draft_model,
        target_path=args.target_model,
        prompts=args.prompts,
        max_tokens=args.max_tokens,
        seed=args.seed,
        trials=args.trials,
        **gen,
    )


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    out = args.out or "run.csv"
    harness.run_experiment([cfg], out, args.fmt, timings=args.timings)
    print(f"wrote {out}")
    return 0


def _cmd_sweep(args) -> int:
    ks = [int(x) for x in str(args.K).split(",")]
    ls = [int(x) for x in str(args.L).split(",")]
    ts = [float(x) for x in str(args.temperature).split(",")]
    base = _config_from_args(argparse.Namespace(**{**vars(args), "K": "1", "L": "1", "temperature": "1.0"}))
    configs = [replace(base, K=k, L=l, temperature=t) for k in ks for l in ls for t in ts]
    out = args.out or "sweep.csv"
    harness.run_experiment(configs, out, args.fmt, timings=args.timings)
    print(f"wrote {out} ({len(configs)} configs)")
    return 0


def _cmd_oracle_check(args) -> int:
    # the oracle enumerates the block verifier; spectr-gbv keeps the given K
    cfg = _config_from_args(args, algo="spectr-gbv")
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
    gen = _parse_gen(args.gen)
    spec = (gen["vocab_size"], gen["order"], gen["model_seed"], gen["concentration"])
    if "similarity" in gen:
        model = generate_pair(*spec, gen["similarity"]).target
    else:
        model = generate_pair(*spec).draft
    save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_verify_demo(args) -> int:
    cfg = _config_from_args(args)
    pair = cfg.build_pair()
    rng = RandomSource(derive_seed(args.seed, 0))
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
    flags = [n for n, tok in enumerate(argv) if tok == "--config" or tok.startswith("--config=")]
    if argv and argv[0] == "run" and flags:
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
        "sweep": _cmd_sweep,
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
