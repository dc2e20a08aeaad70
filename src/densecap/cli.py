"""Command-line interface: capacity, measures, verify, sweep, and lemma.

State arguments accept either a JSON file path or the inline form
"family:params", e.g. werner:0.75, lambda_a:0.3, pure_schmidt:0.8,0.6,
bell_diagonal:0.7,0.1,0.1,0.1.  All output is JSON except sweep, which
writes CSV.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from .densecoding import (
    capacity,
    gdc_ensemble,
    optimize_cgdc,
    optimize_gdc_probs,
    sdc_letters,
)
from .entanglement import concurrence, entanglement_of_formation, er_closed_form, is_ppt
from .separable import er_numeric
from .states import FAMILIES, state_from_json_dict
from .errors import DensecapError, InvalidState
from .verify import (
    SWEEPABLE,
    check_bounds,
    lemma_campaign,
    run_campaign,
    sweep_family,
    write_sweep_csv,
)


def parse_state_arg(text):
    """Resolve a --state argument to (rho, family, params)."""
    path = Path(text)
    if path.is_file():
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidState(f"state file {text}: {exc}") from exc
        return state_from_json_dict(doc)
    if ":" not in text:
        raise InvalidState(
            f"cannot interpret state {text!r}: no such file, and not of the "
            f"family:params form (families: {', '.join(FAMILIES)})"
        )
    family, _, raw = text.partition(":")
    return state_from_json_dict({"family": family, "params": [x for x in raw.split(",") if x]})


def _clean_floats(obj):
    """Replace inf floats so the emitted JSON stays standard."""
    if isinstance(obj, dict):
        return {k: _clean_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_clean_floats(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _emit(payload):
    print(json.dumps(_clean_floats(payload), indent=2, sort_keys=True))


def cmd_capacity(args):
    rho, _, _ = parse_state_arg(args.state)
    if args.mode == "sdc":
        value = capacity(sdc_letters(rho))
        probs = [0.25, 0.25, 0.25, 0.25]
    elif args.mode == "gdc":
        if args.probs:
            ensemble = gdc_ensemble(rho, args.probs.split(","))
            probs = [float(p) for p in ensemble.probs]
            value = capacity(ensemble)
        else:
            result = optimize_gdc_probs(rho)
            probs = [float(p) for p in result["probs"]]
            value = result["capacity"]
    else:  # cgdc-opt
        result = optimize_cgdc(rho)
        probs = [float(p) for p in result["encoding"].probs]
        value = result["capacity"]
    _emit({"capacity_bits": value, "mode": args.mode, "probs": probs})
    return 0


def cmd_measures(args):
    rho, family, params = parse_state_arg(args.state)
    estimate = er_numeric(rho)
    payload = {
        "e_f": entanglement_of_formation(rho),
        "e_r_numeric": estimate.value,
        "e_r_numeric_lower": estimate.lower,
        "e_r_numeric_converged": estimate.converged,
        "concurrence": concurrence(rho),
        "ppt": is_ppt(rho),
    }
    if family is not None:
        payload["e_r_closed"] = er_closed_form(family, params)
    _emit(payload)
    return 0


def cmd_verify(args):
    if args.state:
        rho, family, params = parse_state_arg(args.state)
        report = check_bounds(rho, family=family, params=params)
        _emit(report.to_dict())
        return 0 if report.passed else 1
    if args.random is None:
        raise DensecapError("verify needs --state or --random N")
    ranks = (args.rank,) if args.rank else (1, 2, 3, 4)
    summary, reports = run_campaign(args.random, seed=args.seed, ranks=ranks)
    payload = {
        "summary": summary,
        "reports": [r.to_dict() for r in reports],
    }
    _emit(payload)
    return 0 if summary["all_passed"] else 1


def cmd_sweep(args):
    rows = sweep_family(args.family, args.start, args.stop, args.step)
    write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_lemma(args):
    result = lemma_campaign(args.random, seed=args.seed)
    _emit(result)
    return 0 if result["all_passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="densecap",
        description="dense-coding capacities, entanglement measures, and bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="capacity of a dense-coding ensemble")
    p.add_argument("--state", required=True)
    p.add_argument("--probs", help="comma-separated priors p0,p1,p2,p3 (gdc mode)")
    p.add_argument("--mode", choices=("sdc", "gdc", "cgdc-opt"), default="sdc")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("measures", help="entanglement measures of a state")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("verify", help="bounds report for a state or a random campaign")
    p.add_argument("--state")
    p.add_argument("--random", type=int, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rank", type=int, choices=(1, 2, 3, 4))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="closed-form capacity/E_R sweep to CSV")
    p.add_argument("--family", choices=SWEEPABLE, required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lemma", help="product-form check of the SDC average")
    p.add_argument("--random", type=int, required=True, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lemma)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DensecapError, OSError) as exc:  # OSError: a state or output file
        raise SystemExit(f"error: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
