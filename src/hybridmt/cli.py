"""Command-line interface.

Every subcommand reads from ``--input`` (default stdin) and writes to
``--output`` (default stdout).  Exit codes: 0 on success, 1 on resource
errors, 2 on bad usage.
"""

import argparse
import sys

from . import chunker, lattice_lm, parser, posteditor, semantics
from .pipeline import Pipeline, ResourceError, format_trace, load_config, parse_trace, run_trace_report


def _build_argparser():
    top = argparse.ArgumentParser(prog="hybridmt", description=__doc__)
    top.add_argument("--config", help="key = value configuration file")
    sub = top.add_subparsers(dest="command", required=True)
    for name in (
        "chunk",
        "parse",
        "gloss",
        "analyze",
        "rank",
        "realize",
        "extract",
        "postedit",
        "translate",
        "train-lm",
        "train-postedit",
        "report",
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("--input", help="input file (default: stdin)")
        cmd.add_argument("--output", help="output file (default: stdout)")
        if name == "translate":
            cmd.add_argument("--trace", help="write a per-stage trace TSV here")
    return top


def _read_input(args):
    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            return fh.read()
    return sys.stdin.read()


def _write_output(args, text):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _lines(text):
    return [l for l in text.splitlines() if l.strip()]


def _pipeline(args):
    if not args.config:
        raise ResourceError("this command requires --config")
    return Pipeline(load_config(args.config))


def _cmd_chunk(pipe, args):
    out = []
    for line in _lines(_read_input(args)):
        out.append(chunker.render_token_line(pipe.chunk(line)))
    return "\n".join(out) + "\n"


def _cmd_parse(pipe, args):
    blocks = []
    for line in _lines(_read_input(args)):
        forest = pipe.parse(pipe.chunk(line))
        blocks.append("# %s\n%s" % (line, parser.dump_forest(forest)))
    return "".join(blocks)


def _cmd_gloss(pipe, args):
    blocks = []
    for line in _lines(_read_input(args)):
        lattice = pipe.gloss(pipe.parse(pipe.chunk(line)))
        blocks.append("# %s\n%s" % (line, lattice_lm.dump_lattice(lattice)))
    return "".join(blocks)


def _format_candidates(candidates):
    out = ["%.6g\t%s" % (c.score, semantics.serialize_spl(c.graph)) for c in candidates]
    return "\n".join(out) + ("\n" if out else "")


def _cmd_analyze(pipe, args):
    ranked = []
    for line in _lines(_read_input(args)):
        ranked.extend(pipe.rank(pipe.analyze(pipe.parse(pipe.chunk(line)))))
    return _format_candidates(ranked)


def _cmd_rank(pipe, args):
    candidates = [
        semantics.SemCandidate(semantics.parse_spl(line))
        for line in _lines(_read_input(args))
    ]
    return _format_candidates(pipe.rank(candidates))


def _cmd_realize(pipe, args):
    blocks = []
    for line in _lines(_read_input(args)):
        lattice = pipe.realize(semantics.parse_spl(line))
        blocks.append("# %s\n%s" % (line, lattice_lm.dump_lattice(lattice)))
    return "".join(blocks)


def _cmd_extract(pipe, args):
    instances = posteditor.extract_instances(
        _lines(_read_input(args)), pipe.nouns, pipe.countability
    )
    out = []
    for inst in instances:
        feats = ";".join("%s=%s" % (k, inst.features[k]) for k in sorted(inst.features))
        out.append("%s\t%s" % (inst.label, feats))
    return "\n".join(out) + ("\n" if out else "")


def _cmd_postedit(pipe, args):
    text = pipe.postedit(_read_input(args))
    return text if text.endswith("\n") or not text else text + "\n"


def _cmd_translate(pipe, args):
    traces = pipe.translate_batch(_read_input(args).splitlines())
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(format_trace(traces))
    out = []
    for t in traces:
        if t.error is not None:
            out.append("# error: %s" % t.error)
        else:
            out.append(t.output)
    return "\n".join(out) + ("\n" if out else "")


def _cmd_train_lm(pipe, args):
    return pipe.train_lm().dump()


def _cmd_train_postedit(pipe, args):
    return posteditor.dump_tree(pipe.train_postedit())


def _cmd_report(pipe, args):
    traces = parse_trace(_read_input(args))
    return run_trace_report(traces)


_COMMANDS = {
    "chunk": _cmd_chunk,
    "parse": _cmd_parse,
    "gloss": _cmd_gloss,
    "analyze": _cmd_analyze,
    "rank": _cmd_rank,
    "realize": _cmd_realize,
    "extract": _cmd_extract,
    "postedit": _cmd_postedit,
    "translate": _cmd_translate,
    "train-lm": _cmd_train_lm,
    "train-postedit": _cmd_train_postedit,
    "report": _cmd_report,
}

_NO_PIPELINE = {"report"}


def main(argv=None):
    args = _build_argparser().parse_args(argv)
    try:
        pipe = None if args.command in _NO_PIPELINE else _pipeline(args)
        text = _COMMANDS[args.command](pipe, args)
        _write_output(args, text)
    except (ResourceError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
