"""Command-line interface.

Every subcommand reads from ``--input`` (default stdin) and writes to
``--output`` (default stdout).  A stage command that fails on one input
line prints ``# error: <message>`` in that line's place and goes on.
``translate`` does so even for a resource a sentence needs and the
config lacks.  Exit codes: 0 on success, 1 on other resource errors,
2 on bad usage.
"""

import argparse
import sys

from . import chunker, lattice_lm, parser, posteditor, semantics
from .pipeline import Pipeline, ResourceError, format_trace, load_config, parse_trace, run_trace_report


def _build_argparser():
    top = argparse.ArgumentParser(prog="hybridmt", description=__doc__)
    top.add_argument("--config", help="key = value configuration file")
    sub = top.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--input", help="input file (default: stdin)")
        cmd.add_argument("--output", help="output file (default: stdout)")
        if name == "translate":
            cmd.add_argument("--trace", help="write a per-stage trace TSV here")
        if name == "decode":
            cmd.add_argument(
                "--n", type=_positive_int,
                help="print each block's header and its N best paths with scores",
            )
    return top


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


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


_ERROR_PREFIX = "# error: "


def _or_error(stage, arg):
    """``stage(arg)``, or an error line in its place when the stage
    fails on this input alone; a ResourceError stops the command."""
    try:
        return stage(arg)
    except ResourceError:
        raise
    except ValueError as err:
        return "%s%s\n" % (_ERROR_PREFIX, err)


def _cmd_chunk(pipe, args):
    def body(line):
        return chunker.render_token_line(pipe.chunk(line)) + "\n"

    return "".join(_or_error(body, line) for line in _lines(_read_input(args)))


def _blocks(args, body):
    """``# <input line>`` then ``body(line)`` for each input line."""
    return "".join(
        "# %s\n%s" % (line, _or_error(body, line)) for line in _lines(_read_input(args))
    )


def _cmd_parse(pipe, args):
    return _blocks(args, lambda line: parser.dump_forest(pipe.parse(pipe.chunk(line))))


def _cmd_gloss(pipe, args):
    return _blocks(
        args, lambda line: lattice_lm.dump_lattice(pipe.gloss(pipe.parse(pipe.chunk(line))))
    )


def _format_candidates(candidates):
    out = ["%.6g\t%s" % (c.score, semantics.serialize_spl(c.graph)) for c in candidates]
    return "\n".join(out) + ("\n" if out else "")


def _cmd_analyze(pipe, args):
    return _blocks(
        args, lambda line: _format_candidates(pipe.rank(pipe.analyze(pipe.parse(pipe.chunk(line)))))
    )


def _cmd_rank(pipe, args):
    """Each ``#`` line is echoed and starts a new candidate set; a
    candidate line is an SPL graph, optionally after ``score TAB``.  A
    set prints an error line per candidate line that does not parse,
    then its other candidates ranked."""
    sets = [("", [], [])]  # (header, error lines, candidates)

    def read(line):
        sets[-1][2].append(semantics.SemCandidate(semantics.parse_spl(line.split("\t")[-1])))
        return ""

    for line in _lines(_read_input(args)):
        if line.startswith("#"):
            sets.append((line + "\n", [], []))
        else:
            sets[-1][1].append(_or_error(read, line))
    return "".join(
        header + "".join(errors) + _format_candidates(pipe.rank(candidates))
        for header, errors, candidates in sets
    )


def _cmd_realize(pipe, args):
    return _blocks(
        args, lambda line: lattice_lm.dump_lattice(pipe.realize(semantics.parse_spl(line)))
    )


def _lattice_blocks(text):
    """(header, body lines) per block of ``gloss`` or ``realize``
    output; a ``#`` line that is not an error line starts a block."""
    blocks = []
    for line in _lines(text):
        if line.startswith("#") and not line.startswith(_ERROR_PREFIX):
            blocks.append((line, []))
        elif blocks:
            blocks[-1][1].append(line)
        else:
            blocks.append((None, [line]))
    return blocks


def _cmd_decode(pipe, args):
    """Best path per lattice block, or with ``--n`` the header and the
    n best ``score TAB words`` lines; a block that ``realize`` marked as
    an error, or that does not decode, gives an error line."""

    def body(lines):
        lattice = lattice_lm.parse_lattice("\n".join(lines))
        if args.n is None:
            words, _score = pipe.decode(lattice)
            return " ".join(words) + "\n"
        ranked = pipe.decode(lattice, args.n)
        return "".join("%.6f\t%s\n" % (score, " ".join(words)) for words, score in ranked)

    out = []
    for header, lines in _lattice_blocks(_read_input(args)):
        if args.n is not None and header is not None:
            out.append(header + "\n")
        errors = [line for line in lines if line.startswith(_ERROR_PREFIX)]
        out.append(errors[0] + "\n" if errors else _or_error(body, lines))
    return "".join(out)


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
    return "".join(
        (t.output if t.error is None else _ERROR_PREFIX + t.error) + "\n" for t in traces
    )


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
    "decode": _cmd_decode,
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
    except (ValueError, OSError) as err:
        # ResourceError is a ValueError
        print("error: %s" % err, file=sys.stderr)
        return 1
    return 0
