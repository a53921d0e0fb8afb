"""Command-line surface for closed forms, tables, the oracle, and sweeps.

Usage:
    hurwitz closed-form --kind monotone --mu 3,3 --format json
    hurwitz eval --kind simple --mu 5 --genus 2
    hurwitz table --kind simple --mu 5 --genus-max 3 --format csv
    hurwitz oracle --kind monotone --mu 3 --genus 1
    hurwitz verify --kind simple --mu 3 --genus-max 1
    hurwitz checks --kind simple --d-max 6
    hurwitz asymptotics --kind monotone --mu 5,3

Exit codes: 0 success, 1 usage or guard error, 2 verification mismatch.
A request is checked in one order before any work: the command's integer
option, then --mu, then the command's own guard (genus for eval and table,
oracle for oracle and verify), then the engine guard; the first failure is
the one error line.
Only this module turns exact values into text: rationals always print
exactly as "p/q", and decimals appear only as a display-only column in
tables.
"""
from __future__ import annotations

import argparse
import sys
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Rounded
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from . import closedform
from .closedform import GenusClosedForm
from .partitions import Partition, branch_points, partitions_of

__all__ = ["main", "entry"]

# Every cap is a command-line guard that --force lifts; the library calls
# run unguarded.
# The engine cap is on |mu| alone: many parts cost little.  Requests on 11
# and 12 parts, and the sweeps that reach them (medians of 5 fresh
# processes, peak RSS; 2-vCPU x86 Xeon, Python 3.11.7):
#   request                               simple          monotone
#   closed-form (1^11), (1^12), (2,1^10)  0.07-0.10 s     0.10-0.15 s  16 MB
#   eval (1^12) at genus 223595, its cap  2.20 s  37 MB   0.38 s  20 MB
#   table (1^12) to genus 5301, its cap   1.72 s  70 MB   0.76 s  46 MB
#   checks --d-max 11 (193 partitions)    0.40 s  18 MB   1.60 s  18 MB
#   checks --d-max 12 (270 partitions)    0.59 s  18 MB   4.08 s  20 MB
ENGINE_MAX_DEGREE = 12
# eval and table print values of about b*log10(k) digits, both as exact
# Decimal rows (closedform.decimal_values), in time linear in the digits.
# The genus cap is on the exact sum of b^2 over the genera asked for, set to
# the largest round value at which every request of a fresh-process sweep
# ran in 5 s and 100 MB or less: each partition with 2 <= |mu| <= 12, both
# kinds, eval at its last admitted genus and table at its last admitted
# genus-max (1080 requests).  The slowest of each over all three formats
# (medians of 5, peak RSS; 2-vCPU x86 Xeon, Python 3.11.7):
#   eval  simple    (4,3,1^5) at genus 223598        2.40 s  36 MB
#   eval  monotone  (3,2,2,1^5) at genus 223597      0.55 s  20 MB
#   table simple    (7,1^5) to genus 5304, json      1.83 s  76 MB
#   table monotone  (2^4,1^4) to genus 5303, json    0.91 s  48 MB
# At 5*10^11 a json table on (5,3,1^4) to genus 7202 peaks at 127 MB.
GENUS_MAX_B_SQUARES = 2 * 10**11
# The oracle cap is on b alone: b = 2g - 2 + d + l >= d - 1, so b <= 12
# also means d <= 13.  Over every oracle request it admits (574: each
# partition and genus with b <= 12, both kinds, a fresh process each), the
# slowest are monotone at genus 0 and b = 12 (medians of 5, peak RSS;
# 2-vCPU x86 Xeon, Python 3.11.7): (13) 0.46 s 43 MB, (6,6) 0.39 s 39 MB,
# (7,5) 0.35 s 36 MB, (8,4) 0.31 s 33 MB.  verify on (6,6) to genus 0
# takes 0.42 s.  In the sweep no request at d <= 8 took over 0.13 s.
ORACLE_MAX_BRANCH_POINTS = 12

# The table's display-only decimal column: six significant digits, half-even.
SIX = Context(prec=6, Emax=MAX_EMAX)

# Characters per write.  The document goes out as it is rendered, so it is
# never held whole beside its rows; writing each line on its own instead
# made a long table slower to print.
BATCH = 1 << 16

_FORMATS = ("text", "json", "csv")
_KINDS = ("simple", "monotone")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_mu(text: str) -> Partition:
    try:
        pieces = [piece for piece in map(str.strip, text.split(",")) if piece]
        if not pieces or not all(p.isascii() and p.isdigit() for p in pieces):
            raise ValueError
        return Partition.canonical([int(piece) for piece in pieces])
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None


def _limit(what: str, label: str, value: int, limit: int, force: bool) -> None:
    """The cap rule: refuse value > limit unless forced."""
    if value > limit and not force:
        raise ValueError(f"{what}: {label} = {value} > {limit} (use --force)")


def _oracle_guard(mu: Partition, genus: int, force: bool) -> None:
    b = branch_points(mu, genus)
    _limit("oracle search space too large", "b", b, ORACLE_MAX_BRANCH_POINTS, force)


def _genus_guard(mu: Partition, first: int, last: int, force: bool) -> None:
    """Cap the sum of b^2 over genera first..last, in O(1): b is b0, b0 + 2, ..."""
    b0, n = branch_points(mu, first), last - first + 1
    total = n * b0 * b0 + 2 * b0 * n * (n - 1) + 2 * (n - 1) * n * (2 * n - 1) // 3
    _limit("genus guard", "sum of b^2 over the genera", total, GENUS_MAX_B_SQUARES, force)


def _builder(kind: str, size: int, force: bool) -> Callable[..., GenusClosedForm]:
    """The engine guard on |mu| = size, then the kind's unguarded builder.

    The builder is looked up on ``closedform`` at each request, so a wrapper
    set there (a tracer's, a test's) sees every build.
    """
    _limit("engine guard", "|mu|", size, ENGINE_MAX_DEGREE, force)
    return getattr(closedform, f"{kind}_closed_form")


def _ratio(num: int | Decimal, den: int) -> str:
    """The one text form of an exact value num/den in lowest terms: "p/q", or "p".

    num is an int, or an integer-valued exact Decimal from
    ``closedform.decimal_values``: eval and table print those rows, whose
    str is linear in the digits where str(int) is quadratic.
    """
    return str(num) if den == 1 else f"{num}/{den}"


def _rational(value: Fraction | None) -> str | None:
    """A Fraction as ``_ratio`` writes it; None stays None."""
    return None if value is None else _ratio(value.numerator, value.denominator)


class _Document(NamedTuple):
    """One command's result; the JSON payload is its only data model.

    CSV projects ``rows`` (dicts taken from the payload) onto ``columns``.
    Text is the ``head`` lines, ``line(row)`` for each row, then the
    ``foot`` lines, all built from the payload's strings; the row lines are
    built only when text output is asked for.
    """

    payload: dict
    columns: tuple[str, ...]
    rows: list[dict]
    head: Sequence[str]
    line: Callable[[dict], str]
    foot: Sequence[str] = ()
    code: int = 0


def _cell(value) -> str:
    """One CSV cell (also used for mu in text lines)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    if value is None:
        return ""
    return str(value)


def _csv_line(cells: Iterable[str]) -> str:
    """One CSV line as ``csv.writer(..., lineterminator="\\n")`` writes it.

    Cells are joined by commas; a cell holding a comma, a quote or a newline
    is quoted, its quotes doubled.  Only mu lists such as ``3,2`` need it.
    """
    return ",".join(
        '"' + c.replace('"', '""') + '"' if "," in c or '"' in c or "\n" in c else c
        for c in cells
    ) + "\n"


def _render(document: _Document, fmt: str) -> Iterator[str]:
    """The document's text in pieces, in order; a row's text is made when reached."""
    if fmt == "json":
        # Imported only by the request that prints JSON.  With indent set,
        # json.dumps runs this same encoder and joins its pieces.
        import json
        yield from json.JSONEncoder(indent=2).iterencode(document.payload)
        yield "\n"
    elif fmt == "csv":
        yield _csv_line(document.columns)
        for row in document.rows:
            yield _csv_line([_cell(row[c]) for c in document.columns])
    else:
        for lines in (document.head, map(document.line, document.rows), document.foot):
            for line in lines:
                yield line + "\n"


def _write(pieces: Iterable[str], out: TextIO) -> None:
    """Write the pieces to out in joined batches of about BATCH characters."""
    batch: list[str] = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= BATCH:
            out.write("".join(batch))
            batch.clear()
            size = 0
    if batch:
        out.write("".join(batch))


def _payload(args, **fields) -> dict:
    """A payload opening with kind, then mu where the command has it, then fields."""
    mu = {"mu": list(args.mu.parts)} if "mu" in args else {}
    return {"kind": args.kind, **mu, **fields}


def _head(payload: dict, *lines: str) -> list[str]:
    """The text head: the kind line, the mu line where the payload has mu, then lines."""
    keys = [key for key in ("kind", "mu") if key in payload]
    return [f"{key}: {_cell(payload[key])}" for key in keys] + list(lines)


def _term_line(term: dict) -> str:
    """One term of a closed form, marked where asymptotics calls it leading."""
    line = f"  k={term['k']} i={term['i']} coeff={term['coeff']}"
    return line + " [leading]" if term.get("leading") else line


def _tally(rows: list[dict], key: str, what: str) -> tuple[int, list[str], int]:
    """The rows whose key holds, the "N/M what" foot, and exit code 0, or 2 on a miss."""
    passed = sum(row[key] for row in rows)
    return passed, [f"{passed}/{len(rows)} {what}"], 0 if passed == len(rows) else 2


def _cmd_closed_form(args) -> _Document:
    form = _builder(args.kind, args.mu.size, args.force)(args.mu)
    terms = [{"k": k, "i": i, "coeff": _rational(c)} for k, i, c in form.terms]
    payload = _payload(
        args, b_offset=branch_points(args.mu, 0),
        normalization=_rational(form.normalization), terms=terms,
    )
    head = _head(
        payload, f"b = 2g + {payload['b_offset']}",
        f"normalization: {payload['normalization']}", "terms (coeff * b^(i-1) * k^b):",
    )
    return _Document(payload, ("k", "i", "coeff"), terms, head, _term_line)


def _cmd_eval(args) -> _Document:
    _genus_guard(args.mu, args.genus, args.genus, args.force)
    form = _builder(args.kind, args.mu.size, args.force)(args.mu)
    payload = _payload(
        args, genus=args.genus, b=branch_points(args.mu, args.genus),
        value=_ratio(*next(closedform.decimal_values(form, args.genus))),
    )
    return _Document(
        payload, ("kind", "mu", "genus", "value"), [payload], [], lambda p: p["value"]
    )


def _cmd_table(args) -> _Document:
    _genus_guard(args.mu, 0, args.genus_max, args.force)
    form = _builder(args.kind, args.mu.size, args.force)(args.mu)
    rows = []
    for g, (num, den) in zip(range(args.genus_max + 1), closedform.decimal_values(form)):
        rows.append(
            {
                "g": g,
                "b": branch_points(args.mu, g),
                "value": _ratio(num, den),
                "decimal": str(SIX.divide(num, den)),
            }
        )
    payload = _payload(args, rows=rows)
    return _Document(
        payload, ("g", "b", "value", "decimal"), rows,
        _head(payload, "g  b  value  decimal"),
        lambda r: f"{r['g']}  {r['b']}  {r['value']}  {r['decimal']}",
    )


def _cmd_oracle(args) -> _Document:
    from . import oracle

    _oracle_guard(args.mu, args.genus, args.force)
    count, value = oracle.oracle_count(args.mu, args.genus, args.kind)
    payload = _payload(
        args, genus=args.genus, b=branch_points(args.mu, args.genus), count=count,
        hurwitz=_rational(value),
    )
    return _Document(
        payload, ("kind", "mu", "genus", "b", "count", "hurwitz"), [payload], [],
        lambda p: f"mu={_cell(p['mu'])} kind={p['kind']} genus={p['genus']} b={p['b']} "
        f"count={p['count']} hurwitz={p['hurwitz']}",
    )


def _cmd_verify(args) -> _Document:
    from . import oracle

    # The last genus has the largest b: refuse before any engine or oracle work.
    _oracle_guard(args.mu, args.genus_max, args.force)
    form = _builder(args.kind, args.mu.size, args.force)(args.mu)
    rows = []
    for g in range(args.genus_max + 1):
        lhs = closedform.evaluate(form, g)
        rhs = oracle.oracle_hurwitz(args.mu, g, args.kind)
        rows.append(
            {
                "g": g,
                "closed_form": _rational(lhs),
                "oracle": _rational(rhs),
                "match": lhs == rhs,
            }
        )
    matches, foot, code = _tally(rows, "match", "genera match")
    payload = _payload(args, rows=rows, matches=matches, total=len(rows))
    return _Document(
        payload, ("g", "closed_form", "oracle", "match"), rows,
        [f"mu={_cell(payload['mu'])} kind={args.kind}"],
        lambda r: f"g={r['g']} closed-form={r['closed_form']} oracle={r['oracle']} "
        + ("match" if r["match"] else "MISMATCH"),
        foot, code,
    )


def _cmd_checks(args) -> _Document:
    # The sweep's largest |mu| is d_max: one guard, before any work, covers
    # every partition, and each is built by the unguarded builder.
    build = _builder(args.kind, args.d_max, args.force)
    rows = []
    for d in range(2, args.d_max + 1):
        for mu in partitions_of(d):
            report = closedform.structure_checks(build(mu))
            rows.append(
                {
                    "d": d,
                    "mu": list(mu.parts),
                    "top": _rational(report.top_coefficient),
                    "expected_top": _rational(report.expected_top),
                    "gap_all_zero": report.gap_all_zero,
                    "second": _rational(report.second_coefficient),
                    "expected_second": _rational(report.expected_second),
                    "pass": report.passed,
                }
            )
    _, foot, code = _tally(rows, "pass", "partitions conform")
    payload = _payload(args, d_max=args.d_max, rows=rows, all_pass=code == 0)
    return _Document(
        payload, ("d", "mu", "top", "gap_all_zero", "second", "pass"), rows,
        _head(payload),
        lambda r: f"d={r['d']} mu={_cell(r['mu'])} top={r['top']}"
        f" gap={'ok' if r['gap_all_zero'] else 'BAD'}"
        f" second={'-' if r['second'] is None else r['second']} "
        + ("pass" if r["pass"] else "FAIL"),
        foot, code,
    )


def _cmd_asymptotics(args) -> _Document:
    form = _builder(args.kind, args.mu.size, args.force)(args.mu)
    terms = [
        {"k": t.k, "i": t.i, "coeff": _rational(t.coeff), "leading": t.leading}
        for t in closedform.asymptotics(form)
    ]
    payload = _payload(args, b_offset=branch_points(args.mu, 0), terms=terms)
    return _Document(
        payload, ("k", "i", "coeff", "leading"), terms,
        _head(payload, "terms by dominance:"), _term_line,
    )


# name: (handler, help, its one integer option or None, that option's least value)
_COMMANDS = {
    "closed-form": (_cmd_closed_form, "emit a closed form", None, None),
    "eval": (_cmd_eval, "evaluate a closed form at one genus", "--genus", 0),
    "table": (_cmd_table, "tabulate values for g = 0..genus-max", "--genus-max", 0),
    "oracle": (_cmd_oracle, "brute-force count and Hurwitz value", "--genus", 0),
    "verify": (_cmd_verify, "closed form vs oracle, per genus", "--genus-max", 0),
    "checks": (_cmd_checks, "structure-theorem sweep over d <= d-max", "--d-max", 2),
    "asymptotics": (_cmd_asymptotics, "terms in dominance order", None, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hurwitz", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, option, least) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--kind", choices=_KINDS, required=True)
        if name != "checks":
            sub.add_argument("--mu", required=True, help="partition, e.g. 3,2,1")
        sub.add_argument("--format", choices=_FORMATS, default="text")
        sub.add_argument("--force", action="store_true", help="override guard limits")
        sub.add_argument("--output", default=None, help="write the document to a file")
        bound = None
        if option is not None:
            bound = (sub.add_argument(option, type=int, required=True), least)
        sub.set_defaults(handler=handler, bound=bound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Print every exact value in full.  eval and table print Decimal rows, so
    # only requests forced past the guards, such as a deep oracle query, can
    # still print an int past the default 4300-digit limit.
    digit_limit = None
    if hasattr(sys, "set_int_max_str_digits"):
        digit_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        if args.bound is not None:
            action, least = args.bound
            if getattr(args, action.dest) < least:
                raise ValueError(f"{action.option_strings[0]} must be >= {least}")
        if "mu" in args:
            args.mu = _parse_mu(args.mu)
        document = args.handler(args)
        pieces = _render(document, args.format)
        try:
            if args.output:
                with open(args.output, "w", encoding="utf-8") as handle:
                    _write(pieces, handle)
            else:
                _write(pieces, sys.stdout)
                sys.stdout.flush()
        except OSError as exc:
            target = args.output or "stdout"
            raise ValueError(f"cannot write {target}: {exc.strerror or exc}") from None
        return document.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Rounded:
        print(f"error: value has more than {MAX_PREC} digits", file=sys.stderr)
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
