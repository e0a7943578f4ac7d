"""Fuzzing of the command line over its flags and the expression grammar.

Every generated command line is well-formed for the parser, each command
given only the flags it takes, so each run reaches a subcommand.  Whatever
the values, a run must end in a documented exit code; a failure (1 or 3)
must print one message line on stderr, after at most some ``warning:``
lines, and never a traceback; and a second run must print the same bytes.
"""
import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from thermogeom import cli

# values either side of every check: signs, zero, the covolume and pole of
# the golden gases, underflow and overflow, and non-finite ones
EDGES = st.sampled_from([0.0, -1.0, 0.1, 0.2, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0,
                         1e-300, 1e-150, 1e300, -1e308, float("inf"),
                         float("nan")])


def _mostly(good, bad=EDGES):
    """``good`` seven times in eight, else ``bad``: most runs get past the
    flag checks, and every check is still met."""
    return st.integers(0, 7).flatmap(lambda k: bad if k == 0 else good)


POSITIVE = _mostly(st.floats(0.05, 3.0))
NUMBERS = _mostly(st.floats(-5.0, 5.0))

ATOMS = st.one_of(st.just("V"),
                  st.sampled_from(["0", "1", "2", "0.2", "0.6", "2.5",
                                   "1e3", ".5", "1e-300"]))


def _binary(children):
    return st.tuples(children, st.sampled_from("+-*/^"), children).map(
        lambda t: f"({t[0]}){t[1]}({t[2]})")


def _unary(children):
    return st.tuples(st.sampled_from(["exp", "ln", "-"]), children).map(
        lambda t: f"{t[0]}({t[1]})")


EXPRESSIONS = st.one_of(
    st.recursive(ATOMS, lambda c: st.one_of(_binary(c), _unary(c)),
                 max_leaves=5),
    # malformed text too
    st.text(alphabet="V0123456789.eE+-*/^() xpln", max_size=12))


def _flag(name, values):
    return values.map(lambda x: [f"--{name}={x!r}"
                                 if isinstance(x, float) else
                                 f"--{name}={x}"])


def _optional(name, values):
    return st.one_of(st.just([]), _flag(name, values))


# the window, chart, size and format flags each command reads; "smin" and
# "vmin" stand for their windows
READS = {
    "curvature-grid": ("smin", "vmin", "chart", "n", "format"),
    "surface": ("smin", "vmin", "chart", "n", "format"),
    "locus": ("vmin", "n", "format"),
    "critical": (),
    "geodesic": ("format",),
    "verify": ("smin", "vmin"),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(list(READS)))
    reads = READS[command]
    model = draw(st.sampled_from(["ideal", "vdw", "berthelot", "custom"]))
    argv = [command, "--model", model]
    if model == "custom":
        argv += draw(_flag("f1", EXPRESSIONS))
        argv += draw(_optional("f2", EXPRESSIONS))
    for name in ("a", "b", "r-gas", "cv"):
        argv += draw(_optional(name, POSITIVE))
    # a window is mostly ordered
    for lo, hi, start in (("smin", "smax", NUMBERS),
                          ("vmin", "vmax", POSITIVE)):
        if lo in reads and draw(st.booleans()):
            x = draw(start)
            argv += [f"--{lo}={x!r}", f"--{hi}={x + draw(POSITIVE)!r}"]
    if "chart" in reads:
        argv += draw(_optional("chart", st.sampled_from(["sv", "tv"])))
    if "n" in reads:
        argv += draw(_optional("n", _mostly(st.integers(2, 5),
                                            st.integers(-1, 1))))
    if "format" in reads:
        argv += draw(_optional("format", st.sampled_from(["csv", "json",
                                                          "svg"])))
    if command == "locus":
        argv += draw(_optional("method", st.sampled_from(["auto", "scan"])))
    elif command == "critical":
        argv += draw(_optional("method", st.sampled_from(["auto",
                                                          "numeric"])))
    elif command == "geodesic":
        argv += draw(_flag("start-s", NUMBERS))
        argv += draw(_flag("start-v", POSITIVE))
        for name in ("start-sdot", "start-vdot"):
            argv += draw(_optional(name, st.floats(-1.0, 1.0)))
        argv += draw(_flag("t-end", st.floats(-0.5, 1.0)))
        argv += draw(_optional("tol", st.sampled_from([0.0, 1e-12, 1e-8])))
        argv += draw(_flag("samples", _mostly(st.integers(2, 4),
                                              st.integers(0, 1))))
    elif command == "verify":
        argv += draw(_optional("seed", st.integers(0, 2 ** 32 - 1)))
        argv += draw(_flag("states", _mostly(st.integers(1, 4),
                                             st.integers(-1, 0))))
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_every_command_line_ends_in_a_documented_way(argv):
    rc, out, err = _run(argv)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err
    if rc in (1, 3):
        lines = [ln for ln in err.splitlines()
                 if not ln.startswith("warning: ")]
        assert len(lines) == 1, err
        assert lines[0].startswith("error: " if rc == 1
                                   else "numeric failure: ")
    assert _run(argv) == (rc, out, err)
