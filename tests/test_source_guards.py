"""Source guards: the log-space product, the floor slack, the default of each
threshold and the JSON document format are each written once, the channel
exit takes its limits from Thresholds alone, no field is built by a descent,
the finder's closures keep the shapes the benchmark's tracer wraps, and
trajectory rows have one append path and no per-step point."""
import ast
import dataclasses
from pathlib import Path

import minfinity
from minfinity import Trajectory

SRC = Path(minfinity.__file__).resolve().parent


def _nodes():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def _is_log_abs(node) -> bool:
    return (isinstance(node, ast.Call) and ast.unparse(node.func) in ("log", "math.log")
            and len(node.args) == 1 and isinstance(node.args[0], ast.Call)
            and ast.unparse(node.args[0].func) == "abs")


def test_log_space_product_is_written_once():
    # u = sign(a)*exp(log|a| + b) lives in augment._terms alone
    assert [name for name, node in _nodes() if _is_log_abs(node)] == ["augment.py"]


def test_floor_slack_is_written_once():
    # fields.FLOOR_SLACK; every floor test reads that name
    found = [name for name, node in _nodes()
             if isinstance(node, ast.Constant) and node.value == 1e-9]
    assert found == ["fields.py"]


def _defaults(owner):
    """(name, default node) of each defaulted parameter or class field of ``owner``."""
    if isinstance(owner, ast.ClassDef):
        return [(st.target.id, st.value) for st in owner.body
                if isinstance(st, ast.AnnAssign) and st.value is not None]
    args = owner.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(arg, d) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [(arg.arg, d) for arg, d in pairs]


def test_threshold_defaults_are_written_once():
    # b_max = 20.0, grad_tol = 1e-8, loss_tol = 1e-4 and u_window = 0.1 are
    # defaults of Thresholds; every reader in the package takes them from a
    # Thresholds instance.  descend keeps its own default only for outside
    # callers that pass no tolerance (the benchmark's helper tests); every
    # call in the package passes one
    wanted = {"b_max": 20.0, "grad_tol": 1e-8, "loss_tol": 1e-4, "u_window": 0.1}
    found = [(name, owner.name, key) for name, owner in _nodes()
             if isinstance(owner, (ast.ClassDef, ast.FunctionDef))
             for key, d in _defaults(owner)
             if key in wanted and isinstance(d, ast.Constant) and d.value == wanted[key]]
    assert sorted(found) == [("augment.py", "Thresholds", "b_max"),
                             ("augment.py", "Thresholds", "grad_tol"),
                             ("augment.py", "Thresholds", "loss_tol"),
                             ("augment.py", "Thresholds", "u_window"),
                             ("minimize.py", "descend", "grad_tol")]
    calls = [node for _, node in _nodes()
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "descend"]
    assert len(calls) == 3 and all(any(k.arg == "grad_tol" for k in c.keywords) for c in calls)


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name


def test_channel_exit_limits_come_from_thresholds():
    # the finder's channel exit is Thresholds.in_channel: it reads the three
    # limits off the instance, and the finder's module holds no copy of their
    # values (1e-8, 1e-4, 0.1) to test against instead
    limits = ("grad_tol", "loss_tol", "u_window")
    tree = ast.parse((SRC / "augment.py").read_text())
    thresholds = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "Thresholds")
    in_channel = next(node for node in thresholds.body
                      if isinstance(node, ast.FunctionDef) and node.name == "in_channel")
    read = sorted(node.attr for node in ast.walk(in_channel)
                  if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self")
    assert read == sorted(limits)
    assert [node.value for node in ast.walk(in_channel)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)] == [1.0]
    values = {d.value for key, d in _defaults(thresholds) if key in limits}
    assert values == {1e-8, 1e-4, 0.1}
    assert [ast.unparse(node) for name, node in _nodes() if name == "landscape.py"
            and isinstance(node, ast.Constant) and isinstance(node.value, float)
            and node.value in values] == []
    finder = _function("landscape.py", "find_critical_points")
    assert sum(_calls(node, "in_channel") for node in ast.walk(finder)) == 1


def test_no_field_is_built_by_a_descent():
    # every field is a literal: in fields.py descend runs only inside
    # normalize, and nothing in the package calls normalize
    tree = ast.parse((SRC / "fields.py").read_text())
    normalize = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "normalize")
    inside = sum(_calls(node, "descend") for node in ast.walk(normalize))
    assert inside >= 1 and sum(_calls(node, "descend") for node in ast.walk(tree)) == inside
    assert [name for name, node in _nodes() if _calls(node, "normalize")] == []


def _is_indented_dumps(node) -> bool:
    return _calls(node, "dumps") and any(k.arg == "indent" for k in node.keywords)


def test_json_document_format_is_written_once():
    # indented, key-sorted JSON text comes from cli._json (every document the
    # CLI prints or writes) and optimize.summary_json (the library's summary)
    found = [(name, owner.name) for name, owner in _nodes()
             if isinstance(owner, ast.FunctionDef)
             for node in ast.walk(owner) if _is_indented_dumps(node)]
    assert sorted(found) == [("cli.py", "_json"), ("optimize.py", "summary_json")]
    assert sum(_is_indented_dumps(node) for _, node in _nodes()) == 2


def _function(filename: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / filename).read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_finder_closure_shapes_stay_traceable():
    # perfbench/tracing.py wraps descend as (value_fn, grad_fn, x0, **kwargs),
    # reading the max_iters/polish_iters defaults off its signature, and
    # wraps the pair fast_value_and_grad returns as two one-argument
    # closures; changing either shape outside a change to the benchmark
    # breaks its --trace 1 runs
    descend = _function("minimize.py", "descend")
    assert [a.arg for a in descend.args.posonlyargs + descend.args.args] == \
        ["value_fn", "grad_fn", "x0"]
    assert not descend.args.defaults and descend.args.vararg is None
    defaulted = {key for key, _ in _defaults(descend)}
    assert {"max_iters", "polish_iters"} <= defaulted

    fast = _function("augment.py", "fast_value_and_grad")
    closures = {node.name: node for node in fast.body if isinstance(node, ast.FunctionDef)}
    returned = [node.value for node in fast.body if isinstance(node, ast.Return)]
    assert len(returned) == 1 and isinstance(returned[0], ast.Tuple)
    names = [ast.unparse(elt) for elt in returned[0].elts]
    assert len(names) == 2 and all(n in closures for n in names)
    for n in names:
        args = closures[n].args
        assert len(args.posonlyargs + args.args) == 1 and not args.defaults
        assert not (args.vararg or args.kwonlyargs or args.kwarg)
    # the pair's one piece of state is value's last list with its L and u: a
    # cache keyed on theta comes back only with measurements that it pays
    declared = {name for node in ast.walk(fast) if isinstance(node, ast.Nonlocal)
                for name in node.names}
    assert declared == {"seen", "seen_L", "seen_u"}


_MUTATORS = ("append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse")


def test_trajectory_rows_are_appended_only_in_record():
    # Trajectory keeps its rows as parallel columns; one append path keeps
    # them the same length
    columns = {f.name for f in dataclasses.fields(Trajectory) if f.default_factory is list}
    assert {"steps", "thetas", "a_values", "b_values", "us"} <= columns
    tree = ast.parse((SRC / "optimize.py").read_text())
    trajectory = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "Trajectory")
    record = next(node for node in trajectory.body
                  if isinstance(node, ast.FunctionDef) and node.name == "record")
    writes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _MUTATORS \
                and isinstance(node.value, ast.Attribute) and node.value.attr in columns:
            writes.append(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) \
                else [node.target]
            for t in targets:
                if isinstance(t, ast.Subscript):
                    t = t.value
                if isinstance(t, ast.Attribute) and t.attr in columns:
                    writes.append(t)
    inside = {id(node) for node in ast.walk(record)}
    assert [ast.unparse(w) for w in writes if id(w) not in inside] == []
    assert sorted(w.value.attr for w in writes) == sorted(columns)


def test_optimizer_loop_builds_no_point():
    # the recorded rows are columns; points are built only on demand
    loops = [node for node in ast.walk(_function("optimize.py", "_run"))
             if isinstance(node, (ast.While, ast.For))]
    assert loops
    assert not any(isinstance(node, ast.Name) and node.id == "AugPoint"
                   for loop in loops for node in ast.walk(loop))


def test_marching_squares_builds_no_table_per_cell():
    # the edge table and the interpolation live at module level; a cell the
    # level does not cross costs a few boolean reads and nothing more
    loops = [node for node in ast.walk(_function("svgplot.py", "_segments"))
             if isinstance(node, (ast.While, ast.For))]
    assert loops
    assert not any(isinstance(node, (ast.FunctionDef, ast.Lambda, ast.Dict))
                   for loop in loops for node in ast.walk(loop))
