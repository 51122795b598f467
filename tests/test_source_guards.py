"""Source guards: the log-space product, the floor slack, the exponent clamp,
the default of each threshold and the JSON document format are each written
once; lam, the saturation policy and grad_tol are the core's only settings;
the scalar core has one return shape, the finder's grad one path, and augment
imports nothing from minimize; the channel exit takes its limits from
Thresholds alone; the saturation policy is applied and the random start is
drawn in one function each; every validated call checks the box, in one
comparison; no field is built by a descent; descend's box projection and
squared norm are written once; the finder's closures keep the shapes the
benchmark's tracer wraps; the optimizer kernel remembers only its
last theta; trajectory rows have one append path and no per-step point;
marching squares loops over no row's every column and Dual arithmetic lifts
no operand into a second Dual; and no module imports dataclasses, so a cold
start loads none of its imports."""
import ast
import subprocess
import sys
from pathlib import Path

import minfinity
from minfinity import AugConfig, Thresholds, Trajectory

from cli_env import cli_env

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


def test_only_lam_policy_and_grad_tol_are_settings():
    # the exponent clamp is augment.B_CLAMP alone: AugConfig holds lam and the
    # saturation policy, Thresholds sets grad_tol per run and keeps its other
    # limits as class constants, and the scalar core takes no clamp
    assert AugConfig._fields == ("lam", "saturation_policy")
    assert Thresholds._fields == ("grad_tol",)
    for name in ("_terms", "_slopes"):
        args = _function("augment.py", name).args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        assert not [p for p in params if "clamp" in p], name
    assert [name for name, node in _nodes()
            if isinstance(node, ast.Constant) and node.value == 700.0] == ["augment.py"]


def test_scalar_core_has_one_shape_and_grad_one_path():
    # _terms(L, a, b, lam) returns (V, L, u, u_sat) and nothing else; a route
    # that needs the gradient calls _slopes itself.  The finder's grad takes L
    # and u from value and adds the one _slopes call
    terms = _function("augment.py", "_terms")
    args = terms.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == \
        ["L", "a", "b", "lam"]
    assert not (args.defaults or args.vararg or args.kwarg)
    returns = [node for node in ast.walk(terms) if isinstance(node, ast.Return)]
    assert returns and all(isinstance(r.value, ast.Tuple) and len(r.value.elts) == 4
                           for r in returns)
    fast = _function("augment.py", "fast_value_and_grad")
    grad = next(node for node in fast.body
                if isinstance(node, ast.FunctionDef) and node.name == "grad")
    assert sum(_calls(node, "_slopes") for node in ast.walk(grad)) == 1
    assert not any(_calls(node, "_terms") for node in ast.walk(grad))
    # the core sits under the descent, not on it
    tree = ast.parse((SRC / "augment.py").read_text())
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and not [line for line in imports if "minimize" in line]


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
    # b_max = 20.0, loss_tol = 1e-4 and u_window = 0.1 are constants of
    # Thresholds and grad_tol = 1e-8 the default of its field, declared in
    # the NamedTuple base _Thresholds; every reader in the package
    # takes them from a Thresholds instance.  descend keeps its own default only for outside
    # callers that pass no tolerance (the benchmark's helper tests); every
    # call in the package passes one
    wanted = {"b_max": 20.0, "grad_tol": 1e-8, "loss_tol": 1e-4, "u_window": 0.1}
    found = [(name, owner.name, key) for name, owner in _nodes()
             if isinstance(owner, (ast.ClassDef, ast.FunctionDef))
             for key, d in _defaults(owner)
             if key in wanted and isinstance(d, ast.Constant) and d.value == wanted[key]]
    assert sorted(found) == [("augment.py", "Thresholds", "b_max"),
                             ("augment.py", "Thresholds", "loss_tol"),
                             ("augment.py", "Thresholds", "u_window"),
                             ("augment.py", "_Thresholds", "grad_tol"),
                             ("minimize.py", "descend", "grad_tol")]
    calls = [node for _, node in _nodes()
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "descend"]
    assert len(calls) == 2 and all(any(k.arg == "grad_tol" for k in c.keywords) for c in calls)


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name


def test_channel_exit_limits_come_from_thresholds():
    # the finder's channel exit is Thresholds.in_channel: it reads the three
    # limits off the instance, and the finder's module holds no copy of their
    # values (1e-8, 1e-4, 0.1) to test against instead
    limits = ("grad_tol", "loss_tol", "u_window")
    tree = ast.parse((SRC / "augment.py").read_text())
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    thresholds = classes["Thresholds"]
    in_channel = next(node for node in thresholds.body
                      if isinstance(node, ast.FunctionDef) and node.name == "in_channel")
    read = sorted(node.attr for node in ast.walk(in_channel)
                  if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self")
    assert read == sorted(limits)
    assert [node.value for node in ast.walk(in_channel)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)] == [1.0]
    values = {d.value for cls in (classes["_Thresholds"], thresholds)
              for key, d in _defaults(cls) if key in limits}
    assert values == {1e-8, 1e-4, 0.1}
    assert [ast.unparse(node) for name, node in _nodes() if name == "landscape.py"
            and isinstance(node, ast.Constant) and isinstance(node.value, float)
            and node.value in values] == []
    finder = _function("landscape.py", "find_critical_points")
    assert sum(_calls(node, "in_channel") for node in ast.walk(finder)) == 1


def _functions_where(filename: str, test) -> list[str]:
    """Names of the functions of ``filename`` (methods as Class.method) that
    hold a node passing ``test``."""
    tree = ast.parse((SRC / filename).read_text())
    owners = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    owners += [(f"{cls.name}.{node.name}", node) for cls in tree.body
               if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)]
    return sorted(name for name, owner in owners if any(map(test, ast.walk(owner))))


def test_saturation_policy_is_applied_in_one_function():
    # augment._saturate is the one place that picks flag or raise; the routes
    # call it only once a guard has tripped.  AugConfig.__new__ only
    # checks that the value is a known policy
    def compares_policy(node):
        return isinstance(node, ast.Compare) and any(
            isinstance(n, ast.Attribute) and n.attr == "saturation_policy"
            for n in ast.walk(node))

    assert _functions_where("augment.py", compares_policy) == \
        ["AugConfig.__new__", "_saturate"]
    assert [name for name, node in _nodes() if compares_policy(node)] == ["augment.py"] * 2


def test_random_start_is_drawn_in_one_function():
    # the finder, grad-check and --start-mode seeded-random all call
    # landscape.random_start; the seed ranges are read nowhere else
    def reads_range(node):
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        return name in ("SEED_A_RANGE", "SEED_B_RANGE") and isinstance(node.ctx, ast.Load)

    assert _functions_where("landscape.py", reads_range) == ["random_start"]
    assert [name for name, node in _nodes() if reads_range(node)] == ["landscape.py"] * 2
    callers = sorted(name for name, node in _nodes() if _calls(node, "random_start"))
    assert callers == ["cli.py", "landscape.py", "verify.py"]


def test_no_field_is_built_by_a_descent():
    # every field is a literal: in fields.py descend runs only inside
    # normalize, and nothing in the package calls normalize
    tree = ast.parse((SRC / "fields.py").read_text())
    normalize = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "normalize")
    inside = sum(_calls(node, "descend") for node in ast.walk(normalize))
    assert inside >= 1 and sum(_calls(node, "descend") for node in ast.walk(tree)) == inside
    assert [name for name, node in _nodes() if _calls(node, "normalize")] == []


def test_the_infimum_probe_runs_no_descent():
    # the probe reads the ends of its curve; landscape's only descent is the finder's
    probe = _function("landscape.py", "probe_infimum")
    assert not any(_calls(node, "descend") for node in ast.walk(probe))
    imported = [alias.name for node in ast.walk(ast.parse((SRC / "landscape.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "descend" in imported and "_slopes" not in imported


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


def _params(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    assert args.vararg is None and args.kwarg is None, fn.name
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def test_every_validated_call_checks_the_box():
    # the five checked routes take their inputs and nothing else, no parameter
    # or keyword in the package names the domain, fields.py compares theta
    # with the box in one chained test, in ScalarField.contains, and _check
    # calls contains
    tree = ast.parse((SRC / "fields.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "ScalarField")
    methods = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}
    for name in ("_check", "value", "gradient"):
        assert _params(methods[name]) == ["self", "theta"], name
    for name in ("evaluate", "gradient"):
        assert _params(_function("augment.py", name)) == ["field", "point", "cfg"], name
    assert [name for name, node in _nodes() if isinstance(node, (ast.arg, ast.keyword))
            and node.arg and "domain" in node.arg] == []

    def chained(node):
        return isinstance(node, ast.Compare) and len(node.ops) == 2
    assert _functions_where("fields.py", chained) == ["ScalarField.contains"]
    assert [ast.unparse(node) for node in ast.walk(tree) if chained(node)] == \
        ["lo <= t <= hi"]
    assert any(_calls(node, "contains") for node in ast.walk(methods["_check"]))


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


def test_descent_rules_are_written_once():
    # descend projects every trial onto the box with _clip and takes every
    # squared gradient norm from _sum_sq: minimize.py loops over the box
    # only in _clip, and sums squares (fsum, mul, x*x or x**2) only in _sum_sq
    descend = _function("minimize.py", "descend")
    assert any(_calls(node, "_clip") for node in ast.walk(descend))
    assert any(_calls(node, "_sum_sq") for node in ast.walk(descend))

    def projects(node):
        return (isinstance(node, ast.For) and ast.unparse(node.iter) == "box"
                or _calls(node, "min") and any(_calls(a, "max") for a in node.args)
                or _calls(node, "max") and any(_calls(a, "min") for a in node.args))

    def squares(node):
        return (isinstance(node, ast.Name) and node.id in ("fsum", "mul", "hypot")
                or _calls(node, "sum")
                or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and ast.unparse(node.left) == ast.unparse(node.right))

    assert _functions_where("minimize.py", projects) == ["_clip"]
    assert _functions_where("minimize.py", squares) == ["_sum_sq"]


def test_fast_kernel_state_is_the_last_theta_alone():
    # the optimizer kernel remembers one theta with its L - offset and grad L,
    # nothing keyed on (a, b) and no table of past points
    fast = _function("augment.py", "fast_kernel")
    declared = [name for node in ast.walk(fast) if isinstance(node, ast.Nonlocal)
                for name in node.names]
    assert sorted(declared) == ["seen", "seen_L", "seen_grad"]


_MUTATORS = ("append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
             "byteswap", "frombytes", "fromfile", "fromlist")


def test_trajectory_rows_are_appended_only_in_record():
    # Trajectory keeps its rows as parallel columns, packed arrays and the
    # theta list, each created empty in __init__; one append path keeps them
    # the same length
    tree = ast.parse((SRC / "optimize.py").read_text())
    trajectory = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "Trajectory")
    methods = {node.name: node for node in trajectory.body if isinstance(node, ast.FunctionDef)}
    init, record = methods["__init__"], methods["record"]
    columns = set()
    for node in ast.walk(init):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(node.value, ast.List) or _calls(node.value, "array")):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            columns |= {t.attr for t in targets if isinstance(t, ast.Attribute)}
    assert {"steps", "thetas", "a_values", "b_values", "us", "base_losses", "losses",
            "grad_norms"} == columns
    traj = Trajectory("f")
    assert all(len(getattr(traj, name)) == 0 for name in columns)
    writes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _MUTATORS \
                and isinstance(node.value, ast.Attribute) and node.value.attr in columns:
            writes.append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) \
                else [node.target]
            for t in targets:
                if isinstance(t, ast.Subscript):
                    t = t.value
                if isinstance(t, ast.Attribute) and t.attr in columns:
                    writes.append(t)
    inside = {id(node) for node in ast.walk(record)}
    created = {id(node) for node in ast.walk(init)}
    assert [ast.unparse(w) for w in writes if id(w) not in inside | created] == []
    assert sorted(w.value.attr for w in writes if id(w) in inside) == sorted(columns)


def test_optimizer_loop_builds_no_point():
    # the recorded rows are columns; points are built only on demand
    loops = [node for node in ast.walk(_function("optimize.py", "_run"))
             if isinstance(node, (ast.While, ast.For))]
    assert loops
    assert not any(isinstance(node, ast.Name) and node.id == "AugPoint"
                   for loop in loops for node in ast.walk(loop))


def test_marching_squares_builds_no_table_per_cell():
    # the edge table and the interpolation live at module level; a row pair
    # no level crosses costs a few int operations, and within a crossed one
    # bytes.find jumps from crossed cell to crossed cell: no loop of the
    # row-pair loop runs over every column, only over a cell's corners or
    # its segments
    fn = _function("svgplot.py", "_segments")
    loops = [node for node in ast.walk(fn) if isinstance(node, (ast.While, ast.For))]
    assert loops
    assert not any(isinstance(node, (ast.FunctionDef, ast.Lambda, ast.Dict))
                   for loop in loops for node in ast.walk(loop))
    (rows,) = [node for node in fn.body if isinstance(node, ast.For)]
    assert ast.unparse(rows.iter) == "range(len(A) - 1)"
    inner = {ast.unparse(node.iter) for node in ast.walk(rows)
             if isinstance(node, (ast.For, ast.comprehension)) and node is not rows}
    assert inner <= {"pairs", "corners"}
    whiles = [node for node in ast.walk(rows) if isinstance(node, ast.While)]
    assert len(whiles) == 1 and ".find(1, j + 1)" in ast.unparse(whiles[0].test)


def test_dual_arithmetic_lifts_no_operand():
    # a float or int operand enters Dual's formulas as itself: no helper
    # turns it into a second Dual first
    tree = ast.parse((SRC / "differentiation.py").read_text())
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "_lift" not in names


def test_no_module_imports_dataclasses():
    # the records are NamedTuples and slotted classes: dataclasses would pull
    # inspect, ast, dis and tokenize into every cold start of the CLI
    imported = [(name, ast.unparse(node)) for name, node in _nodes()
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and "dataclasses" in ([a.name for a in node.names]
                                      if isinstance(node, ast.Import) else [node.module])]
    assert imported == []
    script = ("import sys, minfinity.cli; "
              "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", script], env=cli_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
