import ast
from pathlib import Path

import cftmal

PACKAGE = Path(cftmal.__file__).parent


def _sibling_imports_in_functions(tree):
    """(function name, line) of every package-internal import inside a function body."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "cftmal"
            ):
                found.append((fn.name, node.lineno))
            elif isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "cftmal" for a in node.names
            ):
                found.append((fn.name, node.lineno))
    return found


def test_no_function_local_sibling_imports():
    """Package modules import each other at module level only, so the
    import graph is visible and free of cycles broken at run time."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.stem}.{name}:{line}"
                      for name, line in _sibling_imports_in_functions(tree)]
    assert offenders == []


PER_FAMILY_STAGES = {"mine_negatives", "mine_random", "build_samples"}


def test_per_family_mining_is_called_from_mining_only():
    """The CLI and the ablation runner mine and build samples through
    `mining.mine_all` / `build_all_samples`, so no second per-family loop
    over these functions grows outside `mining`."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "mining":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name in PER_FAMILY_STAGES:
                offenders.append(f"{path.stem}:{node.lineno} calls {name}")
    assert offenders == []


CHAIN_PASSES = {"chain_forward", "chain_output", "chain_backward", "chain_tangent",
                "chain_backward_jvp"}


def test_layer_chains_are_run_in_numeric_and_fusion_only():
    """Every trainable network is a `fusion.FusionModel` layout, so no module
    but `numeric` and `fusion` runs a layer stack by hand: a second network
    type with its own forward and backward would grow back around such a call."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("numeric", "fusion"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name in CHAIN_PASSES:
                offenders.append(f"{path.stem}:{node.lineno} calls {name}")
    assert offenders == []


TEXT_FORMAT_MODULES = {"csv", "json"}


def test_text_formats_are_read_and_written_in_data_only():
    """CSV and JSONL files go through the `cftmal.data` helpers, so every
    reader shares one error path that names the file and the line."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "data":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.stem}:{node.lineno} imports {n}" for n in names
                          if n.split(".")[0] in TEXT_FORMAT_MODULES]
    assert offenders == []


LAYER_ARRAYS = {"weights", "bias"}


def test_layer_arrays_are_rebound_in_numeric_only():
    """A layer's weights and bias are views into its model's flat `params`
    vector; rebinding one anywhere but `numeric` would silently cut that
    layer off from the vector the optimizer updates."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "numeric":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for t in ast.walk(target):
                    if (isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                            and t.attr in LAYER_ARRAYS):
                        offenders.append(f"{path.stem}:{node.lineno} assigns .{t.attr}")
    assert offenders == []


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_record_vectors_are_stacked_in_data_only():
    """`Corpus.vectors` holds every record's vector as one matrix, built in
    `data`; a comprehension over record `.vector`s anywhere else would
    rebuild that matrix, or part of it, on its own. Likewise `Corpus.rows`
    maps ids to rows and `data.attribute_rows` pairs attribute rows with
    corpus rows; a dict comprehension keyed on record `.id`s anywhere else
    would pair rows by id a second time. And a `Corpus` stores each row once,
    as columns; its `records` are row views made on demand, so any module but
    `data` reads the columns, never `.records`."""
    offenders = set()  # a set: nested comprehensions walk the same node twice
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "data":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "records":
                offenders.add(f"{path.stem}:{node.lineno} reads .records")
            if isinstance(node, COMPREHENSIONS):
                offenders |= {f"{path.stem}:{t.lineno} reads .vector in a comprehension"
                              for t in ast.walk(node)
                              if isinstance(t, ast.Attribute) and t.attr == "vector"}
            if (isinstance(node, ast.DictComp) and isinstance(node.key, ast.Attribute)
                    and node.key.attr == "id"):
                offenders.add(f"{path.stem}:{node.lineno} keys a dict comprehension on .id")
    assert sorted(offenders) == []


WRITE_MODE_CHARS = set("wax+")


def _may_write(call: ast.Call) -> bool:
    """An `open(...)` whose mode is a literal with w, a, x or +, or is not a
    literal at all."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not WRITE_MODE_CHARS & set(mode.value))


def test_files_are_written_through_replace_file_only():
    """Every artifact is written by `data.replace_file`, as a new file renamed
    into place, so no writer truncates an artifact in place: a failed write
    would leave a cut-off file under the real name, and on ext4 each in-place
    rewrite stalls on the flush of the data it replaces."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {id(n) for fn in ast.walk(tree) if path.stem == "data"
                   and isinstance(fn, ast.FunctionDef) and fn.name == "replace_file"
                   for n in ast.walk(fn)}
        offenders += [f"{path.stem}:{node.lineno} opens a file for writing"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "open" and id(node) not in allowed
                      and _may_write(node)]
    assert offenders == []


def _exp_callers(tree):
    """The innermost function around each `np.exp` call, "<module>" for one
    outside every function."""
    spans = [(fn.lineno, fn.end_lineno, fn.name) for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    callers = []
    for node in ast.walk(tree):
        fn = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(fn, ast.Attribute) and fn.attr == "exp"
                and isinstance(fn.value, ast.Name) and fn.value.id in ("np", "numpy")):
            around = [s for s in spans if s[0] <= node.lineno <= s[1]]
            callers.append(max(around)[2] if around else "<module>")
    return callers


def test_exp_is_called_in_numeric_only():
    """`numeric` holds the softmax kernels, `softmax` and
    `softmax_cross_entropy`; the KD loss and `cft._info_nce` call `softmax`,
    so a second softmax cannot grow back beside them."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "numeric":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            callers.update(f"{path.stem}.{name}" for name in _exp_callers(tree))
    assert callers == set()
