"""The invariant rules: one class per contract the repo already bled for.

Every rule names the PR whose contract it guards in its ``rationale``; the
README's "Static analysis" table is generated from these attributes (via
``--list-rules``), so the rule source is the single source of truth.

A note on philosophy: these rules are deliberately *conservative* -- when
the analysis cannot prove a call is safe (an obs receiver reached through a
helper, a ``Process`` target threaded through a parameter), it reports, and
the author either restructures to the provably-safe shape or suppresses
with a reason.  A project linter that stays silent on the hard cases
protects nothing; one that demands the simple shape keeps the simple shape
the norm.
"""

from __future__ import annotations

import ast
from pathlib import PurePath

from repro.devtools.framework import LintContext, Rule, rule

__all__ = ["CODEC_MODULES", "FOREIGN_FORMAT_MODULES"]

#: The wire-codec modules: the only places allowed to call
#: ``np.frombuffer`` (CODEC002) and required to spell every byte order
#: (CODEC001).
CODEC_MODULES = (
    "repro/net/block.py",
    "repro/net/estwire.py",
    "repro/net/flowwire.py",
    "repro/net/pcap.py",
)

#: Codec modules for a format this repository does not own.  A pcap file
#: declares its record byte order in its magic and carries IP/UDP fields in
#: network order, so there "explicit" means any spelled order ('<', '>',
#: '!' for struct, '|' for single bytes), not '<' alone.
FOREIGN_FORMAT_MODULES = ("repro/net/pcap.py",)

#: Modules whose output must be a pure function of their input: estimator
#: math and wire codecs.  Wall-clock reads here (DET004) could only flow
#: into estimates or encoded bytes.  The engine/monitor/cluster layers are
#: excluded by scoping -- their ``perf_counter`` use is telemetry, and the
#: obs-off bit-identity pin (PR 8) covers that boundary at runtime.
PURE_MODULES = CODEC_MODULES + (
    "repro/core/estimators.py",
    "repro/core/evaluation.py",
    "repro/core/features.py",
    "repro/core/frame_assembly.py",
    "repro/core/heuristic.py",
    "repro/core/media.py",
    "repro/core/pipeline.py",
    "repro/core/resolution.py",
    "repro/core/rtp_heuristic.py",
    "repro/core/windows.py",
    "repro/ml/",
    "repro/net/flows.py",
    "repro/net/headers.py",
    "repro/net/packet.py",
    "repro/net/trace.py",
)


def _call_name(node: ast.Call, ctx: LintContext) -> str | None:
    return ctx.resolve(node.func)


# -- determinism ---------------------------------------------------------------


@rule
class NoBuiltinHash(Rule):
    id = "DET001"
    summary = "builtin hash() is banned in repro code"
    rationale = (
        "str/bytes hash() is salted per process (PYTHONHASHSEED); a routing or "
        "ordering decision made with it differs between replicas.  Flow routing "
        "uses CRC-32 over a stable byte encoding instead (PR 3 contract)."
    )
    scope = ("repro/",)
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: LintContext) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and "hash" not in ctx.module_names
        ):
            ctx.add(node, "builtin hash() is process-salted; use crc32 over a stable byte encoding")


@rule
class SequentialForestAggregation(Rule):
    id = "DET002"
    summary = "forest prediction aggregation must accumulate sequentially"
    rationale = (
        "np.mean's pairwise-summation blocking depends on batch shape, so a "
        "window predicted alone and inside a batch could differ in the last "
        "ulp, breaking the batched == per-window bit-identity pin (PR 3)."
    )
    scope = ("repro/ml/forest.py",)
    node_types = (ast.Call,)

    _MEAN_FNS = {"numpy.mean", "numpy.average", "numpy.nanmean"}
    _SUM_FNS = {"numpy.sum", "numpy.nansum", "numpy.add.reduce"}

    def visit(self, node: ast.Call, ctx: LintContext) -> None:
        resolved = _call_name(node, ctx)
        is_mean_attr = isinstance(node.func, ast.Attribute) and node.func.attr == "mean"
        if resolved in self._MEAN_FNS or is_mean_attr:
            ctx.add(node, "np.mean blocks pairwise; accumulate per tree sequentially")
            return
        func = ctx.enclosing_function(node)
        in_predict = isinstance(
            func, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and func.name.startswith("predict")
        is_sum_attr = isinstance(node.func, ast.Attribute) and node.func.attr == "sum"
        if in_predict and (resolved in self._SUM_FNS or is_sum_attr):
            ctx.add(
                node,
                "pairwise reduction in prediction aggregation; accumulate sequentially",
            )


@rule
class NoGlobalRandom(Rule):
    id = "DET003"
    summary = "no calls on the global random / np.random streams"
    rationale = (
        "The module-level RNGs are shared mutable state: any reordering of "
        "callers reshuffles every stream.  All randomness flows through "
        "explicitly constructed np.random.default_rng(seed) generators."
    )
    scope = ("repro/",)
    node_types = (ast.Call,)

    #: np.random names that construct an explicit generator (sanctioned)
    #: rather than touching the hidden global stream.
    _NP_CONSTRUCTORS = {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
    _STDLIB_GLOBAL_FNS = {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }  # fmt: skip

    def visit(self, node: ast.Call, ctx: LintContext) -> None:
        resolved = _call_name(node, ctx)
        if resolved is None:
            return
        if resolved.startswith("numpy.random."):
            tail = resolved.removeprefix("numpy.random.")
            if "." not in tail and tail not in self._NP_CONSTRUCTORS:
                ctx.add(node, f"np.random.{tail} uses the global stream; pass a default_rng(seed)")
        elif resolved.startswith("random.") and resolved.removeprefix("random.") in self._STDLIB_GLOBAL_FNS:
            ctx.add(
                node,
                f"{resolved} uses the global stream; construct random.Random(seed) explicitly",
            )


@rule
class NoWallClockInPureModules(Rule):
    id = "DET004"
    summary = "no wall-clock reads in estimate/codec modules"
    rationale = (
        "Estimator math and wire codecs are pure functions of the capture; a "
        "wall-clock read there can only leak nondeterminism into estimates or "
        "encoded bytes.  Timing belongs to obs/, the monitors, and benchmarks."
    )
    scope = PURE_MODULES
    node_types = (ast.Call,)

    _CLOCKS = {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }

    def visit(self, node: ast.Call, ctx: LintContext) -> None:
        resolved = _call_name(node, ctx)
        if resolved in self._CLOCKS:
            ctx.add(node, f"wall-clock read ({resolved}) in a pure estimate/codec module")


# -- wire codecs ---------------------------------------------------------------


@rule
class ExplicitByteOrder(Rule):
    id = "CODEC001"
    summary = "codec struct formats and dtype literals must spell '<' ('>' too in the pcap decoder)"
    rationale = (
        "The flat-buffer codecs promise one byte order on the wire (PRs 4-7); "
        "a native-order format or dtype encodes differently on a big-endian "
        "peer and the decoder cannot tell.  '<' is part of the format.  The "
        "pcap codec reads a foreign format (file-order records, network-order "
        "IP/UDP fields), so it may spell '>' -- but never nothing."
    )
    scope = CODEC_MODULES
    node_types = (ast.Call,)

    _STRUCT_FNS = {
        "struct.Struct",
        "struct.pack",
        "struct.pack_into",
        "struct.unpack",
        "struct.unpack_from",
        "struct.iter_unpack",
        "struct.calcsize",
    }
    #: Native-order numpy scalar types; ``dtype=np.int64`` in a codec is the
    #: same implicit-order bug as ``dtype="i8"``.
    _NP_SCALARS = {
        "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32",
        "uint64", "float16", "float32", "float64", "intp", "uintp",
    }  # fmt: skip

    def begin_module(self, ctx: LintContext) -> None:
        foreign = PurePath(ctx.path).as_posix().endswith(FOREIGN_FORMAT_MODULES)
        self._struct_orders = ("<", ">", "!") if foreign else ("<",)
        self._dtype_orders = ("<", ">", "|") if foreign else ("<",)

    def visit(self, node: ast.Call, ctx: LintContext) -> None:
        resolved = _call_name(node, ctx)
        if resolved in self._STRUCT_FNS and node.args:
            fmt = node.args[0]
            if isinstance(fmt, ast.Constant) and isinstance(fmt.value, str):
                if not fmt.value.startswith(self._struct_orders):
                    ctx.add(
                        fmt,
                        f"struct format {fmt.value!r} does not start with an explicit "
                        f"byte order ({' '.join(self._struct_orders)})",
                    )
        if resolved == "numpy.dtype" and node.args:
            self._check_dtype_value(node.args[0], ctx)
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype" and node.args:
            self._check_dtype_value(node.args[0], ctx)
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                self._check_dtype_value(keyword.value, ctx)

    def _check_dtype_value(self, value: ast.AST, ctx: LintContext) -> None:
        if isinstance(value, ast.List):  # structured dtype: [(name, dtype, ...), ...]
            for field in value.elts:
                if isinstance(field, ast.Tuple) and len(field.elts) >= 2:
                    self._check_dtype_value(field.elts[1], ctx)
            return
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            if not value.value.startswith(self._dtype_orders):
                ctx.add(
                    value,
                    f"dtype literal {value.value!r} does not start with an explicit "
                    f"byte order ({' '.join(self._dtype_orders)})",
                )
            return
        resolved = ctx.resolve(value)
        if resolved is not None and resolved.startswith("numpy."):
            scalar = resolved.removeprefix("numpy.")
            if scalar in self._NP_SCALARS:
                ctx.add(value, f"np.{scalar} is native byte order; use np.dtype('<...')")


@rule
class FrombufferOnlyInCodecs(Rule):
    id = "CODEC002"
    summary = "np.frombuffer only inside the wire-codec modules"
    rationale = (
        "frombuffer reinterprets raw bytes with whatever dtype the caller "
        "guessed; outside the codecs' alignment helpers there is no layout "
        "contract to guess against.  Decode through the codec entry points "
        "(PacketBlock/EstimateBatch/FlowSnapshot.read_from) instead."
    )
    scope = ("repro/",)
    exclude = CODEC_MODULES
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: LintContext) -> None:
        if _call_name(node, ctx) == "numpy.frombuffer":
            ctx.add(node, "np.frombuffer outside the wire codecs; decode via the codec entry points")


# -- process model -------------------------------------------------------------


@rule
class SpawnSafeTargets(Rule):
    id = "SPAWN001"
    summary = "multiprocessing targets must be module-level callables"
    rationale = (
        "Workers start via spawn: the target is re-imported by qualified name "
        "in a fresh interpreter.  Lambdas and nested functions do not survive "
        "pickling, and 'fork would have worked' is not portable (PR 3)."
    )
    scope = ("repro/",)
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: LintContext) -> None:
        dotted = ctx.dotted(node.func)
        if dotted is None or not (dotted == "Process" or dotted.endswith(".Process")):
            return
        for keyword in node.keywords:
            if keyword.arg != "target":
                continue
            target = keyword.value
            if isinstance(target, ast.Lambda):
                ctx.add(target, "lambda as a Process target cannot cross a spawn boundary")
            elif isinstance(target, ast.Name) and target.id not in ctx.module_names:
                ctx.add(
                    target,
                    f"Process target {target.id!r} is not a module-level callable "
                    "(closures do not survive spawn pickling)",
                )


# -- observability -------------------------------------------------------------


@rule
class GuardedObsCalls(Rule):
    id = "OBS001"
    summary = "hot-path metrics calls must be guarded by an obs check"
    rationale = (
        "The PR 8 contract is obs-off == one falsy branch per call site: every "
        "record call in core/, cluster/ and net/ sits behind a truthiness / "
        "is-not-None check of its registry, so disabled telemetry costs "
        "nothing and a None registry can never be dereferenced."
    )
    scope = ("repro/core/", "repro/cluster/", "repro/net/")
    node_types = (ast.Call,)

    _RECORD_METHODS = {
        "inc",
        "set_gauge",
        "observe",
        "observe_stage",
        "time_stage",
        "timed_iter",
    }
    _OBS_NAMES = {"obs", "_obs", "registry", "_registry"}

    def visit(self, node: ast.Call, ctx: LintContext) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._RECORD_METHODS:
            return
        receiver = ctx.dotted(func.value)
        if receiver is None:
            ctx.add(node, f"metrics call .{func.attr}() on an unresolvable receiver; bind it to a name and guard it")
            return
        if receiver.rpartition(".")[2] not in self._OBS_NAMES:
            return
        if not self._guarded(node, receiver, ctx):
            ctx.add(
                node,
                f"{receiver}.{func.attr}() is not behind an obs-truthiness guard "
                "(obs-off must stay one falsy branch)",
            )

    # -- guard analysis --------------------------------------------------------

    def _guarded(self, node: ast.Call, receiver: str, ctx: LintContext) -> bool:
        for parent, child in ctx.ancestors(node):
            if isinstance(parent, ast.If):
                if child in parent.body and self._implies_truthy(parent.test, receiver, ctx):
                    return True
                if child in parent.orelse and self._implies_falsy(parent.test, receiver, ctx):
                    return True
            elif isinstance(parent, ast.IfExp):
                if child is parent.body and self._implies_truthy(parent.test, receiver, ctx):
                    return True
                if child is parent.orelse and self._implies_falsy(parent.test, receiver, ctx):
                    return True
            if any(
                child in suite and self._narrowed_before(suite, child, receiver, ctx)
                for suite in self._suites_of(parent)
            ):
                return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return False
        return False

    @staticmethod
    def _suites_of(node: ast.AST) -> list[list[ast.stmt]]:
        suites = []
        for name in ("body", "orelse", "finalbody"):
            suite = getattr(node, name, None)
            if isinstance(suite, list):
                suites.append(suite)
        return suites

    def _narrowed_before(
        self, suite: list[ast.stmt], child: ast.AST, receiver: str, ctx: LintContext
    ) -> bool:
        """True if an earlier statement in ``suite`` proves ``receiver`` truthy.

        Recognizes the early-exit shape (``if obs is None: return``) and the
        assert shape (``assert obs is not None``).
        """
        for stmt in suite:
            if stmt is child:
                return False
            if (
                isinstance(stmt, ast.If)
                and not stmt.orelse
                and self._implies_falsy(stmt.test, receiver, ctx)
                and isinstance(stmt.body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))
            ):
                return True
            if isinstance(stmt, ast.Assert) and self._implies_truthy(stmt.test, receiver, ctx):
                return True
        return False

    def _implies_truthy(self, test: ast.expr, receiver: str, ctx: LintContext) -> bool:
        """True if ``test`` being true proves ``receiver`` is non-None/truthy."""
        if ctx.dotted(test) == receiver:
            return True
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, right = test.left, test.comparators[0]
            if isinstance(test.ops[0], (ast.IsNot, ast.NotEq)):
                if ctx.dotted(left) == receiver and _is_none(right):
                    return True
                if ctx.dotted(right) == receiver and _is_none(left):
                    return True
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return any(self._implies_truthy(value, receiver, ctx) for value in test.values)
        return False

    def _implies_falsy(self, test: ast.expr, receiver: str, ctx: LintContext) -> bool:
        """True if ``receiver`` being None forces ``test`` to be true."""
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return ctx.dotted(test.operand) == receiver
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, right = test.left, test.comparators[0]
            if isinstance(test.ops[0], (ast.Is, ast.Eq)):
                if ctx.dotted(left) == receiver and _is_none(right):
                    return True
                if ctx.dotted(right) == receiver and _is_none(left):
                    return True
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            return any(self._implies_falsy(value, receiver, ctx) for value in test.values)
        return False


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


# -- exception hygiene ---------------------------------------------------------


@rule
class ExceptionHygiene(Rule):
    id = "EXC001"
    summary = "no bare except; cluster handlers must propagate"
    rationale = (
        "A swallowed exception in a worker or pump loop turns a crash into a "
        "silent hang or silent data loss (the PR 3/5 error-propagation "
        "contract: worker death raises, it never wedges the parent).  Broad "
        "handlers must re-raise, or hand the error to the channel protocol."
    )
    scope = ("repro/",)
    node_types = (ast.ExceptHandler,)

    #: Method names that count as handing the failure to the protocol: the
    #: worker channel's error/progress surface, a queue, or a log/record.
    _PROPAGATE_ATTRS = {"error", "put", "put_nowait", "send", "progress", "record", "log", "inc"}
    #: Only these packages run worker/pump loops where a swallowed
    #: ``except Exception`` can wedge the fleet.
    _LOOP_PACKAGES = ("repro/cluster/",)

    def visit(self, node: ast.ExceptHandler, ctx: LintContext) -> None:
        if node.type is None:
            ctx.add(node, "bare except: catches SystemExit/KeyboardInterrupt; name the exception")
            return
        caught = ctx.dotted(node.type)
        if caught not in ("Exception", "BaseException"):
            return
        posix = "/" + ctx.path.replace("\\", "/").lstrip("/")
        if not any(f"/{pkg}" in posix for pkg in self._LOOP_PACKAGES):
            return
        if not self._propagates(node):
            ctx.add(
                node,
                f"except {caught} in a worker/pump module neither re-raises nor "
                "hands the error to the channel protocol",
            )

    def _propagates(self, handler: ast.ExceptHandler) -> bool:
        for stmt in ast.walk(handler):
            if isinstance(stmt, ast.Raise):
                return True
            if (
                isinstance(stmt, ast.Call)
                and isinstance(stmt.func, ast.Attribute)
                and stmt.func.attr in self._PROPAGATE_ATTRS
            ):
                return True
        return False


# -- API surface ---------------------------------------------------------------


def _dataclass_flags(node: ast.ClassDef, ctx: LintContext) -> set[str] | None:
    """Keywords a class's ``@dataclass`` decorator sets to a literal ``True``.

    ``None`` when the class is not a dataclass at all.
    """
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if ctx.resolve(target) not in ("dataclass", "dataclasses.dataclass"):
            continue
        if not isinstance(decorator, ast.Call):
            return set()
        return {
            keyword.arg
            for keyword in decorator.keywords
            if keyword.arg is not None
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
        }
    return None


@rule
class FrozenConfigs(Rule):
    id = "API001"
    summary = "public *Config dataclasses must be frozen=True"
    rationale = (
        "Configs cross process boundaries as their dict/JSON form and are "
        "shared between pipelines, workers and monitors; a mutable config "
        "mutated after one consumer read it is a determinism hole.  Frozen "
        "is the PR 2 contract for every config object."
    )
    scope = ("repro/",)
    node_types = (ast.ClassDef,)

    def visit(self, node: ast.ClassDef, ctx: LintContext) -> None:
        if not node.name.endswith("Config") or node.name.startswith("_"):
            return
        flags = _dataclass_flags(node, ctx)
        if flags is not None and "frozen" not in flags:
            ctx.add(
                node,
                f"public config dataclass {node.name} is not frozen=True "
                "(configs are shared and cross process boundaries)",
            )


@rule
class SlottedEstimates(Rule):
    id = "API002"
    summary = "public *Estimate dataclasses must be frozen=True, slots=True"
    rationale = (
        "One estimate is retained per (flow, window) by every collecting "
        "sink and rebuilt per row on the sharded monitor's return wire; an "
        "instance __dict__ doubles what each one costs to keep, and a "
        "mutable one could change after a sink or the fan-in ordered it."
    )
    scope = ("repro/",)
    node_types = (ast.ClassDef,)

    def visit(self, node: ast.ClassDef, ctx: LintContext) -> None:
        if not node.name.endswith("Estimate") or node.name.startswith("_"):
            return
        flags = _dataclass_flags(node, ctx)
        if flags is None:
            return
        missing = [flag for flag in ("frozen", "slots") if flag not in flags]
        if missing:
            ctx.add(
                node,
                f"public estimate dataclass {node.name} is not "
                f"{', '.join(f'{flag}=True' for flag in missing)} "
                "(one is retained per flow-window and crosses the return wire)",
            )
