"""Compile-once cache for the generated per-access step functions.

The cache state machines render per-configuration Python source (the
steps in :mod:`repro.core.maya_step`, :mod:`repro.llc.mirage_step`,
:mod:`repro.llc.skewed_step`, :mod:`repro.llc.ceaser_step`,
:mod:`repro.llc.fully_assoc_step` and
:mod:`repro.cache.set_assoc_step`).  Each template defines a
``_bind(target, SimulationError, SetAssociativeEviction)`` function that
binds the target's columns as closure locals and returns its
``access_fast`` step.

Compiled code objects are cached in-process, keyed by template kind and
config fingerprint, so a resident service worker compiles each
configuration once per warm pool.  Nothing is cached on disk: the
source renders in tens of microseconds and ``compile()`` would run on
every process start either way.  The rendered source is kept beside its
code object (:func:`template_source`): a kernel (:func:`bind_kernel`)
renders a step's body inline from it.

The snippets the randomized steps share live here too, so their sites
cannot drift apart: the stdlib-exact random draw (:func:`_draw`), the
splitmix64 mixer (:func:`_splitmix`) and the randomizer's mapping-memo
lookup (:func:`_memo_lookup`) with its inlined mix and fold.

**Kernels around a step.**  Code that runs a step many times in a
loop renders that loop as a generated *kernel* with one op slot
(:func:`bind_kernel`).  When the step is a template's, the slot holds
the step's own body, parsed from the source it was compiled from: each
``return X`` becomes ``flags = X`` and an exit from the op, and the
kernel binds the values the step's closure binds.  A body with a
``return`` inside a loop, a ``nonlocal``, or a name the kernel itself
binds is refused with a reason, and so is any step no template made;
the slot then calls the step.  Two kernels render this way, each from
its own template: the op-stream replay's merge loop
(:mod:`repro.engine.vector`) and the attack harnesses' sweep
(:func:`repro.llc.interface.access_lines`).
"""

from __future__ import annotations

import ast
import builtins
import textwrap
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .errors import SetAssociativeEviction, SimulationError


class SpecializeCacheInfo(NamedTuple):
    """Counters for the in-process code cache (``cache_snapshot`` row)."""

    memory_hits: int
    compiles: int
    size: int


_code_cache: dict = {}
#: Code filename -> the source compiled under it.
_sources: dict = {}
_memory_hits = 0
_compiles = 0


def specialize_cache_info() -> SpecializeCacheInfo:
    """Hit/compile counters of the in-process code cache."""
    return SpecializeCacheInfo(
        memory_hits=_memory_hits, compiles=_compiles, size=len(_code_cache)
    )


def compiled_template(kind: str, fingerprint: tuple, build_source, keep_source: bool = True):
    """Code object for (kind, fingerprint), compiled once per process.

    A template cannot change inside a process, so the config fingerprint
    and the template kind are the whole key: identical configurations
    (a resident service worker's every job) reuse one compile.  The
    fingerprint must cover every value the template renders as a
    literal.  It also names the code object, so a profile tells
    configurations apart.  ``keep_source=False`` drops the source after
    the compile, for a template nothing renders inline.
    """
    global _memory_hits, _compiles
    key = (kind, fingerprint)
    code = _code_cache.get(key)
    if code is not None:
        _memory_hits += 1
        return code
    name = repr(fingerprint).replace(" ", "")
    filename = f"<specialized:{kind}:{name}>"
    source = build_source()
    code = compile(source, filename, "exec")
    _compiles += 1
    _code_cache[key] = code
    if keep_source:
        _sources[filename] = source
    return code


def template_source(function) -> Optional[str]:
    """The source ``function`` was compiled from, if a template made it.

    ``None`` for anything else: a bound method, a builtin, a wrapper
    written in a module.
    """
    code = getattr(function, "__code__", None)
    return None if code is None else _sources.get(code.co_filename)


def bind_template(code, target):
    """Run a compiled template and bind its step to ``target``."""
    namespace: dict = {}
    exec(code, namespace)
    return namespace["_bind"](target, SimulationError, SetAssociativeEviction)


def _indent(snippet: str, spaces: int) -> str:
    """``snippet`` (written at column 0) indented for its site."""
    return textwrap.indent(snippet, " " * spaces).rstrip("\n")


def _draw(target: str, n, getrandbits: str) -> str:
    """``target = rng._randbelow(n)`` without the stdlib frame.

    ``Random._randbelow`` (and so ``randrange(n)``) is the
    ``getrandbits(n.bit_length())`` rejection loop; this renders the
    same loop, so the same bits come from the same stream.  An int
    ``n`` renders its bit length as a literal; any other ``n`` is an
    expression evaluated per draw.
    """
    k = n.bit_length() if isinstance(n, int) else f"{n}.bit_length()"
    return (
        f"{target} = {getrandbits}({k})\n"
        f"while {target} >= {n}:\n"
        f"    {target} = {getrandbits}({k})\n"
    )


def _splitmix(value: str, key: str) -> str:
    """``x = splitmix64((value ^ key) & M64)``, the randomizer's mixer."""
    return (
        f"x = ({value} ^ {key}) & 0xFFFFFFFFFFFFFFFF\n"
        "x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF\n"
        "x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF\n"
        "x ^= x >> 31\n"
    )


# IndexRandomizer._lookup_packed of ``key`` (its LRU discipline, counters
# and precomputed side table), then the two skews' indices unpacked from
# their 32-bit lanes.
_MEMO_LOOKUP = """\
packed = memo_pop(key, None)
if packed is None:
    rand.cache_misses += 1
    packed = precomputed_get(key)
    if packed is None:
{MISS}
    if len(memo) >= {MEMO_CAP}:
        del memo[next(iter(memo))]
else:
    rand.cache_hits += 1
memo[key] = packed
i0 = packed & 0xFFFFFFFF
i1 = packed >> 32
"""


def _memo_lookup(memo_cap: int, mix_bits: Optional[int], sdid: str = "sdid") -> str:
    """The two-skew mapping lookup of ``key`` into ``i0``/``i1``.

    Reads ``line_addr``, ``key`` (the packed ``line_addr``/``sdid``
    key) and ``sdid``, the expression for the SDID that enters the hash
    (``"0"`` for a design that maps every domain alike), and needs
    ``rand``, ``memo``, ``memo_pop`` and ``precomputed_get`` bound.  A
    miss outside the side table runs the splitmix mixer inline when
    ``mix_bits`` (the index width) is given - the two-skew
    ``IndexRandomizer._raw_packed``, whose XOR fold over ``64/bits``
    chunks renders as shift offsets (masking distributes over XOR, so
    it equals the chunk fold for any width) - else calls the bound
    ``raw_packed`` (the PRINCE cipher).  ``memo_cap`` and ``mix_bits``
    must be part of the template's fingerprint.
    """
    if mix_bits is None:
        miss = f"packed = raw_packed(line_addr, {sdid})\n"
    else:
        fold = " ^ ".join(["x"] + [f"(x >> {s})" for s in range(mix_bits, 64, mix_bits)])
        mask = (1 << mix_bits) - 1
        miss = (
            "k0, k1 = rand._mix_keys\n"
            f"tweaked = line_addr ^ ({sdid} << 56)\n"
            + _splitmix("tweaked", "k0")
            + f"f0 = {fold}\n"
            + _splitmix("tweaked", "k1")
            + f"packed = (f0 & {mask}) | (({fold}) & {mask}) << 32\n"
        )
    return _MEMO_LOOKUP.format(MISS=_indent(miss, 8), MEMO_CAP=memo_cap)


# -- kernels around a step ---------------------------------------------------

#: The step signature a kernel's op slot provides, in call order.
STEP_PARAMS = ("line_addr", "is_write", "core_id", "is_writeback", "sdid")

#: The op slot's call form.  A kernel's ``_bind`` finds the step in its
#: ``bound`` dict as ``access_fast`` (the replay also takes it as an
#: argument).
CALL_OP = "flags = access_fast(line_addr, is_write, core_id, is_writeback, sdid)\n"


def kernel_names(*sources: str) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """The names kernel ``sources`` bind, and every name they bind or
    read, but for the step parameters their op slot provides.

    Pass the kernel rendered with :data:`CALL_OP` in its op slot and no
    bindings, once per variant that renders differently outside the
    slot.
    """
    bound = {"flags"}
    used = set(bound)
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
                if not isinstance(node.ctx, ast.Load):
                    bound.add(node.id)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
            elif isinstance(node, ast.alias):
                bound.add(node.asname or node.name)
            elif isinstance(node, ast.FunctionDef):
                bound.add(node.name)
    # ``_bind`` receives the exception classes every step's ``_bind`` does.
    own = set(STEP_PARAMS) | {"SimulationError", "SetAssociativeEviction"}
    return frozenset(bound - own), frozenset((used | bound) - own)


class _Scan(ast.NodeVisitor):
    """Names a step body stores and loads, and what the op slot refuses."""

    def __init__(self):
        self.stores = set()
        self.loads = set()
        self.problems: List[str] = []
        self._loops = 0

    def _loop(self, node):
        self._loops += 1
        self.generic_visit(node)
        self._loops -= 1

    visit_For = visit_AsyncFor = visit_While = _loop

    def visit_Return(self, node):
        if self._loops:
            self.problems.append(f"a return inside a loop (line {node.lineno})")
        self.generic_visit(node)

    def visit_Name(self, node):
        (self.loads if isinstance(node.ctx, ast.Load) else self.stores).add(node.id)

    def visit_ExceptHandler(self, node):
        if node.name:
            self.stores.add(node.name)
        self.generic_visit(node)

    def _declaration(self, node):
        self.problems.append(f"a {type(node).__name__} statement (line {node.lineno})")

    def _definition(self, node):
        self.problems.append(f"a nested {type(node).__name__} (line {node.lineno})")

    visit_Nonlocal = visit_Global = _declaration
    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_Lambda = _definition


class _ReturnToFlags(ast.NodeTransformer):
    """``return X`` -> ``flags = X`` and a ``break`` out of the op."""

    def visit_Return(self, node):
        value = node.value if node.value is not None else ast.Constant(None)
        return [ast.Assign(targets=[ast.Name("flags", ast.Store())], value=value), ast.Break()]


def _render_inline(source: str, code, names) -> Tuple[Optional[str], Optional[str]]:
    """``(op slot source, None)`` for the step compiled as ``code`` from
    ``source``, or ``(None, reason)`` when the slot must call it.

    ``names`` is the kernel's :func:`kernel_names`.
    """
    defs = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.lineno == code.co_firstlineno
        and node.name == code.co_name
    ]
    if len(defs) != 1:
        return None, "the step's definition is not in its template source"
    step = defs[0]
    args = step.args
    if (tuple(a.arg for a in args.args) != STEP_PARAMS or args.posonlyargs or args.vararg
            or args.kwonlyargs or args.kwarg):
        return None, f"the step's signature is not ({', '.join(STEP_PARAMS)})"
    scan = _Scan()
    for statement in step.body:
        scan.visit(statement)
    if scan.problems:
        return None, f"the step's body has {scan.problems[0]}"
    kernel_bound, kernel_used = names
    freevars = set(code.co_freevars)
    assigned = scan.stores & (kernel_used | set(STEP_PARAMS))
    assigned.discard("flags")
    if assigned:
        return None, f"the step's body assigns kernel-local {', '.join(sorted(assigned))}"
    outer = scan.loads - scan.stores - set(STEP_PARAMS) - freevars
    missing = sorted(name for name in outer if not hasattr(builtins, name))
    if missing:
        return None, f"the step's body reads module globals {', '.join(missing)}"
    shadowed = (freevars | outer) & kernel_bound
    if shadowed:
        return None, f"the kernel shadows the step's {', '.join(sorted(shadowed))}"
    body: list = []
    for statement in step.body:
        rendered = _ReturnToFlags().visit(statement)
        body.extend(rendered if isinstance(rendered, list) else [rendered])
    if not isinstance(step.body[-1], ast.Return):
        body += [ast.Assign(targets=[ast.Name("flags", ast.Store())], value=ast.Constant(None)),
                 ast.Break()]
    loop = ast.While(test=ast.Constant(True), body=body, orelse=[])
    return ast.unparse(ast.fix_missing_locations(loop)) + "\n", None


#: (kernel kind, step code filename, first line) -> why that kernel's op
#: slot calls the step (``None``: it renders the step inline).
_refusals: Dict[Tuple[str, str, int], Optional[str]] = {}


def bind_kernel(
    kind: str,
    access_fast,
    render: Callable[[str, str, Tuple[str, ...]], str],
    names: Tuple[FrozenSet[str], FrozenSet[str]],
    fingerprint: tuple = (),
):
    """The ``kind`` kernel around ``access_fast``, and the reason its op
    slot calls the step rather than inlining it (``None`` when it inlines).

    ``render(op, op_form, bindings)`` renders the kernel's source with
    ``op`` in its slot and the names ``bindings`` bound from ``_bind``'s
    ``bound`` dict; ``names`` is the kernel's :func:`kernel_names`;
    ``fingerprint`` covers whatever else the template renders.  The
    inline form binds the step's closure; the call form renders no
    bindings and puts the step in ``bound`` as ``access_fast``, for a
    kernel that binds it from there (the sweep) rather than taking it
    as an argument (the replay).  Code compiles once per (kind, op form,
    fingerprint) per process and only the verdict is kept per step
    configuration, so the op slot's text renders again only when its
    kernel has to be compiled.  The kernel returned is bound to this
    step's objects: keep it no longer than its caller keeps the design.
    """
    source = template_source(access_fast)
    op = None
    if source is None:
        name = getattr(access_fast, "__qualname__", type(access_fast).__name__)
        reason: Optional[str] = f"access_fast ({name}) is not a generated step"
    else:
        code = access_fast.__code__
        key = (kind, code.co_filename, code.co_firstlineno)
        if key in _refusals:
            reason = _refusals[key]
        else:
            op, reason = _render_inline(source, code, names)
            _refusals[key] = reason
    if reason is None:
        op_form = "inline:" + code.co_filename[len("<specialized:"):-1]
        bound = {
            name: cell.cell_contents
            for name, cell in zip(code.co_freevars, access_fast.__closure__ or ())
        }
        bindings = tuple(bound)
    else:
        op, op_form, bound, bindings = CALL_OP, "call", {"access_fast": access_fast}, ()

    def build() -> str:
        body = op if op is not None else _render_inline(source, code, names)[0]
        return render(body, op_form, bindings)

    compiled = compiled_template(kind, (op_form,) + tuple(fingerprint), build, keep_source=False)
    return bind_template(compiled, bound), reason
