"""key-hygiene — key bytes never reach an observable surface or a weak hash.

The whole point of FsEncr is that plaintext file keys exist only inside
the memory controller (PAPER §III-E: the OTT "never leaves the chip";
§VI: even revealing the memory encryption key must not expose file
keys).  The simulator mirrors that contract: key bytes must not leak
through debugging surfaces, which in Python means reprs, f-strings and
log/print calls — an ``OTTEntry`` in a traceback must not print its key.
Within the configured crypto paths this rule flags:

* dataclass fields with key-like names missing ``field(repr=False)``
  (the auto-generated ``__repr__`` would print the key bytes);
* key-like names formatted directly into f-strings, or passed directly
  to ``print``/logging calls (``len(key)`` and other derived metadata
  are fine);
* any key-like attribute referenced inside a hand-written ``__repr__``
  or ``__str__``;
* ``hashlib.md5`` / ``hashlib.sha1`` (including via ``hashlib.new`` or
  ``pbkdf2_hmac``) — broken primitives have no place in crypto paths.

Everywhere else the contract is carried by the type: every key source
returns a :class:`~repro.crypto.keys.SecretKey`, which redacts itself in
reprs, f-strings, logs and exception messages and refuses implicit
conversion to bytes, so a key cannot reach a stats counter, a
``RunResult`` or a cache key by accident.  The one way out is
``SecretKey.reveal()``, and this rule flags that call in every linted
file outside ``key-reveal-paths`` (the AES key schedule and key wrapping
in ``repro/crypto/``, the OTT spill region's sealing, the
machine-transport package).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Project, SourceFile, path_matches
from .base import Rule, attr_chain, is_keyish, register

_WEAK_HASHES = {"md5", "sha1"}
#: Calls whose arguments become user-visible text.
_LOG_CALLS = {"print", "debug", "info", "warning", "error", "critical", "exception", "log"}
#: Receivers that make a per-file ``x.info(...)`` call a logging call.
_LOGGER_NAMES = {"log", "logger", "logging"}


def _direct_keyish(node: ast.AST) -> bool:
    """True when the expression *is* key material (not derived metadata)."""
    if isinstance(node, ast.Name):
        return is_keyish(node.id)
    if isinstance(node, ast.Attribute):
        return is_keyish(node.attr)
    if isinstance(node, ast.Call):
        # hex()/repr()/str()/bytes() of a key is still the key.
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in {"hex", "repr", "str", "bytes", "format"} and node.args:
            return _direct_keyish(node.args[0])
        if isinstance(func, ast.Attribute) and func.attr == "hex":
            return _direct_keyish(func.value)
    if isinstance(node, ast.FormattedValue):
        return _direct_keyish(node.value)
    if isinstance(node, ast.Subscript):
        return _direct_keyish(node.value)
    return False


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        node = deco.func if isinstance(deco, ast.Call) else deco
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
        if name == "dataclass":
            return True
    return False


def _field_hides_repr(value) -> bool:
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", getattr(value.func, "attr", "")) == "field"):
        return False
    for kw in value.keywords:
        if kw.arg == "repr" and isinstance(kw.value, ast.Constant) and kw.value.value is False:
            return True
    return False


@register
class KeyHygiene(Rule):
    name = "key-hygiene"
    summary = "key bytes reach no repr or log; SecretKey.reveal() only where allowed; no md5/sha1"
    contract = "PAPER §III-E/§VI: plaintext file keys never leave the controller"

    def check(self, src: SourceFile, project: Project, options) -> Iterator[Finding]:
        if not path_matches(src.rel, options.get("key-reveal-paths", [])):
            yield from self._check_reveals(src)
        if not path_matches(src.rel, options.get("crypto-paths", [])):
            return
        yield from self._check_weak_hashes(src)
        yield from self._check_dataclass_reprs(src)
        yield from self._check_output_surfaces(src)

    # -- the one accessor to raw key bytes -------------------------------

    def _check_reveals(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reveal"
            ):
                yield self.finding(
                    src,
                    node,
                    "SecretKey.reveal() outside key-reveal-paths; pass the SecretKey "
                    "itself, or fingerprint() it",
                )

    # -- weak hash primitives -------------------------------------------

    def _check_weak_hashes(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func) or []
                if len(chain) == 2 and chain[0] == "hashlib" and chain[1] in _WEAK_HASHES:
                    yield self.finding(
                        src, node, f"hashlib.{chain[1]} is cryptographically broken; use sha256"
                    )
                elif chain[-1:] == ["new"] and chain[:1] == ["hashlib"] and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Constant) and first.value in _WEAK_HASHES:
                        yield self.finding(
                            src, node, f"hashlib.new({first.value!r}) is broken; use sha256"
                        )
                elif chain[-1:] == ["pbkdf2_hmac"] and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Constant) and first.value in _WEAK_HASHES:
                        yield self.finding(
                            src, node, f"pbkdf2_hmac over {first.value!r} is too weak; use sha256"
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "hashlib":
                for alias in node.names:
                    if alias.name in _WEAK_HASHES:
                        yield self.finding(
                            src, node, f"importing hashlib.{alias.name} into a crypto path is banned"
                        )

    # -- repr leaks ------------------------------------------------------

    def _check_dataclass_reprs(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for item in node.body:
                if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
                    continue
                if is_keyish(item.target.id) and not _field_hides_repr(item.value):
                    yield self.finding(
                        src,
                        item,
                        f"dataclass field '{item.target.id}' holds key material but the "
                        f"auto-repr would print it; use field(repr=False)",
                    )

    def _check_output_surfaces(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.FormattedValue) and _direct_keyish(node.value):
                yield self.finding(
                    src, node, "key material formatted into an f-string; never render key bytes"
                )
            elif isinstance(node, ast.Call) and self._is_output_call(node):
                for arg in node.args:
                    if _direct_keyish(arg):
                        yield self.finding(
                            src, arg, "key material passed to a print/log call; never log key bytes"
                        )
            elif isinstance(node, ast.FunctionDef) and node.name in ("__repr__", "__str__"):
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Load)
                        and is_keyish(sub.attr)
                    ):
                        yield self.finding(
                            src,
                            sub,
                            f"{node.name} references key field '.{sub.attr}'; reprs must "
                            f"not expose key material",
                        )

    @staticmethod
    def _is_output_call(node: ast.Call) -> bool:
        chain = attr_chain(node.func)
        if not chain or chain[-1] not in _LOG_CALLS:
            return False
        return len(chain) == 1 or chain[0] in _LOGGER_NAMES or chain[0].endswith("log")
