"""Check reports: per-axiom pass/fail with witnesses, plus CLI report text."""

from __future__ import annotations

from typing import Any, Optional

MAX_WITNESSES = 8


class CheckEntry:
    def __init__(self, name: str, ok: bool, witnesses: Optional[list] = None, detail: str = ""):
        self.name, self.ok, self.detail = name, ok, detail
        self.witnesses = [] if witnesses is None else witnesses

    def describe(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        msg = f"{status} {self.name}"
        if self.detail:
            msg += f" ({self.detail})"
        if not self.ok and self.witnesses:
            # the first MAX_WITNESSES, then any named witness (such as "unit") past them
            shown = self.witnesses[:MAX_WITNESSES]
            shown += [w for w in self.witnesses[MAX_WITNESSES:] if isinstance(w, str)]
            msg += f" witnesses={shown}"
            if len(shown) < len(self.witnesses):
                msg += f" (+{len(self.witnesses) - len(shown)} more)"
        return msg


class CheckReport:
    """Outcome of an exhaustive axiom check.  Violations are entries, not errors."""

    def __init__(self, title: str = ""):
        self.title = title
        self.entries: list[CheckEntry] = []

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def add(self, name: str, ok: bool, witnesses: Optional[list] = None, detail: str = "") -> CheckEntry:
        entry = CheckEntry(name, ok, list(witnesses or [])[:MAX_WITNESSES], detail)
        self.entries.append(entry)
        return entry

    def record(self, name: str, witnesses: list) -> None:
        """An entry that fails exactly when there are witnesses, all of them kept."""
        self.entries.append(CheckEntry(name, not witnesses, witnesses))

    def merge(self, other: "CheckReport", prefix: str = "") -> None:
        for e in other.entries:
            self.entries.append(CheckEntry(prefix + e.name, e.ok, e.witnesses, e.detail))

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.ok]

    def raise_failures(self, error: type[Exception], prefix: str) -> None:
        """Raise error(prefix + the failing entry names, comma-separated) unless every entry passes."""
        if not self.ok:
            raise error(prefix + ", ".join(e.name for e in self.failures()))

    def describe(self) -> str:
        lines = [f"== {self.title} ==" if self.title else "== check report =="]
        lines += [e.describe() for e in self.entries]
        return "\n".join(lines)

    def __repr__(self):
        status = "ok" if self.ok else f"{len(self.failures())} failures"
        return f"CheckReport({self.title!r}: {status})"


class Report:
    """Human-readable + machine-readable command output.

    Exit code is 0 iff no FAIL line was recorded.  The machine block is a
    list of ':: key=value' lines consumed by the acceptance suite.
    """

    def __init__(self, title: str):
        self.title = title
        self.lines: list[str] = []
        self.kv: dict[str, Any] = {}
        self.failed = False

    def info(self, text: str) -> None:
        self.lines.append(text)

    def status(self, name: str, ok: bool, detail: str = "") -> None:
        word = "PASS" if ok else "FAIL"
        if not ok:
            self.failed = True
        self.lines.append(f"{word} {name}" + (f": {detail}" if detail else ""))

    def skipped(self, name: str, reason: str) -> None:
        self.lines.append(f"SKIPPED {name}: {reason}")

    def absorb(self, check: CheckReport) -> None:
        for e in check.entries:
            self.status(e.name, e.ok, e.detail if e.ok else e.describe())

    def set(self, key: str, value: Any) -> None:
        self.kv[key] = value

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def render(self) -> str:
        out = [f"# {self.title}"]
        out += self.lines
        for k in sorted(self.kv):
            out.append(f":: {k}={self.kv[k]}")
        return "\n".join(out)

    @staticmethod
    def parse_kv(text: str) -> dict[str, str]:
        out = {}
        for line in text.splitlines():
            if line.startswith(":: ") and "=" in line:
                k, v = line[3:].split("=", 1)
                out[k] = v
        return out
