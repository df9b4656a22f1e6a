"""In-memory span tracer that wraps public functions from outside the package.

A span is recorded around each call of a wrapped function: its name, start,
end (integer nanoseconds from perf_counter_ns), the index of the span that
was open when it started, and whether it raised. The span name is
``<layer>.<function>``; everything before the first dot names the layer.
Spans stay in memory until the caller writes them out.

Functions are wrapped at the module attribute where callers look them up
(``relaysim.link.complex_normal``, not only ``relaysim.channel.complex_normal``),
because ``from x import f`` binds a separate name in the importing module.
"""

import contextlib
import time

ROOT = -1


class Tracer:
    """Span recorder plus the monkeypatches that feed it."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, raised]
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block (the benchmark's own pass
        boundaries and bookkeeping)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else ROOT
        self.spans.append([name, time.perf_counter_ns(), 0, parent, False])
        self._stack.append(index)
        try:
            yield
        except BaseException:
            self.spans[index][4] = True
            raise
        finally:
            self.spans[index][2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name):
        """Return fn wrapped in a span; name may be a callable of the call's
        positional arguments that returns the span name."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name if fixed else name(args),
                          0, 0, stack[-1] if stack else ROOT, False])
            stack.append(index)
            spans[index][1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[index][4] = True
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attribute, name):
        """Replace owner.attribute by a traced version (restored by unpatch).

        Class attributes that are classmethods are unwrapped and re-wrapped
        so the descriptor keeps working.
        """
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(raw, classmethod):
            self.replace(owner, attribute, classmethod(self.wrap(raw.__func__, name)))
        else:
            self.replace(owner, attribute, self.wrap(raw, name))

    def replace(self, owner, attribute, value):
        """Set owner.attribute to value until unpatch restores the original."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def unpatch(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def clear(self):
        self.spans.clear()
        self._stack.clear()


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Per-span self time in ns: duration minus the durations of direct
    children. Children of one span never overlap (one thread), so the
    result is never negative."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent != ROOT:
            own[parent] -= end - start
    return own
