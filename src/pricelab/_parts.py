"""Forked helper processes, each computing one part of a report.

``experiment``'s part runner splits a catalog into contiguous parts and
runs every part but the first in a ``Helper``: a process forked from this
one, so it shares the parsed catalog without pickling it.  The helper
reports its part's status through a pipe once its checks end and renders
its text into an unlinked temporary file, which the parent copies in
catalog order; ``Helper.close`` reaps it on every path.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections.abc import Iterator


class Helper:
    """A forked process that runs ``run()`` on one part of a report.

    ``run()`` runs every check of the part and returns its status and its
    text, a lazy iterable of strings.  The helper sends the status, or the
    exception of a failed check, through a pipe as soon as the checks end,
    then writes the text into an unlinked temporary file and exits.
    """

    def __init__(self, run):
        self.out = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
        self.status, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (self.status, write):
                os.close(fd)
            self.out.close()
            raise
        if self.pid == 0:
            code = 1
            try:  # the helper leaves only through os._exit, so it flushes none of the parent's buffers
                try:
                    status, text = run()
                except Exception as exc:
                    status = exc
                with open(write, "wb") as pipe:
                    pipe.write(pickle.dumps(status))
                if not isinstance(status, Exception):
                    self.out.writelines(text)
                    self.out.flush()
                    code = 0
            finally:
                os._exit(code)
        os.close(write)  # so the pipe ends when the helper closes it, and no later helper holds it

    def checked(self):
        """The part's status, once its checks have passed; a failed check
        raises its error here."""
        with open(self.status, "rb") as pipe:
            self.status = None
            data = pipe.read()
        if not data:
            raise ChildProcessError(f"a report helper process exited with status {self._wait()}")
        status = pickle.loads(data)
        if isinstance(status, Exception):
            raise status
        return status

    def text(self) -> Iterator[str]:
        """The part's rendered text, in chunks, once the helper has exited."""
        code = self._wait()
        if code:
            raise ChildProcessError(f"a report helper process exited with status {code}")
        self.out.seek(0)
        yield from iter(lambda: self.out.read(1 << 16), "")

    def _wait(self) -> int:
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)

    def close(self) -> None:
        """Stop the helper if it still runs (its text is not wanted), reap
        it, and release its pipe and file."""
        if self.pid is not None:
            import signal  # imported where it is used, so importing pricelab loads no module numpy does not

            os.kill(self.pid, signal.SIGKILL)
            self._wait()
        if self.status is not None:
            os.close(self.status)
        self.out.close()
