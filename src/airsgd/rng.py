"""Substream derivation for reproducible simulation randomness.

All randomness flows through numpy's SFC64 bit generator, one generator a
key, seeded by ``SeedSequence(key)``. Each consumer derives its own stream
from (master_seed, stream tag, indices...), so results never depend on the
order in which tensors are drawn or on the evaluation cadence, and no stream
is jumped or advanced: a counter-based generator's jump-ahead (Philox's)
would buy nothing, and SFC64 draws a normal in about two thirds of Philox's
time. Within a stream, each tensor is drawn in one vectorized call, in a
documented order and axis layout, which pins the stream position of every
scalar; a tensor drawn in consecutive slices along its first axis from one
``Generator`` has the same bytes, since the stream fills in C order. A
training run derives CHANNEL, NOISE and, with batch_size set, BATCH once per
iteration t, keyed (master_seed, tag, t). The cells of one
``experiment.run_cells`` ensemble share these substreams, and each shared
draw is made once per iteration for the whole group. ``data.make_synthetic``
draws the cluster means' normals from (dataset_seed, DATASET), and class
c's train rows, then its test rows, from (dataset_seed, DATASET, c + 1);
key c would give class 0 the means' stream, by the trailing-zero rule
below. One stream carries no tag: ``data.partition`` draws the devices'
local sets, device by device, from ``generator(master_seed)``, the SFC64
stream seeded by the master seed alone.

The key (seed, tag, *indices) is handed to ``SeedSequence`` as its entropy,
and that encoding is not one-to-one, so two rules keep keys apart:

* trailing zeros are dropped: ``(s, tag)``, ``(s, tag, 0)`` and
  ``(s, tag, 0, 0)`` give one stream. No two keys of one run, or of one
  verify-stats call, differ only in trailing zeros. A run and a verify-stats
  call at one seed do share streams this way (verify's (s, CHANNEL, 1, 0)
  is a run's (s, CHANNEL, 1)), but no figure draws on both;
* an int of ``SEED_LIMIT`` (2^32) or more spans two words, so
  ``(5 + 2**32, tag, 3)`` is ``(5, tag, 1, 3)``. Every seed the program
  accepts (``master_seed``, ``dataset.seed``, ``verify-stats --seed``) is
  checked to lie below it.

The package's threads and worker processes live here too, since these
keys are why no output byte depends on the thread or process that does the
work: a draw's bytes are fixed by its substream key, a row copy is a copy,
a device's backward product has the same shape in any thread, and results
are combined in a fixed order.
``side_worker(nbytes)`` is one thread beside the caller's, and it decides
once, on entry, whether a block gets it: only with a second CPU and
``nbytes`` at least ``_OFFLOAD_BYTES``. Each caller's docstring says what it
hands the thread; the bytes it passes are one iteration's gradients for
``experiment.run_cells``, the float64 draw for ``data.make_synthetic`` and a
suite's channel gains for ``verify``. ``one_blas_thread`` pins numpy's
OpenBLAS to one thread for the length of a run: its products then round the
same whatever the CPU count, and the side worker's half of the backward does
not compete with BLAS threads for the cores. ``map_groups`` pins it from
before its first fork, or each worker would pay for OpenBLAS's thread pool
in its first group. ``map_groups`` runs a sweep's ensemble groups on worker
processes beside the caller, which runs a fixed first share of them; each
worker is forked directly, with one pipe for its contiguous slice of the
later groups, and no pool or helper thread is made. A group's bytes depend
only on its configs, so the same bytes come back from any process. A worker
dies with the caller: at once on the caller's exception or close, and on
Linux however the caller ends.

One rule, the gate of 512 KiB (``_OFFLOAD_BYTES``), places every thread the
program starts and a sweep's second CPU, and ``block_length`` sizes every
draw block and backward chunk by it: as many items as fit in the gate's
bytes, at least one. A run's ``channel.sample_combined`` call draws that
many iterations' coefficients and noise: one whenever the side worker is on,
since an iteration's coefficients outweigh its gradients; four for a
desk-size group of four cells; the whole run for the minimal template. Each
half of a full-batch backward gathers that many devices' float32 rows a
call: one at paper size (3.1 MB a device), and the whole half, once a run,
at desk size. A ``verify`` chunk is drawn and reduced that many channel
matrices at a time. A sweep's gate reads the gradient bytes of one iteration
of its largest group: groups at or above it run one after another, each with
the side worker; groups below it run side by side on ``map_groups``'
processes, each in one thread. A sweep uses its second CPU inside a group or
across groups, never both. The one exception is a group whose synthetic draw
passes the gate while its gradients do not (a paper-size dataset on a few
devices): its process draws the classes on two threads.
"""

import contextlib
import ctypes
import functools
import glob
import os
import pickle
import sys
import threading
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import numpy as np

# Stream tags. Values are part of the reproducibility contract: changing
# them changes every derived stream. Tag 3 is unassigned.
CHANNEL = 1
NOISE = 2
BATCH = 4
DATASET = 5

# Seeds lie in [0, SEED_LIMIT): one 32-bit word of SeedSequence entropy.
SEED_LIMIT = 2**32

try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    _WORKERS = os.cpu_count() or 1
# A side_worker block whose nbytes is smaller than this stays in the
# caller's thread: handing its work over costs more than it overlaps. A
# training run passes the bytes of one iteration's (R, M, d) float64
# gradients: 1,256,000 for the paper-size stand-in (2.4x the gate), 105,600
# for desk_sweep's largest group (R = 4) and 4,224 for the minimal template.
# Every array such a run hands over falls on the same side of the gate.
# map_groups forks workers only for groups below it.
_OFFLOAD_BYTES = 1 << 19


def substream(master_seed: int, tag: int, *indices: int) -> np.random.SeedSequence:
    """Seed material for the (tag, indices) stream of a master seed."""
    return np.random.SeedSequence((int(master_seed), int(tag), *map(int, indices)))


def generator(seed) -> np.random.Generator:
    """SFC64 generator from an int, tuple, or SeedSequence seed.

    An int or tuple key is ``SeedSequence(key)``'s entropy; a SeedSequence
    seeds SFC64 as it is. A ``Generator`` is returned as is, so a sampler
    handed one continues its stream: N matrices drawn in consecutive slices
    from one generator are the bytes of one N-matrix draw.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.SFC64(seed))


def map_groups(fn, groups, nbytes: int):
    """Yield ``fn(g)`` for each group g, in group order: ``[fn(g) for g in groups]``, lazily.

    Given two or more groups, ``_WORKERS`` > 1, ``fork``, no other thread
    alive and ``nbytes`` (the largest group's, as ``side_worker`` is given
    them) below ``_OFFLOAD_BYTES``, P = min(``_WORKERS``, len(groups))
    processes share the groups: the caller runs the first
    ceil(len(groups) / P) itself, and each of P - 1 forked workers a
    contiguous slice of the rest, in group order. Otherwise every group runs
    in the caller, one after another. A worker runs its slice to the end or
    to its first exception, then writes one pickled list of its results,
    and that exception, to its pipe and exits; it never waits on the
    caller before that. Results are yielded in group order; a group's
    exception is raised at its turn, after the results of every earlier
    group, and later groups' results are dropped; a worker's exception has
    its traceback in the worker as its ``__cause__``. A worker that exits
    without writing its results raises ``BrokenExecutor`` at its slice's
    turn. Closing the generator, or an exception in it, kills every worker
    at once with SIGKILL and reaps it, so no process outlives it; on Linux
    a caller killed before that, by SIGTERM say, takes its workers with it
    (``_adopt``).
    """
    processes = min(_WORKERS, len(groups))
    if (processes < 2 or nbytes >= _OFFLOAD_BYTES or not hasattr(os, "fork")
            or threading.active_count() > 1):
        yield from map(fn, groups)
        return
    import signal  # here, so that a process that never forks does not load it

    share = -(-len(groups) // processes)
    later = len(groups) - share
    bounds = [share + later * k // (processes - 1) for k in range(processes)]
    # no worker starts with a copy of the caller's buffered output
    sys.stdout.flush()
    sys.stderr.flush()
    caller, pids, reads = os.getpid(), [], []  # workers not yet reaped, pipes not yet closed
    with one_blas_thread():
        try:
            for start, stop in zip(bounds, bounds[1:]):
                read, write = os.pipe()
                reads.append(read)
                try:
                    pid = os.fork()
                    if pid == 0:
                        _work(fn, groups[start:stop], write, reads, caller)
                finally:
                    os.close(write)
                pids.append(pid)
            yield from map(fn, groups[:share])
            while pids:
                with open(reads[0], "rb", closefd=False) as pipe:
                    payload = pipe.read()
                os.close(reads.pop(0))
                status = os.waitpid(pids[0], 0)[1]
                pid = pids.pop(0)
                if status != 0:
                    raise BrokenExecutor(f"worker process {pid} ended without its groups' "
                                         f"results (wait status {status})")
                results, error, trace = pickle.loads(payload)
                yield from results
                if error is not None:
                    raise error from _WorkerTraceback(f"in worker process {pid}:\n{trace}")
        finally:
            for fd in reads:
                os.close(fd)
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)


def _work(fn, groups, write: int, reads, caller: int):
    """A forked worker's life: run ``groups``, write their results to ``write``, exit.

    Exits 0 once the results are written, 1 if it cannot write them (a
    result that does not pickle, say); never returns.
    """
    code = 1
    try:
        for fd in reads:
            os.close(fd)
        _adopt(caller)
        results, error, trace = [], None, None
        try:
            for group in groups:
                results.append(fn(group))
        except BaseException as exc:  # the caller raises it at its group's turn
            import traceback

            error, trace = exc, traceback.format_exc()
        with open(write, "wb", closefd=False) as pipe:
            pipe.write(pickle.dumps((results, error, trace)))
        code = 0
    finally:
        os._exit(code)


class _WorkerTraceback(Exception):
    """The cause of an exception from a worker: where in the worker it was raised."""


_PR_SET_PDEATHSIG = 1  # Linux's prctl option: a signal for when the parent dies


def _adopt(caller: int) -> None:
    """On Linux, make a forked worker die with its caller.

    The kernel sends the worker SIGKILL when the caller dies, by SIGTERM or
    SIGKILL too, which skip the caller's clean-up. A caller that died
    before the request was made has left the worker another parent, and
    the worker exits at once. Only the caller writes files, so no file is
    lost with the worker.
    """
    if sys.platform.startswith("linux"):
        import signal

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != caller:
            os._exit(1)


def block_length(item_bytes: int) -> int:
    """Items of ``item_bytes`` each in one block: as many as fit the gate, at least one."""
    return max(1, _OFFLOAD_BYTES // item_bytes)


@contextlib.contextmanager
def side_worker(nbytes: int):
    """One worker thread for work that can overlap the caller's, as ``start``.

    ``start(fn, *args)`` returns a zero-argument callable that gives
    ``fn(*args)``. When there are ``_WORKERS`` > 1 CPUs and ``nbytes`` is at
    least ``_OFFLOAD_BYTES``, fn begins at once on the worker (numpy releases
    the interpreter lock while it draws, copies and multiplies) and the
    callable waits for it. Otherwise no thread is made, ``start`` is
    ``functools.partial`` itself and fn runs in the caller's thread when the
    callable is called; a caller that would cut work in two only to hand one
    part over checks for that and keeps the work whole. Callers call every
    callable they start, so an exception from the worker is raised where its
    result is used. Leaving the block cancels work not yet begun and waits
    for the running one, so no thread outlives it.
    """
    if _WORKERS < 2 or nbytes < _OFFLOAD_BYTES:
        yield functools.partial
        return
    pool = ThreadPoolExecutor(1)

    def start(fn, *args):
        return pool.submit(fn, *args).result

    try:
        yield start
    finally:
        pool.shutdown(cancel_futures=True)


@functools.cache
def _openblas_threads():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None where there is none.

    The symbols carry the wheel's prefix and suffix (``scipy_openblas_..64_``)
    or none, by build.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# The thread count is OpenBLAS's, one per process, so the count of blocks
# that pin it is too.
_blas_lock = threading.Lock()
_blas_pins = 0  # one_blas_thread blocks open now
_blas_restore = None  # the thread count the first of them found


@contextlib.contextmanager
def one_blas_thread():
    """Pin numpy's OpenBLAS to one thread for the block, then restore its count.

    OpenBLAS splits a large product over its threads, and the split changes
    the product's last bits, so a run's bytes would depend on the CPU count
    and on ``OPENBLAS_NUM_THREADS``. Blocks may overlap in several threads:
    the first to enter pins, the last to leave restores. Where numpy carries
    no OpenBLAS of its own, BLAS is left as it is.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    global _blas_pins, _blas_restore
    get, set_ = threads
    with _blas_lock:
        if _blas_pins == 0:
            _blas_restore = get()
            set_(1)
        _blas_pins += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pins -= 1
            if _blas_pins == 0:
                set_(_blas_restore)
