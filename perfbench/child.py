"""Run dafsc CLI jobs in a fresh interpreter and report what they cost.

Usage: python3 child.py SPEC.json

SPEC is a JSON object written by run.py:

    {"src": directory holding the dafsc package,
     "jobs": [argv list for dafsc.cli.main, ...],
     "trace": false | true,
     "result": path of the JSON result this process writes}

The process imports ``dafsc.cli`` (the import is part of ``setup_s``), wraps
the public functions it checks or traces, calls ``dafsc.cli.main`` once per
job and writes its timestamps, exit codes, resource usage, the full-precision
analytical values the CLI computed and, when tracing, the per-layer records.

All timestamps come from CLOCK_MONOTONIC, which is shared by every process
on the machine, so the parent can subtract its own spawn time from them.
"""

import json
import resource
import sys
import threading
import time

import numpy as np


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Public functions wrapped in a traced run: (layer, module, name).  Every
# binding of the function object inside the dafsc package is replaced, so a
# name imported with ``from .fading import generate_fading`` is wrapped too.
TRACED = [
    ("harness", "dafsc.harness", "run_ber_curve"),
    ("harness", "dafsc.harness", "run_power_allocation_sweep"),
    ("harness", "dafsc.harness", "run_outage_curve"),
    ("harness", "dafsc.harness", "simulate_point"),
    ("harness", "dafsc.harness", "trial_seed_sequence"),
    ("harness", "dafsc.harness", "write_ber_csv"),
    ("harness", "dafsc.harness", "write_outage_csv"),
    ("fading", "dafsc.fading", "generate_fading"),
    ("fading", "dafsc.fading", "generate_awgn"),
    ("phy", "dafsc.phy", "chain_error_counts"),
    ("analysis", "dafsc.analysis", "analytical_ber"),
    ("analysis", "dafsc.analysis", "outage_probability"),
    ("specfn", "dafsc.specfn", "integrate_theta"),
    ("specfn", "dafsc.specfn", "scaled_e1"),
    ("specfn", "dafsc.specfn", "bessel_k1_scaled"),
]

# Wrapped in every run: their return values are the analytical outputs the
# correctness gate compares with the frozen reference at full precision.
CAPTURED = {"analytical_ber", "outage_probability"}


def _size(x):
    return int(np.size(x))


class Recorder:
    """Wraps public dafsc functions; with ``trace`` also records spans.

    Per thread, a stack of open spans turns inclusive durations into self
    times (duration minus the time spent in wrapped callees on the same
    thread).  Everything is kept in memory until the process ends.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.local = threading.local()
        self.lock = threading.Lock()
        self.ber_values = []      # [order, total_power, q, value]
        self.outage_values = []   # [gamma, total_power, q, value]
        self.stats = {}           # name -> {"calls", "busy_s", "self_s", ...}
        self.durations = []       # seconds per analytical_ber call
        self.trials = []          # [point, trial, t_begin, t_end, child_s, err_sc, err_mrc, symbols]
        self.points = []          # [point, t_begin, t_end, min_bit_errors, min_error_trials]

    def install(self):
        import dafsc  # noqa: F401  (loads every submodule)

        for layer, module_name, name in TRACED:
            if not self.trace and name not in CAPTURED:
                continue
            module = sys.modules[module_name]
            original = getattr(module, name)
            wrapper = self._wrap(f"{layer}.{name}", name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "dafsc" or mod_name.startswith("dafsc."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    # ------------------------------------------------------------------
    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def span(self, key, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``key``; returns (result, t0, t1)."""
        stack = self._stack()
        frame = [0.0]  # time spent in wrapped callees
        stack.append(frame)
        t0 = now()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = now()
            stack.pop()
            if stack:
                stack[-1][0] += t1 - t0
            with self.lock:
                st = self.stats.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                st["calls"] += 1
                st["busy_s"] += t1 - t0
                st["self_s"] += (t1 - t0) - frame[0]
                if key == "analysis.analytical_ber":
                    self.durations.append(t1 - t0)
        return result, t0, t1

    def _count(self, key, **counts):
        with self.lock:
            st = self.stats[key]
            for k, v in counts.items():
                st[k] = st.get(k, 0) + v

    def _wrap(self, key, name, fn):
        rec = self

        if not rec.trace:
            def capture(*args, **kwargs):
                result = fn(*args, **kwargs)
                rec._capture(name, args, kwargs, result)
                return result
            return capture

        def traced(*args, **kwargs):
            if name == "integrate_theta":
                # the integrand is a callback from the analysis layer
                f = args[0] if args else kwargs.pop("f")
                args = (rec._wrap_integrand(f),) + tuple(args[1:])
            if name == "trial_seed_sequence":
                # a trial's harness work starts here and ends when its chain
                # call returns on the same thread
                rec.local.trial = [args[1], args[2], now(), 0.0]
            if name == "simulate_point":
                config = args[0] if args else kwargs["config"]
                point = args[2] if len(args) > 2 else kwargs["point_index"]
            result, t0, t1 = rec.span(key, fn, *args, **kwargs)
            trial = getattr(rec.local, "trial", None)
            if name in ("generate_fading", "generate_awgn") and trial is not None:
                trial[3] += t1 - t0
            if name == "generate_fading":
                config = args[0] if args else kwargs["config"]
                rec._count(key, taps=_size(result),
                           cos_evals=2 * config.num_sinusoids * _size(result))
            elif name == "generate_awgn":
                rec._count(key, samples=_size(result))
            elif name == "chain_error_counts":
                symbols = _size(args[0] if args else kwargs["v_idx"])
                rec._count(key, symbols=symbols, error_trials=int(result[0] > 0))
                if trial is not None:
                    with rec.lock:
                        rec.trials.append([trial[0], trial[1], trial[2], t1,
                                           trial[3] + (t1 - t0), int(result[0]),
                                           int(result[1]), symbols])
                    rec.local.trial = None
            elif name == "simulate_point":
                with rec.lock:
                    rec.points.append([point, t0, t1, config.min_bit_errors,
                                       config.min_error_trials])
            elif name in ("scaled_e1", "bessel_k1_scaled"):
                rec._count(key, elems=_size(args[0] if args else kwargs["x"]))
            rec._capture(name, args, kwargs, result)
            return result

        return traced

    def _wrap_integrand(self, f):
        def integrand(theta):
            result = self.span("analysis.integrand", f, theta)[0]
            self._count("analysis.integrand", nodes=_size(theta))
            return result
        return integrand

    def _capture(self, name, args, kwargs, result):
        if name == "analytical_ber":
            mod = args[0] if args else kwargs["mod"]
            profile = args[1] if len(args) > 1 else kwargs["profile"]
            with self.lock:
                self.ber_values.append([mod.order, profile.total_power, profile.q,
                                        float(result)])
        elif name == "outage_probability":
            gamma = args[0] if args else kwargs["gamma_th"]
            profile = args[1] if len(args) > 1 else kwargs["profile"]
            if isinstance(gamma, float) and isinstance(result, float):
                with self.lock:
                    self.outage_values.append([gamma, profile.total_power,
                                               profile.q, result])
                return
            g = np.ravel(np.asarray(gamma, dtype=float))
            v = np.ravel(np.asarray(result, dtype=float))
            with self.lock:
                self.outage_values.extend(
                    [float(gi), profile.total_power, profile.q, float(vi)]
                    for gi, vi in zip(g, v))


def peak_rss_kb():
    """This image's resident-set high-water mark.

    ``ru_maxrss`` is not used: across fork and exec it keeps the parent's
    resident size, so it would measure the benchmark instead of dafsc.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import dafsc
    import dafsc.cli

    recorder = Recorder(trace=spec["trace"])
    recorder.install()
    t_ready = now()
    codes = []
    t_jobs = []
    for argv in spec["jobs"]:
        if recorder.trace:
            code = recorder.span("cli.main", dafsc.cli.main, argv)[0]
        else:
            code = dafsc.cli.main(argv)
        codes.append(code)
        t_jobs.append(now())
    t_done = now()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "t_ready": t_ready,
        "t_done": t_done,
        "t_jobs": t_jobs,
        "exit_codes": codes,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_kb": peak_rss_kb(),
        "backend": dafsc.BACKEND,
        "has_numba": dafsc.HAS_NUMBA,
        "numpy": np.__version__,
        "ber_values": recorder.ber_values,
        "outage_values": recorder.outage_values,
    }
    if recorder.trace:
        result.update(stats=recorder.stats, durations=recorder.durations,
                      trials=recorder.trials, points=recorder.points)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
