"""One sample of one workload, in a fresh process.

`ru_maxrss` is a per-process high-water mark, so every sample runs in its
own process and reports its own peak. The last stdout line is a JSON
object; an `error` key marks a failed sample.

    python3 perfbench/worker.py --workload reference --seed 42 --work DIR [--audit] [--spans FILE]
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="scratch directory for this sample")
    parser.add_argument("--audit", action="store_true", help="also run evaluate and replay")
    parser.add_argument("--spans", help="trace the sample and write its spans to this file")
    parser.add_argument("--tiny", action="store_true", help="self-test cohort size")
    parser.add_argument("--setup-only", action="store_true", help="time set-up, run nothing")
    args = parser.parse_args()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    try:
        import workloads  # imports auss: part of set-up

        tracer = None
        if args.spans:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        inputs = workloads.prepare(args.workload, args.seed, args.tiny, work)
        result = {"setup_s": time.perf_counter() - START}
        if not args.setup_only:
            sample = workloads.execute(args.workload, args.seed, args.tiny, inputs, args.audit)
            result.update(asdict(sample))
            if tracer is not None:
                result["layers"] = tracing.layer_metrics(tracer, sample.wall_s)
                tracer.write(Path(args.spans))
    except Exception:  # noqa: BLE001 - any failure of the program fails the sample
        result = {"error": traceback.format_exc()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
