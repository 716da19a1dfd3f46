"""``python -m repro.obs FILE...``: validate saved RunReport files; exit 1
if any is invalid. It lives here because ``repro.obs`` imports
``repro.obs.report`` first, so ``-m repro.obs.report`` makes runpy warn."""

from repro.obs.report import _main

if __name__ == "__main__":
    raise SystemExit(_main())
