"""``python -m v2vlos`` and the ``v2vlos`` console script: run ``v2vlos.cli`` as the program."""

import runpy


def main() -> None:
    runpy.run_module("v2vlos.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
