"""Print the configuration this process would run: ``python -m repro``.

One ``NAME=value`` line per ``REPRO_*`` knob, parsed the way the library
parses it (an invalid value warns and shows its default; run under
``python -W error::RuntimeWarning`` to make it fail instead).
"""

from .settings import KNOBS, setting

if __name__ == "__main__":
    for knob in KNOBS:
        print(f"{knob.name}={setting(knob.name)}")
