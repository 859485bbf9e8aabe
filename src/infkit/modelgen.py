"""No code. The benchmark's layer list (`perfbench/layers.py`) names this
module and its tracer imports every module on that list, so the file stays
until the list drops it."""
