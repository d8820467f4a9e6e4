import os
import sys

# the benchmark's modules are scripts in perfbench/, imported by file name
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
