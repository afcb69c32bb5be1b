"""DDoS flood detection toolkit.

Synthetic traffic scenarios, pcap decoding, windowed feature extraction,
a from-scratch 24-106-5 neural classifier, and confusion-matrix metrics,
wired together by the `floodgate` command-line tool.
"""

__version__ = "0.1.0"
