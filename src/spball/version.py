__version__ = "0.15.0"
