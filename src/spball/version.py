__version__ = "0.20.0"
