__version__ = "0.22.0"
