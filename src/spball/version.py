__version__ = "0.4.0"
