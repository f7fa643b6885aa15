"""Convex decomposition of amoebot structures on the triangular grid."""

from .grid import AmoebotStructure, Direction, GridPoint, Hole, find_holes
from .portals import AXES, Axis, Portal, PortalGraph, compute_portals, portal_graph
from .split import Gate, NodeCut, Region, split_many

__all__ = [
    "AmoebotStructure",
    "Direction",
    "GridPoint",
    "Hole",
    "find_holes",
    "AXES",
    "Axis",
    "Portal",
    "PortalGraph",
    "compute_portals",
    "portal_graph",
    "Gate",
    "NodeCut",
    "Region",
    "split_many",
]

__version__ = "0.1.0"
