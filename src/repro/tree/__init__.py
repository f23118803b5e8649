"""Cut tree structure and constant-time LCA."""

from repro.tree.cut_tree import CutTree, TreeNode
from repro.tree.lca import BitCodeLCA, LCATable

__all__ = ["BitCodeLCA", "CutTree", "LCATable", "TreeNode"]
