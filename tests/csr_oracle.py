"""scipy as the oracle of :class:`sg.game.CsrTable`: the tests read a game's
table against the scipy CSR matrix built explicitly from its arrays."""

import scipy.sparse as sp

from sg.game import CsrTable


def as_scipy(table: CsrTable) -> sp.csr_matrix:
    """The scipy CSR matrix over the table's own arrays."""
    return sp.csr_matrix((table.data, table.indices, table.indptr), shape=table.shape)


def gathered(table: CsrTable, rows) -> CsrTable:
    """The table of ``rows``, in the order given, gathered by scipy's row
    indexing."""
    m = as_scipy(table)[rows]
    return CsrTable(m.data, m.indices, m.indptr, m.shape)
