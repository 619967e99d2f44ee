package agg

// Accessors and operations only tests use.

// StopQuery cancels a query locally (results stop; dissemination of the
// stop is by epoch timeout in a full system and omitted here).
func (n *Node) StopQuery(id uint16) {
	if st, ok := n.queries[id]; ok {
		st.timer.Cancel()
		delete(n.queries, id)
	}
}
