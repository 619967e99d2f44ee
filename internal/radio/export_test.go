package radio

// Accessors and operations only tests use.

// SetPosition moves a node (e.g., a mobile asset tag). Any move voids
// every sender's link list (layoutGen) and the hearing state.
func (m *Medium) SetPosition(id NodeID, pos Position) {
	m.mustNode(id).pos = pos
	m.layoutGen++
	m.stale = true
}
