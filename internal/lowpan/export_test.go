package lowpan

// Accessors and operations only tests use.

// PendingReassemblies returns the number of incomplete datagrams held.
func (a *Adaptation) PendingReassemblies() int { return len(a.reasm) }
