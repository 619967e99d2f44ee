package trace

// Readers and filters only tests use.

// NumTypes returns the number of defined event types.
func NumTypes() int { return int(numTypes) }

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// ByLayer returns a copy of f restricted to one layer (LayerAny lifts
// any existing layer restriction).
func (f Filter) ByLayer(l Layer) Filter {
	return f.ByLayers(l)
}

// IsCoAP reports whether the journey carries a CoAP exchange.
func (j *Journey) IsCoAP() bool {
	for _, e := range j.Events {
		if e.Type == CoAPRequest {
			return true
		}
	}
	return false
}
