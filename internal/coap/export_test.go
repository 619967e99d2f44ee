package coap

// Client-side calls and message readers only tests make.

// CancelObserve deregisters a previous Observe (RFC 7641 §3.6, with
// Observe=1).
func (c *Conn) CancelObserve(addr string, token []byte, path string) {
	c.mu.Lock()
	delete(c.awaiting, newTokenKey(addr, token))
	c.mu.Unlock()
	m := &Message{Type: NonConfirmable, Code: CodeGET, Token: token, MessageID: c.newMID()}
	m.SetPath(path)
	m.AddUintOption(OptObserve, 1)
	data, err := m.Marshal()
	if err == nil {
		_ = c.tr.Send(addr, data)
	}
}

// Path reassembles the Uri-Path options into a "/"-separated path.
func (m *Message) Path() string { return string(m.appendPath(nil)) }

// Queries returns all Uri-Query option values.
func (m *Message) Queries() []string {
	var out []string
	for _, o := range m.Options {
		if o.ID == OptURIQuery {
			out = append(out, string(o.Value))
		}
	}
	return out
}
