package safety

import "sort"

// Accessors and operations only tests use.

// Rules returns all rule names, sorted.
func (m *Monitor) Rules() []string {
	out := make([]string, 0, len(m.rules))
	for r := range m.rules {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}
